//! The network on idle links: the closed form of an uncontended message,
//! its shift invariance, and the record-and-replay of a transfer sequence
//! that rests on it ([`Machine::replay`]).

use fem2_machine::{Cycles, Machine, MachineConfig, Network, Record, Topology};
use fem2_trace::TraceHandle;
use proptest::prelude::*;

/// All six topologies, over 1–64 clusters (2-D to 4-D tori).
fn machine_strategy() -> impl Strategy<Value = (u32, Topology)> {
    let torus = prop_oneof![
        (2u32..=8, 2u32..=8).prop_map(|(a, b)| vec![a, b]),
        (2u32..=4, 2u32..=4, 2u32..=4).prop_map(|(a, b, c)| vec![a, b, c]),
        (2u32..=4).prop_map(|a| vec![2, a, 2, 2]),
    ];
    prop_oneof![
        (1u32..=64).prop_map(|n| (n, Topology::Bus)),
        (1u32..=64).prop_map(|n| (n, Topology::Ring)),
        (1u32..=8, 1u32..=8).prop_map(|(w, rows)| (w * rows, Topology::Mesh2D { width: w })),
        (1u32..=64).prop_map(|n| (n, Topology::Crossbar)),
        torus.prop_map(|dims| (dims.iter().product(), Topology::Torus { dims })),
        (2u32..=8, 1u32..=8).prop_map(|(r, pods)| (r * pods, Topology::FatTree { radix: r })),
    ]
}

/// Hops between two clusters from their coordinates, written apart from
/// the network's own routing.
fn hops_by_coordinates(topology: &Topology, n: u32, from: u32, to: u32) -> u64 {
    if from == to {
        return 0;
    }
    let wrap = |a: u32, b: u32, extent: u32| {
        let d = a.abs_diff(b);
        d.min(extent - d)
    };
    let hops = match topology {
        Topology::Bus | Topology::Crossbar => 1,
        Topology::Ring => wrap(from, to, n),
        Topology::Mesh2D { width } => {
            (from % width).abs_diff(to % width) + (from / width).abs_diff(to / width)
        }
        Topology::Torus { dims } => {
            let (mut f, mut t, mut hops) = (from, to, 0);
            for &extent in dims {
                hops += wrap(f % extent, t % extent, extent);
                f /= extent;
                t /= extent;
            }
            hops
        }
        // Leaf up and down, plus the edge-to-core pair between pods.
        Topology::FatTree { radix } => 2 + 2 * u32::from(from / radix != to / radix),
    };
    u64::from(hops)
}

/// The arrival offset `Network::carry` implies for one message on links
/// that are free by its send: store-and-forward packets, each occupying
/// every link for ⌈(payload + header) / width⌉ cycles (at least one), then
/// crossing it in `link_latency`. Packets pipeline, so after the first
/// packet each later one adds one full packet's occupancy, and the last
/// (possibly short) packet waits behind the full one ahead of it on every
/// link but the last.
fn store_and_forward(cfg: &MachineConfig, hops: u64, words: u64) -> Cycles {
    let occupancy = |payload: u64| {
        (payload + cfg.header_words)
            .div_ceil(u64::from(cfg.words_per_cycle))
            .max(1)
    };
    let packets = words.div_ceil(cfg.max_packet_words).max(1);
    let last = occupancy(words - (packets - 1) * cfg.max_packet_words);
    if packets == 1 {
        hops * (last + cfg.link_latency)
    } else {
        (packets + hops - 2) * occupancy(cfg.max_packet_words) + hops * cfg.link_latency + last
    }
}

/// Messages of a reduction-shaped sequence: every cluster to cluster 0,
/// then cluster 0 to every cluster. Odd clusters send `extra` more words,
/// so multi-packet messages mix with single ones.
fn sequence(n: u32, words: u64, extra: u64) -> impl Iterator<Item = (u32, u32, u64)> {
    let w = move |c: u32| words + u64::from(c % 2) * extra;
    let up = (1..n).map(move |c| (c, 0, w(c)));
    let down = (1..n).map(move |c| (0, c, w(c)));
    up.chain(down)
}

/// Run the sequence from `start` the way the NA-VM's reduction does: the
/// first half all at `start`, each message of the second half when every
/// earlier message has arrived. A dead letter costs nothing. Returns the
/// sequence's end.
fn run_sequence(
    m: &mut Machine,
    start: Cycles,
    messages: impl Iterator<Item = (u32, u32, u64)>,
) -> Cycles {
    let mut barrier = start;
    for (from, to, words) in messages {
        let at = if from == 0 { barrier } else { start };
        let sent = m.try_transmit(at, from, to, words);
        barrier = barrier.max(sent.unwrap_or(at));
    }
    barrier
}

/// A machine, the trace it records into once traced, and the record it
/// replays from.
struct Twin {
    m: Machine,
    trace: TraceHandle,
    rec: fem2_trace::SharedRecorder,
    record: Option<Record>,
}

impl Twin {
    fn new(cfg: &MachineConfig, traced: bool) -> Self {
        let (trace, rec) = TraceHandle::ring(1 << 16);
        let mut twin = Twin {
            m: Machine::new(cfg.clone()),
            trace,
            rec,
            record: None,
        };
        if traced {
            twin.m.set_trace(twin.trace.clone());
        }
        twin
    }

    /// Everything the two paths must agree on: every link record (free,
    /// busy, degrade), the five network counters and the route table — the
    /// whole `Network` — then the stats, the event count and the trace.
    fn observe(&self) -> impl PartialEq + std::fmt::Debug {
        let r = self
            .rec
            .lock()
            .expect("no other holder of the recorder lock");
        let trace: Vec<_> = r.events().copied().collect();
        (
            format!("{:?}", self.m.network),
            self.m.stats.table(),
            self.m.events,
            r.dropped(),
            trace,
        )
    }
}

proptest! {
    /// One message on links that are free by its send arrives at the
    /// store-and-forward closed form, with hops counted from coordinates,
    /// and a later send shifts the arrival by exactly the delay. The
    /// wormhole form `hops × latency + ⌈words / width⌉` is only a lower
    /// bound: it charges occupancy once and carries no header.
    #[test]
    fn uncontended_message_arrives_at_the_closed_form(
        machine in machine_strategy(),
        pair in (0u32..64, 0u32..64),
        words in prop_oneof![0u64..=300, 0u64..=3000],
        link in (1u64..=40, 1u32..=4, 1u64..=300, 0u64..=8),
        prior in (0u32..64, 0u32..64, 0u64..=3000),
        delay in 0u64..100_000,
    ) {
        let (n, topology) = machine;
        let mut cfg = MachineConfig::clustered(n, 2, topology.clone());
        (cfg.link_latency, cfg.words_per_cycle, cfg.max_packet_words, cfg.header_words) = link;
        let (from, to) = (pair.0 % n, pair.1 % n);
        prop_assume!(from != to);
        let hops = hops_by_coordinates(&topology, n, from, to);
        prop_assert_eq!(u64::from(Network::new(&cfg).hops(from, to)), hops);
        let expect = store_and_forward(&cfg, hops, words);
        let wormhole = hops * cfg.link_latency + words.div_ceil(u64::from(cfg.words_per_cycle));
        prop_assert!(wormhole <= expect);

        let fresh = Network::new(&cfg).transmit(0, from, to, words);
        prop_assert_eq!(fresh, expect);
        prop_assert_eq!(Network::new(&cfg).transmit(delay, from, to, words), delay + expect);

        // Idle by the send is enough: earlier traffic whose links are all
        // free again changes nothing.
        let mut net = Network::new(&cfg);
        let settled = net.transmit(0, prior.0 % n, prior.1 % n, prior.2);
        let at = settled + delay;
        prop_assert_eq!(net.transmit(at, from, to, words), at + expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A recorded sequence replayed leaves the machine exactly as routing
    /// every message would, at any later start: six topologies over 1–64
    /// clusters, traced or not, with the route cache or the uncached
    /// reference router. Between rounds: an idle gap (the record
    /// must replay), traffic that leaves links busy past the next start,
    /// a link kill, degrade or recovery (the epoch moves, so it must not
    /// replay; the per-message run records again), a network reset, or
    /// the trace attached (a record made untraced holds no spans, so the
    /// run records again, spans included).
    #[test]
    fn replay_matches_per_message_routing(
        machine in machine_strategy(),
        words in (0u64..=8, prop_oneof![Just(0u64), 1u64..=600]),
        traced in any::<bool>(),
        route_cache in any::<bool>(),
        ops in proptest::collection::vec((0u8..7, 0u32..64, 0u32..64, 0u64..=3000), 1..10),
    ) {
        let (n, topology) = machine;
        let mut cfg = MachineConfig::clustered(n, 2, topology);
        cfg.route_cache = route_cache;
        let mut replay = Twin::new(&cfg, traced);
        let mut oracle = Twin::new(&cfg, traced);
        let messages = || sequence(n, words.0, words.1);
        let mut now = 0;
        // Whether the last round left a record that is good at its end.
        let mut clean = false;
        for (round, &(op, a, b, x)) in ops.iter().enumerate() {
            let (from, to) = (a % n, b % n);
            let link = (a as usize * 64 + b as usize) % oracle.m.network.link_count();
            for twin in [&mut replay, &mut oracle] {
                let net = &mut twin.m.network;
                match op {
                    0 => {}
                    1 => {
                        let _ = twin.m.try_transmit(now, from, to, x);
                    }
                    2 => net.fail_link(link),
                    3 => net.degrade_link(link, 2 + (x % 3) as u32),
                    4 => net.recover_link(link),
                    5 => net.reset(),
                    _ => twin.m.set_trace(twin.trace.clone()),
                }
            }
            if op == 0 {
                now += x;
            }
            let start = now;
            let replayed = replay.record.as_ref().and_then(|r| replay.m.replay(r, start));
            let (end, kept) = match replayed {
                Some(end) => (end, true),
                None => {
                    replay.m.begin_record(start);
                    let end = run_sequence(&mut replay.m, start, messages());
                    let record = replay.m.end_record(end);
                    let kept = record.is_some();
                    replay.record = record.or(replay.record.take());
                    (end, kept)
                }
            };
            now = run_sequence(&mut oracle.m, start, messages());
            prop_assert_eq!(end, now, "round {}", round);
            prop_assert_eq!(replay.observe(), oracle.observe(), "round {}", round);
            if op == 0 && clean {
                prop_assert!(replayed.is_some(), "round {}: an idle gap must replay", round);
            }
            if (2..=4).contains(&op) {
                prop_assert!(replayed.is_none(), "round {}: a fault must re-record", round);
            }
            clean = kept;
        }
    }
}
