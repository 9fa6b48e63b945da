//! Property tests for the hardware simulator: conservation, determinism,
//! and topology invariants under random traffic.

use fem2_machine::{CostClass, Machine, MachineConfig, Network, Pe, PeId, Topology, WorkProfile};
use fem2_trace::TraceHandle;
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Bus),
        Just(Topology::Ring),
        Just(Topology::Mesh2D { width: 4 }),
        Just(Topology::Crossbar),
        Just(Topology::Torus { dims: vec![2, 4] }),
        Just(Topology::Torus {
            dims: vec![2, 2, 2],
        }),
        Just(Topology::FatTree { radix: 2 }),
        Just(Topology::FatTree { radix: 4 }),
    ]
}

/// Topologies with multi-hop routes and detours for the route-cache
/// interleaving tests, with their cluster counts: small machines, where
/// faults sever pairs, and large ones, whose link ids span many pages of
/// the link index (one page holds 256 ids).
fn cached_topo_strategy() -> impl Strategy<Value = (u32, Topology)> {
    let torus = |dims: &[u32]| {
        let dims = dims.to_vec();
        Just((dims.iter().product(), Topology::Torus { dims }))
    };
    prop_oneof![
        Just((8, Topology::Crossbar)),
        torus(&[3, 4]),
        torus(&[3, 3, 2]),
        Just((12, Topology::FatTree { radix: 4 })),
        torus(&[64, 64]),
        torus(&[16, 16, 16]),
        torus(&[8, 8, 8, 8]),
        Just((4096, Topology::FatTree { radix: 64 })),
        Just((1024, Topology::Mesh2D { width: 32 })),
        Just((64, Topology::Crossbar)),
        Just((4096, Topology::Ring)),
    ]
}

/// A cluster operand for machines of up to 4096 clusters (reduce it mod
/// the cluster count): anywhere in the machine, or one of eight hubs
/// spread across it, so that pairs also repeat — warm routes, and faults
/// that land on a route in use.
fn cluster_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..4096, (0u32..8).prop_map(|hub| hub * 585)]
}

/// The link a fault operation names: any id, or — every other time — one
/// from `from`'s block of the id space (its own out-links on a torus, a
/// mesh or a crossbar), where routes out of a hub run.
fn fault_link(net: &Network, n: u32, from: u32, a: u32, b: u32, x: u64) -> usize {
    let links = net.link_count();
    if x.is_multiple_of(2) {
        (a as usize * 64 + b as usize) % links
    } else {
        let block = (links / n as usize).max(1);
        (from as usize * block + b as usize % block) % links
    }
}

/// Everything a caller can observe about a network after a run.
fn observe(net: &Network) -> [u64; 8] {
    [
        net.messages,
        net.packets,
        net.rerouted_packets,
        net.payload_words,
        net.header_words_moved,
        net.max_link_busy(),
        net.total_link_busy(),
        net.allocated_link_records() as u64,
    ]
}

/// Valid torus shapes for 2-D and 3-D routing tests (product ≤ 64).
fn torus_dims_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        (2u32..=4, 2u32..=4).prop_map(|(a, b)| vec![a, b]),
        (2u32..=3, 2u32..=3, 2u32..=3).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

proptest! {
    /// Hop counts are symmetric and zero exactly on the diagonal.
    #[test]
    fn hops_symmetric(topo in topo_strategy()) {
        let cfg = MachineConfig::clustered(8, 2, topo);
        let net = Network::new(&cfg);
        for a in 0..8 {
            for b in 0..8 {
                prop_assert_eq!(net.hops(a, b), net.hops(b, a));
                prop_assert_eq!(net.hops(a, b) == 0, a == b);
            }
        }
    }

    /// Word conservation: payload words transmitted equal words requested,
    /// and headers scale with packet count.
    #[test]
    fn transmit_conserves_words(
        topo in topo_strategy(),
        msgs in proptest::collection::vec((0u32..8, 0u32..8, 1u64..5000), 1..40),
    ) {
        let mut cfg = MachineConfig::clustered(8, 2, topo);
        cfg.max_packet_words = 256;
        let mut net = Network::new(&cfg);
        let mut expect_payload = 0u64;
        let mut remote = 0u64;
        for &(from, to, words) in &msgs {
            net.transmit(0, from, to, words);
            if from != to {
                expect_payload += words;
                remote += 1;
            }
        }
        prop_assert_eq!(net.payload_words, expect_payload);
        prop_assert_eq!(net.messages, remote);
        // Header accounting: headers = packets * header_words.
        prop_assert_eq!(net.header_words_moved, net.packets * cfg.header_words);
        // Packets at least one per remote message, and enough for payload.
        prop_assert!(net.packets >= remote);
    }

    /// Network arrival times are deterministic and monotone in start time.
    #[test]
    fn transmit_deterministic_and_monotone(
        topo in topo_strategy(),
        from in 0u32..8,
        to in 0u32..8,
        words in 1u64..4096,
        delay in 0u64..10_000,
    ) {
        let cfg = MachineConfig::clustered(8, 2, topo);
        let run = |start: u64| {
            let mut net = Network::new(&cfg);
            net.transmit(start, from, to, words)
        };
        prop_assert_eq!(run(0), run(0), "deterministic");
        let t0 = run(0);
        let t1 = run(delay);
        prop_assert_eq!(t1 - delay, t0, "time-shift invariant on a fresh net");
        // Arrival after start.
        prop_assert!(t0 > 0);
    }

    /// Torus dimension-order routes are hop-minimal (sum of per-dimension
    /// shortest wrap distances, computed independently here), deterministic,
    /// stay inside the link id space, and never revisit a link.
    #[test]
    fn torus_routes_are_dimension_order_minimal(
        dims in torus_dims_strategy(),
        from_raw in 0u32..64,
        to_raw in 0u32..64,
    ) {
        let n: u32 = dims.iter().product();
        let cfg = MachineConfig::clustered(n, 2, Topology::Torus { dims: dims.clone() });
        let net = Network::new(&cfg);
        let (from, to) = (from_raw % n, to_raw % n);
        // Independent coordinate math: dimension 0 has the lowest stride.
        let coords = |mut i: u32| -> Vec<u32> {
            dims.iter().map(|&d| { let c = i % d; i /= d; c }).collect()
        };
        let (f, t) = (coords(from), coords(to));
        let minimal: u32 = dims
            .iter()
            .enumerate()
            .map(|(d, &dim)| {
                let fwd = (t[d] + dim - f[d]) % dim;
                fwd.min(dim - fwd)
            })
            .sum();
        prop_assert_eq!(net.hops(from, to), minimal);
        let route = net.route_links(from, to).expect("healthy torus is connected");
        prop_assert_eq!(route.len() as u32, minimal, "route is hop-minimal");
        let space = n as usize * 2 * dims.len();
        let mut seen = std::collections::BTreeSet::new();
        for &l in &route {
            prop_assert!(l < space, "link id {l} outside id space {space}");
            prop_assert!(seen.insert(l), "route revisits link {l}");
        }
        // A fresh network picks the identical route.
        prop_assert_eq!(Network::new(&cfg).route_links(from, to).unwrap(), route);
    }

    /// Fat-tree up/down routes take exactly 2 hops inside a pod and 4
    /// across pods, deterministically, without revisiting a link.
    #[test]
    fn fat_tree_routes_are_up_down_minimal(
        radix_pow in 1u32..=3,
        pods in 1u32..=4,
        from_raw in 0u32..64,
        to_raw in 0u32..64,
    ) {
        let radix = 1u32 << radix_pow;
        let n = radix * pods;
        let cfg = MachineConfig::clustered(n, 2, Topology::FatTree { radix });
        let net = Network::new(&cfg);
        let (from, to) = (from_raw % n, to_raw % n);
        let expect = if from == to {
            0
        } else if from / radix == to / radix {
            2
        } else {
            4
        };
        prop_assert_eq!(net.hops(from, to), expect);
        let route = net.route_links(from, to).expect("healthy fat tree is connected");
        prop_assert_eq!(route.len() as u32, expect, "up/down route is hop-minimal");
        let space = 4 * n as usize;
        let mut seen = std::collections::BTreeSet::new();
        for &l in &route {
            prop_assert!(l < space, "link id {l} outside id space {space}");
            prop_assert!(seen.insert(l), "route revisits link {l}");
        }
        prop_assert_eq!(Network::new(&cfg).route_links(from, to).unwrap(), route);
    }

    /// Under arbitrary link kills, a chosen route (detour or not) never
    /// crosses a dead link, never revisits any link, never beats the
    /// healthy hop count, and is a pure function of the fault state.
    #[test]
    fn faulted_detours_avoid_dead_links(
        torus_side in prop_oneof![Just(false), Just(true)],
        kills in proptest::collection::btree_set(0usize..32, 0..6),
        from_raw in 0u32..8,
        to_raw in 0u32..8,
    ) {
        let n = 8u32;
        let topo = if torus_side {
            Topology::Torus { dims: vec![2, 4] }
        } else {
            Topology::FatTree { radix: 4 }
        };
        let cfg = MachineConfig::clustered(n, 2, topo);
        let build = || {
            let mut net = Network::new(&cfg);
            for &k in &kills {
                if k < net.link_count() {
                    net.fail_link(k);
                }
            }
            net
        };
        let net = build();
        let (from, to) = (from_raw % n, to_raw % n);
        match net.route_links(from, to) {
            // Unreachable under these faults: acceptable, and stable.
            None => prop_assert_eq!(build().route_links(from, to), None),
            Some(route) => {
                let mut seen = std::collections::BTreeSet::new();
                for &l in &route {
                    prop_assert!(!net.link_is_dead(l), "route crosses dead link {l}");
                    prop_assert!(seen.insert(l), "route revisits link {l}");
                }
                prop_assert!(
                    from == to || route.len() as u32 >= net.hops(from, to),
                    "detour cannot beat the healthy hop count"
                );
                prop_assert_eq!(build().route_links(from, to).unwrap(), route);
            }
        }
    }

}

// The identity tests of the route table and the link index: eleven machine
// shapes, so more cases than the default 32.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The route cache — entries that start as link ids and are rewritten
    /// to slab slots by the first transmit — is invisible: any interleaving
    /// of transmits, read-only probes, fault transitions and resets gives
    /// the same answers, counters, link-busy aggregates and allocated link
    /// records as recomputing every route.
    #[test]
    fn route_cache_is_invisible_under_interleaved_probes_and_faults(
        machine in cached_topo_strategy(),
        ops in proptest::collection::vec(
            (0u8..12, cluster_strategy(), cluster_strategy(), 0u64..700),
            1..300,
        ),
    ) {
        let (n, topo) = machine;
        let run = |route_cache: bool| {
            let mut cfg = MachineConfig::clustered(n, 2, topo.clone());
            cfg.route_cache = route_cache;
            cfg.max_packet_words = 256;
            let mut net = Network::new(&cfg);
            let mut log = Vec::new();
            let mut now = 0;
            for &(op, a, b, x) in &ops {
                let (from, to) = (a % n, b % n);
                let link = fault_link(&net, n, from, a, b, x);
                match op {
                    // Transmits dominate so routes get resolved and reused,
                    // and come as a fan of up to 48 out of `from`, so the
                    // route table doubles several times between the fault
                    // transitions that empty it.
                    0..=4 => {
                        for i in 0..=(x % 48) as u32 {
                            let arrive = net.try_transmit(now, from, (to + i * 37) % n, x);
                            now += x / 4;
                            log.push(arrive);
                        }
                    }
                    5 => log.push(Some(net.estimate(from, to, x))),
                    6 => log.push(net.route_links(from, to).map(|r| {
                        r.iter().fold(r.len() as u64, |h, &l| h.wrapping_mul(31).wrapping_add(l as u64))
                    })),
                    7 => log.push(net.min_delivery_latency(from, to)),
                    8 => net.fail_link(link),
                    9 => net.degrade_link(link, 1 + (x % 5) as u32),
                    10 => net.recover_link(link),
                    _ => net.reset(),
                }
                log.push(Some(net.allocated_link_records() as u64));
            }
            (log, observe(&net))
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The tracked transmit against the calls it replaces, on a twin network
    /// driven the old way (`estimate`, `route_links`, `try_transmit` — three
    /// lookups): same estimate, same arrival, same counters and link
    /// records, with and without the route cache. And the loss rule: after
    /// every send and every fault transition, every message sent so far
    /// reads `flight_lost` exactly when a link id of the route it took is
    /// dead now — killed-then-recovered links included.
    #[test]
    fn tracked_transmit_matches_probe_then_transmit(
        machine in prop_oneof![
            cached_topo_strategy(),
            Just((8, Topology::Ring)),
            Just((4, Topology::Bus)),
        ],
        route_cache in prop_oneof![Just(true), Just(false)],
        ops in proptest::collection::vec(
            (0u8..10, cluster_strategy(), cluster_strategy(), 0u64..700),
            1..120,
        ),
    ) {
        let (n, topo) = machine;
        let mut cfg = MachineConfig::clustered(n, 2, topo);
        cfg.route_cache = route_cache;
        cfg.max_packet_words = 256;
        let mut net = Network::new(&cfg);
        let mut twin = Network::new(&cfg);
        let mut in_flight = Vec::new();
        let mut now = 0;
        for &(op, a, b, x) in &ops {
            let (from, to) = (a % n, (a % n + 1 + b % (n - 1)) % n);
            let link = fault_link(&net, n, from, a, b, x);
            match op {
                0..=5 => {
                    let estimate = twin.estimate(from, to, x);
                    let route = twin.route_links(from, to);
                    let arrival = twin.try_transmit(now, from, to, x);
                    let sent = net.transmit_tracked(now, from, to, x);
                    prop_assert_eq!(sent.estimate, estimate);
                    prop_assert_eq!(sent.arrival.as_ref().map(|(t, _)| *t), arrival);
                    prop_assert_eq!(arrival.is_some(), route.is_some());
                    let records = net.allocated_link_records();
                    prop_assert_eq!(records, twin.allocated_link_records());
                    // The reliable layer's back-leg probe allocates nothing.
                    prop_assert_eq!(net.estimate(to, from, 2), twin.estimate(to, from, 2));
                    prop_assert_eq!(net.allocated_link_records(), records);
                    if let (Some((_, flight)), Some(route)) = (sent.arrival, route) {
                        in_flight.push((flight, route));
                    }
                    now += x / 4;
                }
                6 | 7 => {
                    net.fail_link(link);
                    twin.fail_link(link);
                }
                8 => {
                    net.degrade_link(link, 1 + (x % 5) as u32);
                    twin.degrade_link(link, 1 + (x % 5) as u32);
                }
                _ => {
                    net.recover_link(link);
                    twin.recover_link(link);
                }
            }
            for (flight, route) in &in_flight {
                let dead_now = route.iter().any(|&l| twin.link_is_dead(l));
                prop_assert_eq!(net.flight_lost(flight), dead_now, "route {:?}", route);
            }
        }
        prop_assert_eq!(observe(&net), observe(&twin));
    }

    /// The dead-link count that lets route selection skip its per-hop check
    /// is the size of the dead set, whatever the order of kills, repeated
    /// kills, degradations, repairs (of dead and of live links) and resets.
    /// Checked against a model that knows only the set: every link named so
    /// far reads dead exactly when the set holds it; a pair's route is its
    /// primary exactly when no link of the primary is in the set, and no
    /// route crosses a link that is; and every transmit equals the one on a
    /// twin that recomputes its routes.
    #[test]
    fn dead_link_count_tracks_the_dead_set(
        machine in cached_topo_strategy(),
        ops in proptest::collection::vec((0u8..9, 0u32..4, 0u32..3, 0u64..700), 1..80),
    ) {
        let (n, topo) = machine;
        let mut cfg = MachineConfig::clustered(n, 2, topo);
        let healthy = Network::new(&cfg);
        let mut net = Network::new(&cfg);
        cfg.route_cache = false;
        let mut twin = Network::new(&cfg);
        let mut dead = std::collections::BTreeSet::new();
        let mut named = std::collections::BTreeSet::new();
        let mut now = 0;
        for &(op, a, b, x) in &ops {
            // Four hubs, so the same few pairs and links come up again.
            let (from, to) = (a * 1365 % n, (a + 1 + b) % 4 * 1365 % n);
            prop_assume!(from != to);
            let primary = healthy.route_links(from, to).expect("healthy network is connected");
            let link = primary[(x as usize % 2).min(primary.len() - 1)];
            named.insert(link);
            match op {
                // Once, or twice in a row.
                0 | 1 => {
                    for _ in 0..=op {
                        net.fail_link(link);
                        twin.fail_link(link);
                    }
                    dead.insert(link);
                }
                2 => {
                    net.degrade_link(link, 1 + (x % 5) as u32);
                    twin.degrade_link(link, 1 + (x % 5) as u32);
                }
                3 | 4 => {
                    net.recover_link(link);
                    twin.recover_link(link);
                    dead.remove(&link);
                }
                5 => {
                    net.reset();
                    twin.reset();
                }
                _ => {}
            }
            for &l in &named {
                prop_assert_eq!(net.link_is_dead(l), dead.contains(&l), "link {}", l);
            }
            let route = net.route_links(from, to);
            if primary.iter().all(|l| !dead.contains(l)) {
                prop_assert_eq!(route.as_ref(), Some(&primary));
            } else if let Some(route) = &route {
                prop_assert!(route != &primary);
                prop_assert!(route.iter().all(|l| !dead.contains(l)), "route {:?}", route);
            }
            let arrive = net.try_transmit(now, from, to, x);
            prop_assert_eq!(arrive.is_some(), route.is_some());
            prop_assert_eq!(arrive, twin.try_transmit(now, from, to, x));
            now += x / 4;
        }
        prop_assert_eq!(observe(&net), observe(&twin));
    }
}

proptest! {
    /// Probes never allocate link records, however large the machine, and
    /// a route reads the same in link ids before and after its first
    /// transmit rewrites the cached entry to slab slots.
    #[test]
    fn probes_leave_a_4096_cluster_torus_unallocated(
        pairs in proptest::collection::vec((0u32..4096, 0u32..4096), 1..12),
    ) {
        let cfg = MachineConfig::clustered(4096, 2, Topology::Torus { dims: vec![64, 64] });
        let mut net = Network::new(&cfg);
        let mut before = Vec::new();
        for &(a, b) in &pairs {
            before.push(net.route_links(a, b).expect("healthy torus is connected"));
            net.estimate(a, b, 300);
            net.min_delivery_latency(a, b);
        }
        prop_assert_eq!(net.allocated_link_records(), 0);
        for (&(a, b), ids) in pairs.iter().zip(&before) {
            let est = net.estimate(a, b, 300);
            let bound = net.min_delivery_latency(a, b);
            net.transmit(0, a, b, 300);
            prop_assert_eq!(&net.route_links(a, b).unwrap(), ids);
            prop_assert_eq!(net.estimate(a, b, 300), est);
            prop_assert_eq!(net.min_delivery_latency(a, b), bound);
        }
        let used: std::collections::BTreeSet<usize> = before.into_iter().flatten().collect();
        prop_assert_eq!(net.allocated_link_records(), used.len());
    }

    /// The fused worker scan picks what the straightforward definition
    /// picks — filter the eligible workers, then take the minimum — under
    /// random PE failures (which move the kernel PE and can leave it the
    /// only survivor, when it becomes eligible) and random load.
    #[test]
    fn worker_scan_matches_filter_then_min(
        dedicated in prop_oneof![Just(true), Just(false)],
        kills in proptest::collection::vec((0u32..2, 0u32..4), 0..8),
        survivor in 0u32..4,
        work in proptest::collection::vec((0u32..3, 0u32..4, 1u64..400), 0..24),
        now in 0u64..3000,
    ) {
        let mut cfg = MachineConfig::clustered(3, 4, Topology::Crossbar);
        cfg.dedicated_kernel_pe = dedicated;
        let mut m = Machine::new(cfg);
        // Clusters 0 and 1 lose random PEs (a dead cluster is a case too);
        // cluster 2 is always down to one survivor.
        let lone = (0..4).filter(|&p| p != survivor).map(|p| (2, p));
        for (c, p) in kills.iter().copied().chain(lone) {
            let _ = m.fail_pe(PeId::new(c, p));
        }
        for &(c, p, flops) in &work {
            let _ = m.charge(0, PeId::new(c, p), CostClass::Flop, flops);
        }
        for c in 0..3 {
            let free_at = |pe: &PeId| m.pe(*pe).unwrap().free_at;
            let earliest = m.worker_pes(c).into_iter().min_by_key(|pe| (free_at(pe), pe.index));
            prop_assert_eq!(m.pick_worker(c), earliest);
            let free_now = m.worker_pes(c).into_iter().find(|pe| free_at(pe) <= now);
            prop_assert_eq!(m.free_worker(c, now), free_now);
        }
        prop_assert_eq!(m.pick_worker(2), Some(PeId::new(2, survivor)));
        prop_assert_eq!(m.kernel_pe(2), PeId::new(2, survivor));
    }

    /// Charging random work to random PEs keeps busy-cycle accounting
    /// consistent with the makespan.
    #[test]
    fn machine_charging_consistent(
        work in proptest::collection::vec((0u32..4, 0u32..4, 1u64..1000), 1..50),
    ) {
        let mut m = Machine::new(MachineConfig::clustered(4, 4, Topology::Crossbar));
        for &(c, p, flops) in &work {
            let _ = m.charge(0, PeId::new(c, p), CostClass::Flop, flops);
        }
        let total_flops: u64 = work.iter().map(|&(_, _, f)| f).sum();
        prop_assert_eq!(m.stats.total().flops, total_flops);
        // Makespan is at least the average load and at most the total.
        let cost = m.config.cost.flop;
        prop_assert!(m.makespan() <= total_flops * cost);
        prop_assert!(m.total_busy_cycles() == total_flops * cost);
    }

    /// `run_task` against the four `charge` calls it replaces, on twin
    /// machines under random failures, PEs (some out of range), start
    /// times and profiles: the same results, free times, busy cycles,
    /// stats table, event count and recorded trace bytes.
    #[test]
    fn run_task_matches_four_charges(
        kills in proptest::collection::vec((0u32..3, 0u32..4), 0..4),
        tasks in proptest::collection::vec(
            (0u32..3, 0u32..5, 0u64..2000, 0u64..500, 0u64..500, 0u64..500),
            1..40,
        ),
    ) {
        let twin = |fused: bool| {
            let mut m = Machine::new(MachineConfig::clustered(3, 4, Topology::Crossbar));
            let (trace, rec) = TraceHandle::ring(1 << 10);
            m.set_trace(trace);
            for &(c, p) in &kills {
                let _ = m.fail_pe(PeId::new(c, p));
            }
            let mut results = Vec::new();
            for (i, &(c, p, now, flops, int_ops, mem_words)) in tasks.iter().enumerate() {
                if i == tasks.len() / 2 {
                    m.phase("second half", now);
                }
                let (pe, work) = (PeId::new(c, p), WorkProfile { flops, int_ops, mem_words });
                results.push(if fused {
                    m.run_task(now, pe, &work)
                } else {
                    m.charge(now, pe, CostClass::ContextSwitch, 1)
                        .and_then(|_| m.charge(now, pe, CostClass::IntOp, int_ops))
                        .and_then(|_| m.charge(now, pe, CostClass::MemWord, mem_words))
                        .and_then(|_| m.charge(now, pe, CostClass::Flop, flops))
                });
            }
            let pes: Vec<Pe> = (0..3)
                .flat_map(|c| (0..4).map(move |p| PeId::new(c, p)))
                .map(|pe| *m.pe(pe).unwrap())
                .collect();
            let r = rec.lock().unwrap();
            let trace = (r.len(), r.dropped(), r.events().copied().collect::<Vec<_>>());
            (results, pes, m.stats.table(), m.events, trace)
        };
        prop_assert_eq!(twin(true), twin(false));
    }

    /// Fault isolation never resurrects PEs and conserves the alive count.
    #[test]
    fn fault_accounting(kills in proptest::collection::vec((0u32..4, 0u32..4), 0..12)) {
        let mut m = Machine::new(MachineConfig::clustered(4, 4, Topology::Bus));
        let mut unique = std::collections::BTreeSet::new();
        for &(c, p) in &kills {
            let pe = PeId::new(c, p);
            // ClusterDead errors are acceptable; the PE is still isolated.
            let _ = m.fail_pe(pe);
            unique.insert(pe);
        }
        prop_assert_eq!(m.reconfigurations as usize, unique.len());
        let alive: u32 = (0..4).map(|c| m.alive_count(c)).sum();
        prop_assert_eq!(alive as usize, 16 - unique.len());
    }
}

/// What a dead-link count that drifted to zero would hide: kill the only
/// link of a pair, repair it, kill it again — unreachable, reachable,
/// unreachable — with every other link healthy throughout. Each round
/// repairs the link a second time, already live, and the last kills it
/// twice: neither may move the count.
#[test]
fn only_link_of_a_pair_killed_recovered_killed() {
    for route_cache in [true, false] {
        // A bus is one link; a fat-tree leaf has one uplink (id = the leaf).
        for (topo, link) in [(Topology::Bus, 0), (Topology::FatTree { radix: 4 }, 5)] {
            let mut cfg = MachineConfig::clustered(8, 2, topo);
            cfg.route_cache = route_cache;
            let mut net = Network::new(&cfg);
            for round in 0..3 {
                net.fail_link(link);
                assert!(net.link_is_dead(link));
                assert_eq!(net.route_links(5, 2), None, "round {round}");
                assert_eq!(net.try_transmit(0, 5, 2, 64), None);
                net.recover_link(link);
                net.recover_link(link);
                assert!(!net.link_is_dead(link));
                assert!(net.route_links(5, 2).is_some(), "round {round}");
                assert!(net.try_transmit(0, 5, 2, 64).is_some());
            }
            net.fail_link(link);
            net.fail_link(link);
            assert_eq!(net.try_transmit(0, 5, 2, 64), None);
            net.recover_link(link);
            assert!(net.try_transmit(0, 5, 2, 64).is_some());
        }
    }
}
