//! Record and replay of a charge sequence.
//!
//! A caller that charges the same work, at the same offsets from its own
//! start, again and again (the NA-VM's settle of one CG iteration, or the
//! reduction after an inner product) runs it once between
//! [`Machine::begin_record`] and [`Machine::end_record`], and then applies
//! the resulting [`Record`] whole with [`Machine::replay`].
//!
//! While recordings are active, four methods report to each of them before
//! they charge: [`Machine::run_tasks`] (every eligible worker of its
//! cluster), [`Machine::run_task`] (the same, and its PE),
//! [`Machine::charge`] (its PE) and [`Machine::try_transmit`] (the links of
//! its route), and so does a replay (what its record touches). A recorder
//! notes each PE and link the first time it is touched, with its state
//! then. Recordings nest: a reduction records itself inside the settle
//! that queued it. With none active each of the four pays one test.
//!
//! Replay is exact, not an estimate. Every charge, task and transfer of the
//! sequence starts at a time `t` not before the sequence's start `s`.
//!
//! * **Links.** Each hop of `Network::carry` starts at `t.max(link.free)`.
//!   When every link the sequence touches is free by `s`, its `free` only
//!   matters once the sequence itself has reserved the link. Routes and
//!   degrade factors change only with the fault epoch.
//! * **PEs.** A charge starts at `pe.free_at.max(t)`, and a task goes to
//!   the earliest-free eligible worker of its cluster, ties to the lowest
//!   index. Which PEs are eligible (failed PEs, the kernel PE) changes only
//!   with the fault epoch. When every PE the sequence touches stands at the
//!   same offset from `s` as when it was recorded, and every eligible
//!   worker of a cluster the sequence picks from is among them, every pick
//!   compares the same offsets and every start is `s` plus the same offset.
//!
//! So every time the sequence computes is `s` plus an offset that does not
//! depend on `s`, and a record made at one start reproduces the charges at
//! any later start under the same epoch with the same PE offsets: each
//! touched link's final `free` and `busy`, each touched PE's final
//! `free_at` and `busy_cycles`, the network's five counters, the current
//! phase's counters, the machine's event count and, for a traced transfer
//! sequence, its `LinkTransfer` spans.
//!
//! A record is not kept when a transfer found no route, a lane or link
//! record was allocated (a replay allocates nothing), a touched link was
//! busy or a touched PE was free after the start, an offset does not fit
//! `u32`, an eligible worker of a cluster the sequence picked from was left
//! untouched, the fault epoch or the phase moved during the sequence, or
//! the machine was traced and the sequence touched a PE: a record keeps the
//! spans of its transfers only, and only when the machine is traced as it
//! is made (on `plate_torus` they would more than double an untraced
//! record). A traced machine replays only a record that holds spans.

use super::Network;
use crate::machine::{Machine, MachineError};
use crate::pe::{Pe, PeId};
use crate::stats::PhaseCounters;
use crate::{Cycles, Words};
use fem2_trace::{EventKind, TraceEvent, NO_PE};

/// One link a recorded sequence touched: its slab slot, its `free` after
/// the sequence as an offset from the start, and the cycles the sequence
/// added to its `busy`. Offsets are `u32`, which keeps `plate_torus`'s
/// 2 046 touched links of a reduction at 24 KB.
#[derive(Clone, Copy, Debug)]
struct TouchedLink {
    slot: u32,
    free: u32,
    busy: u32,
}

/// One PE a recorded sequence touched: how far its `free_at` lay behind
/// the start before the sequence, how far past the start it lies after,
/// and the cycles the sequence added to its `busy_cycles`.
#[derive(Clone, Copy, Debug)]
struct TouchedPe {
    pe: PeId,
    lag: u32,
    free: u32,
    busy: u32,
}

/// One remote transfer of a recorded sequence, with its send and arrival
/// times as offsets from the start: what its `LinkTransfer` span needs
/// (its packet count follows from `words`).
#[derive(Clone, Copy, Debug)]
struct Transfer {
    from: u32,
    to: u32,
    words: u32,
    send: u32,
    arrive: u32,
}

/// The five traffic counters of a [`Network`], in field order.
fn counters(net: &Network) -> [u64; 5] {
    [
        net.messages,
        net.packets,
        net.rerouted_packets,
        net.payload_words,
        net.header_words_moved,
    ]
}

/// The whole effect of a charge sequence, relative to its start. Made only
/// by [`Machine::end_record`].
#[derive(Clone, Debug)]
pub struct Record {
    /// The machine's fault epoch the routes, degrade factors and eligible
    /// workers belong to.
    epoch: u64,
    /// In slot order, which walks the slab forward.
    links: Vec<TouchedLink>,
    /// The latest `free` offset of `links`.
    links_free: u32,
    pes: Vec<TouchedPe>,
    /// Deltas of the five network counters ([`counters`] order).
    counters: [u64; 5],
    /// Delta of [`Machine::events`].
    events: u64,
    /// What the sequence added to the current phase's counters; `None`
    /// when it counted nothing there, so a replay opens no startup phase.
    stats: Option<PhaseCounters>,
    /// The transfers, in order, if the machine was traced.
    spans: Option<Vec<Transfer>>,
    /// The caller's end of the sequence, as an offset from the start.
    end: u32,
}

impl Record {
    /// The caller's end of the sequence, as an offset from its start.
    pub fn end(&self) -> Cycles {
        Cycles::from(self.end)
    }
}

/// A charge sequence being recorded: the machine's counters at the start,
/// and each touched PE and link with its state before the sequence first
/// touched it.
#[derive(Debug)]
pub(crate) struct Recorder {
    start: Cycles,
    epoch: u64,
    counters: [u64; 5],
    events: u64,
    stats: Option<(usize, PhaseCounters)>,
    link_records: usize,
    /// Touched links, with `busy` holding the low 32 bits of the value
    /// before the sequence.
    links: Vec<TouchedLink>,
    /// By slot: whether `links` holds the slot already.
    seen_links: Vec<bool>,
    /// Touched PEs, with `busy` holding the low 32 bits of the value
    /// before the sequence.
    pes: Vec<TouchedPe>,
    /// By `cluster · pes_per_cluster + index`: whether `pes` holds the PE.
    seen_pes: Vec<bool>,
    spans: Option<Vec<Transfer>>,
    /// False once the run cannot be kept (see the module doc).
    replayable: bool,
}

impl Recorder {
    /// Note PE `pe` before the sequence first charges it.
    fn note_pe(&mut self, lanes: &[Option<Box<[Pe]>>], per_cluster: u32, pe: PeId) {
        let i = pe.cluster as usize * per_cluster as usize + pe.index as usize;
        if i >= self.seen_pes.len() {
            self.seen_pes.resize(i + 1, false);
        }
        if std::mem::replace(&mut self.seen_pes[i], true) {
            return;
        }
        // A lane the sequence allocates has no state to compare a replay
        // against, and a record holds no PE spans.
        let lane = lanes[pe.cluster as usize].as_deref();
        let Some(state) = lane.map(|lane| &lane[pe.index as usize]) else {
            self.replayable = false;
            return;
        };
        let lag = self.start.checked_sub(state.free_at);
        match lag.and_then(|lag| u32::try_from(lag).ok()) {
            Some(lag) if self.spans.is_none() => self.pes.push(TouchedPe {
                pe,
                lag,
                free: 0,
                busy: state.busy_cycles as u32,
            }),
            _ => self.replayable = false,
        }
    }

    /// Note every PE of cluster `c` that may take a task: alive and not
    /// `reserved`, the kernel PE a dedicating cluster keeps.
    pub(crate) fn note_workers(
        &mut self,
        lanes: &[Option<Box<[Pe]>>],
        per_cluster: u32,
        c: u32,
        reserved: usize,
    ) {
        let Some(lane) = &lanes[c as usize] else {
            self.replayable = false;
            return;
        };
        for (i, p) in lane.iter().enumerate() {
            if !p.failed && i != reserved {
                self.note_pe(lanes, per_cluster, PeId::new(c, i as u32));
            }
        }
    }

    /// Note PE `pe`, charged from `now`.
    pub(crate) fn note_charge(
        &mut self,
        lanes: &[Option<Box<[Pe]>>],
        per_cluster: u32,
        now: Cycles,
        pe: PeId,
    ) {
        self.replayable &= now >= self.start;
        self.note_pe(lanes, per_cluster, pe);
    }

    /// Note the links in slab slots `hops`, about to carry traffic from
    /// `at`.
    fn note_links(&mut self, net: &Network, at: Cycles, hops: impl IntoIterator<Item = u32>) {
        self.replayable &= at >= self.start;
        for slot in hops {
            let i = slot as usize;
            if i >= self.seen_links.len() {
                self.seen_links.resize(net.slab.len().max(i + 1), false);
            }
            if !std::mem::replace(&mut self.seen_links[i], true) {
                let link = &net.slab.links[i];
                self.replayable &= link.free <= self.start;
                self.links.push(TouchedLink {
                    slot,
                    free: 0,
                    busy: link.busy as u32,
                });
            }
        }
    }

    /// Note the span of a transfer sent at `at` that arrived at `arrive`,
    /// if the machine was traced when the recording began.
    fn note_span(&mut self, at: Cycles, arrive: Cycles, from: u32, to: u32, words: Words) {
        let Some(spans) = &mut self.spans else {
            return;
        };
        let offsets = (
            u32::try_from(words),
            u32::try_from(at - self.start),
            u32::try_from(arrive - self.start),
        );
        if let (Ok(words), Ok(send), Ok(arrive)) = offsets {
            spans.push(Transfer {
                from,
                to,
                words,
                send,
                arrive,
            });
        } else {
            self.replayable = false;
        }
    }

    /// The record of the run that ended at `end` on `m`, or `None` when it
    /// cannot be kept (see the module doc).
    fn finish(mut self, m: &Machine, end: Cycles) -> Option<Record> {
        let net = &m.network;
        let stats = m.stats.current();
        let phase_moved = matches!((self.stats, stats), (Some((a, _)), Some((b, _))) if a != b);
        if !self.replayable
            || phase_moved
            || m.fault_epoch() != self.epoch
            || net.allocated_link_records() != self.link_records
        {
            return None;
        }
        let offset = |t: Cycles| u32::try_from(t.checked_sub(self.start)?).ok();
        for touched in &mut self.links {
            let link = &net.slab.links[touched.slot as usize];
            touched.free = offset(link.free)?;
            // The sequence's reservations of a link are disjoint and lie
            // between the start and the link's final `free`, so the busy
            // increment is at most the `free` offset and fits `u32`: the
            // low 32 bits give it exactly. The same holds for a PE.
            touched.busy = (link.busy as u32).wrapping_sub(touched.busy);
        }
        for touched in &mut self.pes {
            let pe = m.pe(touched.pe).ok()?;
            let busy = (pe.busy_cycles as u32).wrapping_sub(touched.busy);
            if busy == 0 && pe.free_at + Cycles::from(touched.lag) == self.start {
                // An eligible worker no task took: its offset drifts from
                // one run of the sequence to the next.
                return None;
            }
            touched.free = offset(pe.free_at)?;
            touched.busy = busy;
        }
        self.links.sort_unstable_by_key(|l| l.slot);
        let now = counters(net);
        Some(Record {
            epoch: self.epoch,
            links_free: self.links.iter().map(|l| l.free).max().unwrap_or(0),
            links: self.links,
            pes: self.pes,
            counters: std::array::from_fn(|i| now[i] - self.counters[i]),
            events: m.events - self.events,
            stats: stats.map(|(_, after)| after.since(&self.stats.unwrap_or_default().1)),
            spans: self.spans,
            end: offset(end)?,
        })
    }
}

impl Machine {
    /// Start recording a charge sequence that begins at `start`: charge
    /// it, then call [`Machine::end_record`]. Recordings nest; each sees
    /// every charge made while it is active. The record keeps the
    /// transfers' spans if the machine is traced now.
    pub fn begin_record(&mut self, start: Cycles) {
        let recorder = Recorder {
            start,
            epoch: self.fault_epoch(),
            counters: counters(&self.network),
            events: self.events,
            stats: self.stats.current(),
            link_records: self.network.allocated_link_records(),
            links: Vec::new(),
            seen_links: Vec::new(),
            pes: Vec::new(),
            seen_pes: Vec::new(),
            spans: self.trace.is_enabled().then(Vec::new),
            replayable: true,
        };
        self.recorders.push(recorder);
    }

    /// End the innermost active recording: the record of its sequence,
    /// whose caller ended at `end`, or `None` when it cannot be kept.
    ///
    /// # Panics
    /// Panics if no recording is active.
    pub fn end_record(&mut self, end: Cycles) -> Option<Record> {
        let recorder = self.recorders.pop().expect("an active recording");
        recorder.finish(self, end)
    }

    /// [`Machine::try_transmit`] while recordings are active: every one of
    /// them notes the route's links before they are reserved, and the
    /// transfer's span when it keeps spans.
    pub(crate) fn try_transmit_recorded(
        &mut self,
        now: Cycles,
        from: u32,
        to: u32,
        words: Words,
    ) -> Result<Cycles, MachineError> {
        if from == to {
            // A local transfer touches no link: its time is `now` plus a
            // constant, so a replay has nothing to apply for it.
            return self
                .network
                .try_transmit(now, from, to, words)
                .ok_or(MachineError::ClusterUnreachable { from, to });
        }
        assert!(
            from < self.network.clusters && to < self.network.clusters,
            "cluster out of range"
        );
        let packets_before = self.network.packets;
        let recorders = &mut self.recorders;
        let sent = self.network.carry(now, from, to, words, |net, route| {
            for rec in recorders.iter_mut() {
                rec.note_links(net, now, route.hops().iter().copied());
            }
        });
        let Some((t, ())) = sent else {
            for rec in &mut self.recorders {
                rec.replayable = false;
            }
            return Err(MachineError::ClusterUnreachable { from, to });
        };
        self.record_transfer(now, t, from, to, words, packets_before);
        for rec in &mut self.recorders {
            rec.note_span(now, t, from, to, words);
        }
        Ok(t)
    }

    /// Apply `record` as if its sequence ran again from `start`, and return
    /// the sequence's end; `None`, with nothing charged, when the fault
    /// epoch moved since the record was made, a link it touches is busy
    /// past `start`, a PE it touches does not stand at its recorded offset
    /// from `start`, or the machine is traced and the record holds no
    /// spans. The same reservations, counters, stats, events and
    /// `LinkTransfer` spans, in the same order, as charging the sequence.
    /// Costs time in proportion to what the record touched; every active
    /// recording notes that first, as it would the charges.
    pub fn replay(&mut self, record: &Record, start: Cycles) -> Option<Cycles> {
        let spans = match &record.spans {
            Some(spans) => spans.as_slice(),
            None if self.trace.is_enabled() => return None,
            None => &[],
        };
        if record.epoch != self.fault_epoch() {
            return None;
        }
        let links = &self.network.slab.links;
        if start < self.network.free_high_water
            && record
                .links
                .iter()
                .any(|l| links[l.slot as usize].free > start)
        {
            return None;
        }
        let lanes = &mut self.lanes;
        if record.pes.iter().any(|p| {
            let before = start.checked_sub(Cycles::from(p.lag));
            lane_pe(lanes, p.pe).is_none_or(|pe| Some(pe.free_at) != before)
        }) {
            return None;
        }
        let per_cluster = self.config.pes_per_cluster;
        for rec in &mut self.recorders {
            rec.note_links(&self.network, start, record.links.iter().map(|l| l.slot));
            for p in &record.pes {
                rec.note_charge(lanes, per_cluster, start, p.pe);
            }
            // A nested replay's spans would need shifting into the outer
            // record; no caller nests under a trace.
            rec.replayable &= rec.spans.is_none();
        }
        let links = &mut self.network.slab.links;
        for touched in &record.links {
            let link = &mut links[touched.slot as usize];
            link.free = start + Cycles::from(touched.free);
            link.busy += Cycles::from(touched.busy);
        }
        for touched in &record.pes {
            let pe = lane_pe(lanes, touched.pe).expect("checked above");
            pe.free_at = start + Cycles::from(touched.free);
            pe.busy_cycles += Cycles::from(touched.busy);
        }
        let net = &mut self.network;
        if !record.links.is_empty() {
            let free = start + Cycles::from(record.links_free);
            net.free_high_water = net.free_high_water.max(free);
        }
        let [messages, packets, rerouted, payload, headers] = record.counters;
        net.messages += messages;
        net.packets += packets;
        net.rerouted_packets += rerouted;
        net.payload_words += payload;
        net.header_words_moved += headers;
        if let Some(delta) = &record.stats {
            self.stats.add_current(delta);
        }
        self.events += record.events;
        if self.trace.is_enabled() {
            let max_packet = self.network.max_packet_words;
            for tr in spans {
                let words = Words::from(tr.words);
                self.trace.emit(|| {
                    TraceEvent::span(
                        start + Cycles::from(tr.send),
                        Cycles::from(tr.arrive - tr.send),
                        tr.from,
                        NO_PE,
                        EventKind::LinkTransfer {
                            to_cluster: tr.to,
                            words,
                            // `Network::carry` segments this way; a
                            // zero-word message still sends one packet.
                            packets: words.div_ceil(max_packet).max(1) as u32,
                        },
                    )
                });
            }
        }
        Some(start + Cycles::from(record.end))
    }
}

/// The state of `pe`, if its lane is allocated.
fn lane_pe(lanes: &mut [Option<Box<[Pe]>>], pe: PeId) -> Option<&mut Pe> {
    lanes[pe.cluster as usize]
        .as_deref_mut()
        .map(|lane| &mut lane[pe.index as usize])
}
