//! Record and replay of a fixed sequence of remote transfers.
//!
//! A caller that sends the same messages, at the same offsets from its own
//! start, again and again (the NA-VM's reduction after every inner
//! product) can route them once through a [`Recorder`] and then apply the
//! resulting [`TransferRecord`] whole with [`Machine::replay`].
//!
//! Replay is exact, not an estimate. Each hop of `Network::carry` starts
//! at `t.max(link.free)` with `t` never before the sequence's start `s`.
//! When every link the sequence touches is free by `s`, its `free` only
//! matters once the sequence itself has reserved the link, so every time
//! the sequence computes is `s` plus an offset that does not depend on
//! `s`. Routes and degrade factors change only with the fault epoch. So a
//! record made at one start, under one epoch, reproduces the per-message
//! charges at any later start under the same epoch: each touched link's
//! final `free` and `busy`, the network's five counters, the stats, the
//! machine's event count and, span for span, the trace.
//!
//! A record keeps its transfers' spans only when the machine is traced as
//! it is made: on `plate_torus` they would more than double an untraced
//! record. A traced machine does not replay a record without them; it
//! routes the sequence once more, and that run records them.

use super::Network;
use crate::machine::{Machine, MachineError};
use crate::{Cycles, Words};
use fem2_trace::{EventKind, TraceEvent, NO_PE};

/// One link a recorded sequence touched: its slab slot, its `free` after
/// the sequence as an offset from the start, and the cycles the sequence
/// added to its `busy`. Offsets are `u32`, which keeps `plate_torus`'s
/// 2 046 touched links at 24 KB; a sequence that does not fit is not kept.
#[derive(Clone, Copy, Debug)]
struct TouchedLink {
    slot: u32,
    free: u32,
    busy: u32,
}

/// One remote transfer of a recorded sequence, with its send and arrival
/// times as offsets from the start: what its `LinkTransfer` span needs
/// (its packet count follows from `words`). A transfer whose figures do
/// not fit `u32` keeps its run from being kept.
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

/// The whole effect of a transfer sequence that ran on idle links,
/// relative to its start. Made only by [`Recorder::finish`].
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// The fault epoch the routes and degrade factors belong to.
    epoch: u64,
    links: Vec<TouchedLink>,
    /// Deltas of the five network counters ([`counters`] order). The
    /// message and payload deltas are also those of `Stats::message`, and
    /// the message delta that of `Machine::events`: one each per remote
    /// transfer.
    counters: [u64; 5],
    /// The transfers, in order, if the machine was traced.
    spans: Option<Vec<Transfer>>,
    /// The caller's end of the sequence, as an offset from the start.
    end: u32,
}

/// The per-message run of a transfer sequence, watched: each transfer is
/// carried as [`Machine::try_transmit`] carries it, and the recorder
/// notes the slots of the routes taken and each link's state before the
/// sequence first reserved it. Nothing is added to the per-hop loop.
#[derive(Debug)]
pub struct Recorder {
    start: Cycles,
    epoch: u64,
    counters: [u64; 5],
    /// Touched links, with `busy` holding the low 32 bits of the value
    /// before the sequence.
    links: Vec<TouchedLink>,
    /// By slot: whether `links` holds the slot already.
    seen: Vec<bool>,
    spans: Option<Vec<Transfer>>,
    /// False once a touched link was busy past the start, a transfer
    /// found no route or an offset outgrew `u32`: such a run is not kept.
    replayable: bool,
}

impl Recorder {
    /// [`Machine::try_transmit`], recorded. `at` is not before the
    /// recorder's start.
    ///
    /// # Errors
    /// `MachineError::ClusterUnreachable` when dead links leave no
    /// route; nothing is charged, and the run will not be kept.
    ///
    /// # Panics
    /// Panics if `at` is before the start, which would break the shift
    /// a replay rests on, or if a cluster is out of range.
    pub fn transmit(
        &mut self,
        m: &mut Machine,
        at: Cycles,
        from: u32,
        to: u32,
        words: Words,
    ) -> Result<Cycles, MachineError> {
        assert!(
            at >= self.start,
            "a recorded transfer leaves before the start"
        );
        if from == to {
            // A local transfer touches no link: its time is `at` plus a
            // constant, so a replay has nothing to apply for it.
            return m.try_transmit(at, from, to, words);
        }
        assert!(
            from < m.network.clusters && to < m.network.clusters,
            "cluster out of range"
        );
        let packets_before = m.network.packets;
        let sent = m.network.carry(at, from, to, words, |net, route| {
            for &slot in route.hops() {
                let i = slot as usize;
                if i >= self.seen.len() {
                    self.seen.resize(net.slab.len().max(i + 1), false);
                }
                if !self.seen[i] {
                    self.seen[i] = true;
                    let link = &net.slab.links[i];
                    self.replayable &= link.free <= self.start;
                    self.links.push(TouchedLink {
                        slot,
                        free: 0,
                        busy: link.busy as u32,
                    });
                }
            }
        });
        let Some((t, ())) = sent else {
            self.replayable = false;
            return Err(MachineError::ClusterUnreachable { from, to });
        };
        m.record_transfer(at, t, from, to, words, packets_before);
        if let Some(spans) = &mut self.spans {
            debug_assert_eq!(
                m.network.packets - packets_before,
                words.div_ceil(m.network.max_packet_words).max(1),
                "a replayed span derives its packet count from the words"
            );
            let offsets = (
                u32::try_from(words),
                u32::try_from(at - self.start),
                u32::try_from(t - self.start),
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
        Ok(t)
    }

    /// The record of the run that ended at `end`, or `None` when it cannot
    /// be replayed: a touched link was busy past the start, a transfer
    /// found no route, or an offset does not fit `u32`.
    pub fn finish(mut self, m: &Machine, end: Cycles) -> Option<TransferRecord> {
        let net = &m.network;
        if !self.replayable || net.fault_epoch != self.epoch {
            return None;
        }
        for touched in &mut self.links {
            let link = &net.slab.links[touched.slot as usize];
            touched.free = u32::try_from(link.free - self.start).ok()?;
            // The sequence's reservations of a link are disjoint and lie
            // between the start and the link's final `free`, so the busy
            // increment is at most the `free` offset and fits `u32`: the
            // low 32 bits give it exactly.
            touched.busy = (link.busy as u32).wrapping_sub(touched.busy);
        }
        let now = counters(net);
        Some(TransferRecord {
            epoch: self.epoch,
            links: self.links,
            counters: std::array::from_fn(|i| now[i] - self.counters[i]),
            spans: self.spans,
            end: u32::try_from(end - self.start).ok()?,
        })
    }
}

impl Machine {
    /// Start recording a transfer sequence that begins at `start`: send
    /// its transfers through [`Recorder::transmit`], then call
    /// [`Recorder::finish`]. The record keeps the spans if the machine is
    /// traced now.
    pub fn recorder(&self, start: Cycles) -> Recorder {
        Recorder {
            start,
            epoch: self.network.fault_epoch,
            counters: counters(&self.network),
            links: Vec::new(),
            seen: Vec::new(),
            spans: self.trace.is_enabled().then(Vec::new),
            replayable: true,
        }
    }

    /// Apply `record` as if its sequence ran again from `start`, and return
    /// the sequence's end; `None`, with nothing charged, when the fault
    /// epoch moved since the record was made, a link it touches is busy
    /// past `start`, or the machine is traced and the record holds no
    /// spans. The same link reservations, counters, stats, events and
    /// `LinkTransfer` spans, in the same order, as the per-message run.
    pub fn replay(&mut self, record: &TransferRecord, start: Cycles) -> Option<Cycles> {
        let spans = match &record.spans {
            Some(spans) => spans.as_slice(),
            None if self.trace.is_enabled() => return None,
            None => &[],
        };
        let net = &mut self.network;
        let slab = &mut net.slab.links;
        if record.epoch != net.fault_epoch
            || record
                .links
                .iter()
                .any(|l| slab[l.slot as usize].free > start)
        {
            return None;
        }
        for touched in &record.links {
            let link = &mut slab[touched.slot as usize];
            link.free = start + Cycles::from(touched.free);
            link.busy += Cycles::from(touched.busy);
        }
        let [messages, packets, rerouted, payload, headers] = record.counters;
        net.messages += messages;
        net.packets += packets;
        net.rerouted_packets += rerouted;
        net.payload_words += payload;
        net.header_words_moved += headers;
        if messages > 0 {
            // An empty sequence leaves the stats as it found them, phase
            // table included.
            self.stats.messages(messages, payload);
        }
        self.events += messages;
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
