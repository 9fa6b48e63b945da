//! Counters and log2-bucketed histograms, aggregated per scenario phase.
//!
//! Metrics are updated for **every** event the sink sees, independent of
//! the ring buffer's retention, so per-phase aggregates stay exact even
//! when the ring wraps.

use crate::event::{EventKind, TaskStage, TraceEvent};

/// Number of log2 buckets: values up to 2^47 − 1 resolve exactly, larger
/// ones land in the last bucket.
pub(crate) const BUCKETS: usize = 48;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `0` holds the value 0; bucket `b ≥ 1` holds `[2^(b−1), 2^b)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Histogram {
    /// Per-bucket sample counts.
    pub(crate) buckets: [u64; BUCKETS],
    /// Total samples.
    pub(crate) count: u64,
    /// Sum of samples.
    pub(crate) sum: u64,
    /// Largest sample.
    pub(crate) max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub(crate) fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Mean sample, or 0 with no samples.
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Render as `lo..hi:count` pairs for non-empty buckets, e.g.
    /// `0:3 1:10 2..3:4 8..15:1`.
    pub(crate) fn summarize(&self) -> String {
        if self.count == 0 {
            return "-".to_string();
        }
        let mut parts = Vec::new();
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let label = match b {
                0 => "0".to_string(),
                1 => "1".to_string(),
                b => format!("{}..{}", 1u64 << (b - 1), (1u64 << b) - 1),
            };
            parts.push(format!("{label}:{n}"));
        }
        parts.join(" ")
    }
}

/// Aggregates for one scenario phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct PhaseMetrics {
    /// Events observed (all kinds).
    pub(crate) events: u64,
    /// PE busy cycles (sum of `PeBusy` durations).
    pub(crate) busy_cycles: u64,
    /// Kernel messages sent.
    pub(crate) msgs_sent: u64,
    /// Kernel messages received.
    pub(crate) msgs_recv: u64,
    /// Wire words of sent kernel messages.
    pub(crate) msg_words: u64,
    /// Heap/cluster-memory allocations.
    pub(crate) allocs: u64,
    /// Heap/cluster-memory frees.
    pub(crate) frees: u64,
    /// Network transfers (post-segmentation messages).
    pub(crate) transfers: u64,
    /// Network packets moved.
    pub(crate) packets: u64,
    /// Words moved per window-protocol stage (request/gather/transit/scatter).
    pub(crate) window_words: [u64; 4],
    /// Link dead/degrade faults observed.
    pub(crate) link_faults: u64,
    /// Links restored to full health.
    pub(crate) link_recoveries: u64,
    /// Reliable-layer retransmits.
    pub(crate) retransmits: u64,
    /// Messages dead-lettered after exhausting retransmits.
    pub(crate) dead_letters: u64,
    /// Transient PE recoveries.
    pub(crate) pe_recoveries: u64,
    /// Cluster-memory bank faults.
    pub(crate) mem_faults: u64,
    /// Stale task completions discarded by the kernel.
    pub(crate) stale_tasks: u64,
    /// Run aborts: a budget exceeded, or a fault that stopped the run.
    pub(crate) run_aborts: u64,
    /// DES dispatches (event pops) observed in this phase.
    pub(crate) des_dispatches: u64,
    /// Highest engine lifetime pop count seen in this phase (schedule or
    /// dispatch events both carry it).
    pub(crate) des_events_processed: u64,
    /// Simulated time of the first DES dispatch seen in this phase.
    pub(crate) des_first_dispatch_at: u64,
    /// Simulated time of the last DES dispatch seen in this phase.
    pub(crate) des_last_dispatch_at: u64,
    /// Histogram of kernel message wire sizes, words.
    pub(crate) msg_size: Histogram,
    /// Histogram of DES queue depths at schedule/dispatch.
    pub(crate) queue_depth: Histogram,
    /// Histogram of task latencies (creation → completion), cycles.
    pub(crate) task_latency: Histogram,
}

impl PhaseMetrics {
    /// Fold one event in. `task_latency` is fed separately by the recorder
    /// (it needs cross-event pairing).
    pub(crate) fn observe(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev.kind {
            EventKind::DesSchedule {
                queue_depth,
                events_processed,
            } => {
                self.queue_depth.record(queue_depth as u64);
                self.des_events_processed = self.des_events_processed.max(events_processed);
            }
            EventKind::DesDispatch {
                queue_depth,
                events_processed,
            } => {
                self.queue_depth.record(queue_depth as u64);
                self.des_events_processed = self.des_events_processed.max(events_processed);
                if self.des_dispatches == 0 {
                    self.des_first_dispatch_at = ev.at;
                }
                self.des_last_dispatch_at = ev.at;
                self.des_dispatches += 1;
            }
            EventKind::PeBusy { .. } => {
                self.busy_cycles += ev.dur;
            }
            EventKind::MsgSend { words, .. } => {
                self.msgs_sent += 1;
                self.msg_words += words;
                self.msg_size.record(words);
            }
            EventKind::MsgRecv { .. } => {
                self.msgs_recv += 1;
            }
            EventKind::Window { stage, words, .. } => {
                self.window_words[stage.index()] += words;
            }
            EventKind::Alloc { .. } => {
                self.allocs += 1;
            }
            EventKind::Free { .. } => {
                self.frees += 1;
            }
            EventKind::LinkTransfer { packets, .. } => {
                self.transfers += 1;
                self.packets += packets as u64;
            }
            EventKind::Task { stage, .. } => {
                if stage == TaskStage::Stale {
                    self.stale_tasks += 1;
                }
            }
            EventKind::LinkFault { .. } => {
                self.link_faults += 1;
            }
            EventKind::Retransmit { .. } => {
                self.retransmits += 1;
            }
            EventKind::DeadLetter { .. } => {
                self.dead_letters += 1;
            }
            EventKind::PeRecover => {
                self.pe_recoveries += 1;
            }
            EventKind::LinkRecover { .. } => {
                self.link_recoveries += 1;
            }
            EventKind::MemFault { .. } => {
                self.mem_faults += 1;
            }
            EventKind::RunAbort { .. } => {
                self.run_aborts += 1;
            }
            EventKind::AppCommand { .. } => {}
        }
    }

    /// True if any fault/reliability counter is nonzero (gates the extra
    /// per-phase table line so healthy reports stay unchanged).
    pub(crate) fn any_fault_activity(&self) -> bool {
        self.link_faults != 0
            || self.link_recoveries != 0
            || self.retransmits != 0
            || self.dead_letters != 0
            || self.pe_recoveries != 0
            || self.mem_faults != 0
            || self.stale_tasks != 0
    }

    /// Trace-based DES throughput for this phase: dispatches per million
    /// simulated cycles over the phase's dispatch span. 0 when the phase
    /// saw fewer than two dispatches (no span to divide by).
    pub(crate) fn des_throughput_per_mcycle(&self) -> u64 {
        if self.des_dispatches < 2 {
            return 0;
        }
        let span = self
            .des_last_dispatch_at
            .saturating_sub(self.des_first_dispatch_at)
            .max(1);
        self.des_dispatches.saturating_mul(1_000_000) / span
    }
}

/// Per-phase metrics, in phase-first-seen order (parallel to the
/// recorder's phase name table).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// One entry per interned phase id.
    pub(crate) phases: Vec<PhaseMetrics>,
}

impl Metrics {
    /// The metrics slot for `phase`, growing the table as needed.
    pub(crate) fn phase_mut(&mut self, phase: u16) -> &mut PhaseMetrics {
        let idx = phase as usize;
        if idx >= self.phases.len() {
            self.phases.resize(idx + 1, PhaseMetrics::default());
        }
        &mut self.phases[idx]
    }

    /// Total events observed across all phases (`benchmark/` reports it
    /// as `trace.events_recorded`).
    pub fn total_events(&self) -> u64 {
        self.phases.iter().map(|p| p.events).sum()
    }

    /// Largest DES queue depth observed in any phase (at schedule or
    /// dispatch; `benchmark/` reports it as `machine.peak_queue_depth`).
    pub fn peak_queue_depth(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.queue_depth.max)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostKind, WindowStage};

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[21], 1); // 2^20
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 1 << 20);
    }

    #[test]
    fn histogram_summary_labels_ranges() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(5);
        h.record(6);
        assert_eq!(h.summarize(), "0:1 4..7:2");
    }

    #[test]
    fn totals_aggregate_across_phases() {
        let mut m = Metrics::default();
        m.phase_mut(0).observe(&TraceEvent::instant(
            0,
            0,
            0,
            EventKind::DesSchedule {
                queue_depth: 3,
                events_processed: 0,
            },
        ));
        m.phase_mut(1).observe(&TraceEvent::instant(
            5,
            0,
            0,
            EventKind::DesDispatch {
                queue_depth: 9,
                events_processed: 1,
            },
        ));
        m.phase_mut(1)
            .observe(&TraceEvent::instant(6, 0, 0, EventKind::PeRecover));
        assert_eq!(m.total_events(), 3);
        assert_eq!(m.peak_queue_depth(), 9);
        assert_eq!(Metrics::default().peak_queue_depth(), 0);
    }

    #[test]
    fn observe_routes_event_families() {
        let mut m = PhaseMetrics::default();
        m.observe(&TraceEvent::span(
            0,
            40,
            0,
            1,
            EventKind::PeBusy {
                cost: CostKind::Flop,
                count: 10,
            },
        ));
        m.observe(&TraceEvent::instant(
            5,
            0,
            0,
            EventKind::MsgSend {
                msg: crate::MsgKind::Resume,
                to_cluster: 1,
                words: 6,
            },
        ));
        m.observe(&TraceEvent::instant(
            9,
            1,
            0,
            EventKind::Window {
                stage: WindowStage::Transit,
                peer_cluster: 0,
                words: 32,
            },
        ));
        assert_eq!(m.events, 3);
        assert_eq!(m.busy_cycles, 40);
        assert_eq!(m.msgs_sent, 1);
        assert_eq!(m.msg_size.count, 1);
        assert_eq!(m.window_words[WindowStage::Transit.index()], 32);
    }

    #[test]
    fn des_throughput_from_dispatch_span_and_counter() {
        let mut m = PhaseMetrics::default();
        // Fewer than two dispatches: no span, throughput 0.
        m.observe(&TraceEvent::instant(
            100,
            0,
            0,
            EventKind::DesDispatch {
                queue_depth: 1,
                events_processed: 1,
            },
        ));
        assert_eq!(m.des_throughput_per_mcycle(), 0);
        // 5 dispatches over cycles 100..=500: span 400, 5M/400 = 12500.
        for (i, at) in [200u64, 300, 400, 500].iter().enumerate() {
            m.observe(&TraceEvent::instant(
                *at,
                0,
                0,
                EventKind::DesDispatch {
                    queue_depth: 1,
                    events_processed: 2 + i as u64,
                },
            ));
        }
        assert_eq!(m.des_dispatches, 5);
        assert_eq!(m.des_events_processed, 5);
        assert_eq!(m.des_first_dispatch_at, 100);
        assert_eq!(m.des_last_dispatch_at, 500);
        assert_eq!(m.des_throughput_per_mcycle(), 5_000_000 / 400);
        // Schedule events raise the lifetime counter but not the dispatch span.
        m.observe(&TraceEvent::instant(
            600,
            0,
            0,
            EventKind::DesSchedule {
                queue_depth: 2,
                events_processed: 9,
            },
        ));
        assert_eq!(m.des_events_processed, 9);
        assert_eq!(m.des_dispatches, 5);
    }
}
