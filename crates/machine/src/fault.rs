//! Fault injection and the reconfiguration plan.
//!
//! The requirements list includes "provide reconfigurability to isolate
//! faulty hardware components". The fault plane models three hardware
//! failure surfaces:
//!
//! * **PEs** — permanent kills, or transient faults whose recovery is a
//!   step of its own (a recovered PE never reclaims kernel duty it was
//!   promoted away from);
//! * **links** — dead links force a deterministic reroute where the
//!   topology allows one, degraded links multiply occupancy;
//! * **memory banks** — a failed bank shrinks the cluster heap arena and
//!   invalidates in-flight allocations that no longer fit.
//!
//! The [`FaultPlan`] carries the schedule, one step per machine mutation;
//! [`crate::Machine::apply_fault`] performs each step for every layer.
//!
//! Steps due at the same cycle apply in [`FaultKind`] order: PE recoveries
//! first, in the order of the faults they end, then faults by kind.

use crate::pe::PeId;
use crate::{Cycles, Words};

/// What one step of a plan does to the machine. The variant order is the
/// order steps due at the same cycle apply in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultKind {
    /// A transiently failed PE rejoins the free pool.
    PeRecover {
        /// When the fault this recovery ends struck: recoveries due at the
        /// same cycle apply in the order of their faults.
        failed_at: Cycles,
        /// Which PE recovers.
        pe: PeId,
    },
    /// A PE fails.
    Pe {
        /// Which PE fails.
        pe: PeId,
    },
    /// A network link fails; `degrade` of `None` kills it outright, while
    /// `Some(f)` multiplies its occupancy by `f` (a slow, flaky link; a
    /// factor below 1 counts as 1).
    Link {
        /// Link id in the topology's link-id scheme.
        link: usize,
        /// Slowdown factor (≥ 2 to matter); `None` means dead.
        degrade: Option<u32>,
    },
    /// A cluster-memory bank of `words` capacity fails.
    Memory {
        /// Which cluster's memory.
        cluster: u32,
        /// Capacity removed from the arena, words.
        words: Words,
    },
    /// A network link is repaired: revived if dead, degradation cleared.
    LinkRecover {
        /// Link id in the topology's link-id scheme.
        link: usize,
    },
}

/// One scheduled step of a fault plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// When the step takes effect.
    pub at: Cycles,
    /// What it does to the machine.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A permanent PE kill (the original fault model).
    pub fn kill_pe(at: Cycles, pe: PeId) -> Self {
        FaultEvent {
            at,
            kind: FaultKind::Pe { pe },
        }
    }
}

/// A time-ordered plan of hardware failures to inject during a run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from explicit events, sorted by (time, kind) for determinism.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.kind));
        FaultPlan { events, cursor: 0 }
    }

    /// Convenience: permanently kill `pes` at time `at`.
    pub fn at(at: Cycles, pes: impl IntoIterator<Item = PeId>) -> Self {
        Self::new(
            pes.into_iter()
                .map(|pe| FaultEvent::kill_pe(at, pe))
                .collect(),
        )
    }

    fn push(mut self, ev: FaultEvent) -> Self {
        debug_assert_eq!(self.cursor, 0, "extend plans before running them");
        self.events.push(ev);
        self.events.sort_by_key(|e| (e.at, e.kind));
        self
    }

    /// Add a permanent PE kill.
    pub fn kill_pe(self, at: Cycles, pe: PeId) -> Self {
        self.push(FaultEvent::kill_pe(at, pe))
    }

    /// Add a transient PE fault: fails at `at`, rejoins the free pool at
    /// `recover_at`. Two steps, the way [`FaultPlan::kill_link`] and
    /// [`FaultPlan::recover_link`] are.
    pub fn transient_pe(self, at: Cycles, recover_at: Cycles, pe: PeId) -> Self {
        debug_assert!(recover_at > at, "recovery must follow the fault");
        self.kill_pe(at, pe).push(FaultEvent {
            at: recover_at,
            kind: FaultKind::PeRecover { failed_at: at, pe },
        })
    }

    /// Add a dead-link fault.
    pub fn kill_link(self, at: Cycles, link: usize) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::Link {
                link,
                degrade: None,
            },
        })
    }

    /// Add a degraded-link fault: occupancy multiplied by `factor` (0
    /// counts as 1: the link stays alive at full speed).
    pub fn degrade_link(self, at: Cycles, link: usize, factor: u32) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::Link {
                link,
                degrade: Some(factor),
            },
        })
    }

    /// Add a link repair: at `at` the link is revived (if dead) and any
    /// degradation cleared. Pair with [`FaultPlan::kill_link`] or
    /// [`FaultPlan::degrade_link`] to model a transient link outage.
    pub fn recover_link(self, at: Cycles, link: usize) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::LinkRecover { link },
        })
    }

    /// Add a memory-bank fault removing `words` from `cluster`'s arena.
    pub fn fail_memory(self, at: Cycles, cluster: u32, words: Words) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::Memory { cluster, words },
        })
    }

    /// Total planned steps (a transient PE fault is two).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no failures are planned.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// When the next step not yet returned by [`FaultPlan::due`] takes
    /// effect, if any is left.
    pub fn next_at(&self) -> Option<Cycles> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Steps that have become due by time `now` and have not yet been
    /// returned, in the order they apply. Call repeatedly as the clock advances; returns a borrowed
    /// slice (empty in the common nothing-due case) without allocating.
    pub fn due(&mut self, now: Cycles) -> &[FaultEvent] {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_nothing_due() {
        let mut p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.due(u64::MAX).is_empty());
    }

    #[test]
    fn events_sort_by_time() {
        let mut p = FaultPlan::new(vec![
            FaultEvent::kill_pe(50, PeId::new(0, 1)),
            FaultEvent::kill_pe(10, PeId::new(1, 0)),
        ]);
        assert_eq!(p.len(), 2);
        assert!(p.due(9).is_empty());
        let due = p.due(10);
        assert_eq!(due.len(), 1);
        assert_eq!(
            due[0].kind,
            FaultKind::Pe {
                pe: PeId::new(1, 0)
            }
        );
        assert!(p.due(49).is_empty());
        assert_eq!(p.due(50).len(), 1);
    }

    #[test]
    fn due_is_incremental_and_allocation_free_fast_path() {
        let mut p = FaultPlan::at(100, [PeId::new(0, 0), PeId::new(0, 1)]);
        assert!(p.due(99).is_empty());
        assert_eq!(p.due(100).len(), 2);
        assert!(p.due(1000).is_empty(), "already consumed");
    }

    #[test]
    fn at_builder_sets_common_time() {
        let p = FaultPlan::at(7, [PeId::new(2, 3)]);
        assert_eq!(p.events[0], FaultEvent::kill_pe(7, PeId::new(2, 3)));
    }

    #[test]
    fn chained_builders_cover_all_kinds_and_stay_sorted() {
        let mut p = FaultPlan::none()
            .kill_link(300, 2)
            .transient_pe(100, 900, PeId::new(0, 1))
            .degrade_link(200, 0, 4)
            .fail_memory(50, 1, 1024)
            .kill_pe(400, PeId::new(1, 2));
        assert_eq!(p.len(), 6, "the transient fault is two steps");
        assert_eq!(p.events[0].at, 50);
        let due: Vec<FaultKind> = p.due(u64::MAX).iter().map(|e| e.kind).collect();
        let pe = PeId::new(0, 1);
        assert_eq!(
            due,
            [
                FaultKind::Memory {
                    cluster: 1,
                    words: 1024
                },
                FaultKind::Pe { pe },
                FaultKind::Link {
                    link: 0,
                    degrade: Some(4)
                },
                FaultKind::Link {
                    link: 2,
                    degrade: None
                },
                FaultKind::Pe {
                    pe: PeId::new(1, 2)
                },
                FaultKind::PeRecover { failed_at: 100, pe },
            ]
        );
    }

    /// At one cycle, PE recoveries apply first, in the order of the faults
    /// they end (not of the PE ids), then faults in kind order.
    #[test]
    fn recoveries_lead_their_cycle_in_fault_order() {
        let (a, b) = (PeId::new(0, 1), PeId::new(0, 2));
        let mut p = FaultPlan::none()
            .kill_link(500, 3)
            .transient_pe(200, 500, b)
            .kill_pe(500, a)
            .transient_pe(300, 500, a);
        let at_500: Vec<FaultKind> = p.due(500).iter().skip(2).map(|e| e.kind).collect();
        assert_eq!(
            at_500,
            [
                FaultKind::PeRecover {
                    failed_at: 200,
                    pe: b
                },
                FaultKind::PeRecover {
                    failed_at: 300,
                    pe: a
                },
                FaultKind::Pe { pe: a },
                FaultKind::Link {
                    link: 3,
                    degrade: None
                },
            ]
        );
    }
}
