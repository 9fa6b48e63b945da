//! Processing elements.
//!
//! A PE is an abstract processor with a coarse instruction cost model. The
//! simulator does not interpret instructions; callers charge work to a PE in
//! units of [`CostClass`], and the PE tracks when it becomes free and how
//! many cycles it has been busy (its utilization).

use crate::config::CostModel;
use crate::Cycles;
use std::fmt;

/// Address of a processing element: cluster index plus index within the
/// cluster. PE 0 of each cluster is the kernel PE when the configuration
/// dedicates one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId {
    /// Cluster index.
    pub cluster: u32,
    /// PE index within the cluster.
    pub index: u32,
}

impl PeId {
    /// Construct a PE address.
    pub fn new(cluster: u32, index: u32) -> Self {
        PeId { cluster, index }
    }
}

impl fmt::Debug for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}.{}", self.cluster, self.index)
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE({},{})", self.cluster, self.index)
    }
}

/// Classes of chargeable work, mapped to cycle costs by the
/// [`CostModel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CostClass {
    /// Floating-point operations.
    Flop,
    /// Integer / control operations.
    IntOp,
    /// Shared-memory word accesses (same cluster).
    MemWord,
    /// Format-and-send of one message.
    MsgSend,
    /// Decode-and-dispatch of one message.
    MsgDispatch,
    /// Creation of one task activation record.
    TaskCreate,
    /// One context switch.
    ContextSwitch,
}

impl CostClass {
    /// The cycle cost of one unit of this class under `model`.
    pub fn cycles(self, model: &CostModel) -> Cycles {
        match self {
            CostClass::Flop => model.flop,
            CostClass::IntOp => model.int_op,
            CostClass::MemWord => model.mem_word,
            CostClass::MsgSend => model.msg_send,
            CostClass::MsgDispatch => model.msg_dispatch,
            CostClass::TaskCreate => model.task_create,
            CostClass::ContextSwitch => model.context_switch,
        }
    }
}

/// Abstract work performed by one activation of a code block: what a
/// dispatched task charges to the PE that runs it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkProfile {
    /// Floating-point operations.
    pub flops: u64,
    /// Integer / control operations.
    pub int_ops: u64,
    /// Shared-memory words touched.
    pub mem_words: u64,
}

impl WorkProfile {
    /// A pure-flop profile.
    pub fn flops(n: u64) -> Self {
        WorkProfile {
            flops: n,
            ..Default::default()
        }
    }

    /// Scale every component by `k` (e.g. per-element work × element count).
    pub fn scaled(self, k: u64) -> Self {
        WorkProfile {
            flops: self.flops * k,
            int_ops: self.int_ops * k,
            mem_words: self.mem_words * k,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: WorkProfile) -> Self {
        WorkProfile {
            flops: self.flops + other.flops,
            int_ops: self.int_ops + other.int_ops,
            mem_words: self.mem_words + other.mem_words,
        }
    }
}

/// State of one processing element.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pe {
    /// Simulation time at which the PE finishes its current work.
    pub free_at: Cycles,
    /// Total cycles of charged work (for utilization).
    pub busy_cycles: Cycles,
    /// Whether the PE has been isolated by fault reconfiguration.
    pub(crate) failed: bool,
}

impl Pe {
    /// The state of a PE that has never been touched: free, idle, healthy.
    /// Sparse machine state reads untouched PEs as this value.
    pub(crate) const IDLE: Pe = Pe {
        free_at: 0,
        busy_cycles: 0,
        failed: false,
    };

    /// True if the PE can accept work at time `now` (free and not failed).
    pub(crate) fn available(&self, now: Cycles) -> bool {
        !self.failed && self.free_at <= now
    }

    /// Charge `count` units of `class` starting no earlier than `now`.
    /// Returns the completion time. Work on a busy PE queues behind the
    /// current work (the PE is serial).
    pub(crate) fn charge(
        &mut self,
        now: Cycles,
        class: CostClass,
        count: u64,
        model: &CostModel,
    ) -> Cycles {
        debug_assert!(!self.failed, "charging a failed PE");
        let start = self.free_at.max(now);
        let dur = class.cycles(model).saturating_mul(count);
        self.free_at = start + dur;
        self.busy_cycles += dur;
        self.free_at
    }
}

/// The eligible worker PE of one cluster with the smallest `key`, found in
/// one allocation-free pass over the cluster's lane; ties go to the lowest
/// index. [`crate::Machine::run_tasks`] applies the same rule in a loop of
/// its own over a lane it already holds; the NA-VM's per-cluster oracle
/// proptest holds the two equal.
///
/// A PE is eligible when it is alive and is not the kernel PE — unless the
/// configuration dedicates none, or the kernel PE is the only survivor and
/// runs user work too. `key` returns `None` for a PE the caller cannot use.
/// The alive count is only known at the end of the pass, so the scan keeps
/// the best candidate both with and without the kernel PE. An
/// unmaterialized lane (`None`) reads as `pes` idle PEs.
pub(crate) fn best_worker<K: Ord + Copy>(
    lane: Option<&[Pe]>,
    pes: u32,
    kernel: u32,
    dedicated_kernel_pe: bool,
    key: impl Fn(&Pe) -> Option<K>,
) -> Option<u32> {
    let mut alive = 0u32;
    let mut best_any: Option<(K, u32)> = None;
    let mut best_worker: Option<(K, u32)> = None;
    for i in 0..pes {
        let p = lane.map_or(Pe::IDLE, |l| l[i as usize]);
        if p.failed {
            continue;
        }
        alive += 1;
        let Some(k) = key(&p) else { continue };
        if best_any.is_none_or(|(b, _)| k < b) {
            best_any = Some((k, i));
        }
        if i != kernel && best_worker.is_none_or(|(b, _)| k < b) {
            best_worker = Some((k, i));
        }
    }
    let pick = if dedicated_kernel_pe && alive > 1 {
        best_worker
    } else {
        best_any
    };
    pick.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_id_formats() {
        let id = PeId::new(2, 5);
        assert_eq!(format!("{id:?}"), "pe2.5");
        assert_eq!(format!("{id}"), "PE(2,5)");
    }

    #[test]
    fn fresh_pe_is_available() {
        let pe = Pe::default();
        assert!(pe.available(0));
        assert!(pe.available(100));
    }

    #[test]
    fn charging_makes_pe_busy_until_completion() {
        let model = CostModel::default();
        let mut pe = Pe::default();
        let done = pe.charge(10, CostClass::Flop, 5, &model);
        assert_eq!(done, 10 + 5 * model.flop);
        assert!(!pe.available(done - 1));
        assert!(pe.available(done));
    }

    #[test]
    fn work_queues_serially() {
        let model = CostModel::default();
        let mut pe = Pe::default();
        let d1 = pe.charge(0, CostClass::Flop, 10, &model);
        // Second charge at an earlier `now` still starts after d1.
        let d2 = pe.charge(0, CostClass::IntOp, 3, &model);
        assert_eq!(d2, d1 + 3 * model.int_op);
    }

    #[test]
    fn charge_after_idle_starts_at_now() {
        let model = CostModel::default();
        let mut pe = Pe::default();
        pe.charge(0, CostClass::IntOp, 1, &model);
        let done = pe.charge(1000, CostClass::IntOp, 1, &model);
        assert_eq!(done, 1000 + model.int_op);
    }

    #[test]
    fn failed_pe_is_unavailable() {
        let pe = Pe {
            failed: true,
            ..Pe::default()
        };
        assert!(!pe.available(0));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let model = CostModel::default();
        let mut pe = Pe::default();
        pe.charge(0, CostClass::Flop, 25, &model); // 100 cycles at flop=4
        assert_eq!(pe.busy_cycles, 100);
    }

    #[test]
    fn all_cost_classes_map_to_model_fields() {
        let model = CostModel::default();
        assert_eq!(CostClass::Flop.cycles(&model), model.flop);
        assert_eq!(CostClass::IntOp.cycles(&model), model.int_op);
        assert_eq!(CostClass::MemWord.cycles(&model), model.mem_word);
        assert_eq!(CostClass::MsgSend.cycles(&model), model.msg_send);
        assert_eq!(CostClass::MsgDispatch.cycles(&model), model.msg_dispatch);
        assert_eq!(CostClass::TaskCreate.cycles(&model), model.task_create);
        assert_eq!(
            CostClass::ContextSwitch.cycles(&model),
            model.context_switch
        );
    }
}
