//! The typed event vocabulary.
//!
//! Events are small `Copy` records so the hot recording path is a bounds
//! check and a memcpy. Everything is numeric: names (phases) are interned
//! by the recorder, message/cost kinds are closed enums mirroring the
//! paper's vocabulary.

use crate::Cycles;

/// Sentinel: event is not tied to one PE (cluster- or machine-level).
pub const NO_PE: u32 = u32::MAX;

/// Sentinel: event is not tied to one cluster (machine- or DES-level).
pub const NO_CLUSTER: u32 = u32::MAX;

/// The seven kernel message types of the paper's system programmer's VM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// Initiate a batch of tasks on a cluster.
    InitiateTask,
    /// A task paused (e.g. waiting on a window).
    PauseNotify,
    /// Resume a paused task.
    Resume,
    /// A task terminated.
    TerminateNotify,
    /// Remote procedure call request.
    RemoteCall,
    /// Remote procedure call reply.
    RemoteReturn,
    /// Ship a code image to a cluster.
    LoadCode,
}

impl MsgKind {
    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MsgKind::InitiateTask => "initiate_task",
            MsgKind::PauseNotify => "pause_notify",
            MsgKind::Resume => "resume",
            MsgKind::TerminateNotify => "terminate_notify",
            MsgKind::RemoteCall => "remote_call",
            MsgKind::RemoteReturn => "remote_return",
            MsgKind::LoadCode => "load_code",
        }
    }
}

/// PE work classes (mirrors `fem2_machine::CostClass`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CostKind {
    /// Floating-point operation.
    Flop,
    /// Integer/control operation.
    IntOp,
    /// Shared-memory word access.
    MemWord,
    /// Message format-and-send overhead.
    MsgSend,
    /// Message decode-and-dispatch overhead.
    MsgDispatch,
    /// Task activation-record creation.
    TaskCreate,
    /// Context switch.
    ContextSwitch,
}

impl CostKind {
    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CostKind::Flop => "flop",
            CostKind::IntOp => "int_op",
            CostKind::MemWord => "mem_word",
            CostKind::MsgSend => "msg_send",
            CostKind::MsgDispatch => "msg_dispatch",
            CostKind::TaskCreate => "task_create",
            CostKind::ContextSwitch => "context_switch",
        }
    }
}

/// Stages of the remote-window protocol (request → gather → transit →
/// scatter), as charged by the NA-VM's window cost model (E3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowStage {
    /// Accessor ships the window descriptor to the owning cluster.
    Request,
    /// Owner gathers the selected words from its shared memory.
    Gather,
    /// The payload crosses the network.
    Transit,
    /// Accessor scatters/stores the payload locally.
    Scatter,
}

impl WindowStage {
    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            WindowStage::Request => "request",
            WindowStage::Gather => "gather",
            WindowStage::Transit => "transit",
            WindowStage::Scatter => "scatter",
        }
    }

    /// Stable index, usable as an array offset.
    pub(crate) fn index(self) -> usize {
        match self {
            WindowStage::Request => 0,
            WindowStage::Gather => 1,
            WindowStage::Transit => 2,
            WindowStage::Scatter => 3,
        }
    }
}

/// Task lifecycle transitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskStage {
    /// Activation record created.
    Created,
    /// Assigned to a PE and running.
    Dispatched,
    /// Ran to completion.
    Completed,
    /// Killed by a PE fault (will be re-queued).
    Faulted,
    /// A completion arrived for a superseded epoch and was discarded.
    Stale,
}

impl TaskStage {
    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TaskStage::Created => "created",
            TaskStage::Dispatched => "dispatched",
            TaskStage::Completed => "completed",
            TaskStage::Faulted => "faulted",
            TaskStage::Stale => "stale",
        }
    }
}

/// What happened.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// DES: an event was scheduled; `at` is the *fire* time.
    DesSchedule {
        /// Queue depth after insertion.
        queue_depth: u32,
        /// Engine lifetime pop count at the moment of scheduling, so
        /// trace-based throughput (events per cycle or second) can be
        /// computed per phase.
        events_processed: u64,
    },
    /// DES: the next event was popped for dispatch at `at`.
    DesDispatch {
        /// Queue depth after removal.
        queue_depth: u32,
        /// Engine lifetime pop count including this dispatch.
        events_processed: u64,
    },
    /// A PE executed `count` operations of one class; `dur` is the busy
    /// span (service start to completion, after any queueing on the PE).
    PeBusy {
        /// Work class.
        cost: CostKind,
        /// Operation count.
        count: u64,
    },
    /// Kernel message sent; `dur` spans send initiation to arrival.
    MsgSend {
        /// Message type.
        msg: MsgKind,
        /// Destination cluster.
        to_cluster: u32,
        /// Wire size (header + body), words.
        words: u64,
    },
    /// Kernel message decoded on the destination kernel PE.
    MsgRecv {
        /// Message type.
        msg: MsgKind,
        /// Source cluster.
        from_cluster: u32,
        /// Wire size (header + body), words.
        words: u64,
    },
    /// One stage of the remote-window protocol; `dur` is the stage cost.
    Window {
        /// Which stage.
        stage: WindowStage,
        /// The other cluster involved (owner for request/transit seen from
        /// the accessor; accessor for gather seen from the owner).
        peer_cluster: u32,
        /// Words moved or touched by this stage.
        words: u64,
    },
    /// Heap / cluster-memory allocation.
    Alloc {
        /// Words allocated.
        words: u64,
        /// Words in use after the allocation.
        in_use: u64,
    },
    /// Heap / cluster-memory free.
    Free {
        /// Words freed.
        words: u64,
        /// Words in use after the free.
        in_use: u64,
    },
    /// A message occupied network links; `dur` is first-word-out to
    /// last-word-in.
    LinkTransfer {
        /// Destination cluster.
        to_cluster: u32,
        /// Payload words.
        words: u64,
        /// Packets after segmentation.
        packets: u32,
    },
    /// Task lifecycle transition.
    Task {
        /// Kernel task id.
        task: u32,
        /// The transition.
        stage: TaskStage,
    },
    /// Application-level command span (console sessions), `task` = sequence
    /// number of the command.
    AppCommand {
        /// Command sequence number within the session.
        seq: u32,
    },
    /// A network link died or degraded.
    LinkFault {
        /// Link id in the topology's link-id scheme.
        link: u32,
        /// Slowdown factor; 0 means the link is dead.
        degrade: u32,
    },
    /// The reliable-delivery layer re-sent an unacknowledged message.
    Retransmit {
        /// Message type.
        msg: MsgKind,
        /// Destination cluster.
        to_cluster: u32,
        /// Attempt number (1 = first retransmit).
        attempt: u32,
    },
    /// A message exhausted its retransmit budget and was dead-lettered.
    DeadLetter {
        /// Message type.
        msg: MsgKind,
        /// Destination cluster.
        to_cluster: u32,
    },
    /// A transiently failed PE rejoined the free pool.
    PeRecover,
    /// A network link was restored to full health (revived and/or
    /// un-degraded); detoured routes snap back to the primary path.
    LinkRecover {
        /// Link id in the topology's link-id scheme.
        link: u32,
    },
    /// A cluster-memory bank failed, shrinking the heap arena.
    MemFault {
        /// Words removed from the arena.
        words: u64,
        /// Words of live allocations invalidated by the failure.
        lost: u64,
    },
    /// A run was aborted: by its supervisor's budget, or because a fault
    /// made a cluster unreachable or its memory too small. `cause` is the
    /// abort cause code (0 cycles, 1 events, 2 wall deadline,
    /// 4 unreachable, 5 memory exhausted; 3 is retired).
    RunAbort {
        /// Abort cause code.
        cause: u8,
    },
}

/// One recorded event.
///
/// `phase` is assigned by the recorder (the interned id of the scenario
/// phase current at record time); instrumentation sites leave it 0.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// Simulated cycle the event starts at.
    pub at: Cycles,
    /// Span length in cycles; 0 for instantaneous events.
    pub(crate) dur: Cycles,
    /// Cluster id, or [`NO_CLUSTER`].
    pub cluster: u32,
    /// PE index within the cluster, or [`NO_PE`].
    pub pe: u32,
    /// Interned phase id (stamped by the recorder).
    pub(crate) phase: u16,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// An instantaneous event.
    pub fn instant(at: Cycles, cluster: u32, pe: u32, kind: EventKind) -> Self {
        TraceEvent {
            at,
            dur: 0,
            cluster,
            pe,
            phase: 0,
            kind,
        }
    }

    /// A span `[at, at + dur)`.
    pub fn span(at: Cycles, dur: Cycles, cluster: u32, pe: u32, kind: EventKind) -> Self {
        TraceEvent {
            at,
            dur,
            cluster,
            pe,
            phase: 0,
            kind,
        }
    }

    /// Short display name of the event kind.
    pub(crate) fn name(&self) -> &'static str {
        match &self.kind {
            EventKind::DesSchedule { .. } => "des_schedule",
            EventKind::DesDispatch { .. } => "des_dispatch",
            EventKind::PeBusy { cost, .. } => cost.name(),
            EventKind::MsgSend { msg, .. } => msg.name(),
            EventKind::MsgRecv { .. } => "msg_recv",
            EventKind::Window { stage, .. } => stage.name(),
            EventKind::Alloc { .. } => "alloc",
            EventKind::Free { .. } => "free",
            EventKind::LinkTransfer { .. } => "link_transfer",
            EventKind::Task { stage, .. } => stage.name(),
            EventKind::AppCommand { .. } => "command",
            EventKind::LinkFault { .. } => "link_fault",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::DeadLetter { .. } => "dead_letter",
            EventKind::PeRecover => "pe_recover",
            EventKind::LinkRecover { .. } => "link_recover",
            EventKind::MemFault { .. } => "mem_fault",
            EventKind::RunAbort { .. } => "run_abort",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_cover_all_message_kinds() {
        let all = [
            MsgKind::InitiateTask,
            MsgKind::PauseNotify,
            MsgKind::Resume,
            MsgKind::TerminateNotify,
            MsgKind::RemoteCall,
            MsgKind::RemoteReturn,
            MsgKind::LoadCode,
        ];
        let names: std::collections::BTreeSet<_> = all.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 7, "distinct names for the 7 paper messages");
    }
}
