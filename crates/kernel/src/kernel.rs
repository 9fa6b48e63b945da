//! The per-cluster kernel loop over the simulated machine.
//!
//! [`KernelSim`] is the system programmer's VM in motion: kernel messages
//! travel the network, arrive in a cluster's input queue, are decoded by the
//! cluster's kernel PE (one [`fem2_machine::CostClass::MsgDispatch`] each),
//! and their effects — task creation, scheduling, pause/resume, RPC — are
//! charged to whichever PEs perform them. "Messages arriving in the input
//! queue of any cluster can be processed by any available PE": the ready
//! queue is cluster-wide and the dispatcher hands tasks to the
//! earliest-free surviving worker PE.
//!
//! Semantics notes (documented simplifications of the 1983 design):
//!
//! * a paused task restarts its work profile when resumed (pause points
//!   inside a profile are not modeled);
//! * a PE failure re-queues the task that was running on it; the work
//!   already charged to the dead PE is lost, and the task re-runs in full;
//! * code blocks are auto-loaded on first use when
//!   [`KernelSim::auto_load_code`] is set (the default), otherwise an
//!   explicit [`KernelMessage::LoadCode`] is required and initiating an
//!   unloaded block drops the request.
//!
//! **Reliable delivery.** Remote kernel messages ride a reliable sub-layer:
//! each gets a sequence number, the receiver acknowledges on arrival (a
//! wire-level ack, before decode), and the sender arms a retransmission
//! timeout derived from the network's contention-free latency estimate.
//! A message whose route loses a link mid-flight is dropped at arrival
//! time: each attempt carries the [`Flight`] its transmit returned, and the
//! packet is lost when [`fem2_machine::Network::flight_lost`] says so — the
//! network's fault epoch moved since the send *and* a link slot of the route
//! taken is dead at arrival (a link killed and repaired in between loses
//! nothing; an unchanged epoch is "not lost" without looking at any link).
//! Acknowledgements are checked the same way on their way back. The timeout
//! fires, and the sender retransmits (over the current —
//! possibly rerouted — path) with exponential backoff, up to
//! [`fem2_machine::MAX_RETRANSMITS`] attempts (the budget the NA-VM's
//! window exchanges share). Receivers deduplicate by
//! sequence number, so a retried delivery is acknowledged but not
//! re-processed. A message that exhausts its budget is dead-lettered: the
//! drop is counted, traced, and — for a `RemoteCall` — the calling task is
//! re-queued so the work re-runs instead of hanging. Local (intra-cluster)
//! messages bypass the sub-layer entirely; with no faults injected the
//! reliable layer adds no retransmissions and healthy timing is unchanged.

use crate::activation::{ActivationRecord, TaskId, TaskState};
use crate::codeblock::{CodeBlock, CodeId, CodeStore};
use crate::message::{KernelMessage, MessageKind};
use fem2_machine::fault::{FaultKind, FaultPlan};
use fem2_machine::{CostClass, Cycles, EventQueue, Flight, Machine, PeId, Words, MAX_RETRANSMITS};
use fem2_trace::{EventKind, TaskStage, TraceEvent, TraceHandle, NO_PE};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Requests dropped, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Initiate/call for a code block not loaded at the cluster (with
    /// auto-load off, or whose load failed).
    pub unloaded_code: u64,
    /// Activation-record or code-image allocation failed.
    pub oom: u64,
    /// Pause/resume of a task not in the required state.
    pub bad_state: u64,
    /// Work lost because a cluster's last PE died.
    pub dead_pe: u64,
    /// Remote messages that exhausted their retransmit budget.
    pub dead_letter: u64,
}

impl DropCounts {
    /// Total drops across all causes.
    pub fn total(&self) -> u64 {
        self.unloaded_code + self.oom + self.bad_state + self.dead_pe + self.dead_letter
    }
}

/// Kernel-level reliability and drop accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Requests dropped, by cause.
    pub drops: DropCounts,
    /// Task completions discarded because a pause/kill/fault superseded
    /// their assignment epoch.
    pub stale_completions: u64,
    /// Reliable-layer retransmissions.
    pub retransmits: u64,
    /// Acknowledgements sent by receivers.
    pub acks: u64,
    /// Packets (messages or acks) lost to a link that died in flight.
    pub lost_in_flight: u64,
}

/// Kernel events on the discrete-event queue.
#[derive(Clone, Debug)]
enum KEvent {
    /// A message arrives in `to`'s input queue (`from` is the sender, kept
    /// for receive-side tracing). `seq` is 0 and `flight` is `None` for
    /// local (unreliable) delivery; a remote message carries the route it
    /// took so a link death mid-flight can be recognized at arrival time.
    Arrive {
        from: u32,
        to: u32,
        msg: Rc<KernelMessage>,
        seq: u64,
        flight: Option<Flight>,
    },
    /// A reliable-delivery acknowledgement arrives back at the sender.
    AckArrive { seq: u64, flight: Flight },
    /// A reliable message's retransmission timeout fires.
    Timeout { seq: u64 },
    /// Cluster `cluster`'s kernel PE finished decoding the message at the
    /// head of the input queue.
    Decoded { cluster: u32 },
    /// A task finished its charged work on a PE.
    TaskComplete { task: TaskId, pe: PeId, epoch: u32 },
    /// Try to hand ready tasks to available PEs.
    Dispatch { cluster: u32 },
    /// A step of the injected fault plan is due.
    Fault(FaultKind),
}

/// A remote message awaiting acknowledgement. The payload is shared (not
/// cloned) with every in-flight transmission attempt and the receiver's
/// input queue: one allocation serves send, retransmit, and delivery.
#[derive(Clone, Debug)]
struct PendingMsg {
    from: u32,
    to: u32,
    msg: Rc<KernelMessage>,
    attempts: u32,
}

/// Which task each PE is running: one slot per PE, cluster-major, so slot
/// order is `PeId` order.
#[derive(Debug)]
struct RunningTable {
    pes_per_cluster: u32,
    slots: Vec<Option<TaskId>>,
}

impl RunningTable {
    fn new(clusters: u32, pes_per_cluster: u32) -> Self {
        RunningTable {
            pes_per_cluster,
            slots: vec![None; clusters as usize * pes_per_cluster as usize],
        }
    }

    /// `pe`'s slot; `None` for a PE the machine does not have (a fault
    /// plan may name one).
    fn slot(&mut self, pe: PeId) -> Option<&mut Option<TaskId>> {
        if pe.index >= self.pes_per_cluster {
            return None;
        }
        let i = pe.cluster as usize * self.pes_per_cluster as usize + pe.index as usize;
        self.slots.get_mut(i)
    }

    fn insert(&mut self, pe: PeId, task: TaskId) {
        *self.slot(pe).expect("dispatch picks PEs the machine has") = Some(task);
    }

    fn remove(&mut self, pe: PeId) -> Option<TaskId> {
        self.slot(pe)?.take()
    }

    /// Drop `task` from every PE it is recorded on.
    fn remove_task(&mut self, task: TaskId) {
        for slot in &mut self.slots {
            if *slot == Some(task) {
                *slot = None;
            }
        }
    }

    /// Running tasks in `PeId` order.
    fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.slots.iter().flatten().copied()
    }
}

/// Unacknowledged messages by sequence number. Sequence numbers are handed
/// out densely and in order, so the table is a window `[base, base + len)`
/// over them: a send appends, an acknowledgement (or dead letter) empties
/// its slot, and the emptied prefix is dropped — memory follows the
/// messages in flight, not the messages ever sent.
#[derive(Debug)]
struct PendingTable {
    base: u64,
    slots: VecDeque<Option<PendingMsg>>,
}

impl PendingTable {
    fn new(first_seq: u64) -> Self {
        PendingTable {
            base: first_seq,
            slots: VecDeque::new(),
        }
    }

    /// Record the message with the next sequence number.
    fn push(&mut self, seq: u64, msg: PendingMsg) {
        debug_assert_eq!(seq, self.base + self.slots.len() as u64);
        self.slots.push_back(Some(msg));
    }

    /// `seq`'s slot; `None` below the window (long acknowledged) or above
    /// it (never sent).
    fn slot(&mut self, seq: u64) -> Option<&mut Option<PendingMsg>> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(i)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut PendingMsg> {
        self.slot(seq)?.as_mut()
    }

    fn remove(&mut self, seq: u64) -> Option<PendingMsg> {
        let msg = self.slot(seq)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        msg
    }
}

/// A set of densely numbered ids (sequence numbers, task ids), one bit
/// each, growing to the largest id inserted.
#[derive(Debug, Default)]
struct DenseBits {
    words: Vec<u64>,
}

impl DenseBits {
    /// Add `id`; `false` if it was already in the set.
    fn insert(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    fn contains(&self, id: u64) -> bool {
        let word = self.words.get((id / 64) as usize);
        word.is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }
}

/// Per-cluster kernel state.
#[derive(Debug, Default)]
struct ClusterState {
    /// Queued (sender, message) pairs awaiting decode.
    input: VecDeque<(u32, Rc<KernelMessage>)>,
    kernel_busy: bool,
    ready: VecDeque<TaskId>,
    loaded: BTreeSet<CodeId>,
}

/// The kernel simulation: a [`Machine`] plus the seven-message kernel
/// protocol, task scheduling, and fault reconfiguration.
pub struct KernelSim {
    /// The simulated hardware (public for inspection; mutate through the
    /// kernel API).
    pub machine: Machine,
    /// Auto-load code blocks on first initiate/call at a cluster (the
    /// default); when cleared, initiating an unloaded block drops the
    /// request.
    pub auto_load_code: bool,
    queue: EventQueue<KEvent>,
    clusters: Vec<ClusterState>,
    code: CodeStore,
    tasks: Vec<ActivationRecord>,
    /// Which task each PE is currently running.
    running: RunningTable,
    /// (task, completion time) in completion order.
    completions: Vec<(TaskId, Cycles)>,
    /// Parent notifications delivered: (child task, arrival time).
    notifications: Vec<(TaskId, Cycles)>,
    /// RPC returns received: call_id -> arrival time.
    rpc_returns: BTreeMap<u64, Cycles>,
    /// RPC worker tasks: task -> (call_id, reply cluster).
    rpc_tasks: BTreeMap<TaskId, (u64, u32)>,
    /// Every task that was ever an RPC worker: the one-bit answer that
    /// spares each ordinary completion a search of `rpc_tasks`.
    rpc_workers: DenseBits,
    /// Messages processed, by kind.
    msg_counts: BTreeMap<MessageKind, u64>,
    /// Next reliable-delivery sequence number (0 is reserved for local
    /// unreliable sends).
    next_seq: u64,
    /// Remote messages sent but not yet acknowledged (a window over the
    /// sequence numbers in flight).
    pending: PendingTable,
    /// Sequence numbers already delivered (receiver-side dedup). A
    /// retransmission can arrive long after its first copy, so no prefix is
    /// ever safe to drop: one bit per remote message for the life of the sim.
    delivered: DenseBits,
    /// Reliability and drop accounting.
    pub stats: KernelStats,
}

impl KernelSim {
    /// Payload of pause/terminate notifications and RPC results, in words.
    const NOTIFY_WORDS: Words = 2;
    /// Cycles the cluster spends reconfiguring after a PE fault before its
    /// re-queued work is redispatched.
    const RECONFIG_CYCLES: Cycles = 500;
    /// Wire size of a reliable-delivery acknowledgement, in words.
    const ACK_WORDS: Words = 2;
    /// Slack added to the round-trip estimate when arming a retransmission
    /// timeout (absorbs queueing the estimate cannot see).
    const RTO_SLACK: Cycles = 500;

    /// A kernel over `machine` with code auto-loading on.
    pub fn new(machine: Machine) -> Self {
        let clusters = (0..machine.config.clusters)
            .map(|_| ClusterState::default())
            .collect();
        let queue = EventQueue::with_backend(machine.config.des_queue);
        let running = RunningTable::new(machine.config.clusters, machine.config.pes_per_cluster);
        KernelSim {
            machine,
            auto_load_code: true,
            queue,
            clusters,
            code: CodeStore::new(),
            tasks: Vec::new(),
            running,
            completions: Vec::new(),
            notifications: Vec::new(),
            rpc_returns: BTreeMap::new(),
            rpc_tasks: BTreeMap::new(),
            rpc_workers: DenseBits::default(),
            msg_counts: BTreeMap::new(),
            next_seq: 1,
            pending: PendingTable::new(1),
            delivered: DenseBits::default(),
            stats: KernelStats::default(),
        }
    }

    /// Attach a trace sink: machine-level events, DES queue events, kernel
    /// messages, and task lifecycle transitions all flow to it.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.machine.set_trace(trace.clone());
        self.queue.set_trace(trace);
    }

    /// Register a code block with the global program store.
    pub fn register_code(&mut self, block: CodeBlock) -> CodeId {
        self.code.register(block)
    }

    /// The global program store.
    pub fn code_store(&self) -> &CodeStore {
        &self.code
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Lifetime count of DES events this kernel's queue has dispatched —
    /// the engine-throughput figure, available without a trace sink.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Send a kernel message from cluster `from` to cluster `to` at time
    /// `at`. The sender's kernel PE is charged the format-and-send cost and
    /// the network carries the wire size. Remote messages ride the reliable
    /// sub-layer (sequence number, ack, timeout, retransmit); local ones
    /// are delivered directly.
    pub fn send(&mut self, at: Cycles, from: u32, to: u32, msg: KernelMessage) {
        let msg = Rc::new(msg);
        if from == to {
            self.transmit_message(at, from, to, msg, 0, 0);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(
            seq,
            PendingMsg {
                from,
                to,
                msg: Rc::clone(&msg),
                attempts: 0,
            },
        );
        self.transmit_message(at, from, to, msg, seq, 0);
    }

    /// One transmission attempt (`attempt` 0 is the original send; the
    /// timeout backs off exponentially with the attempt number). `seq` 0
    /// marks local unreliable delivery: no ack, no timeout.
    fn transmit_message(
        &mut self,
        at: Cycles,
        from: u32,
        to: u32,
        msg: Rc<KernelMessage>,
        seq: u64,
        attempt: u32,
    ) {
        let kpe = self.machine.kernel_pe(from);
        let send_done = self
            .machine
            .charge(at, kpe, CostClass::MsgSend, 1)
            .unwrap_or(at);
        let code = &self.code;
        let wire = msg.wire_words(|c| code.get(c).words);
        if seq == 0 {
            let arrival = self.machine.transmit(send_done, from, to, wire);
            let kind = msg.kind().trace_kind();
            self.machine.trace.emit(|| {
                TraceEvent::span(
                    at,
                    arrival - at,
                    from,
                    NO_PE,
                    EventKind::MsgSend {
                        msg: kind,
                        to_cluster: to,
                        words: wire,
                    },
                )
            });
            self.queue.schedule(
                arrival,
                KEvent::Arrive {
                    from,
                    to,
                    msg,
                    seq: 0,
                    flight: None,
                },
            );
            return;
        }
        // One route lookup carries the message and prices its forward leg;
        // a second prices the acknowledgement's way back.
        let sent = self.machine.transmit_tracked(send_done, from, to, wire);
        let back = self.machine.network.estimate(to, from, Self::ACK_WORDS);
        let rto = (sent.estimate + back) * 2 + Self::RTO_SLACK;
        match sent.arrival {
            Some((arrival, flight)) => {
                // No remote message beats the network's minimum delivery
                // latency for its route.
                debug_assert!(
                    self.machine
                        .network
                        .min_delivery_latency(from, to)
                        .is_none_or(|bound| arrival >= send_done + bound),
                    "remote delivery beat the minimum delivery latency"
                );
                let kind = msg.kind().trace_kind();
                self.machine.trace.emit(|| {
                    TraceEvent::span(
                        at,
                        arrival - at,
                        from,
                        NO_PE,
                        EventKind::MsgSend {
                            msg: kind,
                            to_cluster: to,
                            words: wire,
                        },
                    )
                });
                self.queue.schedule(
                    arrival,
                    KEvent::Arrive {
                        from,
                        to,
                        msg,
                        seq,
                        flight: Some(flight),
                    },
                );
            }
            None => {
                // No live route right now; the timeout below retries (a
                // detour may appear) or eventually dead-letters.
                self.stats.lost_in_flight += 1;
            }
        }
        self.queue
            .schedule(send_done + (rto << attempt), KEvent::Timeout { seq });
    }

    /// Convenience: initiate `k` replications of `code` on `cluster`,
    /// injected locally at time `at` (a user request arriving at the
    /// cluster).
    pub fn initiate(
        &mut self,
        at: Cycles,
        cluster: u32,
        code: CodeId,
        k: u32,
        parent: Option<TaskId>,
        args_words: Words,
    ) {
        self.send(
            at,
            cluster,
            cluster,
            KernelMessage::InitiateTask {
                code,
                replications: k,
                parent,
                args_words,
            },
        );
    }

    /// Schedule a fault plan: every step becomes an event now. Steps go on
    /// the queue in plan order with each PE recovery right behind the fault
    /// it ends, so steps due at one cycle pop recoveries first, then faults
    /// in kind order — the order [`FaultPlan::due`] returns them in.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        let mut steps = plan.clone().due(Cycles::MAX).to_vec();
        steps.sort_by_key(|step| match step.kind {
            FaultKind::PeRecover { failed_at, pe } => (failed_at, FaultKind::Pe { pe }, true),
            kind => (step.at, kind, false),
        });
        for step in steps {
            self.queue.schedule(step.at, KEvent::Fault(step.kind));
        }
    }

    /// Run to quiescence; returns the machine makespan.
    pub fn run(&mut self) -> Cycles {
        while let Some((now, ev)) = self.queue.pop() {
            self.handle(now, ev);
        }
        self.machine.makespan()
    }

    /// Completions in completion order.
    pub fn completions(&self) -> &[(TaskId, Cycles)] {
        &self.completions
    }

    /// Parent notifications in arrival order.
    pub fn notifications(&self) -> &[(TaskId, Cycles)] {
        &self.notifications
    }

    /// RPC return arrival times by call id.
    pub fn rpc_returns(&self) -> &BTreeMap<u64, Cycles> {
        &self.rpc_returns
    }

    /// Processed message counts by kind.
    pub fn msg_counts(&self) -> &BTreeMap<MessageKind, u64> {
        &self.msg_counts
    }

    /// A task's activation record.
    pub fn task(&self, id: TaskId) -> &ActivationRecord {
        &self.tasks[id.0 as usize]
    }

    /// Total tasks created.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// True if every created task has terminated.
    pub fn all_done(&self) -> bool {
        self.tasks.iter().all(|t| t.state == TaskState::Done)
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, now: Cycles, ev: KEvent) {
        match ev {
            KEvent::Arrive {
                from,
                to,
                msg,
                seq,
                flight,
            } => {
                if let Some(flight) = flight {
                    if self.machine.network.flight_lost(&flight) {
                        self.stats.lost_in_flight += 1;
                        return; // sender's timeout recovers
                    }
                    // Wire-level ack, sent on arrival before decode. It rides
                    // the raw network (no kernel message accounting) so
                    // healthy-path stats are untouched.
                    let ack = self
                        .machine
                        .network
                        .transmit_tracked(now, to, from, Self::ACK_WORDS);
                    match ack.arrival {
                        Some((t, flight)) => {
                            self.stats.acks += 1;
                            self.queue.schedule(t, KEvent::AckArrive { seq, flight });
                        }
                        None => self.stats.lost_in_flight += 1,
                    }
                    if !self.delivered.insert(seq) {
                        return; // duplicate delivery of a retried message
                    }
                }
                self.clusters[to as usize].input.push_back((from, msg));
                self.pump(now, to);
            }
            KEvent::AckArrive { seq, flight } => {
                if self.machine.network.flight_lost(&flight) {
                    self.stats.lost_in_flight += 1;
                    return; // sender retransmits; receiver dedups
                }
                self.pending.remove(seq);
            }
            KEvent::Timeout { seq } => {
                self.timeout(now, seq);
            }
            KEvent::Decoded { cluster } => {
                let (from, msg) = self.clusters[cluster as usize]
                    .input
                    .pop_front()
                    .expect("decoded event without queued message");
                self.clusters[cluster as usize].kernel_busy = false;
                *self.msg_counts.entry(msg.kind()).or_insert(0) += 1;
                self.machine.stats.kernel_msg();
                let kind = msg.kind().trace_kind();
                let code = &self.code;
                let wire = msg.wire_words(|c| code.get(c).words);
                self.machine.trace.emit(|| {
                    TraceEvent::instant(
                        now,
                        cluster,
                        NO_PE,
                        EventKind::MsgRecv {
                            msg: kind,
                            from_cluster: from,
                            words: wire,
                        },
                    )
                });
                self.execute(now, cluster, &msg);
                self.pump(now, cluster);
            }
            KEvent::TaskComplete { task, pe, epoch } => {
                self.task_complete(now, task, pe, epoch);
            }
            KEvent::Dispatch { cluster } => {
                self.dispatch(now, cluster);
            }
            KEvent::Fault(kind) => {
                let applied = self.machine.apply_fault(now, kind);
                match kind {
                    FaultKind::Pe { pe } => self.fault(now, pe, applied.is_err()),
                    FaultKind::PeRecover { pe, .. } => self.queue.schedule(
                        now,
                        KEvent::Dispatch {
                            cluster: pe.cluster,
                        },
                    ),
                    FaultKind::Memory { cluster, .. } => {
                        self.mem_fault(now, cluster, applied.unwrap_or(0));
                    }
                    FaultKind::Link { .. } | FaultKind::LinkRecover { .. } => {}
                }
            }
        }
    }

    /// A reliable message's retransmission timeout fired: retransmit with
    /// backoff, or dead-letter it once the budget is spent.
    fn timeout(&mut self, now: Cycles, seq: u64) {
        let Some(p) = self.pending.get_mut(seq) else {
            return; // acknowledged; stale timer
        };
        let (from, to) = (p.from, p.to);
        if p.attempts >= MAX_RETRANSMITS {
            let p = self.pending.remove(seq).expect("checked present above");
            self.stats.drops.dead_letter += 1;
            let kind = p.msg.kind().trace_kind();
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    now,
                    from,
                    NO_PE,
                    EventKind::DeadLetter {
                        msg: kind,
                        to_cluster: to,
                    },
                )
            });
            // Re-queue the originating task so the work re-runs instead of
            // hanging on a reply that will never come.
            if let KernelMessage::RemoteCall { caller, .. } = *p.msg {
                self.requeue_task(now, caller);
            }
            return;
        }
        p.attempts += 1;
        let attempt = p.attempts;
        let msg = Rc::clone(&p.msg); // shares the pending slot's allocation
        self.stats.retransmits += 1;
        let kind = msg.kind().trace_kind();
        self.machine.trace.emit(|| {
            TraceEvent::instant(
                now,
                from,
                NO_PE,
                EventKind::Retransmit {
                    msg: kind,
                    to_cluster: to,
                    attempt,
                },
            )
        });
        self.transmit_message(now, from, to, msg, seq, attempt);
    }

    /// Send a live task back to its cluster's ready queue (dead-letter and
    /// memory-fault paths). The epoch bump invalidates any in-flight
    /// completion.
    fn requeue_task(&mut self, now: Cycles, task: TaskId) {
        let Some(rec) = self.tasks.get_mut(task.0 as usize) else {
            return;
        };
        match rec.state {
            TaskState::Running | TaskState::Paused => {
                rec.epoch += 1;
                rec.transition(TaskState::Ready);
                let c = rec.cluster;
                self.running.remove_task(task);
                self.clusters[c as usize].ready.push_back(task);
                self.queue
                    .schedule(now + Self::RECONFIG_CYCLES, KEvent::Dispatch { cluster: c });
            }
            TaskState::Ready | TaskState::Done => {}
        }
    }

    /// A memory bank of `cluster` failed and `lost` words of live
    /// allocations no longer fit: invalidate victim allocations — running
    /// tasks first (in PE order), then queued and paused holders — until
    /// the surviving arena fits what remains. Victims lose their locals
    /// (`locals_held` cleared) and re-queue; the dispatcher re-allocates
    /// before they run again.
    fn mem_fault(&mut self, now: Cycles, cluster: u32, lost: Words) {
        if lost == 0 {
            return;
        }
        let mut victims: Vec<TaskId> = Vec::new();
        for t in self.running.tasks() {
            let rec = &self.tasks[t.0 as usize];
            if rec.cluster == cluster && rec.locals_held && rec.locals_words > 0 {
                victims.push(t);
            }
        }
        for rec in &self.tasks {
            if rec.cluster == cluster
                && rec.locals_held
                && rec.locals_words > 0
                && matches!(rec.state, TaskState::Ready | TaskState::Paused)
            {
                victims.push(rec.id);
            }
        }
        // Shed holders until the survivors fit the shrunken arena, plus
        // enough headroom to re-home the largest invalidated task — without
        // it, every runnable task can end up waiting on memory that only a
        // runnable task could free.
        let mut realloc_need: Words = 0;
        for t in victims {
            let mem = self.machine.memory(cluster);
            if mem.used() <= mem.capacity() && mem.available() >= realloc_need {
                break;
            }
            let locals = {
                let rec = &mut self.tasks[t.0 as usize];
                rec.locals_held = false;
                rec.locals_words
            };
            realloc_need = realloc_need.max(locals);
            self.machine.free_at(now, cluster, locals);
            self.requeue_task(now, t);
        }
    }

    /// Start the kernel PE on the next queued message if it is idle.
    fn pump(&mut self, now: Cycles, cluster: u32) {
        let st = &mut self.clusters[cluster as usize];
        if st.kernel_busy || st.input.is_empty() {
            return;
        }
        st.kernel_busy = true;
        let kpe = self.machine.kernel_pe(cluster);
        let done = self
            .machine
            .charge(now, kpe, CostClass::MsgDispatch, 1)
            .unwrap_or(now);
        self.queue.schedule(done, KEvent::Decoded { cluster });
    }

    fn ensure_loaded(&mut self, now: Cycles, cluster: u32, code: CodeId) -> bool {
        if self.clusters[cluster as usize].loaded.contains(&code) {
            return true;
        }
        if !self.auto_load_code {
            return false;
        }
        self.load_code(now, cluster, code)
    }

    fn load_code(&mut self, now: Cycles, cluster: u32, code: CodeId) -> bool {
        let words = self.code.get(code).words;
        if self.machine.alloc_at(now, cluster, words).is_err() {
            return false;
        }
        let kpe = self.machine.kernel_pe(cluster);
        let _ = self.machine.charge(now, kpe, CostClass::MemWord, words);
        self.clusters[cluster as usize].loaded.insert(code);
        true
    }

    fn execute(&mut self, now: Cycles, cluster: u32, msg: &KernelMessage) {
        // All message fields are `Copy`; matching on `*msg` copies the
        // scalars out and leaves the shared allocation untouched.
        match *msg {
            KernelMessage::InitiateTask {
                code,
                replications,
                parent,
                args_words,
            } => {
                if !self.ensure_loaded(now, cluster, code) {
                    self.stats.drops.unloaded_code += 1;
                    return;
                }
                let kpe = self.machine.kernel_pe(cluster);
                let locals = self.code.get(code).locals_words + args_words;
                let mut created_any = false;
                for _ in 0..replications {
                    if self.machine.alloc_at(now, cluster, locals).is_err() {
                        self.stats.drops.oom += 1;
                        continue;
                    }
                    let create_done = self
                        .machine
                        .charge(now, kpe, CostClass::TaskCreate, 1)
                        .unwrap_or(now);
                    let id = TaskId(self.tasks.len() as u64);
                    self.tasks.push(ActivationRecord::new(
                        id,
                        code,
                        cluster,
                        parent,
                        locals,
                        create_done,
                    ));
                    self.machine.trace.emit(|| {
                        TraceEvent::instant(
                            create_done,
                            cluster,
                            NO_PE,
                            EventKind::Task {
                                task: id.0 as u32,
                                stage: TaskStage::Created,
                            },
                        )
                    });
                    self.clusters[cluster as usize].ready.push_back(id);
                    created_any = true;
                }
                if created_any {
                    // Dispatch once the kernel PE has finished creating the
                    // activation records.
                    let at = self
                        .machine
                        .pe(self.machine.kernel_pe(cluster))
                        .expect("kernel PE id is always in range")
                        .free_at;
                    self.queue.schedule(at, KEvent::Dispatch { cluster });
                }
            }
            KernelMessage::PauseNotify { task } => {
                let rec = &mut self.tasks[task.0 as usize];
                if rec.state == TaskState::Running {
                    rec.epoch += 1; // invalidate the in-flight completion
                    rec.transition(TaskState::Paused);
                    // Free the PE's association (its charged time stands).
                    self.running.remove_task(task);
                    let parent = rec.parent;
                    self.notify_parent(now, cluster, task, parent);
                } else {
                    self.stats.drops.bad_state += 1;
                }
            }
            KernelMessage::Resume { task } => {
                let rec = &mut self.tasks[task.0 as usize];
                if rec.state == TaskState::Paused {
                    rec.transition(TaskState::Ready);
                    let c = rec.cluster;
                    self.clusters[c as usize].ready.push_back(task);
                    self.queue.schedule(now, KEvent::Dispatch { cluster: c });
                } else {
                    self.stats.drops.bad_state += 1;
                }
            }
            KernelMessage::TerminateNotify { task } => {
                let rec = &mut self.tasks[task.0 as usize];
                match rec.state {
                    TaskState::Done => {
                        // Notification of an already-completed child: record
                        // its delivery to the parent.
                        self.notifications.push((task, now));
                    }
                    TaskState::Running | TaskState::Ready | TaskState::Paused => {
                        // Forced termination.
                        rec.epoch += 1;
                        let state = rec.state;
                        rec.transition(TaskState::Done);
                        rec.completed_at = Some(now);
                        let c = rec.cluster;
                        let locals = rec.locals_words;
                        let parent = rec.parent;
                        let held = rec.locals_held;
                        rec.locals_held = false;
                        if state == TaskState::Ready {
                            self.clusters[c as usize].ready.retain(|t| *t != task);
                        }
                        self.running.remove_task(task);
                        if held {
                            self.machine.free_at(now, c, locals);
                        }
                        self.completions.push((task, now));
                        self.notify_parent(now, cluster, task, parent);
                    }
                }
            }
            KernelMessage::RemoteCall {
                call_id,
                code,
                args_words,
                caller,
                reply_cluster,
            } => {
                if !self.ensure_loaded(now, cluster, code) {
                    self.stats.drops.unloaded_code += 1;
                    return;
                }
                let locals = self.code.get(code).locals_words + args_words;
                if self.machine.alloc_at(now, cluster, locals).is_err() {
                    self.stats.drops.oom += 1;
                    return;
                }
                let kpe = self.machine.kernel_pe(cluster);
                let create_done = self
                    .machine
                    .charge(now, kpe, CostClass::TaskCreate, 1)
                    .unwrap_or(now);
                let id = TaskId(self.tasks.len() as u64);
                let mut rec =
                    ActivationRecord::new(id, code, cluster, Some(caller), locals, create_done);
                // RPC workers do not send TerminateNotify; they reply.
                rec.parent = None;
                self.tasks.push(rec);
                self.machine.trace.emit(|| {
                    TraceEvent::instant(
                        create_done,
                        cluster,
                        NO_PE,
                        EventKind::Task {
                            task: id.0 as u32,
                            stage: TaskStage::Created,
                        },
                    )
                });
                self.rpc_tasks.insert(id, (call_id, reply_cluster));
                self.rpc_workers.insert(id.0);
                self.clusters[cluster as usize].ready.push_back(id);
                self.queue
                    .schedule(create_done, KEvent::Dispatch { cluster });
            }
            KernelMessage::RemoteReturn { call_id, .. } => {
                self.rpc_returns.insert(call_id, now);
            }
            KernelMessage::LoadCode { code } => {
                if !self.load_code(now, cluster, code) {
                    self.stats.drops.oom += 1;
                }
            }
        }
    }

    fn notify_parent(
        &mut self,
        now: Cycles,
        from_cluster: u32,
        child: TaskId,
        parent: Option<TaskId>,
    ) {
        if let Some(p) = parent {
            let pc = self.tasks.get(p.0 as usize).map(|r| r.cluster);
            if let Some(pc) = pc {
                if pc == from_cluster {
                    // Local notification: no network message.
                    self.notifications.push((child, now));
                } else {
                    self.send(
                        now,
                        from_cluster,
                        pc,
                        KernelMessage::TerminateNotify { task: child },
                    );
                }
            }
        }
    }

    /// Hand ready tasks to available worker PEs.
    fn dispatch(&mut self, now: Cycles, cluster: u32) {
        loop {
            if self.clusters[cluster as usize].ready.is_empty() {
                return;
            }
            // An eligible worker that is free *now*.
            let Some(pe) = self.machine.free_worker(cluster, now) else {
                return;
            };
            let task = self.clusters[cluster as usize]
                .ready
                .pop_front()
                .expect("ready checked non-empty above");
            let (needs_alloc, locals) = {
                let rec = &self.tasks[task.0 as usize];
                (!rec.locals_held, rec.locals_words)
            };
            if needs_alloc {
                // A memory-bank fault invalidated this task's locals;
                // re-home them before it runs again. If the shrunken arena
                // has no room yet, leave the task queued — the next
                // completion frees space and re-triggers dispatch.
                if self.machine.alloc_at(now, cluster, locals).is_err() {
                    self.clusters[cluster as usize].ready.push_front(task);
                    return;
                }
                self.tasks[task.0 as usize].locals_held = true;
            }
            let rec = &mut self.tasks[task.0 as usize];
            rec.transition(TaskState::Running);
            rec.epoch += 1;
            let epoch = rec.epoch;
            let work = self.code.get(rec.code).work;
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    now,
                    pe.cluster,
                    pe.index,
                    EventKind::Task {
                        task: task.0 as u32,
                        stage: TaskStage::Dispatched,
                    },
                )
            });
            let done = self.machine.run_task(now, pe, &work).unwrap_or(now);
            self.running.insert(pe, task);
            self.queue
                .schedule(done, KEvent::TaskComplete { task, pe, epoch });
        }
    }

    fn task_complete(&mut self, now: Cycles, task: TaskId, pe: PeId, epoch: u32) {
        let rec = &mut self.tasks[task.0 as usize];
        if rec.epoch != epoch || rec.state != TaskState::Running {
            // Stale completion: a pause, kill, or fault superseded this
            // assignment. Count and trace it instead of vanishing silently.
            self.stats.stale_completions += 1;
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    now,
                    pe.cluster,
                    pe.index,
                    EventKind::Task {
                        task: task.0 as u32,
                        stage: TaskStage::Stale,
                    },
                )
            });
            // The PE's charge has drained; it can take re-queued work now.
            self.queue.schedule(
                now,
                KEvent::Dispatch {
                    cluster: pe.cluster,
                },
            );
            return;
        }
        rec.transition(TaskState::Done);
        rec.completed_at = Some(now);
        let cluster = rec.cluster;
        let locals = rec.locals_words;
        let parent = rec.parent;
        let held = rec.locals_held;
        rec.locals_held = false;
        self.running.remove(pe);
        if held {
            self.machine.free_at(now, cluster, locals);
        }
        self.machine.trace.emit(|| {
            TraceEvent::instant(
                now,
                pe.cluster,
                pe.index,
                EventKind::Task {
                    task: task.0 as u32,
                    stage: TaskStage::Completed,
                },
            )
        });
        self.completions.push((task, now));
        self.notify_parent(now, cluster, task, parent);
        if self.rpc_workers.contains(task.0) {
            if let Some((call_id, reply_cluster)) = self.rpc_tasks.remove(&task) {
                self.send(
                    now,
                    cluster,
                    reply_cluster,
                    KernelMessage::RemoteReturn {
                        call_id,
                        result_words: Self::NOTIFY_WORDS,
                    },
                );
            }
        }
        self.queue.schedule(now, KEvent::Dispatch { cluster });
    }

    /// `pe` failed; `cluster_lost` when the machine could not isolate it
    /// (the cluster has no PE left, or never had this one).
    fn fault(&mut self, now: Cycles, pe: PeId, cluster_lost: bool) {
        if cluster_lost {
            // Any running/ready work there is lost; drop it.
            self.stats.drops.dead_pe += 1;
        }
        if let Some(task) = self.running.remove(pe) {
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    now,
                    pe.cluster,
                    pe.index,
                    EventKind::Task {
                        task: task.0 as u32,
                        stage: TaskStage::Faulted,
                    },
                )
            });
            let rec = &mut self.tasks[task.0 as usize];
            if rec.state == TaskState::Running {
                rec.epoch += 1; // invalidate in-flight completion
                rec.transition(TaskState::Ready);
                let c = rec.cluster;
                self.clusters[c as usize].ready.push_back(task);
                self.queue
                    .schedule(now + Self::RECONFIG_CYCLES, KEvent::Dispatch { cluster: c });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codeblock::WorkProfile;
    use fem2_machine::{MachineConfig, Topology};

    fn sim(clusters: u32, pes: u32) -> KernelSim {
        let m = Machine::new(MachineConfig::clustered(clusters, pes, Topology::Crossbar));
        KernelSim::new(m)
    }

    fn small_code(k: &mut KernelSim) -> CodeId {
        k.register_code(CodeBlock::new(
            "work",
            64,
            WorkProfile {
                flops: 100,
                int_ops: 10,
                mem_words: 20,
            },
            16,
        ))
    }

    #[test]
    fn initiate_runs_tasks_to_completion() {
        let mut k = sim(1, 4);
        let code = small_code(&mut k);
        k.initiate(0, 0, code, 6, None, 8);
        let makespan = k.run();
        assert!(makespan > 0);
        assert_eq!(k.completions().len(), 6);
        assert!(k.all_done());
        assert_eq!(k.task_count(), 6);
        // Locals were freed.
        assert!(k.machine.memory(0).used() > 0, "code image stays loaded");
        let code_words = k.code_store().get(code).words;
        assert_eq!(k.machine.memory(0).used(), code_words);
    }

    #[test]
    fn replications_run_in_parallel_across_workers() {
        // 3 workers, 3 tasks: total time ≈ one task, not three.
        let mut k3 = sim(1, 4);
        let c3 = small_code(&mut k3);
        k3.initiate(0, 0, c3, 3, None, 0);
        let t3 = k3.run();

        let mut k1 = sim(1, 2); // one worker
        let c1 = small_code(&mut k1);
        k1.initiate(0, 0, c1, 3, None, 0);
        let t1 = k1.run();
        // Two extra serialized task bodies (~490 cycles each) separate the
        // one-worker run from the three-worker run.
        assert!(
            t1 >= t3 + 900,
            "serial {t1} should trail parallel {t3} by two task bodies"
        );
    }

    #[test]
    fn message_counts_by_kind() {
        let mut k = sim(1, 4);
        let code = small_code(&mut k);
        k.initiate(0, 0, code, 2, None, 0);
        k.run();
        assert_eq!(k.msg_counts()[&MessageKind::InitiateTask], 1);
    }

    #[test]
    fn parent_is_notified_of_child_termination() {
        let mut k = sim(2, 4);
        let code = small_code(&mut k);
        // Create the parent on cluster 0.
        k.initiate(0, 0, code, 1, None, 0);
        k.run();
        let parent = TaskId(0);
        // Children on cluster 1 with a cross-cluster parent.
        k.send(
            k.now(),
            0,
            1,
            KernelMessage::InitiateTask {
                code,
                replications: 2,
                parent: Some(parent),
                args_words: 0,
            },
        );
        k.run();
        // Two remote TerminateNotify messages were delivered at cluster 0.
        assert_eq!(k.notifications().len(), 2);
        assert_eq!(k.msg_counts()[&MessageKind::TerminateNotify], 2);
    }

    #[test]
    fn unloaded_code_dropped_without_autoload() {
        let mut k = sim(1, 2);
        k.auto_load_code = false;
        let code = small_code(&mut k);
        k.initiate(0, 0, code, 1, None, 0);
        k.run();
        assert_eq!(k.completions().len(), 0);
        assert_eq!(k.stats.drops.unloaded_code, 1);
        assert_eq!(k.stats.drops.total(), 1);
        // Explicit load then initiate works (staggered so the load's larger
        // wire size does not reorder it behind the initiate).
        k.send(k.now(), 0, 0, KernelMessage::LoadCode { code });
        k.initiate(k.now() + 10_000, 0, code, 1, None, 0);
        k.run();
        assert_eq!(k.completions().len(), 1);
        assert_eq!(k.msg_counts()[&MessageKind::LoadCode], 1);
    }

    #[test]
    fn remote_call_returns_to_caller() {
        let mut k = sim(2, 4);
        let code = small_code(&mut k);
        k.send(
            0,
            0,
            1,
            KernelMessage::RemoteCall {
                call_id: 42,
                code,
                args_words: 16,
                caller: TaskId(999),
                reply_cluster: 0,
            },
        );
        k.run();
        assert!(k.rpc_returns().contains_key(&42));
        assert_eq!(k.msg_counts()[&MessageKind::RemoteCall], 1);
        assert_eq!(k.msg_counts()[&MessageKind::RemoteReturn], 1);
        // The RPC worker task completed but sent no TerminateNotify.
        assert_eq!(k.completions().len(), 1);
        assert_eq!(k.notifications().len(), 0);
    }

    #[test]
    fn pause_then_resume_reruns_task() {
        let mut k = sim(1, 4);
        // A long task so the pause lands while it is running.
        let code = k.register_code(CodeBlock::new("long", 16, WorkProfile::flops(1_000_000), 8));
        k.initiate(0, 0, code, 1, None, 0);
        // Pause shortly after it starts.
        k.send(500, 0, 0, KernelMessage::PauseNotify { task: TaskId(0) });
        k.run();
        assert_eq!(k.task(TaskId(0)).state, TaskState::Paused);
        assert_eq!(k.completions().len(), 0, "paused before completion");
        // Resume; the task restarts and completes.
        k.send(k.now(), 0, 0, KernelMessage::Resume { task: TaskId(0) });
        k.run();
        assert_eq!(k.task(TaskId(0)).state, TaskState::Done);
        assert_eq!(k.completions().len(), 1);
    }

    #[test]
    fn pause_of_non_running_task_is_dropped() {
        let mut k = sim(1, 4);
        let code = small_code(&mut k);
        k.initiate(0, 0, code, 1, None, 0);
        k.run();
        k.send(
            k.now(),
            0,
            0,
            KernelMessage::PauseNotify { task: TaskId(0) },
        );
        k.run();
        assert_eq!(k.stats.drops.bad_state, 1);
        assert_eq!(k.task(TaskId(0)).state, TaskState::Done);
    }

    #[test]
    fn forced_termination_of_running_task() {
        let mut k = sim(1, 4);
        let code = k.register_code(CodeBlock::new("long", 16, WorkProfile::flops(1_000_000), 8));
        k.initiate(0, 0, code, 1, None, 0);
        k.send(
            500,
            0,
            0,
            KernelMessage::TerminateNotify { task: TaskId(0) },
        );
        let makespan = k.run();
        assert_eq!(k.task(TaskId(0)).state, TaskState::Done);
        assert_eq!(k.completions().len(), 1);
        // Killed well before its 4M-cycle run would have finished... the PE
        // keeps draining charged cycles, but the task is logically done at
        // the kill time.
        let (_, done_at) = k.completions()[0];
        assert!(done_at < 100_000, "killed at {done_at}");
        let _ = makespan;
    }

    #[test]
    fn fault_requeues_running_task() {
        let mut k = sim(1, 2); // one worker (PE 1)
        let code = small_code(&mut k);
        k.initiate(0, 0, code, 1, None, 0);
        // Fail the worker while the task runs; kernel PE 0 survives and the
        // machine stops dedicating it (single survivor), so the task reruns
        // on PE 0.
        let plan = FaultPlan::at(300, [PeId::new(0, 1)]);
        k.inject_faults(&plan);
        k.run();
        assert!(k.all_done());
        assert_eq!(k.completions().len(), 1);
        assert_eq!(k.machine.reconfigurations, 1);
    }

    #[test]
    fn kernel_pe_fault_promotes_and_work_continues() {
        let mut k = sim(1, 4);
        let code = small_code(&mut k);
        k.initiate(0, 0, code, 8, None, 0);
        let plan = FaultPlan::at(1, [PeId::new(0, 0)]);
        k.inject_faults(&plan);
        k.run();
        assert!(k.all_done());
        assert_eq!(k.completions().len(), 8);
        assert_eq!(k.machine.kernel_pe(0), PeId::new(0, 1));
    }

    #[test]
    fn oom_drops_task_creation() {
        let mut m = Machine::new(MachineConfig::clustered(1, 2, Topology::Bus));
        // Tiny memory: only the code image fits.
        let mut cfg = m.config.clone();
        cfg.memory_per_cluster = 70;
        m = Machine::new(cfg);
        let mut k = KernelSim::new(m);
        let code = k.register_code(CodeBlock::new(
            "big_locals",
            64,
            WorkProfile::flops(10),
            1000,
        ));
        k.initiate(0, 0, code, 1, None, 0);
        k.run();
        assert_eq!(k.stats.drops.oom, 1);
        assert_eq!(k.completions().len(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut k = sim(2, 4);
            let code = small_code(&mut k);
            k.initiate(0, 0, code, 5, None, 4);
            k.send(
                0,
                0,
                1,
                KernelMessage::InitiateTask {
                    code,
                    replications: 5,
                    parent: None,
                    args_words: 4,
                },
            );
            let makespan = k.run();
            (makespan, k.completions().to_vec(), k.machine.stats.total())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tasks_spread_over_clusters_finish_sooner() {
        // Same 8 tasks: one cluster vs spread over four.
        let mut k1 = sim(1, 3); // 2 workers
        let c1 = small_code(&mut k1);
        k1.initiate(0, 0, c1, 8, None, 0);
        let t_one = k1.run();

        let mut k4 = sim(4, 3); // 8 workers total
        let c4 = small_code(&mut k4);
        for c in 0..4 {
            k4.send(
                0,
                c,
                c,
                KernelMessage::InitiateTask {
                    code: c4,
                    replications: 2,
                    parent: None,
                    args_words: 0,
                },
            );
        }
        let t_four = k4.run();
        assert!(t_four < t_one, "spread {t_four} < single {t_one}");
    }

    fn pending_msg(tag: u32) -> PendingMsg {
        PendingMsg {
            from: tag,
            to: tag + 1,
            msg: Rc::new(KernelMessage::LoadCode { code: CodeId(0) }),
            attempts: 0,
        }
    }

    proptest::proptest! {
        /// The flat `running` table against the `BTreeMap<PeId, TaskId>` it
        /// replaced: assignments (the same task may sit on two PEs),
        /// per-PE removal (including PEs the machine does not have),
        /// `retain(|_, t| *t != task)`, and iteration in `PeId` order — the
        /// order `mem_fault` picks its victims in.
        #[test]
        fn running_table_matches_btreemap(
            ops in proptest::collection::vec((0u8..8, 0u32..5, 0u32..4, 0u64..6), 1..200),
        ) {
            let (clusters, ppc) = (4u32, 3u32);
            let mut table = RunningTable::new(clusters, ppc);
            let mut oracle: BTreeMap<PeId, TaskId> = BTreeMap::new();
            for &(op, c, i, t) in &ops {
                let (pe, task) = (PeId::new(c, i), TaskId(t));
                match op {
                    0..=3 if c < clusters && i < ppc => {
                        table.insert(pe, task);
                        oracle.insert(pe, task);
                    }
                    0..=5 => proptest::prop_assert_eq!(table.remove(pe), oracle.remove(&pe)),
                    _ => {
                        table.remove_task(task);
                        oracle.retain(|_, t| *t != task);
                    }
                }
                let want: Vec<TaskId> = oracle.values().copied().collect();
                proptest::prop_assert_eq!(table.tasks().collect::<Vec<_>>(), want);
            }
        }

        /// The sequence-indexed `pending` window and the `delivered` bitset
        /// against the `BTreeMap<u64, _>` / `BTreeSet<u64>` they replaced:
        /// sends in sequence order; acks, timeouts and dead letters in any
        /// order, repeated (a duplicate delivery, an ack after the dead
        /// letter), or for sequence numbers never sent.
        #[test]
        fn pending_window_and_delivered_bits_match_btree(
            ops in proptest::collection::vec((0u8..8, 0u64..40), 1..300),
        ) {
            let mut table = PendingTable::new(1);
            let mut oracle: BTreeMap<u64, PendingMsg> = BTreeMap::new();
            let mut bits = DenseBits::default();
            let mut set: BTreeSet<u64> = BTreeSet::new();
            let mut next_seq = 1u64;
            for &(op, pick) in &ops {
                // Mostly sequence numbers near the live window.
                let seq = if op % 2 == 0 { pick } else { next_seq.saturating_sub(pick % 6) };
                match op {
                    0..=2 => {
                        table.push(next_seq, pending_msg(next_seq as u32));
                        oracle.insert(next_seq, pending_msg(next_seq as u32));
                        next_seq += 1;
                    }
                    3 => {
                        // A timeout that retransmits.
                        let got = table.get_mut(seq).map(|p| { p.attempts += 1; (p.from, p.attempts) });
                        let want = oracle.get_mut(&seq).map(|p| { p.attempts += 1; (p.from, p.attempts) });
                        proptest::prop_assert_eq!(got, want);
                    }
                    4 | 5 => {
                        // An ack, or a dead letter.
                        let got = table.remove(seq).map(|p| (p.from, p.attempts));
                        let want = oracle.remove(&seq).map(|p| (p.from, p.attempts));
                        proptest::prop_assert_eq!(got, want);
                    }
                    _ => {
                        proptest::prop_assert_eq!(bits.contains(seq), set.contains(&seq));
                        proptest::prop_assert_eq!(bits.insert(seq), set.insert(seq));
                        proptest::prop_assert!(bits.contains(seq));
                    }
                }
                // The window never outgrows what is unacknowledged plus the
                // acknowledged holes between them.
                let oldest = oracle.keys().next().copied().unwrap_or(next_seq);
                proptest::prop_assert_eq!(table.base, oldest);
                proptest::prop_assert_eq!(table.slots.len() as u64, next_seq - oldest);
            }
        }
    }

    /// `kernel_storm` pops about a million events a run: one fault variant
    /// carrying a whole plan step must not make every event bigger.
    #[test]
    fn kevent_stays_56_bytes() {
        assert_eq!(std::mem::size_of::<KEvent>(), 56);
    }

    /// A memory-bank fault sheds running tasks in PE order — the order the
    /// flat table iterates in — and stops as soon as the survivors fit.
    #[test]
    fn mem_fault_victims_fall_in_pe_order() {
        let mut cfg = MachineConfig::clustered(1, 4, Topology::Crossbar);
        cfg.memory_per_cluster = 1000;
        let mut k = KernelSim::new(Machine::new(cfg));
        // 64 words of code + 5 tasks x 100 words of locals = 564 in use;
        // tasks 0, 1, 2 run on worker PEs 1, 2, 3 and two wait.
        let code = k.register_code(CodeBlock::new("w", 64, WorkProfile::flops(100_000), 100));
        k.initiate(0, 0, code, 5, None, 0);
        // 500 words survive. Shedding PE 1's task leaves 464 in use but no
        // room to re-home it; shedding PE 2's as well leaves 364 and room
        // for 100: PE 3's task keeps its locals and completes on schedule.
        // In any other order it would be a victim.
        k.inject_faults(&FaultPlan::none().fail_memory(5_000, 0, 500));
        k.run();
        assert!(k.all_done());
        assert_eq!(k.completions().len(), 5);
        assert_eq!(k.stats.stale_completions, 2, "tasks 0 and 1 re-ran");
        assert_eq!(k.completions()[0].0, TaskId(2), "PE 3's task survived");
    }
}
