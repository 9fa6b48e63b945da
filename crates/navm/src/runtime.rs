//! The NA-VM runtime: arrays, forall/pardo and remote calls on
//! the simulated FEM-2 machine.
//!
//! Arrays are two-dimensional, row-block distributed over the task set, and
//! owned by their creating VM ("data lifetime — lifetime of owner task").
//! Every operation charges the machine: the first parallel section
//! initiates one task per [`TaskHandle`] (kernel task-create plus an
//! initiate message to the hosting cluster), the per-task work is charged
//! to the earliest-free worker PE of that cluster, and the section barrier
//! advances simulated time to the latest completion.
//!
//! The linear-algebra operations `inner`, `axpy`, `xpby` and `stencil5`
//! queue their charges, and every other operation and every read of
//! simulated state settles the queue first ([`SimState::settle`]): the
//! charges land in op order either way.

use crate::linalg::{Charge, VectorOp};
use crate::task::{TaskHandle, TaskSet};
use fem2_machine::fault::{FaultKind, FaultPlan};
use fem2_machine::{
    AbortCause, BudgetMeter, CostClass, Cycles, Machine, MachineConfig, Record, RunAborted,
    RunBudget, Words, WorkProfile, MAX_RETRANSMITS,
};
use fem2_trace::{EventKind, MsgKind, TaskStage, TraceEvent, TraceHandle, NO_PE};

/// Payload words of the message that initiates a task on its cluster: the
/// task's activation record.
pub const INITIATE_WORDS: Words = 8;

/// Identifier of an array owned by a [`NaVm`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArrayId(pub(crate) u32);

pub(crate) struct DArray {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: Vec<f64>,
}

/// The simulated machine and the NA-VM's clock, faults and budget on it.
pub(crate) struct SimState {
    pub(crate) machine: Machine,
    pub(crate) now: Cycles,
    /// Whether the task crew has already been initiated. The FEM-2 runtime
    /// initiates K task replications once and thereafter drives them with
    /// forall/pardo (pausing between sections), so initiation (kernel task
    /// creation + initiate message) is charged only for the first parallel
    /// section — or again after [`NaVm::respawn_tasks`].
    pub(crate) spawned: bool,
    /// Planned faults, applied as simulated time passes each step.
    pub(crate) faults: FaultPlan,
    /// Set when a fault stopped the run — a cluster the program needs
    /// became unreachable, or an array no longer fits its cluster's
    /// memory; sticky, and reported by [`NaVm::budget_exceeded`] like a
    /// fired budget.
    pub(crate) halted: Option<RunAborted>,
    /// Window exchanges retried after an in-flight loss.
    pub(crate) retransmits: u64,
    /// Started run budget, checked as `now` advances. Unlimited by default.
    pub(crate) budget: BudgetMeter,
    /// The last replayable reduction, keyed by its crew
    /// ([`SimState::reduction`]).
    pub(crate) reduction: Option<(TaskSet, Record)>,
    /// Charges queued and not yet applied to the machine, in op order.
    pub(crate) queue: Vec<Charge>,
    /// The last settled queue that left a record, with that record.
    pub(crate) settled: Option<(Vec<Charge>, Record)>,
    /// Settles that applied a record instead of charging entry by entry.
    /// Host-side only: no simulated figure depends on it.
    pub(crate) replays: u64,
    /// Settle every queue entry by entry and every reduction message by
    /// message: the oracle of the replaying paths.
    #[cfg(test)]
    pub(crate) per_entry: bool,
}

impl SimState {
    /// Why the run stopped, if it has: a sticky fault abort
    /// ([`AbortCause::Unreachable`], [`AbortCause::MemoryExhausted`])
    /// first, else the armed budget.
    pub(crate) fn stopped(&self) -> Option<RunAborted> {
        self.halted
            .clone()
            .or_else(|| self.budget.exceeded(self.now, 0))
    }

    /// Stop the run for `cause` at `at`; the first such abort sticks.
    fn halt(&mut self, at: Cycles, cause: AbortCause) {
        self.halted.get_or_insert(RunAborted {
            cause,
            sim_cycles: at,
            des_events: 0,
        });
    }

    /// Stop the run: a message from `from` to `to` cannot be delivered.
    /// Traces the dead letter and makes the first such abort sticky.
    pub(crate) fn dead_letter(&mut self, at: Cycles, from: u32, to: u32, msg: MsgKind) {
        self.machine.trace.emit(|| {
            TraceEvent::instant(
                at,
                from,
                NO_PE,
                EventKind::DeadLetter {
                    msg,
                    to_cluster: to,
                },
            )
        });
        self.halt(at, AbortCause::Unreachable);
    }

    /// [`Machine::try_transmit`] for traffic with no reliable layer (halos,
    /// reductions, task initiation): a dead route dead-letters the message
    /// and stops the run instead of panicking. Returns the arrival time, or
    /// `at` for a dead letter.
    pub(crate) fn transmit(
        &mut self,
        at: Cycles,
        from: u32,
        to: u32,
        words: Words,
        msg: MsgKind,
    ) -> Cycles {
        self.machine
            .try_transmit(at, from, to, words)
            .unwrap_or_else(|_| {
                self.dead_letter(at, from, to, msg);
                at
            })
    }

    /// Apply every planned fault step due at or before `t`, in plan order.
    pub(crate) fn apply_faults_through(&mut self, t: Cycles) {
        for step in self.faults.due(t) {
            let lost = self.machine.apply_fault(step.at, step.kind);
            if let (FaultKind::Memory { cluster, .. }, Ok(lost @ 1..)) = (step.kind, lost) {
                // Re-materialize the invalidated words from the owner's
                // host image: a shared-memory rebuild on that cluster.
                let kpe = self.machine.kernel_pe(cluster);
                let _ = self.machine.charge(step.at, kpe, CostClass::MemWord, lost);
            }
        }
    }

    /// Transmit a message with in-flight loss detection, the kernel's
    /// rule: the packet is lost when a planned fault due during the flight
    /// kills a link it traversed ([`fem2_machine::Network::flight_lost`]).
    /// The sender retries over the (possibly rerouted) network, the lost
    /// flight time standing in for the retransmission timeout, up to
    /// [`MAX_RETRANSMITS`] times. A retry re-charges time and never
    /// re-applies values. No live route, or a spent budget, dead-letters
    /// the message and stops the run. A same-cluster message crosses no
    /// link, so it is a plain local transfer that cannot be lost. `kind`
    /// labels the message in the trace. Returns the arrival time.
    pub(crate) fn reliable_transmit(
        &mut self,
        at: Cycles,
        from: u32,
        to: u32,
        words: Words,
        kind: MsgKind,
    ) -> Cycles {
        if from == to {
            return self.transmit(at, from, to, words, kind);
        }
        let mut t = at;
        let mut attempt = 0;
        loop {
            let Some((arrive, flight)) = self.machine.transmit_tracked(t, from, to, words).arrival
            else {
                self.dead_letter(t, from, to, kind);
                return t;
            };
            self.apply_faults_through(arrive);
            if !self.machine.network.flight_lost(&flight) {
                return arrive;
            }
            attempt += 1;
            if attempt > MAX_RETRANSMITS {
                self.dead_letter(arrive, from, to, kind);
                return arrive;
            }
            self.retransmits += 1;
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    arrive,
                    from,
                    NO_PE,
                    EventKind::Retransmit {
                        msg: kind,
                        to_cluster: to,
                        attempt,
                    },
                )
            });
            t = arrive;
        }
    }

    /// Charge one parallel section: each `(c, run)` of `runs` is a run of
    /// consecutive work items on cluster `c`, and each `(t, w)` of `run`
    /// is executed by task `t`. Returns the barrier time. Callers pass
    /// iterators, so charging a section allocates nothing.
    ///
    /// A run is one [`Machine::run_tasks`] call, which hands each task in
    /// turn to the earliest-free worker PE: the same charges as one pick
    /// and one dispatch per task. A section that initiates the crew
    /// charges each task's initiation before its body, so there each task
    /// is a call of its own.
    pub(crate) fn parallel_section<R>(&mut self, runs: impl IntoIterator<Item = (u32, R)>) -> Cycles
    where
        R: IntoIterator<Item = (TaskHandle, WorkProfile)>,
    {
        // Aborted runs wind down instead of charging further work: the
        // caller polls `NaVm::budget_exceeded` and stops issuing ops, but
        // any ops already in flight become no-ops here.
        if self.stopped().is_some() {
            return self.now;
        }
        let start = self.now;
        self.apply_faults_through(start);
        let mut barrier = start;
        let charge_spawn = !self.spawned;
        self.spawned = true;
        for (c, run) in runs {
            let mut run = run.into_iter();
            if charge_spawn {
                for (t, w) in run {
                    let ready = self.initiate(start, c, t);
                    match self.machine.run_tasks(c, [(t.0, ready, w)]) {
                        Ok(done) => barrier = barrier.max(done),
                        // Every PE of the cluster is dead: the work
                        // cannot run.
                        Err(_) => self.dead_letter(ready, 0, c, MsgKind::InitiateTask),
                    }
                }
                continue;
            }
            let tasks = run.by_ref().map(|(t, w)| (t.0, start, w));
            match self.machine.run_tasks(c, tasks) {
                Ok(done) => barrier = barrier.max(done),
                // Every PE of the cluster is dead: `run_tasks` took none
                // of the run, and each of its tasks dead-letters.
                Err(_) => {
                    for _ in run {
                        self.dead_letter(start, 0, c, MsgKind::InitiateTask);
                    }
                }
            }
        }
        self.now = barrier;
        barrier
    }

    /// Initiate task `t` on cluster `c` for a section starting at `start`:
    /// the coordinator (cluster 0's kernel PE) sends an initiate message,
    /// and the hosting kernel PE creates the activation. Returns when the
    /// task is ready to run.
    fn initiate(&mut self, start: Cycles, c: u32, t: TaskHandle) -> Cycles {
        let kpe0 = self.machine.kernel_pe(0);
        let sent = self
            .machine
            .charge(start, kpe0, CostClass::MsgSend, 1)
            .unwrap_or(start);
        let arrive = self.transmit(sent, 0, c, INITIATE_WORDS, MsgKind::InitiateTask);
        self.machine.trace.emit(|| {
            TraceEvent::span(
                sent,
                arrive - sent,
                0,
                NO_PE,
                EventKind::MsgSend {
                    msg: MsgKind::InitiateTask,
                    to_cluster: c,
                    words: INITIATE_WORDS,
                },
            )
        });
        self.machine.trace.emit(|| {
            TraceEvent::instant(
                arrive,
                c,
                NO_PE,
                EventKind::MsgRecv {
                    msg: MsgKind::InitiateTask,
                    from_cluster: 0,
                    words: INITIATE_WORDS,
                },
            )
        });
        let kpe = self.machine.kernel_pe(c);
        let ready = self
            .machine
            .charge(arrive, kpe, CostClass::TaskCreate, 1)
            .unwrap_or(arrive);
        self.machine.trace.emit(|| {
            TraceEvent::instant(
                ready,
                c,
                NO_PE,
                EventKind::Task {
                    task: t.0,
                    stage: TaskStage::Created,
                },
            )
        });
        ready
    }
}

#[cfg(test)]
impl SimState {
    /// The oracle of [`SimState::parallel_section`]: every task dispatched
    /// on its own, with one division to find its cluster, one
    /// [`Machine::pick_worker`] and one [`Machine::run_task`].
    pub(crate) fn parallel_section_per_task(
        &mut self,
        tasks: &TaskSet,
        work: impl IntoIterator<Item = (TaskHandle, WorkProfile)>,
    ) -> Cycles {
        if self.stopped().is_some() {
            return self.now;
        }
        let start = self.now;
        self.apply_faults_through(start);
        let mut barrier = start;
        let charge_spawn = !self.spawned;
        self.spawned = true;
        for (t, w) in work {
            let c = tasks.cluster_of(t);
            let ready_at = if charge_spawn {
                self.initiate(start, c, t)
            } else {
                start
            };
            let Some(pe) = self.machine.pick_worker(c) else {
                self.dead_letter(ready_at, 0, c, MsgKind::InitiateTask);
                continue;
            };
            let stage = |at, stage| {
                TraceEvent::instant(
                    at,
                    pe.cluster,
                    pe.index,
                    EventKind::Task { task: t.0, stage },
                )
            };
            self.machine
                .trace
                .emit(|| stage(ready_at, TaskStage::Dispatched));
            let done = self.machine.run_task(ready_at, pe, &w).unwrap_or(ready_at);
            self.machine
                .trace
                .emit(|| stage(done, TaskStage::Completed));
            barrier = barrier.max(done);
        }
        self.now = barrier;
        barrier
    }
}

/// The numerical analyst's virtual machine.
pub struct NaVm {
    pub(crate) sim: SimState,
    pub(crate) tasks: TaskSet,
    pub(crate) arrays: Vec<DArray>,
}

impl NaVm {
    /// A VM of `ntasks` logical tasks over the machine described by
    /// `config`.
    pub fn simulated(config: MachineConfig, ntasks: u32) -> Self {
        let machine = Machine::new(config);
        let clusters = machine.config.clusters;
        NaVm {
            sim: SimState {
                machine,
                now: 0,
                spawned: false,
                faults: FaultPlan::none(),
                halted: None,
                retransmits: 0,
                budget: BudgetMeter::default(),
                reduction: None,
                queue: Vec::new(),
                settled: None,
                replays: 0,
                #[cfg(test)]
                per_entry: false,
            },
            tasks: TaskSet::new(ntasks, clusters),
            arrays: Vec::new(),
        }
    }

    /// [`NaVm::simulated`] that charges every settle entry by entry and
    /// every reduction message by message, replaying nothing.
    #[cfg(test)]
    pub(crate) fn simulated_per_entry(config: MachineConfig, ntasks: u32) -> Self {
        let mut vm = Self::simulated(config, ntasks);
        vm.sim.per_entry = true;
        vm
    }

    /// Apply every queued charge to the machine ([`SimState::settle`]).
    pub(crate) fn settle(&mut self) {
        self.sim.settle(self.tasks);
    }

    /// The task set programs are written against.
    pub fn tasks(&self) -> TaskSet {
        self.tasks
    }

    /// Simulated cycles elapsed.
    pub fn elapsed(&mut self) -> Cycles {
        self.settle();
        self.sim.now
    }

    /// The simulated machine.
    pub fn machine(&mut self) -> &Machine {
        self.settle();
        &self.sim.machine
    }

    /// Begin a named measurement phase.
    pub fn phase(&mut self, name: &str) {
        self.settle();
        self.sim.machine.phase(name, self.sim.now);
    }

    /// Attach a trace sink to the simulated machine. Tracing is
    /// observation-only: it never changes costs.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.settle();
        self.sim.machine.set_trace(trace);
    }

    /// Terminate the task crew: the next parallel section charges task
    /// initiation again. Use to model per-section task creation instead of
    /// the default initiate-once/pause-resume runtime.
    pub fn respawn_tasks(&mut self) {
        self.settle();
        self.sim.spawned = false;
    }

    /// Inject a fault plan. Faults fire as simulated time passes them, at
    /// primitive boundaries: parallel sections, window exchanges and
    /// remote calls. Numerical results are unaffected — only costs, routes,
    /// and the retransmission count change — unless a fault cuts off a
    /// cluster the program needs:
    /// then the run stops with [`AbortCause::Unreachable`] (see
    /// [`NaVm::budget_exceeded`]).
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        self.settle();
        self.sim.faults = plan.clone();
    }

    /// Arm a run budget. The meter's wall-clock anchor starts here; limits
    /// are checked as simulated time advances. Programs should poll
    /// [`budget_exceeded`](Self::budget_exceeded) between operations and
    /// stop issuing work once it fires — operations after that point are
    /// charged as no-ops.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.settle();
        self.sim.budget = budget.start();
    }

    /// Whether the run has stopped, and why: the armed budget fired, or a
    /// fault made a cluster the program needs unreachable
    /// ([`AbortCause::Unreachable`], sticky, and reported first). It
    /// settles the queued charges, then checks against the clock; it does
    /// not advance time past them, so repeated polls are deterministic for
    /// the cycle/event limits.
    pub fn budget_exceeded(&mut self) -> Option<RunAborted> {
        self.settle();
        self.sim.stopped()
    }

    /// Window exchanges retried after an in-flight loss.
    pub fn retransmits(&mut self) -> u64 {
        self.settle();
        self.sim.retransmits
    }

    // ------------------------------------------------------------------
    // Arrays
    // ------------------------------------------------------------------

    /// Create a `rows × cols` array of zeros, row-block distributed over the
    /// task set; the owning clusters allocate the storage. Errors if a
    /// cluster memory is exhausted, and then holds none of the array.
    /// After a stop the array exists on the host only.
    pub(crate) fn try_array(&mut self, rows: usize, cols: usize) -> Result<ArrayId, String> {
        assert!(rows > 0 && cols > 0, "degenerate array shape");
        self.settle();
        if self.sim.stopped().is_some() {
            return Ok(self.host_array(rows, cols));
        }
        let s = &mut self.sim;
        let shares = self.tasks.iter().map(|t| {
            let words = (self.tasks.share(rows, t).len() * cols) as Words;
            (self.tasks.cluster_of(t), words)
        });
        let mut placed = Vec::new();
        for (c, words) in shares.filter(|&(_, words)| words > 0) {
            if let Err(e) = s.machine.alloc_at(s.now, c, words) {
                for (c, words) in placed {
                    s.machine.free_at(s.now, c, words);
                }
                return Err(format!("array allocation failed: {e}"));
            }
            placed.push((c, words));
        }
        Ok(self.host_array(rows, cols))
    }

    /// Like `NaVm::try_array`, for programs that poll
    /// [`NaVm::budget_exceeded`]: a cluster memory too small for the array
    /// (a memory-bank fault can shrink one mid-run) stops the run with a
    /// sticky [`AbortCause::MemoryExhausted`] instead of failing. The
    /// array still exists on the host, so the program's later operations
    /// stay valid; they are charged as no-ops.
    pub fn array(&mut self, rows: usize, cols: usize) -> ArrayId {
        match self.try_array(rows, cols) {
            Ok(id) => id,
            Err(_) => {
                self.sim.halt(self.sim.now, AbortCause::MemoryExhausted);
                self.host_array(rows, cols)
            }
        }
    }

    /// The host storage of a new array.
    fn host_array(&mut self, rows: usize, cols: usize) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(DArray {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        });
        id
    }

    /// A length-`n` vector (an `n × 1` array).
    pub fn vector(&mut self, n: usize) -> ArrayId {
        self.array(n, 1)
    }

    /// Row count of an array.
    pub(crate) fn rows(&self, id: ArrayId) -> usize {
        self.arrays[id.0 as usize].rows
    }

    /// Column count of an array.
    pub(crate) fn cols(&self, id: ArrayId) -> usize {
        self.arrays[id.0 as usize].cols
    }

    /// Element count of an array.
    pub(crate) fn len(&self, id: ArrayId) -> usize {
        let a = &self.arrays[id.0 as usize];
        a.rows * a.cols
    }

    /// Initialize every element: `a[r][c] = f(r, c)`. Runs as a charged
    /// forall over rows.
    pub fn fill(&mut self, id: ArrayId, f: impl Fn(usize, usize) -> f64) {
        let cols = self.cols(id);
        self.forall_rows(id, VectorOp::Fill.work().scaled(cols as u64), |r, row| {
            for (c, x) in row.iter_mut().enumerate() {
                *x = f(r, c);
            }
        });
    }

    /// A snapshot of the array contents in row-major order (diagnostics; no
    /// charge).
    pub fn snapshot(&self, id: ArrayId) -> Vec<f64> {
        self.arrays[id.0 as usize].data.clone()
    }

    // ------------------------------------------------------------------
    // Parallel control
    // ------------------------------------------------------------------

    /// Forall over the rows of `id`: `f(r, row_slice)` for every row.
    /// `cost_per_row` is what one row charges.
    pub(crate) fn forall_rows(
        &mut self,
        id: ArrayId,
        cost_per_row: WorkProfile,
        f: impl Fn(usize, &mut [f64]),
    ) {
        let a = &mut self.arrays[id.0 as usize];
        let (rows, cols) = (a.rows, a.cols);
        for (r, row) in a.data.chunks_mut(cols).enumerate() {
            f(r, row);
        }
        self.charge_elementwise(rows, cost_per_row);
    }

    /// Pardo: a set of independent statements, one per entry, each with a
    /// declared cost. Each statement is a task on its handle's cluster; the
    /// statements carry no host computation.
    pub fn pardo(&mut self, statements: &[(TaskHandle, WorkProfile)]) -> Cycles {
        self.settle();
        let tasks = self.tasks;
        let cluster = |&(t, _): &(TaskHandle, WorkProfile)| tasks.cluster_of(t);
        let runs = statements
            .chunk_by(|a, b| cluster(a) == cluster(b))
            .map(|run| (cluster(&run[0]), run.iter().copied()));
        self.sim.parallel_section(runs)
    }

    /// Remote procedure call routed by data location: execute `profile` on
    /// the cluster owning `window_owner`'s data, shipping `args_words` there
    /// and `result_words` back to `caller`. Returns the round-trip latency
    /// in cycles.
    pub fn remote_call(
        &mut self,
        caller: TaskHandle,
        window_owner: TaskHandle,
        profile: WorkProfile,
        args_words: Words,
        result_words: Words,
    ) -> Cycles {
        self.settle();
        let s = &mut self.sim;
        if s.stopped().is_some() {
            return 0;
        }
        let start = s.now;
        s.apply_faults_through(start);
        let cc = self.tasks.cluster_of(caller);
        let oc = self.tasks.cluster_of(window_owner);
        // Ship the call (descriptor + args).
        let kpe = s.machine.kernel_pe(cc);
        let sent = s
            .machine
            .charge(start, kpe, CostClass::MsgSend, 1)
            .unwrap_or(start);
        let arrive = s.reliable_transmit(sent, cc, oc, 7 + args_words, MsgKind::RemoteCall);
        // Dispatch + execute at the owner.
        let okpe = s.machine.kernel_pe(oc);
        let dispatched = s
            .machine
            .charge(arrive, okpe, CostClass::MsgDispatch, 1)
            .unwrap_or(arrive);
        let done = match s.machine.pick_worker(oc) {
            Some(pe) => {
                let _ = s
                    .machine
                    .charge(dispatched, pe, CostClass::IntOp, profile.int_ops);
                let _ = s
                    .machine
                    .charge(dispatched, pe, CostClass::MemWord, profile.mem_words);
                s.machine
                    .charge(dispatched, pe, CostClass::Flop, profile.flops)
                    .unwrap_or(dispatched)
            }
            None => {
                // Every PE of the owner's cluster is dead.
                s.dead_letter(dispatched, cc, oc, MsgKind::RemoteCall);
                dispatched
            }
        };
        // Ship the result back.
        let back = s.reliable_transmit(done, oc, cc, result_words, MsgKind::RemoteReturn);
        s.now = s.now.max(back);
        back - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_machine::{PeId, Topology};

    fn sim(ntasks: u32) -> NaVm {
        NaVm::simulated(MachineConfig::fem2_default(), ntasks)
    }

    #[test]
    fn array_shape_accessors() {
        let mut vm = sim(4);
        let a = vm.array(10, 3);
        assert_eq!(vm.rows(a), 10);
        assert_eq!(vm.cols(a), 3);
        assert_eq!(vm.len(a), 30);
        let v = vm.vector(7);
        assert_eq!(vm.cols(v), 1);
    }

    #[test]
    fn array_allocation_charges_cluster_memory() {
        let mut vm = sim(8);
        let before: u64 = (0..4).map(|c| vm.machine().memory(c).used()).sum();
        assert_eq!(before, 0);
        let _a = vm.array(100, 10);
        let after: u64 = (0..4).map(|c| vm.machine().memory(c).used()).sum();
        assert_eq!(after, 1000, "1000 words distributed over clusters");
        // Every cluster holds a share (8 tasks over 4 clusters, 100 rows).
        for c in 0..4 {
            assert!(vm.machine().memory(c).used() > 0, "cluster {c}");
        }
    }

    #[test]
    fn array_oom_is_an_error() {
        let mut cfg = MachineConfig::fem2_default();
        cfg.memory_per_cluster = 100;
        let mut vm = NaVm::simulated(cfg, 4);
        assert!(vm.try_array(1000, 10).is_err());
    }

    /// A refused array holds no cluster memory: the shares placed on the
    /// clusters before the one that refuses are freed again.
    #[test]
    fn refused_array_holds_no_cluster_memory() {
        let mut vm = sim(8); // 8 tasks over 4 clusters
        let capacity = vm.machine().memory(1).capacity();
        vm.inject_faults(&FaultPlan::none().fail_memory(0, 1, capacity - 10));
        vm.sim.apply_faults_through(0);
        let used = |vm: &mut NaVm| {
            let m = vm.machine();
            (0..4).map(|c| m.memory(c).used()).collect::<Vec<_>>()
        };
        let before = used(&mut vm);
        assert!(
            vm.try_array(800, 1).is_err(),
            "cluster 1 has no room for 200"
        );
        assert_eq!(used(&mut vm), before);
    }

    /// Once a budget fires, every operation is a no-op on the machine: it
    /// moves no clock, sends no message and charges nothing.
    #[test]
    fn operations_after_a_fired_budget_charge_nothing() {
        let mut vm = sim(8);
        let (x, y) = (vm.vector(64), vm.vector(64));
        vm.fill(x, |i, _| i as f64);
        vm.set_budget(RunBudget::max_cycles(1));
        assert!(vm.budget_exceeded().is_some());
        let state = |vm: &mut NaVm| {
            let now = vm.elapsed();
            let m = vm.machine();
            let allocated: Vec<u64> = (0..m.config.clusters).map(|c| m.memory(c).used()).collect();
            (now, m.network.messages, m.stats.table(), allocated)
        };
        let before = state(&mut vm);
        type Op = fn(&mut NaVm, ArrayId, ArrayId);
        let ops: [(&str, Op); 7] = [
            ("vector", |vm, _, _| {
                vm.vector(64);
            }),
            ("inner", |vm, x, y| {
                vm.inner(x, y);
            }),
            ("axpy", |vm, x, y| vm.axpy(2.0, x, y)),
            ("stencil5", |vm, x, y| vm.stencil5(x, y, 8, 8)),
            ("read_window", |vm, x, _| {
                vm.read_window(TaskHandle(0), &vm.window(x, 56, 64, 0, 1));
            }),
            ("write_window", |vm, x, _| {
                let w = vm.window(x, 56, 64, 0, 1);
                vm.write_window(TaskHandle(0), &w, &[1.0; 8]);
            }),
            ("remote_call", |vm, _, _| {
                vm.remote_call(TaskHandle(0), TaskHandle(7), WorkProfile::flops(50), 16, 4);
            }),
        ];
        for (name, op) in ops {
            op(&mut vm, x, y);
            assert_eq!(state(&mut vm), before, "{name} after the budget fired");
        }
    }

    #[test]
    fn fill_computes_and_charges() {
        let mut vm = sim(4);
        let a = vm.array(8, 2);
        vm.fill(a, |r, c| (r * 10 + c) as f64);
        assert_eq!(vm.snapshot(a)[3 * 2 + 1], 31.0);
        assert!(vm.elapsed() > 0, "fill charged simulated time");
        let t = vm.machine().stats.total();
        assert!(t.mem_words >= 16);
    }

    #[test]
    fn forall_rows_visits_every_row_once() {
        let mut vm = sim(3);
        let a = vm.array(17, 2);
        vm.forall_rows(a, WorkProfile::default(), |r, row| {
            for x in row.iter_mut() {
                *x += (r + 1) as f64;
            }
        });
        let data = vm.snapshot(a);
        for r in 0..17 {
            assert_eq!(data[2 * r], (r + 1) as f64);
            assert_eq!(data[2 * r + 1], (r + 1) as f64);
        }
    }

    #[test]
    fn parallel_section_scales_with_tasks() {
        // More tasks over the same machine: one row block each, so the
        // barrier comes down vs a single fat task.
        let mut one = sim(1);
        let a1 = one.array(64, 64);
        one.forall_rows(a1, WorkProfile::flops(1000), |_, _| {});
        let t1 = one.elapsed();

        let mut eight = sim(8);
        let a8 = eight.array(64, 64);
        eight.forall_rows(a8, WorkProfile::flops(1000), |_, _| {});
        let t8 = eight.elapsed();
        assert!(t8 * 2 < t1, "8 tasks {t8} should beat 1 task {t1}");
    }

    #[test]
    fn pardo_charges_per_statement() {
        let mut vm = sim(4);
        let stmts: Vec<(TaskHandle, WorkProfile)> = vm
            .tasks()
            .iter()
            .map(|t| (t, WorkProfile::flops(100)))
            .collect();
        let barrier = vm.pardo(&stmts);
        assert!(barrier > 0);
        assert_eq!(vm.machine().stats.total().flops, 400);
    }

    #[test]
    fn remote_call_roundtrip_latency() {
        let mut vm = sim(8);
        // Caller task 0 (cluster 0), owner task 7 (cluster 3).
        let lat = vm.remote_call(TaskHandle(0), TaskHandle(7), WorkProfile::flops(50), 16, 4);
        assert!(lat > 0);
        // A local call (same cluster) is cheaper.
        let lat_local = vm.remote_call(TaskHandle(0), TaskHandle(1), WorkProfile::flops(50), 16, 4);
        assert!(lat_local < lat, "local {lat_local} < remote {lat}");
    }

    /// The first section initiates the crew and a later one does not; a
    /// respawn makes the next section initiate it again.
    #[test]
    fn only_the_first_section_and_a_respawn_initiate_the_crew() {
        let mut vm = sim(4);
        let a = vm.array(4, 1);
        let section = |vm: &mut NaVm| {
            let t0 = vm.elapsed();
            vm.forall_rows(a, WorkProfile::flops(1), |_, _| {});
            vm.elapsed() - t0
        };
        let first = section(&mut vm);
        let driven = section(&mut vm);
        vm.respawn_tasks();
        let respawned = section(&mut vm);
        assert!(driven < first, "{driven} < {first}");
        assert_eq!(respawned, first);
    }

    #[test]
    fn phases_accumulate_in_stats() {
        let mut vm = sim(4);
        let a = vm.array(8, 8);
        vm.phase("assembly");
        vm.fill(a, |_, _| 1.0);
        vm.phase("solve");
        vm.forall_rows(a, WorkProfile::flops(10), |_, _| {});
        let st = &vm.machine().stats;
        assert!(st.get("assembly").unwrap().mem_words > 0);
        assert!(st.get("solve").unwrap().flops > 0);
    }

    #[test]
    fn elapsed_monotone() {
        let mut vm = sim(4);
        let a = vm.array(16, 16);
        let t0 = vm.elapsed();
        vm.fill(a, |_, _| 1.0);
        let t1 = vm.elapsed();
        vm.remote_call(TaskHandle(0), TaskHandle(3), WorkProfile::flops(50), 64, 4);
        let t2 = vm.elapsed();
        assert!(t0 <= t1 && t1 <= t2);
    }

    /// One charged operation of [`per_cluster_section_matches_per_task_oracle`].
    #[derive(Clone, Copy, Debug)]
    enum Section {
        /// A forall over `n` items (`charge_elementwise`).
        Forall { n: usize, per: WorkProfile },
        /// A pardo of `m` statements on tasks drawn from `seed`: out of
        /// task order, some tasks twice, some not at all.
        Pardo {
            m: usize,
            per: WorkProfile,
            seed: u64,
        },
        /// The crew is re-initiated, then a forall.
        Respawn { n: usize, per: WorkProfile },
        /// The halo exchange of a `nx × ny` stencil.
        Halo { nx: usize, ny: usize },
    }

    /// A machine, a crew and a fault plan on twin VMs: the per-cluster
    /// path on one, the per-task oracle on the other. Returns each
    /// section's barrier, then every PE, the stats table, `events`, the
    /// sticky abort, the retransmits and the recorded trace.
    fn run_twin(
        oracle: bool,
        cfg: &MachineConfig,
        ntasks: u32,
        faults: &FaultPlan,
        sections: &[Section],
    ) -> impl PartialEq + std::fmt::Debug {
        let mut vm = NaVm::simulated(cfg.clone(), ntasks);
        let (trace, rec) = TraceHandle::ring(1 << 16);
        vm.set_trace(trace);
        vm.inject_faults(faults);
        let tasks = vm.tasks();
        let mut barriers = Vec::new();
        for &section in sections {
            let (n, per) = match section {
                Section::Forall { n, per } => (n, per),
                Section::Respawn { n, per } => {
                    vm.respawn_tasks();
                    (n, per)
                }
                Section::Pardo { m, per, seed } => {
                    let stmts: Vec<(TaskHandle, WorkProfile)> = (0..m as u64)
                        .map(|i| {
                            let h = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
                            (
                                TaskHandle((h % ntasks as u64) as u32),
                                per.scaled(1 + h % 3),
                            )
                        })
                        .collect();
                    barriers.push(if oracle {
                        vm.sim
                            .parallel_section_per_task(&tasks, stmts.iter().copied())
                    } else {
                        vm.pardo(&stmts)
                    });
                    continue;
                }
                Section::Halo { nx, ny } => {
                    let (x, y) = (vm.vector(nx * ny), vm.vector(nx * ny));
                    if !oracle {
                        vm.stencil5(x, y, nx, ny);
                        barriers.push(vm.elapsed());
                        continue;
                    }
                    // The halo, then the forall `stencil5` charges.
                    vm.sim.halo_per_task(&tasks, nx, ny);
                    (nx * ny, VectorOp::Stencil.work())
                }
            };
            if oracle {
                let work = tasks
                    .iter()
                    .map(|t| (t, per.scaled(tasks.share(n, t).len() as u64)));
                vm.sim.parallel_section_per_task(&tasks, work);
            } else {
                vm.charge_elementwise(n, per);
            }
            barriers.push(vm.elapsed());
        }
        let s = &vm.sim;
        let m = &s.machine;
        let pes: Vec<_> = (0..cfg.clusters)
            .flat_map(|c| m.cluster_pes(c))
            .map(|pe| *m.pe(pe).unwrap())
            .collect();
        let r = rec.lock().unwrap();
        let events: Vec<_> = r.events().copied().collect();
        let trace = (r.len(), r.dropped(), events);
        (
            barriers,
            pes,
            m.stats.table(),
            m.events,
            (s.halted.clone(), s.retransmits, m.network.messages),
            trace,
        )
    }

    fn profile((flops, int_ops, mem_words): (u64, u64, u64)) -> WorkProfile {
        WorkProfile {
            flops,
            int_ops,
            mem_words,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        /// The per-cluster section against its per-task oracle,
        /// on twin VMs: crossbar, torus and fat tree; a dedicated kernel PE
        /// or none; killed PEs, dead clusters and transient PE faults;
        /// fewer tasks than clusters and more than a cluster's workers;
        /// crew initiation and respawns; pardo statements out of task
        /// order; and the stencil's halo pairs.
        #[test]
        fn per_cluster_section_matches_per_task_oracle(
            machine in (0u32..3, 1u32..=4, proptest::arbitrary::any::<bool>()),
            ntasks in 1u32..=40,
            faults in proptest::collection::vec((0u32..3, 0u32..8, 0u32..4, 0u64..4000), 0..5),
            sections in proptest::collection::vec(
                (0u32..4, 1usize..300, (0u64..40, 0u64..40, 0u64..40), proptest::arbitrary::any::<u64>()),
                1..7,
            ),
        ) {
            let (topo, pes, dedicated) = machine;
            let topology = match topo {
                0 => Topology::Crossbar,
                1 => Topology::Torus { dims: vec![4, 2] },
                _ => Topology::FatTree { radix: 4 },
            };
            let mut cfg = MachineConfig::clustered(8, pes, topology);
            cfg.dedicated_kernel_pe = dedicated;
            let plan = faults.iter().fold(FaultPlan::none(), |plan, &(kind, c, p, at)| {
                let pe = PeId::new(c, p % pes);
                match kind {
                    0 => plan.kill_pe(at, pe),
                    1 => plan.transient_pe(at, at + 1 + at / 2, pe),
                    // A dead cluster: every PE of `c` fails.
                    _ => (0..pes).fold(plan, |plan, i| plan.kill_pe(at, PeId::new(c, i))),
                }
            });
            let sections: Vec<Section> = sections
                .iter()
                .map(|&(kind, n, per, seed)| {
                    let per = profile(per);
                    match kind {
                        0 => Section::Forall { n, per },
                        1 => Section::Pardo { m: n % 50 + 1, per, seed },
                        2 => Section::Respawn { n, per },
                        _ => Section::Halo { nx: n % 17 + 1, ny: (seed % 60) as usize + 1 },
                    }
                })
                .collect();
            let twin = |oracle| run_twin(oracle, &cfg, ntasks, &plan, &sections);
            proptest::prop_assert_eq!(twin(false), twin(true));
        }
    }
}
