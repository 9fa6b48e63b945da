//! The NA-VM runtime: arrays, forall/pardo, broadcast, and the two
//! execution planes.
//!
//! Arrays are two-dimensional, row-block distributed over the task set, and
//! owned by their creating VM ("data lifetime — lifetime of owner task").
//! On the simulated plane every operation charges the machine: parallel
//! sections spawn one task per [`TaskHandle`] (kernel task-create plus an
//! initiate message to the hosting cluster), the per-task work is charged to
//! the earliest-free worker PE of that cluster, and the section barrier
//! advances simulated time to the latest completion.

use crate::task::{TaskHandle, TaskSet};
use fem2_machine::fault::{FaultKind, FaultPlan};
use fem2_machine::{
    AbortCause, BudgetMeter, CostClass, Cycles, Machine, MachineConfig, RunAborted, RunBudget,
    Words, WorkProfile, MAX_RETRANSMITS,
};
use fem2_trace::{EventKind, MsgKind, TaskStage, TraceEvent, TraceHandle, NO_PE};

/// Identifier of an array owned by a [`NaVm`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArrayId(pub(crate) u32);

/// Which execution plane a VM runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlaneKind {
    /// The calling host thread: the same program, no cost accounting.
    Native,
    /// The `fem2-machine` cost model: deterministic cycle/message charging.
    Simulated,
}

pub(crate) struct DArray {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: Vec<f64>,
}

pub(crate) enum Plane {
    Native,
    Sim(Box<SimState>),
}

pub(crate) struct SimState {
    pub(crate) machine: Machine,
    pub(crate) now: Cycles,
    /// Charge task-spawn overhead (kernel task creation + initiate message)
    /// for parallel sections.
    pub(crate) spawn_overhead: bool,
    /// Whether the task crew has already been initiated. The FEM-2 runtime
    /// initiates K task replications once and thereafter drives them with
    /// forall/pardo (pausing between sections), so spawn overhead is charged
    /// only for the first parallel section — or again after
    /// [`NaVm::respawn_tasks`].
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
    /// Scratch: words-per-cluster accumulator reused by every window
    /// exchange, so the hot traffic path allocates nothing per call.
    /// Indexed by cluster id; `None` = cluster not part of this exchange
    /// (distinct from an empty window's `Some(0)`, which still pays the
    /// descriptor round trip). Reset to all-`None` after use.
    pub(crate) window_words_scratch: Vec<Option<u64>>,
    /// Started run budget, checked as `now` advances. Unlimited by default.
    pub(crate) budget: BudgetMeter,
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

    /// Transmit a remote message with in-flight loss detection, the
    /// kernel's rule: the packet is lost when a planned fault due during
    /// the flight kills a link it traversed ([`fem2_machine::Network::flight_lost`]).
    /// The sender retries over the (possibly rerouted) network, the lost
    /// flight time standing in for the retransmission timeout, up to
    /// [`MAX_RETRANSMITS`] times. A retry re-charges time and never
    /// re-applies values. No live route, or a spent budget, dead-letters
    /// the message and stops the run. `kind` labels the message in the
    /// trace. Returns the arrival time.
    pub(crate) fn reliable_transmit(
        &mut self,
        at: Cycles,
        from: u32,
        to: u32,
        words: Words,
        kind: MsgKind,
    ) -> Cycles {
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

    /// Charge one parallel section: each `(t, w)` of `work` is executed by
    /// task `t`. Returns the barrier time. Callers pass an iterator, so
    /// charging a section allocates nothing.
    pub(crate) fn parallel_section(
        &mut self,
        tasks: &TaskSet,
        work: impl IntoIterator<Item = (TaskHandle, WorkProfile)>,
    ) -> Cycles {
        // Aborted runs wind down instead of charging further work: the
        // caller polls `NaVm::budget_exceeded` and stops issuing ops, but
        // any ops already in flight become no-ops here.
        if self.stopped().is_some() {
            return self.now;
        }
        let start = self.now;
        self.apply_faults_through(start);
        let mut barrier = start;
        let charge_spawn = self.spawn_overhead && !self.spawned;
        self.spawned = true;
        for (t, w) in work {
            let c = tasks.cluster_of(t);
            let mut ready_at = start;
            if charge_spawn {
                // The coordinator (cluster 0's kernel PE) sends an initiate
                // message; the hosting kernel PE creates the activation.
                let kpe0 = self.machine.kernel_pe(0);
                let sent = self
                    .machine
                    .charge(start, kpe0, CostClass::MsgSend, 1)
                    .unwrap_or(start);
                let arrive = self.transmit(sent, 0, c, 8, MsgKind::InitiateTask);
                self.machine.trace.emit(|| {
                    TraceEvent::span(
                        sent,
                        arrive - sent,
                        0,
                        NO_PE,
                        EventKind::MsgSend {
                            msg: MsgKind::InitiateTask,
                            to_cluster: c,
                            words: 8,
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
                            words: 8,
                        },
                    )
                });
                let kpe = self.machine.kernel_pe(c);
                ready_at = self
                    .machine
                    .charge(arrive, kpe, CostClass::TaskCreate, 1)
                    .unwrap_or(arrive);
                self.machine.trace.emit(|| {
                    TraceEvent::instant(
                        ready_at,
                        c,
                        NO_PE,
                        EventKind::Task {
                            task: t.0,
                            stage: TaskStage::Created,
                        },
                    )
                });
            }
            // Hand the body to the earliest-free worker PE of the cluster.
            let Some(pe) = self.machine.pick_worker(c) else {
                // Every PE of the cluster is dead: its work cannot run.
                self.dead_letter(ready_at, 0, c, MsgKind::InitiateTask);
                continue;
            };
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    ready_at,
                    pe.cluster,
                    pe.index,
                    EventKind::Task {
                        task: t.0,
                        stage: TaskStage::Dispatched,
                    },
                )
            });
            let done = self.machine.run_task(ready_at, pe, &w).unwrap_or(ready_at);
            self.machine.trace.emit(|| {
                TraceEvent::instant(
                    done,
                    pe.cluster,
                    pe.index,
                    EventKind::Task {
                        task: t.0,
                        stage: TaskStage::Completed,
                    },
                )
            });
            barrier = barrier.max(done);
        }
        self.now = barrier;
        barrier
    }
}

/// The numerical analyst's virtual machine.
pub struct NaVm {
    pub(crate) plane: Plane,
    pub(crate) tasks: TaskSet,
    pub(crate) arrays: Vec<DArray>,
}

impl NaVm {
    /// A VM on the native plane: `ntasks` logical tasks executed on the
    /// calling thread.
    pub fn native(ntasks: u32) -> Self {
        NaVm {
            plane: Plane::Native,
            tasks: TaskSet::new(ntasks, 1),
            arrays: Vec::new(),
        }
    }

    /// A VM on the simulated plane: `ntasks` logical tasks over the machine
    /// described by `config`.
    pub fn simulated(config: MachineConfig, ntasks: u32) -> Self {
        let machine = Machine::new(config);
        let clusters = machine.config.clusters;
        NaVm {
            plane: Plane::Sim(Box::new(SimState {
                machine,
                now: 0,
                spawn_overhead: true,
                spawned: false,
                faults: FaultPlan::none(),
                halted: None,
                retransmits: 0,
                window_words_scratch: vec![None; clusters as usize],
                budget: BudgetMeter::default(),
            })),
            tasks: TaskSet::new(ntasks, clusters),
            arrays: Vec::new(),
        }
    }

    /// Which plane this VM runs on.
    pub fn kind(&self) -> PlaneKind {
        match self.plane {
            Plane::Native => PlaneKind::Native,
            Plane::Sim(_) => PlaneKind::Simulated,
        }
    }

    /// The task set programs are written against.
    pub fn tasks(&self) -> TaskSet {
        self.tasks
    }

    /// Simulated cycles elapsed (0 on the native plane).
    pub fn elapsed(&self) -> Cycles {
        match &self.plane {
            Plane::Native => 0,
            Plane::Sim(s) => s.now,
        }
    }

    /// The simulated machine, if on the simulated plane.
    pub fn machine(&self) -> Option<&Machine> {
        match &self.plane {
            Plane::Native => None,
            Plane::Sim(s) => Some(&s.machine),
        }
    }

    /// Begin a named measurement phase (simulated plane; no-op on native).
    pub fn phase(&mut self, name: &str) {
        if let Plane::Sim(s) = &mut self.plane {
            let now = s.now;
            s.machine.phase(name, now);
        }
    }

    /// Attach a trace sink to the simulated machine (no-op on the native
    /// plane). Tracing is observation-only: it never changes costs.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        if let Plane::Sim(s) = &mut self.plane {
            s.machine.set_trace(trace);
        }
    }

    /// Enable or disable task-spawn overhead charging for parallel sections
    /// (simulated plane).
    pub fn set_spawn_overhead(&mut self, on: bool) {
        if let Plane::Sim(s) = &mut self.plane {
            s.spawn_overhead = on;
        }
    }

    /// Terminate the task crew: the next parallel section charges task
    /// initiation again (simulated plane). Use to model per-section task
    /// creation instead of the default initiate-once/pause-resume runtime.
    pub fn respawn_tasks(&mut self) {
        if let Plane::Sim(s) = &mut self.plane {
            s.spawned = false;
        }
    }

    /// Inject a fault plan (simulated plane; no-op on native). Faults fire
    /// as simulated time passes them, at primitive boundaries: parallel
    /// sections, window exchanges, broadcasts, and remote calls. Numerical
    /// results are unaffected — only costs, routes, and the retransmission
    /// count change — unless a fault cuts off a cluster the program needs:
    /// then the run stops with [`AbortCause::Unreachable`] (see
    /// [`NaVm::budget_exceeded`]).
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        if let Plane::Sim(s) = &mut self.plane {
            s.faults = plan.clone();
        }
    }

    /// Arm a run budget (simulated plane; no-op on native). The meter's
    /// wall-clock anchor starts here; limits are checked as simulated time
    /// advances. Programs should poll
    /// [`budget_exceeded`](Self::budget_exceeded) between operations and
    /// stop issuing work once it fires — operations after that point are
    /// charged as no-ops.
    pub fn set_budget(&mut self, budget: RunBudget) {
        if let Plane::Sim(s) = &mut self.plane {
            s.budget = budget.start();
        }
    }

    /// Whether the run has stopped, and why (simulated plane; always `None`
    /// on native): the armed budget fired, or a fault made a cluster the
    /// program needs unreachable ([`AbortCause::Unreachable`], sticky, and
    /// reported first). Purely a check against the current clock — calling
    /// it does not advance time, so repeated polls are free and
    /// deterministic for the cycle/event limits.
    pub fn budget_exceeded(&self) -> Option<RunAborted> {
        match &self.plane {
            Plane::Native => None,
            Plane::Sim(s) => s.stopped(),
        }
    }

    /// Window exchanges retried after an in-flight loss (simulated plane).
    pub fn retransmits(&self) -> u64 {
        match &self.plane {
            Plane::Native => 0,
            Plane::Sim(s) => s.retransmits,
        }
    }

    // ------------------------------------------------------------------
    // Arrays
    // ------------------------------------------------------------------

    /// Create a `rows × cols` array of zeros, row-block distributed over the
    /// task set. On the simulated plane the owning clusters allocate the
    /// storage. Errors if a cluster memory is exhausted.
    pub fn try_array(&mut self, rows: usize, cols: usize) -> Result<ArrayId, String> {
        assert!(rows > 0 && cols > 0, "degenerate array shape");
        if let Plane::Sim(s) = &mut self.plane {
            for t in self.tasks.iter() {
                let share = self.tasks.share(rows, t);
                let words = (share.len() * cols) as Words;
                if words == 0 {
                    continue;
                }
                let c = self.tasks.cluster_of(t);
                let now = s.now;
                s.machine
                    .alloc_at(now, c, words)
                    .map_err(|e| format!("array allocation failed: {e}"))?;
            }
        }
        Ok(self.host_array(rows, cols))
    }

    /// Like [`NaVm::try_array`], for programs that poll
    /// [`NaVm::budget_exceeded`]: a cluster memory too small for the array
    /// (a memory-bank fault can shrink one mid-run) stops the run with a
    /// sticky [`AbortCause::MemoryExhausted`] instead of failing. The
    /// array still exists on the host, so the program's later operations
    /// stay valid; they are charged as no-ops.
    pub fn array(&mut self, rows: usize, cols: usize) -> ArrayId {
        match self.try_array(rows, cols) {
            Ok(id) => id,
            Err(_) => {
                if let Plane::Sim(s) = &mut self.plane {
                    let now = s.now;
                    s.halt(now, AbortCause::MemoryExhausted);
                }
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
    pub fn rows(&self, id: ArrayId) -> usize {
        self.arrays[id.0 as usize].rows
    }

    /// Column count of an array.
    pub fn cols(&self, id: ArrayId) -> usize {
        self.arrays[id.0 as usize].cols
    }

    /// Element count of an array.
    pub fn len(&self, id: ArrayId) -> usize {
        let a = &self.arrays[id.0 as usize];
        a.rows * a.cols
    }

    /// True if the array has no elements (never, by construction).
    pub fn is_empty(&self, id: ArrayId) -> bool {
        self.len(id) == 0
    }

    /// The task owning row `r` of array `id`.
    pub fn owner_of_row(&self, id: ArrayId, r: usize) -> TaskHandle {
        self.tasks.owner_of(self.rows(id), r)
    }

    /// Read one element (setup/diagnostics; charges one memory word on the
    /// simulated plane).
    pub fn get(&mut self, id: ArrayId, r: usize, c: usize) -> f64 {
        let a = &self.arrays[id.0 as usize];
        assert!(r < a.rows && c < a.cols, "index out of bounds");
        let v = a.data[r * a.cols + c];
        if let Plane::Sim(s) = &mut self.plane {
            s.machine.stats.mem_words(1);
        }
        v
    }

    /// Write one element (setup/diagnostics; charges one memory word on the
    /// simulated plane).
    pub fn set(&mut self, id: ArrayId, r: usize, c: usize, v: f64) {
        let a = &mut self.arrays[id.0 as usize];
        assert!(r < a.rows && c < a.cols, "index out of bounds");
        a.data[r * a.cols + c] = v;
        if let Plane::Sim(s) = &mut self.plane {
            s.machine.stats.mem_words(1);
        }
    }

    /// Initialize every element: `a[r][c] = f(r, c)`. Runs as a forall over
    /// rows (charged on the simulated plane).
    pub fn fill(&mut self, id: ArrayId, f: impl Fn(usize, usize) -> f64) {
        let cols = self.cols(id);
        self.forall_rows(
            id,
            WorkProfile {
                flops: 0,
                int_ops: cols as u64,
                mem_words: cols as u64,
            },
            |r, row| {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = f(r, c);
                }
            },
        );
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
    /// `cost_per_row` is what one row charges on the simulated plane.
    pub fn forall_rows(
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
        if let Plane::Sim(s) = &mut self.plane {
            let tasks = self.tasks;
            let work = tasks
                .iter()
                .map(|t| (t, cost_per_row.scaled(tasks.share(rows, t).len() as u64)));
            s.parallel_section(&tasks, work);
        }
    }

    /// Pardo: a set of independent statements, one per entry, each with a
    /// declared cost. On the simulated plane each statement is a task on its
    /// handle's cluster; on the native plane this is a no-op (the statements
    /// carry no host computation).
    pub fn pardo(&mut self, statements: &[(TaskHandle, WorkProfile)]) -> Cycles {
        match &mut self.plane {
            Plane::Native => 0,
            Plane::Sim(s) => s.parallel_section(&self.tasks, statements.iter().copied()),
        }
    }

    /// Broadcast `words` of data from `from` to every other task's cluster.
    /// Returns the barrier time (simulated plane) or 0 (native: tasks share
    /// the host address space).
    pub fn broadcast(&mut self, from: TaskHandle, words: Words) -> Cycles {
        match &mut self.plane {
            Plane::Native => 0,
            Plane::Sim(s) => {
                let fc = self.tasks.cluster_of(from);
                let start = s.now;
                s.apply_faults_through(start);
                let mut barrier = start;
                for c in 0..self.tasks.clusters() {
                    if c != fc {
                        let arrive = s.reliable_transmit(start, fc, c, words, MsgKind::LoadCode);
                        barrier = barrier.max(arrive);
                    }
                }
                s.now = barrier;
                barrier
            }
        }
    }

    /// Remote procedure call routed by data location: execute `profile` on
    /// the cluster owning `window_owner`'s data, shipping `args_words` there
    /// and `result_words` back to `caller`. Returns the round-trip latency
    /// in cycles (0 on the native plane).
    pub fn remote_call(
        &mut self,
        caller: TaskHandle,
        window_owner: TaskHandle,
        profile: WorkProfile,
        args_words: Words,
        result_words: Words,
    ) -> Cycles {
        match &mut self.plane {
            Plane::Native => 0,
            Plane::Sim(s) => {
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
                let arrive = if cc == oc {
                    s.transmit(sent, cc, oc, 7 + args_words, MsgKind::RemoteCall)
                } else {
                    s.reliable_transmit(sent, cc, oc, 7 + args_words, MsgKind::RemoteCall)
                };
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
                        let _ =
                            s.machine
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
                let back = if cc == oc {
                    s.transmit(done, oc, cc, result_words, MsgKind::RemoteReturn)
                } else {
                    s.reliable_transmit(done, oc, cc, result_words, MsgKind::RemoteReturn)
                };
                s.now = s.now.max(back);
                back - start
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(ntasks: u32) -> NaVm {
        NaVm::simulated(MachineConfig::fem2_default(), ntasks)
    }

    #[test]
    fn plane_kinds() {
        assert_eq!(sim(4).kind(), PlaneKind::Simulated);
        assert_eq!(NaVm::native(4).kind(), PlaneKind::Native);
        assert!(sim(4).machine().is_some());
        assert!(NaVm::native(4).machine().is_none());
    }

    #[test]
    fn array_shape_accessors() {
        let mut vm = sim(4);
        let a = vm.array(10, 3);
        assert_eq!(vm.rows(a), 10);
        assert_eq!(vm.cols(a), 3);
        assert_eq!(vm.len(a), 30);
        assert!(!vm.is_empty(a));
        let v = vm.vector(7);
        assert_eq!(vm.cols(v), 1);
    }

    #[test]
    fn array_allocation_charges_cluster_memory() {
        let mut vm = sim(8);
        let before: u64 = (0..4).map(|c| vm.machine().unwrap().memory(c).used()).sum();
        assert_eq!(before, 0);
        let _a = vm.array(100, 10);
        let after: u64 = (0..4).map(|c| vm.machine().unwrap().memory(c).used()).sum();
        assert_eq!(after, 1000, "1000 words distributed over clusters");
        // Every cluster holds a share (8 tasks over 4 clusters, 100 rows).
        for c in 0..4 {
            assert!(vm.machine().unwrap().memory(c).used() > 0, "cluster {c}");
        }
    }

    #[test]
    fn array_oom_is_an_error() {
        let mut cfg = MachineConfig::fem2_default();
        cfg.memory_per_cluster = 100;
        let mut vm = NaVm::simulated(cfg, 4);
        assert!(vm.try_array(1000, 10).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut vm = sim(2);
        let a = vm.array(4, 4);
        vm.set(a, 2, 3, 7.5);
        assert_eq!(vm.get(a, 2, 3), 7.5);
        assert_eq!(vm.get(a, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_bounds_checked() {
        let mut vm = sim(2);
        let a = vm.array(4, 4);
        vm.get(a, 4, 0);
    }

    #[test]
    fn fill_computes_and_charges() {
        let mut vm = sim(4);
        let a = vm.array(8, 2);
        vm.fill(a, |r, c| (r * 10 + c) as f64);
        assert_eq!(vm.get(a, 3, 1), 31.0);
        assert!(vm.elapsed() > 0, "fill charged simulated time");
        let t = vm.machine().unwrap().stats.total();
        assert!(t.mem_words >= 16);
    }

    #[test]
    fn fill_native_matches_sim() {
        let mut vs = sim(4);
        let mut vn = NaVm::native(4);
        let a = vs.array(13, 5);
        let b = vn.array(13, 5);
        vs.fill(a, |r, c| (r * 31 + c) as f64 * 0.25);
        vn.fill(b, |r, c| (r * 31 + c) as f64 * 0.25);
        assert_eq!(vs.snapshot(a), vn.snapshot(b));
    }

    #[test]
    fn forall_rows_visits_every_row_once() {
        for mut vm in [sim(3), NaVm::native(3)] {
            let a = vm.array(17, 2);
            vm.forall_rows(a, WorkProfile::default(), |r, row| {
                for x in row.iter_mut() {
                    *x += (r + 1) as f64;
                }
            });
            for r in 0..17 {
                assert_eq!(vm.get(a, r, 0), (r + 1) as f64);
                assert_eq!(vm.get(a, r, 1), (r + 1) as f64);
            }
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
        assert_eq!(vm.machine().unwrap().stats.total().flops, 400);
        // Native pardo is free.
        let mut vn = NaVm::native(4);
        assert_eq!(vn.pardo(&[(TaskHandle(0), WorkProfile::flops(5))]), 0);
    }

    #[test]
    fn broadcast_reaches_every_other_cluster() {
        let mut vm = sim(8); // 8 tasks over 4 clusters
        let before = vm.machine().unwrap().network.messages;
        vm.broadcast(TaskHandle(0), 128);
        let after = vm.machine().unwrap().network.messages;
        assert_eq!(after - before, 3, "3 remote clusters");
        assert!(vm.elapsed() > 0);
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
        // Native plane: free.
        let mut vn = NaVm::native(8);
        assert_eq!(
            vn.remote_call(TaskHandle(0), TaskHandle(7), WorkProfile::flops(50), 16, 4),
            0
        );
    }

    #[test]
    fn spawn_overhead_toggle() {
        let mut with = sim(4);
        let a = with.array(4, 1);
        with.forall_rows(a, WorkProfile::flops(1), |_, _| {});
        let t_with = with.elapsed();

        let mut without = sim(4);
        without.set_spawn_overhead(false);
        let b = without.array(4, 1);
        without.forall_rows(b, WorkProfile::flops(1), |_, _| {});
        let t_without = without.elapsed();
        assert!(t_without < t_with, "{t_without} < {t_with}");
    }

    #[test]
    fn phases_accumulate_in_stats() {
        let mut vm = sim(4);
        let a = vm.array(8, 8);
        vm.phase("assembly");
        vm.fill(a, |_, _| 1.0);
        vm.phase("solve");
        vm.forall_rows(a, WorkProfile::flops(10), |_, _| {});
        let st = &vm.machine().unwrap().stats;
        assert!(st.get("assembly").unwrap().mem_words > 0);
        assert!(st.get("solve").unwrap().flops > 0);
    }

    #[test]
    fn owner_of_row_follows_block_distribution() {
        let mut vm = sim(4);
        let a = vm.array(8, 1);
        assert_eq!(vm.owner_of_row(a, 0), TaskHandle(0));
        assert_eq!(vm.owner_of_row(a, 7), TaskHandle(3));
    }

    #[test]
    fn elapsed_monotone() {
        let mut vm = sim(4);
        let a = vm.array(16, 16);
        let t0 = vm.elapsed();
        vm.fill(a, |_, _| 1.0);
        let t1 = vm.elapsed();
        vm.broadcast(TaskHandle(0), 64);
        let t2 = vm.elapsed();
        assert!(t0 <= t1 && t1 <= t2);
    }
}
