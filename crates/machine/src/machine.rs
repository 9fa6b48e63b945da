//! The assembled machine: PEs, cluster memories, network, stats, and fault
//! handling behind one facade.

use crate::config::{CostModel, MachineConfig};
use crate::fault::FaultKind;
use crate::memory::{ClusterMemory, OutOfMemory};
use crate::network::{Network, Recorder, Tracked};
use crate::pe::{best_worker, CostClass, Pe, PeId, WorkProfile};
use crate::stats::Stats;
use crate::{Cycles, Words};
use fem2_trace::{EventKind, TaskStage, TraceEvent, TraceHandle, NO_CLUSTER, NO_PE};
use std::fmt;

/// The trace-vocabulary equivalent of a [`CostClass`].
pub(crate) fn trace_cost_kind(class: CostClass) -> fem2_trace::CostKind {
    use fem2_trace::CostKind as K;
    match class {
        CostClass::Flop => K::Flop,
        CostClass::IntOp => K::IntOp,
        CostClass::MemWord => K::MemWord,
        CostClass::MsgSend => K::MsgSend,
        CostClass::MsgDispatch => K::MsgDispatch,
        CostClass::TaskCreate => K::TaskCreate,
        CostClass::ContextSwitch => K::ContextSwitch,
    }
}

/// Errors surfaced by machine operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MachineError {
    /// A cluster's shared memory was exhausted.
    OutOfMemory(OutOfMemory),
    /// A PE address does not exist in this configuration.
    NoSuchPe(PeId),
    /// Work was assigned to an isolated (failed) PE.
    PeFailed(PeId),
    /// Every PE in the cluster has failed; the cluster is dead.
    ClusterDead(u32),
    /// Dead links leave no live route between the two clusters.
    ClusterUnreachable {
        /// Source cluster.
        from: u32,
        /// Destination cluster.
        to: u32,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfMemory(e) => write!(f, "{e}"),
            MachineError::NoSuchPe(pe) => write!(f, "no such PE {pe}"),
            MachineError::PeFailed(pe) => write!(f, "PE {pe} is isolated"),
            MachineError::ClusterDead(c) => write!(f, "cluster {c} has no surviving PEs"),
            MachineError::ClusterUnreachable { from, to } => {
                write!(f, "no live route from cluster {from} to cluster {to}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<OutOfMemory> for MachineError {
    fn from(e: OutOfMemory) -> Self {
        MachineError::OutOfMemory(e)
    }
}

/// The simulated FEM-2 machine.
///
/// Owns every hardware resource; the kernel layer (`fem2-kernel`) drives it
/// through an event loop. All operations are deterministic.
pub struct Machine {
    /// The configuration the machine was built from.
    pub config: MachineConfig,
    /// Per-cluster PE state, allocated on first touch (charge or fault).
    /// `None` reads as a cluster of [`Pe::IDLE`]: on large machines only
    /// the clusters that actually run work pay for PE records.
    pub(crate) lanes: Vec<Option<Box<[Pe]>>>,
    memories: Vec<ClusterMemory>,
    /// The inter-cluster network.
    pub network: Network,
    /// Measurement counters.
    pub stats: Stats,
    /// Current kernel PE index per cluster (normally 0; changes on
    /// reconfiguration).
    kernel_pe: Vec<u32>,
    /// Number of fault-isolation reconfigurations performed.
    pub reconfigurations: u64,
    /// Monotone count of machine-level events: every successful charge and
    /// every remote transfer. The engine-throughput counter `benchmark/`
    /// reports as `machine.events` (kernel scenarios additionally count DES
    /// dispatches).
    pub events: u64,
    /// Event tracing. Disabled by default: instrumentation is observation
    /// only and costs a single branch when off.
    pub trace: TraceHandle,
    /// The active recordings of charge sequences, innermost last
    /// ([`Machine::begin_record`]).
    pub(crate) recorders: Vec<Recorder>,
}

impl Machine {
    /// Build a machine from a validated configuration.
    ///
    /// # Panics
    /// Panics if `config.validate()` fails — configurations are meant to be
    /// validated (or produced by presets) before construction.
    pub fn new(config: MachineConfig) -> Self {
        config.validate().expect("invalid machine configuration");
        let lanes = vec![None; config.clusters as usize];
        let memories = (0..config.clusters)
            .map(|c| ClusterMemory::new(c, config.memory_per_cluster))
            .collect();
        let network = Network::new(&config);
        let kernel_pe = vec![0; config.clusters as usize];
        Machine {
            config,
            lanes,
            memories,
            network,
            stats: Stats::new(),
            kernel_pe,
            reconfigurations: 0,
            events: 0,
            trace: TraceHandle::disabled(),
            recorders: Vec::new(),
        }
    }

    /// Attach a trace sink. All machine-level events (PE busy spans, link
    /// transfers, memory traffic) flow to it; pass
    /// [`TraceHandle::disabled`] to detach.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Enter a named measurement phase at simulated time `at`: switches the
    /// stats phase and informs the trace sink.
    pub fn phase(&mut self, name: &str, at: Cycles) {
        self.stats.phase(name);
        self.trace.begin_phase(name, at);
    }

    /// Count of fault transitions so far: the network's link transitions
    /// plus every PE, memory-bank and link reconfiguration. Both only
    /// grow, so the sum moves whenever either does.
    pub(crate) fn fault_epoch(&self) -> u64 {
        self.network.fault_epoch + self.reconfigurations
    }

    fn check(&self, pe: PeId) -> Result<(), MachineError> {
        if pe.cluster >= self.config.clusters || pe.index >= self.config.pes_per_cluster {
            return Err(MachineError::NoSuchPe(pe));
        }
        Ok(())
    }

    /// Current state of an in-range PE, by value. Untouched clusters read
    /// as [`Pe::IDLE`] without allocating their lane.
    fn pe_state(&self, pe: PeId) -> Pe {
        self.lanes[pe.cluster as usize]
            .as_ref()
            .map_or(Pe::IDLE, |lane| lane[pe.index as usize])
    }

    /// Mutable access to an in-range PE, allocating the cluster's lane on
    /// first touch.
    fn pe_state_mut(&mut self, pe: PeId) -> &mut Pe {
        &mut lane_mut(&mut self.lanes, pe.cluster, self.config.pes_per_cluster)[pe.index as usize]
    }

    /// Read access to a PE.
    pub fn pe(&self, pe: PeId) -> Result<&Pe, MachineError> {
        self.check(pe)?;
        Ok(self.lanes[pe.cluster as usize]
            .as_ref()
            .map_or(&Pe::IDLE, |lane| &lane[pe.index as usize]))
    }

    /// Number of clusters whose PE lane has been allocated (touched by a
    /// charge or a fault) — the cluster-side O(active) memory proxy.
    pub fn allocated_cluster_records(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }

    /// All PE ids in cluster `c`.
    pub fn cluster_pes(&self, c: u32) -> impl Iterator<Item = PeId> + '_ {
        (0..self.config.pes_per_cluster).map(move |i| PeId::new(c, i))
    }

    /// The current kernel PE of cluster `c`.
    pub fn kernel_pe(&self, c: u32) -> PeId {
        PeId::new(c, self.kernel_pe[c as usize])
    }

    /// PEs of cluster `c` eligible for user work at any time: alive, and not
    /// the kernel PE when the configuration dedicates one. For tests and
    /// inspection; dispatch goes through [`Machine::pick_worker`] and
    /// [`Machine::free_worker`], which do not allocate.
    pub fn worker_pes(&self, c: u32) -> Vec<PeId> {
        let dedicated = self.config.dedicated_kernel_pe && self.alive_count(c) > 1;
        self.cluster_pes(c)
            .filter(|&pe| {
                if self.pe_state(pe).failed {
                    return false;
                }
                if dedicated && pe.index == self.kernel_pe[c as usize] {
                    return false;
                }
                true
            })
            .collect()
    }

    /// Number of surviving PEs in cluster `c`.
    pub fn alive_count(&self, c: u32) -> u32 {
        match &self.lanes[c as usize] {
            None => self.config.pes_per_cluster,
            Some(lane) => lane.iter().filter(|p| !p.failed).count() as u32,
        }
    }

    /// Earliest-free eligible worker PE of cluster `c` ("assigns available
    /// PE's to process them"). `None` if the cluster is dead.
    pub fn pick_worker(&self, c: u32) -> Option<PeId> {
        self.best_worker(c, |p| Some(p.free_at))
    }

    /// Lowest-indexed eligible worker PE of cluster `c` that is free at
    /// `now`. `None` if every worker is busy or the cluster is dead.
    pub fn free_worker(&self, c: u32, now: Cycles) -> Option<PeId> {
        self.best_worker(c, |p| p.available(now).then_some(()))
    }

    fn best_worker<K: Ord + Copy>(&self, c: u32, key: impl Fn(&Pe) -> Option<K>) -> Option<PeId> {
        best_worker(
            self.lanes[c as usize].as_deref(),
            self.config.pes_per_cluster,
            self.kernel_pe[c as usize],
            self.config.dedicated_kernel_pe,
            key,
        )
        .map(|i| PeId::new(c, i))
    }

    /// Charge `count` units of `class` to `pe`, starting no earlier than
    /// `now`; returns the completion time. Also records the work in stats.
    pub fn charge(
        &mut self,
        now: Cycles,
        pe: PeId,
        class: CostClass,
        count: u64,
    ) -> Result<Cycles, MachineError> {
        self.check(pe)?;
        if self.pe_state(pe).failed {
            return Err(MachineError::PeFailed(pe));
        }
        match class {
            CostClass::Flop => self.stats.flops(count),
            CostClass::IntOp => self.stats.int_ops(count),
            CostClass::MemWord => self.stats.mem_words(count),
            CostClass::TaskCreate => self.stats.tasks_created(count),
            _ => {}
        }
        for rec in &mut self.recorders {
            rec.note_charge(&self.lanes, self.config.pes_per_cluster, now, pe);
        }
        let cost = self.config.cost;
        let state = self.pe_state_mut(pe);
        let start = state.free_at.max(now);
        let done = state.charge(now, class, count, &cost);
        self.trace.emit(|| {
            TraceEvent::span(
                start,
                done - start,
                pe.cluster,
                pe.index,
                EventKind::PeBusy {
                    cost: trace_cost_kind(class),
                    count,
                },
            )
        });
        self.events += 1;
        Ok(done)
    }

    /// Run one dispatched task on `pe`, starting no earlier than `now`: one
    /// context switch, then `work`'s integer ops, memory words and flops,
    /// each interval starting where the previous one ends. Returns the
    /// completion time.
    ///
    /// Exactly what four [`Machine::charge`] calls in that order record —
    /// the same busy intervals, stats, `PeBusy` spans and event count — for
    /// one range check, one failed check and one lane access. An `Err`
    /// charges nothing. The one-task case of [`Machine::run_tasks`] on a
    /// PE the caller chose: both charge through the same body.
    pub fn run_task(
        &mut self,
        now: Cycles,
        pe: PeId,
        work: &WorkProfile,
    ) -> Result<Cycles, MachineError> {
        self.check(pe)?;
        if self.pe_state(pe).failed {
            return Err(MachineError::PeFailed(pe));
        }
        if !self.recorders.is_empty() {
            // The caller picked `pe` from the cluster's workers.
            let c = pe.cluster;
            let (pes, reserved) = (
                self.config.pes_per_cluster,
                self.reserved(c, self.alive_count(c)),
            );
            for rec in &mut self.recorders {
                rec.note_workers(&self.lanes, pes, c, reserved);
                rec.note_charge(&self.lanes, pes, now, pe);
            }
        }
        self.stats.task_work(work);
        self.events += 4;
        let cost = self.config.cost;
        let lane = lane_mut(&mut self.lanes, pe.cluster, self.config.pes_per_cluster);
        let state = &mut lane[pe.index as usize];
        Ok(charge_task(&self.trace, state, pe, now, work, &cost))
    }

    /// Run a group of dispatched tasks on cluster `c`, in order: each
    /// `(task, ready, work)` goes to the earliest-free eligible worker at
    /// that moment — the PE [`Machine::pick_worker`] would pick, with its
    /// ties and its kernel-PE and failed-PE rules — and charges there what
    /// [`Machine::run_task`] charges, from `ready` on. Returns the latest
    /// completion (0 for an empty group).
    ///
    /// Exactly what `pick_worker` + `run_task` per task record, with the
    /// task's `Dispatched` and `Completed` instants around its four
    /// `PeBusy` spans, for one lane borrow per group: the stats and
    /// `events += 4·k` are added once. A dead cluster (or one out of
    /// range) is an `Err` that charges nothing and takes no task from
    /// `tasks`.
    pub fn run_tasks(
        &mut self,
        c: u32,
        tasks: impl IntoIterator<Item = (u32, Cycles, WorkProfile)>,
    ) -> Result<Cycles, MachineError> {
        if c >= self.config.clusters {
            return Err(MachineError::NoSuchPe(PeId::new(c, 0)));
        }
        let alive = self.alive_count(c);
        if alive == 0 {
            return Err(MachineError::ClusterDead(c));
        }
        let reserved = self.reserved(c, alive);
        let (pes, cost) = (self.config.pes_per_cluster, self.config.cost);
        for rec in &mut self.recorders {
            // Every pick compares all of them. Each task is ready at or
            // after the recording's start, the caller's side of the shift
            // a replay rests on.
            rec.note_workers(&self.lanes, pes, c, reserved);
        }
        let mut total = WorkProfile::default();
        let (mut k, mut latest) = (0, 0);
        for (task, ready, work) in tasks {
            // Allocated on the first task, as `run_task` would.
            let lane = lane_mut(&mut self.lanes, c, pes);
            // Earliest free; ties to the lowest index.
            let mut pick: Option<(Cycles, usize)> = None;
            for (i, p) in lane.iter().enumerate() {
                if !p.failed && i != reserved && pick.is_none_or(|(free, _)| p.free_at < free) {
                    pick = Some((p.free_at, i));
                }
            }
            let (_, i) = pick.expect("a live cluster keeps an eligible worker");
            let pe = PeId::new(c, i as u32);
            let stage =
                |at, stage| TraceEvent::instant(at, c, pe.index, EventKind::Task { task, stage });
            self.trace.emit(|| stage(ready, TaskStage::Dispatched));
            let done = charge_task(&self.trace, &mut lane[i], pe, ready, &work, &cost);
            self.trace.emit(|| stage(done, TaskStage::Completed));
            total = total.plus(work);
            k += 1;
            latest = latest.max(done);
        }
        if k > 0 {
            self.stats.task_work(&total);
            self.events += 4 * k;
        }
        Ok(latest)
    }

    /// The index of the one PE of cluster `c`, with `alive` survivors, that
    /// no task may take: the kernel PE, when the cluster dedicates one and
    /// it is not the last survivor; `usize::MAX` (none) otherwise.
    fn reserved(&self, c: u32, alive: u32) -> usize {
        if self.config.dedicated_kernel_pe && alive > 1 {
            self.kernel_pe[c as usize] as usize
        } else {
            usize::MAX
        }
    }

    /// Allocate `words` in cluster `c`'s shared memory, stamping the trace
    /// event with simulated time `now`.
    pub fn alloc_at(&mut self, now: Cycles, c: u32, words: Words) -> Result<(), MachineError> {
        self.memories[c as usize].alloc(words)?;
        let in_use = self.memories[c as usize].used();
        self.trace
            .emit(|| TraceEvent::instant(now, c, NO_PE, EventKind::Alloc { words, in_use }));
        Ok(())
    }

    /// Free `words` in cluster `c`'s shared memory, stamping the trace
    /// event with simulated time `now`.
    pub fn free_at(&mut self, now: Cycles, c: u32, words: Words) {
        self.memories[c as usize].free(words);
        let in_use = self.memories[c as usize].used();
        self.trace
            .emit(|| TraceEvent::instant(now, c, NO_PE, EventKind::Free { words, in_use }));
    }

    /// Read access to a cluster memory.
    pub fn memory(&self, c: u32) -> &ClusterMemory {
        &self.memories[c as usize]
    }

    /// Transmit a message and record it in stats. Returns arrival time.
    ///
    /// # Panics
    /// Panics if dead links leave no route; reliability-aware callers use
    /// [`Machine::try_transmit`].
    pub fn transmit(&mut self, now: Cycles, from: u32, to: u32, words: Words) -> Cycles {
        self.try_transmit(now, from, to, words)
            .expect("no live route between clusters")
    }

    /// Fallible [`Machine::transmit`]: charges nothing and returns
    /// `MachineError::ClusterUnreachable` when no live route exists.
    pub fn try_transmit(
        &mut self,
        now: Cycles,
        from: u32,
        to: u32,
        words: Words,
    ) -> Result<Cycles, MachineError> {
        if !self.recorders.is_empty() {
            return self.try_transmit_recorded(now, from, to, words);
        }
        let packets_before = self.network.packets;
        let t = self
            .network
            .try_transmit(now, from, to, words)
            .ok_or(MachineError::ClusterUnreachable { from, to })?;
        if from != to {
            self.record_transfer(now, t, from, to, words, packets_before);
        }
        Ok(t)
    }

    /// [`Machine::try_transmit`] through [`Network::transmit_tracked`]: the
    /// same stats, trace span and event count, plus the forward-leg
    /// estimate and the flight a reliable layer loss-checks at arrival.
    ///
    /// # Panics
    /// Panics if `from == to` (see [`Network::transmit_tracked`]).
    pub fn transmit_tracked(&mut self, now: Cycles, from: u32, to: u32, words: Words) -> Tracked {
        debug_assert!(
            self.recorders.is_empty(),
            "a recording covers untracked transfers only"
        );
        let packets_before = self.network.packets;
        let sent = self.network.transmit_tracked(now, from, to, words);
        if let Some((t, _)) = sent.arrival {
            self.record_transfer(now, t, from, to, words, packets_before);
        }
        sent
    }

    /// Account one remote transfer that arrived at `t`.
    pub(crate) fn record_transfer(
        &mut self,
        now: Cycles,
        t: Cycles,
        from: u32,
        to: u32,
        words: Words,
        packets_before: u64,
    ) {
        self.stats.message(words);
        let packets = (self.network.packets - packets_before) as u32;
        self.trace.emit(|| {
            TraceEvent::span(
                now,
                t - now,
                from,
                NO_PE,
                EventKind::LinkTransfer {
                    to_cluster: to,
                    words,
                    packets,
                },
            )
        });
        self.events += 1;
    }

    /// Peak memory usage across clusters, in words.
    pub fn peak_memory(&self) -> Words {
        self.memories
            .iter()
            .map(|m| m.high_water())
            .max()
            .unwrap_or(0)
    }

    /// Total memory high-water summed over clusters, in words.
    pub fn total_memory_high_water(&self) -> Words {
        self.memories.iter().map(|m| m.high_water()).sum()
    }

    /// Isolate a failed PE. If it was the cluster's kernel PE, promote the
    /// lowest-indexed survivor. Returns `MachineError::ClusterDead` if no
    /// PE survives.
    pub fn fail_pe(&mut self, pe: PeId) -> Result<(), MachineError> {
        self.check(pe)?;
        if self.pe_state(pe).failed {
            return Ok(()); // already isolated
        }
        self.pe_state_mut(pe).failed = true;
        self.reconfigurations += 1;
        let c = pe.cluster;
        if self.alive_count(c) == 0 {
            return Err(MachineError::ClusterDead(c));
        }
        if self.kernel_pe[c as usize] == pe.index {
            // Promote the lowest-indexed surviving PE to kernel duty.
            let successor = self
                .cluster_pes(c)
                .find(|&p| !self.pe_state(p).failed)
                .expect("alive_count > 0");
            self.kernel_pe[c as usize] = successor.index;
        }
        Ok(())
    }

    /// A transiently failed PE recovers at time `at`: it rejoins the free
    /// pool but does **not** reclaim kernel duty it was promoted away from
    /// (unless the cluster has no live kernel PE, i.e. it was dead).
    pub(crate) fn recover_pe(&mut self, at: Cycles, pe: PeId) -> Result<(), MachineError> {
        self.check(pe)?;
        if !self.pe_state(pe).failed {
            return Ok(()); // never failed, or already recovered
        }
        let state = self.pe_state_mut(pe);
        state.failed = false;
        state.free_at = state.free_at.max(at);
        self.reconfigurations += 1;
        let c = pe.cluster as usize;
        let kp = PeId::new(pe.cluster, self.kernel_pe[c]);
        if self.pe_state(kp).failed {
            self.kernel_pe[c] = pe.index;
        }
        self.trace
            .emit(|| TraceEvent::instant(at, pe.cluster, pe.index, EventKind::PeRecover));
        Ok(())
    }

    /// Apply one fault-plan step at time `at`: the one place a
    /// [`FaultKind`] becomes a machine mutation, for every layer that runs
    /// a plan. Returns the words of live allocations a failed memory bank
    /// no longer holds (0 for every other step; the caller invalidates or
    /// rebuilds them), or the error of a PE step — `MachineError::ClusterDead`
    /// when a kill leaves the cluster no PE.
    pub fn apply_fault(&mut self, at: Cycles, kind: FaultKind) -> Result<Words, MachineError> {
        let traced = match kind {
            FaultKind::Pe { pe } => return self.fail_pe(pe).map(|()| 0),
            FaultKind::PeRecover { pe, .. } => return self.recover_pe(at, pe).map(|()| 0),
            FaultKind::Memory { cluster, words } => {
                let lost = self.memories[cluster as usize].fail_bank(words);
                self.reconfigurations += 1;
                self.trace.emit(|| {
                    TraceEvent::instant(at, cluster, NO_PE, EventKind::MemFault { words, lost })
                });
                return Ok(lost);
            }
            FaultKind::Link {
                link,
                degrade: None,
            } => {
                self.network.fail_link(link);
                EventKind::LinkFault {
                    link: link as u32,
                    degrade: 0,
                }
            }
            FaultKind::Link {
                link,
                degrade: Some(factor),
            } => {
                self.network.degrade_link(link, factor);
                EventKind::LinkFault {
                    link: link as u32,
                    degrade: factor.max(1),
                }
            }
            FaultKind::LinkRecover { link } => {
                // Detoured routes snap back to the primary path.
                self.network.recover_link(link);
                EventKind::LinkRecover { link: link as u32 }
            }
        };
        self.reconfigurations += 1;
        self.trace
            .emit(|| TraceEvent::instant(at, NO_CLUSTER, NO_PE, traced));
        Ok(0)
    }

    /// Aggregate busy cycles over all PEs (for machine utilization).
    /// Untouched clusters contribute zero and are skipped.
    pub fn total_busy_cycles(&self) -> Cycles {
        self.lanes
            .iter()
            .flatten()
            .flat_map(|lane| lane.iter())
            .map(|p| p.busy_cycles)
            .sum()
    }

    /// The latest `free_at` across all PEs: when the machine finishes all
    /// charged work. Untouched clusters are free at time 0.
    pub fn makespan(&self) -> Cycles {
        self.lanes
            .iter()
            .flatten()
            .flat_map(|lane| lane.iter())
            .map(|p| p.free_at)
            .max()
            .unwrap_or(0)
    }
}

/// Cluster `c`'s PE lane, allocated on first touch as `pes` idle PEs.
fn lane_mut(lanes: &mut [Option<Box<[Pe]>>], c: u32, pes: u32) -> &mut [Pe] {
    lanes[c as usize].get_or_insert_with(|| vec![Pe::IDLE; pes as usize].into_boxed_slice())
}

/// The one charging body of a dispatched task, shared by
/// [`Machine::run_task`] and [`Machine::run_tasks`]: a context switch,
/// then `work`'s integer ops, memory words and flops on `state` (the
/// state of `pe`), each from where the last ends, with one `PeBusy` span
/// each when tracing. Returns the completion time. The callers check the
/// PE and count the stats and events.
///
/// Only the first interval can wait for `now`; the other three start
/// where the one before ends. So the four are one busy interval of their
/// summed length — what four [`Pe::charge`] calls leave behind.
///
/// Always inlined: it runs once per dispatched task, and left to the
/// compiler it stayed a call that cost `run_tasks` about 40 % of its
/// time per task.
#[inline(always)]
fn charge_task(
    trace: &TraceHandle,
    state: &mut Pe,
    pe: PeId,
    now: Cycles,
    work: &WorkProfile,
    cost: &CostModel,
) -> Cycles {
    debug_assert!(!state.failed, "charging a failed PE");
    let steps = [
        (CostClass::ContextSwitch, 1),
        (CostClass::IntOp, work.int_ops),
        (CostClass::MemWord, work.mem_words),
        (CostClass::Flop, work.flops),
    ];
    let durations = steps.map(|(class, count)| class.cycles(cost).saturating_mul(count));
    let busy = durations.iter().sum::<Cycles>();
    let start = state.free_at.max(now);
    state.free_at = start + busy;
    state.busy_cycles += busy;
    if trace.is_enabled() {
        let mut at = start;
        for (&(class, count), &dur) in steps.iter().zip(&durations) {
            trace.emit(|| {
                TraceEvent::span(
                    at,
                    dur,
                    pe.cluster,
                    pe.index,
                    EventKind::PeBusy {
                        cost: trace_cost_kind(class),
                        count,
                    },
                )
            });
            at += dur;
        }
    }
    state.free_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;

    fn machine() -> Machine {
        Machine::new(MachineConfig::clustered(2, 4, Topology::Crossbar))
    }

    #[test]
    fn construction_shapes_resources() {
        let m = machine();
        assert_eq!(m.cluster_pes(0).count(), 4);
        assert_eq!(m.memory(0).capacity(), m.config.memory_per_cluster);
        assert_eq!(m.kernel_pe(0), PeId::new(0, 0));
        assert_eq!(m.kernel_pe(1), PeId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn invalid_config_panics() {
        let mut c = MachineConfig::fem2_default();
        c.clusters = 0;
        Machine::new(c);
    }

    #[test]
    fn worker_pes_exclude_kernel_pe() {
        let m = machine();
        let workers = m.worker_pes(0);
        assert_eq!(workers.len(), 3);
        assert!(!workers.contains(&PeId::new(0, 0)));
    }

    #[test]
    fn single_pe_cluster_kernel_also_works() {
        let m = Machine::new(MachineConfig::fem1_style(4));
        let workers = m.worker_pes(0);
        assert_eq!(workers, vec![PeId::new(0, 0)]);
    }

    #[test]
    fn charge_records_stats_and_advances_pe() {
        let mut m = machine();
        let pe = PeId::new(0, 1);
        let done = m.charge(0, pe, CostClass::Flop, 10).unwrap();
        assert_eq!(done, 10 * m.config.cost.flop);
        assert_eq!(m.stats.total().flops, 10);
        assert_eq!(m.pe(pe).unwrap().busy_cycles, done);
    }

    #[test]
    fn charge_unknown_pe_errors() {
        let mut m = machine();
        assert!(matches!(
            m.charge(0, PeId::new(9, 0), CostClass::Flop, 1),
            Err(MachineError::NoSuchPe(_))
        ));
        assert!(matches!(
            m.charge(0, PeId::new(0, 9), CostClass::Flop, 1),
            Err(MachineError::NoSuchPe(_))
        ));
    }

    /// What `run_task` replaces: four `charge` calls on one PE.
    fn four_charges(
        m: &mut Machine,
        now: Cycles,
        pe: PeId,
        work: &WorkProfile,
    ) -> Result<Cycles, MachineError> {
        m.charge(now, pe, CostClass::ContextSwitch, 1)?;
        m.charge(now, pe, CostClass::IntOp, work.int_ops)?;
        m.charge(now, pe, CostClass::MemWord, work.mem_words)?;
        m.charge(now, pe, CostClass::Flop, work.flops)
    }

    /// A recorder's retained count, dropped count and events.
    type Trace = (usize, u64, Vec<fem2_trace::TraceEvent>);

    /// Every PE's state, the stats table, the event count and the trace.
    fn observe(m: &Machine, rec: &fem2_trace::SharedRecorder) -> (Vec<Pe>, String, u64, Trace) {
        let pes = (0..m.config.clusters)
            .flat_map(|c| m.cluster_pes(c))
            .map(|pe| *m.pe(pe).unwrap())
            .collect();
        let r = rec.lock().unwrap();
        let trace = (r.len(), r.dropped(), r.events().copied().collect());
        (pes, m.stats.table(), m.events, trace)
    }

    #[test]
    fn run_task_records_what_four_charges_record() {
        let work = WorkProfile {
            flops: 7,
            int_ops: 3,
            mem_words: 5,
        };
        // Each case: setup on both twins, then (now, pe) of the task.
        type Setup = fn(&mut Machine);
        let cases: [(&str, Setup, u64, PeId); 4] = [
            ("fresh lane", |_| {}, 40, PeId::new(1, 2)),
            (
                "busy PE",
                |m| {
                    m.charge(0, PeId::new(0, 1), CostClass::Flop, 100).unwrap();
                },
                10,
                PeId::new(0, 1),
            ),
            (
                "failed PE",
                |m| m.fail_pe(PeId::new(0, 3)).unwrap(),
                0,
                PeId::new(0, 3),
            ),
            ("out of range", |_| {}, 0, PeId::new(0, 4)),
        ];
        for (name, setup, now, pe) in cases {
            let twin = |run: &dyn Fn(&mut Machine) -> Result<Cycles, MachineError>| {
                let mut m = machine();
                let (trace, rec) = TraceHandle::ring(64);
                m.set_trace(trace);
                setup(&mut m);
                (run(&mut m), observe(&m, &rec))
            };
            let fused = twin(&|m| m.run_task(now, pe, &work));
            let oracle = twin(&|m| four_charges(m, now, pe, &work));
            assert_eq!(fused, oracle, "{name}");
        }
        // The busy PE queues all four intervals behind its 400 cycles.
        let mut m = machine();
        m.charge(0, PeId::new(0, 1), CostClass::Flop, 100).unwrap();
        let cost = m.config.cost;
        let done = m.run_task(10, PeId::new(0, 1), &work).unwrap();
        assert_eq!(
            done,
            400 + cost.context_switch + 3 * cost.int_op + 5 * cost.mem_word + 7 * cost.flop
        );
        assert_eq!(m.events, 5);
        assert_eq!(
            m.run_task(0, PeId::new(0, 4), &work),
            Err(MachineError::NoSuchPe(PeId::new(0, 4)))
        );
    }

    #[test]
    fn run_tasks_records_what_pick_and_run_task_record() {
        let work = |f| WorkProfile {
            flops: f,
            int_ops: 2,
            mem_words: 3,
        };
        // Ten tasks on cluster 1, whose workers are PEs 1–3: PE 2 has
        // failed and PE 3 starts busy, so the picks alternate on two
        // workers by free time, and the kernel PE stays out.
        let twin = |grouped: bool| {
            let mut m = machine();
            let (trace, rec) = TraceHandle::ring(256);
            m.set_trace(trace);
            m.fail_pe(PeId::new(1, 2)).unwrap();
            m.charge(0, PeId::new(1, 3), CostClass::Flop, 30).unwrap();
            let tasks = (0..10).map(|t| (t, 5 * u64::from(t), work(u64::from(t % 3) * 7)));
            let latest = if grouped {
                m.run_tasks(1, tasks).unwrap()
            } else {
                let mut latest = 0;
                for (task, ready, w) in tasks {
                    let pe = m.pick_worker(1).unwrap();
                    let stage = |at, stage| {
                        TraceEvent::instant(at, 1, pe.index, EventKind::Task { task, stage })
                    };
                    m.trace.emit(|| stage(ready, TaskStage::Dispatched));
                    let done = m.run_task(ready, pe, &w).unwrap();
                    m.trace.emit(|| stage(done, TaskStage::Completed));
                    latest = latest.max(done);
                }
                latest
            };
            (latest, observe(&m, &rec))
        };
        assert_eq!(twin(true), twin(false));
    }

    #[test]
    fn run_tasks_errs_and_empty_groups_record_nothing() {
        let mut m = machine();
        let w = WorkProfile::flops(1);
        assert_eq!(m.run_tasks(1, []), Ok(0));
        assert_eq!(
            m.allocated_cluster_records(),
            0,
            "no lane for an empty group"
        );
        assert_eq!(m.stats.table(), Stats::new().table(), "no startup row");
        for i in 0..4 {
            let _ = m.fail_pe(PeId::new(0, i));
        }
        let before = (m.events, m.stats.table());
        assert_eq!(
            m.run_tasks(0, [(0, 0, w)]),
            Err(MachineError::ClusterDead(0))
        );
        assert_eq!(
            m.run_tasks(9, [(0, 0, w)]),
            Err(MachineError::NoSuchPe(PeId::new(9, 0)))
        );
        assert_eq!((m.events, m.stats.table()), before);
    }

    #[test]
    fn pick_worker_prefers_earliest_free() {
        let mut m = machine();
        // Busy up PE 1 and 2; PE 3 is free.
        m.charge(0, PeId::new(0, 1), CostClass::Flop, 100).unwrap();
        m.charge(0, PeId::new(0, 2), CostClass::Flop, 50).unwrap();
        assert_eq!(m.pick_worker(0), Some(PeId::new(0, 3)));
    }

    #[test]
    fn pick_worker_tie_breaks_by_index() {
        let m = machine();
        assert_eq!(m.pick_worker(0), Some(PeId::new(0, 1)));
    }

    #[test]
    fn transmit_counts_remote_only() {
        let mut m = machine();
        m.transmit(0, 0, 1, 16);
        m.transmit(0, 1, 1, 16);
        assert_eq!(m.stats.total().messages, 1);
        assert_eq!(m.stats.total().msg_words, 16);
        assert_eq!(m.network.messages, 1);
    }

    #[test]
    fn memory_alloc_free_via_machine() {
        let mut m = machine();
        m.alloc_at(0, 0, 1000).unwrap();
        m.alloc_at(0, 1, 500).unwrap();
        m.free_at(0, 0, 400);
        assert_eq!(m.memory(0).used(), 600);
        assert_eq!(m.peak_memory(), 1000);
        assert_eq!(m.total_memory_high_water(), 1500);
        let cap = m.memory(0).capacity();
        assert!(matches!(
            m.alloc_at(0, 0, cap),
            Err(MachineError::OutOfMemory(_))
        ));
    }

    #[test]
    fn fail_pe_isolates_and_charging_fails() {
        let mut m = machine();
        let pe = PeId::new(0, 2);
        m.fail_pe(pe).unwrap();
        assert_eq!(m.alive_count(0), 3);
        assert!(matches!(
            m.charge(0, pe, CostClass::Flop, 1),
            Err(MachineError::PeFailed(_))
        ));
        assert!(!m.worker_pes(0).contains(&pe));
        assert_eq!(m.reconfigurations, 1);
        // Idempotent.
        m.fail_pe(pe).unwrap();
        assert_eq!(m.reconfigurations, 1);
    }

    #[test]
    fn kernel_pe_failure_promotes_successor() {
        let mut m = machine();
        m.fail_pe(PeId::new(0, 0)).unwrap();
        assert_eq!(m.kernel_pe(0), PeId::new(0, 1));
        // Now PE 1 is the kernel PE; workers are 2 and 3.
        let workers = m.worker_pes(0);
        assert_eq!(workers, vec![PeId::new(0, 2), PeId::new(0, 3)]);
    }

    #[test]
    fn last_pe_failure_kills_cluster() {
        let mut m = Machine::new(MachineConfig::clustered(1, 2, Topology::Bus));
        m.fail_pe(PeId::new(0, 0)).unwrap();
        let err = m.fail_pe(PeId::new(0, 1)).unwrap_err();
        assert_eq!(err, MachineError::ClusterDead(0));
        assert_eq!(m.pick_worker(0), None);
    }

    #[test]
    fn makespan_and_utilization() {
        let mut m = machine();
        m.charge(0, PeId::new(0, 1), CostClass::Flop, 25).unwrap(); // 100 cycles
        assert_eq!(m.makespan(), 100);
        assert_eq!(m.total_busy_cycles(), 100);
    }

    #[test]
    fn recovered_pe_rejoins_but_does_not_reclaim_kernel_duty() {
        let mut m = machine();
        m.fail_pe(PeId::new(0, 0)).unwrap();
        assert_eq!(m.kernel_pe(0), PeId::new(0, 1));
        m.recover_pe(5_000, PeId::new(0, 0)).unwrap();
        // Back in the worker pool, not back on kernel duty.
        assert_eq!(m.kernel_pe(0), PeId::new(0, 1));
        assert!(m.worker_pes(0).contains(&PeId::new(0, 0)));
        assert!(m.pe(PeId::new(0, 0)).unwrap().free_at >= 5_000);
        assert_eq!(m.reconfigurations, 2);
        // Recovering a healthy PE is a no-op.
        m.recover_pe(6_000, PeId::new(0, 0)).unwrap();
        assert_eq!(m.reconfigurations, 2);
    }

    #[test]
    fn recovery_revives_a_dead_cluster() {
        let mut m = Machine::new(MachineConfig::clustered(1, 2, Topology::Bus));
        m.fail_pe(PeId::new(0, 0)).unwrap();
        m.fail_pe(PeId::new(0, 1)).unwrap_err();
        m.recover_pe(1_000, PeId::new(0, 1)).unwrap();
        // The recovered PE takes kernel duty: the previous kernel PE is dead.
        assert_eq!(m.kernel_pe(0), PeId::new(0, 1));
        assert_eq!(m.pick_worker(0), Some(PeId::new(0, 1)));
    }

    #[test]
    fn dead_link_makes_transmit_fallible() {
        let mut m = machine();
        // 2-cluster crossbar: direct link 0 -> 1 is id 1; no intermediate
        // cluster exists, so the pair is unreachable.
        let dead = FaultKind::Link {
            link: 1,
            degrade: None,
        };
        assert_eq!(m.apply_fault(100, dead), Ok(0));
        assert_eq!(
            m.try_transmit(100, 0, 1, 16),
            Err(MachineError::ClusterUnreachable { from: 0, to: 1 })
        );
        // The reverse link is untouched.
        assert!(m.try_transmit(100, 1, 0, 16).is_ok());
        assert_eq!(m.reconfigurations, 1);
    }

    #[test]
    fn memory_bank_fault_reports_invalidated_words() {
        let mut m = machine();
        let cap = m.memory(0).capacity();
        m.alloc_at(0, 0, cap - 100).unwrap();
        let bank = FaultKind::Memory {
            cluster: 0,
            words: 200,
        };
        assert_eq!(m.apply_fault(500, bank), Ok(100));
        assert_eq!(m.memory(0).capacity(), cap - 200);
        assert_eq!(m.reconfigurations, 1);
    }

    #[test]
    fn machine_events_counts_charges_and_remote_transfers() {
        let mut m = machine();
        assert_eq!(m.events, 0);
        m.charge(0, PeId::new(0, 1), CostClass::Flop, 10).unwrap();
        m.transmit(0, 0, 1, 16); // remote: counts
        m.transmit(0, 1, 1, 16); // local: does not
        let _ = m.charge(0, PeId::new(9, 0), CostClass::Flop, 1); // error: does not
        assert_eq!(m.events, 2);
    }

    /// Cluster PE lanes allocate on first touch only; untouched clusters
    /// read as idle without materializing records.
    #[test]
    fn cluster_pe_lanes_allocate_lazily() {
        let mut m = Machine::new(MachineConfig::clustered(64, 8, Topology::Crossbar));
        assert_eq!(m.allocated_cluster_records(), 0);
        assert_eq!(m.pe(PeId::new(63, 7)).unwrap(), &Pe::IDLE);
        assert_eq!(m.pick_worker(63), Some(PeId::new(63, 1)));
        assert_eq!(m.alive_count(63), 8);
        assert_eq!(m.allocated_cluster_records(), 0, "reads do not allocate");
        m.charge(0, PeId::new(3, 1), CostClass::Flop, 10).unwrap();
        m.charge(0, PeId::new(3, 2), CostClass::Flop, 10).unwrap();
        m.fail_pe(PeId::new(9, 0)).unwrap();
        assert_eq!(
            m.allocated_cluster_records(),
            2,
            "one lane per touched cluster"
        );
        assert_eq!(m.makespan(), 40);
        assert_eq!(m.total_busy_cycles(), 80);
    }

    #[test]
    fn error_display() {
        let e = MachineError::NoSuchPe(PeId::new(1, 2));
        assert!(e.to_string().contains("PE(1,2)"));
        assert!(MachineError::ClusterDead(3)
            .to_string()
            .contains("cluster 3"));
    }
}
