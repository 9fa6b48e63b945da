//! The assembled machine: PEs, cluster memories, network, stats, and fault
//! handling behind one facade.

use crate::config::MachineConfig;
use crate::fault::FaultKind;
use crate::memory::{ClusterMemory, OutOfMemory};
use crate::network::{Network, Tracked};
use crate::pe::{best_worker, CostClass, Pe, PeId, WorkProfile};
use crate::stats::Stats;
use crate::{Cycles, Words};
use fem2_trace::{EventKind, TraceEvent, TraceHandle, NO_CLUSTER, NO_PE};
use std::fmt;

/// The trace-vocabulary equivalent of a [`CostClass`].
pub fn trace_cost_kind(class: CostClass) -> fem2_trace::CostKind {
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
    lanes: Vec<Option<Box<[Pe]>>>,
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
        let ppc = self.config.pes_per_cluster as usize;
        let lane = self.lanes[pe.cluster as usize]
            .get_or_insert_with(|| vec![Pe::IDLE; ppc].into_boxed_slice());
        &mut lane[pe.index as usize]
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
    /// charges nothing.
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
        self.stats.task_work(work);
        let cost = self.config.cost;
        let steps = [
            (CostClass::ContextSwitch, 1),
            (CostClass::IntOp, work.int_ops),
            (CostClass::MemWord, work.mem_words),
            (CostClass::Flop, work.flops),
        ];
        let state = self.pe_state_mut(pe);
        let mut spans = [(0, 0); 4];
        for (span, &(class, count)) in spans.iter_mut().zip(&steps) {
            let start = state.free_at.max(now);
            *span = (start, state.charge(now, class, count, &cost));
        }
        if self.trace.is_enabled() {
            for (&(start, done), &(class, count)) in spans.iter().zip(&steps) {
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
            }
        }
        self.events += 4;
        Ok(spans[3].1)
    }

    /// Allocate `words` in cluster `c`'s shared memory.
    pub fn alloc(&mut self, c: u32, words: Words) -> Result<(), MachineError> {
        self.alloc_at(0, c, words)
    }

    /// Like [`Machine::alloc`], stamping the trace event with simulated time
    /// `now` (callers that know the clock should prefer this).
    pub fn alloc_at(&mut self, now: Cycles, c: u32, words: Words) -> Result<(), MachineError> {
        self.memories[c as usize].alloc(words)?;
        let in_use = self.memories[c as usize].used();
        self.trace
            .emit(|| TraceEvent::instant(now, c, NO_PE, EventKind::Alloc { words, in_use }));
        Ok(())
    }

    /// Free `words` in cluster `c`'s shared memory.
    pub fn free(&mut self, c: u32, words: Words) {
        self.free_at(0, c, words);
    }

    /// Like [`Machine::free`], stamping the trace event with simulated time
    /// `now`.
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
    /// [`MachineError::ClusterUnreachable`] when no live route exists.
    pub fn try_transmit(
        &mut self,
        now: Cycles,
        from: u32,
        to: u32,
        words: Words,
    ) -> Result<Cycles, MachineError> {
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
        let packets_before = self.network.packets;
        let sent = self.network.transmit_tracked(now, from, to, words);
        if let Some((t, _)) = sent.arrival {
            self.record_transfer(now, t, from, to, words, packets_before);
        }
        sent
    }

    /// Account one remote transfer that arrived at `t`.
    fn record_transfer(
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
    /// lowest-indexed survivor. Returns [`MachineError::ClusterDead`] if no
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
    pub fn recover_pe(&mut self, at: Cycles, pe: PeId) -> Result<(), MachineError> {
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
    /// rebuilds them), or the error of a PE step — [`MachineError::ClusterDead`]
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

    /// Machine utilization over `[0, horizon]`: mean PE busy fraction,
    /// counting only surviving PEs. PEs in untouched clusters are alive
    /// and idle, so they dilute the mean exactly as dense state did.
    pub fn utilization(&self, horizon: Cycles) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        let mut failed = 0u64;
        let mut sum = 0.0;
        for lane in self.lanes.iter().flatten() {
            for p in lane.iter() {
                if p.failed {
                    failed += 1;
                } else {
                    sum += p.utilization(horizon);
                }
            }
        }
        let alive = u64::from(self.config.total_pes()) - failed;
        if alive == 0 {
            return 0.0;
        }
        sum / alive as f64
    }
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

    /// Every PE's state, the stats table, the event count and the
    /// recorded trace bytes.
    fn observe(m: &Machine, rec: &fem2_trace::SharedRecorder) -> (Vec<Pe>, String, u64, Vec<u8>) {
        let pes = (0..m.config.clusters)
            .flat_map(|c| m.cluster_pes(c))
            .map(|pe| *m.pe(pe).unwrap())
            .collect();
        let trace = rec.lock().unwrap().encode();
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
        m.alloc(0, 1000).unwrap();
        m.alloc(1, 500).unwrap();
        m.free(0, 400);
        assert_eq!(m.memory(0).used(), 600);
        assert_eq!(m.peak_memory(), 1000);
        assert_eq!(m.total_memory_high_water(), 1500);
        let cap = m.memory(0).capacity();
        assert!(matches!(m.alloc(0, cap), Err(MachineError::OutOfMemory(_))));
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
        // 1 of 8 PEs busy half of a 200-cycle horizon.
        let u = m.utilization(200);
        assert!((u - 0.5 / 8.0).abs() < 1e-12, "u = {u}");
        assert_eq!(m.utilization(0), 0.0);
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
        m.alloc(0, cap - 100).unwrap();
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
