//! Cluster-sharded conservative parallel DES.
//!
//! The FEM-2 machine is inherently partitioned: clusters interact only
//! through network messages, and every message needs at least one link
//! traversal — a known minimum latency. That minimum is a textbook
//! *conservative lookahead* bound: if the earliest pending event anywhere
//! is at time `t`, no cross-cluster interaction originated at or after `t`
//! can take effect before `t + lookahead`, so every cluster group may
//! advance independently to that horizon without risking a causality
//! violation.
//!
//! This module implements the barrier-epoch variant of the protocol:
//!
//! * [`ShardMap`] partitions the clusters into contiguous groups (shards),
//!   the same block mapping the navm task layer uses, so shard order is
//!   cluster order is task order;
//! * [`lookahead_horizon`] derives the horizon from the live network state
//!   ([`Network::min_delivery_latency`]): healthy links give the config's
//!   `link_latency` plus minimum occupancy per hop, degraded links widen
//!   the bound, detours around dead links widen it further, and repairs
//!   shrink it back. The caller recomputes it at every epoch boundary and
//!   caps epochs at scheduled fault times, so the bound in force is always
//!   the one the current latency graph justifies;
//! * [`ShardedSim`] advances one event queue per shard concurrently on the
//!   `fem2-par` pool, synchronizing at the horizon. Cross-shard events are
//!   buffered in per-shard outboxes and exchanged at the epoch barrier in
//!   deterministic merge order — source shard id, then timestamp, then
//!   source scheduling order — so results are byte-stable regardless of
//!   thread count, exactly like `par_sweep`'s input-order guarantee;
//! * [`ShardSection`] is the plate-scenario counterpart: a mutable view of
//!   one shard's PEs plus private counter/trace scratch, handed out by
//!   `Machine::run_sharded` so op-barrier workloads (the E1 path, which
//!   charges the machine directly instead of running an event loop) can
//!   charge all shards concurrently and merge bitwise-identically.
//!
//! The sequential calendar engine remains the oracle: a [`ShardedSim`]
//! with one shard *is* the plain `EventQueue` loop, and the proptests below
//! prove the N-shard run byte-identical to it.

use crate::budget::{AbortCause, BudgetMeter, RunAborted};
use crate::config::{DesQueue, MachineConfig};
use crate::network::Network;
use crate::pe::{best_worker, CostClass, Pe, PeId};
use crate::sim::EventQueue;
use crate::stats::PhaseCounters;
use crate::{machine::trace_cost_kind, Cycles, MachineError};
use fem2_par::Pool;
use fem2_trace::{EventKind, TraceEvent};
use std::ops::Range;

/// Contiguous block mapping of clusters onto shards.
///
/// `shard_of` is monotone in the cluster index, so each shard owns a
/// contiguous cluster range and concatenating per-shard results in shard
/// order reproduces sequential cluster order. Shard counts are clamped to
/// the cluster count (a shard must own at least one cluster).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardMap {
    clusters: u32,
    shards: u32,
}

impl ShardMap {
    /// A map of `clusters` onto `shards` groups (clamped to `1..=clusters`).
    ///
    /// # Panics
    /// Panics if `clusters` is zero.
    pub fn new(clusters: u32, shards: u32) -> Self {
        assert!(clusters >= 1, "a machine has at least one cluster");
        ShardMap {
            clusters,
            shards: shards.clamp(1, clusters),
        }
    }

    /// The map a machine configuration asks for (`des_shards` clamped to
    /// the cluster count).
    pub fn for_config(cfg: &MachineConfig) -> Self {
        Self::new(cfg.clusters, cfg.des_shards)
    }

    /// Number of clusters.
    pub fn clusters(&self) -> u32 {
        self.clusters
    }

    /// Number of shards (≥ 1, ≤ clusters).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Whether more than one shard exists.
    pub fn is_sharded(&self) -> bool {
        self.shards > 1
    }

    /// The shard owning `cluster`. Monotone in `cluster`.
    pub fn shard_of(&self, cluster: u32) -> u32 {
        debug_assert!(cluster < self.clusters);
        ((u64::from(cluster) * u64::from(self.shards)) / u64::from(self.clusters)) as u32
    }

    /// The contiguous cluster range owned by `shard`. Never empty.
    pub fn clusters_of(&self, shard: u32) -> Range<u32> {
        debug_assert!(shard < self.shards);
        let n = u64::from(self.clusters);
        let s = u64::from(self.shards);
        let lo = (u64::from(shard) * n).div_ceil(s) as u32;
        let hi = ((u64::from(shard) + 1) * n).div_ceil(s) as u32;
        lo..hi
    }
}

/// Cluster count up to which [`lookahead_horizon`] runs the exact
/// pairwise scan. Beyond it the O(n²) scan would dominate epoch turnover,
/// so large machines use the analytic healthy floor instead.
const EXACT_LOOKAHEAD_SCAN_LIMIT: u32 = 64;

/// The minimum hop count between any two *distinct* clusters of a
/// topology: 1 everywhere except the fat tree, whose closest pair turns
/// around at an edge switch (2 hops).
fn min_remote_hops(topology: &crate::config::Topology) -> u32 {
    match topology {
        crate::config::Topology::FatTree { .. } => 2,
        _ => 1,
    }
}

/// The conservative lookahead horizon for `map` under the network's
/// current fault state.
///
/// On machines of up to [`EXACT_LOOKAHEAD_SCAN_LIMIT`] clusters this is
/// the minimum, over ordered cluster pairs in *different* shards, of a
/// lower bound on message delivery latency
/// ([`Network::min_delivery_latency`]). Pairs with no live route
/// contribute nothing (they cannot interact at all); if every cross-shard
/// pair is unreachable the horizon is [`Cycles::MAX`] and shards free-run
/// to the next externally imposed barrier (e.g. a scheduled fault).
///
/// Larger machines use the analytic healthy floor
/// ([`Network::healthy_latency_floor`]) over the topology's minimum
/// remote hop count, which costs O(1) instead of O(n²) pairs. The floor
/// is always ≤ the exact scan — faults only lengthen routes — and *any*
/// positive lower bound on cross-shard delay yields the same
/// bitwise-identical results (a smaller horizon only costs extra barrier
/// epochs), so the switchover is invisible to outcomes.
///
/// The result is never zero.
///
/// Validity: the bound is derived from the *current* latency graph, so it
/// holds only while link state is constant. Callers recompute it at every
/// epoch boundary and must cap the epoch at the next scheduled fault or
/// repair time.
pub fn lookahead_horizon(net: &Network, map: &ShardMap) -> Cycles {
    if !map.is_sharded() {
        // No cross-shard pair exists; free-run like the all-unreachable
        // case of the pairwise scan.
        return Cycles::MAX;
    }
    if map.clusters() > EXACT_LOOKAHEAD_SCAN_LIMIT {
        return net.healthy_latency_floor(min_remote_hops(net.topology()));
    }
    let mut min = Cycles::MAX;
    for a in 0..map.clusters() {
        for b in 0..map.clusters() {
            if a == b || map.shard_of(a) == map.shard_of(b) {
                continue;
            }
            if let Some(lat) = net.min_delivery_latency(a, b) {
                min = min.min(lat);
            }
        }
    }
    min.max(1)
}

/// A cross-shard event parked until the epoch barrier.
struct Outgoing<E> {
    at: Cycles,
    cluster: u32,
    ev: E,
}

/// One shard's lane: its event queue, caller state, and outbox.
struct Lane<E, S> {
    queue: EventQueue<E>,
    state: S,
    outbox: Vec<Outgoing<E>>,
}

/// The per-shard scheduling context handed to [`ShardedSim`] handlers.
///
/// Local events go straight into the shard's queue; cross-shard events are
/// parked in the outbox for the epoch barrier. The conservative contract —
/// a cross-shard event must not land inside the current epoch — is
/// asserted, so a handler whose delays undercut the declared horizon fails
/// loudly instead of silently diverging from the oracle.
pub struct ShardCtx<'a, E> {
    shard: u32,
    map: ShardMap,
    epoch_end: Cycles,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<Outgoing<E>>,
}

impl<E> ShardCtx<'_, E> {
    /// This shard's id.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The shard's local clock (time of its last dispatched event).
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Exclusive upper bound of the current epoch.
    pub fn epoch_end(&self) -> Cycles {
        self.epoch_end
    }

    /// Schedule `ev` for `cluster` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `cluster` belongs to another shard and `at` is inside the
    /// current epoch — that would violate the lookahead bound the epoch
    /// was derived from.
    pub fn schedule(&mut self, at: Cycles, cluster: u32, ev: E) {
        if self.map.shard_of(cluster) == self.shard {
            self.queue.schedule(at, ev);
        } else {
            assert!(
                at >= self.epoch_end,
                "cross-shard event at {at} lands inside the current epoch \
                 (end {}): the declared lookahead horizon is not a valid \
                 lower bound on cross-shard delays",
                self.epoch_end
            );
            self.outbox.push(Outgoing { at, cluster, ev });
        }
    }
}

/// A barrier-epoch conservative parallel discrete-event engine.
///
/// Events are addressed to clusters; [`ShardMap`] routes each cluster to a
/// shard with its own [`EventQueue`] (calendar or heap, per `des_queue`).
/// [`ShardedSim::run`] repeats: find the globally earliest pending event
/// time `t_min`, ask the caller for the epoch bound (typically
/// `t_min + lookahead_horizon(..)`, capped at the next scheduled fault),
/// advance every shard concurrently to that bound, then exchange outboxes
/// at the barrier in (source shard, timestamp, source order) order.
///
/// With one shard the loop degenerates to the sequential engine — the
/// oracle the proptests compare against.
pub struct ShardedSim<E, S> {
    map: ShardMap,
    lanes: Vec<Lane<E, S>>,
    epochs: u64,
}

impl<E, S> ShardedSim<E, S> {
    /// An engine over `map` with the given queue backend and one state per
    /// shard.
    ///
    /// # Panics
    /// Panics unless `states.len() == map.shards()`.
    pub fn with_states(map: ShardMap, backend: DesQueue, states: Vec<S>) -> Self {
        assert_eq!(
            states.len(),
            map.shards() as usize,
            "one state per shard required"
        );
        ShardedSim {
            map,
            lanes: states
                .into_iter()
                .map(|state| Lane {
                    queue: EventQueue::with_backend(backend),
                    state,
                    outbox: Vec::new(),
                })
                .collect(),
            epochs: 0,
        }
    }

    /// An engine with default per-shard states.
    pub fn new(map: ShardMap, backend: DesQueue) -> Self
    where
        S: Default,
    {
        let states = (0..map.shards()).map(|_| S::default()).collect();
        Self::with_states(map, backend, states)
    }

    /// The cluster-to-shard mapping.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Barrier epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.lanes.iter().map(|l| l.queue.events_processed()).sum()
    }

    /// The global clock: the latest time any shard has advanced to.
    pub fn now(&self) -> Cycles {
        self.lanes.iter().map(|l| l.queue.now()).max().unwrap_or(0)
    }

    /// The earliest pending event time across all shards.
    pub fn next_time(&self) -> Option<Cycles> {
        self.lanes.iter().filter_map(|l| l.queue.next_time()).min()
    }

    /// Total pending events across all shards.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// True when no events are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A shard's caller state.
    pub fn state(&self, shard: u32) -> &S {
        &self.lanes[shard as usize].state
    }

    /// The per-shard states, in shard order.
    pub fn into_states(self) -> Vec<S> {
        self.lanes.into_iter().map(|l| l.state).collect()
    }

    /// Seed an event for `cluster` at absolute time `at`. Seeding order is
    /// preserved within each shard, so the same seed sequence produces the
    /// same run for every shard count.
    pub fn schedule(&mut self, at: Cycles, cluster: u32, ev: E) {
        let lane = self.map.shard_of(cluster) as usize;
        self.lanes[lane].queue.schedule(at, ev);
    }

    /// Run until no events remain. `epoch_end` maps the earliest pending
    /// time to the epoch's exclusive bound — compute it from the machine
    /// config (e.g. `t + lookahead_horizon(net, map)`), never hard-code
    /// it, and cap it at the next scheduled fault time so the latency
    /// graph is constant within the epoch. With `pool` given and more than
    /// one shard, shards advance concurrently; results are identical
    /// either way.
    pub fn run<H, F>(&mut self, pool: Option<&Pool>, mut epoch_end: H, handler: F)
    where
        E: Send,
        S: Send,
        H: FnMut(Cycles) -> Cycles,
        F: Fn(&mut ShardCtx<'_, E>, &mut S, Cycles, E) + Sync,
    {
        while let Some(t_min) = self.next_time() {
            let end = epoch_end(t_min).max(t_min.saturating_add(1));
            self.advance_epoch(pool, end, &handler);
        }
    }

    /// Budgeted [`ShardedSim::run`]. Cycle budgets abort at exactly the
    /// sequential abort point: no event past the budget is ever
    /// dispatched (the epoch bound is capped at `max_sim_cycles + 1`) and
    /// the abort fires when the earliest pending event exceeds the
    /// budget. Event-count budgets are enforced at epoch granularity —
    /// deterministic for a fixed shard count, but an epoch may finish
    /// dispatching before the overrun is observed.
    pub fn run_budgeted<H, F>(
        &mut self,
        pool: Option<&Pool>,
        meter: &BudgetMeter,
        mut epoch_end: H,
        handler: F,
    ) -> Result<(), RunAborted>
    where
        E: Send,
        S: Send,
        H: FnMut(Cycles) -> Cycles,
        F: Fn(&mut ShardCtx<'_, E>, &mut S, Cycles, E) + Sync,
    {
        while let Some(t_min) = self.next_time() {
            meter.check(t_min, self.events_processed() + 1)?;
            let mut end = epoch_end(t_min).max(t_min.saturating_add(1));
            if let Some(max) = meter.budget().max_sim_cycles {
                end = end.min(max.saturating_add(1));
            }
            self.advance_epoch(pool, end, &handler);
            if let Some(max) = meter.budget().max_des_events {
                let events = self.events_processed();
                if events > max {
                    return Err(RunAborted {
                        cause: AbortCause::EventsExceeded,
                        sim_cycles: self.now(),
                        des_events: events,
                    });
                }
            }
        }
        Ok(())
    }

    /// Advance every shard to `end` (exclusive), then exchange outboxes.
    fn advance_epoch<F>(&mut self, pool: Option<&Pool>, end: Cycles, handler: &F)
    where
        E: Send,
        S: Send,
        F: Fn(&mut ShardCtx<'_, E>, &mut S, Cycles, E) + Sync,
    {
        let map = self.map;
        let advance = |shard: usize, lane: &mut Lane<E, S>| {
            while lane.queue.next_time().is_some_and(|t| t < end) {
                let (at, ev) = lane.queue.pop().expect("next_time returned Some");
                let mut ctx = ShardCtx {
                    shard: shard as u32,
                    map,
                    epoch_end: end,
                    queue: &mut lane.queue,
                    outbox: &mut lane.outbox,
                };
                handler(&mut ctx, &mut lane.state, at, ev);
            }
        };
        match pool {
            Some(pool) if self.map.is_sharded() => {
                fem2_par::each_mut(pool, &mut self.lanes, |i, lane| advance(i, lane));
            }
            _ => {
                for (i, lane) in self.lanes.iter_mut().enumerate() {
                    advance(i, lane);
                }
            }
        }
        self.epochs += 1;
        self.deliver_outboxes();
    }

    /// The epoch barrier: deliver every parked cross-shard event, in
    /// (source shard, timestamp, source scheduling order) order. The sort
    /// is stable, so same-timestamp events from one shard keep the order
    /// their senders scheduled them in — the exact analogue of the
    /// sequential engine's FIFO tie-break.
    fn deliver_outboxes(&mut self) {
        for src in 0..self.lanes.len() {
            let mut out = std::mem::take(&mut self.lanes[src].outbox);
            out.sort_by_key(|o| o.at);
            for o in out.drain(..) {
                let dest = self.map.shard_of(o.cluster) as usize;
                self.lanes[dest].queue.schedule(o.at, o.ev);
            }
            // Hand the drained buffer back so steady-state epochs allocate
            // nothing.
            self.lanes[src].outbox = out;
        }
    }
}

/// A mutable view of one shard's slice of the machine, for op-barrier
/// workloads (the plate path) that charge PEs directly instead of running
/// an event loop.
///
/// Handed out by `Machine::run_sharded`, which splits the cluster-major PE
/// array into per-shard slices. Charges mirror `Machine::charge` exactly
/// — same start/completion arithmetic, same counter increments — but land
/// in private scratch (counters, buffered trace events, event count) that
/// the machine folds back in shard order afterwards, so a sharded section
/// is bitwise-identical to the sequential one.
pub struct ShardSection<'m> {
    /// This shard's contiguous slice of the machine's per-cluster PE
    /// lanes; `None` lanes read as idle and materialize on first charge.
    lanes: &'m mut [Option<Box<[Pe]>>],
    first_cluster: u32,
    config: &'m MachineConfig,
    kernel_pe: &'m [u32],
    trace_on: bool,
    pub(crate) counters: PhaseCounters,
    pub(crate) trace_buf: Vec<TraceEvent>,
    pub(crate) events: u64,
}

impl<'m> ShardSection<'m> {
    pub(crate) fn new(
        lanes: &'m mut [Option<Box<[Pe]>>],
        first_cluster: u32,
        config: &'m MachineConfig,
        kernel_pe: &'m [u32],
        trace_on: bool,
    ) -> Self {
        ShardSection {
            lanes,
            first_cluster,
            config,
            kernel_pe,
            trace_on,
            counters: PhaseCounters::default(),
            trace_buf: Vec::new(),
            events: 0,
        }
    }

    /// First cluster this section owns.
    pub fn first_cluster(&self) -> u32 {
        self.first_cluster
    }

    /// Number of clusters this section owns.
    pub fn cluster_count(&self) -> u32 {
        self.lanes.len() as u32
    }

    fn local(&self, pe: PeId) -> Result<usize, MachineError> {
        let local = pe.cluster.wrapping_sub(self.first_cluster);
        if local >= self.cluster_count() || pe.index >= self.config.pes_per_cluster {
            return Err(MachineError::NoSuchPe(pe));
        }
        Ok(local as usize)
    }

    /// The current kernel PE of cluster `c`.
    pub fn kernel_pe(&self, c: u32) -> PeId {
        PeId::new(c, self.kernel_pe[c as usize])
    }

    /// Earliest-free eligible worker PE of cluster `c`: the same scan as
    /// `Machine::pick_worker`. `None` if the cluster is dead.
    pub fn pick_worker(&self, c: u32) -> Option<PeId> {
        let local = c.wrapping_sub(self.first_cluster) as usize;
        best_worker(
            self.lanes[local].as_deref(),
            self.config.pes_per_cluster,
            self.kernel_pe[c as usize],
            self.config.dedicated_kernel_pe,
            |p| Some(p.free_at),
        )
        .map(|i| PeId::new(c, i))
    }

    /// Charge `count` units of `class` to `pe`; mirrors `Machine::charge`.
    pub fn charge(
        &mut self,
        now: Cycles,
        pe: PeId,
        class: CostClass,
        count: u64,
    ) -> Result<Cycles, MachineError> {
        let local = self.local(pe)?;
        let ppc = self.config.pes_per_cluster as usize;
        let lane = self.lanes[local].get_or_insert_with(|| vec![Pe::IDLE; ppc].into_boxed_slice());
        let state = &mut lane[pe.index as usize];
        if state.failed {
            return Err(MachineError::PeFailed(pe));
        }
        match class {
            CostClass::Flop => self.counters.flops += count,
            CostClass::IntOp => self.counters.int_ops += count,
            CostClass::MemWord => self.counters.mem_words += count,
            CostClass::TaskCreate => self.counters.tasks_created += count,
            _ => {}
        }
        let start = state.free_at.max(now);
        let done = state.charge(now, class, count, &self.config.cost);
        if self.trace_on {
            self.trace_buf.push(TraceEvent::span(
                start,
                done - start,
                pe.cluster,
                pe.index,
                EventKind::PeBusy {
                    cost: trace_cost_kind(class),
                    count,
                },
            ));
        }
        self.events += 1;
        Ok(done)
    }

    /// Buffer a caller-built trace event (e.g. task lifecycle instants),
    /// preserving its position between this section's charges. The closure
    /// runs only when tracing is live, like `TraceHandle::emit`.
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.trace_on {
            self.trace_buf.push(f());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use proptest::prelude::*;

    // ---- ShardMap ----

    #[test]
    fn shard_map_clamps_and_partitions() {
        let m = ShardMap::new(4, 8);
        assert_eq!(m.shards(), 4, "clamped to cluster count");
        let m = ShardMap::new(4, 0);
        assert_eq!(m.shards(), 1, "at least one shard");
        let m = ShardMap::new(6, 4);
        let owned: Vec<u32> = (0..4).flat_map(|s| m.clusters_of(s)).collect();
        assert_eq!(owned, vec![0, 1, 2, 3, 4, 5], "contiguous full cover");
    }

    proptest! {
        /// `clusters_of` tiles the cluster range contiguously, every shard
        /// is non-empty, and `shard_of` agrees with the tiling.
        #[test]
        fn shard_map_is_a_contiguous_partition(
            clusters in 1u32..64,
            shards in 0u32..80,
        ) {
            let m = ShardMap::new(clusters, shards);
            prop_assert!(m.shards() >= 1 && m.shards() <= clusters);
            let mut next = 0u32;
            for s in 0..m.shards() {
                let r = m.clusters_of(s);
                prop_assert_eq!(r.start, next, "contiguous");
                prop_assert!(r.end > r.start, "non-empty shard");
                for c in r.clone() {
                    prop_assert_eq!(m.shard_of(c), s);
                }
                next = r.end;
            }
            prop_assert_eq!(next, clusters, "full cover");
        }
    }

    // ---- lookahead ----

    fn net(topology: Topology, clusters: u32) -> Network {
        let mut c = MachineConfig::fem2_default();
        c.topology = topology;
        c.clusters = clusters;
        Network::new(&c)
    }

    #[test]
    fn lookahead_tracks_link_state() {
        let map = ShardMap::new(4, 2);
        let mut n = net(Topology::Crossbar, 4);
        // Healthy crossbar: one hop of minimum occupancy 1 + latency 20.
        assert_eq!(lookahead_horizon(&n, &map), 21);
        // Degrading one cross-shard link does not change the min (other
        // pairs still healthy) ...
        n.degrade_link(2, 8); // link 0 -> 2
        assert_eq!(lookahead_horizon(&n, &map), 21);
        // ... but degrading is visible through the pairwise bound itself.
        assert_eq!(n.min_delivery_latency(0, 2), Some(8 + 20));
        // Killing the 0 -> 2 link forces a detour: the pair's bound grows;
        // the global min is still another healthy pair's 21.
        n.fail_link(2);
        assert!(n.min_delivery_latency(0, 2).unwrap() > 21);
        assert_eq!(lookahead_horizon(&n, &map), 21);
        // Repair snaps the pair back to the primary-path bound.
        n.recover_link(2);
        assert_eq!(n.min_delivery_latency(0, 2), Some(21));
    }

    #[test]
    fn lookahead_shrinks_and_restores_across_fault_and_repair() {
        // 2 clusters, 1 link each way: with the only cross-shard links
        // dead, the shards cannot interact and the horizon is unbounded.
        let map = ShardMap::new(2, 2);
        let mut n = net(Topology::Crossbar, 2);
        let healthy = lookahead_horizon(&n, &map);
        assert_eq!(healthy, 21);
        n.fail_link(1); // 0 -> 1
        n.fail_link(2); // 1 -> 0
        assert_eq!(lookahead_horizon(&n, &map), Cycles::MAX);
        n.recover_link(1);
        n.recover_link(2);
        assert_eq!(lookahead_horizon(&n, &map), healthy);
    }

    #[test]
    fn lookahead_counts_hops_on_multihop_topologies() {
        // Ring of 8 split in two: nearest cross-shard pair is 1 hop; the
        // bound is per-hop latency + min occupancy.
        let map = ShardMap::new(8, 2);
        let n = net(Topology::Ring, 8);
        assert_eq!(lookahead_horizon(&n, &map), 21);
        // 8 shards of 1: same nearest-neighbour bound.
        let map = ShardMap::new(8, 8);
        assert_eq!(lookahead_horizon(&n, &map), 21);
    }

    // ---- generic engine: oracle equivalence ----

    /// Workload constants. Times embed the (globally unique) event id in
    /// their low bits so every event time is distinct — the discipline
    /// that makes the global dispatch order of the sequential oracle
    /// directly comparable to the merged shard logs. (Real machine
    /// workloads get their determinism from the richer plate/kernel
    /// contracts; the engine test isolates the protocol itself.)
    const STRIDE: u64 = 1 << 20;
    const HORIZON: u64 = 3 * STRIDE + 123;
    const ID_OFFSET: u64 = 100_000;

    /// A sharded sim whose events are `(cluster, id)` pairs and whose
    /// per-shard state is a dispatch log.
    type LogSim = ShardedSim<(u32, u64), Vec<(Cycles, u32, u64)>>;
    const MAX_GENERATIONS: u64 = 5;

    /// Deterministic cascade rule shared by the oracle and the shards:
    /// event `id` at `at` on `cluster` spawns one child on a derived
    /// cluster at a time ≥ `at + HORIZON` (so cross-shard sends always
    /// clear any epoch bound), with the child's unique id in the low bits.
    fn cascade(nclusters: u32, at: Cycles, id: u64) -> Option<(Cycles, u32, u64)> {
        if id >= MAX_GENERATIONS * ID_OFFSET {
            return None;
        }
        let child = id + ID_OFFSET;
        let cluster = (child % u64::from(nclusters)) as u32;
        let base = (at + HORIZON).div_ceil(STRIDE) * STRIDE;
        Some((base + child % STRIDE, cluster, child))
    }

    /// Seeds: (slot, id) pairs; the workload schedules id at
    /// `slot * STRIDE + id` on cluster `id % nclusters`.
    fn run_oracle(nclusters: u32, seeds: &[(u64, u64)]) -> (Vec<(Cycles, u32, u64)>, u64, Cycles) {
        let mut q: EventQueue<(u32, u64)> = EventQueue::new();
        for &(slot, id) in seeds {
            let cluster = (id % u64::from(nclusters)) as u32;
            q.schedule(slot * STRIDE + id % STRIDE, (cluster, id));
        }
        let mut log = Vec::new();
        while let Some((at, (cluster, id))) = q.pop() {
            log.push((at, cluster, id));
            if let Some((cat, cc, cid)) = cascade(nclusters, at, id) {
                q.schedule(cat, (cc, cid));
            }
        }
        (log, q.events_processed(), q.now())
    }

    fn run_sharded(
        nclusters: u32,
        shards: u32,
        backend: DesQueue,
        pool: Option<&Pool>,
        seeds: &[(u64, u64)],
    ) -> (Vec<(Cycles, u32, u64)>, u64, Cycles) {
        let map = ShardMap::new(nclusters, shards);
        let mut sim: LogSim = ShardedSim::new(map, backend);
        for &(slot, id) in seeds {
            let cluster = (id % u64::from(nclusters)) as u32;
            sim.schedule(slot * STRIDE + id % STRIDE, cluster, (cluster, id));
        }
        sim.run(
            pool,
            |t| t.saturating_add(HORIZON),
            |ctx, log, at, (cluster, id)| {
                log.push((at, cluster, id));
                if let Some((cat, cc, cid)) = cascade(nclusters, at, id) {
                    ctx.schedule(cat, cc, (cc, cid));
                }
            },
        );
        let events = sim.events_processed();
        let now = sim.now();
        let mut log: Vec<(Cycles, u32, u64)> = sim.into_states().into_iter().flatten().collect();
        log.sort_by_key(|&(at, _, _)| at);
        (log, events, now)
    }

    proptest! {
        /// The sharded engine is identical to the sequential oracle for
        /// every shard count and both queue backends: same dispatched
        /// (time, cluster, id) stream, same event count, same final clock.
        #[test]
        fn sharded_matches_sequential_oracle(
            nclusters in 1u32..9,
            seeds in proptest::collection::vec((0u64..8, 0u64..ID_OFFSET), 1..40),
        ) {
            let expected = run_oracle(nclusters, &seeds);
            for shards in [1, 2, 3, 4, 8] {
                for backend in [DesQueue::Calendar, DesQueue::Heap] {
                    let got = run_sharded(nclusters, shards, backend, None, &seeds);
                    prop_assert_eq!(&got, &expected, "shards={} backend={:?}", shards, backend);
                }
            }
        }

        /// A cycle-budgeted sharded run aborts at exactly the sequential
        /// abort point: same cause, same clock, same dispatched prefix.
        #[test]
        fn sharded_budget_abort_matches_sequential(
            nclusters in 1u32..9,
            seeds in proptest::collection::vec((0u64..8, 0u64..ID_OFFSET), 1..24),
            budget_slots in 0u64..40,
        ) {
            let max_cycles = budget_slots * STRIDE / 2;
            let run = |shards: u32| {
                let map = ShardMap::new(nclusters, shards);
                let mut sim: LogSim =
                    ShardedSim::new(map, DesQueue::Calendar);
                for &(slot, id) in &seeds {
                    let cluster = (id % u64::from(nclusters)) as u32;
                    sim.schedule(slot * STRIDE + id % STRIDE, cluster, (cluster, id));
                }
                let meter = crate::budget::RunBudget::max_cycles(max_cycles).start();
                let out = sim.run_budgeted(
                    None,
                    &meter,
                    |t| t.saturating_add(HORIZON),
                    |ctx, log: &mut Vec<(Cycles, u32, u64)>, at, (cluster, id)| {
                        log.push((at, cluster, id));
                        if let Some((cat, cc, cid)) = cascade(nclusters, at, id) {
                            ctx.schedule(cat, cc, (cc, cid));
                        }
                    },
                );
                let events = sim.events_processed();
                let now = sim.now();
                let mut log: Vec<(Cycles, u32, u64)> =
                    sim.into_states().into_iter().flatten().collect();
                log.sort_by_key(|&(at, _, _)| at);
                (out, log, events, now)
            };
            let sequential = run(1);
            for shards in [2, 4] {
                prop_assert_eq!(&run(shards), &sequential, "shards={}", shards);
            }
            if let Err(abort) = &sequential.0 {
                prop_assert_eq!(abort.cause, AbortCause::CyclesExceeded);
                prop_assert!(sequential.3 <= max_cycles, "clock never passes the budget");
            }
        }
    }

    /// Pool-driven epoch advance is byte-stable across thread counts and
    /// identical to the unpooled run.
    #[test]
    fn pooled_runs_match_across_thread_counts() {
        let seeds: Vec<(u64, u64)> = (0..32).map(|i| (i % 7, i * 31 % ID_OFFSET)).collect();
        let reference = run_sharded(8, 4, DesQueue::Calendar, None, &seeds);
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let got = run_sharded(8, 4, DesQueue::Calendar, Some(&pool), &seeds);
            assert_eq!(got, reference, "threads={threads}");
        }
        assert_eq!(reference, run_oracle(8, &seeds));
    }

    /// A mid-run link fault mutates the latency graph; the epoch-bound
    /// closure recomputes the horizon and caps epochs at the fault time,
    /// and results stay identical to the 1-shard oracle throughout the
    /// death and the repair.
    #[test]
    fn horizon_recomputed_across_link_death_and_repair() {
        let nclusters = 4u32;
        let seeds: Vec<(u64, u64)> = (0..24).map(|i| (i % 5, i * 17 % ID_OFFSET)).collect();
        let fail_at = 6 * STRIDE;
        let recover_at = 12 * STRIDE;
        let run = |shards: u32| {
            let map = ShardMap::new(nclusters, shards);
            let mut network = net(Topology::Crossbar, nclusters);
            let mut sim: LogSim = ShardedSim::new(map, DesQueue::Calendar);
            for &(slot, id) in &seeds {
                let cluster = (id % u64::from(nclusters)) as u32;
                sim.schedule(slot * STRIDE + id % STRIDE, cluster, (cluster, id));
            }
            sim.run(
                None,
                |t| {
                    // Apply scheduled faults once the clock reaches them,
                    // then bound the epoch by the *current* lookahead and
                    // the next pending transition.
                    if t >= fail_at {
                        network.degrade_link(1, 16);
                    }
                    if t >= recover_at {
                        network.recover_link(1);
                    }
                    let horizon = lookahead_horizon(&network, &map);
                    let end = t.saturating_add(horizon.max(HORIZON));
                    let next_fault = [fail_at, recover_at]
                        .into_iter()
                        .find(|&f| f > t)
                        .unwrap_or(Cycles::MAX);
                    end.min(next_fault.max(t + 1))
                },
                |ctx, log, at, (cluster, id)| {
                    log.push((at, cluster, id));
                    if let Some((cat, cc, cid)) = cascade(nclusters, at, id) {
                        ctx.schedule(cat, cc, (cc, cid));
                    }
                },
            );
            let events = sim.events_processed();
            let mut log: Vec<(Cycles, u32, u64)> =
                sim.into_states().into_iter().flatten().collect();
            log.sort_by_key(|&(at, _, _)| at);
            (log, events)
        };
        let one = run(1);
        assert!(!one.0.is_empty());
        for shards in [2, 4] {
            assert_eq!(run(shards), one, "shards={shards}");
        }
    }

    /// The conservative contract is enforced: a cross-shard event inside
    /// the epoch panics instead of silently corrupting causality.
    #[test]
    #[should_panic(expected = "lookahead horizon")]
    fn undershooting_cross_shard_delay_panics() {
        let map = ShardMap::new(2, 2);
        let mut sim: ShardedSim<u64, ()> =
            ShardedSim::with_states(map, DesQueue::Calendar, vec![(), ()]);
        sim.schedule(0, 0, 1);
        sim.run(
            None,
            |t| t.saturating_add(1000),
            |ctx, (), at, _| {
                // Cluster 1 is the other shard; `at + 1` is inside the
                // epoch.
                ctx.schedule(at + 1, 1, 99);
            },
        );
    }

    /// Epochs actually happen: a two-shard ping-pong takes one barrier per
    /// horizon-separated exchange rather than free-running.
    #[test]
    fn epoch_counter_advances_with_barriers() {
        let map = ShardMap::new(2, 2);
        let mut sim: ShardedSim<u64, ()> =
            ShardedSim::with_states(map, DesQueue::Calendar, vec![(), ()]);
        sim.schedule(0, 0, 0);
        sim.run(
            None,
            |t| t.saturating_add(100),
            |ctx, (), at, hop| {
                if hop < 6 {
                    // Bounce to the other shard, one horizon later.
                    let dest = 1 - (hop % 2) as u32;
                    ctx.schedule(at + 100, dest, hop + 1);
                }
            },
        );
        assert_eq!(sim.events_processed(), 7);
        assert!(sim.epochs() >= 7, "each hop needs its own epoch");
    }
}
