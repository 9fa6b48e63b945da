//! Static cost bounds: an abstract interpreter over [`ScenarioScript`].
//!
//! The paper's premise is that FEM-2 programs are analyzable *before* they
//! touch the machine. The other passes prove safety; this one proves
//! **cost**: walking the lowered script (spawn fan-out, window-exchange
//! structure, per-cluster allocations) against the [`MachineConfig`] yields
//! sound upper bounds on total DES events, simulated cycles, kernel
//! messages, peak per-cluster memory words, and per-link traffic — or an
//! explicit [`CostVerdict::Unbounded`] when no bound can be established
//! (remote calls carry no static work profile).
//!
//! # Soundness argument (the serial-sum bound)
//!
//! Simulated time only advances at primitive barriers, and after every
//! primitive completes, every resource's busy-until time (PE `free_at`,
//! link free time) is at most the new `now`: each hop's link occupancy ends
//! no later than the packet's arrival, barriers take the max over arrivals,
//! and every charged PE completes at or before the barrier. Therefore the
//! makespan of a run is at most the **serial sum** of each primitive's
//! isolated duration, and an isolated duration is at most the sum of its
//! component charges (`count × unit cost`) plus its transmit bounds. The
//! modeler accumulates exactly that serial sum, so
//! `CostReport::sim_cycles >= elapsed` for every run the script describes.
//!
//! The transmit bound for a `words`-word cross-cluster message is
//! `p·occ + h·(occ + latency)` where `p` is the packet count, `occ` the
//! worst per-packet link occupancy, and `h` the topology's worst-case hop
//! count *including fault detours* (crossbar re-routes via an intermediate
//! cluster, two hops). Pipelined store-and-forward delivery finishes in
//! `h·(occ + latency) + (p−1)·occ`, which the bound dominates; link
//! contention is covered by the serial sum (every competitor's occupancy is
//! part of its own isolated duration). The bound assumes healthy links:
//! a degraded link multiplies occupancy dynamically, which no static
//! analysis of the script can see (fault plans are runtime inputs), and
//! none of the statically admitted job kinds carry one.

use fem2_machine::index::PagedIndex;
use fem2_machine::{CostClass, MachineConfig, Network, Topology};
use serde::json::Value;
use serde::Serialize;

use crate::diag::Span;
use crate::script::{NameId, Op, ScenarioScript};

/// Parameters the script itself cannot carry: how many sweeps the window
/// traffic repeats. The lowered solve script describes one red-black sweep;
/// a CG run performs one per iteration, capped by `max_iters`.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Multiplier applied to window-exchange ops (`WindowSend`,
    /// `WindowRecv`); control ops (spawn, open/close, terminate) are
    /// charged once.
    pub sweep_iters: u64,
}

impl CostParams {
    /// One sweep: bound the script exactly as written.
    pub fn single_sweep() -> Self {
        CostParams { sweep_iters: 1 }
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::single_sweep()
    }
}

/// Whether a bound could be established.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CostVerdict {
    /// Every reported number is a sound upper bound.
    Bounded,
    /// No bound exists; the numbers cover only the boundable prefix.
    Unbounded {
        /// Why the analysis gave up (names the op).
        reason: String,
        /// The script line of the offending op.
        span: Span,
    },
}

/// Upper bounds attributed to one named phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseCost {
    /// Phase name (`spawn`, `exchange`, `solve`, …).
    pub name: String,
    /// Simulated-cycle bound for work charged in this phase.
    pub sim_cycles: u64,
    /// DES-event bound for this phase.
    pub des_events: u64,
    /// Kernel-message bound for this phase.
    pub messages: u64,
}

/// Sound upper bounds for one scenario, with per-phase breakdown.
#[derive(Clone, Debug)]
pub struct CostReport {
    /// What was analyzed.
    pub subject: String,
    /// Per-phase bounds, in first-charge order.
    pub phases: Vec<PhaseCost>,
    /// Total DES-event bound (two events — schedule and dispatch — per
    /// kernel message; plate runs drive the machine directly and process
    /// zero DES events, so this is trivially sound for them).
    pub des_events: u64,
    /// Total simulated-cycle bound (the serial sum).
    pub sim_cycles: u64,
    /// Total kernel-message bound.
    pub messages: u64,
    /// Peak per-cluster memory bound: the busiest cluster's words.
    pub peak_memory_words: u64,
    /// Per-cluster memory words, indexed by cluster.
    pub cluster_memory_words: Vec<u64>,
    /// Payload words per link that carries traffic, as `(link id, words)`
    /// pairs sorted by link id. Sparse: the link id space can be quadratic
    /// in clusters (crossbar), but a script touches O(routes used) links.
    pub link_traffic_words: Vec<(usize, u64)>,
    /// Size of the link id space (dense rendering upper bound).
    pub link_id_space: usize,
    /// Whether the bounds are sound or the script defeated the analysis.
    pub verdict: CostVerdict,
}

impl CostReport {
    /// True when every number is a sound upper bound.
    pub fn is_bounded(&self) -> bool {
        self.verdict == CostVerdict::Bounded
    }

    /// The most-trafficked link, as `(link id, payload words)`.
    pub fn busiest_link(&self) -> Option<(usize, u64)> {
        self.link_traffic_words
            .iter()
            .copied()
            .max_by_key(|&(i, w)| (w, std::cmp::Reverse(i)))
            .filter(|&(_, w)| w > 0)
    }

    /// Render the cost table, deterministic for golden comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("cost bounds for {}:\n", self.subject));
        out.push_str(&format!(
            "  {:<12} {:>14} {:>12} {:>12}\n",
            "phase", "sim cycles", "DES events", "messages"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<12} {:>14} {:>12} {:>12}\n",
                p.name, p.sim_cycles, p.des_events, p.messages
            ));
        }
        out.push_str(&format!(
            "  {:<12} {:>14} {:>12} {:>12}\n",
            "TOTAL", self.sim_cycles, self.des_events, self.messages
        ));
        let busiest = match self.busiest_link() {
            Some((id, words)) => format!(", busiest link #{id} carries <= {words} words"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  peak memory <= {} words on the busiest cluster{busiest}\n",
            self.peak_memory_words
        ));
        match &self.verdict {
            CostVerdict::Bounded => out.push_str("  verdict: BOUNDED\n"),
            CostVerdict::Unbounded { reason, span } => {
                out.push_str(&format!(
                    "  verdict: UNBOUNDED at line {}: {reason}\n",
                    span.line
                ));
            }
        }
        out
    }
}

impl Serialize for CostReport {
    fn to_value(&self) -> Value {
        let verdict = match &self.verdict {
            CostVerdict::Bounded => Value::Str("bounded".into()),
            CostVerdict::Unbounded { reason, span } => Value::Obj(vec![
                ("unbounded".into(), Value::Str(reason.clone())),
                ("line".into(), Value::UInt(u64::from(span.line))),
            ]),
        };
        Value::Obj(vec![
            ("subject".into(), Value::Str(self.subject.clone())),
            ("des_events".into(), Value::UInt(self.des_events)),
            ("sim_cycles".into(), Value::UInt(self.sim_cycles)),
            ("messages".into(), Value::UInt(self.messages)),
            (
                "peak_memory_words".into(),
                Value::UInt(self.peak_memory_words),
            ),
            (
                "cluster_memory_words".into(),
                Value::Arr(
                    self.cluster_memory_words
                        .iter()
                        .map(|&w| Value::UInt(w))
                        .collect(),
                ),
            ),
            (
                "link_traffic_words".into(),
                // Rendered dense over the id space so the JSON shape is
                // independent of which links happened to carry traffic.
                Value::Arr({
                    let mut dense = vec![Value::UInt(0); self.link_id_space];
                    for &(link, w) in &self.link_traffic_words {
                        dense[link] = Value::UInt(w);
                    }
                    dense
                }),
            ),
            (
                "phases".into(),
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::Obj(vec![
                                ("name".into(), Value::Str(p.name.clone())),
                                ("sim_cycles".into(), Value::UInt(p.sim_cycles)),
                                ("des_events".into(), Value::UInt(p.des_events)),
                                ("messages".into(), Value::UInt(p.messages)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("verdict".into(), verdict),
        ])
    }
}

/// Accumulates the serial-sum bound. Layers above the script IR (the plate
/// lowering in `fem2-core`) use this directly to add numeric work the
/// script does not carry (elementwise profiles, reduction trees).
pub struct CostModeler {
    subject: String,
    machine: MachineConfig,
    /// Never faulted, so every route is the primary path and probing it
    /// allocates nothing (see [`Network::visit_route`]).
    network: Network,
    worst_hops: u64,
    phases: Vec<PhaseCost>,
    current: usize,
    cluster_memory_words: Vec<u64>,
    /// Payload words per touched link, in first-touch order: memory
    /// follows the links a script touches, not the id space (quadratic on
    /// a crossbar).
    link_traffic: Vec<(usize, u64)>,
    link_index: PagedIndex,
    link_id_space: usize,
    verdict: CostVerdict,
}

impl CostModeler {
    /// A fresh modeler for `subject` on `machine`, with an empty first
    /// phase named `total`.
    pub fn new(subject: impl Into<String>, machine: &MachineConfig) -> Self {
        let network = Network::new(machine);
        let links = network.link_count();
        let mut m = CostModeler {
            subject: subject.into(),
            machine: machine.clone(),
            network,
            worst_hops: worst_hops(machine),
            phases: Vec::new(),
            current: 0,
            cluster_memory_words: vec![0; machine.clusters as usize],
            link_traffic: Vec::new(),
            link_index: PagedIndex::default(),
            link_id_space: links,
            verdict: CostVerdict::Bounded,
        };
        m.begin_phase("total");
        m
    }

    /// Switch to (or create) the named phase; subsequent charges land
    /// there. A `total` phase that was never charged is dropped on finish.
    pub fn begin_phase(&mut self, name: &str) {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            self.current = i;
            return;
        }
        self.phases.push(PhaseCost {
            name: name.into(),
            sim_cycles: 0,
            des_events: 0,
            messages: 0,
        });
        self.current = self.phases.len() - 1;
    }

    /// Charge `count` units of `class` (serialized PE work).
    pub fn charge(&mut self, class: CostClass, count: u64) {
        let unit = class.cycles(&self.machine.cost);
        self.phases[self.current].sim_cycles = self.phases[self.current]
            .sim_cycles
            .saturating_add(unit.saturating_mul(count));
    }

    /// Bound one `words`-word transfer from cluster `from` to cluster
    /// `to`. Same-cluster transfers cost only the copy cycles; cross-
    /// cluster transfers add a kernel message, two DES events, the worst-
    /// case transmit duration, and payload attribution along the healthy
    /// route.
    pub fn message(&mut self, from: u32, to: u32, words: u64) {
        self.message_times(from, to, words, 1);
    }

    /// [`message`](Self::message), `count` times.
    pub fn message_times(&mut self, from: u32, to: u32, words: u64, count: u64) {
        if count == 0 {
            return;
        }
        if from == to {
            let wpc = u64::from(self.machine.words_per_cycle.max(1));
            let copy = words.div_ceil(wpc).max(1);
            let p = &mut self.phases[self.current];
            p.sim_cycles = p.sim_cycles.saturating_add(copy.saturating_mul(count));
            return;
        }
        let tx = self.tx_bound(words);
        let p = &mut self.phases[self.current];
        p.sim_cycles = p.sim_cycles.saturating_add(tx.saturating_mul(count));
        p.messages = p.messages.saturating_add(count);
        p.des_events = p.des_events.saturating_add(2 * count);
        let (traffic, index) = (&mut self.link_traffic, &mut self.link_index);
        let payload = words.saturating_mul(count);
        self.network.visit_route(from, to, |link| {
            let entry = index.entry(link).unwrap_or_else(|entry| {
                traffic.push((link, 0));
                entry
            });
            traffic[entry].1 = traffic[entry].1.saturating_add(payload);
        });
    }

    /// Worst-case cycles for one isolated `words`-word cross-cluster
    /// transmit: packet count times worst occupancy, plus per-hop
    /// store-and-forward latency over the topology's worst route.
    pub fn tx_bound(&self, words: u64) -> u64 {
        let mpw = self.machine.max_packet_words.max(1);
        let wpc = u64::from(self.machine.words_per_cycle.max(1));
        let packets = words.div_ceil(mpw).max(1);
        let chunk = words.min(mpw);
        let occ = (chunk + self.machine.header_words).div_ceil(wpc).max(1);
        packets.saturating_mul(occ).saturating_add(
            self.worst_hops
                .saturating_mul(occ + self.machine.link_latency),
        )
    }

    /// Record `words` allocated on `cluster` (allocations are exact, not
    /// bounds: the lowering emits one `Alloc` per actual arena claim).
    pub fn alloc(&mut self, cluster: u32, words: u64) {
        if let Some(w) = self.cluster_memory_words.get_mut(cluster as usize) {
            *w = w.saturating_add(words);
        }
    }

    /// Give up: record why no bound exists. First reason wins.
    pub fn unbounded(&mut self, reason: impl Into<String>, span: Span) {
        if self.verdict == CostVerdict::Bounded {
            self.verdict = CostVerdict::Unbounded {
                reason: reason.into(),
                span,
            };
        }
    }

    /// Walk a script, charging each op under `params`. Window-exchange
    /// traffic multiplies by `params.sweep_iters`; everything else is
    /// charged once. Tasks map to clusters via their `Initiate`; traffic
    /// involving a never-initiated task is bounded as worst-case
    /// cross-cluster (the protocol pass reports the script error).
    pub fn walk_script(&mut self, script: &ScenarioScript, params: &CostParams) {
        let sweeps = params.sweep_iters.max(1);
        // Hosting cluster per task name, from its `Initiate`.
        let mut cluster_of: Vec<Option<u32>> = vec![None; script.name_count()];
        let far = self.machine.clusters.saturating_sub(1);
        let on = |cluster_of: &[Option<u32>], task: NameId, unknown: u32| {
            cluster_of[task as usize].unwrap_or(unknown)
        };
        // Each phase's index once created: phases appear in first-charge
        // order, so they are created on first use, not up front.
        let (mut spawn, mut control, mut exchange) = (None, None, None);
        for (op, span) in script.ops() {
            match *op {
                Op::Initiate {
                    task,
                    cluster,
                    replications,
                } => {
                    cluster_of[task as usize] = Some(cluster);
                    self.enter_phase(&mut spawn, "spawn");
                    let reps = u64::from(replications.max(1));
                    // Coordinator formats the initiate, the wire carries an
                    // 8-word activation record, the hosting kernel PE
                    // creates the task.
                    self.charge(CostClass::MsgSend, reps);
                    self.message_times(0, cluster, 8, reps);
                    self.charge(CostClass::TaskCreate, reps);
                }
                Op::Pause { task } | Op::Resume { task } | Op::Terminate { task } => {
                    let c = on(&cluster_of, task, far);
                    self.enter_phase(&mut control, "control");
                    self.charge(CostClass::MsgSend, 1);
                    self.message(0, c, 1);
                    self.charge(CostClass::MsgDispatch, 1);
                    self.charge(CostClass::ContextSwitch, 1);
                }
                Op::Message { from, to, .. } => {
                    let (cf, ct) = (on(&cluster_of, from, 0), on(&cluster_of, to, far));
                    self.enter_phase(&mut control, "control");
                    self.charge(CostClass::MsgSend, 1);
                    self.message(cf, ct, 1);
                    self.charge(CostClass::MsgDispatch, 1);
                }
                Op::RemoteCall { caller, .. } => {
                    self.unbounded(
                        format!(
                            "remote call by '{}' carries no static work profile; \
                             the callee's cost cannot be bounded from the script",
                            script.name(caller)
                        ),
                        span,
                    );
                }
                Op::RemoteReturn { .. } => {
                    self.unbounded(
                        "remote return resumes a caller whose remaining cost \
                         cannot be bounded from the script",
                        span,
                    );
                }
                Op::WindowOpen { .. } | Op::WindowClose { .. } => {
                    self.enter_phase(&mut exchange, "exchange");
                    self.charge(CostClass::IntOp, 1);
                }
                Op::WindowSend {
                    from, to, words, ..
                } => {
                    let (cf, ct) = (on(&cluster_of, from, 0), on(&cluster_of, to, far));
                    self.enter_phase(&mut exchange, "exchange");
                    if cf == ct {
                        // Same-cluster exchange is a shared-memory copy on
                        // the hosting cluster's kernel PE.
                        self.charge(CostClass::MemWord, words.saturating_mul(sweeps));
                    } else {
                        self.charge(CostClass::MsgSend, sweeps);
                        self.message_times(cf, ct, words, sweeps);
                    }
                }
                Op::WindowRecv { .. } => {
                    self.enter_phase(&mut exchange, "exchange");
                    self.charge(CostClass::MsgDispatch, sweeps);
                }
                Op::Alloc { cluster, words, .. } => {
                    self.alloc(cluster, words);
                }
            }
        }
    }

    /// [`begin_phase`](Self::begin_phase) with the phase's index cached in
    /// `slot`, so only the first entry searches by name.
    fn enter_phase(&mut self, slot: &mut Option<usize>, name: &str) {
        match *slot {
            Some(i) => self.current = i,
            None => {
                self.begin_phase(name);
                *slot = Some(self.current);
            }
        }
    }

    /// Consume the modeler into its report.
    pub fn finish(mut self) -> CostReport {
        self.phases.retain(|p| {
            p.name != "total" || p.sim_cycles > 0 || p.des_events > 0 || p.messages > 0
        });
        self.link_traffic.sort_unstable_by_key(|&(link, _)| link);
        let totals = self.phases.iter().fold((0u64, 0u64, 0u64), |acc, p| {
            (
                acc.0.saturating_add(p.sim_cycles),
                acc.1.saturating_add(p.des_events),
                acc.2.saturating_add(p.messages),
            )
        });
        CostReport {
            subject: self.subject,
            peak_memory_words: self.cluster_memory_words.iter().copied().max().unwrap_or(0),
            cluster_memory_words: self.cluster_memory_words,
            link_traffic_words: self.link_traffic,
            link_id_space: self.link_id_space,
            sim_cycles: totals.0,
            des_events: totals.1,
            messages: totals.2,
            verdict: self.verdict,
            phases: self.phases,
        }
    }
}

/// Worst-case hop count between any two clusters, fault detours included:
/// the crossbar's repair path routes via an intermediate cluster (2 hops),
/// the ring may have to walk the long way around, a mesh XY detour adds at
/// most one extra row and column, a torus detour may take the long way
/// around each dimension (`d - 1` hops per dimension of extent `d`), and a
/// fat-tree detour through an alternate core is still the full up-down
/// path (4 hops when more than one pod exists).
fn worst_hops(cfg: &MachineConfig) -> u64 {
    let n = u64::from(cfg.clusters.max(1));
    match &cfg.topology {
        Topology::Bus => 1,
        Topology::Crossbar => {
            if n >= 3 {
                2
            } else {
                1
            }
        }
        Topology::Ring => (n - 1).max(1),
        Topology::Mesh2D { width } => {
            let w = u64::from((*width).max(1));
            let h = n.div_ceil(w);
            (w - 1) + (h - 1) + 2
        }
        Topology::Torus { dims } => dims
            .iter()
            .map(|&d| u64::from(d.max(1)) - 1)
            .sum::<u64>()
            .max(1),
        Topology::FatTree { radix } => {
            if n > u64::from((*radix).max(1)) {
                4
            } else {
                2
            }
        }
    }
}

/// The cost pass: bound `script` on `machine` under `params`.
pub fn check_cost(
    script: &ScenarioScript,
    machine: &MachineConfig,
    params: &CostParams,
) -> CostReport {
    let mut m = CostModeler::new(script.name.clone(), machine);
    m.walk_script(script, params);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_kernel::MessageKind;
    use proptest::prelude::*;

    fn machine() -> MachineConfig {
        MachineConfig::fem2_default()
    }

    fn initiate(s: &mut ScenarioScript, task: &str, cluster: u32) {
        let task = s.intern(task);
        s.push(Op::Initiate {
            task,
            cluster,
            replications: 1,
        });
    }

    #[test]
    fn empty_script_is_bounded_and_free() {
        let r = check_cost(
            &ScenarioScript::new("empty"),
            &machine(),
            &CostParams::single_sweep(),
        );
        assert!(r.is_bounded());
        assert_eq!(r.sim_cycles, 0);
        assert_eq!(r.des_events, 0);
        assert_eq!(r.messages, 0);
        assert_eq!(r.peak_memory_words, 0);
        assert!(r.busiest_link().is_none());
    }

    #[test]
    fn remote_call_defeats_the_bound() {
        let mut s = ScenarioScript::new("rpc");
        initiate(&mut s, "a", 0);
        let caller = s.intern("a");
        s.push(Op::RemoteCall { caller, call_id: 1 });
        let r = check_cost(&s, &machine(), &CostParams::single_sweep());
        assert!(!r.is_bounded());
        let CostVerdict::Unbounded { reason, span } = &r.verdict else {
            panic!("expected unbounded");
        };
        assert!(reason.contains("'a'"), "{reason}");
        assert_eq!(span.line, 2);
        assert!(r.render().contains("UNBOUNDED at line 2"));
    }

    #[test]
    fn sweeps_multiply_window_traffic_only() {
        let mut s = ScenarioScript::new("sweepy");
        let w = s.intern("w");
        for (t, c) in [("a", 0u32), ("b", 1u32)] {
            initiate(&mut s, t, c);
            let task = s.intern(t);
            s.push(Op::WindowOpen { task, window: w });
        }
        let [a, b] = ["a", "b"].map(|n| s.intern(n));
        s.push(Op::WindowSend {
            from: a,
            to: b,
            window: w,
            words: 16,
        });
        s.push(Op::WindowRecv {
            task: b,
            from: a,
            window: w,
        });
        let one = check_cost(&s, &machine(), &CostParams { sweep_iters: 1 });
        let ten = check_cost(&s, &machine(), &CostParams { sweep_iters: 10 });
        assert_eq!(ten.messages, one.messages + 9, "send repeats per sweep");
        let spawn = |r: &CostReport| {
            r.phases
                .iter()
                .find(|p| p.name == "spawn")
                .expect("spawn phase")
                .clone()
        };
        assert_eq!(spawn(&one), spawn(&ten), "spawn is charged once");
        assert!(ten.sim_cycles > one.sim_cycles);
    }

    #[test]
    fn same_cluster_exchange_is_not_a_message() {
        let mut s = ScenarioScript::new("local");
        for t in ["a", "b"] {
            initiate(&mut s, t, 0);
        }
        let [a, b, w] = ["a", "b", "w"].map(|n| s.intern(n));
        s.push(Op::WindowSend {
            from: a,
            to: b,
            window: w,
            words: 64,
        });
        let r = check_cost(&s, &machine(), &CostParams::single_sweep());
        assert_eq!(r.messages, 0);
        assert_eq!(r.des_events, 0);
        assert!(r.sim_cycles > 0, "the copy still costs cycles");
    }

    #[test]
    fn allocations_accumulate_per_cluster() {
        let mut s = ScenarioScript::new("mem");
        for (cluster, words, what) in [(1, 100, "x"), (1, 50, "y"), (2, 120, "z")] {
            let what = s.intern(what);
            s.push(Op::Alloc {
                cluster,
                words,
                what,
            });
        }
        let r = check_cost(&s, &machine(), &CostParams::single_sweep());
        assert_eq!(r.cluster_memory_words, vec![0, 150, 120, 0]);
        assert_eq!(r.peak_memory_words, 150);
    }

    #[test]
    fn cross_cluster_traffic_lands_on_links() {
        let mut s = ScenarioScript::new("wire");
        for (t, c) in [("a", 0u32), ("b", 3u32)] {
            initiate(&mut s, t, c);
        }
        let [a, b] = ["a", "b"].map(|n| s.intern(n));
        s.push(Op::Message {
            from: a,
            to: b,
            kind: MessageKind::Resume,
        });
        let r = check_cost(&s, &machine(), &CostParams::single_sweep());
        // Spawn of b (0->3, 8 words) plus the 1-word data message.
        assert!(r.messages >= 2);
        assert_eq!(r.des_events, 2 * r.messages);
        let (link, words) = r.busiest_link().expect("traffic was attributed");
        assert!(words >= 8, "spawn payload on link {link}: {words}");
    }

    #[test]
    fn tx_bound_dominates_the_network_estimate() {
        let cfg = machine();
        let net = Network::new(&cfg);
        let m = CostModeler::new("tx", &cfg);
        for words in [0u64, 1, 7, 255, 256, 257, 10_000] {
            for to in 1..cfg.clusters {
                assert!(
                    m.tx_bound(words) >= net.estimate(0, to, words),
                    "tx_bound({words}) must dominate the contention-free estimate"
                );
            }
        }
    }

    #[test]
    fn tx_bound_dominates_on_torus_and_fat_tree() {
        let mut torus = machine();
        torus.clusters = 64;
        torus.topology = Topology::Torus {
            dims: vec![4, 4, 4],
        };
        let mut fat = machine();
        fat.clusters = 64;
        fat.topology = Topology::FatTree { radix: 8 };
        for cfg in [torus, fat] {
            cfg.validate().unwrap();
            let net = Network::new(&cfg);
            let m = CostModeler::new("tx", &cfg);
            for words in [0u64, 1, 255, 257, 10_000] {
                for to in 1..cfg.clusters {
                    assert!(
                        m.tx_bound(words) >= net.estimate(0, to, words),
                        "tx_bound({words}) must dominate on {}",
                        cfg.topology.name()
                    );
                }
            }
        }
    }

    #[test]
    fn link_attribution_is_sparse_in_the_id_space() {
        // A crossbar's link id space is quadratic, but a script that uses
        // two routes must record exactly the links those routes touch.
        let mut cfg = machine();
        cfg.clusters = 64;
        cfg.topology = Topology::Crossbar;
        cfg.validate().unwrap();
        let mut s = ScenarioScript::new("sparse");
        for (t, c) in [("a", 0u32), ("b", 63u32)] {
            initiate(&mut s, t, c);
        }
        let r = check_cost(&s, &cfg, &CostParams::single_sweep());
        assert_eq!(r.link_id_space, 64 * 64);
        assert_eq!(
            r.link_traffic_words.len(),
            1,
            "one cross-cluster route touches one crossbar link: {:?}",
            r.link_traffic_words
        );
        assert_eq!(r.busiest_link(), Some((63, 8)));
    }

    #[test]
    fn report_json_shape() {
        let mut s = ScenarioScript::new("json");
        initiate(&mut s, "a", 1);
        let v = check_cost(&s, &machine(), &CostParams::single_sweep()).to_value();
        assert_eq!(v.get_field("subject").unwrap(), &Value::Str("json".into()));
        assert_eq!(
            v.get_field("verdict").unwrap(),
            &Value::Str("bounded".into())
        );
        for key in ["des_events", "sim_cycles", "messages", "peak_memory_words"] {
            assert!(
                matches!(v.get_field(key), Ok(Value::UInt(_))),
                "{key} must serialize as an unsigned integer"
            );
        }
    }

    /// The modeler as it was before its link accounting went flat, kept as
    /// the oracle: a `&str`-keyed task map and a phase search by name per
    /// op, and per-link traffic in a `BTreeMap` filled from
    /// [`Network::route_links`], one `Vec` per message.
    mod oracle {
        use super::super::{worst_hops, CostReport, CostVerdict, PhaseCost};
        use crate::diag::Span;
        use crate::script::{Op, ScenarioScript};
        use fem2_machine::{CostClass, MachineConfig, Network};
        use std::collections::BTreeMap;

        pub struct Modeler {
            subject: String,
            machine: MachineConfig,
            network: Network,
            worst_hops: u64,
            phases: Vec<PhaseCost>,
            current: usize,
            cluster_memory_words: Vec<u64>,
            link_traffic_words: BTreeMap<usize, u64>,
            verdict: CostVerdict,
        }

        impl Modeler {
            pub fn new(subject: &str, machine: &MachineConfig) -> Self {
                let mut m = Modeler {
                    subject: subject.into(),
                    machine: machine.clone(),
                    network: Network::new(machine),
                    worst_hops: worst_hops(machine),
                    phases: Vec::new(),
                    current: 0,
                    cluster_memory_words: vec![0; machine.clusters as usize],
                    link_traffic_words: BTreeMap::new(),
                    verdict: CostVerdict::Bounded,
                };
                m.begin_phase("total");
                m
            }

            pub fn begin_phase(&mut self, name: &str) {
                if let Some(i) = self.phases.iter().position(|p| p.name == name) {
                    self.current = i;
                    return;
                }
                self.phases.push(PhaseCost {
                    name: name.into(),
                    sim_cycles: 0,
                    des_events: 0,
                    messages: 0,
                });
                self.current = self.phases.len() - 1;
            }

            fn charge(&mut self, class: CostClass, count: u64) {
                let unit = class.cycles(&self.machine.cost);
                let p = &mut self.phases[self.current];
                p.sim_cycles = p.sim_cycles.saturating_add(unit.saturating_mul(count));
            }

            pub fn message_times(&mut self, from: u32, to: u32, words: u64, count: u64) {
                if count == 0 {
                    return;
                }
                if from == to {
                    let wpc = u64::from(self.machine.words_per_cycle.max(1));
                    let copy = words.div_ceil(wpc).max(1);
                    let p = &mut self.phases[self.current];
                    p.sim_cycles = p.sim_cycles.saturating_add(copy.saturating_mul(count));
                    return;
                }
                let mpw = self.machine.max_packet_words.max(1);
                let wpc = u64::from(self.machine.words_per_cycle.max(1));
                let packets = words.div_ceil(mpw).max(1);
                let occ = (words.min(mpw) + self.machine.header_words)
                    .div_ceil(wpc)
                    .max(1);
                let tx = packets.saturating_mul(occ).saturating_add(
                    self.worst_hops
                        .saturating_mul(occ + self.machine.link_latency),
                );
                let p = &mut self.phases[self.current];
                p.sim_cycles = p.sim_cycles.saturating_add(tx.saturating_mul(count));
                p.messages = p.messages.saturating_add(count);
                p.des_events = p.des_events.saturating_add(2 * count);
                if let Some(route) = self.network.route_links(from, to) {
                    for link in route {
                        let w = self.link_traffic_words.entry(link).or_insert(0);
                        *w = w.saturating_add(words.saturating_mul(count));
                    }
                }
            }

            fn unbounded(&mut self, reason: String, span: Span) {
                if self.verdict == CostVerdict::Bounded {
                    self.verdict = CostVerdict::Unbounded { reason, span };
                }
            }

            pub fn walk_script(&mut self, script: &ScenarioScript, sweeps: u64) {
                let sweeps = sweeps.max(1);
                let mut cluster_of: BTreeMap<&str, u32> = BTreeMap::new();
                let far = self.machine.clusters.saturating_sub(1);
                let name = |id: u32| script.name(id);
                for (op, span) in script.ops() {
                    match *op {
                        Op::Initiate {
                            task,
                            cluster,
                            replications,
                        } => {
                            cluster_of.insert(name(task), cluster);
                            self.begin_phase("spawn");
                            let reps = u64::from(replications.max(1));
                            self.charge(CostClass::MsgSend, reps);
                            self.message_times(0, cluster, 8, reps);
                            self.charge(CostClass::TaskCreate, reps);
                        }
                        Op::Pause { task } | Op::Resume { task } | Op::Terminate { task } => {
                            let c = cluster_of.get(name(task)).copied().unwrap_or(far);
                            self.begin_phase("control");
                            self.charge(CostClass::MsgSend, 1);
                            self.message_times(0, c, 1, 1);
                            self.charge(CostClass::MsgDispatch, 1);
                            self.charge(CostClass::ContextSwitch, 1);
                        }
                        Op::Message { from, to, .. } => {
                            let cf = cluster_of.get(name(from)).copied().unwrap_or(0);
                            let ct = cluster_of.get(name(to)).copied().unwrap_or(far);
                            self.begin_phase("control");
                            self.charge(CostClass::MsgSend, 1);
                            self.message_times(cf, ct, 1, 1);
                            self.charge(CostClass::MsgDispatch, 1);
                        }
                        Op::RemoteCall { caller, .. } => self.unbounded(
                            format!(
                                "remote call by '{}' carries no static work profile; \
                                 the callee's cost cannot be bounded from the script",
                                name(caller)
                            ),
                            span,
                        ),
                        Op::RemoteReturn { .. } => self.unbounded(
                            "remote return resumes a caller whose remaining cost \
                             cannot be bounded from the script"
                                .into(),
                            span,
                        ),
                        Op::WindowOpen { .. } | Op::WindowClose { .. } => {
                            self.begin_phase("exchange");
                            self.charge(CostClass::IntOp, 1);
                        }
                        Op::WindowSend {
                            from, to, words, ..
                        } => {
                            let cf = cluster_of.get(name(from)).copied().unwrap_or(0);
                            let ct = cluster_of.get(name(to)).copied().unwrap_or(far);
                            self.begin_phase("exchange");
                            if cf == ct {
                                self.charge(CostClass::MemWord, words.saturating_mul(sweeps));
                            } else {
                                self.charge(CostClass::MsgSend, sweeps);
                                self.message_times(cf, ct, words, sweeps);
                            }
                        }
                        Op::WindowRecv { .. } => {
                            self.begin_phase("exchange");
                            self.charge(CostClass::MsgDispatch, sweeps);
                        }
                        Op::Alloc { cluster, words, .. } => {
                            if let Some(w) = self.cluster_memory_words.get_mut(cluster as usize) {
                                *w = w.saturating_add(words);
                            }
                        }
                    }
                }
            }

            pub fn finish(mut self) -> CostReport {
                self.phases.retain(|p| {
                    p.name != "total" || p.sim_cycles > 0 || p.des_events > 0 || p.messages > 0
                });
                let totals = self.phases.iter().fold((0u64, 0u64, 0u64), |acc, p| {
                    (
                        acc.0.saturating_add(p.sim_cycles),
                        acc.1.saturating_add(p.des_events),
                        acc.2.saturating_add(p.messages),
                    )
                });
                CostReport {
                    subject: self.subject,
                    peak_memory_words: self.cluster_memory_words.iter().copied().max().unwrap_or(0),
                    cluster_memory_words: self.cluster_memory_words,
                    link_traffic_words: self.link_traffic_words.into_iter().collect(),
                    link_id_space: self.network.link_count(),
                    sim_cycles: totals.0,
                    des_events: totals.1,
                    messages: totals.2,
                    verdict: self.verdict,
                    phases: self.phases,
                }
            }
        }
    }

    /// A machine of each of the six topologies, small enough that random
    /// scripts share links.
    fn arb_machine() -> impl Strategy<Value = MachineConfig> {
        prop_oneof![
            (1u32..6).prop_map(|n| (n, Topology::Bus)),
            (1u32..9).prop_map(|n| (n, Topology::Crossbar)),
            (2u32..9).prop_map(|n| (n, Topology::Ring)),
            (1u32..5).prop_map(|rows| (2 * rows, Topology::Mesh2D { width: 2 })),
            (2u32..5, 2u32..5).prop_map(|(a, b)| (a * b, Topology::Torus { dims: vec![a, b] })),
            (2u32..4).prop_map(|c| (
                4 * c,
                Topology::Torus {
                    dims: vec![2, 2, c]
                }
            )),
            (2u32..5, 1u32..4)
                .prop_map(|(radix, pods)| (radix * pods, Topology::FatTree { radix })),
        ]
        .prop_map(|(clusters, topology)| {
            let m = MachineConfig::clustered(clusters, 2, topology);
            m.validate().expect("drawn machines are valid");
            m
        })
    }

    /// One drawn script op: kind, two task indices, a cluster (taken
    /// modulo the machine's), a payload and a replication count.
    type Item = (u8, u32, u32, u32, u64, u32);

    /// A script over up to six tasks from drawn items: every op kind,
    /// tasks initiated on random clusters (and some never initiated),
    /// payloads from empty to several packets.
    fn script_of(items: &[Item], clusters: u32) -> ScenarioScript {
        let mut s = ScenarioScript::new("random");
        let w = s.intern("w");
        for &(kind, a, b, cluster, words, reps) in items {
            let [a, b] = [a, b].map(|t| s.intern(&format!("t{t}")));
            let cluster = cluster % clusters;
            s.push(match kind {
                0 | 1 => Op::Initiate {
                    task: a,
                    cluster,
                    replications: reps,
                },
                2 => Op::Pause { task: a },
                3 => Op::Terminate { task: a },
                4 => Op::Message {
                    from: a,
                    to: b,
                    kind: MessageKind::Resume,
                },
                5 => Op::WindowOpen { task: a, window: w },
                6 | 7 => Op::WindowSend {
                    from: a,
                    to: b,
                    window: w,
                    words,
                },
                8 => Op::WindowRecv {
                    task: b,
                    from: a,
                    window: w,
                },
                _ if words % 16 == 0 => Op::RemoteCall {
                    caller: a,
                    call_id: words,
                },
                _ => Op::Alloc {
                    cluster,
                    words,
                    what: w,
                },
            });
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat link accounting and the indexed walk report exactly
        /// what the oracle reports, field for field, for a random script
        /// plus the direct `message_times` calls a plate's reduction tree
        /// makes, on every topology.
        #[test]
        fn report_matches_the_btreemap_oracle(
            machine in arb_machine(),
            items in proptest::collection::vec(
                (0u8..10, 0u32..6, 0u32..6, any::<u32>(), 0u64..1_000, 0u32..3),
                0..40,
            ),
            extra in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), 0u64..600, 0u64..4),
                0..12,
            ),
            sweeps in 1u64..5,
        ) {
            let n = machine.clusters;
            let script = script_of(&items, n);
            let mut new = CostModeler::new(script.name.clone(), &machine);
            new.walk_script(&script, &CostParams { sweep_iters: sweeps });
            let mut old = oracle::Modeler::new(&script.name, &machine);
            old.walk_script(&script, sweeps);
            new.begin_phase("solve");
            old.begin_phase("solve");
            for &(from, to, words, count) in &extra {
                let (from, to) = (from % n, to % n);
                new.message_times(from, to, words, count);
                old.message_times(from, to, words, count);
            }
            prop_assert_eq!(format!("{:?}", new.finish()), format!("{:?}", old.finish()));
        }
    }
}
