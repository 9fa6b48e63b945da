//! The `fem2-bench --json` perf harness: a fixed experiment mix timed on
//! the host, written as a machine-readable `BENCH_fem2.json`.
//!
//! The mix exercises the three hot paths every later PR is judged against:
//!
//! * **E1 plate sweep** — the full simulated plane (DES, kernel, network,
//!   windows) at n ∈ {8, 16, 32, 48}, with a traced 48×48 run supplying
//!   events/sec and peak DES queue depth, plus a 64×64 plate and the
//!   32×32 plate on a 1024-cluster torus;
//! * **E5 network sweep** — the pattern × topology × size message mix on
//!   the bare [`Network`] (route selection and link contention only);
//! * **E7 kernel runs** — the traced fault-and-repair DES record plus the
//!   untraced fault-mix sweep (healthy/pe/link/mem/combined);
//! * **E9 solvers** — native-plane CG / Jacobi-PCG / skyline on the 32×32
//!   plate system (CSR construction and matvec throughput).
//!
//! Independent sweep cells (E1 sizes, E5 grid cells, E7 mixes) fan across
//! the `fem2-par` pool via [`crate::sweep::par_sweep`]; results come back
//! in input order, so the table and JSON are byte-stable (modulo wall
//! times) regardless of `FEM2_PAR_THREADS`.
//!
//! Every record carries host wall time *and* the deterministic simulated
//! quantity it produced (cycles, or flops for native solvers), so a perf
//! regression is distinguishable from a workload change: if `sim_cycles`
//! moved, the workload changed; if only `wall_ns` moved, the
//! implementation got slower or faster. With `--repeat N` the whole mix
//! reruns N times: `wall_ns` is the best (minimum) wall time per record
//! and `wall_ns_median` the median, which tames scheduler noise.

use crate::experiments as ex;
use crate::sweep::par_sweep;
use fem2_core::fem::solver::{self, IterControls};
use fem2_core::machine::fault::FaultPlan;
use fem2_core::machine::{
    CostClass, DesQueue, Machine, MachineConfig, Network, RunBudget, Topology,
};
use fem2_core::scenario::PlateScenario;
use fem2_par::Pool;
use fem2_trace::TraceHandle;
use serde_json::Value;
use std::time::Instant;

/// Schema identifier written into the JSON document.
pub const SCHEMA: &str = "fem2-bench/7";
/// The previous schema (no per-record `alloc_links` / `alloc_clusters` /
/// `saturation_clusters`); still accepted by [`validate_json`] so stored
/// baselines keep validating.
pub const SCHEMA_V6: &str = "fem2-bench/6";
/// Two revisions back (additionally no per-record `shards` / `speedup`).
pub const SCHEMA_V5: &str = "fem2-bench/5";
/// Three revisions back (additionally no per-record `predicted_events` /
/// `predicted_cycles` / `tightness`).
pub const SCHEMA_V4: &str = "fem2-bench/4";
/// Four revisions back (additionally no per-record `run_status`).
pub const SCHEMA_V3: &str = "fem2-bench/3";
/// Five revisions back (additionally no `commit`, `plan_hash`, or
/// `params` provenance fields); also still accepted.
pub const SCHEMA_V2: &str = "fem2-bench/2";
/// The original schema (additionally lacks `repeat` and
/// `wall_ns_median`); also still accepted.
pub const SCHEMA_V1: &str = "fem2-bench/1";

/// Ring capacity for the traced E1 run; metrics are exact regardless of
/// retention, so a modest ring keeps the traced run cheap.
const TRACE_RING: usize = 1 << 12;

/// Suite knobs, wired to `fem2-bench` CLI flags.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Route cache on the simulated-plane records (`--no-route-cache`
    /// ablation turns it off).
    pub route_cache: bool,
    /// DES queue backend for the simulated-plane records
    /// (`--des-queue heap` is the reference-path ablation).
    pub des_queue: DesQueue,
    /// Times the whole mix runs; per record, `wall_ns` is the best and
    /// `wall_ns_median` the median across runs.
    pub repeat: u32,
    /// Simulated-cycle budget applied to the E1 plate runs
    /// (`--budget-cycles N`): a run past the budget ends as a
    /// deterministic abort recorded with `run_status: "aborted"`.
    pub budget_cycles: Option<u64>,
    /// DES-event budget for the E1 plate runs (`--budget-events N`).
    pub budget_events: Option<u64>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            route_cache: true,
            des_queue: DesQueue::Calendar,
            repeat: 1,
            budget_cycles: None,
            budget_events: None,
        }
    }
}

impl BenchOptions {
    /// The [`RunBudget`] the E1 plate scenarios run under; unlimited when
    /// no override is set.
    fn budget(&self) -> RunBudget {
        RunBudget {
            max_sim_cycles: self.budget_cycles,
            max_des_events: self.budget_events,
            ..RunBudget::unlimited()
        }
    }
}

/// One timed benchmark record.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Stable record name, e.g. `e1_plate_48`.
    pub name: String,
    /// Best host wall time of the timed section across repeats, nanoseconds.
    pub wall_ns: u64,
    /// Median host wall time across repeats (equals `wall_ns` when the mix
    /// ran once), nanoseconds.
    pub wall_ns_median: u64,
    /// Deterministic simulated cycles produced (0 for native-plane work).
    pub sim_cycles: u64,
    /// Events processed: trace events for traced records, the engine's
    /// own event counter (machine charges and transfers, or DES queue
    /// pops) otherwise — so throughput is tracked for every simulated row,
    /// not only traced ones. 0 for native-plane work.
    pub events: u64,
    /// Events per host second (0 only when `events` is 0).
    pub events_per_sec: u64,
    /// Peak DES queue depth observed (0 when untraced).
    pub peak_queue_depth: u64,
    /// How the record's run ended: `"ok"`, or `"aborted"` when a budget
    /// override cut it short (schema v4).
    pub run_status: String,
    /// Static DES-event upper bound from the cost pass (schema v5; 0 for
    /// records the analyzer does not model, e.g. native-plane solvers).
    pub predicted_events: u64,
    /// Static sim-cycle upper bound from the cost pass (schema v5; 0 when
    /// unmodeled).
    pub predicted_cycles: u64,
    /// Bound tightness, `predicted_cycles / sim_cycles` (≥ 1 when the
    /// bound is sound; 0.0 when unmodeled or the run did not complete).
    pub tightness: f64,
    /// Link records the sparse network slab materialized during the run
    /// (schema v7) — the peak-RSS proxy for network state. 0 for records
    /// that do not observe the machine (native solvers, bare-network
    /// checksums).
    pub alloc_links: u64,
    /// Cluster PE lanes materialized during the run (schema v7) — the
    /// peak-RSS proxy for machine state. 0 when unobserved.
    pub alloc_clusters: u64,
    /// For weak-scaling records: the smallest cluster count at which this
    /// record's topology saturates its bisection under the sweep's fixed
    /// per-cluster traffic (makespan more than doubles over the smallest
    /// machine's). 0 when the topology never saturated in the sweep, or
    /// for non-weak-scaling records (schema v7).
    pub saturation_clusters: u64,
}

impl BenchRecord {
    fn untraced(name: impl Into<String>, wall_ns: u64, sim_cycles: u64) -> Self {
        BenchRecord {
            name: name.into(),
            wall_ns,
            wall_ns_median: wall_ns,
            sim_cycles,
            events: 0,
            events_per_sec: 0,
            peak_queue_depth: 0,
            run_status: "ok".into(),
            predicted_events: 0,
            predicted_cycles: 0,
            tightness: 0.0,
            alloc_links: 0,
            alloc_clusters: 0,
            saturation_clusters: 0,
        }
    }

    /// Record the engine's own event count (untraced rows), deriving
    /// throughput from this record's best wall time.
    fn with_engine_events(mut self, events: u64) -> Self {
        self.events = events;
        let secs = (self.wall_ns as f64 / 1e9).max(1e-9);
        self.events_per_sec = (events as f64 / secs) as u64;
        self
    }

    /// Attach the static cost bounds (and, for completed runs, the
    /// tightness ratio) to this record.
    fn with_prediction(mut self, cost: &fem2_verify::CostReport) -> Self {
        if cost.is_bounded() {
            self.predicted_events = cost.des_events;
            self.predicted_cycles = cost.sim_cycles;
            if self.run_status == "ok" && self.sim_cycles > 0 {
                self.tightness = cost.sim_cycles as f64 / self.sim_cycles as f64;
            }
        }
        self
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("wall_ns".into(), Value::UInt(self.wall_ns)),
            ("wall_ns_median".into(), Value::UInt(self.wall_ns_median)),
            ("sim_cycles".into(), Value::UInt(self.sim_cycles)),
            ("events".into(), Value::UInt(self.events)),
            ("events_per_sec".into(), Value::UInt(self.events_per_sec)),
            (
                "peak_queue_depth".into(),
                Value::UInt(self.peak_queue_depth),
            ),
            ("run_status".into(), Value::Str(self.run_status.clone())),
            (
                "predicted_events".into(),
                Value::UInt(self.predicted_events),
            ),
            (
                "predicted_cycles".into(),
                Value::UInt(self.predicted_cycles),
            ),
            ("tightness".into(), Value::Float(self.tightness)),
            // One engine; schema v6's two fields stay as literals until
            // ROADMAP 3(b) cuts the schema down to one revision.
            ("shards".into(), Value::UInt(1)),
            ("speedup".into(), Value::Float(0.0)),
            ("alloc_links".into(), Value::UInt(self.alloc_links)),
            ("alloc_clusters".into(), Value::UInt(self.alloc_clusters)),
            (
                "saturation_clusters".into(),
                Value::UInt(self.saturation_clusters),
            ),
        ])
    }
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct BenchSuite {
    /// Machine configuration description the simulated records ran on.
    pub machine: String,
    /// Source commit the suite ran at (`FEM2_COMMIT` env override, then
    /// `GITHUB_SHA`, then the enclosing `.git/HEAD`; `unknown` otherwise).
    pub commit: String,
    /// Content hash of the resolved simulated-plane machine plan, so
    /// registry consumers can tell apart runs whose `machine` strings
    /// collide but whose configurations differ.
    pub plan_hash: String,
    /// Flat `key=value` summary of the suite knobs, one line, for
    /// registry display and grouping.
    pub params: String,
    /// Times the mix ran (see [`BenchOptions::repeat`]).
    pub repeat: u32,
    /// All timed records, in run order.
    pub records: Vec<BenchRecord>,
}

/// The commit this suite ran at, best-effort and offline: an explicit
/// `FEM2_COMMIT` wins, then CI's `GITHUB_SHA`, then the enclosing git
/// checkout's `HEAD` (following one level of ref indirection, with a
/// `packed-refs` fallback), and finally `"unknown"`.
fn commit_id() -> String {
    for var in ["FEM2_COMMIT", "GITHUB_SHA"] {
        if let Ok(c) = std::env::var(var) {
            let c = c.trim();
            if !c.is_empty() {
                return c.to_string();
            }
        }
    }
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(text) = std::fs::read_to_string(git.join("HEAD")) {
            let text = text.trim();
            let Some(refname) = text.strip_prefix("ref: ") else {
                return text.to_string(); // detached HEAD: the hash itself
            };
            if let Ok(h) = std::fs::read_to_string(git.join(refname)) {
                return h.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                for line in packed.lines() {
                    if let Some((hash, name)) = line.split_once(' ') {
                        if name == refname {
                            return hash.to_string();
                        }
                    }
                }
            }
            return "unknown".to_string();
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    "unknown".to_string()
}

fn wall_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// The default machine configuration with the suite's ablation toggles
/// applied; `--no-route-cache` / `--des-queue heap` run the identical
/// workload through the reference paths.
fn e1_config(opts: BenchOptions) -> MachineConfig {
    let mut cfg = MachineConfig::fem2_default();
    cfg.route_cache = opts.route_cache;
    cfg.des_queue = opts.des_queue;
    cfg
}

/// E1: the plate sweep on the simulated plane. The untraced sizes fan
/// across the pool (each cell is its own scenario); one traced 48×48 run
/// supplies event throughput and queue depth.
fn e1_records(records: &mut Vec<BenchRecord>, opts: BenchOptions, pool: &Pool) {
    let sized = par_sweep(pool, vec![8usize, 16, 32, 48], |n| {
        let scenario = PlateScenario::square(n, e1_config(opts)).with_budget(opts.budget());
        let cost = fem2_core::verify::scenario_cost(&scenario);
        plate_record(format!("e1_plate_{n}"), &scenario).with_prediction(&cost)
    });
    records.extend(sized);
    // The traced run: same workload, plus observation.
    let (handle, rec) = TraceHandle::ring(TRACE_RING);
    let scenario = PlateScenario::square(48, e1_config(opts))
        .with_trace(handle)
        .with_budget(opts.budget());
    let cost = fem2_core::verify::scenario_cost(&scenario);
    let (wall, (cycles, _, status, links, clusters)) = wall_of(|| budgeted(&scenario));
    let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
    let events = rec.metrics().total_events();
    let secs = (wall as f64 / 1e9).max(1e-9);
    records.push(
        BenchRecord {
            name: "e1_plate_48_traced".into(),
            wall_ns: wall,
            wall_ns_median: wall,
            sim_cycles: cycles,
            events,
            events_per_sec: (events as f64 / secs) as u64,
            peak_queue_depth: rec.metrics().peak_queue_depth(),
            run_status: status.into(),
            predicted_events: 0,
            predicted_cycles: 0,
            tightness: 0.0,
            alloc_links: links,
            alloc_clusters: clusters,
            saturation_clusters: 0,
        }
        .with_prediction(&cost),
    );
}

/// Run a plate scenario under its budget: `(cycles, events, status,
/// alloc_links, alloc_clusters)`. Under a budget override a run may end as
/// a deterministic abort: the record then carries the cycles reached and
/// says so (allocation counters are unobservable on the abort path).
fn budgeted(scenario: &PlateScenario) -> (u64, u64, &'static str, u64, u64) {
    match scenario.run_budgeted() {
        Ok(report) => (
            report.elapsed,
            report.engine_events,
            "ok",
            report.alloc_link_records,
            report.alloc_cluster_records,
        ),
        Err(abort) => (abort.sim_cycles, abort.des_events, "aborted", 0, 0),
    }
}

/// Grid size of the largest E1 plate in the suite.
const LARGE_E1_N: usize = 64;

/// The largest E1 plate: engine events and events/sec on the default
/// machine.
fn e1_large_plate(records: &mut Vec<BenchRecord>, opts: BenchOptions) {
    let scenario = PlateScenario::square(LARGE_E1_N, e1_config(opts)).with_budget(opts.budget());
    records.push(plate_record(format!("e1_plate_{LARGE_E1_N}"), &scenario));
}

/// Time one budgeted plate run into an untraced record.
fn plate_record(name: String, scenario: &PlateScenario) -> BenchRecord {
    let (wall, (cycles, events, status, links, clusters)) = wall_of(|| budgeted(scenario));
    let mut r = BenchRecord::untraced(name, wall, cycles).with_engine_events(events);
    r.run_status = status.into();
    r.alloc_links = links;
    r.alloc_clusters = clusters;
    r
}

/// Grid size of the large-machine E1 plate: the fixed plate workload on a
/// 1024-cluster torus, three orders more clusters than the work needs.
/// The row exists to prove sparse machine state end to end: the run must
/// allocate link and cluster records proportional to the clusters the
/// plate actually touches, never to the machine's size (CI gates on the
/// `alloc_links` field).
const TORUS_E1_N: usize = 32;
/// Cluster count of the large-machine E1 row.
const TORUS_E1_CLUSTERS: u32 = 1024;
/// Task count of the large-machine E1 row: enough parallelism for the
/// plate, far fewer than the machine's worker count, so most clusters
/// never dispatch work and must never materialize PE records.
const TORUS_E1_TASKS: u32 = 128;

/// The large-machine E1 row: the fixed plate on a 1024-cluster 32×32
/// torus.
fn e1_torus_plate(records: &mut Vec<BenchRecord>, opts: BenchOptions) {
    let side = (TORUS_E1_CLUSTERS as f64).sqrt() as u32;
    let mut cfg = e1_config(opts);
    cfg.clusters = TORUS_E1_CLUSTERS;
    cfg.topology = Topology::Torus {
        dims: vec![side, side],
    };
    let mut scenario = PlateScenario::square(TORUS_E1_N, cfg).with_budget(opts.budget());
    scenario.tasks = TORUS_E1_TASKS;
    records.push(plate_record(
        format!("e1_plate_{TORUS_E1_N}_torus{TORUS_E1_CLUSTERS}"),
        &scenario,
    ));
}

/// Cluster counts of the weak-scaling sweep: fixed work per cluster from
/// 32 to 4096 clusters, so perfect weak scaling is a flat makespan and a
/// flat events/sec.
const WS_CLUSTERS: [u32; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];
/// Payload words of each weak-scaling message.
const WS_WORDS: u64 = 64;
/// Flops charged per cluster per weak-scaling cell.
const WS_FLOPS: u64 = 64;

/// The topology of one weak-scaling cell. Both shapes factor every power
/// of two in [`WS_CLUSTERS`]: the torus as the near-square 2-D grid, the
/// fat tree with a `sqrt(n)`-ish radix.
fn ws_topology(kind: &str, n: u32) -> Topology {
    let k = n.trailing_zeros();
    match kind {
        "torus" => Topology::Torus {
            dims: vec![1 << (k / 2), 1 << (k - k / 2)],
        },
        "fattree" => Topology::FatTree {
            radix: 1 << (k / 2),
        },
        other => unreachable!("unknown weak-scaling topology {other}"),
    }
}

/// One weak-scaling cell: every cluster charges [`WS_FLOPS`] flops and
/// sends two [`WS_WORDS`]-word messages at time zero — one to its ring
/// neighbor, one to its antipode (the antipodal half crosses the bisection,
/// so a topology whose bisection bandwidth grows slower than the cluster
/// count congests as the sweep scales). Returns `(makespan, events,
/// alloc_links, alloc_clusters)`; all four are deterministic.
fn ws_cell(opts: BenchOptions, kind: &str, n: u32) -> (u64, u64, u64, u64) {
    let mut cfg = MachineConfig::clustered(n, 2, ws_topology(kind, n));
    cfg.route_cache = opts.route_cache;
    cfg.des_queue = opts.des_queue;
    let mut m = Machine::new(cfg);
    let mut makespan = 0u64;
    for c in 0..n {
        let pe = m.pick_worker(c).expect("two PEs per cluster");
        let done = m
            .charge(0, pe, CostClass::Flop, WS_FLOPS)
            .expect("healthy machine");
        let near = m.transmit(0, c, (c + 1) % n, WS_WORDS);
        let far = m.transmit(0, c, (c + n / 2) % n, WS_WORDS);
        makespan = makespan.max(done).max(near).max(far);
    }
    (
        makespan,
        m.events,
        m.network.allocated_link_records() as u64,
        m.allocated_cluster_records() as u64,
    )
}

/// The weak-scaling sweep: [`ws_cell`] per topology per cluster count,
/// recording events/sec, the allocated link/cluster records (the peak-RSS
/// proxy: a dense machine would grow these with the id space, the sparse
/// one only with touched state), and the topology's bisection saturation
/// point — the smallest cluster count whose makespan more than doubles
/// the 32-cluster makespan, stamped on every row of that topology.
fn ws_records(records: &mut Vec<BenchRecord>, opts: BenchOptions) {
    for kind in ["torus", "fattree"] {
        let mut rows = Vec::new();
        let mut base_makespan = 0u64;
        let mut saturation = 0u64;
        for n in WS_CLUSTERS {
            let (wall, (makespan, events, links, clusters)) = wall_of(|| ws_cell(opts, kind, n));
            if n == WS_CLUSTERS[0] {
                base_makespan = makespan;
            } else if saturation == 0 && makespan > 2 * base_makespan {
                saturation = u64::from(n);
            }
            let mut r = BenchRecord::untraced(format!("ws_{kind}_{n}"), wall, makespan)
                .with_engine_events(events);
            r.alloc_links = links;
            r.alloc_clusters = clusters;
            rows.push(r);
        }
        for mut r in rows {
            r.saturation_clusters = saturation;
            records.push(r);
        }
    }
}

/// E5: the communication-pattern sweep on the bare network. Each
/// (pattern, size, topology) cell builds one network and replays the
/// pattern 50 times at advancing simulated time — the steady-state shape a
/// long simulation produces, where the same routes are looked up over and
/// over. Cells are independent, so they fan across the pool; the checksum
/// folds per-cell totals in grid order, giving the same `sim_cycles` as
/// the sequential nested loops this replaced. It is the sum of
/// per-repetition delivery makespans — a deterministic checksum of the
/// route + contention model.
fn e5_record(opts: BenchOptions, pool: &Pool) -> BenchRecord {
    let clusters = 8u32;
    let mut cells = Vec::new();
    for pattern in ["neighbor", "irregular", "all-to-one", "broadcast"] {
        for &words in &[8u64, 256, 4096] {
            for topo in [
                Topology::Bus,
                Topology::Ring,
                Topology::Mesh2D { width: 4 },
                Topology::Crossbar,
            ] {
                cells.push((pattern, words, topo));
            }
        }
    }
    let (wall, (total, messages)) = wall_of(|| {
        par_sweep(pool, cells, |(pattern, words, topo)| {
            let mut cfg = MachineConfig::clustered(clusters, 2, topo);
            cfg.max_packet_words = 256;
            cfg.route_cache = opts.route_cache;
            cfg.des_queue = opts.des_queue;
            let mut net = Network::new(&cfg);
            let mut now = 0u64;
            let mut cell_total = 0u64;
            for _ in 0..50 {
                let done = ex::run_pattern(&mut net, now, pattern, clusters, words);
                cell_total = cell_total.wrapping_add(done - now);
                now = done;
            }
            (cell_total, net.messages)
        })
        .into_iter()
        .fold((0u64, 0u64), |(t, m), (ct, cm)| {
            (t.wrapping_add(ct), m + cm)
        })
    });
    // Engine events for the bare-network record: messages carried.
    BenchRecord::untraced("e5_network", wall, total).with_engine_events(messages)
}

/// The E7 machine with the suite's ablation toggles applied.
fn e7_config(opts: BenchOptions) -> MachineConfig {
    let mut cfg = MachineConfig::clustered(4, 4, Topology::Crossbar);
    cfg.route_cache = opts.route_cache;
    cfg.des_queue = opts.des_queue;
    cfg
}

/// E7 (traced): the kernel workload (48 tasks + 3 RPCs on a 4x4 crossbar)
/// under a link fault, repair, and degrade — traced, so this record
/// carries a real DES queue depth: unlike the plate runs, which model
/// primitives directly on the machine, the kernel schedules through the
/// [`EventQueue`](fem2_core::machine::EventQueue).
fn e7_record(opts: BenchOptions) -> BenchRecord {
    let plan = FaultPlan::none()
        .kill_link(20_000, 1)
        .degrade_link(25_000, 2, 4)
        .recover_link(60_000, 1);
    let (handle, rec) = TraceHandle::ring(TRACE_RING);
    let (wall, (_, makespan)) = wall_of(|| ex::e7_sim(e7_config(opts), &plan, handle));
    let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
    let events = rec.metrics().total_events();
    let secs = (wall as f64 / 1e9).max(1e-9);
    BenchRecord {
        name: "e7_kernel_traced".into(),
        wall_ns: wall,
        wall_ns_median: wall,
        sim_cycles: makespan,
        events,
        events_per_sec: (events as f64 / secs) as u64,
        peak_queue_depth: rec.metrics().peak_queue_depth(),
        run_status: "ok".into(),
        predicted_events: 0,
        predicted_cycles: 0,
        tightness: 0.0,
        alloc_links: 0,
        alloc_clusters: 0,
        saturation_clusters: 0,
    }
}

/// E7 fault-mix sweep: the same kernel workload under each fault mix
/// (healthy, pe, link, mem, combined), untraced, fanned across the pool.
/// The kernel sim holds non-`Send` state, so each cell builds and consumes
/// its sim inside the worker; only `(name, makespan)` crosses back.
fn e7_mix_records(records: &mut Vec<BenchRecord>, opts: BenchOptions, pool: &Pool) {
    let mixes = ex::e7_mixes();
    let swept = par_sweep(pool, mixes, |(label, plan)| {
        let (wall, (sim, makespan)) =
            wall_of(|| ex::e7_sim(e7_config(opts), &plan, TraceHandle::disabled()));
        BenchRecord::untraced(format!("e7_mix_{label}"), wall, makespan)
            .with_engine_events(sim.events_processed())
    });
    records.extend(swept);
}

/// E9: native-plane solver wall times on the 32×32 plate system.
/// `sim_cycles` carries the solver's flop count (its deterministic work
/// measure); CSR assembly is timed separately as `e9_to_csr_32`.
fn e9_records(records: &mut Vec<BenchRecord>) {
    let nx = 32usize;
    let (csr_wall, a) = wall_of(|| ex::solver_testmat(nx));
    records.push(BenchRecord::untraced("e9_to_csr_32", csr_wall, 0));
    let n = nx * nx;
    let f: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 17) as f64 - 8.0).collect();
    let ctl = IterControls {
        rel_tol: 1e-8,
        max_iter: 200_000,
    };
    let (wall, log) = wall_of(|| solver::cg::solve(&a, &f, ctl, false).1);
    records.push(BenchRecord::untraced("e9_cg_32", wall, log.flops));
    let (wall, log) = wall_of(|| solver::cg::solve(&a, &f, ctl, true).1);
    records.push(BenchRecord::untraced("e9_jacobi_pcg_32", wall, log.flops));
    let (wall, _) = wall_of(|| solver::skyline::solve(&a, &f).expect("plate system is SPD"));
    records.push(BenchRecord::untraced("e9_skyline_32", wall, 0));
}

/// One pass over the fixed mix.
fn run_mix(opts: BenchOptions, pool: &Pool) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    e1_records(&mut records, opts, pool);
    e1_large_plate(&mut records, opts);
    e1_torus_plate(&mut records, opts);
    ws_records(&mut records, opts);
    records.push(e5_record(opts, pool));
    records.push(e7_record(opts));
    e7_mix_records(&mut records, opts, pool);
    e9_records(&mut records);
    records
}

/// Run the fixed mix with default options and collect every record.
pub fn run_suite() -> BenchSuite {
    run_suite_opts(BenchOptions::default())
}

/// Run the fixed mix with the route cache toggled on the simulated-plane
/// records. Kept for the `--no-route-cache` ablation's original call
/// shape; see [`run_suite_opts`] for the full knob set.
pub fn run_suite_with(route_cache: bool) -> BenchSuite {
    run_suite_opts(BenchOptions {
        route_cache,
        ..BenchOptions::default()
    })
}

/// Run the fixed mix `opts.repeat` times and merge: per record, `wall_ns`
/// is the minimum wall time across runs and `wall_ns_median` the median
/// (upper median for even counts); deterministic fields come from the
/// first run (they are identical across runs). The worker pool is sized
/// from `FEM2_PAR_THREADS` (see [`Pool::from_env`]).
pub fn run_suite_opts(opts: BenchOptions) -> BenchSuite {
    let pool = Pool::from_env();
    let repeat = opts.repeat.max(1);
    let runs: Vec<Vec<BenchRecord>> = (0..repeat).map(|_| run_mix(opts, &pool)).collect();
    let records = runs[0]
        .iter()
        .enumerate()
        .map(|(i, r0)| {
            let mut walls: Vec<u64> = runs.iter().map(|run| run[i].wall_ns).collect();
            walls.sort_unstable();
            let best = walls[0];
            let median = walls[walls.len() / 2];
            let mut merged = r0.clone();
            merged.wall_ns = best;
            merged.wall_ns_median = median;
            if merged.events > 0 {
                // Keep throughput consistent with the reported best wall.
                let secs = (best as f64 / 1e9).max(1e-9);
                merged.events_per_sec = (merged.events as f64 / secs) as u64;
            }
            merged
        })
        .collect();
    let mut machine = MachineConfig::fem2_default().describe();
    if !opts.route_cache {
        machine.push_str(" [route cache off]");
    }
    if opts.des_queue == DesQueue::Heap {
        machine.push_str(" [des queue heap]");
    }
    let plan = e1_config(opts);
    let mut params = format!(
        "route_cache={} des_queue={} repeat={} threads={}",
        if opts.route_cache { "on" } else { "off" },
        match opts.des_queue {
            DesQueue::Calendar => "calendar",
            DesQueue::Heap => "heap",
        },
        repeat,
        pool.threads(),
    );
    if let Some(c) = opts.budget_cycles {
        params.push_str(&format!(" budget_cycles={c}"));
    }
    if let Some(e) = opts.budget_events {
        params.push_str(&format!(" budget_events={e}"));
    }
    BenchSuite {
        machine,
        commit: commit_id(),
        plan_hash: fem2_core::hash::hash_hex(fem2_core::hash::content_hash(&plan)),
        params,
        repeat,
        records,
    }
}

impl BenchSuite {
    /// Serialize as the `fem2-bench/7` JSON document.
    pub fn to_json(&self) -> String {
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("machine".into(), Value::Str(self.machine.clone())),
            ("commit".into(), Value::Str(self.commit.clone())),
            ("plan_hash".into(), Value::Str(self.plan_hash.clone())),
            ("params".into(), Value::Str(self.params.clone())),
            ("repeat".into(), Value::UInt(u64::from(self.repeat))),
            (
                "results".into(),
                Value::Arr(self.records.iter().map(BenchRecord::to_value).collect()),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("bench document has no non-finite floats")
    }

    /// A human-oriented summary table of the suite.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fem2-bench suite on {} (best of {})",
            self.machine, self.repeat
        );
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>14} {:>10} {:>12} {:>8}",
            "record", "wall(us)", "median(us)", "sim_cycles", "events", "events/s", "peak_q"
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12} {:>14} {:>10} {:>12} {:>8}",
                r.name,
                r.wall_ns / 1_000,
                r.wall_ns_median / 1_000,
                r.sim_cycles,
                r.events,
                r.events_per_sec,
                r.peak_queue_depth
            );
        }
        out
    }
}

/// Validate a `BENCH_fem2.json` document. Accepts the current
/// `fem2-bench/7` schema plus the previous six: `fem2-bench/6` lacks the
/// per-record `alloc_links`/`alloc_clusters`/`saturation_clusters`,
/// `fem2-bench/5` additionally lacks `shards`/`speedup`, `fem2-bench/4`
/// additionally lacks `predicted_events`/`predicted_cycles`/`tightness`,
/// `fem2-bench/3` additionally lacks the per-record `run_status`,
/// `fem2-bench/2` additionally lacks the `commit`/`plan_hash`/`params`
/// provenance fields, and `fem2-bench/1` additionally lacks the suite
/// `repeat` and per-record `wall_ns_median`. Returns the number of
/// validated records.
pub fn validate_json(text: &str) -> Result<usize, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = doc.get_field("schema").map_err(|e| e.to_string())?;
    let version = match schema {
        Value::Str(s) if s == SCHEMA => 7,
        Value::Str(s) if s == SCHEMA_V6 => 6,
        Value::Str(s) if s == SCHEMA_V5 => 5,
        Value::Str(s) if s == SCHEMA_V4 => 4,
        Value::Str(s) if s == SCHEMA_V3 => 3,
        Value::Str(s) if s == SCHEMA_V2 => 2,
        Value::Str(s) if s == SCHEMA_V1 => 1,
        other => {
            return Err(format!(
                "schema must be one of \"{SCHEMA}\", \"{SCHEMA_V6}\", \"{SCHEMA_V5}\", \
                 \"{SCHEMA_V4}\", \"{SCHEMA_V3}\", \"{SCHEMA_V2}\", or \"{SCHEMA_V1}\", \
                 found {other:?}"
            ))
        }
    };
    let v2 = version >= 2;
    match doc.get_field("machine").map_err(|e| e.to_string())? {
        Value::Str(_) => {}
        other => return Err(format!("machine must be a string, found {}", other.kind())),
    }
    if version >= 3 {
        for field in ["commit", "plan_hash", "params"] {
            match doc.get_field(field).map_err(|e| e.to_string())? {
                Value::Str(s) if !s.is_empty() => {}
                _ => return Err(format!("{field} must be a non-empty string")),
            }
        }
    }
    if v2 {
        match doc.get_field("repeat").map_err(|e| e.to_string())? {
            Value::UInt(n) if *n >= 1 => {}
            Value::Int(n) if *n >= 1 => {}
            other => {
                return Err(format!(
                    "repeat must be a positive integer, found {}",
                    other.kind()
                ))
            }
        }
    }
    let results = match doc.get_field("results").map_err(|e| e.to_string())? {
        Value::Arr(items) => items,
        other => return Err(format!("results must be an array, found {}", other.kind())),
    };
    if results.is_empty() {
        return Err("results array is empty".into());
    }
    let mut required = vec![
        "wall_ns",
        "sim_cycles",
        "events",
        "events_per_sec",
        "peak_queue_depth",
    ];
    if v2 {
        required.push("wall_ns_median");
    }
    for (i, rec) in results.iter().enumerate() {
        match rec
            .get_field("name")
            .map_err(|e| format!("record {i}: {e}"))?
        {
            Value::Str(s) if !s.is_empty() => {}
            _ => return Err(format!("record {i}: name must be a non-empty string")),
        }
        for field in &required {
            match rec
                .get_field(field)
                .map_err(|e| format!("record {i}: {e}"))?
            {
                Value::UInt(_) => {}
                Value::Int(v) if *v >= 0 => {}
                other => {
                    return Err(format!(
                        "record {i}: {field} must be a non-negative integer, found {}",
                        other.kind()
                    ))
                }
            }
        }
        if version >= 4 {
            match rec
                .get_field("run_status")
                .map_err(|e| format!("record {i}: {e}"))?
            {
                Value::Str(s) if matches!(s.as_str(), "ok" | "failed" | "aborted") => {}
                other => {
                    return Err(format!(
                        "record {i}: run_status must be \"ok\", \"failed\", or \"aborted\", \
                         found {other:?}"
                    ))
                }
            }
        }
        if version >= 5 {
            for field in ["predicted_events", "predicted_cycles"] {
                match rec
                    .get_field(field)
                    .map_err(|e| format!("record {i}: {e}"))?
                {
                    Value::UInt(_) => {}
                    Value::Int(v) if *v >= 0 => {}
                    other => {
                        return Err(format!(
                            "record {i}: {field} must be a non-negative integer, found {}",
                            other.kind()
                        ))
                    }
                }
            }
            match rec
                .get_field("tightness")
                .map_err(|e| format!("record {i}: {e}"))?
            {
                Value::Float(f) if *f >= 0.0 => {}
                Value::UInt(_) => {}
                Value::Int(v) if *v >= 0 => {}
                other => {
                    return Err(format!(
                        "record {i}: tightness must be a non-negative number, found {}",
                        other.kind()
                    ))
                }
            }
        }
        if version >= 6 {
            match rec
                .get_field("shards")
                .map_err(|e| format!("record {i}: {e}"))?
            {
                Value::UInt(v) if *v > 0 => {}
                Value::Int(v) if *v > 0 => {}
                other => {
                    return Err(format!(
                        "record {i}: shards must be a positive integer, found {}",
                        other.kind()
                    ))
                }
            }
            match rec
                .get_field("speedup")
                .map_err(|e| format!("record {i}: {e}"))?
            {
                Value::Float(f) if *f >= 0.0 => {}
                Value::UInt(_) => {}
                Value::Int(v) if *v >= 0 => {}
                other => {
                    return Err(format!(
                        "record {i}: speedup must be a non-negative number, found {}",
                        other.kind()
                    ))
                }
            }
        }
        if version >= 7 {
            for field in ["alloc_links", "alloc_clusters", "saturation_clusters"] {
                match rec
                    .get_field(field)
                    .map_err(|e| format!("record {i}: {e}"))?
                {
                    Value::UInt(_) => {}
                    Value::Int(v) if *v >= 0 => {}
                    other => {
                        return Err(format!(
                            "record {i}: {field} must be a non-negative integer, found {}",
                            other.kind()
                        ))
                    }
                }
            }
        }
    }
    Ok(results.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny suite (not the full mix) keeps the test fast while covering
    /// serialization + validation round trip.
    fn small_suite() -> BenchSuite {
        BenchSuite {
            machine: "test".into(),
            commit: "deadbeef".into(),
            plan_hash: "0123456789abcdef".into(),
            params: "route_cache=on des_queue=calendar repeat=1 threads=2".into(),
            repeat: 1,
            records: vec![
                BenchRecord::untraced("a", 1_000, 42),
                BenchRecord {
                    name: "b".into(),
                    wall_ns: 2_000,
                    wall_ns_median: 2_500,
                    sim_cycles: 7,
                    events: 10,
                    events_per_sec: 5_000_000,
                    peak_queue_depth: 3,
                    run_status: "ok".into(),
                    predicted_events: 12,
                    predicted_cycles: 9,
                    tightness: 9.0 / 7.0,
                    alloc_links: 12,
                    alloc_clusters: 4,
                    saturation_clusters: 0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_validation() {
        let json = small_suite().to_json();
        assert_eq!(validate_json(&json), Ok(2));
    }

    #[test]
    fn validation_accepts_the_previous_schemas() {
        let v1 = format!(
            r#"{{"schema":"{SCHEMA_V1}","machine":"m","results":[
                {{"name":"x","wall_ns":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0}}]}}"#
        );
        assert_eq!(validate_json(&v1), Ok(1));
        // v2: has repeat + median, no provenance fields.
        let v2 = format!(
            r#"{{"schema":"{SCHEMA_V2}","machine":"m","repeat":1,"results":[
                {{"name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0}}]}}"#
        );
        assert_eq!(validate_json(&v2), Ok(1));
        // v3: full provenance, no per-record run_status.
        let v3 = format!(
            r#"{{"schema":"{SCHEMA_V3}","machine":"m","commit":"c","plan_hash":"p",
                "params":"x","repeat":1,"results":[
                {{"name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0}}]}}"#
        );
        assert_eq!(validate_json(&v3), Ok(1));
        // v4: run_status, no prediction fields.
        let v4 = format!(
            r#"{{"schema":"{SCHEMA_V4}","machine":"m","commit":"c","plan_hash":"p",
                "params":"x","repeat":1,"results":[
                {{"name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0,"run_status":"ok"}}]}}"#
        );
        assert_eq!(validate_json(&v4), Ok(1));
        // v5: prediction fields, no shard fields.
        let v5 = format!(
            r#"{{"schema":"{SCHEMA_V5}","machine":"m","commit":"c","plan_hash":"p",
                "params":"x","repeat":1,"results":[
                {{"name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0,"run_status":"ok",
                  "predicted_events":3,"predicted_cycles":3,"tightness":1.5}}]}}"#
        );
        assert_eq!(validate_json(&v5), Ok(1));
        // v6: shard fields, no allocation fields.
        let v6 = format!(
            r#"{{"schema":"{SCHEMA_V6}","machine":"m","commit":"c","plan_hash":"p",
                "params":"x","repeat":1,"results":[
                {{"name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0,"run_status":"ok",
                  "predicted_events":3,"predicted_cycles":3,"tightness":1.5,
                  "shards":2,"speedup":1.8}}]}}"#
        );
        assert_eq!(validate_json(&v6), Ok(1));
    }

    #[test]
    fn v4_requires_run_status() {
        let head = format!(
            r#""schema":"{SCHEMA_V4}","machine":"m","commit":"c","plan_hash":"p",
               "params":"x","repeat":1"#
        );
        let record = r#""name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,
                        "events":0,"events_per_sec":0,"peak_queue_depth":0"#;
        let missing = format!(r#"{{{head},"results":[{{{record}}}]}}"#);
        assert!(validate_json(&missing).unwrap_err().contains("run_status"));
        let bad = format!(r#"{{{head},"results":[{{{record},"run_status":"meh"}}]}}"#);
        assert!(validate_json(&bad).unwrap_err().contains("run_status"));
        let aborted = format!(r#"{{{head},"results":[{{{record},"run_status":"aborted"}}]}}"#);
        assert_eq!(validate_json(&aborted), Ok(1));
    }

    #[test]
    fn v5_requires_prediction_fields() {
        let head = format!(
            r#""schema":"{SCHEMA_V5}","machine":"m","commit":"c","plan_hash":"p",
               "params":"x","repeat":1"#
        );
        let record = r#""name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,
                        "events":0,"events_per_sec":0,"peak_queue_depth":0,
                        "run_status":"ok""#;
        let missing = format!(r#"{{{head},"results":[{{{record}}}]}}"#);
        assert!(validate_json(&missing)
            .unwrap_err()
            .contains("predicted_events"));
        let no_tightness = format!(
            r#"{{{head},"results":[{{{record},"predicted_events":3,"predicted_cycles":3}}]}}"#
        );
        assert!(validate_json(&no_tightness)
            .unwrap_err()
            .contains("tightness"));
        let bad = format!(
            r#"{{{head},"results":[{{{record},"predicted_events":3,"predicted_cycles":3,
                "tightness":"big"}}]}}"#
        );
        assert!(validate_json(&bad).unwrap_err().contains("tightness"));
        let full = format!(
            r#"{{{head},"results":[{{{record},"predicted_events":3,"predicted_cycles":3,
                "tightness":1.5}}]}}"#
        );
        assert_eq!(validate_json(&full), Ok(1));
    }

    #[test]
    fn v6_requires_shard_fields() {
        let head = format!(
            r#""schema":"{SCHEMA_V6}","machine":"m","commit":"c","plan_hash":"p",
               "params":"x","repeat":1"#
        );
        let record = r#""name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,
                        "events":0,"events_per_sec":0,"peak_queue_depth":0,
                        "run_status":"ok","predicted_events":3,"predicted_cycles":3,
                        "tightness":1.5"#;
        let missing = format!(r#"{{{head},"results":[{{{record}}}]}}"#);
        assert!(validate_json(&missing).unwrap_err().contains("shards"));
        let zero = format!(r#"{{{head},"results":[{{{record},"shards":0,"speedup":1.0}}]}}"#);
        assert!(validate_json(&zero).unwrap_err().contains("shards"));
        let no_speedup = format!(r#"{{{head},"results":[{{{record},"shards":2}}]}}"#);
        assert!(validate_json(&no_speedup).unwrap_err().contains("speedup"));
        let bad = format!(r#"{{{head},"results":[{{{record},"shards":2,"speedup":"fast"}}]}}"#);
        assert!(validate_json(&bad).unwrap_err().contains("speedup"));
        let full = format!(r#"{{{head},"results":[{{{record},"shards":2,"speedup":1.8}}]}}"#);
        assert_eq!(validate_json(&full), Ok(1));
    }

    #[test]
    fn v7_requires_allocation_fields() {
        let head = format!(
            r#""schema":"{SCHEMA}","machine":"m","commit":"c","plan_hash":"p",
               "params":"x","repeat":1"#
        );
        let record = r#""name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,
                        "events":0,"events_per_sec":0,"peak_queue_depth":0,
                        "run_status":"ok","predicted_events":3,"predicted_cycles":3,
                        "tightness":1.5,"shards":2,"speedup":1.8"#;
        let missing = format!(r#"{{{head},"results":[{{{record}}}]}}"#);
        assert!(validate_json(&missing).unwrap_err().contains("alloc_links"));
        let partial = format!(r#"{{{head},"results":[{{{record},"alloc_links":4}}]}}"#);
        assert!(validate_json(&partial)
            .unwrap_err()
            .contains("alloc_clusters"));
        let bad = format!(
            r#"{{{head},"results":[{{{record},"alloc_links":4,"alloc_clusters":2,
                "saturation_clusters":"never"}}]}}"#
        );
        assert!(validate_json(&bad)
            .unwrap_err()
            .contains("saturation_clusters"));
        let full = format!(
            r#"{{{head},"results":[{{{record},"alloc_links":4,"alloc_clusters":2,
                "saturation_clusters":0}}]}}"#
        );
        assert_eq!(validate_json(&full), Ok(1));
    }

    #[test]
    fn weak_scaling_sweep_is_deterministic_and_sparse() {
        let opts = BenchOptions::default();
        let mut a = Vec::new();
        ws_records(&mut a, opts);
        let mut b = Vec::new();
        ws_records(&mut b, opts);
        let key = |rs: &[BenchRecord]| {
            rs.iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        r.sim_cycles,
                        r.events,
                        r.alloc_links,
                        r.alloc_clusters,
                        r.saturation_clusters,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "the sweep is a pure simulated quantity");
        assert_eq!(a.len(), 2 * WS_CLUSTERS.len(), "both topologies, all sizes");
        for r in &a {
            let n: u64 = r.name.rsplit('_').next().unwrap().parse().unwrap();
            assert_eq!(r.events, 3 * n, "fixed work per cluster");
            assert_eq!(r.alloc_clusters, n, "every cluster ran work");
            assert!(
                r.alloc_links <= 6 * n,
                "{}: {} link records is not O(active) for {} clusters",
                r.name,
                r.alloc_links,
                n
            );
        }
        // The 2-D torus bisection grows as sqrt(n) against antipodal
        // traffic that grows as n: the sweep must find its saturation
        // point. The fat tree's bisection grows with n: it must not.
        let torus = a.iter().find(|r| r.name == "ws_torus_4096").unwrap();
        assert!(
            torus.saturation_clusters > 0,
            "torus antipodal traffic must saturate, makespan {}",
            torus.sim_cycles
        );
        let fat = a.iter().find(|r| r.name == "ws_fattree_4096").unwrap();
        assert_eq!(
            fat.saturation_clusters, 0,
            "fat-tree bisection keeps up, makespan {}",
            fat.sim_cycles
        );
    }

    #[test]
    fn torus_e1_row_is_o_active() {
        let mut records = Vec::new();
        e1_torus_plate(&mut records, BenchOptions::default());
        assert_eq!(records.len(), 1);
        let s1 = &records[0];
        assert_eq!(s1.name, "e1_plate_32_torus1024");
        assert_eq!(s1.run_status, "ok");
        let n = u64::from(TORUS_E1_CLUSTERS);
        assert!(
            s1.alloc_links < 4 * n,
            "{} link records on a {} cluster torus is not O(active)",
            s1.alloc_links,
            n
        );
        assert!(
            s1.alloc_clusters < n / 2,
            "{} cluster records: a {}-task plate must not touch most of the \
             {n}-cluster machine",
            s1.alloc_clusters,
            TORUS_E1_TASKS
        );
    }

    #[test]
    fn e1_records_carry_sound_prediction_bounds() {
        let pool = Pool::new(2);
        let mut records = Vec::new();
        e1_records(&mut records, BenchOptions::default(), &pool);
        for r in &records {
            assert!(
                r.predicted_cycles >= r.sim_cycles,
                "{}: bound {} < actual {}",
                r.name,
                r.predicted_cycles,
                r.sim_cycles
            );
            assert!(
                r.tightness >= 1.0,
                "{}: tightness {} should be >= 1 for completed runs",
                r.name,
                r.tightness
            );
        }
    }

    #[test]
    fn budgeted_e1_runs_abort_deterministically_into_records() {
        let pool = Pool::new(2);
        let opts = BenchOptions {
            budget_cycles: Some(20_000),
            ..BenchOptions::default()
        };
        let mut a = Vec::new();
        e1_records(&mut a, opts, &pool);
        let mut b = Vec::new();
        e1_records(&mut b, opts, &pool);
        // The large sizes blow the budget; the abort point is a property
        // of the workload, so both passes agree exactly.
        let key = |rs: &[BenchRecord]| {
            rs.iter()
                .map(|r| (r.name.clone(), r.sim_cycles, r.run_status.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert!(
            a.iter().any(|r| r.run_status == "aborted"),
            "a 20k-cycle budget must cut the 48x48 plate short: {:?}",
            key(&a)
        );
        assert!(
            a.iter()
                .all(|r| r.run_status == "aborted" || r.sim_cycles > 0),
            "completed runs still carry their cycles"
        );
    }

    #[test]
    fn v3_requires_provenance_fields() {
        // From v3 on, a document with v2's shape (no
        // commit/plan_hash/params) fails.
        let bare = format!(
            r#"{{"schema":"{SCHEMA}","machine":"m","repeat":1,"results":[
                {{"name":"x","wall_ns":1,"wall_ns_median":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0}}]}}"#
        );
        assert!(validate_json(&bare).unwrap_err().contains("commit"));
        let empty_commit = format!(
            r#"{{"schema":"{SCHEMA}","machine":"m","commit":"","plan_hash":"p",
                "params":"x","repeat":1,"results":[]}}"#
        );
        assert!(validate_json(&empty_commit).unwrap_err().contains("commit"));
    }

    #[test]
    fn suite_carries_resolvable_provenance() {
        // commit_id() inside this checkout resolves to a real hash (the
        // repo is git-managed); plan_hash is a 16-hex-digit content hash.
        let c = commit_id();
        assert!(!c.is_empty());
        let plan = e1_config(BenchOptions::default());
        let h = fem2_core::hash::hash_hex(fem2_core::hash::content_hash(&plan));
        assert_eq!(h.len(), 16);
        assert!(h.chars().all(|ch| ch.is_ascii_hexdigit()));
        // The plan hash moves when an ablation changes the plan.
        let ablated = e1_config(BenchOptions {
            route_cache: false,
            ..BenchOptions::default()
        });
        let h2 = fem2_core::hash::hash_hex(fem2_core::hash::content_hash(&ablated));
        assert_ne!(h, h2);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_json("not json").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json(r#"{"schema":"wrong","machine":"m","results":[]}"#).is_err());
        // Valid v3 preamble for docs probing record-level failures.
        let head = format!(
            r#""schema":"{SCHEMA}","machine":"m","commit":"c","plan_hash":"p","params":"x","repeat":1"#
        );
        let empty = format!(r#"{{{head},"results":[]}}"#);
        assert!(validate_json(&empty).unwrap_err().contains("empty"));
        let missing = format!(r#"{{{head},"results":[{{"name":"x"}}]}}"#);
        assert!(validate_json(&missing).unwrap_err().contains("wall_ns"));
        let bad_name = format!(r#"{{{head},"results":[{{"name":""}}]}}"#);
        assert!(validate_json(&bad_name).unwrap_err().contains("name"));
        // v2+ requires the median field; a doc with v1's record shape fails.
        let no_median = format!(
            r#"{{{head},"results":[
                {{"name":"x","wall_ns":1,"sim_cycles":2,"events":0,
                  "events_per_sec":0,"peak_queue_depth":0}}]}}"#
        );
        assert!(validate_json(&no_median)
            .unwrap_err()
            .contains("wall_ns_median"));
        // v2+ requires the suite-level repeat.
        let no_repeat = format!(r#"{{"schema":"{SCHEMA_V2}","machine":"m","results":[]}}"#);
        assert!(validate_json(&no_repeat).unwrap_err().contains("repeat"));
    }

    #[test]
    fn table_renders_every_record() {
        let t = small_suite().table();
        assert!(t.contains("record"));
        assert!(t.lines().any(|l| l.starts_with("a ")));
        assert!(t.lines().any(|l| l.starts_with("b ")));
    }

    #[test]
    fn e5_record_is_deterministic_in_cycles() {
        let pool = Pool::new(2);
        let a = e5_record(BenchOptions::default(), &pool);
        let b = e5_record(BenchOptions::default(), &pool);
        assert_eq!(a.sim_cycles, b.sim_cycles, "cycle checksum is seeded");
        assert!(a.wall_ns > 0);
    }

    #[test]
    fn e5_cycle_checksum_is_ablation_invariant() {
        let pool = Pool::new(2);
        let cached = e5_record(BenchOptions::default(), &pool);
        let recompute = e5_record(
            BenchOptions {
                route_cache: false,
                ..BenchOptions::default()
            },
            &pool,
        );
        assert_eq!(cached.sim_cycles, recompute.sim_cycles);
    }

    #[test]
    fn e5_checksum_is_thread_count_invariant() {
        let serial = e5_record(BenchOptions::default(), &Pool::new(1));
        let parallel = e5_record(BenchOptions::default(), &Pool::new(8));
        assert_eq!(serial.sim_cycles, parallel.sim_cycles);
    }

    #[test]
    fn e7_record_observes_real_des_activity() {
        let r = e7_record(BenchOptions::default());
        assert!(r.sim_cycles > 0);
        assert!(r.events > 0, "kernel run must emit trace events");
        assert!(
            r.peak_queue_depth > 0,
            "kernel run schedules through the DES queue"
        );
        let ablated = e7_record(BenchOptions {
            route_cache: false,
            ..BenchOptions::default()
        });
        assert_eq!(
            r.sim_cycles, ablated.sim_cycles,
            "route cache must not change timing"
        );
        let heap = e7_record(BenchOptions {
            des_queue: DesQueue::Heap,
            ..BenchOptions::default()
        });
        assert_eq!(
            r.sim_cycles, heap.sim_cycles,
            "queue backend must not change timing"
        );
        assert_eq!(r.events, heap.events, "or the event stream");
    }

    #[test]
    fn e7_phase_table_reports_des_throughput() {
        let (handle, rec) = TraceHandle::ring(TRACE_RING);
        ex::e7_sim(
            e7_config(BenchOptions::default()),
            &FaultPlan::none(),
            handle,
        );
        let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
        let table = fem2_trace::chrome::phase_table(&rec);
        assert!(
            table.contains("des: dispatches"),
            "kernel dispatches must surface in the metrics table:\n{table}"
        );
        assert!(table.contains("evt/Mcyc"), "with a throughput figure");
    }

    #[test]
    fn e7_mix_sweep_is_thread_count_and_backend_invariant() {
        let run = |threads: usize, q: DesQueue| {
            let pool = Pool::new(threads);
            let mut records = Vec::new();
            e7_mix_records(
                &mut records,
                BenchOptions {
                    des_queue: q,
                    ..BenchOptions::default()
                },
                &pool,
            );
            records
                .into_iter()
                .map(|r| (r.name, r.sim_cycles))
                .collect::<Vec<_>>()
        };
        let base = run(1, DesQueue::Calendar);
        assert_eq!(base.len(), 5, "five fault mixes");
        assert_eq!(base, run(4, DesQueue::Calendar), "thread-count invariant");
        assert_eq!(base, run(4, DesQueue::Heap), "backend invariant");
    }
}
