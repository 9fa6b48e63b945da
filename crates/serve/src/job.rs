//! Job specifications: what a tenant submits, fully resolved and
//! content-addressable.
//!
//! A submission is JSON describing one of two job kinds:
//!
//! * `plate` — a plate scenario (grid, machine configuration, solver
//!   controls). Admitted plate jobs are *simulated* on the requested
//!   machine and produce the full requirement outcome.
//! * `script` — a raw kernel scenario script (the analyzer's op list).
//!   Script jobs are *analysis* workloads: they run through the same
//!   admission gate and, when clean, complete with a verification outcome
//!   without simulating (there is no runnable semantics for arbitrary
//!   scripts — the value of the job is the verdict).
//!
//! Every optional field is resolved to its default **before** hashing, so
//! `{"kind":"plate","nx":32,"ny":32}` and the same submission with all
//! defaults spelled out are the same job: one simulation, one registry
//! record, every later submission a cache hit. The hash key is the
//! canonical serialization of the resolved spec — (scenario, machine
//! config, seed) — through [`fem2_core::hash`].

use fem2_core::hash::{content_hash_value, hash_hex};
use fem2_core::PlateScenario;
use fem2_machine::{MachineConfig, RunAborted, RunBudget};
use fem2_verify::{check_cost, check_script, CostParams, CostReport, Op, Report, ScenarioScript};
use serde::json::Value;
use serde::{Deserialize as _, Serialize as _};
use std::time::Duration;

/// Default CG relative tolerance for plate jobs.
const DEFAULT_TOL: f64 = 1e-6;
/// Default CG iteration cap for plate jobs.
const DEFAULT_MAX_ITERS: usize = 5000;

/// Run budgets auto-derived from the static cost bound are the bound × 1.5.
const BUDGET_SLACK_PERCENT: u64 = 150;

/// Caps on the sizes a body may ask for, given or defaulted. Lowering and
/// the verifier work and allocate per task and per cluster before any
/// simulation starts; the caps keep that admission work bounded.
const MAX_TASKS: u32 = 65_536;
const MAX_CLUSTERS: u32 = 1 << 20;
const MAX_PES: u32 = 1024;

/// How a supervised run ended, as persisted per registry record and served
/// to clients. Absent in registry schema rev 1 records, which replay as
/// [`RunStatus::Ok`] (rev 1 only ever persisted successful runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The job completed and produced its outcome.
    Ok,
    /// The job panicked (or infrastructure failed it permanently); the
    /// record carries the failure message instead of an outcome.
    Failed,
    /// The job exceeded its run budget or was cancelled; the record
    /// carries the structured abort cause.
    Aborted,
}

impl RunStatus {
    /// Stable wire name (`ok` / `failed` / `aborted`).
    pub fn name(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Failed => "failed",
            RunStatus::Aborted => "aborted",
        }
    }

    /// Parse a wire name back; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "failed" => Some(RunStatus::Failed),
            "aborted" => Some(RunStatus::Aborted),
            _ => None,
        }
    }

    /// Whether this record carries a servable outcome.
    pub fn is_ok(self) -> bool {
        matches!(self, RunStatus::Ok)
    }
}

/// A fully resolved plate-scenario job.
#[derive(Clone, Debug, PartialEq)]
pub struct PlateJob {
    /// Display name (defaults to `plate {nx}x{ny}`).
    pub name: String,
    /// Grid points in x.
    pub nx: usize,
    /// Grid points in y.
    pub ny: usize,
    /// NA-VM task count (defaults to the machine's worker count).
    pub tasks: u32,
    /// Machine organization to simulate on.
    pub machine: MachineConfig,
    /// CG relative tolerance.
    pub tol: f64,
    /// CG iteration cap.
    pub max_iters: usize,
    /// Replication seed. Simulations are deterministic today, so the seed
    /// only partitions the cache key — reserved for stochastic fault
    /// plans; distinct seeds are distinct jobs.
    pub seed: u64,
    /// Let warning-severity findings through the admission gate.
    pub allow_warnings: bool,
    /// Abort the simulation once its clock passes this many cycles.
    /// Deterministic, so it partitions the cache key: a budgeted run and
    /// an unbudgeted run of the same plate are different jobs.
    pub budget_cycles: Option<u64>,
    /// Abort after this many DES events. Deterministic; partitions the
    /// cache key like [`budget_cycles`](Self::budget_cycles).
    pub budget_events: Option<u64>,
    /// Wall-clock deadline in milliseconds. Operational only: it depends
    /// on host speed, so it is *excluded* from the resolved spec and the
    /// content hash — two submissions differing only in `wall_ms` are the
    /// same job.
    pub budget_wall_ms: Option<u64>,
}

/// A fully resolved raw-script job (analysis only).
#[derive(Clone, Debug)]
pub struct ScriptJob {
    /// Display name.
    pub name: String,
    /// The script ops, in global program order.
    pub ops: Vec<Op>,
    /// Machine the storage pass bounds against.
    pub machine: MachineConfig,
    /// Cache-key seed (see [`PlateJob::seed`]).
    pub seed: u64,
    /// Let warning-severity findings through the admission gate.
    pub allow_warnings: bool,
}

/// One resolved submission.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// Simulate a plate scenario.
    Plate(PlateJob),
    /// Verify a raw kernel script.
    Script(ScriptJob),
}

/// The outcome of one completed job, as stored in the registry and served
/// from `/jobs/<id>/result`.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The outcome document (kind-tagged object).
    pub value: Value,
}

/// One parsed submission on its way from admission to the registry: the
/// spec, the content hash taken once at admission, and the static cost
/// report from whichever station needed it first (the quota gate, else
/// the run budget), reused for the registry record's `predicted` object.
#[derive(Debug)]
pub(crate) struct Admitted {
    pub(crate) spec: JobSpec,
    pub(crate) hash: String,
    cost: Option<CostReport>,
}

impl Admitted {
    pub(crate) fn new(spec: JobSpec) -> Self {
        let hash = spec.content_hash();
        Admitted {
            spec,
            hash,
            cost: None,
        }
    }

    /// The spec's static cost report, computed on first use.
    pub(crate) fn cost(&mut self) -> &CostReport {
        self.cost.get_or_insert_with(|| self.spec.cost_report())
    }

    /// The budget the supervisor arms for this job, plus whether any cap
    /// was auto-derived: [`PlateJob::effective_budget`] off the carried
    /// cost report for plates; scripts never simulate and run unlimited.
    pub(crate) fn effective_budget(&mut self) -> (RunBudget, bool) {
        match &self.spec {
            JobSpec::Plate(p) => {
                let cost = self.cost.get_or_insert_with(|| self.spec.cost_report());
                p.effective_budget(cost)
            }
            JobSpec::Script(_) => (RunBudget::unlimited(), false),
        }
    }
}

fn opt_u64(v: &Value, name: &str, default: u64) -> Result<u64, String> {
    match v.get_field(name).ok() {
        None | Some(Value::Null) => Ok(default),
        Some(f) => u64::from_value(f).map_err(|e| format!("field `{name}`: {e}")),
    }
}

fn opt_bool(v: &Value, name: &str, default: bool) -> Result<bool, String> {
    match v.get_field(name).ok() {
        None | Some(Value::Null) => Ok(default),
        Some(f) => bool::from_value(f).map_err(|e| format!("field `{name}`: {e}")),
    }
}

fn opt_f64(v: &Value, name: &str, default: f64) -> Result<f64, String> {
    match v.get_field(name).ok() {
        None | Some(Value::Null) => Ok(default),
        Some(f) => f64::from_value(f).map_err(|e| format!("field `{name}`: {e}")),
    }
}

fn opt_opt_u64(v: &Value, name: &str) -> Result<Option<u64>, String> {
    match v.get_field(name).ok() {
        None | Some(Value::Null) => Ok(None),
        Some(f) => u64::from_value(f)
            .map(Some)
            .map_err(|e| format!("field `{name}`: {e}")),
    }
}

/// The three optional caps of a parsed `budget` object, in declaration
/// order: `(max_sim_cycles, max_des_events, wall_ms)`.
type BudgetCaps = (Option<u64>, Option<u64>, Option<u64>);

/// Parse the optional nested `budget` object of a plate submission:
/// `{"max_sim_cycles":N,"max_des_events":M,"wall_ms":W}`, every field
/// optional.
fn opt_budget(v: &Value) -> Result<BudgetCaps, String> {
    match v.get_field("budget").ok() {
        None | Some(Value::Null) => Ok((None, None, None)),
        Some(b @ Value::Obj(_)) => {
            let cycles = opt_opt_u64(b, "max_sim_cycles").map_err(|e| format!("budget: {e}"))?;
            let events = opt_opt_u64(b, "max_des_events").map_err(|e| format!("budget: {e}"))?;
            let wall = opt_opt_u64(b, "wall_ms").map_err(|e| format!("budget: {e}"))?;
            for (name, limit) in [
                ("max_sim_cycles", cycles),
                ("max_des_events", events),
                ("wall_ms", wall),
            ] {
                if limit == Some(0) {
                    return Err(format!("budget: `{name}` must be positive when set"));
                }
            }
            Ok((cycles, events, wall))
        }
        Some(other) => Err(format!(
            "field `budget` must be an object, found {}",
            other.kind()
        )),
    }
}

fn req_str(v: &Value, name: &str) -> Result<String, String> {
    v.get_field(name)
        .map_err(|_| format!("missing field `{name}`"))
        .and_then(|f| String::from_value(f).map_err(|e| format!("field `{name}`: {e}")))
}

/// Error-message prefix of a machine configuration that parsed but failed
/// semantic validation (e.g. torus dims that do not factor the cluster
/// count). The server maps these to 422 — the submission was well-formed,
/// the configuration it describes is impossible — versus 400 for shape
/// errors.
pub const INVALID_MACHINE_PREFIX: &str = "invalid field `machine`: ";

fn opt_machine(v: &Value) -> Result<MachineConfig, String> {
    let machine = match v.get_field("machine").ok() {
        None | Some(Value::Null) => MachineConfig::fem2_default(),
        Some(m) => MachineConfig::from_value(m).map_err(|e| format!("field `machine`: {e}"))?,
    };
    machine
        .validate()
        .map_err(|e| format!("{INVALID_MACHINE_PREFIX}{e}"))?;
    for (field, value, cap) in [
        ("clusters", machine.clusters, MAX_CLUSTERS),
        ("pes_per_cluster", machine.pes_per_cluster, MAX_PES),
    ] {
        if value > cap {
            return Err(format!(
                "{INVALID_MACHINE_PREFIX}{field} {value} exceeds the cap of {cap}"
            ));
        }
    }
    Ok(machine)
}

/// Parse one script op from its JSON form, e.g.
/// `{"op":"window_send","from":"a","to":"b","window":"w","words":8}`.
fn op_from_value(v: &Value) -> Result<Op, String> {
    let kind = req_str(v, "op")?;
    let s = |name: &str| req_str(v, name);
    let n = |name: &str, default: u64| opt_u64(v, name, default);
    Ok(match kind.as_str() {
        "initiate" => Op::Initiate {
            task: s("task")?,
            cluster: u32::try_from(n("cluster", 0)?).map_err(|_| "cluster out of range")?,
            replications: u32::try_from(n("replications", 1)?)
                .map_err(|_| "replications out of range")?,
        },
        "pause" => Op::Pause { task: s("task")? },
        "resume" => Op::Resume { task: s("task")? },
        "terminate" => Op::Terminate { task: s("task")? },
        "remote_call" => Op::RemoteCall {
            caller: s("caller")?,
            call_id: n("call_id", 0)?,
        },
        "remote_return" => Op::RemoteReturn {
            call_id: n("call_id", 0)?,
        },
        "window_open" => Op::WindowOpen {
            task: s("task")?,
            window: s("window")?,
        },
        "window_send" => Op::WindowSend {
            from: s("from")?,
            to: s("to")?,
            window: s("window")?,
            words: n("words", 1)?,
        },
        "window_recv" => Op::WindowRecv {
            task: s("task")?,
            from: s("from")?,
            window: s("window")?,
        },
        "window_close" => Op::WindowClose {
            task: s("task")?,
            window: s("window")?,
        },
        "alloc" => Op::Alloc {
            cluster: u32::try_from(n("cluster", 0)?).map_err(|_| "cluster out of range")?,
            words: n("words", 0)?,
            what: s("what")?,
        },
        other => return Err(format!("unknown op `{other}`")),
    })
}

fn op_to_value(op: &Op) -> Value {
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let s = |s: &str| Value::Str(s.to_string());
    match op {
        Op::Initiate {
            task,
            cluster,
            replications,
        } => obj(vec![
            ("op", s("initiate")),
            ("task", s(task)),
            ("cluster", Value::UInt(u64::from(*cluster))),
            ("replications", Value::UInt(u64::from(*replications))),
        ]),
        Op::Pause { task } => obj(vec![("op", s("pause")), ("task", s(task))]),
        Op::Resume { task } => obj(vec![("op", s("resume")), ("task", s(task))]),
        Op::Terminate { task } => obj(vec![("op", s("terminate")), ("task", s(task))]),
        Op::Message { from, to, kind } => obj(vec![
            ("op", s("message")),
            ("from", s(from)),
            ("to", s(to)),
            ("kind", s(kind.name())),
        ]),
        Op::RemoteCall { caller, call_id } => obj(vec![
            ("op", s("remote_call")),
            ("caller", s(caller)),
            ("call_id", Value::UInt(*call_id)),
        ]),
        Op::RemoteReturn { call_id } => obj(vec![
            ("op", s("remote_return")),
            ("call_id", Value::UInt(*call_id)),
        ]),
        Op::WindowOpen { task, window } => obj(vec![
            ("op", s("window_open")),
            ("task", s(task)),
            ("window", s(window)),
        ]),
        Op::WindowSend {
            from,
            to,
            window,
            words,
        } => obj(vec![
            ("op", s("window_send")),
            ("from", s(from)),
            ("to", s(to)),
            ("window", s(window)),
            ("words", Value::UInt(*words)),
        ]),
        Op::WindowRecv { task, from, window } => obj(vec![
            ("op", s("window_recv")),
            ("task", s(task)),
            ("from", s(from)),
            ("window", s(window)),
        ]),
        Op::WindowClose { task, window } => obj(vec![
            ("op", s("window_close")),
            ("task", s(task)),
            ("window", s(window)),
        ]),
        Op::Alloc {
            cluster,
            words,
            what,
        } => obj(vec![
            ("op", s("alloc")),
            ("cluster", Value::UInt(u64::from(*cluster))),
            ("words", Value::UInt(*words)),
            ("what", s(what)),
        ]),
    }
}

impl JobSpec {
    /// Parse and resolve a submission body. Every optional field becomes
    /// its default here, so the parsed spec — and therefore its content
    /// hash — is independent of which defaults the tenant spelled out.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let v = serde_json::parse_value(body).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_value(&v)
    }

    /// Resolve a submission from its JSON tree; see [`JobSpec::parse`].
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let kind = match v.get_field("kind").ok() {
            None => "plate".to_string(),
            Some(f) => String::from_value(f).map_err(|e| format!("field `kind`: {e}"))?,
        };
        match kind.as_str() {
            "plate" => {
                let nx = opt_u64(v, "nx", 0)? as usize;
                let ny = opt_u64(v, "ny", 0)? as usize;
                if nx < 2 || ny < 2 {
                    return Err("plate jobs need nx >= 2 and ny >= 2".into());
                }
                if nx > 4096 || ny > 4096 {
                    return Err("plate grids are capped at 4096 points per side".into());
                }
                let machine = opt_machine(v)?;
                let tasks = match opt_u64(v, "tasks", 0)? {
                    0 => machine
                        .clusters
                        .checked_mul(machine.worker_pes_per_cluster())
                        .map(|workers| workers.max(1)),
                    t => u32::try_from(t).ok(),
                };
                let tasks = tasks.filter(|&t| t <= MAX_TASKS).ok_or_else(|| {
                    format!("field `tasks`: capped at {MAX_TASKS} (given, or one per worker PE)")
                })?;
                let name = match v.get_field("name").ok() {
                    None | Some(Value::Null) => format!("plate {nx}x{ny}"),
                    Some(f) => String::from_value(f).map_err(|e| format!("field `name`: {e}"))?,
                };
                let max_iters = opt_u64(v, "max_iters", DEFAULT_MAX_ITERS as u64)? as usize;
                let tol = opt_f64(v, "tol", DEFAULT_TOL)?;
                if !(tol.is_finite() && tol > 0.0) {
                    return Err("tol must be a positive finite number".into());
                }
                let (budget_cycles, budget_events, budget_wall_ms) = opt_budget(v)?;
                Ok(JobSpec::Plate(PlateJob {
                    name,
                    nx,
                    ny,
                    tasks,
                    machine,
                    tol,
                    max_iters,
                    seed: opt_u64(v, "seed", 0)?,
                    allow_warnings: opt_bool(v, "allow_warnings", false)?,
                    budget_cycles,
                    budget_events,
                    budget_wall_ms,
                }))
            }
            "script" => {
                let ops_value = v
                    .get_field("ops")
                    .map_err(|_| "script jobs need an `ops` array")?;
                let raw_ops = match ops_value {
                    Value::Arr(items) => items,
                    other => return Err(format!("`ops` must be an array, found {}", other.kind())),
                };
                if raw_ops.is_empty() {
                    return Err("`ops` must not be empty".into());
                }
                if raw_ops.len() > 10_000 {
                    return Err("script jobs are capped at 10000 ops".into());
                }
                let ops = raw_ops
                    .iter()
                    .enumerate()
                    .map(|(i, op)| op_from_value(op).map_err(|e| format!("ops[{i}]: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                let name = match v.get_field("name").ok() {
                    None | Some(Value::Null) => format!("script ({} ops)", ops.len()),
                    Some(f) => String::from_value(f).map_err(|e| format!("field `name`: {e}"))?,
                };
                Ok(JobSpec::Script(ScriptJob {
                    name,
                    ops,
                    machine: opt_machine(v)?,
                    seed: opt_u64(v, "seed", 0)?,
                    allow_warnings: opt_bool(v, "allow_warnings", false)?,
                }))
            }
            other => Err(format!("unknown job kind `{other}` (plate|script)")),
        }
    }

    /// The resolved spec as a JSON tree — the exact document the content
    /// hash covers and the registry stores.
    pub fn to_value(&self) -> Value {
        match self {
            JobSpec::Plate(p) => {
                let mut pairs = vec![
                    ("kind".into(), Value::Str("plate".into())),
                    ("name".into(), Value::Str(p.name.clone())),
                    ("nx".into(), Value::UInt(p.nx as u64)),
                    ("ny".into(), Value::UInt(p.ny as u64)),
                    ("tasks".into(), Value::UInt(u64::from(p.tasks))),
                    ("machine".into(), p.machine.to_value()),
                    ("tol".into(), Value::Float(p.tol)),
                    ("max_iters".into(), Value::UInt(p.max_iters as u64)),
                    ("seed".into(), Value::UInt(p.seed)),
                    ("allow_warnings".into(), Value::Bool(p.allow_warnings)),
                ];
                // Deterministic budget limits are part of the job's
                // identity, but the key is appended only when one is set so
                // pre-budget specs (and their content hashes) are
                // bit-identical to what rev 1 of the registry recorded.
                // `wall_ms` is operational and never serialized.
                let mut budget = Vec::new();
                if let Some(c) = p.budget_cycles {
                    budget.push(("max_sim_cycles".to_string(), Value::UInt(c)));
                }
                if let Some(e) = p.budget_events {
                    budget.push(("max_des_events".to_string(), Value::UInt(e)));
                }
                if !budget.is_empty() {
                    pairs.push(("budget".into(), Value::Obj(budget)));
                }
                Value::Obj(pairs)
            }
            JobSpec::Script(s) => Value::Obj(vec![
                ("kind".into(), Value::Str("script".into())),
                ("name".into(), Value::Str(s.name.clone())),
                (
                    "ops".into(),
                    Value::Arr(s.ops.iter().map(op_to_value).collect()),
                ),
                ("machine".into(), s.machine.to_value()),
                ("seed".into(), Value::UInt(s.seed)),
                ("allow_warnings".into(), Value::Bool(s.allow_warnings)),
            ]),
        }
    }

    /// The 16-hex-digit content hash of the resolved spec: the cache and
    /// registry key. The display `name` is deliberately excluded — two
    /// tenants naming the same work differently still share one record.
    pub fn content_hash(&self) -> String {
        let mut v = self.to_value();
        if let Value::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "name");
        }
        hash_hex(content_hash_value(&v))
    }

    /// Display name of the job.
    pub fn name(&self) -> &str {
        match self {
            JobSpec::Plate(p) => &p.name,
            JobSpec::Script(s) => &s.name,
        }
    }

    /// Wire name of the job kind (`plate` / `script`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Plate(_) => "plate",
            JobSpec::Script(_) => "script",
        }
    }

    /// Whether warning-severity findings are allowed through admission.
    pub fn allow_warnings(&self) -> bool {
        match self {
            JobSpec::Plate(p) => p.allow_warnings,
            JobSpec::Script(s) => s.allow_warnings,
        }
    }

    /// Run the static admission analysis for this job — the same passes
    /// `PlateScenario::run` gates on, without simulating a cycle.
    pub fn verify(&self) -> Report {
        match self {
            JobSpec::Plate(p) => p.scenario().verify(),
            JobSpec::Script(s) => {
                let mut script = ScenarioScript::new(s.name.clone());
                for op in &s.ops {
                    script.push(op.clone());
                }
                check_script(&script, &s.machine)
            }
        }
    }

    /// Sound static cost bounds for this job: what the run can consume,
    /// *at most*, before a single cycle is simulated. Plate jobs bound
    /// the full assembly → solve → stress pipeline at the CG iteration
    /// cap; script jobs bound the script itself (they never simulate, so
    /// their bound is trivially sound, but an `Unbounded` verdict still
    /// flags scripts whose cost the analyzer cannot close, e.g. remote
    /// calls).
    pub fn cost_report(&self) -> CostReport {
        match self {
            JobSpec::Plate(p) => fem2_core::verify::scenario_cost(&p.scenario()),
            JobSpec::Script(s) => {
                let mut script = ScenarioScript::new(s.name.clone());
                for op in &s.ops {
                    script.push(op.clone());
                }
                check_cost(&script, &s.machine, &CostParams::single_sweep())
            }
        }
    }

    /// Execute the admitted job and produce its outcome, ignoring any run
    /// budget. Plate jobs simulate (the caller charges this against the
    /// run counter); script jobs complete with their verification verdict.
    pub fn execute(&self) -> JobOutcome {
        match self {
            JobSpec::Plate(p) => JobOutcome {
                value: plate_outcome(&p.scenario().run_unchecked()),
            },
            JobSpec::Script(_) => self.script_outcome(),
        }
    }

    /// Execute under an explicit budget (the supervisor's *effective*
    /// budget — see [`PlateJob::effective_budget`]) instead of the one
    /// parsed from the submission: a plate simulation that exceeds it winds
    /// down and returns the structured [`RunAborted`] instead of running
    /// away. Script jobs never simulate, so they always complete. The
    /// budget is an execution harness, not job identity: it never feeds the
    /// content hash.
    pub fn execute_with_budget(&self, budget: RunBudget) -> Result<JobOutcome, RunAborted> {
        match self {
            JobSpec::Plate(p) => {
                let mut s = p.scenario();
                s.budget = budget;
                Ok(JobOutcome {
                    value: plate_outcome(&s.run_budgeted()?),
                })
            }
            JobSpec::Script(_) => Ok(self.script_outcome()),
        }
    }

    fn script_outcome(&self) -> JobOutcome {
        let JobSpec::Script(s) = self else {
            unreachable!("script_outcome on a script spec only");
        };
        let report = self.verify();
        JobOutcome {
            value: Value::Obj(vec![
                ("kind".into(), Value::Str("script".into())),
                ("ops".into(), Value::UInt(s.ops.len() as u64)),
                ("status".into(), Value::Str(report.status().into())),
                (
                    "warnings".into(),
                    Value::UInt(report.warning_count() as u64),
                ),
            ]),
        }
    }
}

/// The outcome document of a completed plate simulation.
fn plate_outcome(report: &fem2_core::ScenarioReport) -> Value {
    Value::Obj(vec![
        ("kind".into(), Value::Str("plate".into())),
        ("unknowns".into(), Value::UInt(report.unknowns as u64)),
        ("iterations".into(), Value::UInt(report.iterations as u64)),
        ("residual".into(), Value::Float(report.residual)),
        ("converged".into(), Value::Bool(report.converged)),
        ("sim_cycles".into(), Value::UInt(report.elapsed)),
        ("flops".into(), Value::UInt(report.total_flops)),
        ("messages".into(), Value::UInt(report.total_messages)),
        ("words_moved".into(), Value::UInt(report.total_words_moved)),
        (
            "peak_memory_words".into(),
            Value::UInt(report.peak_memory_words),
        ),
        (
            "total_memory_words".into(),
            Value::UInt(report.total_memory_words),
        ),
    ])
}

impl PlateJob {
    /// The scenario this job simulates, with any run budget armed.
    pub fn scenario(&self) -> PlateScenario {
        let mut s = PlateScenario::square(self.nx, self.machine.clone());
        s.ny = self.ny;
        s.tasks = self.tasks;
        s.tol = self.tol;
        s.max_iters = self.max_iters;
        s.allow_warnings = self.allow_warnings;
        s.budget = self.budget();
        s
    }

    /// The budget exactly as submitted (unlimited when no field is set).
    pub fn budget(&self) -> RunBudget {
        RunBudget {
            max_sim_cycles: self.budget_cycles,
            max_des_events: self.budget_events,
            wall_limit: self.budget_wall_ms.map(Duration::from_millis),
            cancel: None,
        }
    }

    /// The budget the supervisor actually arms, by the precedence rule of
    /// DESIGN.md §8.1: an explicitly submitted deterministic cap always
    /// wins; a *missing* cycle or event cap is auto-derived from the
    /// static cost bound padded by `BUDGET_SLACK_PERCENT` (150 %).
    /// Soundness makes the derived cap safe: bound ≥ actual, so a healthy
    /// run can never trip it — only a run that exceeds its own static
    /// bound (a cost-model or simulator bug) aborts. On an `Unbounded`
    /// verdict the missing caps fall back to unlimited; `wall_ms` is
    /// operational and never auto-derived.
    ///
    /// Returns the armed budget plus whether any cap was auto-derived.
    pub fn effective_budget(&self, cost: &CostReport) -> (RunBudget, bool) {
        let mut budget = self.budget();
        let mut auto = false;
        if cost.is_bounded() {
            // Saturate *up* on overflow: a cap too large is merely loose,
            // a cap rounded below the bound would abort sound runs.
            let pad = |b: u64| {
                b.checked_mul(BUDGET_SLACK_PERCENT)
                    .map_or(u64::MAX, |v| v / 100)
            };
            if budget.max_sim_cycles.is_none() {
                budget.max_sim_cycles = Some(pad(cost.sim_cycles).max(1));
                auto = true;
            }
            if budget.max_des_events.is_none() {
                budget.max_des_events = Some(pad(cost.des_events).max(1));
                auto = true;
            }
        }
        (budget, auto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_plate_submission_resolves_defaults() {
        let spec = JobSpec::parse(r#"{"kind":"plate","nx":16,"ny":16}"#).unwrap();
        let JobSpec::Plate(p) = &spec else {
            panic!("expected plate job");
        };
        assert_eq!(p.name, "plate 16x16");
        assert_eq!(p.machine, MachineConfig::fem2_default());
        assert_eq!(p.tasks, MachineConfig::fem2_default().total_workers());
        assert_eq!(p.tol, DEFAULT_TOL);
        assert_eq!(p.max_iters, DEFAULT_MAX_ITERS);
        assert_eq!(p.seed, 0);
        assert!(!p.allow_warnings);
    }

    #[test]
    fn kind_defaults_to_plate() {
        let spec = JobSpec::parse(r#"{"nx":8,"ny":8}"#).unwrap();
        assert!(matches!(spec, JobSpec::Plate(_)));
    }

    #[test]
    fn spelled_out_defaults_hash_identically() {
        let minimal = JobSpec::parse(r#"{"kind":"plate","nx":16,"ny":16}"#).unwrap();
        let spelled = JobSpec::parse(
            r#"{"seed":0,"ny":16,"nx":16,"kind":"plate","allow_warnings":false,
                "max_iters":5000,"tol":1e-6}"#,
        )
        .unwrap();
        assert_eq!(minimal.content_hash(), spelled.content_hash());
    }

    /// Content hashes are cache keys in every deployed registry: these two
    /// are the values every commit since PR 9 computed. A spec that still
    /// names the removed `des_shards` field parses and is the same job.
    #[test]
    fn content_hashes_are_pinned_and_des_shards_is_ignored() {
        let plate = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        assert_eq!(plate.content_hash(), "4c03826862c12ea7");
        let script = JobSpec::parse(
            r#"{"kind":"script","ops":[{"op":"initiate","task":"a"},{"op":"terminate","task":"a"}]}"#,
        )
        .unwrap();
        assert_eq!(script.content_hash(), "673bb8bbe065fae0");
        let machine = serde_json::to_string(&MachineConfig::fem2_default()).unwrap();
        let old = format!(
            r#"{{"nx":12,"ny":12,"machine":{},"des_shards":4}}}}"#,
            machine.strip_suffix('}').expect("an object")
        );
        assert_eq!(
            JobSpec::parse(&old).unwrap().content_hash(),
            plate.content_hash()
        );
    }

    #[test]
    fn name_does_not_partition_the_cache_but_seed_does() {
        let a = JobSpec::parse(r#"{"nx":16,"ny":16,"name":"alice's plate"}"#).unwrap();
        let b = JobSpec::parse(r#"{"nx":16,"ny":16,"name":"bob's plate"}"#).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        let c = JobSpec::parse(r#"{"nx":16,"ny":16,"seed":1}"#).unwrap();
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn machine_config_partitions_the_cache() {
        let a = JobSpec::parse(r#"{"nx":16,"ny":16}"#).unwrap();
        let b = JobSpec::parse(
            r#"{"nx":16,"ny":16,"machine":{"clusters":8,"pes_per_cluster":8,
                "memory_per_cluster":4194304,"topology":"Crossbar","link_latency":20,
                "words_per_cycle":1,"max_packet_words":256,"header_words":4,
                "cost":{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,
                "task_create":120,"context_switch":40},"dedicated_kernel_pe":true,
                "route_cache":true,"des_queue":"Calendar"}}"#,
        )
        .unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
    }

    /// A 16-cluster submission body with the given topology JSON spliced
    /// in — the shared scaffold for the new-topology admission tests.
    fn sixteen_cluster_body(topology_json: &str) -> String {
        format!(
            r#"{{"nx":12,"ny":12,"machine":{{"clusters":16,"pes_per_cluster":2,
                "memory_per_cluster":4194304,"topology":{topology_json},"link_latency":20,
                "words_per_cycle":1,"max_packet_words":256,"header_words":4,
                "cost":{{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,
                "task_create":120,"context_switch":40}},"dedicated_kernel_pe":true,
                "route_cache":true,"des_queue":"Calendar"}}}}"#
        )
    }

    #[test]
    fn torus_and_fat_tree_machines_round_trip_and_hash_stably() {
        let torus = JobSpec::parse(&sixteen_cluster_body(r#"{"Torus":{"dims":[4,4]}}"#)).unwrap();
        let fat = JobSpec::parse(&sixteen_cluster_body(r#"{"FatTree":{"radix":4}}"#)).unwrap();
        // The registry stores to_value; new topologies must survive it
        // bit-for-bit, keeping the content hash (the cache key) stable.
        for spec in [&torus, &fat] {
            let again = JobSpec::from_value(&spec.to_value()).unwrap();
            assert_eq!(spec.to_value(), again.to_value());
            assert_eq!(spec.content_hash(), again.content_hash());
        }
        // Topology partitions the cache: same shape, different network.
        assert_ne!(torus.content_hash(), fat.content_hash());
    }

    #[test]
    fn non_factoring_topologies_carry_the_invalid_machine_prefix() {
        // Torus dims whose product misses the cluster count, and a
        // fat-tree radix that does not divide it: both are semantic
        // rejections the server maps to 422, so the error must carry
        // [`INVALID_MACHINE_PREFIX`] and name the offending field.
        let err = JobSpec::parse(&sixteen_cluster_body(r#"{"Torus":{"dims":[3,5]}}"#)).unwrap_err();
        assert!(err.starts_with(INVALID_MACHINE_PREFIX), "{err}");
        assert!(err.contains("torus dims"), "{err}");
        assert!(err.contains("do not factor"), "{err}");
        let err = JobSpec::parse(&sixteen_cluster_body(r#"{"FatTree":{"radix":5}}"#)).unwrap_err();
        assert!(err.starts_with(INVALID_MACHINE_PREFIX), "{err}");
        assert!(err.contains("fat-tree radix"), "{err}");
        // A malformed machine object is a *shape* error, not a semantic
        // one: it must NOT carry the 422 prefix.
        let err = JobSpec::parse(r#"{"nx":12,"ny":12,"machine":{"clusters":16}}"#).unwrap_err();
        assert!(!err.starts_with(INVALID_MACHINE_PREFIX), "{err}");
    }

    #[test]
    fn degenerate_submissions_rejected_at_parse() {
        assert!(JobSpec::parse("not json").is_err());
        assert!(JobSpec::parse(r#"{"kind":"plate","nx":1,"ny":16}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"plate","nx":16,"ny":16,"tol":-1.0}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"plate","nx":9999,"ny":16}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"script","ops":[]}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"wat"}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"script","ops":[{"op":"conjure"}]}"#).is_err());
    }

    #[test]
    fn clean_plate_job_verifies_and_executes() {
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        assert!(spec.verify().is_clean());
        let out = spec.execute();
        assert_eq!(
            out.value.get_field("converged").unwrap(),
            &Value::Bool(true),
            "{:?}",
            out.value
        );
    }

    #[test]
    fn script_job_round_trips_ops_and_verifies() {
        let body = r#"{"kind":"script","name":"ping","ops":[
            {"op":"initiate","task":"a","cluster":0,"replications":1},
            {"op":"initiate","task":"b","cluster":1},
            {"op":"window_open","task":"a","window":"w"},
            {"op":"window_open","task":"b","window":"w"},
            {"op":"window_send","from":"a","to":"b","window":"w","words":8},
            {"op":"window_recv","task":"b","from":"a","window":"w"},
            {"op":"window_close","task":"a","window":"w"},
            {"op":"window_close","task":"b","window":"w"},
            {"op":"terminate","task":"a"},
            {"op":"terminate","task":"b"}]}"#;
        let spec = JobSpec::parse(body).unwrap();
        let report = spec.verify();
        assert!(report.is_clean(), "{report}");
        // Ops survive the to_value round trip (the registry stores them).
        let again = JobSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(spec.content_hash(), again.content_hash());
        let out = spec.execute();
        assert_eq!(
            out.value.get_field("status").unwrap(),
            &Value::Str("CLEAN".into())
        );
    }

    #[test]
    fn unbudgeted_spec_has_no_budget_key_and_wall_ms_is_hash_neutral() {
        let plain = JobSpec::parse(r#"{"nx":16,"ny":16}"#).unwrap();
        assert!(
            plain.to_value().get_field("budget").is_err(),
            "pre-budget specs must serialize unchanged"
        );
        // Wall-clock limits are operational, not identity.
        let with_wall = JobSpec::parse(r#"{"nx":16,"ny":16,"budget":{"wall_ms":5000}}"#).unwrap();
        assert_eq!(plain.content_hash(), with_wall.content_hash());
        assert!(with_wall.to_value().get_field("budget").is_err());
    }

    #[test]
    fn deterministic_budget_limits_partition_the_cache_and_round_trip() {
        let plain = JobSpec::parse(r#"{"nx":16,"ny":16}"#).unwrap();
        let budgeted =
            JobSpec::parse(r#"{"nx":16,"ny":16,"budget":{"max_sim_cycles":100000}}"#).unwrap();
        assert_ne!(plain.content_hash(), budgeted.content_hash());
        let again = JobSpec::from_value(&budgeted.to_value()).unwrap();
        assert_eq!(budgeted.content_hash(), again.content_hash());
        let JobSpec::Plate(p) = &again else {
            panic!("expected plate job");
        };
        assert_eq!(p.budget_cycles, Some(100_000));
    }

    #[test]
    fn degenerate_budgets_rejected_at_parse() {
        assert!(JobSpec::parse(r#"{"nx":16,"ny":16,"budget":{"max_sim_cycles":0}}"#).is_err());
        assert!(JobSpec::parse(r#"{"nx":16,"ny":16,"budget":7}"#).is_err());
        assert!(JobSpec::parse(r#"{"nx":16,"ny":16,"budget":{"wall_ms":"soon"}}"#).is_err());
    }

    #[test]
    fn budgeted_execute_aborts_runaway_plates() {
        // Each spec runs under the budget it was submitted with.
        let run = |spec: &JobSpec| {
            let JobSpec::Plate(p) = spec else {
                unreachable!("a plate submission")
            };
            spec.execute_with_budget(p.budget())
        };
        let spec =
            JobSpec::parse(r#"{"nx":24,"ny":24,"budget":{"max_sim_cycles":10000}}"#).unwrap();
        let first = run(&spec).expect_err("budget must fire");
        let second = run(&spec).expect_err("budget must fire");
        assert_eq!(first, second, "aborts repeat identically");
        assert_eq!(first.cause, fem2_machine::AbortCause::CyclesExceeded);
        // The same spec without supervision still completes.
        let unbudgeted = JobSpec::parse(r#"{"nx":24,"ny":24}"#).unwrap();
        assert!(run(&unbudgeted).is_ok());
    }

    #[test]
    fn cost_bound_is_sound_for_the_default_plate_job() {
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        let cost = spec.cost_report();
        assert!(cost.is_bounded());
        let out = spec.execute();
        let Ok(Value::UInt(actual)) = out.value.get_field("sim_cycles") else {
            panic!("{:?}", out.value);
        };
        assert!(
            cost.sim_cycles >= *actual,
            "bound {} < actual {actual}",
            cost.sim_cycles
        );
    }

    #[test]
    fn effective_budget_prefers_explicit_caps_and_autofills_the_rest() {
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12,"budget":{"max_sim_cycles":777}}"#).unwrap();
        let JobSpec::Plate(p) = &spec else {
            panic!("expected plate job");
        };
        let cost = spec.cost_report();
        let (budget, auto) = p.effective_budget(&cost);
        assert!(auto, "missing event cap must be auto-derived");
        // The explicit cap survives untouched; the derived one carries
        // the slack.
        assert_eq!(budget.max_sim_cycles, Some(777));
        assert_eq!(
            budget.max_des_events,
            Some(cost.des_events.checked_mul(150).unwrap() / 100)
        );
        // A fully explicit budget derives nothing.
        let spec = JobSpec::parse(
            r#"{"nx":12,"ny":12,"budget":{"max_sim_cycles":777,"max_des_events":888}}"#,
        )
        .unwrap();
        let JobSpec::Plate(p) = &spec else {
            panic!("expected plate job");
        };
        let (budget, auto) = p.effective_budget(&spec.cost_report());
        assert!(!auto);
        assert_eq!(budget.max_sim_cycles, Some(777));
        assert_eq!(budget.max_des_events, Some(888));
    }

    #[test]
    fn auto_derived_budget_never_aborts_a_sound_run() {
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        let JobSpec::Plate(p) = &spec else {
            panic!("expected plate job");
        };
        let cost = spec.cost_report();
        assert!(p.effective_budget(&cost).1);
        // Even with zero slack the bound itself is ≥ the actual run.
        let bound = RunBudget {
            max_sim_cycles: Some(cost.sim_cycles),
            max_des_events: Some(cost.des_events),
            ..p.budget()
        };
        let out = spec
            .execute_with_budget(bound)
            .expect("auto budget must not fire on a healthy run");
        assert_eq!(
            out.value.get_field("converged").unwrap(),
            &Value::Bool(true)
        );
    }

    #[test]
    fn run_status_wire_names_round_trip() {
        for s in [RunStatus::Ok, RunStatus::Failed, RunStatus::Aborted] {
            assert_eq!(RunStatus::parse(s.name()), Some(s));
        }
        assert_eq!(RunStatus::parse("exploded"), None);
        assert!(RunStatus::Ok.is_ok());
        assert!(!RunStatus::Failed.is_ok());
    }

    #[test]
    fn deadlocking_script_is_rejected_by_admission() {
        let body = r#"{"kind":"script","name":"head-to-head","ops":[
            {"op":"initiate","task":"east"},
            {"op":"initiate","task":"west"},
            {"op":"window_open","task":"east","window":"halo"},
            {"op":"window_open","task":"west","window":"halo"},
            {"op":"window_send","from":"east","to":"west","window":"halo","words":8},
            {"op":"window_send","from":"west","to":"east","window":"halo","words":8},
            {"op":"window_recv","task":"west","from":"east","window":"halo"},
            {"op":"window_recv","task":"east","from":"west","window":"halo"},
            {"op":"window_close","task":"east","window":"halo"},
            {"op":"window_close","task":"west","window":"halo"},
            {"op":"terminate","task":"east"},
            {"op":"terminate","task":"west"}]}"#;
        let spec = JobSpec::parse(body).unwrap();
        let report = spec.verify();
        assert!(report.blocks(true), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.pass == "deadlock" && d.message.contains("'east'")));
    }

    /// A submission body drawn from a small parameter vector, so that one
    /// more on any parameter is a different value of one *hashed* field.
    /// Plates: `[nx-2, ny-2, log2(memory)-10, tasks, seed, allow, cap]`;
    /// scripts: `[deadlock, terminate, alloc, words, seed, allow]`. The
    /// three remaining arguments change nothing the hash covers: the
    /// display name, the operational `wall_ms`, and the key order.
    fn body(plate: bool, p: &[u64], name: &str, wall_ms: Option<u64>, order: u64) -> String {
        let machine = |memory: u64| {
            format!(
                r#"{{"clusters":4,"pes_per_cluster":8,"memory_per_cluster":{memory},
                "topology":"Crossbar","link_latency":20,"words_per_cycle":1,
                "max_packet_words":256,"header_words":4,"cost":{{"flop":4,"int_op":1,
                "mem_word":2,"msg_send":60,"msg_dispatch":80,"task_create":120,
                "context_switch":40}},"dedicated_kernel_pe":true,"route_cache":true,
                "des_queue":"Calendar"}}"#
            )
        };
        let mut fields = vec![("name", format!("\"{name}\""))];
        let mut budget: Vec<String> = wall_ms.iter().map(|w| format!("\"wall_ms\":{w}")).collect();
        if plate {
            fields.push(("nx", (2 + p[0]).to_string()));
            fields.push(("ny", (2 + p[1]).to_string()));
            fields.push(("machine", machine(1 << (10 + p[2]))));
            fields.push(("tasks", p[3].to_string()));
            fields.push(("seed", p[4].to_string()));
            fields.push(("allow_warnings", (p[5] % 2 == 1).to_string()));
            if p[6] > 0 {
                budget.push(format!("\"max_sim_cycles\":{}", p[6] * 100_000));
            }
        } else {
            let (deadlock, terminate) = (p[0] % 2 == 1, p[1] % 2 == 1);
            let mut ops = vec![
                r#"{"op":"initiate","task":"a"}"#.to_string(),
                r#"{"op":"initiate","task":"b","cluster":1}"#.to_string(),
            ];
            if p[2] > 0 {
                // 3 Mwords fit the default 4 Mword arena; 6 Mwords do not.
                let words = p[2] * (3 << 20);
                ops.push(format!(
                    r#"{{"op":"alloc","cluster":0,"words":{words},"what":"buf"}}"#
                ));
            }
            ops.push(r#"{"op":"window_open","task":"a","window":"w"}"#.into());
            ops.push(r#"{"op":"window_open","task":"b","window":"w"}"#.into());
            let send = |from: &str, to: &str| {
                format!(
                    r#"{{"op":"window_send","from":"{from}","to":"{to}","window":"w","words":{}}}"#,
                    p[3]
                )
            };
            let recv = |task: &str, from: &str| {
                format!(r#"{{"op":"window_recv","task":"{task}","from":"{from}","window":"w"}}"#)
            };
            // Head to head (both send before either receives) deadlocks.
            let exchange = if deadlock {
                [
                    send("a", "b"),
                    send("b", "a"),
                    recv("b", "a"),
                    recv("a", "b"),
                ]
            } else {
                [
                    send("a", "b"),
                    recv("b", "a"),
                    send("b", "a"),
                    recv("a", "b"),
                ]
            };
            ops.extend(exchange);
            ops.push(r#"{"op":"window_close","task":"a","window":"w"}"#.into());
            ops.push(r#"{"op":"window_close","task":"b","window":"w"}"#.into());
            if terminate {
                ops.push(r#"{"op":"terminate","task":"a"}"#.into());
                ops.push(r#"{"op":"terminate","task":"b"}"#.into());
            }
            fields.push(("kind", "\"script\"".into()));
            fields.push(("ops", format!("[{}]", ops.join(","))));
            fields.push(("seed", p[4].to_string()));
            fields.push(("allow_warnings", (p[5] % 2 == 1).to_string()));
        }
        if !budget.is_empty() {
            fields.push(("budget", format!("{{{}}}", budget.join(","))));
        }
        let at = (order % fields.len() as u64) as usize;
        fields.rotate_left(at);
        if order % 2 == 1 {
            fields.reverse();
        }
        let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", pairs.join(","))
    }

    fn blocks(spec: &JobSpec) -> bool {
        spec.verify().blocks(spec.allow_warnings())
    }

    #[test]
    fn generated_bodies_cover_both_verdicts_of_both_kinds() {
        let verdict =
            |plate, p: &[u64]| blocks(&JobSpec::parse(&body(plate, p, "x", None, 0)).unwrap());
        assert!(!verdict(true, &[10, 10, 12, 0, 0, 0, 0]), "roomy plate");
        assert!(verdict(true, &[40, 40, 0, 0, 0, 0, 0]), "storage overflow");
        assert!(!verdict(false, &[0, 1, 0, 8, 0, 0]), "clean ping-pong");
        assert!(verdict(false, &[1, 1, 0, 8, 0, 0]), "deadlock");
        assert!(verdict(false, &[0, 1, 2, 8, 0, 0]), "alloc past the arena");
        // Unterminated tasks are warnings: the hashed `allow_warnings`
        // alone flips the verdict.
        assert!(verdict(false, &[0, 0, 0, 8, 0, 0]));
        assert!(!verdict(false, &[0, 0, 0, 8, 0, 1]));
    }

    proptest::proptest! {
        /// What lets the server look a hash up *before* verifying: the
        /// admission verdict is a function of what the content hash
        /// covers. `name`, `budget.wall_ms` and key order change neither;
        /// a different value of any hashed field changes the hash, so two
        /// specs with different verdicts can never share one.
        #[test]
        fn verdict_is_a_function_of_the_hashed_content(
            plate in proptest::prelude::any::<bool>(),
            raw in proptest::collection::vec(0u64..1000, 7),
            which in 0usize..42,
            name in 0u64..1000,
            wall_ms in 1u64..100_000,
            order in 0u64..64,
        ) {
            let ranges: &[u64] = if plate {
                &[40, 40, 13, 6, 4, 2, 4]
            } else {
                &[2, 2, 3, 64, 4, 2]
            };
            let base: Vec<u64> = raw.iter().zip(ranges).map(|(r, n)| r % n).collect();
            let spec = JobSpec::parse(&body(plate, &base, "base", None, 0)).unwrap();
            let same = JobSpec::parse(&body(
                plate,
                &base,
                &format!("tenant-{name}"),
                Some(wall_ms),
                order,
            ))
            .unwrap();
            proptest::prop_assert_eq!(spec.content_hash(), same.content_hash());
            proptest::prop_assert_eq!(blocks(&spec), blocks(&same));

            let mut other = base.clone();
            other[which % base.len()] += 1;
            let other = JobSpec::parse(&body(plate, &other, "base", None, 0)).unwrap();
            proptest::prop_assert_ne!(spec.content_hash(), other.content_hash());
        }
    }
}
