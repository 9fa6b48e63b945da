//! The fem2-serve server: parse → hash → cache → verify → quota →
//! scheduler → registry.
//!
//! Every submission walks the same stations, in order:
//!
//! 1. **Parse and hash** — the body parses into a resolved [`JobSpec`]
//!    (400 on malformed input) and its content hash is taken, once.
//! 2. **Cache** — the hash is looked up in the registry (completed runs,
//!    including previous server lifetimes) and in the in-flight table
//!    (submitted but not finished). A registry hit answers 200 with the
//!    stored outcome; an in-flight hit coalesces onto the running job
//!    instead of queuing a duplicate.
//! 3. **Admission** — *only a miss* runs through the fem2-verify passes;
//!    a blocking report is returned as a 422 whose body is the structured
//!    diagnostics document. Verification gates execution, and a hit, a
//!    coalesce and a quarantine replay execute nothing: the verdict is a
//!    function of exactly what the hash covers, and a record or in-flight
//!    entry exists under a hash only if that content passed the gate
//!    (DESIGN.md §8). An operator quota is server state, not spec state,
//!    so it is enforced on hits and misses alike. Nothing rejected here
//!    ever touches a worker.
//! 4. **Scheduler** — admitted misses join one FIFO (`Mutex<VecDeque>` +
//!    `Condvar`) that the server's own `--workers` named `std` threads
//!    pop. Queue depth is capped; submissions past the cap are shed with
//!    a 503 so an overloaded server degrades by refusing work, not by
//!    drowning.
//! 5. **Registry** — completed runs are appended to the crash-safe JSONL
//!    log before the job is marked done, so a result the server ever
//!    reported is a result it can serve again after a restart.
//!
//! Jobs run *supervised*: execution is wrapped in `catch_unwind` so a
//! panicking scenario fails its own job (structured 500, failure record,
//! quarantine) without taking a worker or the server down; run budgets
//! turn runaway simulations into structured 504 aborts; and a spec whose
//! latest registry record ended *deterministically* badly (panic,
//! cycle/event budget) is *quarantined* — submitting it again replays the
//! recorded failure instead of burning a worker on a known-poisonous job.
//! An operational ending (a wall deadline) never quarantines: it is a
//! host fact, not a spec fact, so that spec re-runs.
#![expect(
    clippy::disallowed_methods,
    reason = "serve measures job wall time for registry provenance; recorded outside content hashes"
)]

use std::collections::{BTreeMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::json::Value;
use serde::Serialize as _;

use crate::chaos::{ChaosPlan, ChaosState};
use crate::http::{
    read_request_deadline, write_response, ParseError, Request, Response, REQUEST_DEADLINE,
};
use crate::job::{self, Admitted, JobOutcome, JobSpec, RunStatus};
use crate::registry::{Registry, RunRecord};
use crate::util::{json_compact, json_pretty, lock};

/// Backoff before the single registry-write retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// Most connection handlers left parked at once. A handler that would be
/// one more ends instead, so a burst leaves at most this many idle threads
/// behind; a connection that finds none parked pays one thread spawn.
/// Sized with 1 to 8 closed-loop clients on a 2-vCPU host (EXPERIMENTS.md
/// A7, "Sizing `MAX_PARKED`"): a cap below the client count raised the
/// median request by 16–65 %, and a parked handler held about 30 KiB
/// resident. Four serves four clients spawn-free, where that host's
/// request rate is within 9 % of its rate at eight. More than eight
/// clients, and larger hosts, were not measured.
const MAX_PARKED: usize = 4;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Registry/data directory.
    pub data_dir: PathBuf,
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Worker threads that run admitted jobs.
    pub workers: usize,
    /// Maximum queued-or-running jobs before submissions shed with 503.
    pub queue_capacity: usize,
    /// Total per-request read deadline (tests shrink this; production
    /// keeps `REQUEST_DEADLINE`).
    pub request_deadline: Duration,
    /// Deterministic fault plan (`--chaos`); `None` in production.
    pub chaos: Option<ChaosPlan>,
    /// Reject plate submissions whose static sim-cycle *bound* exceeds
    /// this (`--quota-cycles`); `None` disables the check.
    pub quota_cycles: Option<u64>,
    /// Reject plate submissions whose static DES-event bound exceeds
    /// this (`--quota-events`).
    pub quota_events: Option<u64>,
    /// Reject plate submissions whose static peak-memory bound (words on
    /// the busiest cluster) exceeds this (`--quota-memory`).
    pub quota_memory_words: Option<u64>,
}

impl ServeOptions {
    /// Defaults: ephemeral port, two workers, depth 16, no chaos, no
    /// quotas.
    pub fn new(data_dir: PathBuf) -> Self {
        ServeOptions {
            data_dir,
            port: 0,
            workers: 2,
            queue_capacity: 16,
            request_deadline: REQUEST_DEADLINE,
            chaos: None,
            quota_cycles: None,
            quota_events: None,
            quota_memory_words: None,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Aborted,
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Aborted => "aborted",
        }
    }

    /// The status of a job whose run ended `status`.
    fn ended(status: RunStatus) -> JobStatus {
        match status {
            RunStatus::Ok => JobStatus::Done,
            RunStatus::Failed => JobStatus::Failed,
            RunStatus::Aborted => JobStatus::Aborted,
        }
    }
}

/// One tracked submission (including cache hits, which are born done).
struct JobEntry {
    id: u64,
    hash: String,
    name: String,
    kind: &'static str,
    status: JobStatus,
    /// Whether the answer came from the cache rather than a fresh run.
    cached: bool,
    outcome: Option<Value>,
    wall_ns: u64,
    error: Option<String>,
    /// Host-side stage times of a scheduled job, beside `wall_ns` in the
    /// job detail: accept of the POST → enqueue, enqueue → worker entry,
    /// and the registry append. Never hashed, never persisted.
    admit_ns: u64,
    queue_ns: u64,
    persist_ns: u64,
}

/// Mutable tables: the job list and the in-flight coalescing index.
#[derive(Default)]
struct Tables {
    /// Every submission ever tracked; job `id` lives at `jobs[id - 1]`.
    jobs: Vec<JobEntry>,
    /// hash → job id for submitted-but-unfinished work: every job queued
    /// or running, so its length is the `queue_depth` that sheds and that
    /// `/stats` and `/readyz` report.
    in_flight: BTreeMap<String, u64>,
}

impl Tables {
    /// Track one more submission. Ids are handed out under the same lock
    /// that pushes the entry, which is what makes them indices.
    fn push(&mut self, job: &Admitted, status: JobStatus, cached: bool) -> &mut JobEntry {
        self.jobs.push(JobEntry {
            id: self.jobs.len() as u64 + 1,
            hash: job.hash.clone(),
            name: job.spec.name().to_string(),
            kind: job.spec.kind(),
            status,
            cached,
            outcome: None,
            wall_ns: 0,
            error: None,
            admit_ns: 0,
            queue_ns: 0,
            persist_ns: 0,
        });
        self.jobs.last_mut().expect("just pushed")
    }

    fn slot(id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(1)?).ok()
    }

    fn job(&self, id: u64) -> Option<&JobEntry> {
        let e = self.jobs.get(Self::slot(id)?)?;
        assert_eq!(e.id, id, "job ids index the job table");
        Some(e)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        let e = self.jobs.get_mut(Self::slot(id)?)?;
        assert_eq!(e.id, id, "job ids index the job table");
        Some(e)
    }
}

/// Connection handlers parked between connections, and the connections
/// the acceptor has handed to them.
#[derive(Default)]
struct Handlers {
    /// Handlers waiting in [`State::park`], handed a connection or not.
    parked: usize,
    /// Connections handed over but not yet picked up, with their accept
    /// times. Each is owed to one parked handler, so there are never more
    /// than `parked`.
    handoff: VecDeque<(TcpStream, Instant)>,
}

/// One admitted miss waiting for a worker.
struct Queued {
    id: u64,
    job: Box<Admitted>,
    enqueued: Instant,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Shared server state.
pub(crate) struct State {
    registry: Mutex<Registry>,
    tables: Mutex<Tables>,
    /// Station 4's FIFO. A leaf lock: never held together with
    /// `registry` or `tables`. `stop` is written and read under it, so a
    /// submission either lands before shutdown (and is drained) or sees
    /// `stop` and is refused.
    queue: Mutex<VecDeque<Queued>>,
    /// Signalled once per enqueue, and to every worker at shutdown.
    queue_cv: Condvar,
    /// Simulations actually executed (cache hits never increment this).
    sims_run: AtomicU64,
    /// Submissions answered from the registry or coalesced onto an
    /// in-flight job.
    cache_hits: AtomicU64,
    /// Submissions refused with 503.
    shed: AtomicU64,
    /// Jobs that panicked in a worker (isolated, recorded as failed).
    panics: AtomicU64,
    /// Jobs aborted by their run budget.
    aborts: AtomicU64,
    /// Submissions answered from a quarantined failure record.
    quarantine_hits: AtomicU64,
    /// Submissions rejected at admission because their static cost bound
    /// exceeded an operator quota (or was unbounded under a quota).
    cost_rejections: AtomicU64,
    /// Admitted plate jobs whose run budget was (partly) auto-derived
    /// from the static cost bound.
    auto_budgeted: AtomicU64,
    /// Registry writes that failed once and were retried.
    infra_retries: AtomicU64,
    /// Whether the most recent registry write (after any retry) landed.
    last_registry_write_ok: AtomicBool,
    /// Armed chaos plan, if any.
    chaos: Option<Arc<ChaosState>>,
    request_deadline: Duration,
    /// Parked connection handlers. A leaf lock, like `queue`.
    handlers: Mutex<Handlers>,
    /// Signalled once per handoff, and to every parked handler at
    /// shutdown; shutdown waits on it for the last one to leave.
    handlers_cv: Condvar,
    /// Test hook: how many submissions ran the verifier.
    #[cfg(test)]
    verify_calls: AtomicU64,
    /// Test hook: connection handlers started, and ended.
    #[cfg(test)]
    handler_spawns: AtomicU64,
    #[cfg(test)]
    handler_exits: AtomicU64,
    /// Test hook: while set, a handler that has just counted itself
    /// parked waits before it looks for a handoff.
    #[cfg(test)]
    hold_parked: AtomicBool,
    /// Test hook: shutdown has waited for parked handlers to leave.
    #[cfg(test)]
    shutdown_waiting: AtomicBool,
    /// Test hook: the next job panics in `run_job` *before* its own
    /// unwind boundary, which only the worker loop can absorb.
    #[cfg(test)]
    panic_before_run: AtomicBool,
    stop: AtomicBool,
    capacity: usize,
    workers: usize,
    /// Operator quotas on the *static bounds* of plate submissions.
    quota_cycles: Option<u64>,
    quota_events: Option<u64>,
    quota_memory_words: Option<u64>,
}

/// A running server: bound address plus its threads.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    state: Arc<State>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn error_body(msg: &str) -> String {
    json_compact(&doc! { "error": msg })
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl State {
    fn entry_value(e: &JobEntry, detail: bool) -> Value {
        let timed = detail && !e.cached;
        let ended = !matches!(e.status, JobStatus::Queued | JobStatus::Running);
        doc! {
            "id": e.id,
            "hash": e.hash,
            "name": e.name,
            "kind": e.kind,
            "status": e.status.name(),
            "cached": e.cached,
            "wall_ns"?: (detail && e.status == JobStatus::Done).then_some(e.wall_ns),
            "admit_ns"?: timed.then_some(e.admit_ns),
            "queue_ns"?: (timed && e.status != JobStatus::Queued).then_some(e.queue_ns),
            "persist_ns"?: (timed && ended).then_some(e.persist_ns),
            "error"?: e.error.as_ref().filter(|_| detail),
        }
    }

    /// The record a submission of `hash` is answered from, if any. Latest
    /// record wins, with one carve-out: an *operational* ending (a wall
    /// deadline) is a host fact, not a spec fact — and `wall_ms`
    /// is hash-neutral, so replaying it would poison the identical
    /// unbudgeted spec for every tenant, permanently. Such a record never
    /// quarantines: an earlier ok record (same hash) still serves, and
    /// with none the spec simply re-runs.
    fn cached_record<'r>(registry: &'r Registry, hash: &str) -> Option<&'r RunRecord> {
        match registry.lookup(hash) {
            Some(rec) if !rec.status.is_ok() && !rec.quarantines() => registry.lookup_ok(hash),
            other => other,
        }
    }

    /// POST /jobs: the full parse → cache → admission → schedule walk.
    /// `accepted` is when the connection was accepted.
    fn submit(self: &Arc<Self>, body: &str, accepted: Instant) -> Response {
        // Station 1: parse and hash.
        let spec = match JobSpec::parse(body) {
            Ok(s) => s,
            // A machine config that parsed but describes an impossible
            // machine (torus dims that do not factor the cluster count,
            // a fat-tree radix whose pods do not tile it) is a semantic
            // rejection, not a malformed request: 422, naming the field.
            Err(e) if e.contains(job::INVALID_MACHINE_PREFIX) => {
                return Response::json(422, error_body(&e))
            }
            Err(e) => return Response::json(400, error_body(&e)),
        };
        let mut job = Admitted::new(spec);

        // Station 2, first look: has this content been through the gate
        // before? The verdict is a function of what the hash covers, and a
        // record or in-flight entry exists under a hash only if that
        // content passed. The look decides nothing else — both locks are
        // released again before `verify()`, and the walk below re-reads
        // the tables — so one gone stale costs at most a redundant
        // verification.
        let known = {
            let registry = lock(&self.registry);
            let tables = lock(&self.tables);
            Self::cached_record(&registry, &job.hash).is_some()
                || tables.in_flight.contains_key(&job.hash)
        };
        // Station 3: static verification, for content never seen.
        if !known {
            #[cfg(test)]
            self.verify_calls.fetch_add(1, Ordering::Relaxed);
            let report = job.spec.verify();
            if report.blocks(job.spec.allow_warnings()) {
                let doc = doc! {
                    "error": "rejected by static verification",
                    ..report.to_value(),
                };
                return Response::json(422, json_pretty(&doc));
            }
        }
        // Station 3b: predictive admission. When the operator armed a
        // quota, the static cost pass upper-bounds the run before any
        // cycle is simulated; a plate whose *bound* already exceeds the
        // quota is refused here, before it can be served from the cache
        // or touch the queue or a worker — the quota is operator state,
        // so a cached result does not exempt a spec from it. The check is
        // conservative by construction (the bound is sound, so it can
        // over- but never under-estimate), which is the correct polarity
        // for admission. Script jobs never simulate, so quotas do not
        // apply to them.
        if matches!(job.spec, JobSpec::Plate(_)) && self.has_quota() {
            if let Some(resp) = self.enforce_quota(&mut job) {
                self.cost_rejections.fetch_add(1, Ordering::Relaxed);
                return resp;
            }
        }

        // Station 2, the walk: the result cache (registry, then in-flight
        // work). Both tables stay locked through the capacity check and
        // enqueue so two identical concurrent submissions cannot both miss.
        let registry = lock(&self.registry);
        let mut tables = lock(&self.tables);
        if let Some(rec) = Self::cached_record(&registry, &job.hash) {
            // Poison quarantine: a spec whose latest record ended
            // *deterministically* badly (panic, cycle/event budget)
            // replays that recorded fate — structured error, no worker
            // burned on a known-poisonous job.
            if !rec.status.is_ok() {
                self.quarantine_hits.fetch_add(1, Ordering::Relaxed);
                let entry = tables.push(&job, JobStatus::ended(rec.status), true);
                entry.wall_ns = rec.wall_ns;
                entry.error = Some(
                    rec.error
                        .clone()
                        .unwrap_or_else(|| format!("job previously {}", rec.status.name())),
                );
                return Self::ending_reply(entry, true);
            }
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            let entry = tables.push(&job, JobStatus::Done, true);
            entry.outcome = Some(rec.outcome.clone());
            entry.wall_ns = rec.wall_ns;
            return Response::json(200, json_compact(&Self::entry_value(entry, true)));
        }
        drop(registry);
        if let Some(&id) = tables.in_flight.get(&job.hash) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            let entry = tables.job(id).expect("in-flight ids index the job table");
            let doc = doc! { ..Self::entry_value(entry, false), "coalesced": true };
            return Response::json(200, json_compact(&doc));
        }

        // Station 4: bounded scheduling with shedding. The in-flight
        // table holds every job queued or running: it is the queue depth.
        let depth = tables.in_flight.len();
        if depth >= self.capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            let doc = doc! {
                "error": "queue full, submission shed",
                "queue_depth": depth,
                "capacity": self.capacity,
            };
            return Response::json(503, json_compact(&doc));
        }
        let enqueued = Instant::now();
        let entry = tables.push(&job, JobStatus::Queued, false);
        entry.admit_ns = ns(enqueued.duration_since(accepted));
        let id = entry.id;
        let resp = Self::entry_value(entry, false);
        tables.in_flight.insert(job.hash.clone(), id);
        drop(tables);
        let mut queue = lock(&self.queue);
        if self.stop.load(Ordering::SeqCst) {
            // Lost the race with shutdown: no worker is promised to look
            // at the queue again, so fail the entry honestly.
            drop(queue);
            self.finish(
                id,
                JobStatus::Failed,
                None,
                0,
                0,
                Some("scheduler stopped".into()),
            );
            return Response::json(503, error_body("server is shutting down"));
        }
        queue.push_back(Queued {
            id,
            job: Box::new(job),
            enqueued,
        });
        drop(queue);
        self.queue_cv.notify_one();
        Response::json(201, json_compact(&resp))
    }

    fn has_quota(&self) -> bool {
        self.quota_cycles.is_some()
            || self.quota_events.is_some()
            || self.quota_memory_words.is_some()
    }

    /// The quota gate: `Some(422)` when the spec's static cost bound
    /// exceeds an armed quota (or carries an `Unbounded` verdict, which
    /// no quota can admit). The response body carries the structured
    /// diagnostics — each violation names the bound and the limit it
    /// broke — plus the full cost report, so a rejected tenant can size
    /// the job down without guessing.
    fn enforce_quota(&self, job: &mut Admitted) -> Option<Response> {
        let cost = job.cost();
        let mut violations: Vec<(String, Option<u32>)> = Vec::new();
        match &cost.verdict {
            fem2_verify::CostVerdict::Unbounded { reason, span } => {
                violations.push((
                    format!("cost bound is unbounded ({reason}); quotas cannot admit it"),
                    Some(span.line),
                ));
            }
            fem2_verify::CostVerdict::Bounded => {
                for (what, bound, quota) in [
                    ("sim cycles", cost.sim_cycles, self.quota_cycles),
                    ("DES events", cost.des_events, self.quota_events),
                    (
                        "peak memory words",
                        cost.peak_memory_words,
                        self.quota_memory_words,
                    ),
                ] {
                    if let Some(limit) = quota {
                        if bound > limit {
                            violations.push((
                                format!(
                                    "static bound of {bound} {what} exceeds the quota of {limit}"
                                ),
                                None,
                            ));
                        }
                    }
                }
            }
        }
        if violations.is_empty() {
            return None;
        }
        let diagnostics: Vec<Value> = violations
            .into_iter()
            .map(|(message, line)| {
                doc! { "kind": "error", "pass": "cost", "message": message, "line"?: line }
            })
            .collect();
        let doc = doc! {
            "error": "rejected by cost quota",
            "diagnostics": diagnostics,
            "cost": cost,
        };
        Some(Response::json(422, json_pretty(&doc)))
    }

    /// Block until a job is queued; `None` once the queue is empty *and*
    /// shutdown has begun — what was admitted is drained first.
    fn next_job(&self) -> Option<Queued> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(q) = queue.pop_front() {
                return Some(q);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .queue_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One worker thread: run jobs in arrival order until [`next_job`]
    /// says the server is done. Shutdown joins every worker, so every
    /// admitted job is persisted before `stop` returns.
    ///
    /// [`next_job`]: Self::next_job
    fn worker_loop(self: &Arc<Self>) {
        while let Some(Queued {
            id,
            mut job,
            enqueued,
        }) = self.next_job()
        {
            // `run_job` catches what the scenario throws. A panic in the
            // supervision around it must still not cost the server this
            // worker, nor leave the job counted as queued for ever.
            let run = catch_unwind(AssertUnwindSafe(|| self.run_job(id, &mut job, enqueued)));
            if let Err(payload) = run {
                self.panics.fetch_add(1, Ordering::Relaxed);
                let published = lock(&self.tables)
                    .job(id)
                    .is_some_and(|e| !matches!(e.status, JobStatus::Queued | JobStatus::Running));
                if !published {
                    let msg = format!("worker panicked: {}", panic_message(&*payload));
                    self.finish(id, JobStatus::Failed, None, 0, 0, Some(msg));
                }
            }
        }
    }

    /// Execute one admitted job on a worker thread, supervised: panics are
    /// caught and recorded as failures, budget aborts surface as aborted,
    /// and every ending — ok, failed, aborted — is persisted before the
    /// job is published.
    fn run_job(self: &Arc<Self>, id: u64, job: &mut Admitted, enqueued: Instant) {
        let queue_ns = ns(enqueued.elapsed());
        #[cfg(test)]
        assert!(
            !self.panic_before_run.swap(false, Ordering::SeqCst),
            "test hook: panic outside run_job's unwind boundary"
        );
        if let Some(e) = lock(&self.tables).job_mut(id) {
            e.status = JobStatus::Running;
            e.queue_ns = queue_ns;
        }
        let (chaos_panic, chaos_stall) = self
            .chaos
            .as_ref()
            .map_or((false, None), |c| c.on_dispatch());
        // Arm the effective budget: explicit caps win, missing cycle and
        // event caps are auto-derived from the static cost bound × slack.
        // Soundness (bound ≥ actual) means the derived cap only ever
        // fires on a run that violates its own static bound — a
        // cost-model or simulator bug, which *should* abort loudly.
        let (budget, auto) = job.effective_budget();
        if auto {
            self.auto_budgeted.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        // The unwind boundary: a panic in the scenario (or an injected
        // one) becomes this job's failure record, not the worker's end.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(ms) = chaos_stall {
                thread::sleep(Duration::from_millis(ms));
            }
            if chaos_panic {
                panic!("chaos: injected worker panic");
            }
            job.spec.execute_with_budget(budget)
        }));
        let wall_ns = ns(t0.elapsed());
        if matches!(job.spec, JobSpec::Plate(_)) {
            self.sims_run.fetch_add(1, Ordering::Relaxed);
        }
        let (status, outcome, error, abort_cause) = match result {
            Ok(Ok(outcome)) => (RunStatus::Ok, Some(outcome), None, None),
            Ok(Err(abort)) => {
                self.aborts.fetch_add(1, Ordering::Relaxed);
                // The structured cause decides whether quarantine replays
                // the abort.
                (
                    RunStatus::Aborted,
                    None,
                    Some(abort.to_string()),
                    Some(abort.cause.name()),
                )
            }
            Err(payload) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                // `&*payload` reborrows the boxed payload itself; a plain
                // `&payload` would coerce the Box into the trait object and
                // make every downcast miss.
                let msg = format!("job panicked: {}", panic_message(&*payload));
                (RunStatus::Failed, None, Some(msg), None)
            }
        };
        // Station 5: persist before publishing, so a result a tenant saw
        // is a result the next lifetime can serve.
        let t_persist = Instant::now();
        let persisted = self.persist(
            job,
            status,
            outcome.as_ref(),
            error.as_deref(),
            abort_cause,
            wall_ns,
        );
        let persist_ns = ns(t_persist.elapsed());
        let (status, outcome, error) = match (status, persisted) {
            (RunStatus::Ok, Err(e)) => (JobStatus::Failed, None, Some(e)),
            // If even the failure record fails, the in-memory entry still
            // tells the truth.
            (status, _) => (JobStatus::ended(status), outcome.map(|o| o.value), error),
        };
        self.finish(id, status, outcome, wall_ns, persist_ns, error);
    }

    /// Append one result record, retrying once after a short backoff: a
    /// failed write is infrastructure trouble (disk hiccup, injected
    /// fault), not a property of the scenario, so one retry is cheap and
    /// absorbs transients without masking a dead disk. An append that
    /// failed wrote nothing, so the retry cannot duplicate a record.
    fn persist(
        &self,
        job: &mut Admitted,
        status: RunStatus,
        outcome: Option<&JobOutcome>,
        error: Option<&str>,
        abort_cause: Option<&str>,
        wall_ns: u64,
    ) -> Result<(), String> {
        let mut attempt = || {
            lock(&self.registry)
                .record(job, status, outcome, error, abort_cause, wall_ns)
                .map(|_| ())
        };
        let first = match attempt() {
            Ok(()) => {
                self.last_registry_write_ok.store(true, Ordering::Relaxed);
                return Ok(());
            }
            Err(e) => e,
        };
        self.infra_retries.fetch_add(1, Ordering::Relaxed);
        thread::sleep(RETRY_BACKOFF);
        match attempt() {
            Ok(()) => {
                self.last_registry_write_ok.store(true, Ordering::Relaxed);
                Ok(())
            }
            Err(second) => {
                self.last_registry_write_ok.store(false, Ordering::Relaxed);
                Err(format!(
                    "registry write failed after retry: {second} (first attempt: {first})"
                ))
            }
        }
    }

    fn finish(
        &self,
        id: u64,
        status: JobStatus,
        outcome: Option<Value>,
        wall_ns: u64,
        persist_ns: u64,
        error: Option<String>,
    ) {
        let mut tables = lock(&self.tables);
        if let Some(e) = tables.job_mut(id) {
            e.status = status;
            e.outcome = outcome;
            e.wall_ns = wall_ns;
            e.persist_ns = persist_ns;
            e.error = error;
            let hash = e.hash.clone();
            tables.in_flight.remove(&hash);
        }
    }

    fn stats(&self) -> Response {
        let registry = lock(&self.registry);
        let depth = lock(&self.tables).in_flight.len();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let doc = doc! {
            "sims_run": count(&self.sims_run),
            "cache_hits": count(&self.cache_hits),
            "shed": count(&self.shed),
            "queue_depth": depth,
            "capacity": self.capacity,
            "workers": self.workers,
            // One engine; the key stays until ROADMAP 2(c) re-pins this body.
            "shards": 1,
            "panics": count(&self.panics),
            "aborts": count(&self.aborts),
            "quarantine_hits": count(&self.quarantine_hits),
            "cost_rejections": count(&self.cost_rejections),
            "auto_budgeted": count(&self.auto_budgeted),
            "infra_retries": count(&self.infra_retries),
            "quarantine_size": registry.quarantine_size(),
            "last_registry_write_ok": self.last_registry_write_ok.load(Ordering::Relaxed),
            "registry_runs": registry.run_count(),
        };
        Response::json(200, json_pretty(&doc))
    }

    /// GET /readyz: readiness (distinct from /healthz liveness). Reports
    /// load and persistence signals; answers 503 once the registry stops
    /// accepting writes or shutdown has begun, so a balancer drains the
    /// instance while /healthz stays green (the process itself is fine).
    fn readyz(&self) -> Response {
        let registry = lock(&self.registry);
        let quarantine = registry.quarantine_size();
        drop(registry);
        let in_flight = lock(&self.tables).in_flight.len();
        let write_ok = self.last_registry_write_ok.load(Ordering::Relaxed);
        let ready = write_ok && !self.stop.load(Ordering::SeqCst);
        let doc = doc! {
            "ready": ready,
            "queue_depth": in_flight,
            "capacity": self.capacity,
            // One engine; the key stays until ROADMAP 2(c) re-pins this body.
            "shards": 1,
            "in_flight": in_flight,
            "quarantine_size": quarantine,
            "cost_rejections": self.cost_rejections.load(Ordering::Relaxed),
            "auto_budgeted": self.auto_budgeted.load(Ordering::Relaxed),
            "last_registry_write_ok": write_ok,
        };
        Response::json(if ready { 200 } else { 503 }, json_pretty(&doc))
    }

    fn job_detail(&self, id: u64) -> Response {
        let tables = lock(&self.tables);
        match tables.job(id) {
            Some(e) => Response::json(200, json_compact(&Self::entry_value(e, true))),
            None => Response::json(404, error_body(&format!("no job {id}"))),
        }
    }

    fn job_result(&self, id: u64) -> Response {
        let tables = lock(&self.tables);
        match tables.job(id) {
            Some(e) => match (&e.status, &e.outcome) {
                (JobStatus::Done, Some(outcome)) => {
                    let doc = doc! {
                        "id": e.id,
                        "hash": e.hash,
                        "cached": e.cached,
                        "wall_ns": e.wall_ns,
                        "outcome": outcome,
                    };
                    Response::json(200, json_pretty(&doc))
                }
                (JobStatus::Failed | JobStatus::Aborted, _) => Self::ending_reply(e, false),
                _ => Response::json(409, error_body(&format!("job {id} is {}", e.status.name()))),
            },
            None => Response::json(404, error_body(&format!("no job {id}"))),
        }
    }

    /// The reply about a job that ended without an outcome: 500 when it
    /// failed, 504 when it was aborted. A quarantine replay says so and
    /// names the hash it replayed.
    fn ending_reply(e: &JobEntry, quarantined: bool) -> Response {
        let status = e.status.name();
        let doc = doc! {
            "error": e.error.clone().unwrap_or_else(|| format!("job {status}")),
            "status": status,
            "quarantined"?: quarantined.then_some(true),
            "id": e.id,
            "hash"?: quarantined.then_some(&e.hash),
        };
        let code = if e.status == JobStatus::Aborted {
            504
        } else {
            500
        };
        Response::json(code, json_compact(&doc))
    }

    fn job_list(&self) -> Response {
        let tables = lock(&self.tables);
        let jobs: Vec<Value> = tables
            .jobs
            .iter()
            .map(|e| Self::entry_value(e, false))
            .collect();
        let doc = doc! { "count": jobs.len(), "jobs": jobs };
        Response::json(200, json_pretty(&doc))
    }

    /// Hand an accepted connection to a parked handler, or start a new
    /// handler when none is free: no connection waits behind another's
    /// request deadline.
    fn accept(self: &Arc<Self>, stream: TcpStream, accepted: Instant) {
        let mut handlers = lock(&self.handlers);
        if handlers.handoff.len() < handlers.parked {
            handlers.handoff.push_back((stream, accepted));
            drop(handlers);
            self.handlers_cv.notify_one();
            return;
        }
        drop(handlers);
        #[cfg(test)]
        self.handler_spawns.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(self);
        // A failed spawn drops the closure and with it the connection,
        // which the client sees as a reset.
        let _ = thread::Builder::new()
            .name("fem2-serve-conn".into())
            .spawn(move || state.handler_loop(stream, accepted));
    }

    /// One connection handler: answer a connection, park, and answer the
    /// next one handed over, until [`park`](Self::park) ends it.
    fn handler_loop(self: &Arc<Self>, stream: TcpStream, accepted: Instant) {
        let mut next = Some((stream, accepted));
        while let Some((stream, accepted)) = next {
            let resp = match read_request_deadline(&stream, self.request_deadline) {
                Ok(Some(req)) => Some(self.dispatch(&req, accepted)),
                Ok(None) | Err(ParseError::Io) => None,
                Err(ParseError::TooLarge) => Some(Response::text(413, "body too large")),
                Err(ParseError::Malformed(m)) => Some(Response::text(400, m)),
                Err(ParseError::Timeout) => Some(Response::text(408, "request timed out")),
            };
            if let Some(resp) = resp {
                let _ = write_response(&stream, &resp);
            }
            next = self.park(stream);
        }
    }

    /// Count the handler of the answered connection as parked *before*
    /// closing that connection, so a closed-loop client's next connect
    /// finds it; then wait for a handoff. `None` ends the handler: at
    /// shutdown, or when [`MAX_PARKED`] others are parked already.
    fn park(&self, answered: TcpStream) -> Option<(TcpStream, Instant)> {
        let mut handlers = lock(&self.handlers);
        if self.stop.load(Ordering::SeqCst) || handlers.parked >= MAX_PARKED {
            #[cfg(test)]
            self.handler_exits.fetch_add(1, Ordering::SeqCst);
            return None;
        }
        handlers.parked += 1;
        drop(handlers);
        drop(answered);
        #[cfg(test)]
        while self.hold_parked.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        let mut handlers = lock(&self.handlers);
        loop {
            // `stop` is set before shutdown takes this lock to notify, so
            // a handler that read `false` here is already waiting then.
            let stop = self.stop.load(Ordering::SeqCst);
            let next = handlers.handoff.pop_front();
            if next.is_some() || stop {
                handlers.parked -= 1;
                // Shutdown waits, with `stop` set, for `parked` to reach
                // zero: a handler that leaves the count then wakes it,
                // with a connection handed over before the stop or not.
                if stop {
                    self.handlers_cv.notify_all();
                }
                #[cfg(test)]
                if next.is_none() {
                    self.handler_exits.fetch_add(1, Ordering::SeqCst);
                }
                return next;
            }
            handlers = self
                .handlers_cv
                .wait(handlers)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Route one parsed request; `accepted` is when its connection was.
    fn dispatch(self: &Arc<Self>, req: &Request, accepted: Instant) -> Response {
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("POST", "/jobs") => self.submit(&req.body, accepted),
            ("GET", "/jobs") => self.job_list(),
            ("GET", "/stats") => self.stats(),
            ("GET", "/healthz") => Response::json(200, "{\"ok\":true}"),
            ("GET", "/readyz") => self.readyz(),
            ("GET", p) => {
                let rest = p.strip_prefix("/jobs/").unwrap_or("");
                let (id_part, tail) = match rest.split_once('/') {
                    Some((i, t)) => (i, Some(t)),
                    None => (rest, None),
                };
                match (id_part.parse::<u64>(), tail) {
                    (Ok(id), None) => self.job_detail(id),
                    (Ok(id), Some("result")) => self.job_result(id),
                    _ => Response::json(404, error_body(&format!("no route {p}"))),
                }
            }
            (m, p) => Response::json(405, error_body(&format!("{m} {p} not supported"))),
        }
    }
}

impl ServerHandle {
    /// The bound address (useful when `port` was 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the queue, and join all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Block on the acceptor — i.e. serve until the process is killed.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn shutdown(&mut self) {
        {
            let _queue = lock(&self.state.queue);
            if self.state.stop.swap(true, Ordering::SeqCst) {
                return;
            }
        }
        // Tell the workers to drain and exit, then poke the acceptor awake.
        self.state.queue_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // With the acceptor gone nothing is handed off any more: wake the
        // parked handlers and wait until the last has left. A handler
        // still answering a connection ends when it is done with it.
        let mut handlers = lock(&self.state.handlers);
        self.state.handlers_cv.notify_all();
        while handlers.parked > 0 {
            #[cfg(test)]
            self.state.shutdown_waiting.store(true, Ordering::SeqCst);
            handlers = self
                .state
                .handlers_cv
                .wait(handlers)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(handlers);
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind, spin up the workers and acceptor, and return the handle.
pub fn start(opts: &ServeOptions) -> Result<ServerHandle, String> {
    let mut registry = Registry::open(&opts.data_dir)?;
    let chaos = match &opts.chaos {
        Some(plan) => {
            if !plan.registry_error_on_write.is_empty() {
                registry.inject_write_errors(plan.registry_error_on_write.clone());
            }
            Some(Arc::new(ChaosState::new(plan.clone())))
        }
        None => None,
    };
    let listener = TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", opts.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let state = Arc::new(State {
        registry: Mutex::new(registry),
        tables: Mutex::new(Tables::default()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        sims_run: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        aborts: AtomicU64::new(0),
        quarantine_hits: AtomicU64::new(0),
        cost_rejections: AtomicU64::new(0),
        auto_budgeted: AtomicU64::new(0),
        infra_retries: AtomicU64::new(0),
        last_registry_write_ok: AtomicBool::new(true),
        chaos,
        request_deadline: opts.request_deadline,
        handlers: Mutex::new(Handlers::default()),
        handlers_cv: Condvar::new(),
        #[cfg(test)]
        verify_calls: AtomicU64::new(0),
        #[cfg(test)]
        handler_spawns: AtomicU64::new(0),
        #[cfg(test)]
        handler_exits: AtomicU64::new(0),
        #[cfg(test)]
        hold_parked: AtomicBool::new(false),
        #[cfg(test)]
        shutdown_waiting: AtomicBool::new(false),
        #[cfg(test)]
        panic_before_run: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        capacity: opts.queue_capacity.max(1),
        workers: opts.workers.max(1),
        quota_cycles: opts.quota_cycles,
        quota_events: opts.quota_events,
        quota_memory_words: opts.quota_memory_words,
    });

    // The handle exists before its threads do: if a spawn fails, dropping
    // it stops and joins the workers already started.
    let mut handle = ServerHandle {
        addr,
        state: Arc::clone(&state),
        accept_thread: None,
        workers: Vec::with_capacity(state.workers),
    };
    for i in 0..state.workers {
        let state = Arc::clone(&state);
        let worker = thread::Builder::new()
            .name(format!("fem2-serve-worker-{i}"))
            .spawn(move || state.worker_loop())
            .map_err(|e| format!("spawn worker {i}: {e}"))?;
        handle.workers.push(worker);
    }

    // Acceptor: each connection goes to a connection handler — the API
    // is one-shot request/response and job submissions are small.
    handle.accept_thread = Some(thread::spawn(move || {
        for stream in listener.incoming() {
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            state.accept(stream, Instant::now());
        }
    }));
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::fs;
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::AtomicU64 as TestSeq;

    static DIR_SEQ: TestSeq = TestSeq::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fem2-serve-server-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_poll_result_and_cache_hit() {
        let dir = temp_dir("basic");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();

        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":12,"ny":12}"#)).unwrap();
        assert_eq!(status, 201, "{body}");
        let v = serde_json::parse_value(&body).unwrap();
        let Value::UInt(id) = v.get_field("id").unwrap() else {
            panic!("id field: {body}")
        };
        let id = *id;

        let outcome = client::wait_done(addr, id).unwrap();
        let (status, body) =
            client::request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(outcome.get_field("converged").is_ok());

        // Identical resubmission: answered from the registry, no new sim.
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"ny":12,"nx":12}"#)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");

        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(
            sv.get_field("sims_run").unwrap(),
            &Value::UInt(1),
            "{stats}"
        );
        assert_eq!(sv.get_field("cache_hits").unwrap(), &Value::UInt(1));
        assert_eq!(sv.get_field("registry_runs").unwrap(), &Value::UInt(1));

        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_submission_gets_422_with_diagnostics() {
        let dir = temp_dir("reject");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        // 300x300 on a fem1-style machine: storage pass must reject.
        let body = r#"{"nx":300,"ny":300,"machine":{"clusters":4,"pes_per_cluster":8,
            "memory_per_cluster":65536,"topology":"Crossbar","link_latency":20,
            "words_per_cycle":1,"max_packet_words":256,"header_words":4,
            "cost":{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,
            "task_create":120,"context_switch":40},"dedicated_kernel_pe":false,
            "route_cache":false,"des_queue":"Heap"}}"#;
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 422, "{resp}");
        assert!(resp.contains("REJECTED"), "{resp}");
        assert!(resp.contains("storage"), "{resp}");
        // Nothing reached the scheduler or the registry.
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        assert!(stats.contains("\"sims_run\": 0"), "{stats}");
        assert!(stats.contains("\"registry_runs\": 0"), "{stats}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn impossible_topology_gets_422_naming_the_field() {
        let dir = temp_dir("topo422");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        // Torus dims that do not factor the cluster count: the body is
        // well-formed JSON describing an impossible machine, so the
        // rejection is 422 (not 400) and names the offending field.
        let body = r#"{"nx":12,"ny":12,"machine":{"clusters":16,"pes_per_cluster":2,
            "memory_per_cluster":4194304,"topology":{"Torus":{"dims":[3,5]}},"link_latency":20,
            "words_per_cycle":1,"max_packet_words":256,"header_words":4,
            "cost":{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,
            "task_create":120,"context_switch":40},"dedicated_kernel_pe":true,
            "route_cache":true,"des_queue":"Calendar"}}"#;
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 422, "{resp}");
        assert!(resp.contains("field `machine`"), "{resp}");
        assert!(resp.contains("torus dims"), "{resp}");
        assert!(resp.contains("do not factor"), "{resp}");
        // Same story for a fat-tree radix that does not divide the count.
        let ft = body.replace(r#"{"Torus":{"dims":[3,5]}}"#, r#"{"FatTree":{"radix":5}}"#);
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(&ft)).unwrap();
        assert_eq!(status, 422, "{resp}");
        assert!(resp.contains("fat-tree radix"), "{resp}");
        assert!(resp.contains("does not divide"), "{resp}");
        // A crossbar with more link ids (n²) than a route's u32 hops can
        // name is refused the same way, not left to overflow or panic.
        let xbar = body
            .replace(r#"{"Torus":{"dims":[3,5]}}"#, r#""Crossbar""#)
            .replace(r#""clusters":16"#, r#""clusters":70000"#);
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(&xbar)).unwrap();
        assert_eq!(status, 422, "{resp}");
        assert!(resp.contains("field `machine`"), "{resp}");
        assert!(resp.contains("link ids"), "{resp}");
        // The factoring variant of the same submission is admitted.
        let good = body.replace("[3,5]", "[4,4]");
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(&good)).unwrap();
        assert_eq!(status, 201, "{resp}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Sizes taken from the body are capped before verification: lowering
    /// and the cost pass do work per task and per cluster, so an uncapped
    /// count could hold a connection thread for minutes or exhaust memory.
    #[test]
    fn oversized_tasks_and_machines_are_refused_before_verification() {
        let dir = temp_dir("caps");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let bus = |clusters: u32, pes: u32| {
            format!(
                r#"{{"nx":12,"ny":12,"machine":{{"clusters":{clusters},"pes_per_cluster":{pes},
                "memory_per_cluster":4194304,"topology":"Bus","link_latency":20,
                "words_per_cycle":1,"max_packet_words":256,"header_words":4,
                "cost":{{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,
                "task_create":120,"context_switch":40}},"dedicated_kernel_pe":true,
                "route_cache":true,"des_queue":"Calendar"}}}}"#
            )
        };
        let huge = r#"{"nx":2,"ny":2,"tasks":4000000000}"#;
        for (body, code, says) in [
            (huge.to_string(), 400, "field `tasks`"),
            // Default tasks: one per worker PE, 400 000 × 7 of them.
            (bus(400_000, 8), 400, "field `tasks`"),
            (bus(2_000_000, 1), 422, "clusters 2000000 exceeds the cap"),
            (bus(4, 5000), 422, "pes_per_cluster 5000 exceeds the cap"),
        ] {
            let (status, resp) = client::request(addr, "POST", "/jobs", Some(&body)).unwrap();
            assert_eq!(status, code, "{resp}");
            assert!(resp.contains(says), "{resp}");
        }
        assert_eq!(handle.state.verify_calls.load(Ordering::Relaxed), 0);
        let (status, health) = client::request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));
        // The same machine at a sane size is admitted as before.
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(&bus(16, 2))).unwrap();
        assert_eq!(status, 201, "{resp}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_submission_gets_400() {
        let dir = temp_dir("malformed");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let (status, body) = client::request(addr, "POST", "/jobs", Some("{nope")).unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, _) = client::request(addr, "GET", "/jobs/99", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client::request(addr, "DELETE", "/jobs", None).unwrap();
        assert_eq!(status, 405);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_capacity_sheds_with_503() {
        let dir = temp_dir("shed");
        let mut opts = ServeOptions::new(dir.clone());
        opts.queue_capacity = 0; // clamped to 1; fill it with a job, then shed
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        // Occupy the single slot with a large-ish plate...
        let (s1, b1) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":64,"ny":64}"#)).unwrap();
        assert_eq!(s1, 201, "{b1}");
        // ...and race differently-hashed submissions against it until one
        // sheds or the first finishes (then the test can't assert — retry
        // with another slot-filler). In practice the 64x64 run is slow
        // enough that the very first distinct submission sheds.
        let mut shed = false;
        for seed in 1..50u64 {
            let body = format!(r#"{{"nx":16,"ny":16,"seed":{seed}}}"#);
            let (status, resp) = client::request(addr, "POST", "/jobs", Some(&body)).unwrap();
            if status == 503 {
                assert!(resp.contains("shed"), "{resp}");
                shed = true;
                break;
            }
        }
        assert!(shed, "no submission shed while the slot was full");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_ne!(sv.get_field("shed").unwrap(), &Value::UInt(0), "{stats}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    fn submit_id(addr: std::net::SocketAddr, body: &str) -> u64 {
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 201, "{resp}");
        let v = serde_json::parse_value(&resp).unwrap();
        let Value::UInt(id) = v.get_field("id").unwrap() else {
            panic!("id field: {resp}")
        };
        *id
    }

    #[test]
    fn panicking_job_is_isolated_recorded_and_quarantined() {
        let dir = temp_dir("panic");
        let mut opts = ServeOptions::new(dir.clone());
        opts.chaos = Some(ChaosPlan::parse(r#"{"panic_on_run":[1]}"#).unwrap());
        let handle = start(&opts).unwrap();
        let addr = handle.addr();

        let id = submit_id(addr, r#"{"nx":12,"ny":12}"#);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "failed");
        let (status, body) =
            client::request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("injected worker panic"), "{body}");

        // The server survived: healthz green, a different job completes.
        let (status, health) = client::request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(health, "{\"ok\":true}");
        let id2 = submit_id(addr, r#"{"nx":8,"ny":8}"#);
        assert_eq!(client::wait_settled(addr, id2).unwrap(), "done");

        // Resubmitting the crasher replays the recorded failure from
        // quarantine — no new run.
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":12,"ny":12}"#)).unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("\"quarantined\":true"), "{body}");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(sv.get_field("panics").unwrap(), &Value::UInt(1), "{stats}");
        assert_eq!(sv.get_field("quarantine_hits").unwrap(), &Value::UInt(1));
        assert_eq!(sv.get_field("quarantine_size").unwrap(), &Value::UInt(1));
        assert_eq!(
            sv.get_field("sims_run").unwrap(),
            &Value::UInt(2),
            "crasher ran once, healthy job once, replay zero: {stats}"
        );
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budgeted_runaway_aborts_with_504_and_is_recorded() {
        let dir = temp_dir("budget");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let body = r#"{"nx":24,"ny":24,"budget":{"max_sim_cycles":10000}}"#;
        let id = submit_id(addr, body);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "aborted");
        let (status, resp) =
            client::request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
        assert_eq!(status, 504, "{resp}");
        assert!(resp.contains("cycles_exceeded"), "{resp}");
        // The abort is quarantined like any other non-ok ending.
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 504, "{resp}");
        assert!(resp.contains("\"quarantined\":true"), "{resp}");
        // The same plate *without* a budget is a different job and runs.
        let id2 = submit_id(addr, r#"{"nx":24,"ny":24}"#);
        assert_eq!(client::wait_settled(addr, id2).unwrap(), "done");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(sv.get_field("aborts").unwrap(), &Value::UInt(1), "{stats}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn over_quota_plate_is_rejected_at_admission_with_the_bound() {
        let dir = temp_dir("quota");
        let mut opts = ServeOptions::new(dir.clone());
        opts.quota_cycles = Some(1_000); // far below any real plate bound
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":16,"ny":16}"#)).unwrap();
        assert_eq!(status, 422, "{body}");
        let v = serde_json::parse_value(&body).unwrap();
        assert_eq!(
            v.get_field("error").unwrap(),
            &Value::Str("rejected by cost quota".into())
        );
        assert!(
            body.contains("exceeds the quota of 1000"),
            "diagnostics must carry the limit: {body}"
        );
        assert!(
            body.contains("static bound of"),
            "diagnostics must carry the bound: {body}"
        );
        // Nothing reached the cache, the scheduler, or the registry.
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(sv.get_field("cost_rejections").unwrap(), &Value::UInt(1));
        assert_eq!(sv.get_field("sims_run").unwrap(), &Value::UInt(0));
        assert_eq!(sv.get_field("registry_runs").unwrap(), &Value::UInt(0));
        // Script jobs never simulate, so quotas do not gate them.
        let script = r#"{"kind":"script","ops":[
            {"op":"initiate","task":"a"},{"op":"terminate","task":"a"}]}"#;
        let id = submit_id(addr, script);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "done");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn admitted_plates_get_auto_derived_budgets() {
        let dir = temp_dir("autobudget");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let id = submit_id(addr, r#"{"nx":8,"ny":8}"#);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "done");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(
            sv.get_field("auto_budgeted").unwrap(),
            &Value::UInt(1),
            "{stats}"
        );
        assert_eq!(sv.get_field("aborts").unwrap(), &Value::UInt(0));
        let (_, ready) = client::request(addr, "GET", "/readyz", None).unwrap();
        let rv = serde_json::parse_value(&ready).unwrap();
        assert!(rv.get_field("auto_budgeted").is_ok(), "{ready}");
        assert!(rv.get_field("cost_rejections").is_ok(), "{ready}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wall_abort_does_not_poison_the_hash_neutral_spec() {
        let dir = temp_dir("wallq");
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        {
            // Pre-seed the registry with a wall-deadline abort for the
            // spec's hash — what a {"budget":{"wall_ms":1}} submission on
            // a slow host would have recorded. wall_ms is hash-neutral,
            // so this is the *same* hash as the unbudgeted spec.
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_result(
                &spec,
                RunStatus::Aborted,
                None,
                Some("run aborted (wall_deadline) at 10 sim cycles, 0 DES events"),
                Some("wall_deadline"),
                5,
            )
            .unwrap();
        }
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        // The abort is operational, not a property of the spec: the
        // submission re-runs instead of replaying a quarantined 504.
        let id = submit_id(addr, r#"{"nx":12,"ny":12}"#);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "done");
        // The fresh ok record supersedes the abort for the next tenant.
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":12,"ny":12}"#)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(sv.get_field("quarantine_hits").unwrap(), &Value::UInt(0));
        assert_eq!(sv.get_field("quarantine_size").unwrap(), &Value::UInt(0));
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wall_abort_after_ok_still_serves_the_ok_record() {
        let dir = temp_dir("wallok");
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        let outcome = spec.execute();
        {
            // An ok run followed by a wall abort of the same hash (e.g. a
            // later submission with a too-tight wall_ms on a loaded host).
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &outcome, 42).unwrap();
            reg.record_result(
                &spec,
                RunStatus::Aborted,
                None,
                Some("run aborted (wall_deadline) at 3 sim cycles, 0 DES events"),
                Some("wall_deadline"),
                2,
            )
            .unwrap();
        }
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        // No re-run needed: the earlier completed result answers.
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":12,"ny":12}"#)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(
            sv.get_field("sims_run").unwrap(),
            &Value::UInt(0),
            "{stats}"
        );
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_registry_error_is_absorbed_by_the_retry() {
        let dir = temp_dir("retry");
        let mut opts = ServeOptions::new(dir.clone());
        opts.chaos = Some(ChaosPlan::parse(r#"{"registry_error_on_write":[1]}"#).unwrap());
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        let id = submit_id(addr, r#"{"nx":10,"ny":10}"#);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "done");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(
            sv.get_field("infra_retries").unwrap(),
            &Value::UInt(1),
            "{stats}"
        );
        assert_eq!(sv.get_field("registry_runs").unwrap(), &Value::UInt(1));
        assert_eq!(
            sv.get_field("last_registry_write_ok").unwrap(),
            &Value::Bool(true)
        );
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readyz_reports_load_and_stays_distinct_from_healthz() {
        let dir = temp_dir("readyz");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let (status, body) = client::request(addr, "GET", "/readyz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value(&body).unwrap();
        assert_eq!(v.get_field("ready").unwrap(), &Value::Bool(true));
        assert!(v.get_field("queue_depth").is_ok(), "{body}");
        assert!(v.get_field("in_flight").is_ok(), "{body}");
        assert!(v.get_field("quarantine_size").is_ok(), "{body}");
        assert!(v.get_field("last_registry_write_ok").is_ok(), "{body}");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The bodies' keys and their order are what deployed scrapers read;
    /// `shards` stays in both, as the one-engine literal.
    #[test]
    fn stats_and_readyz_keys_keep_their_order() {
        let dir = temp_dir("body-keys");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let stats = "sims_run cache_hits shed queue_depth capacity workers shards panics aborts \
                     quarantine_hits cost_rejections auto_budgeted infra_retries quarantine_size \
                     last_registry_write_ok registry_runs";
        let readyz = "ready queue_depth capacity shards in_flight quarantine_size \
                      cost_rejections auto_budgeted last_registry_write_ok";
        for (path, want) in [("/stats", stats), ("/readyz", readyz)] {
            let (status, body) = client::request(addr, "GET", path, None).unwrap();
            assert_eq!(status, 200, "{body}");
            let v = serde_json::parse_value(&body).unwrap();
            let Value::Obj(fields) = &v else {
                panic!("{path} is not an object: {body}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, want.split_whitespace().collect::<Vec<_>>(), "{path}");
            assert_eq!(v.get_field("shards").unwrap(), &Value::UInt(1), "{body}");
        }
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_serves_cached_results_from_registry() {
        let dir = temp_dir("restart");
        {
            let handle = start(&ServeOptions::new(dir.clone())).unwrap();
            let addr = handle.addr();
            let (status, body) =
                client::request(addr, "POST", "/jobs", Some(r#"{"nx":10,"ny":10}"#)).unwrap();
            assert_eq!(status, 201, "{body}");
            let v = serde_json::parse_value(&body).unwrap();
            let Value::UInt(id) = v.get_field("id").unwrap() else {
                panic!("{body}")
            };
            client::wait_done(addr, *id).unwrap();
            handle.stop();
        }
        // New lifetime, same data-dir: the same submission is a cache hit
        // without a single simulation.
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":10,"ny":10}"#)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":true"), "{body}");
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        let sv = serde_json::parse_value(&stats).unwrap();
        assert_eq!(
            sv.get_field("sims_run").unwrap(),
            &Value::UInt(0),
            "{stats}"
        );
        assert_eq!(sv.get_field("registry_runs").unwrap(), &Value::UInt(1));
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// 2048² on the default machine: the storage pass must reject.
    const OVERFLOW: &str = r#"{"nx":2048,"ny":2048}"#;

    fn stat(addr: std::net::SocketAddr, name: &str) -> u64 {
        let (_, stats) = client::request(addr, "GET", "/stats", None).unwrap();
        match serde_json::parse_value(&stats).unwrap().get_field(name) {
            Ok(Value::UInt(u)) => *u,
            other => panic!("/stats field {name}: {other:?} in {stats}"),
        }
    }

    #[test]
    fn a_rejected_spec_is_rejected_again_and_leaves_no_trace() {
        let dir = temp_dir("reject-twice");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let (status, first) = client::request(addr, "POST", "/jobs", Some(OVERFLOW)).unwrap();
        assert_eq!(status, 422, "{first}");
        assert!(first.contains("rejected by static verification"), "{first}");
        let (status, second) = client::request(addr, "POST", "/jobs", Some(OVERFLOW)).unwrap();
        assert_eq!(status, 422);
        assert_eq!(first, second);
        // A refusal is not content the cache has seen: nothing to look up
        // next time, so the gate runs again.
        assert_eq!(handle.state.verify_calls.load(Ordering::Relaxed), 2);
        assert!(lock(&handle.state.registry).runs().is_empty());
        let tables = lock(&handle.state.tables);
        assert!(tables.in_flight.is_empty() && tables.jobs.is_empty());
        drop(tables);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panic_under_the_state_locks_does_not_wedge_later_requests() {
        let dir = temp_dir("poisoned");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let state = Arc::clone(&handle.state);
        let panicked = thread::spawn(move || {
            let _registry = lock(&state.registry);
            let _tables = lock(&state.tables);
            panic!("handler died holding both state locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(handle.state.registry.is_poisoned() && handle.state.tables.is_poisoned());
        for path in ["/stats", "/readyz", "/jobs"] {
            let (status, body) = client::request(addr, "GET", path, None).unwrap();
            assert_eq!(status, 200, "{path}: {body}");
        }
        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":8,"ny":8}"#)).unwrap();
        assert_eq!(status, 201, "{body}");
        client::wait_done(addr, 1).unwrap();
        assert_eq!(lock(&handle.state.registry).run_count(), 1);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hit_coalesce_and_quarantine_replay_answer_the_pinned_bytes() {
        let dir = temp_dir("pinned");
        let ok = JobSpec::parse(r#"{"nx":12,"ny":12}"#).unwrap();
        let poisoned = JobSpec::parse(r#"{"nx":10,"ny":10}"#).unwrap();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&ok, &ok.execute(), 42).unwrap();
            reg.record_result(
                &poisoned,
                RunStatus::Failed,
                None,
                Some("job panicked: boom"),
                None,
                7,
            )
            .unwrap();
        }
        let mut opts = ServeOptions::new(dir.clone());
        opts.chaos = Some(ChaosPlan::parse(r#"{"stall_ms_on_run":[[1,400]]}"#).unwrap());
        let handle = start(&opts).unwrap();
        let addr = handle.addr();

        let (status, body) = client::request(
            addr,
            "POST",
            "/jobs",
            Some(r#"{"ny":12,"nx":12,"name":"again"}"#),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            r#"{"id":1,"hash":"4c03826862c12ea7","name":"again","kind":"plate","status":"done","cached":true,"wall_ns":42}"#
        );

        let (status, body) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":10,"ny":10}"#)).unwrap();
        assert_eq!(status, 500);
        assert_eq!(
            body,
            format!(
                r#"{{"error":"job panicked: boom","status":"failed","quarantined":true,"id":2,"hash":"{}"}}"#,
                poisoned.content_hash()
            )
        );

        // A job held in its worker by the stall, then the same content
        // again: coalesced onto it.
        let id = submit_id(addr, r#"{"nx":8,"ny":8,"name":"first"}"#);
        assert_eq!(id, 3);
        loop {
            let (_, state) = client::request(addr, "GET", "/jobs/3", None).unwrap();
            if state.contains(r#""status":"running""#) {
                break;
            }
            assert!(state.contains(r#""status":"queued""#), "{state}");
            thread::yield_now();
        }
        let (status, body) = client::request(
            addr,
            "POST",
            "/jobs",
            Some(r#"{"ny":8,"nx":8,"name":"second"}"#),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            format!(
                r#"{{"id":3,"hash":"{}","name":"first","kind":"plate","status":"running","cached":false,"coalesced":true}}"#,
                JobSpec::parse(r#"{"nx":8,"ny":8}"#).unwrap().content_hash()
            )
        );
        assert_eq!(client::wait_settled(addr, 3).unwrap(), "done");
        // Only the one miss went through the gate.
        assert_eq!(handle.state.verify_calls.load(Ordering::Relaxed), 1);
        assert_eq!(stat(addr, "cache_hits"), 2);
        assert_eq!(stat(addr, "quarantine_hits"), 1);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_armed_quota_is_enforced_on_a_cached_spec_too() {
        let body = r#"{"nx":16,"ny":16}"#;
        let quota_reply = |tag: &str, cached: bool| {
            let dir = temp_dir(tag);
            if cached {
                let spec = JobSpec::parse(body).unwrap();
                let mut reg = Registry::open(&dir).unwrap();
                reg.record_run(&spec, &spec.execute(), 1).unwrap();
            }
            let mut opts = ServeOptions::new(dir.clone());
            opts.quota_cycles = Some(1_000);
            let handle = start(&opts).unwrap();
            let addr = handle.addr();
            let (status, reply) = client::request(addr, "POST", "/jobs", Some(body)).unwrap();
            assert_eq!(status, 422, "{reply}");
            assert!(reply.contains("rejected by cost quota"), "{reply}");
            assert_eq!(stat(addr, "cost_rejections"), 1);
            assert_eq!(stat(addr, "cache_hits"), 0);
            // A spec that fails the gate *and* the quota hears from the
            // verifier: on a miss the gate still comes first.
            let (status, refused) = client::request(addr, "POST", "/jobs", Some(OVERFLOW)).unwrap();
            assert_eq!(status, 422);
            assert!(
                refused.contains("rejected by static verification"),
                "{refused}"
            );
            assert_eq!(stat(addr, "cost_rejections"), 1);
            handle.stop();
            fs::remove_dir_all(&dir).unwrap();
            reply
        };
        // Same diagnostics, same `cost` document, cached or not.
        assert_eq!(
            quota_reply("quota-cold", false),
            quota_reply("quota-hit", true)
        );
    }

    #[test]
    fn the_gate_runs_once_per_cold_spec_and_never_for_a_hit() {
        let dir = temp_dir("verify-count");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let colds = [
            r#"{"nx":6,"ny":6}"#,
            r#"{"nx":7,"ny":7}"#,
            r#"{"nx":8,"ny":8}"#,
        ];
        for body in colds {
            let id = submit_id(addr, body);
            assert_eq!(client::wait_settled(addr, id).unwrap(), "done");
        }
        for round in 0..2 {
            for body in colds {
                let named = body.replace('}', &format!(r#","name":"round {round}"}}"#));
                let (status, reply) = client::request(addr, "POST", "/jobs", Some(&named)).unwrap();
                assert_eq!(status, 200, "{reply}");
            }
        }
        assert_eq!(stat(addr, "sims_run"), 3);
        assert_eq!(stat(addr, "cache_hits"), 6);
        assert_eq!(handle.state.verify_calls.load(Ordering::Relaxed), 3);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_detail_splits_a_scheduled_job_into_host_side_stages() {
        let dir = temp_dir("stages");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let addr = handle.addr();
        let id = submit_id(addr, r#"{"nx":10,"ny":10}"#);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "done");
        let (_, detail) = client::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        let v = serde_json::parse_value(&detail).unwrap();
        for stage in ["wall_ns", "admit_ns", "queue_ns", "persist_ns"] {
            assert!(
                matches!(v.get_field(stage), Ok(Value::UInt(ns)) if *ns > 0),
                "{stage} in {detail}"
            );
        }
        // A cached answer ran no stage here: it carries the stored
        // `wall_ns` and nothing else.
        let (_, hit) =
            client::request(addr, "POST", "/jobs", Some(r#"{"nx":10,"ny":10}"#)).unwrap();
        assert!(hit.contains("\"wall_ns\":"), "{hit}");
        assert!(
            !hit.contains("admit_ns") && !hit.contains("persist_ns"),
            "{hit}"
        );
        // None of it is persisted.
        let log = fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        assert!(
            !log.contains("admit_ns") && !log.contains("queue_ns"),
            "{log}"
        );
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_ids_index_the_job_table_under_concurrent_submission() {
        let dir = temp_dir("ids");
        let hit = JobSpec::parse(r#"{"nx":5,"ny":5}"#).unwrap();
        let poisoned = JobSpec::parse(r#"{"nx":5,"ny":6}"#).unwrap();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&hit, &hit.execute(), 1).unwrap();
            reg.record_result(&poisoned, RunStatus::Failed, None, Some("boom"), None, 1)
                .unwrap();
        }
        let mut opts = ServeOptions::new(dir.clone());
        opts.queue_capacity = 64;
        let handle = start(&opts).unwrap();
        let state = &handle.state;
        let start_line = std::sync::Barrier::new(8);
        // Every thread: two cold specs of its own, the cached one, the
        // quarantined one, and one all eight share (scheduled once, then
        // coalesced or hit, whichever the race gives).
        let replies: Vec<(String, String)> = thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|t| {
                    let start_line = &start_line;
                    s.spawn(move || {
                        let bodies = [
                            format!(r#"{{"nx":4,"ny":4,"seed":{t}}}"#),
                            r#"{"nx":5,"ny":5}"#.to_string(),
                            r#"{"nx":6,"ny":6,"seed":99}"#.to_string(),
                            r#"{"nx":5,"ny":6}"#.to_string(),
                            format!(r#"{{"nx":4,"ny":5,"seed":{t}}}"#),
                        ];
                        start_line.wait();
                        bodies
                            .map(|body| (state.submit(&body, Instant::now()).body, body))
                            .to_vec()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        assert_eq!(replies.len(), 40);
        let tables = lock(&state.tables);
        // 8 × (2 cold + hit + quarantined) entries, one for the shared
        // spec, and one more per thread that met it already finished.
        assert!(
            (33..=40).contains(&tables.jobs.len()),
            "{}",
            tables.jobs.len()
        );
        for (slot, e) in tables.jobs.iter().enumerate() {
            assert_eq!(e.id, slot as u64 + 1);
        }
        // Each reply names an id, and that id's entry is that content.
        for (reply, body) in &replies {
            let v = serde_json::parse_value(reply).unwrap();
            let Ok(Value::UInt(id)) = v.get_field("id") else {
                panic!("no id in {reply}")
            };
            let entry = tables.job(*id).expect("the id a reply names exists");
            assert_eq!(entry.hash, JobSpec::parse(body).unwrap().content_hash());
        }
        drop(tables);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_drains_every_admitted_job() {
        let dir = temp_dir("drain");
        let mut opts = ServeOptions::new(dir.clone());
        opts.workers = 1;
        // The first run stalls, so the other two are still in the queue
        // when `stop` is called.
        opts.chaos = Some(ChaosPlan::parse(r#"{"stall_ms_on_run":[[1,500]]}"#).unwrap());
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        for n in [8, 10, 12] {
            submit_id(addr, &format!(r#"{{"nx":{n},"ny":{n}}}"#));
        }
        assert_eq!(stat(addr, "queue_depth"), 3);
        assert_eq!(stat(addr, "registry_runs"), 0);
        handle.stop();
        let reg = Registry::open(&dir).unwrap();
        let names: Vec<&str> = reg.runs().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["plate 8x8", "plate 10x10", "plate 12x12"], "FIFO");
        assert!(reg.runs().iter().all(|r| r.status.is_ok()));
        drop(reg);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The registry's whole on-disk state is `runs.jsonl`: open, append,
    /// reopen, a server's clean stop and a report leave nothing beside it.
    /// A directory named `index.json.tmp`, as an older build could leave
    /// behind, stops none of them.
    #[test]
    fn the_data_dir_holds_runs_jsonl_and_nothing_else() {
        let dir = temp_dir("one-file");
        let site = temp_dir("one-file-site");
        // Open and append, stop; reopen and append, stop.
        for body in [r#"{"nx":8,"ny":8}"#, r#"{"nx":10,"ny":10}"#] {
            let handle = start(&ServeOptions::new(dir.clone())).unwrap();
            let id = submit_id(handle.addr(), body);
            assert_eq!(client::wait_settled(handle.addr(), id).unwrap(), "done");
            handle.stop();
        }
        assert_eq!(crate::report::generate(&dir, &site).unwrap(), 4);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["runs.jsonl"]);
        fs::create_dir(dir.join("index.json.tmp")).unwrap();
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let (status, body) =
            client::request(handle.addr(), "POST", "/jobs", Some(r#"{"nx":8,"ny":8}"#)).unwrap();
        assert_eq!(status, 200, "{body}");
        handle.stop();
        assert_eq!(crate::report::generate(&dir, &site).unwrap(), 4);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&site).unwrap();
    }

    #[test]
    fn a_submission_that_loses_the_race_with_shutdown_is_refused_honestly() {
        let dir = temp_dir("late");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let state = Arc::clone(&handle.state);
        handle.stop();
        // What a connection thread still inside `dispatch` would do.
        let resp = state.submit(r#"{"nx":8,"ny":8}"#, Instant::now());
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, r#"{"error":"server is shutting down"}"#);
        let tables = lock(&state.tables);
        let entry = tables.job(1).unwrap();
        assert_eq!(entry.status, JobStatus::Failed);
        assert_eq!(entry.error.as_deref(), Some("scheduler stopped"));
        assert!(tables.in_flight.is_empty());
        assert!(lock(&state.queue).is_empty());
        drop(tables);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panic_outside_the_job_boundary_leaves_the_worker_serving() {
        let dir = temp_dir("escape");
        let mut opts = ServeOptions::new(dir.clone());
        opts.workers = 1;
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        handle.state.panic_before_run.store(true, Ordering::SeqCst);
        let id = submit_id(addr, r#"{"nx":8,"ny":8}"#);
        assert_eq!(client::wait_settled(addr, id).unwrap(), "failed");
        let (_, detail) = client::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert!(detail.contains("worker panicked: test hook"), "{detail}");
        assert_eq!(stat(addr, "queue_depth"), 0);
        assert_eq!(stat(addr, "panics"), 1);
        assert_eq!(
            stat(addr, "registry_runs"),
            0,
            "nothing ran, nothing recorded"
        );
        let (status, ready) = client::request(addr, "GET", "/readyz", None).unwrap();
        assert_eq!(status, 200, "{ready}");
        let v = serde_json::parse_value(&ready).unwrap();
        assert_eq!(v.get_field("queue_depth").unwrap(), &Value::UInt(0));
        assert_eq!(v.get_field("in_flight").unwrap(), &Value::UInt(0));
        // The only worker is still there: the same spec, no longer in
        // flight and never recorded, runs to completion.
        let id2 = submit_id(addr, r#"{"nx":8,"ny":8}"#);
        assert_eq!(client::wait_settled(addr, id2).unwrap(), "done");
        assert_eq!(stat(addr, "queue_depth"), 0);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Read a silent connection to its end: the server's 408.
    fn expect_408(mut silent: TcpStream) {
        let mut reply = String::new();
        silent.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{reply}"
        );
    }

    /// DESIGN.md §8.1's slow / silent client row at the server: each
    /// silent connection holds only its own handler until the deadline.
    #[test]
    fn silent_clients_do_not_delay_others() {
        let dir = temp_dir("silent");
        let mut opts = ServeOptions::new(dir.clone());
        opts.request_deadline = Duration::from_secs(2);
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        let silent: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let asked = Instant::now();
        let (status, body) = client::request(addr, "GET", "/healthz", None).unwrap();
        let waited = asked.elapsed();
        assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));
        assert!(
            waited < opts.request_deadline / 4,
            "/healthz waited {waited:?} behind silent clients"
        );
        silent.into_iter().for_each(expect_408);
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_requests_reuse_one_handler() {
        let dir = temp_dir("reuse");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        for _ in 0..200 {
            let (status, _) = client::request(handle.addr(), "GET", "/healthz", None).unwrap();
            assert_eq!(status, 200);
        }
        let spawns = handle.state.handler_spawns.load(Ordering::SeqCst);
        assert!(spawns <= 2, "{spawns} handlers for 200 sequential requests");
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A burst wider than `MAX_PARKED` leaves that many handlers parked
    /// and ends the rest; shutdown ends the parked ones at once.
    #[test]
    fn a_burst_leaves_at_most_max_parked_handlers_and_shutdown_ends_them() {
        let dir = temp_dir("burst");
        let mut opts = ServeOptions::new(dir.clone());
        opts.request_deadline = Duration::from_secs(1);
        let handle = start(&opts).unwrap();
        let state = Arc::clone(&handle.state);
        let silent: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        // A handler parks or ends before it closes its connection, so
        // each 408 read to its end has been counted.
        silent.into_iter().for_each(expect_408);
        let spawns = state.handler_spawns.load(Ordering::SeqCst);
        let exits = state.handler_exits.load(Ordering::SeqCst);
        let parked = lock(&state.handlers).parked;
        assert_eq!(parked, MAX_PARKED, "{spawns} started, {exits} ended");
        assert_eq!(spawns - exits, MAX_PARKED as u64);
        let asked = Instant::now();
        handle.stop();
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            asked.elapsed()
        );
        assert_eq!(lock(&state.handlers).parked, 0);
        assert_eq!(state.handler_exits.load(Ordering::SeqCst), spawns);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Poll `done` until it holds; fail after five seconds.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let asked = Instant::now();
        while !done() {
            assert!(asked.elapsed() < Duration::from_secs(5), "never: {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A connection handed to a parked handler just before `stop`, and
    /// picked up only once shutdown waits for the parked handlers: the
    /// handler that picks it up wakes shutdown, then answers it.
    #[test]
    fn shutdown_returns_when_a_handoff_is_picked_up_during_it() {
        let dir = temp_dir("handoff-stop");
        let handle = start(&ServeOptions::new(dir.clone())).unwrap();
        let state = Arc::clone(&handle.state);
        let addr = handle.addr();
        state.hold_parked.store(true, Ordering::SeqCst);
        let (status, _) = client::request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let mut handed = TcpStream::connect(addr).unwrap();
        handed
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        eventually("the connection is handed off", || {
            lock(&state.handlers).handoff.len() == 1
        });
        let (stopped_tx, stopped) = std::sync::mpsc::channel();
        thread::spawn(move || {
            handle.stop();
            let _ = stopped_tx.send(());
        });
        eventually("shutdown waits for the parked handler", || {
            state.shutdown_waiting.load(Ordering::SeqCst)
        });
        state.hold_parked.store(false, Ordering::SeqCst);
        stopped
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown hung after the handoff was picked up");
        assert_eq!(lock(&state.handlers).parked, 0);
        let mut reply = String::new();
        handed.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `body` with the value of every `*_ns` field replaced by `#`: host
    /// times, the only bytes of a reply that differ from run to run.
    fn mask_ns(body: &str) -> String {
        let mut out = String::new();
        let mut rest = body;
        while let Some(at) = rest.find("_ns\":") {
            let (head, tail) = rest.split_at(at + "_ns\":".len());
            let value = tail.trim_start_matches(' ');
            out.push_str(head);
            out.push_str(&tail[..tail.len() - value.len()]);
            out.push('#');
            rest = value.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out + rest
    }

    /// Every reply shape, in one server's life, byte for byte against
    /// `tests/golden/serve_reply_shapes.txt`: each entry is the request,
    /// the status and the body with `*_ns` values masked. Run 1 stalls in
    /// its worker so it can be seen running and fill the one-slot queue;
    /// run 2 panics; run 3 overruns its cycle budget. The 400 bodies
    /// cover each field reader's error and each op-table error.
    #[test]
    fn every_reply_shape_answers_the_pinned_bytes() {
        let dir = temp_dir("shapes");
        let mut opts = ServeOptions::new(dir.clone());
        opts.queue_capacity = 1;
        opts.quota_memory_words = Some(1_000);
        opts.chaos =
            Some(ChaosPlan::parse(r#"{"panic_on_run":[2],"stall_ms_on_run":[[1,1500]]}"#).unwrap());
        let handle = start(&opts).unwrap();
        let addr = handle.addr();
        let mut transcript = String::new();
        let mut exchange = |method: &str, path: &str, body: Option<&str>| {
            let (status, reply) = client::request(addr, method, path, body).unwrap();
            let sent = body.map_or(String::new(), |b| format!(" {b}"));
            transcript += &format!("{method} {path}{sent}\n{status}\n{}\n\n", mask_ns(&reply));
        };
        let post = |body| ("POST", "/jobs", Some(body));
        let get = |path| ("GET", path, None);

        let (m, p, b) = post(r#"{"nx":8,"ny":8}"#);
        exchange(m, p, b);
        loop {
            let (_, state) = client::request(addr, "GET", "/jobs/1", None).unwrap();
            if state.contains(r#""status":"running""#) {
                break;
            }
            assert!(state.contains(r#""status":"queued""#), "{state}");
            thread::yield_now();
        }
        for (m, p, b) in [get("/jobs/1/result"), post(r#"{"nx":10,"ny":10}"#)] {
            exchange(m, p, b);
        }
        assert_eq!(client::wait_settled(addr, 1).unwrap(), "done");
        let (m, p, b) = post(r#"{"nx":10,"ny":10}"#);
        exchange(m, p, b);
        assert_eq!(client::wait_settled(addr, 2).unwrap(), "failed");
        let budgeted = r#"{"nx":12,"ny":12,"budget":{"max_sim_cycles":10000}}"#;
        for (m, p, b) in [
            get("/jobs/2/result"),
            post(r#"{"nx":10,"ny":10}"#),
            post(budgeted),
        ] {
            exchange(m, p, b);
        }
        assert_eq!(client::wait_settled(addr, 4).unwrap(), "aborted");
        let torus = r#"{"nx":12,"ny":12,"machine":{"clusters":16,"pes_per_cluster":2,"memory_per_cluster":4194304,"topology":{"Torus":{"dims":[3,5]}},"link_latency":20,"words_per_cycle":1,"max_packet_words":256,"header_words":4,"cost":{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,"task_create":120,"context_switch":40},"dedicated_kernel_pe":true,"route_cache":true,"des_queue":"Calendar"}}"#;
        for (m, p, b) in [
            get("/jobs/1"),
            get("/jobs/1/result"),
            get("/jobs/4/result"),
            post(budgeted),
            post(r#"{"ny":8,"nx":8}"#),
            get("/jobs/99"),
            get("/jobs/99/result"),
            get("/nope"),
            get("/jobs/1/bogus"),
            ("DELETE", "/jobs", None),
            post(OVERFLOW),
            post(r#"{"nx":64,"ny":64}"#),
            post(torus),
            post("{nope"),
            post(r#"{"kind":7}"#),
            post(r#"{"kind":null}"#),
            post(r#"{"kind":"wat"}"#),
            post(r#"{"nx":"8","ny":8}"#),
            post(r#"{"nx":8,"ny":8,"tol":"tight"}"#),
            post(r#"{"nx":8,"ny":8,"allow_warnings":1}"#),
            post(r#"{"nx":8,"ny":8,"name":5}"#),
            post(r#"{"nx":8,"ny":8,"seed":-1}"#),
            post(r#"{"nx":8,"ny":8,"tasks":4000000000}"#),
            post(r#"{"nx":8,"ny":8,"budget":{"max_des_events":"x"}}"#),
            post(r#"{"nx":8,"ny":8,"machine":{"clusters":16}}"#),
            post(r#"{"kind":"script","ops":[7]}"#),
            post(r#"{"kind":"script","ops":[{"task":"a"}]}"#),
            post(r#"{"kind":"script","ops":[{"op":"pause"}]}"#),
            post(r#"{"kind":"script","ops":[{"op":"pause","task":null}]}"#),
            post(r#"{"kind":"script","ops":[{"op":"initiate","task":"a","cluster":4294967296}]}"#),
            post(r#"{"kind":"script","ops":[{"op":"initiate","task":"a","replications":"x"}]}"#),
            post(r#"{"kind":"script","ops":[{"op":"alloc","what":"m","words":-1}]}"#),
            post(
                r#"{"kind":"script","ops":[{"op":"message","from":"a","to":"b","kind":"pause"}]}"#,
            ),
            post(r#"{"kind":"script","name":3,"ops":[{"op":"initiate","task":"a"}]}"#),
            get("/jobs"),
            get("/stats"),
            get("/readyz"),
        ] {
            exchange(m, p, b);
        }
        handle.stop();
        fs::remove_dir_all(&dir).unwrap();
        let want = include_str!("../../../tests/golden/serve_reply_shapes.txt");
        if let Some((n, (got, want))) = transcript
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
        {
            panic!(
                "line {}: got\n{got}\nwant\n{want}\nwhole transcript:\n{transcript}",
                n + 1
            );
        }
        assert!(transcript == want, "trailing lines differ:\n{transcript}");
    }
}
