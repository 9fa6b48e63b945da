//! The persistent run registry: one append-only JSONL log, `runs.jsonl`,
//! under the server's `--data-dir`, and nothing else on disk.
//!
//! Layout (schema `fem2-registry/4`, documented in DESIGN.md): one JSON
//! object per line, flushed after every record: completed job runs,
//! `"kind"` `"plate"` or `"script"`. Each records how the run ended
//! (`status` `ok` / `failed` / `aborted`, with the `error` text and, for
//! an abort, the structured `abort_cause`), which is what poison
//! quarantine replays from; only *deterministic* endings quarantine —
//! see `RunRecord::quarantines`. A plate record carries the static
//! cost bounds admission `predicted` for it, so the report site can set
//! them against the actual run. Every record is written with
//! `"shards":1`, a literal of the one engine, and the loader ignores it.
//!
//! Only `fem2-registry/4` run records load. Any other line (a `"bench"`
//! line from before `fem2-serve ingest-bench` was removed, or a record
//! of another schema) is skipped with a warning and left in the log as
//! it is; its `seq` still counts, so appends never reuse one.
//!
//! Crash safety: a torn final line (power loss mid-append) is truncated
//! away on open — before the append handle is created — so every earlier
//! record still loads and the next append starts on a clean line instead
//! of gluing onto the partial one. A malformed *interior* line (hand
//! edits) is skipped with a warning as before. `fem2-serve report` reads
//! the log without opening the registry: it creates nothing, and leaves
//! a torn tail (perhaps a live server's append) in place, unread.

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;

use serde::json::Value;
use serde::Deserialize;

use crate::job::{field, Admitted, JobOutcome, JobSpec, RunStatus};
use crate::util::json_compact;

/// Registry log schema identifier, stamped on every record.
pub(crate) const SCHEMA: &str = "fem2-registry/4";

/// A completed job run, as replayed from the log.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Total order of the record in the log.
    pub(crate) seq: u64,
    /// Content hash of the resolved spec (cache key).
    pub(crate) hash: String,
    /// Display name at first submission.
    pub(crate) name: String,
    /// `"plate"` or `"script"`.
    pub(crate) kind: String,
    /// The resolved spec document.
    pub(crate) spec: Value,
    /// The outcome document (`null` for failed / aborted runs).
    pub(crate) outcome: Value,
    /// Wall-clock execution time, nanoseconds.
    pub(crate) wall_ns: u64,
    /// How the run ended.
    pub status: RunStatus,
    /// Failure or abort detail for non-`ok` runs.
    pub error: Option<String>,
    /// Structured abort cause for `aborted` runs (`cycles_exceeded`,
    /// `events_exceeded`, `wall_deadline`, `unreachable`,
    /// `memory_exhausted`).
    pub(crate) abort_cause: Option<String>,
    /// Static cost bounds predicted at admission (plate runs with a
    /// bounded verdict only): an object with `sim_cycles`,
    /// `des_events`, `messages`, and `peak_memory_words`.
    pub(crate) predicted: Option<Value>,
}

/// Field `name` of a stored document; absent or of another type reads
/// as `None`.
pub(crate) fn read<T: Deserialize>(v: &Value, name: &str) -> Option<T> {
    field(v, name).ok().flatten()
}

impl RunRecord {
    /// Whether this record poisons its content hash: only *deterministic*
    /// endings quarantine. A panic or a cycle/event-budget abort is a
    /// property of the spec and will repeat identically; a wall-deadline
    /// abort is a host fact — and `wall_ms` is deliberately
    /// hash-neutral, so quarantining it would poison the unbudgeted spec
    /// for every tenant. Those re-run instead of replaying.
    pub(crate) fn quarantines(&self) -> bool {
        match self.status {
            RunStatus::Ok => false,
            RunStatus::Failed => true,
            RunStatus::Aborted => matches!(
                self.abort_cause.as_deref(),
                Some("cycles_exceeded" | "events_exceeded")
            ),
        }
    }

    /// The run record on a `fem2-registry/4` line, if it has every field.
    fn from_line(v: &Value, seq: u64) -> Option<RunRecord> {
        Some(RunRecord {
            seq,
            hash: read(v, "hash")?,
            name: read(v, "name")?,
            kind: read(v, "kind")?,
            spec: read(v, "spec")?,
            outcome: read(v, "outcome")?,
            wall_ns: read(v, "wall_ns")?,
            status: RunStatus::parse(&read::<String>(v, "status")?)?,
            error: read(v, "error"),
            abort_cause: read(v, "abort_cause"),
            predicted: read(v, "predicted").filter(|p| matches!(p, Value::Obj(_))),
        })
    }

    /// The log line of this record, fields in wire order.
    fn to_line(&self) -> Value {
        doc! {
            "schema": SCHEMA,
            "kind": self.kind,
            "seq": self.seq,
            "hash": self.hash,
            "name": self.name,
            "spec": self.spec,
            "outcome": self.outcome,
            "wall_ns": self.wall_ns,
            "status": self.status.name(),
            // One engine; the field leaves with the revision ROADMAP 2(c) cuts.
            "shards": 1,
            "error"?: self.error.as_ref(),
            "abort_cause"?: self.abort_cause.as_ref(),
            "predicted"?: self.predicted.as_ref(),
        }
    }
}

/// The registry: in-memory replay of the log plus the open append handle.
pub struct Registry {
    log: File,
    runs: Vec<RunRecord>,
    /// Above every `seq` in the log; `None` once one is `u64::MAX`, after
    /// which every append fails rather than reuse a `seq`.
    next_seq: Option<u64>,
    /// Appends attempted so far (1-based counter for fault injection).
    writes: u64,
    /// Chaos hook: append indices (1-based) that fail with a simulated
    /// IO error instead of writing. Each index fires at most once.
    fail_writes: Vec<u64>,
    /// Hashes whose *latest* record quarantines, maintained incrementally
    /// on load and append so `quarantine_size` is O(1) per probe.
    poisoned: BTreeSet<String>,
}

/// Length of the complete lines in `bytes`: a torn trailing record (no
/// final newline) left by a crash mid-append is not counted.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
}

/// Truncate a torn trailing record, so the next append starts on a fresh
/// line, and return the length of the complete lines in `bytes`, which
/// are never touched.
fn repair_torn_tail(log_path: &Path, bytes: &[u8]) -> Result<usize, String> {
    let keep = complete_len(bytes);
    if keep == bytes.len() {
        return Ok(keep);
    }
    let f = OpenOptions::new()
        .write(true)
        .open(log_path)
        .map_err(|e| format!("open {}: {e}", log_path.display()))?;
    f.set_len(keep as u64)
        .map_err(|e| format!("truncate {}: {e}", log_path.display()))?;
    eprintln!(
        "fem2-serve: truncated {} torn trailing bytes in {}",
        bytes.len() - keep,
        log_path.display()
    );
    Ok(keep)
}

/// Replay the complete lines `lines` of the log at `log_path` (named in
/// warnings): the run records they hold, and the next free `seq` (`None`
/// once `u64::MAX` is taken).
fn replay(log_path: &Path, lines: &[u8]) -> (Vec<RunRecord>, Option<u64>) {
    let mut runs = Vec::new();
    let mut next_seq = Some(0u64);
    for (lineno, line) in lines.split(|&b| b == b'\n').enumerate() {
        if line.trim_ascii().is_empty() {
            continue;
        }
        // Bytes that are not UTF-8 are one more way for a line to
        // be malformed, not a reason to refuse the whole log.
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|l| serde_json::parse_value(l).ok());
        let Some(v) = parsed else {
            // A line torn by a crash mid-append, or damaged on
            // disk. Every other line is intact; keep going so
            // neither bricks the registry.
            eprintln!(
                "fem2-serve: skipping malformed registry line {} in {}",
                lineno + 1,
                log_path.display()
            );
            continue;
        };
        // Every parsed line owns its `seq`, whether or not it is
        // loaded below: the next append must not reuse the `seq`
        // of a line this build skips.
        let seq = read(&v, "seq").or(next_seq).unwrap_or(u64::MAX);
        next_seq = next_seq.zip(seq.checked_add(1)).map(|(n, s)| n.max(s));
        let run = matches!(
            read::<String>(&v, "kind").as_deref(),
            Some("plate" | "script")
        );
        if !run || read::<String>(&v, "schema").as_deref() != Some(SCHEMA) {
            eprintln!(
                "fem2-serve: skipping unknown registry record at line {}",
                lineno + 1
            );
            continue;
        }
        match RunRecord::from_line(&v, seq) {
            Some(rec) => runs.push(rec),
            None => eprintln!(
                "fem2-serve: skipping incomplete run record at line {}",
                lineno + 1
            ),
        }
    }
    (runs, next_seq)
}

/// The run records of the registry under `dir`, read without writing:
/// nothing is created, and a torn trailing record (perhaps one a live
/// server is still appending) is left out, not truncated. A missing
/// directory or log is an error that names the path.
pub(crate) fn read_runs(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let log_path = dir.join("runs.jsonl");
    let bytes = fs::read(&log_path).map_err(|e| format!("read {}: {e}", log_path.display()))?;
    Ok(replay(&log_path, &bytes[..complete_len(&bytes)]).0)
}

impl Registry {
    /// Open (creating if absent) the registry under `dir`, replaying the
    /// log into memory.
    pub fn open(dir: &Path) -> Result<Registry, String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log_path = dir.join("runs.jsonl");
        let bytes = if log_path.exists() {
            fs::read(&log_path).map_err(|e| format!("read {}: {e}", log_path.display()))?
        } else {
            Vec::new()
        };
        let complete = repair_torn_tail(&log_path, &bytes)?;
        let (runs, next_seq) = replay(&log_path, &bytes[..complete]);
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("append {}: {e}", log_path.display()))?;
        let mut poisoned = BTreeSet::new();
        for r in &runs {
            if r.quarantines() {
                poisoned.insert(r.hash.clone());
            } else {
                poisoned.remove(&r.hash);
            }
        }
        Ok(Registry {
            log,
            runs,
            next_seq,
            writes: 0,
            fail_writes: Vec::new(),
            poisoned,
        })
    }

    /// The cached run for `hash`, if one was ever recorded. The *latest*
    /// record wins: a hash that failed once and was later re-run
    /// successfully (or vice versa) replays its most recent fate.
    pub fn lookup(&self, hash: &str) -> Option<&RunRecord> {
        self.runs.iter().rev().find(|r| r.hash == hash)
    }

    /// The latest *successful* run for `hash`, if any — what submission
    /// serves when the latest record overall is a non-quarantining abort
    /// (a wall deadline) that a completed run already answered.
    pub(crate) fn lookup_ok(&self, hash: &str) -> Option<&RunRecord> {
        self.runs
            .iter()
            .rev()
            .find(|r| r.hash == hash && r.status.is_ok())
    }

    /// Number of quarantined specs: distinct hashes whose latest record
    /// [`quarantines`](RunRecord::quarantines). Re-submissions of these
    /// replay the recorded failure instead of burning a worker.
    pub(crate) fn quarantine_size(&self) -> usize {
        self.poisoned.len()
    }

    /// Chaos hook: make the given append attempts (1-based, counted over
    /// the registry's lifetime) fail with a simulated IO error. Used by
    /// the fault-injection harness to exercise the server's registry
    /// retry and failure paths; each listed index fires at most once.
    pub(crate) fn inject_write_errors(&mut self, appends: Vec<u64>) {
        self.fail_writes = appends;
    }

    /// All job runs, in log order.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[RunRecord] {
        &self.runs
    }

    /// Number of job runs recorded.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Record a successfully completed job run: append to the log
    /// (flushed before returning).
    pub fn record_run(
        &mut self,
        spec: &JobSpec,
        outcome: &JobOutcome,
        wall_ns: u64,
    ) -> Result<&RunRecord, String> {
        self.record_result(spec, RunStatus::Ok, Some(outcome), None, None, wall_ns)
    }

    /// Record how a supervised job run ended — success, failure, or
    /// budget abort. Non-`ok` records persist with a `null` outcome and
    /// the failure detail in `error`; aborted records additionally carry
    /// the structured `abort_cause`, which decides whether poison
    /// quarantine replays them to later submitters of the same spec.
    pub(crate) fn record_result(
        &mut self,
        spec: &JobSpec,
        status: RunStatus,
        outcome: Option<&JobOutcome>,
        error: Option<&str>,
        abort_cause: Option<&str>,
        wall_ns: u64,
    ) -> Result<&RunRecord, String> {
        self.record(
            &mut Admitted::new(spec.clone()),
            status,
            outcome,
            error,
            abort_cause,
            wall_ns,
        )
    }

    /// [`record_result`](Self::record_result) for a job the server
    /// admitted: the record takes the hash computed at admission and the
    /// cost report whichever station computed first, instead of deriving
    /// both from the spec again.
    pub(crate) fn record(
        &mut self,
        job: &mut Admitted,
        status: RunStatus,
        outcome: Option<&JobOutcome>,
        error: Option<&str>,
        abort_cause: Option<&str>,
        wall_ns: u64,
    ) -> Result<&RunRecord, String> {
        let seq = self
            .next_seq
            .ok_or("append runs.jsonl: every seq is taken (the log holds u64::MAX)")?;
        // Stamp plate records with the static cost bounds admission
        // predicted, so the report site can set them against the actual
        // run. Scripts never simulate, so a prediction would have nothing
        // to be compared against.
        let predicted = match job.spec {
            JobSpec::Plate(_) => {
                let cost = job.cost();
                cost.is_bounded().then(|| {
                    doc! {
                        "sim_cycles": cost.sim_cycles,
                        "des_events": cost.des_events,
                        "messages": cost.messages,
                        "peak_memory_words": cost.peak_memory_words,
                    }
                })
            }
            JobSpec::Script(_) => None,
        };
        let spec = &job.spec;
        let rec = RunRecord {
            seq,
            hash: job.hash.clone(),
            name: spec.name().to_string(),
            kind: spec.kind().to_string(),
            spec: spec.to_value(),
            outcome: outcome.map_or(Value::Null, |o| o.value.clone()),
            wall_ns,
            status,
            error: error.map(str::to_string),
            abort_cause: abort_cause.map(str::to_string),
            predicted,
        };
        self.append_line(&rec.to_line())?;
        if rec.quarantines() {
            self.poisoned.insert(rec.hash.clone());
        } else {
            self.poisoned.remove(&rec.hash);
        }
        self.next_seq = seq.checked_add(1);
        self.runs.push(rec);
        Ok(self.runs.last().expect("just pushed"))
    }

    fn append_line(&mut self, doc: &Value) -> Result<(), String> {
        self.writes += 1;
        if let Some(pos) = self.fail_writes.iter().position(|&w| w == self.writes) {
            self.fail_writes.swap_remove(pos);
            return Err(format!(
                "append runs.jsonl: injected write error (append #{})",
                self.writes
            ));
        }
        let mut line = json_compact(doc);
        line.push('\n');
        self.log
            .write_all(line.as_bytes())
            .and_then(|()| self.log.flush())
            .map_err(|e| format!("append runs.jsonl: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fem2-serve-registry-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_spec() -> JobSpec {
        JobSpec::parse(r#"{"nx":12,"ny":12,"name":"sample"}"#).unwrap()
    }

    #[test]
    fn records_persist_across_reopen() {
        let dir = temp_dir("reopen");
        let spec = sample_spec();
        let outcome = spec.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            assert_eq!(reg.run_count(), 0);
            reg.record_run(&spec, &outcome, 1234).unwrap();
            assert_eq!(reg.run_count(), 1);
        }
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.run_count(), 1);
        let rec = reg.lookup(&spec.content_hash()).expect("cached run");
        assert_eq!(rec.name, "sample");
        assert_eq!(rec.kind, "plate");
        assert_eq!(rec.wall_ns, 1234);
        // The replayed spec re-parses to the same hash.
        let replayed = JobSpec::from_value(&rec.spec).unwrap();
        assert_eq!(replayed.content_hash(), spec.content_hash());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let spec = sample_spec();
        let outcome = spec.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &outcome, 1).unwrap();
        }
        // Simulate a crash mid-append: a half-written JSON line.
        let log = dir.join("runs.jsonl");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(b"{\"schema\":\"fem2-registry/1\",\"kind\":\"plate\",\"se")
            .unwrap();
        drop(f);
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.run_count(), 1, "intact record survives the tear");
        assert!(reg.lookup(&spec.content_hash()).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A data dir written before `ingest-bench` was removed: `run(0),
    /// bench(1), bench(2)`. The bench lines are not loaded, keep their
    /// bytes, and keep their `seq`s.
    #[test]
    fn seq_is_total_and_monotone_across_kinds() {
        let dir = temp_dir("seq");
        let spec = sample_spec();
        let outcome = spec.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            assert_eq!(reg.record_run(&spec, &outcome, 1).unwrap().seq, 0);
        }
        let bench = |seq: u64| {
            format!(
                "{{\"schema\":\"fem2-registry/4\",\"kind\":\"bench\",\"seq\":{seq},\
                 \"name\":\"ws_torus_32\",\"commit\":\"unknown\",\
                 \"plan_hash\":\"7edc3053a715e4a5\",\
                 \"params\":\"route_cache=on des_queue=calendar repeat=1 threads=2\",\
                 \"wall_ns\":18961,\"sim_cycles\":1444,\"events_per_sec\":5062490.0}}\n"
            )
        };
        let log = dir.join("runs.jsonl");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all((bench(1) + &bench(2)).as_bytes()).unwrap();
        drop(f);
        let before = fs::read_to_string(&log).unwrap();
        let mut reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.run_count(), 1, "the run is served");
        assert!(reg.lookup(&spec.content_hash()).is_some());
        let spec2 = JobSpec::parse(r#"{"nx":14,"ny":14}"#).unwrap();
        let outcome2 = spec2.execute();
        let rec = reg.record_run(&spec2, &outcome2, 2).unwrap();
        assert_eq!(rec.seq, 3, "above every seq in the log, loaded or not");
        drop(reg);
        let after = fs::read_to_string(&log).unwrap();
        assert!(
            after.starts_with(&before),
            "append-only: old lines untouched"
        );
        assert_eq!(after.lines().count(), 4);
        // And reopen keeps counting from the max.
        let mut reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.run_count(), 2);
        let spec3 = JobSpec::parse(r#"{"nx":10,"ny":10}"#).unwrap();
        let outcome3 = spec3.execute();
        assert_eq!(reg.record_run(&spec3, &outcome3, 3).unwrap().seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A damaged line carrying `u64::MAX - 1` leaves one fresh `seq`, and
    /// one carrying `u64::MAX` none: past that, an append fails like an IO
    /// error and writes nothing, rather than reuse a `seq` or overflow.
    #[test]
    fn a_seq_near_u64_max_is_never_reused_and_never_panics() {
        let spec = sample_spec();
        let outcome = spec.execute();
        for last in [u64::MAX - 1, u64::MAX] {
            let dir = temp_dir("seq-max");
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &outcome, 1).unwrap();
            drop(reg);
            let log = dir.join("runs.jsonl");
            let mut f = OpenOptions::new().append(true).open(&log).unwrap();
            writeln!(f, "{{\"kind\":\"bench\",\"seq\":{last}}}").unwrap();
            drop(f);
            let mut reg = Registry::open(&dir).unwrap();
            let appended = [(); 2].map(|()| reg.record_run(&spec, &outcome, 2).is_ok());
            assert_eq!(appended, [last < u64::MAX, false], "seq {last}");
            drop(reg);
            let seqs: Vec<u64> = fs::read_to_string(&log)
                .unwrap()
                .lines()
                .map(|l| {
                    let v = serde_json::parse_value(l).unwrap();
                    v.get_field("seq").and_then(u64::from_value).unwrap()
                })
                .collect();
            let distinct: BTreeSet<u64> = seqs.iter().copied().collect();
            assert_eq!(seqs.len(), 2 + usize::from(last < u64::MAX), "{seqs:?}");
            assert_eq!(distinct.len(), seqs.len(), "a seq was reused: {seqs:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rev3_plate_records_persist_sound_predicted_bounds() {
        let dir = temp_dir("predicted");
        let spec = sample_spec();
        let outcome = spec.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &outcome, 1).unwrap();
        }
        // The prediction survives the reopen replay.
        let reg = Registry::open(&dir).unwrap();
        let rec = reg.lookup(&spec.content_hash()).unwrap();
        let pred = rec.predicted.as_ref().expect("plate runs carry bounds");
        let bound = pred
            .get_field("sim_cycles")
            .and_then(u64::from_value)
            .expect("predicted cycles");
        let actual = rec
            .outcome
            .get_field("sim_cycles")
            .and_then(u64::from_value)
            .expect("actual cycles");
        assert!(bound >= actual, "bound {bound} < actual {actual}");
        assert!(matches!(pred.get_field("des_events"), Ok(Value::UInt(_))));
        assert!(matches!(
            pred.get_field("peak_memory_words"),
            Ok(Value::UInt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A plate record of registry revision `rev`, written by hand; `tail`
    /// follows its `wall_ns`.
    fn plate_line(rev: u32, seq: u64, spec: &JobSpec, tail: &str) -> String {
        format!(
            "{{\"schema\":\"fem2-registry/{rev}\",\"kind\":\"plate\",\"seq\":{seq},\
             \"hash\":\"{}\",\"name\":\"old\",\"spec\":{},\"outcome\":{{\"kind\":\"plate\"}},\
             \"wall_ns\":5{tail}}}\n",
            spec.content_hash(),
            json_compact(&spec.to_value()),
        )
    }

    /// The `shards` field of a rev-4 record is a written literal and an
    /// ignored input: logs written by servers that ran sharded still load.
    #[test]
    fn rev4_records_write_shards_one_and_load_whatever_they_carry() {
        let dir = temp_dir("shards");
        let spec = sample_spec();
        let outcome = spec.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &outcome, 7).unwrap();
        }
        let log = fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        assert!(log.contains("\"status\":\"ok\",\"shards\":1"), "{log}");
        let sharded = plate_line(4, 0, &spec, ",\"status\":\"ok\",\"shards\":4");
        fs::write(dir.join("runs.jsonl"), sharded).unwrap();
        let reg = Registry::open(&dir).unwrap();
        let rec = reg.lookup(&spec.content_hash()).expect("record loads");
        assert_eq!(rec.status, RunStatus::Ok);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One revision loads. A rev-1 line (no `status`), a rev-2 line (its
    /// abort cause only in the error text) and a rev-3 line (no `shards`)
    /// are each skipped and left in the log; the rev-4 lines around them
    /// load; and the next append's `seq` is above every skipped line's.
    #[test]
    fn older_revisions_are_skipped_and_keep_their_seqs() {
        let dir = temp_dir("old-revs");
        let spec = sample_spec();
        let other = JobSpec::parse(r#"{"nx":14,"ny":14}"#).unwrap();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &spec.execute(), 1).unwrap();
        }
        let aborted = ",\"status\":\"aborted\",\
                       \"error\":\"run aborted (cycles_exceeded) at 9 sim cycles, 0 DES events\"";
        let lines = [
            plate_line(1, 7, &other, ""),
            plate_line(2, 9, &other, aborted),
            plate_line(3, 8, &other, ",\"status\":\"ok\""),
            plate_line(4, 1, &other, ",\"status\":\"ok\",\"shards\":1"),
        ];
        let log = dir.join("runs.jsonl");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(lines.concat().as_bytes()).unwrap();
        drop(f);
        let before = fs::read_to_string(&log).unwrap();
        let mut reg = Registry::open(&dir).unwrap();
        let seqs: Vec<u64> = reg.runs().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1], "only the rev-4 lines load");
        let rec = reg.lookup(&other.content_hash()).expect("rev-4 line loads");
        assert_eq!(rec.status, RunStatus::Ok);
        assert_eq!(reg.quarantine_size(), 0, "the rev-2 abort is not replayed");
        let third = JobSpec::parse(r#"{"nx":10,"ny":10}"#).unwrap();
        let appended = reg.record_run(&third, &third.execute(), 3).unwrap().seq;
        assert_eq!(appended, 10, "above every skipped line's seq");
        drop(reg);
        let after = fs::read_to_string(&log).unwrap();
        assert!(after.starts_with(&before), "skipped lines stay as written");
        assert_eq!(Registry::open(&dir).unwrap().run_count(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn carried_and_recomputing_paths_write_the_same_bytes() {
        let plate = sample_spec();
        let outcome = plate.execute();
        let capped =
            JobSpec::parse(r#"{"nx":12,"ny":12,"budget":{"max_sim_cycles":10000}}"#).unwrap();
        let script = JobSpec::parse(
            r#"{"kind":"script","ops":[
                {"op":"initiate","task":"a"},{"op":"terminate","task":"a"}]}"#,
        )
        .unwrap();
        let script_outcome = script.execute();
        let abort = "run aborted (cycles_exceeded) at 10020 sim cycles, 0 DES events";
        type Call<'a> = (
            &'a JobSpec,
            RunStatus,
            Option<&'a JobOutcome>,
            Option<&'a str>,
            Option<&'a str>,
            u64,
        );
        let calls: [Call; 5] = [
            (&plate, RunStatus::Ok, Some(&outcome), None, None, 11),
            (
                &capped,
                RunStatus::Aborted,
                None,
                Some(abort),
                Some("cycles_exceeded"),
                12,
            ),
            (
                &script,
                RunStatus::Ok,
                Some(&script_outcome),
                None,
                None,
                13,
            ),
            (
                &plate,
                RunStatus::Failed,
                None,
                Some("job panicked: boom"),
                None,
                14,
            ),
            (&plate, RunStatus::Ok, Some(&outcome), None, None, 15),
        ];
        // What the server does: one `Admitted` per job, its cost report
        // filled before the record is built (or never, for a script).
        let carried = temp_dir("bytes-carried");
        let mut reg = Registry::open(&carried).unwrap();
        for (spec, status, outcome, error, cause, wall_ns) in calls {
            let mut job = Admitted::new(spec.clone());
            job.effective_budget();
            reg.record(&mut job, status, outcome, error, cause, wall_ns)
                .unwrap();
        }
        drop(reg);
        // The public entry points, which derive hash and cost again.
        let recomputed = temp_dir("bytes-recomputed");
        let mut reg = Registry::open(&recomputed).unwrap();
        for (i, (spec, status, outcome, error, cause, wall_ns)) in calls.into_iter().enumerate() {
            if i == 4 {
                reg.record_run(spec, outcome.unwrap(), wall_ns).unwrap();
            } else {
                reg.record_result(spec, status, outcome, error, cause, wall_ns)
                    .unwrap();
            }
        }
        drop(reg);
        let log = fs::read_to_string(carried.join("runs.jsonl")).unwrap();
        assert_eq!(
            log,
            fs::read_to_string(recomputed.join("runs.jsonl")).unwrap()
        );
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(
            lines[0].contains("\"predicted\":{\"sim_cycles\":"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"abort_cause\":\"cycles_exceeded\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"predicted\":"), "{}", lines[1]);
        assert!(!lines[2].contains("\"predicted\""), "{}", lines[2]);
        fs::remove_dir_all(&carried).unwrap();
        fs::remove_dir_all(&recomputed).unwrap();
    }

    /// One record of each kind, written through `record_result` with a
    /// fixed `wall_ns`, against `tests/golden/registry_lines.jsonl` byte
    /// for byte: an ok plate with `predicted`, a failed plate, an aborted
    /// plate with `abort_cause`, and an ok script.
    #[test]
    fn every_record_kind_writes_the_pinned_bytes() {
        let dir = temp_dir("golden");
        let plate = sample_spec();
        let outcome = plate.execute();
        let capped =
            JobSpec::parse(r#"{"nx":12,"ny":12,"budget":{"max_sim_cycles":10000}}"#).unwrap();
        let script = JobSpec::parse(
            r#"{"kind":"script","ops":[
                {"op":"initiate","task":"a"},{"op":"terminate","task":"a"}]}"#,
        )
        .unwrap();
        let script_outcome = script.execute();
        let mut reg = Registry::open(&dir).unwrap();
        reg.record_result(&plate, RunStatus::Ok, Some(&outcome), None, None, 1000)
            .unwrap();
        reg.record_result(
            &plate,
            RunStatus::Failed,
            None,
            Some("job panicked: boom"),
            None,
            2000,
        )
        .unwrap();
        reg.record_result(
            &capped,
            RunStatus::Aborted,
            None,
            Some("run aborted (cycles_exceeded) at 10020 sim cycles, 0 DES events"),
            Some("cycles_exceeded"),
            3000,
        )
        .unwrap();
        reg.record_result(
            &script,
            RunStatus::Ok,
            Some(&script_outcome),
            None,
            None,
            4000,
        )
        .unwrap();
        drop(reg);
        let log = fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let want = include_str!("../../../tests/golden/registry_lines.jsonl");
        assert!(log == want, "runs.jsonl drifted from the golden:\n{log}");
    }

    #[test]
    fn failure_records_persist_and_latest_record_wins() {
        let dir = temp_dir("failrec");
        let spec = sample_spec();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_result(
                &spec,
                RunStatus::Failed,
                None,
                Some("scenario panicked"),
                None,
                7,
            )
            .unwrap();
        }
        let mut reg = Registry::open(&dir).unwrap();
        let rec = reg.lookup(&spec.content_hash()).expect("failure cached");
        assert_eq!(rec.status, RunStatus::Failed);
        assert_eq!(rec.error.as_deref(), Some("scenario panicked"));
        assert_eq!(rec.outcome, Value::Null);
        assert_eq!(reg.quarantine_size(), 1);
        // A later successful run of the same spec supersedes the failure.
        let outcome = spec.execute();
        reg.record_run(&spec, &outcome, 9).unwrap();
        let rec = reg.lookup(&spec.content_hash()).unwrap();
        assert_eq!(rec.status, RunStatus::Ok);
        assert_eq!(reg.quarantine_size(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn operational_aborts_do_not_quarantine_but_deterministic_ones_do() {
        let dir = temp_dir("causes");
        let spec = sample_spec();
        {
            let mut reg = Registry::open(&dir).unwrap();
            // A wall-deadline abort is a host fact, not a spec fact — and
            // wall_ms is hash-neutral, so quarantining it would poison the
            // unbudgeted spec for everyone.
            reg.record_result(
                &spec,
                RunStatus::Aborted,
                None,
                Some("run aborted (wall_deadline) at 10 sim cycles, 0 DES events"),
                Some("wall_deadline"),
                5,
            )
            .unwrap();
            assert!(!reg.lookup(&spec.content_hash()).unwrap().quarantines());
            assert_eq!(reg.quarantine_size(), 0);
        }
        // Survives reload the same way.
        let mut reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.quarantine_size(), 0);
        assert!(!reg.lookup(&spec.content_hash()).unwrap().quarantines());
        // A cycle-budget abort is deterministic and does quarantine.
        reg.record_result(
            &spec,
            RunStatus::Aborted,
            None,
            Some("run aborted (cycles_exceeded) at 101 sim cycles, 7 DES events"),
            Some("cycles_exceeded"),
            5,
        )
        .unwrap();
        assert!(reg.lookup(&spec.content_hash()).unwrap().quarantines());
        assert_eq!(reg.quarantine_size(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_ok_skips_trailing_aborts() {
        let dir = temp_dir("lookup-ok");
        let spec = sample_spec();
        let outcome = spec.execute();
        let mut reg = Registry::open(&dir).unwrap();
        assert!(reg.lookup_ok(&spec.content_hash()).is_none());
        reg.record_run(&spec, &outcome, 11).unwrap();
        reg.record_result(
            &spec,
            RunStatus::Aborted,
            None,
            Some("run aborted (wall_deadline) at 2 sim cycles, 0 DES events"),
            Some("wall_deadline"),
            3,
        )
        .unwrap();
        // lookup sees the latest (abort); lookup_ok still finds the run.
        assert_eq!(
            reg.lookup(&spec.content_hash()).unwrap().status,
            RunStatus::Aborted
        );
        let ok = reg.lookup_ok(&spec.content_hash()).expect("ok record kept");
        assert_eq!(ok.status, RunStatus::Ok);
        assert_eq!(ok.wall_ns, 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_so_appends_do_not_glue() {
        let dir = temp_dir("glue");
        let spec = sample_spec();
        let outcome = spec.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            reg.record_run(&spec, &outcome, 1).unwrap();
        }
        let log = dir.join("runs.jsonl");
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(b"{\"schema\":\"fem2-registry/2\",\"kind\":\"pla")
            .unwrap();
        drop(f);
        // Reopen repairs the tail, then a fresh append lands on its own
        // line — before the fix it glued onto the partial record and both
        // were lost on the next replay.
        let spec2 = JobSpec::parse(r#"{"nx":14,"ny":14}"#).unwrap();
        let outcome2 = spec2.execute();
        {
            let mut reg = Registry::open(&dir).unwrap();
            assert_eq!(reg.run_count(), 1);
            reg.record_run(&spec2, &outcome2, 2).unwrap();
        }
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.run_count(), 2, "post-tear append survives replay");
        assert!(reg.lookup(&spec2.content_hash()).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_errors_fire_once_and_leave_the_log_clean() {
        let dir = temp_dir("inject");
        let spec = sample_spec();
        let outcome = spec.execute();
        let mut reg = Registry::open(&dir).unwrap();
        reg.inject_write_errors(vec![1]);
        let err = reg.record_run(&spec, &outcome, 1).expect_err("injected");
        assert!(err.contains("injected write error"), "{err}");
        assert_eq!(reg.run_count(), 0, "failed append records nothing");
        // The same append retried succeeds (the injection is consumed).
        reg.record_run(&spec, &outcome, 1).unwrap();
        drop(reg);
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.run_count(), 1, "log holds exactly the real append");
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        /// Crash-recovery invariant: truncating the log at *any* byte
        /// offset loses at most the torn record. Every record wholly
        /// before the cut replays; no partial record is ever yielded; and
        /// the repaired log accepts appends cleanly.
        #[test]
        fn torn_tail_recovery_at_any_offset(cut_back in 0usize..400, runs in 2usize..8) {
            let dir = temp_dir("prop-torn");
            let specs: Vec<JobSpec> = (0..runs)
                .map(|i| {
                    JobSpec::parse(&format!("{{\"nx\":4,\"ny\":4,\"seed\":{i}}}")).unwrap()
                })
                .collect();
            let outcome = JobOutcome { value: Value::Obj(vec![("kind".into(), Value::Str("plate".into()))]) };
            let mut line_ends = Vec::new();
            {
                let mut reg = Registry::open(&dir).unwrap();
                for spec in &specs {
                    reg.record_run(spec, &outcome, 1).unwrap();
                    line_ends.push(fs::metadata(dir.join("runs.jsonl")).unwrap().len());
                }
            }
            let log = dir.join("runs.jsonl");
            let full = fs::metadata(&log).unwrap().len();
            let cut = full.saturating_sub(cut_back as u64);
            OpenOptions::new().write(true).open(&log).unwrap().set_len(cut).unwrap();
            // Records wholly before the cut must all survive.
            let complete = line_ends.iter().filter(|&&e| e <= cut).count();
            let reg = Registry::open(&dir).unwrap();
            proptest::prop_assert_eq!(reg.run_count(), complete, "cut at {} of {}", cut, full);
            for spec in specs.iter().take(complete) {
                proptest::prop_assert!(reg.lookup(&spec.content_hash()).is_some());
            }
            // And the repaired log accepts a fresh append that survives.
            drop(reg);
            let extra = JobSpec::parse(r#"{"nx":4,"ny":4,"seed":999}"#).unwrap();
            {
                let mut reg = Registry::open(&dir).unwrap();
                reg.record_run(&extra, &outcome, 1).unwrap();
            }
            let reg = Registry::open(&dir).unwrap();
            proptest::prop_assert_eq!(reg.run_count(), complete + 1);
            proptest::prop_assert!(reg.lookup(&extra.content_hash()).is_some());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Damage anywhere, not only at the tail: 1–8 arbitrary bytes
        /// written over any offset of the log. The registry opens, every
        /// line the damage missed is loaded, and the next append's `seq`
        /// is above every `seq` still legible.
        #[test]
        fn overwritten_bytes_at_any_offset_never_brick_the_registry(
            runs in 2usize..9,
            at in 0usize..100_000,
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..9),
        ) {
            let dir = temp_dir("prop-overwrite");
            let outcome = JobOutcome { value: Value::Obj(vec![("kind".into(), Value::Str("plate".into()))]) };
            {
                let mut reg = Registry::open(&dir).unwrap();
                for i in 0..runs {
                    let spec = JobSpec::parse(&format!("{{\"nx\":4,\"ny\":4,\"seed\":{i}}}")).unwrap();
                    reg.record_run(&spec, &outcome, 1).unwrap();
                }
            }
            let log = dir.join("runs.jsonl");
            let clean_log = fs::read(&log).unwrap();
            let mut bytes = clean_log.clone();
            let at = at % bytes.len();
            let end = (at + junk.len()).min(bytes.len());
            bytes[at..end].copy_from_slice(&junk[..end - at]);
            fs::write(&log, &bytes).unwrap();

            let mut reg = Registry::open(&dir).unwrap();
            // Whole lines the damage missed (the piece after the last
            // newline is empty or torn, and is truncated away).
            let clean_lines: Vec<&[u8]> = clean_log.split(|&b| b == b'\n').collect();
            let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            pieces.pop();
            let mut legible_seq = 0;
            for piece in pieces {
                let v = std::str::from_utf8(piece).ok().and_then(|l| serde_json::parse_value(l).ok());
                let Some(seq) = v.as_ref().and_then(|v| v.get_field("seq").and_then(u64::from_value).ok()) else { continue };
                legible_seq = legible_seq.max(seq);
                if clean_lines.contains(&piece) {
                    proptest::prop_assert!(reg.runs().iter().any(|r| r.seq == seq), "intact line seq {} not loaded", seq);
                }
            }
            let extra = JobSpec::parse(r#"{"nx":4,"ny":4,"seed":999}"#).unwrap();
            let appended = reg.record_run(&extra, &outcome, 1).unwrap().seq;
            proptest::prop_assert!(appended > legible_seq, "seq {} reused (log holds {})", appended, legible_seq);
            let loaded = reg.run_count();
            drop(reg);
            proptest::prop_assert_eq!(Registry::open(&dir).unwrap().run_count(), loaded);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
