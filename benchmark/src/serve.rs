//! `serve_mix`: one request from HTTP accept to registry append. A closed
//! loop — one client that waits for each reply, as `submit --wait` does —
//! sends 400 requests to an in-process `fem2_serve::start`: 30 % cold
//! runs, 60 % cache hits, 10 % refusals, one TCP connection each.

use crate::harness::{diff, push_fields, Digest, Layers, Rep, Workload};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use fem2_core::verify::scenario_script;
use fem2_serve::{client, JobSpec, Registry, ServeOptions, ServerHandle};
use serde::json::Value;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cold plates by grid side. Unequal shares keep `op_p90_ms` of the mix
/// inside the 32-point class instead of on a class boundary.
const COLD: [(usize, usize); 3] = [(24, 48), (32, 48), (40, 24)];
const HITS: usize = 240;
const OVERFLOWS: usize = 20;
const MALFORMED: usize = 20;
/// The client re-reads a running job's status this often.
const POLL: Duration = Duration::from_micros(200);
/// A cold request that is not done by then has failed.
const COLD_DEADLINE: Duration = Duration::from_secs(30);

#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    Cold,
    /// Re-submission of the cold request at this index, keys permuted.
    Hit(usize),
    /// A plate whose vectors overflow cluster memory: 422 from the gate.
    Overflow,
    /// Truncated JSON: 400.
    Malformed,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    kind: Kind,
    body: String,
}

fn plate_body(rng: &mut Rng, name: &str, n: usize, seed: u64, permute: bool) -> String {
    let mut fields = [
        format!("\"name\":\"{name}\""),
        format!("\"nx\":{n}"),
        format!("\"ny\":{n}"),
        format!("\"seed\":{seed}"),
    ];
    if permute {
        rng.shuffle(&mut fields);
    }
    format!("{{{}}}", fields.join(","))
}

/// The seeded request stream. The first request is cold; every hit
/// re-submits a cold request that precedes it.
pub fn requests(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut sides: Vec<usize> = COLD
        .iter()
        .flat_map(|&(n, count)| std::iter::repeat_n(n, count))
        .collect();
    rng.shuffle(&mut sides);
    let mut kinds = vec![Kind::Cold; sides.len() - 1];
    kinds.extend(std::iter::repeat_n(Kind::Hit(0), HITS));
    kinds.extend(std::iter::repeat_n(Kind::Overflow, OVERFLOWS));
    kinds.extend(std::iter::repeat_n(Kind::Malformed, MALFORMED));
    rng.shuffle(&mut kinds);
    kinds.insert(0, Kind::Cold);

    let mut out: Vec<Request> = Vec::with_capacity(kinds.len());
    // (index in `out`, side, spec seed) of every cold request so far.
    let mut colds: Vec<(usize, usize, u64)> = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let unique = (rng.below(1 << 32) << 10) + i as u64;
        let request = match kind {
            Kind::Cold => {
                let n = sides[colds.len()];
                colds.push((i, n, unique));
                Request {
                    kind,
                    body: plate_body(&mut rng, &format!("cold-{i}"), n, unique, false),
                }
            }
            Kind::Hit(_) => {
                let (of, n, seed) = colds[rng.below(colds.len() as u64) as usize];
                let body = plate_body(&mut rng, &format!("hit-{i}"), n, seed, true);
                Request {
                    kind: Kind::Hit(of),
                    body,
                }
            }
            Kind::Overflow => Request {
                kind,
                body: plate_body(&mut rng, &format!("big-{i}"), 2048, unique, false),
            },
            Kind::Malformed => {
                let whole = plate_body(&mut rng, &format!("torn-{i}"), 32, unique, false);
                Request {
                    kind,
                    body: whole[..whole.len() / 2].to_string(),
                }
            }
        };
        out.push(request);
    }
    out
}

/// A fresh directory under `std::env::temp_dir()` (which `run.sh` points
/// inside the checkout), removed on drop — also when a check panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("fem2-benchmark-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An in-process server on a fresh data directory: `workers = 1`,
/// `queue_capacity = 16`, no quotas. With the client that is never more
/// busy threads than this host has cores.
fn start_server() -> Result<(ServerHandle, TempDir), String> {
    let dir = TempDir::new();
    let mut opts = ServeOptions::new(dir.path().to_path_buf());
    opts.workers = 1;
    opts.queue_capacity = 16;
    Ok((fem2_serve::start(&opts)?, dir))
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    match v.get_field(key) {
        Ok(Value::UInt(u)) => Ok(*u),
        other => Err(format!("field `{key}` is not a count: {other:?}")),
    }
}

fn parse(body: &str) -> Result<Value, String> {
    serde_json::parse_value(body).map_err(|e| format!("bad JSON ({e}): {body}"))
}

/// What one cold request returned.
struct ColdReply {
    hash: String,
    polls: u64,
    outcome: Value,
}

/// POST, poll `/jobs/{id}` every [`POLL`] until done, GET the result.
fn cold(addr: SocketAddr, body: &str) -> Result<ColdReply, String> {
    let (status, reply) = client::request(addr, "POST", "/jobs", Some(body))?;
    if status != 201 {
        return Err(format!("cold submission answered {status}: {reply}"));
    }
    let reply = parse(&reply)?;
    let id = uint(&reply, "id")?;
    let Ok(Value::Str(hash)) = reply.get_field("hash") else {
        return Err("cold submission returned no hash".into());
    };
    let deadline = Instant::now() + COLD_DEADLINE;
    let mut polls = 0;
    loop {
        let (status, state) = client::request(addr, "GET", &format!("/jobs/{id}"), None)?;
        polls += 1;
        match parse(&state)?.get_field("status") {
            Ok(Value::Str(s)) if status == 200 && s == "done" => break,
            Ok(Value::Str(s)) if status == 200 && (s == "queued" || s == "running") => {}
            _ => return Err(format!("job {id} ended as {status}: {state}")),
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} not done after {COLD_DEADLINE:?}"));
        }
        std::thread::sleep(POLL);
    }
    let (status, result) = client::request(addr, "GET", &format!("/jobs/{id}/result"), None)?;
    if status != 200 {
        return Err(format!("result of job {id} answered {status}: {result}"));
    }
    let outcome = parse(&result)?
        .get_field("outcome")
        .map_err(|e| e.to_string())?
        .clone();
    Ok(ColdReply {
        hash: hash.clone(),
        polls,
        outcome,
    })
}

fn hit(addr: SocketAddr, body: &str, cold_hash: &str) -> Result<(), String> {
    let (status, reply) = client::request(addr, "POST", "/jobs", Some(body))?;
    let doc = parse(&reply)?;
    let cached = doc.get_field("cached").ok() == Some(&Value::Bool(true));
    let same = doc.get_field("hash").ok() == Some(&Value::Str(cold_hash.to_string()));
    if status == 200 && cached && same {
        Ok(())
    } else {
        Err(format!(
            "re-submission was not a cache hit ({status}): {reply}"
        ))
    }
}

fn refusal(addr: SocketAddr, body: &str, want: u16) -> Result<(), String> {
    let (status, reply) = client::request(addr, "POST", "/jobs", Some(body))?;
    if status == want {
        Ok(())
    } else {
        Err(format!("expected a {want} refusal, got {status}: {reply}"))
    }
}

fn outcome_digest(d: &mut Digest, op: usize, outcome: &Value) -> Result<(), String> {
    let Ok(Value::Float(residual)) = outcome.get_field("residual") else {
        return Err(format!("outcome has no residual: {outcome:?}"));
    };
    let fields = [
        ("sim_cycles", uint(outcome, "sim_cycles")?),
        ("iterations", uint(outcome, "iterations")?),
        ("messages", uint(outcome, "messages")?),
        ("words_moved", uint(outcome, "words_moved")?),
        ("residual_bits", residual.to_bits()),
    ];
    push_fields(d, op, &fields);
    Ok(())
}

/// One pass over the request stream, with what the layers pass needs.
struct MixRun {
    rep: Rep,
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    /// 422 refusals (storage overflow) and 400 refusals (malformed).
    overflow_ms: Vec<f64>,
    malformed_ms: Vec<f64>,
    polls: Vec<f64>,
    /// `/healthz` round trips, microseconds (layers pass only).
    rtt_us: Vec<f64>,
    stats: Value,
}

pub struct ServeMix {
    requests: Vec<Request>,
    /// The server set-up brought up; stopped before the first repetition.
    probe: Option<(ServerHandle, TempDir)>,
}

impl ServeMix {
    /// Generate the stream and bring a server up on an empty data
    /// directory once: what a user waits for before the first request.
    pub fn setup(seed: u64) -> Self {
        let requests = requests(seed);
        let probe = start_server().expect("fem2-serve starts on a fresh directory");
        ServeMix {
            requests,
            probe: Some(probe),
        }
    }

    fn run(&mut self, measure_rtt: bool) -> MixRun {
        drop(self.probe.take());
        let mut run = MixRun {
            rep: Rep::default(),
            cold_ms: vec![],
            hit_ms: vec![],
            overflow_ms: vec![],
            malformed_ms: vec![],
            polls: vec![],
            rtt_us: vec![],
            stats: Value::Null,
        };
        let (server, _dir) = match start_server() {
            Ok(up) => up,
            Err(why) => {
                run.rep
                    .failures
                    .push(format!("serve_mix: server did not start: {why}"));
                run.rep.wall_s = f64::MIN_POSITIVE;
                return run;
            }
        };
        let addr = server.addr();
        if measure_rtt {
            for _ in 0..200 {
                let t = Instant::now();
                let ok = client::request(addr, "GET", "/healthz", None).is_ok_and(|r| r.0 == 200);
                run.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                if !ok {
                    run.rep
                        .failures
                        .push("serve_mix: /healthz did not answer 200".into());
                }
            }
        }

        // Hash the server gave each cold request, by request index.
        let mut hashes: Vec<Option<String>> = vec![None; self.requests.len()];
        let t_all = Instant::now();
        for (i, request) in self.requests.iter().enumerate() {
            let t = Instant::now();
            let outcome = match &request.kind {
                Kind::Cold => cold(addr, &request.body).and_then(|reply| {
                    run.polls.push(reply.polls as f64);
                    hashes[i] = Some(reply.hash);
                    outcome_digest(&mut run.rep.digest, i, &reply.outcome)
                }),
                Kind::Hit(of) => match &hashes[*of] {
                    Some(hash) => hit(addr, &request.body, hash),
                    None => Err(format!("the cold request {of} it repeats had failed")),
                },
                Kind::Overflow => refusal(addr, &request.body, 422),
                Kind::Malformed => refusal(addr, &request.body, 400),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            run.rep.op_ms.push(ms);
            match (&outcome, &request.kind) {
                (Err(why), _) => run
                    .rep
                    .failures
                    .push(format!("serve_mix: request {i}: {why}")),
                (Ok(()), Kind::Cold) => run.cold_ms.push(ms),
                (Ok(()), Kind::Hit(_)) => run.hit_ms.push(ms),
                (Ok(()), Kind::Overflow) => run.overflow_ms.push(ms),
                (Ok(()), Kind::Malformed) => run.malformed_ms.push(ms),
            }
        }
        run.rep.wall_s = t_all.elapsed().as_secs_f64();
        run.rep.work = self.requests.len() as u64;

        match client::request(addr, "GET", "/stats", None).and_then(|(_, body)| parse(&body)) {
            Ok(stats) => {
                for counter in ["sims_run", "cache_hits", "shed"] {
                    match uint(&stats, counter) {
                        Ok(v) => run.rep.digest.push((format!("stats.{counter}"), v)),
                        Err(why) => run.rep.failures.push(format!("serve_mix: /stats: {why}")),
                    }
                }
                run.stats = stats;
            }
            Err(why) => run.rep.failures.push(format!("serve_mix: /stats: {why}")),
        }
        server.stop();
        run
    }
}

fn micros<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

impl Workload for ServeMix {
    /// One operation = one HTTP request (a cold one lasts until its
    /// result is fetched). Every repetition gets a fresh server.
    fn repetition(&mut self) -> Rep {
        self.run(false).rep
    }

    fn layers(&mut self, reference: &Rep, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();

        // The stations of one cold request, called in process.
        let (mut parse_us, mut hash_us, mut lower_us, mut check_us, mut cost_us) =
            (vec![], vec![], vec![], vec![], vec![]);
        let (mut execute_ms, mut persist_us, mut lookup_us) = (vec![], vec![], vec![]);
        let dir = TempDir::new();
        let mut registry = match Registry::open(dir.path()) {
            Ok(r) => r,
            Err(why) => return vec![format!("serve_mix: registry did not open: {why}")],
        };
        let mut hashes = Vec::new();
        for (i, request) in self.requests.iter().enumerate() {
            if request.kind != Kind::Cold {
                continue;
            }
            let spec = match micros(&mut parse_us, || JobSpec::parse(&request.body)) {
                Ok(spec) => spec,
                Err(why) => {
                    failures.push(format!("serve_mix: request {i} does not parse: {why}"));
                    continue;
                }
            };
            let hash = micros(&mut hash_us, || spec.content_hash());
            if let JobSpec::Plate(plate) = &spec {
                let scenario = plate.scenario();
                micros(&mut lower_us, || black_box(scenario_script(&scenario)));
            }
            micros(&mut check_us, || black_box(spec.verify()));
            micros(&mut cost_us, || black_box(spec.cost_report()));
            let t = Instant::now();
            let outcome = spec.execute();
            let wall = t.elapsed();
            execute_ms.push(wall.as_secs_f64() * 1e3);
            let mut served = Digest::new();
            let in_process = outcome_digest(&mut served, i, &outcome.value);
            if in_process.is_err() || served.iter().any(|f| !reference.digest.contains(f)) {
                failures.push(format!(
                    "serve_mix: request {i} executes differently in process"
                ));
            }
            if let Err(why) = micros(&mut persist_us, || {
                registry
                    .record_run(&spec, &outcome, wall.as_nanos() as u64)
                    .map(|_| ())
            }) {
                failures.push(format!("serve_mix: registry append failed: {why}"));
            }
            hashes.push(hash);
        }
        for hash in &hashes {
            if micros(&mut lookup_us, || registry.lookup(hash).is_some()) {
                continue;
            }
            failures.push(format!("serve_mix: registry lost {hash}"));
        }
        drop(registry);
        let t = Instant::now();
        let reopened = Registry::open(dir.path()).map(|r| r.run_count());
        out.add("serve.reopen_ms", t.elapsed().as_secs_f64() * 1e3);
        if reopened != Ok(hashes.len()) {
            failures.push(format!(
                "serve_mix: reopened registry holds {reopened:?} runs"
            ));
        }
        drop(dir);

        // The mix itself, per class.
        let run = self.run(true);
        failures.extend(run.rep.failures.iter().cloned());
        failures.extend(diff(
            "serve_mix",
            "the untraced pass",
            &reference.digest,
            &run.rep.digest,
        ));

        let quarter = (persist_us.len() / 4).max(1);
        let rtt_us = median(&run.rtt_us);
        let cold_p50 = percentile(&run.cold_ms, 50.0);
        let admission_ms =
            (median(&parse_us) + median(&check_us) + median(&hash_us) + median(&lookup_us)) / 1e3;
        // Polls overlap the worker, so only the POST, the poll that sees
        // `done` and the result GET are on the blocking path.
        let attributed =
            admission_ms + median(&execute_ms) + median(&persist_us) / 1e3 + 3.0 * rtt_us / 1e3;
        out.add("core.lower_us", median(&lower_us));
        out.add("core.hash_us", median(&hash_us));
        out.add("verify.check_us", median(&check_us));
        out.add("verify.cost_us", median(&cost_us));
        out.add("serve.parse_us", median(&parse_us));
        out.add("serve.http_rtt_us", rtt_us);
        out.add("serve.lookup_us", median(&lookup_us));
        out.add("serve.execute_ms", median(&execute_ms));
        out.add("serve.persist_first_us", median(&persist_us[..quarter]));
        out.add(
            "serve.persist_last_us",
            median(&persist_us[persist_us.len() - quarter..]),
        );
        out.add(
            "serve.polls_per_cold",
            run.polls.iter().sum::<f64>() / run.polls.len().max(1) as f64,
        );
        out.add("serve.cold_unattributed_ms", cold_p50 - attributed);
        out.add("trace.attributed_pct", attributed / cold_p50 * 100.0);
        out.add("serve.cold_p50_ms", cold_p50);
        out.add("serve.cold_p90_ms", percentile(&run.cold_ms, 90.0));
        out.add("serve.hit_p50_ms", percentile(&run.hit_ms, 50.0));
        out.add("serve.hit_p90_ms", percentile(&run.hit_ms, 90.0));
        out.add(
            "serve.reject_422_p50_ms",
            percentile(&run.overflow_ms, 50.0),
        );
        out.add(
            "serve.reject_400_p50_ms",
            percentile(&run.malformed_ms, 50.0),
        );
        out.add(
            "serve.rejected",
            (run.overflow_ms.len() + run.malformed_ms.len()) as f64,
        );
        for (metric, counter) in [
            ("serve.sims_run", "sims_run"),
            ("serve.cache_hits", "cache_hits"),
            ("serve.shed", "shed"),
            ("serve.auto_budgeted", "auto_budgeted"),
        ] {
            out.add(metric, uint(&run.stats, counter).unwrap_or(0) as f64);
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_byte_stream_and_seeds_differ() {
        assert_eq!(requests(7), requests(7));
        assert_ne!(requests(7), requests(8));
    }

    #[test]
    fn the_mix_has_its_stated_shares_and_hits_follow_their_cold() {
        let stream = requests(11);
        let count = |k: fn(&Kind) -> bool| stream.iter().filter(|r| k(&r.kind)).count();
        assert_eq!(stream.len(), 400);
        assert_eq!(count(|k| *k == Kind::Cold), 120);
        assert_eq!(count(|k| matches!(k, Kind::Hit(_))), HITS);
        assert_eq!(count(|k| *k == Kind::Overflow), OVERFLOWS);
        assert_eq!(count(|k| *k == Kind::Malformed), MALFORMED);
        assert_eq!(stream[0].kind, Kind::Cold);
        for (i, r) in stream.iter().enumerate() {
            match r.kind {
                Kind::Hit(of) => {
                    assert!(of < i && stream[of].kind == Kind::Cold);
                    let (a, b) = (JobSpec::parse(&r.body), JobSpec::parse(&stream[of].body));
                    assert_eq!(a.unwrap().content_hash(), b.unwrap().content_hash());
                }
                Kind::Malformed => assert!(JobSpec::parse(&r.body).is_err()),
                _ => assert!(JobSpec::parse(&r.body).is_ok()),
            }
        }
    }

    #[test]
    fn temp_dirs_are_removed_on_drop() {
        let dir = TempDir::new();
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }
}
