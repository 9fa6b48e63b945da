//! End-to-end tests for the fem2-serve service: a real server on an
//! ephemeral port, driven over HTTP through the thin client.
//!
//! These are the acceptance paths from the serve design:
//!
//! * submit → poll → result, with the outcome matching a direct
//!   simulation of the same scenario;
//! * an identical re-submission (different JSON field order) is a cache
//!   hit — proven by the run counter staying at one simulation AND the
//!   registry holding exactly one record;
//! * a known-deadlocking script is rejected at admission with a 4xx
//!   carrying the structured verify diagnostics;
//! * the registry survives a server restart, turning the first
//!   submission of the next lifetime into a cache hit.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use fem2_serve::client;
use fem2_serve::{start, ChaosPlan, JobSpec, Registry, RunStatus, ServeOptions};
use proptest::prelude::*;
use serde_json::Value;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fem2-serve-e2e-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn get_u64(v: &Value, field: &str) -> u64 {
    match v.get_field(field) {
        Ok(Value::UInt(u)) => *u,
        other => panic!("field {field}: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Acceptance: submit a scenario over HTTP, poll to completion, fetch the
// result; then re-submit the identical job and prove nothing re-simulated.
// ---------------------------------------------------------------------------

#[test]
fn submit_poll_result_then_cached_resubmission() {
    let dir = temp_dir("cache");
    let handle = start(&ServeOptions::new(dir.clone())).expect("server starts");
    let addr = handle.addr();

    // Submit with spelled-out defaults...
    let body = r#"{"kind":"plate","nx":16,"ny":16,"seed":0,"tol":1e-6,"max_iters":5000}"#;
    let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(status, 201, "{resp}");
    let v = serde_json::parse_value(&resp).expect("submit response is JSON");
    let id = get_u64(&v, "id");

    let outcome = client::wait_done(addr, id).expect("job completes");
    assert_eq!(
        outcome.get_field("converged").ok(),
        Some(&Value::Bool(true))
    );
    // The served outcome matches a direct simulation of the same spec.
    let spec = JobSpec::parse(body).expect("spec parses");
    assert_eq!(outcome, spec.execute().value, "served result == direct run");

    // ...and re-submit minimally, fields permuted: same resolved job.
    let (status, resp) =
        client::request(addr, "POST", "/jobs", Some(r#"{"ny":16,"nx":16}"#)).expect("resubmit");
    assert_eq!(status, 200, "cache hit answers 200, not 201: {resp}");
    let v = serde_json::parse_value(&resp).expect("JSON");
    assert_eq!(
        v.get_field("cached").ok(),
        Some(&Value::Bool(true)),
        "{resp}"
    );

    // Proof the second submission never simulated: the run counter still
    // says one, and the registry holds exactly one record.
    let (_, stats) = client::request(addr, "GET", "/stats", None).expect("stats");
    let sv = serde_json::parse_value(&stats).expect("stats JSON");
    assert_eq!(get_u64(&sv, "sims_run"), 1, "{stats}");
    assert_eq!(get_u64(&sv, "cache_hits"), 1, "{stats}");
    assert_eq!(get_u64(&sv, "registry_runs"), 1, "{stats}");

    handle.stop();
    // Registry on disk agrees: one record, keyed by the content hash.
    let reg = Registry::open(&dir).expect("registry reopens");
    assert_eq!(reg.run_count(), 1);
    assert!(reg.lookup(&spec.content_hash()).is_some());
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Acceptance: a known-deadlocking script is refused at admission with the
// structured diagnostics, before any worker sees it.
// ---------------------------------------------------------------------------

#[test]
fn deadlocking_script_rejected_with_structured_diagnostics() {
    let dir = temp_dir("deadlock");
    let handle = start(&ServeOptions::new(dir.clone())).expect("server starts");
    let addr = handle.addr();

    // Head-to-head rendezvous: both tasks send before either receives.
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
    let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(status, 422, "{resp}");
    let v = serde_json::parse_value(&resp).expect("422 body is structured JSON");
    assert_eq!(
        v.get_field("status").ok(),
        Some(&Value::Str("REJECTED".into())),
        "{resp}"
    );
    // The diagnostics array carries the deadlock finding in its JSON form
    // (kind / pass / message / line), naming the tasks.
    let Ok(Value::Arr(diags)) = v.get_field("diagnostics") else {
        panic!("diagnostics array: {resp}");
    };
    let deadlock = diags
        .iter()
        .find(|d| d.get_field("pass").ok() == Some(&Value::Str("deadlock".into())))
        .unwrap_or_else(|| panic!("no deadlock diagnostic: {resp}"));
    match deadlock.get_field("message") {
        Ok(Value::Str(m)) => {
            assert!(m.contains("'east'") && m.contains("'west'"), "{m}");
        }
        other => panic!("message field: {other:?}"),
    }

    // Rejected work never reached the scheduler or the registry.
    let (_, stats) = client::request(addr, "GET", "/stats", None).expect("stats");
    let sv = serde_json::parse_value(&stats).expect("stats JSON");
    assert_eq!(get_u64(&sv, "sims_run"), 0, "{stats}");
    assert_eq!(get_u64(&sv, "registry_runs"), 0, "{stats}");
    handle.stop();
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Predictive admission: a plate whose static cost bound exceeds the
// configured quota is rejected at the front door — 422 with the bound in
// the diagnostics — and never reaches a worker or the registry.
// ---------------------------------------------------------------------------

#[test]
fn over_quota_plate_rejected_before_any_worker_runs() {
    let dir = temp_dir("quota");
    let mut opts = ServeOptions::new(dir.clone());
    opts.quota_cycles = Some(1_000);
    let handle = start(&opts).expect("server starts");
    let addr = handle.addr();

    let (status, resp) =
        client::request(addr, "POST", "/jobs", Some(r#"{"nx":32,"ny":32}"#)).expect("submit");
    assert_eq!(status, 422, "{resp}");
    let v = serde_json::parse_value(&resp).expect("422 body is structured JSON");
    assert_eq!(
        v.get_field("error").ok(),
        Some(&Value::Str("rejected by cost quota".into())),
        "{resp}"
    );
    // The cost diagnostic quotes the static bound against the quota.
    let Ok(Value::Arr(diags)) = v.get_field("diagnostics") else {
        panic!("diagnostics array: {resp}");
    };
    let cost = diags
        .iter()
        .find(|d| d.get_field("pass").ok() == Some(&Value::Str("cost".into())))
        .unwrap_or_else(|| panic!("no cost diagnostic: {resp}"));
    match cost.get_field("message") {
        Ok(Value::Str(m)) => {
            assert!(m.contains("static bound of"), "{m}");
            assert!(m.contains("exceeds the quota of 1000"), "{m}");
        }
        other => panic!("message field: {other:?}"),
    }
    // The full cost report rides along so the client can see how far
    // over it was; the bound it quotes is the one that tripped.
    let bound = get_u64(v.get_field("cost").expect("cost report"), "sim_cycles");
    assert!(bound > 1_000, "{resp}");

    // Rejection happened at admission: no sim ran, nothing persisted,
    // and the rejection counter says why.
    let (_, stats) = client::request(addr, "GET", "/stats", None).expect("stats");
    let sv = serde_json::parse_value(&stats).expect("stats JSON");
    assert_eq!(get_u64(&sv, "sims_run"), 0, "{stats}");
    assert_eq!(get_u64(&sv, "registry_runs"), 0, "{stats}");
    assert_eq!(get_u64(&sv, "cost_rejections"), 1, "{stats}");
    handle.stop();
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The registry is the cache: a restarted server serves yesterday's runs.
// ---------------------------------------------------------------------------

#[test]
fn restarted_server_answers_from_persisted_registry() {
    let dir = temp_dir("restart");
    let body = r#"{"nx":14,"ny":14}"#;
    {
        let handle = start(&ServeOptions::new(dir.clone())).expect("first lifetime");
        let addr = handle.addr();
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
        assert_eq!(status, 201, "{resp}");
        let v = serde_json::parse_value(&resp).expect("JSON");
        client::wait_done(addr, get_u64(&v, "id")).expect("completes");
        handle.stop();
    }
    let handle = start(&ServeOptions::new(dir.clone())).expect("second lifetime");
    let addr = handle.addr();
    let (status, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("resubmit");
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"cached\":true"), "{resp}");
    let (_, stats) = client::request(addr, "GET", "/stats", None).expect("stats");
    let sv = serde_json::parse_value(&stats).expect("stats JSON");
    assert_eq!(get_u64(&sv, "sims_run"), 0, "no simulation this lifetime");
    handle.stop();
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Degenerate submissions and routing.
// ---------------------------------------------------------------------------

#[test]
fn malformed_and_unknown_requests_get_clean_errors() {
    let dir = temp_dir("errors");
    let handle = start(&ServeOptions::new(dir.clone())).expect("server starts");
    let addr = handle.addr();
    let (status, resp) = client::request(addr, "POST", "/jobs", Some("{oops")).expect("send");
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("invalid JSON"), "{resp}");
    let (status, _) = client::request(addr, "GET", "/jobs/424242", None).expect("send");
    assert_eq!(status, 404);
    let (status, resp) = client::request(addr, "GET", "/jobs/424242/result", None).expect("send");
    assert_eq!(status, 404, "{resp}");
    let (status, _) = client::request(addr, "PUT", "/jobs", Some("{}")).expect("send");
    assert_eq!(status, 405);
    let (status, resp) = client::request(addr, "GET", "/healthz", None).expect("send");
    assert_eq!(status, 200);
    assert_eq!(resp, "{\"ok\":true}");
    handle.stop();
    fs::remove_dir_all(&dir).ok();
}

/// The JSON parser recurses once per nesting level. A body far below the
/// size cap but 100 000 levels deep must come back as an ordinary 400 —
/// unbounded, it overflows the connection thread's stack, which no
/// `catch_unwind` survives: the whole process aborts.
#[test]
fn deeply_nested_body_gets_400_and_the_server_stays_up() {
    let dir = temp_dir("nesting");
    let handle = start(&ServeOptions::new(dir.clone())).expect("server starts");
    let addr = handle.addr();
    let (status, resp) =
        client::request(addr, "POST", "/jobs", Some(&"[".repeat(100_000))).expect("send");
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("nesting deeper than 128"), "{resp}");
    let (status, resp) = client::request(addr, "GET", "/stats", None).expect("send");
    assert_eq!(status, 200, "{resp}");
    handle.stop();
    fs::remove_dir_all(&dir).ok();
}

/// Write `raw` at the server as-is, half-close, and return whatever it
/// answers (empty when it just drops the connection).
fn raw_exchange(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    // The server may answer and close before the last byte is written.
    let _ = s.write_all(raw);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = s.read_to_end(&mut reply);
    String::from_utf8_lossy(&reply).into_owned()
}

/// A valid plate spec for the mutation half of the property below.
const VALID_SPEC: &[u8] =
    br#"{"name":"p","nx":12,"ny":12,"tasks":8,"budget":{"max_sim_cycles":90000}}"#;

proptest! {
    /// Arbitrary bytes never panic the JSON parser or the spec parser, and
    /// a live server answers them — as a request body or as the whole
    /// request — with a 4xx or by closing the connection, and keeps
    /// serving. Mutations of a valid spec (one byte flipped, then cut at
    /// every offset) go to the parsers only: some are valid specs, and
    /// submitting those would run them.
    #[test]
    fn arbitrary_bytes_never_panic_and_get_a_4xx(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        flip_at in 0..VALID_SPEC.len(),
        flip_mask in 1u8..=255,
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = serde_json::parse_value(&text);
        let _ = JobSpec::parse(&text);
        let mut spec = VALID_SPEC.to_vec();
        JobSpec::parse(std::str::from_utf8(&spec).unwrap()).expect("the unmutated spec is valid");
        spec[flip_at] ^= flip_mask;
        for cut in 0..=spec.len() {
            let doc = String::from_utf8_lossy(&spec[..cut]);
            let _ = serde_json::parse_value(&doc);
            let _ = JobSpec::parse(&doc);
        }

        let dir = temp_dir("fuzz");
        let mut opts = ServeOptions::new(dir.clone());
        opts.request_deadline = Duration::from_millis(200);
        let handle = start(&opts).expect("server starts");
        let addr = handle.addr();
        let (status, resp) = client::request(addr, "POST", "/jobs", Some(&text)).expect("send");
        prop_assert!((400..500).contains(&status), "body {:?}: {} {}", text, status, resp);
        let reply = raw_exchange(addr, &bytes);
        prop_assert!(
            reply.is_empty() || reply.starts_with("HTTP/1.1 4"),
            "raw {:?}: {}", bytes, reply
        );
        let (status, _) = client::request(addr, "GET", "/healthz", None).expect("send");
        prop_assert_eq!(status, 200);
        handle.stop();
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The generated report site reflects what the server ran.
// ---------------------------------------------------------------------------

#[test]
fn report_site_covers_server_runs() {
    let dir = temp_dir("report");
    let out = temp_dir("report-site");
    let body = r#"{"nx":12,"ny":12,"name":"e2e plate"}"#;
    {
        let handle = start(&ServeOptions::new(dir.clone())).expect("server starts");
        let addr = handle.addr();
        let (_, resp) = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
        let v = serde_json::parse_value(&resp).expect("JSON");
        client::wait_done(addr, get_u64(&v, "id")).expect("completes");
        handle.stop();
    }
    let pages = fem2_serve::report::generate(&dir, &out).expect("report generates");
    assert_eq!(pages, 3);
    let spec = JobSpec::parse(body).expect("spec");
    let page = fs::read_to_string(out.join("runs").join(format!("{}.md", spec.content_hash())))
        .expect("run page exists");
    assert!(page.contains("- name: e2e plate"), "{page}");
    assert!(page.contains("- converged: true"), "{page}");
    let index = fs::read_to_string(out.join("index.md")).expect("index");
    assert!(index.contains("e2e plate"), "{index}");
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&out).ok();
}

// ---------------------------------------------------------------------------
// Supervision acceptance: the server stays available while a chaos plan
// injects a worker panic and a registry write error underneath healthy
// traffic and a byte-dripping client; every ending is recorded with its
// status and survives a restart.
// ---------------------------------------------------------------------------

fn submit(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    client::request(addr, "POST", "/jobs", Some(body)).expect("submit")
}

fn submit_id(addr: std::net::SocketAddr, body: &str) -> u64 {
    let (status, resp) = submit(addr, body);
    assert_eq!(status, 201, "{resp}");
    get_u64(&serde_json::parse_value(&resp).expect("JSON"), "id")
}

#[test]
fn chaos_plan_keeps_the_server_available_and_records_every_ending() {
    let dir = temp_dir("chaos");
    let mut opts = ServeOptions::new(dir.clone());
    // Run 1's registry append fails once (absorbed by the retry); run 2
    // panics in the worker. The plan matches tests/golden/chaos_plan.json.
    opts.chaos = Some(
        ChaosPlan::parse(r#"{"seed":7,"panic_on_run":[2],"registry_error_on_write":[1]}"#)
            .expect("plan parses"),
    );
    opts.request_deadline = Duration::from_millis(500);
    let handle = start(&opts).expect("server starts");
    let addr = handle.addr();

    // A byte-dripping client chews on a connection for the whole test.
    let drip = thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        let req = b"POST /jobs HTTP/1.1\r\nContent-Length: 400\r\n";
        for &b in req.iter().cycle().take(120) {
            if s.write_all(&[b]).is_err() {
                break; // server hung up at the deadline
            }
            thread::sleep(Duration::from_millis(20));
        }
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        resp
    });

    // Healthy traffic proceeds underneath: run 1 hits the injected
    // registry error, retries, and completes.
    let run_a = r#"{"nx":10,"ny":10}"#;
    let id_a = submit_id(addr, run_a);
    assert_eq!(client::wait_settled(addr, id_a).expect("settles"), "done");

    // Run 2 panics; the failure is structured, not a dead server.
    let run_b = r#"{"nx":12,"ny":12}"#;
    let id_b = submit_id(addr, run_b);
    assert_eq!(client::wait_settled(addr, id_b).expect("settles"), "failed");
    let (status, resp) =
        client::request(addr, "GET", &format!("/jobs/{id_b}/result"), None).expect("result");
    assert_eq!(status, 500, "{resp}");
    assert!(resp.contains("injected worker panic"), "{resp}");

    // Liveness is untouched throughout; readiness reports the wreckage.
    let (status, health) = client::request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(health, "{\"ok\":true}");
    let (status, ready) = client::request(addr, "GET", "/readyz", None).expect("readyz");
    assert_eq!(status, 200, "{ready}");
    let rv = serde_json::parse_value(&ready).expect("readyz JSON");
    assert_eq!(get_u64(&rv, "quarantine_size"), 1, "{ready}");

    // Resubmitting the crasher replays the recorded failure from
    // quarantine — one structured 500, no second run.
    let (status, resp) = submit(addr, run_b);
    assert_eq!(status, 500, "{resp}");
    assert!(resp.contains("\"quarantined\":true"), "{resp}");

    // A third, healthy submission still completes.
    let run_c = r#"{"nx":8,"ny":8}"#;
    let id_c = submit_id(addr, run_c);
    assert_eq!(client::wait_settled(addr, id_c).expect("settles"), "done");

    let (_, stats) = client::request(addr, "GET", "/stats", None).expect("stats");
    let sv = serde_json::parse_value(&stats).expect("stats JSON");
    assert_eq!(get_u64(&sv, "sims_run"), 3, "{stats}");
    assert_eq!(get_u64(&sv, "panics"), 1, "{stats}");
    assert_eq!(get_u64(&sv, "quarantine_hits"), 1, "{stats}");
    assert_eq!(get_u64(&sv, "infra_retries"), 1, "{stats}");

    // The dripping client was cut off with a 408, not served and not
    // allowed to squat past the deadline.
    let dripped = drip.join().expect("drip thread");
    assert!(dripped.contains("408"), "slow client got: {dripped:?}");

    handle.stop();

    // The registry replays cleanly with per-run statuses intact, and a
    // restarted server still quarantines the crasher and serves the rest.
    let reg = Registry::open(&dir).expect("registry reopens");
    assert_eq!(reg.run_count(), 3);
    let status_of = |body: &str| {
        let spec = JobSpec::parse(body).expect("spec");
        reg.lookup(&spec.content_hash()).expect("recorded").status
    };
    assert_eq!(status_of(run_a), RunStatus::Ok);
    assert_eq!(status_of(run_b), RunStatus::Failed);
    assert_eq!(status_of(run_c), RunStatus::Ok);
    drop(reg);

    let handle = start(&ServeOptions::new(dir.clone())).expect("second lifetime");
    let addr = handle.addr();
    let (status, resp) = submit(addr, run_a);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"cached\":true"), "{resp}");
    let (status, resp) = submit(addr, run_b);
    assert_eq!(status, 500, "{resp}");
    assert!(resp.contains("\"quarantined\":true"), "{resp}");
    handle.stop();
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Run budgets: a runaway submission terminates within its budget, is
// recorded as aborted, and aborts at the same point on every lifetime.
// ---------------------------------------------------------------------------

#[test]
fn budgeted_runaway_aborts_identically_across_lifetimes() {
    let body = r#"{"nx":24,"ny":24,"budget":{"max_sim_cycles":20000}}"#;
    let mut errors = Vec::new();
    for lifetime in 0..2 {
        let dir = temp_dir(&format!("budget-{lifetime}"));
        let handle = start(&ServeOptions::new(dir.clone())).expect("server starts");
        let addr = handle.addr();
        let id = submit_id(addr, body);
        assert_eq!(client::wait_settled(addr, id).expect("settles"), "aborted");
        let (status, resp) =
            client::request(addr, "GET", &format!("/jobs/{id}/result"), None).expect("result");
        assert_eq!(status, 504, "{resp}");
        assert!(resp.contains("cycles_exceeded"), "{resp}");
        handle.stop();
        let reg = Registry::open(&dir).expect("registry reopens");
        let spec = JobSpec::parse(body).expect("spec");
        let rec = reg.lookup(&spec.content_hash()).expect("abort recorded");
        assert_eq!(rec.status, RunStatus::Aborted);
        errors.push(rec.error.clone().expect("abort carries its cause"));
        fs::remove_dir_all(&dir).ok();
    }
    // Bitwise determinism: the abort fires at the same cycle and event
    // count in every lifetime, so the recorded cause strings are equal.
    assert_eq!(errors[0], errors[1], "abort point drifted across runs");
    assert!(errors[0].contains("cycles_exceeded"), "{}", errors[0]);
}

#[test]
fn report_page_matches_committed_golden_modulo_wall_time() {
    // The CI smoke job submits {"nx":12,"ny":12} over HTTP and diffs the
    // generated run page against this golden with `- wall time:` lines
    // stripped; this test pins the same contract without the HTTP hop.
    let golden = include_str!("../golden/serve_report_page.md");
    let dir = temp_dir("golden");
    let out = temp_dir("golden-site");
    let spec = JobSpec::parse(r#"{"nx":12,"ny":12}"#).expect("spec");
    let outcome = spec.execute();
    {
        let mut reg = Registry::open(&dir).expect("registry opens");
        reg.record_run(&spec, &outcome, 0).expect("records");
    }
    fem2_serve::report::generate(&dir, &out).expect("report generates");
    let page = fs::read_to_string(out.join("runs").join(format!("{}.md", spec.content_hash())))
        .expect("run page exists");
    let strip = |text: &str| {
        text.lines()
            .filter(|l| !l.starts_with("- wall time:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&page),
        strip(golden),
        "serve report page drifted from tests/golden/serve_report_page.md; \
         regenerate by running the server, submitting {{\"nx\":12,\"ny\":12}}, and \
         copying the generated runs/{}.md",
        spec.content_hash()
    );
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&out).ok();
}
