//! `fem2-bench` — run the fixed perf mix and emit `BENCH_fem2.json`.
//!
//! ```text
//! fem2-bench --json BENCH_fem2.json   # run the suite, write JSON, print table
//! fem2-bench --validate BENCH_fem2.json  # schema-check an existing document
//! fem2-bench --no-route-cache         # ablation: reference recompute routing
//! fem2-bench --des-queue heap         # ablation: reference binary-heap DES queue
//! fem2-bench --repeat 5               # best + median wall times over 5 runs
//! fem2-bench --budget-cycles 20000    # cap E1 plate runs; overruns record "aborted"
//! fem2-bench --budget-events 100000   # same, capped on DES events
//! fem2-bench                          # run the suite, print the table only
//! ```
//!
//! The sweep worker pool is sized from `FEM2_PAR_THREADS` (default: host
//! parallelism); `FEM2_PAR_THREADS=1` serializes the sweeps.

#![forbid(unsafe_code)]

use fem2_bench::harness::{self, BenchOptions};
use fem2_core::machine::DesQueue;
use std::process::ExitCode;

const USAGE: &str = "usage: fem2-bench [--json <path>] [--validate <path>] \
[--no-route-cache] [--des-queue calendar|heap] [--repeat <n>] \
[--budget-cycles <n>] [--budget-events <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut validate_path: Option<String> = None;
    let mut opts = BenchOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-route-cache" => {
                opts.route_cache = false;
                i += 1;
            }
            "--des-queue" => {
                let Some(q) = args.get(i + 1) else {
                    eprintln!("--des-queue requires calendar|heap\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                opts.des_queue = match q.as_str() {
                    "calendar" => DesQueue::Calendar,
                    "heap" => DesQueue::Heap,
                    other => {
                        eprintln!("--des-queue must be calendar or heap, got {other:?}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--repeat" => {
                let Some(n) = args.get(i + 1) else {
                    eprintln!("--repeat requires a count\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                opts.repeat = match n.parse::<u32>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--repeat must be a positive integer, got {n:?}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--budget-cycles" | "--budget-events" => {
                let flag = args[i].clone();
                let Some(n) = args.get(i + 1) else {
                    eprintln!("{flag} requires a count\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let parsed = match n.parse::<u64>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("{flag} must be a positive integer, got {n:?}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
                if flag == "--budget-cycles" {
                    opts.budget_cycles = Some(parsed);
                } else {
                    opts.budget_events = Some(parsed);
                }
                i += 2;
            }
            "--json" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("--json requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                json_path = Some(p.clone());
                i += 2;
            }
            "--validate" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("--validate requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                validate_path = Some(p.clone());
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = validate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fem2-bench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match harness::validate_json(&text) {
            Ok(n) => {
                println!(
                    "{path}: valid {} (or {}) document, {n} records",
                    harness::SCHEMA,
                    harness::SCHEMA_V1
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let suite = harness::run_suite_opts(opts);
    print!("{}", suite.table());
    if let Some(path) = json_path {
        let json = suite.to_json();
        if let Err(e) = harness::validate_json(&json) {
            eprintln!("fem2-bench: generated document failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("fem2-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
