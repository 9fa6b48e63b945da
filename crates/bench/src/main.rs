//! fem2-report: print every experiment table (E1–E10, A1, A2, A6).
//!
//! Run with: `cargo run --release -p fem2-bench --bin fem2-report`
//! Optionally pass experiment ids to restrict: `fem2-report e1 e9`; an id
//! it does not know is a usage error (exit status 2).
//!
//! `--trace <path>` instead runs the E1 plate scenario (48 × 48 on the
//! FEM-2 default machine) with the event recorder attached, writes a
//! Chrome `trace_event` JSON file to `path` (open it in `chrome://tracing`
//! or Perfetto), and prints the per-phase metrics table.
//!
//! `--check` instead runs the static verifier over the four layer grammars
//! and the seven example scenarios without simulating a cycle, printing the
//! diagnostic report. Exit status is non-zero if any subject is rejected;
//! `--allow-warnings` lets warning-only subjects pass, and `--json` emits
//! the machine-readable catalog (the same diagnostic representation the
//! `fem2-serve` HTTP rejection bodies use).

use fem2_bench::experiments as ex;
use fem2_core::machine::MachineConfig;
use fem2_core::scenario::PlateScenario;
use fem2_trace::{chrome, TraceHandle};

/// An experiment id and the function that renders its table.
type Table = (&'static str, fn() -> String);

/// Every experiment, in print order.
const TABLES: [Table; 13] = [
    ("e1", || ex::e1_requirements(&[8, 16, 32, 48, 64]).0),
    ("e2", || ex::e2_speedup(48)),
    ("e3", ex::e3_windows),
    ("e4", || ex::e4_task_init(&[1, 8, 64, 512, 4096])),
    ("e5", ex::e5_network),
    ("e6", ex::e6_levels),
    ("e7", || ex::e7_fault().0),
    ("e8", ex::e8_heap),
    ("e9", || ex::e9_solvers(&[16, 32])),
    ("e10", ex::e10_design_iter),
    ("a1", ex::a1_renumbering),
    ("a2", ex::a2_spawn_ablation),
    ("a6", || ex::a6_weak_scaling().0),
];

/// Events retained by the `--trace` ring (newest win; drops are counted in
/// the export).
const TRACE_RING_CAPACITY: usize = 1 << 20;

fn run_trace(path: &str) {
    let (handle, rec) = TraceHandle::ring(TRACE_RING_CAPACITY);
    let report = PlateScenario::square(48, MachineConfig::fem2_default())
        .with_trace(handle)
        .run();
    let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
    let json = chrome::trace_json(&rec);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("fem2-report: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "E1 plate 48x48: {} unknowns, {} cycles, {} CG iterations",
        report.unknowns, report.elapsed, report.iterations
    );
    println!("wrote {} ({} bytes)\n", path, json.len());
    println!("{}", chrome::phase_table(&rec));
}

fn run_check(allow_warnings: bool, json: bool) -> ! {
    let reports = fem2_core::verify::check_catalog();
    if json {
        print!("{}", fem2_core::verify::catalog_json(&reports));
    } else {
        print!("{}", fem2_core::verify::render_catalog(&reports));
    }
    let blocked = reports.iter().filter(|r| r.blocks(allow_warnings)).count();
    if blocked > 0 {
        eprintln!("fem2-report: {blocked} subject(s) rejected by static verification");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--check") {
        let allow_warnings = raw.iter().any(|a| a == "--allow-warnings");
        let json = raw.iter().any(|a| a == "--json");
        run_check(allow_warnings, json);
    }
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == "--trace" {
            let Some(path) = raw.get(i + 1) else {
                eprintln!("fem2-report: --trace needs an output path");
                std::process::exit(2);
            };
            run_trace(path);
            return;
        }
        ids.push(raw[i].to_lowercase());
        i += 1;
    }
    if let Some(unknown) = ids
        .iter()
        .find(|id| !TABLES.iter().any(|(known, _)| known == id))
    {
        let known: Vec<&str> = TABLES.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "fem2-report: unknown experiment `{unknown}`; known: {}",
            known.join(" ")
        );
        std::process::exit(2);
    }

    println!("FEM-2 experiment report (deterministic simulated plane)\n");

    for (id, table) in TABLES {
        if ids.is_empty() || ids.iter().any(|a| a == id) {
            println!("{}", table());
        }
    }
}
