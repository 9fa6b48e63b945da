//! The repo benchmark: six seeded workloads from socket to solver, each
//! measured end to end with tracing off and layer by layer with tracing
//! on. See `benchmark/README.md`.
//!
//! ```text
//! fem2-benchmark [--seed N]                         every workload, both passes
//! fem2-benchmark [--seed N] --workload NAME         one workload, both passes
//! fem2-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                                                   one pass; result object on the last line
//! fem2-benchmark compare A.json B.json              regression table of two result files
//! ```

mod compare;
mod fem;
mod harness;
mod kernel;
mod net;
mod plate;
mod replay;
mod rng;
mod serve;
mod spec;
mod stats;
mod suite;

use harness::{run_end_to_end, run_traced, Outcome, Workload};
use std::process::ExitCode;

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: u64,
    trace: Option<bool>,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("fem2-benchmark: {why}");
    eprintln!(
        "usage: run.sh [--seed N] [--workload NAME] [--seconds S --trace 0|1] | run.sh compare A.json B.json"
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: spec::DEFAULT_SEED,
        workload: None,
        seconds: spec::RUN_SECONDS,
        trace: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = Some(number()? != 0),
            "--workload" if spec::workload(&value).is_some() => args.workload = Some(value),
            "--workload" => return Err(format!("no workload named {value}")),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn measure<W: Workload>(
    def: &'static spec::WorkloadDef,
    args: &Args,
    trace: bool,
    setup: impl Fn(u64) -> W,
) -> Outcome {
    if trace {
        run_traced(def, args.seed, args.seconds, setup)
    } else {
        run_end_to_end(def, args.seed, args.seconds, setup)
    }
}

/// Re-run this process on the host's last CPU alone, if `taskset` can
/// (see `WorkloadDef::one_cpu`). `None` when this process is already
/// pinned or cannot be.
fn rerun_pinned() -> Option<ExitCode> {
    const MARK: &str = "FEM2_BENCHMARK_PINNED";
    if std::env::var_os(MARK).is_some() {
        return None;
    }
    let cpu = std::thread::available_parallelism()
        .map_or(0, |n| n.get() - 1)
        .to_string();
    let taskset = |program: &std::ffi::OsStr| {
        let mut cmd = std::process::Command::new("taskset");
        cmd.args(["-c", &cpu]).arg(program).env(MARK, &cpu);
        cmd
    };
    let allowed = taskset("true".as_ref()).status().is_ok_and(|s| s.success());
    if !allowed {
        return None;
    }
    let status = taskset(std::env::current_exe().ok()?.as_os_str())
        .args(std::env::args_os().skip(1))
        .status()
        .ok()?;
    Some(if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One pass over one workload, in this process.
fn single(name: &str, args: &Args, trace: bool) -> ExitCode {
    let def = spec::workload(name).expect("validated by parse");
    if def.one_cpu {
        if let Some(code) = rerun_pinned() {
            return code;
        }
    }
    let outcome = match name {
        "plate_xbar" => measure(def, args, trace, plate::Plates::xbar),
        "plate_torus" => measure(def, args, trace, plate::Plates::torus),
        "net_cold" => measure(def, args, trace, net::NetCold::setup),
        "kernel_storm" => measure(def, args, trace, kernel::KernelStorm::setup),
        "fem_native" => measure(def, args, trace, fem::FemNative::setup),
        "serve_mix" => measure(def, args, trace, serve::ServeMix::setup),
        other => unreachable!("spec::WORKLOADS lists {other} but nothing runs it"),
    };
    outcome.print();
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        return match files.as_slice() {
            [a, b] => compare::run(a, b),
            _ => usage("compare takes two result files"),
        };
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(why) => return usage(&why),
    };
    match (&args.workload, args.trace) {
        (Some(name), Some(trace)) => single(name, &args, trace),
        (None, Some(_)) => usage("--trace needs --workload"),
        (only, None) => suite::run(args.seed, args.seconds, only.as_deref()),
    }
}
