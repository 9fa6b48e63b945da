//! The one-command run: every workload in its own child process, one
//! after the other (so `peak_rss_mb` is per workload and nothing
//! contends), tracing off and then on; every metric printed by name; one
//! stamped result file.

use crate::spec;
use serde::json::Value;
use std::process::{Command, ExitCode};

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run one pass in a child; echo its report; return its detail object.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(json) => detail = serde_json::parse_value(json).ok(),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    detail.ok_or_else(|| {
        format!(
            "{workload}: the pass ended ({}) without a report",
            output.status
        )
    })
}

pub fn run(seed: u64, seconds: u64, only: Option<&str>) -> ExitCode {
    let commit = tool_line("git", &["rev-parse", "HEAD"]);
    let mut runs = Vec::new();
    let mut ok = true;
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        for trace in [false, true] {
            match child(w.name, seed, seconds, trace) {
                Ok(detail) => {
                    ok &= detail.get_field("correct").ok() == Some(&Value::Bool(true));
                    runs.push(detail);
                }
                Err(why) => {
                    eprintln!("fem2-benchmark: {why}");
                    ok = false;
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = Value::Obj(vec![
        ("version".into(), Value::Str(spec::VERSION.into())),
        ("commit".into(), Value::Str(commit.clone())),
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "rustc".into(),
            Value::Str(tool_line("rustc", &["--version"])),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("runs".into(), Value::Arr(runs)),
    ]);
    let dir = std::path::Path::new("benchmark/results");
    let path = dir.join(format!("{commit}-{seed}.json"));
    let text = serde_json::to_string_pretty(&doc).expect("finite floats serialize");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text + "\n")) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("fem2-benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        println!("every check passed");
        ExitCode::SUCCESS
    } else {
        println!("SOME CHECKS FAILED");
        ExitCode::FAILURE
    }
}
