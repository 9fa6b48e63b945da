//! `fem2-lint`: scan the workspace for determinism hazards.
//!
//! ```text
//! fem2-lint --workspace [--root DIR]
//! ```
//!
//! Exit status 0 when the tree is clean (stale allowlist entries are
//! warnings), 1 on findings, 2 on usage or I/O errors. See the library
//! docs for the rules and `lint-allow.toml` for the exemption format.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: fem2-lint --workspace [--root DIR]";

fn run() -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => {
                let dir = it.next().ok_or("--root needs a value")?;
                root = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !workspace {
        return Err(format!("--workspace is required\n{USAGE}"));
    }
    let root = match root {
        Some(r) => r,
        None => std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?,
    };
    let report = fem2_lint::scan_workspace(&root)?;
    for f in &report.findings {
        println!("{f}");
    }
    for stale in report.allowlist.stale(&report.files_scanned) {
        eprintln!(
            "warning: stale allowlist entry for {} ({}): file not in scan",
            stale.path, stale.rule
        );
    }
    if report.findings.is_empty() {
        println!(
            "fem2-lint: {} files clean (allowlist: lint-allow.toml)",
            report.files_scanned.len()
        );
        Ok(true)
    } else {
        println!(
            "fem2-lint: {} finding(s) in {} files — fix or add a reasoned lint-allow.toml entry",
            report.findings.len(),
            report.files_scanned.len()
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fem2-lint: {e}");
            ExitCode::from(2)
        }
    }
}
