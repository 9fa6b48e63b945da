//! `fem2-serve report`: render the registry into a static report site —
//! a markdown index, one markdown page per run, and an HTML index, all
//! plain files safe to serve from anywhere.
//!
//! Determinism contract (relied on by the CI smoke job): for the same
//! registry content, every generated byte is identical **except** lines
//! that begin with `- wall time:` — wall-clock is the one honest
//! nondeterminism, so it is quarantined onto dedicated lines a diff can
//! filter with a single grep.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use serde::json::Value;

use crate::registry::{read, read_runs, RunRecord};
use crate::util::json_compact;

/// Render `v` as nested markdown list items at `indent` levels: an
/// object's fields as `- key: value`, an array's items as `- value`, and
/// a nested object or array under its own `- key:` or `-` line.
fn value_lines(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let items: Vec<(String, &Value)> = match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, v)| (format!(" {k}:"), v)).collect(),
        Value::Arr(items) => items.iter().map(|v| (String::new(), v)).collect(),
        scalar => vec![(String::new(), scalar)],
    };
    for (label, item) in items {
        match item {
            Value::Obj(_) | Value::Arr(_) => {
                let _ = writeln!(out, "{pad}-{label}");
                value_lines(out, item, indent + 1);
            }
            scalar => {
                let _ = writeln!(out, "{pad}-{label} {}", json_compact(scalar));
            }
        }
    }
}

fn run_page(run: &RunRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Run `{}`", run.hash);
    let _ = writeln!(out);
    let _ = writeln!(out, "- name: {}", run.name);
    let _ = writeln!(out, "- kind: {}", run.kind);
    let _ = writeln!(out, "- seq: {}", run.seq);
    // A plate record carries the static cost bound predicted at
    // admission; with the actual cycle count in the outcome, the
    // tightness ratio (bound / actual, ≥ 1 by soundness) is fully
    // deterministic and safe to golden-diff.
    let bound = run
        .predicted
        .as_ref()
        .and_then(|p| read::<u64>(p, "sim_cycles"));
    if let Some(bound) = bound {
        let _ = writeln!(out, "- predicted cycle bound: {bound}");
        if let Some(actual) = read::<u64>(&run.outcome, "sim_cycles").filter(|&a| a > 0) {
            let _ = writeln!(
                out,
                "- cycle bound tightness: {:.2}x (bound / actual)",
                bound as f64 / actual as f64
            );
        }
    }
    // Ok is the overwhelmingly common case and the golden page predates
    // run statuses, so only non-ok endings get status/error lines.
    if !run.status.is_ok() {
        let _ = writeln!(out, "- status: {}", run.status.name());
        if let Some(err) = &run.error {
            let _ = writeln!(out, "- error: {err}");
        }
    }
    // Wall-clock is quarantined onto its own line; see the module docs.
    let _ = writeln!(out, "- wall time: {} ns", run.wall_ns);
    let _ = writeln!(out);
    let _ = writeln!(out, "## Outcome");
    let _ = writeln!(out);
    value_lines(&mut out, &run.outcome, 0);
    let _ = writeln!(out);
    let _ = writeln!(out, "## Resolved spec");
    let _ = writeln!(out);
    value_lines(&mut out, &run.spec, 0);
    out
}

fn index_page(runs: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# fem2-serve run registry");
    let _ = writeln!(out);
    let _ = writeln!(out, "{} completed runs.", runs.len());
    let _ = writeln!(out);
    let _ = writeln!(out, "## Runs");
    let _ = writeln!(out);
    if runs.is_empty() {
        let _ = writeln!(out, "No runs recorded.");
    } else {
        let _ = writeln!(out, "| seq | name | kind | status | hash |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for r in runs {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | [`{}`](runs/{}.md) |",
                r.seq,
                r.name,
                r.kind,
                r.status.name(),
                r.hash,
                r.hash
            );
        }
    }
    out
}

/// Minimal HTML shell so the index is browsable without a markdown viewer.
fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn index_html(markdown: &str) -> String {
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>fem2-serve registry</title>\
         <style>body{{font-family:monospace;max-width:72em;margin:2em auto}}</style>\
         </head><body><pre>\n{}</pre></body></html>\n",
        html_escape(markdown)
    )
}

/// Generate the report site for the registry under `data_dir` into `out`,
/// writing nothing under `data_dir`. Returns the number of pages written.
pub fn generate(data_dir: &Path, out: &Path) -> Result<usize, String> {
    let runs = read_runs(data_dir)?;
    let runs_dir = out.join("runs");
    fs::create_dir_all(&runs_dir).map_err(|e| format!("create {}: {e}", runs_dir.display()))?;
    let index = index_page(&runs);
    fs::write(out.join("index.md"), &index).map_err(|e| format!("write index.md: {e}"))?;
    fs::write(out.join("index.html"), index_html(&index))
        .map_err(|e| format!("write index.html: {e}"))?;
    let mut pages = 2;
    for run in &runs {
        let page = run_page(run);
        fs::write(runs_dir.join(format!("{}.md", run.hash)), page)
            .map_err(|e| format!("write run page {}: {e}", run.hash))?;
        pages += 1;
    }
    Ok(pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::registry::Registry;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fem2-serve-report-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_registry(dir: &Path) -> JobSpec {
        let spec = JobSpec::parse(r#"{"nx":12,"ny":12,"name":"demo plate"}"#).unwrap();
        let outcome = spec.execute();
        let mut reg = Registry::open(dir).unwrap();
        reg.record_run(&spec, &outcome, 12345).unwrap();
        spec
    }

    #[test]
    fn report_site_has_index_and_run_pages() {
        let data = temp_dir("site-data");
        let out = temp_dir("site-out");
        let spec = seeded_registry(&data);
        let pages = generate(&data, &out).unwrap();
        assert_eq!(pages, 3); // index.md, index.html, one run page
        let index = fs::read_to_string(out.join("index.md")).unwrap();
        assert!(index.contains("demo plate"), "{index}");
        let page = fs::read_to_string(out.join("runs").join(format!("{}.md", spec.content_hash())))
            .unwrap();
        assert!(page.contains("- converged: true"), "{page}");
        assert!(page.contains("- kind: \"plate\""), "{page}");
        let html = fs::read_to_string(out.join("index.html")).unwrap();
        assert!(html.contains("demo plate"));
        fs::remove_dir_all(&data).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn wall_time_is_quarantined_to_dedicated_lines() {
        let data = temp_dir("wall-data");
        let out = temp_dir("wall-out");
        let spec = seeded_registry(&data);
        generate(&data, &out).unwrap();
        let page = fs::read_to_string(out.join("runs").join(format!("{}.md", spec.content_hash())))
            .unwrap();
        // Every mention of wall-clock lives on a `- wall time:` line, so
        // the CI diff can strip them with one grep.
        for line in page.lines() {
            if line.contains("wall") {
                assert!(line.starts_with("- wall time:"), "leaked wall time: {line}");
            }
        }
        assert!(page.contains("- wall time: 12345 ns"));
        fs::remove_dir_all(&data).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn run_pages_surface_predicted_bound_tightness() {
        let data = temp_dir("tight-data");
        let out = temp_dir("tight-out");
        let spec = seeded_registry(&data);
        generate(&data, &out).unwrap();
        let page = fs::read_to_string(out.join("runs").join(format!("{}.md", spec.content_hash())))
            .unwrap();
        assert!(page.contains("- predicted cycle bound: "), "{page}");
        let line = page
            .lines()
            .find(|l| l.starts_with("- cycle bound tightness: "))
            .unwrap_or_else(|| panic!("no tightness line: {page}"));
        let ratio: f64 = line
            .trim_start_matches("- cycle bound tightness: ")
            .split('x')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio >= 1.0, "sound bound implies tightness >= 1: {line}");
        fs::remove_dir_all(&data).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn a_missing_data_dir_is_an_error_and_is_not_created() {
        let data = temp_dir("missing-data");
        let out = temp_dir("missing-out");
        let err = generate(&data, &out).unwrap_err();
        assert!(
            err.contains(&data.join("runs.jsonl").display().to_string()),
            "{err}"
        );
        assert!(!data.exists(), "the report created {}", data.display());
        assert!(!out.exists());
    }

    /// A torn tail, such as a live server's append in progress, is left
    /// out of the report and left in the log: not one byte changes.
    #[test]
    fn a_torn_tail_is_skipped_and_left_in_place() {
        let data = temp_dir("torn-data");
        let out = temp_dir("torn-out");
        let spec = seeded_registry(&data);
        let log = data.join("runs.jsonl");
        let mut bytes = fs::read(&log).unwrap();
        bytes.extend_from_slice(br#"{"schema":"fem2-registry/4","seq":1,"kind":"pla"#);
        fs::write(&log, &bytes).unwrap();
        assert_eq!(generate(&data, &out).unwrap(), 3);
        let index = fs::read_to_string(out.join("index.md")).unwrap();
        assert!(index.contains("1 completed runs."), "{index}");
        assert!(index.contains(&spec.content_hash()), "{index}");
        assert_eq!(fs::read(&log).unwrap(), bytes);
        assert_eq!(fs::read_dir(&data).unwrap().count(), 1, "runs.jsonl only");
        fs::remove_dir_all(&data).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn report_is_deterministic_modulo_nothing_for_same_registry() {
        let data = temp_dir("det-data");
        let out_a = temp_dir("det-a");
        let out_b = temp_dir("det-b");
        seeded_registry(&data);
        generate(&data, &out_a).unwrap();
        generate(&data, &out_b).unwrap();
        let a = fs::read_to_string(out_a.join("index.md")).unwrap();
        let b = fs::read_to_string(out_b.join("index.md")).unwrap();
        assert_eq!(a, b);
        fs::remove_dir_all(&data).unwrap();
        fs::remove_dir_all(&out_a).unwrap();
        fs::remove_dir_all(&out_b).unwrap();
    }
}
