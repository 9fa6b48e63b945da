//! `compare A.json B.json`: one row per workload × end-to-end metric with
//! both medians and quartiles, the ratio with its base, the bound, and a
//! verdict — section 6 of the choosing-metrics guide without hand
//! arithmetic. A is the base.

use crate::spec::{self, Better};
use crate::stats::short;
use serde::json::Value;
use std::process::ExitCode;

fn number(v: &Value, key: &str) -> Option<f64> {
    match v.get_field(key).ok()? {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

/// One end-to-end figure of a result file with the quartiles of the
/// per-repetition samples it was taken from.
#[derive(Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Sample {
    /// How unsteady the host was while this was measured: the
    /// interquartile range of the repetitions over their median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sample(doc: &Value, workload: &str, metric: &str) -> Option<Sample> {
    let Ok(Value::Arr(runs)) = doc.get_field("runs") else {
        return None;
    };
    let run = runs.iter().find(|r| {
        r.get_field("workload").ok() == Some(&Value::Str(workload.into()))
            && r.get_field("trace").ok() == Some(&Value::Bool(false))
    })?;
    let m = run.get_field("metrics").ok()?.get_field(metric).ok()?;
    Some(Sample {
        value: number(m, "value")?,
        q1: number(m, "q1")?,
        median: number(m, "median")?,
        q3: number(m, "q3")?,
    })
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `a` is the base. Figures within `bound` of each other are the *same*.
/// Beyond it the change is *better* or *worse* — unless either run's
/// repetitions spread wider than the bound and their interquartile ranges
/// overlap, which leaves it *unresolved*.
pub fn verdict(a: Sample, b: Sample, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worse_by.abs() <= bound {
        return Verdict::Same;
    }
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread().max(b.spread()) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fem2-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for key in ["version", "seed", "seconds"] {
        if a.get_field(key).ok() != b.get_field(key).ok() || a.get_field(key).is_err() {
            eprintln!("fem2-benchmark: the files differ in `{key}`; they cannot be compared");
            return ExitCode::from(2);
        }
    }
    let commit = |doc: &Value| match doc.get_field("commit") {
        Ok(Value::Str(s)) => s.chars().take(12).collect(),
        _ => "unknown".to_string(),
    };
    println!("A (base) = {} @ {}", path_a, commit(&a));
    println!("B        = {} @ {}", path_b, commit(&b));
    println!(
        "{:<13} {:<12} {:>11} {:>24} {:>11} {:>24} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "A reps [q1, q3]", "B", "B reps [q1, q3]", "B/A", "bound"
    );
    let mut worse = 0;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(sa), Some(sb)) = (sample(&a, w.name, m.name), sample(&b, w.name, m.name))
            else {
                println!(
                    "{:<13} {:<12} missing from one of the files",
                    w.name, m.name
                );
                continue;
            };
            let v = verdict(sa, sb, m.better, m.bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<13} {:<12} {:>11} {:>24} {:>11} {:>24} {:>8.4}x {:>5.0}%  {}",
                w.name,
                m.name,
                short(sa.value),
                format!("[{}, {}]", short(sa.q1), short(sa.q3)),
                short(sb.value),
                format!("[{}, {}]", short(sb.q1), short(sb.q3)),
                sb.value / sa.value,
                m.bound * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    println!("ratios are B over A; A is the base; units are those of BENCHMARK.json");
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = |v: f64| Sample {
            value: v,
            q1: v * 1.01,
            median: v * 1.02,
            q3: v * 1.03,
        };
        let lower = Better::Lower;
        assert_eq!(
            verdict(steady(1.0), steady(1.08), lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(steady(1.0), steady(0.93), lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(steady(1.0), steady(1.2), lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(steady(1.0), steady(0.8), lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(steady(1.0), steady(0.8), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(steady(1.0), steady(1.2), Better::Higher, 0.10),
            Verdict::Better
        );
        // A noisy host and overlapping repetitions: not a finding either way.
        let noisy = |v: f64| Sample {
            value: v,
            q1: v * 1.05,
            median: v * 1.3,
            q3: v * 1.6,
        };
        assert_eq!(
            verdict(noisy(1.0), noisy(1.2), lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy, but every quartile of B beyond A's: still a finding.
        assert_eq!(verdict(noisy(1.0), noisy(2.0), lower, 0.10), Verdict::Worse);
    }
}
