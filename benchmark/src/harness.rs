//! The measuring protocol shared by every workload: seeded set-up, one
//! discarded warm-up, repetitions of a fixed amount of work until the
//! measurement window closes, output checks, and the result line.

use crate::spec::{self, Better, PER_LAYER};
use crate::stats::{median, percentile, quartiles, short};
use serde::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Exact simulated quantities of one repetition, one entry per operation
/// and field (`op003.cycles`), floats by their bits.
pub type Digest = Vec<(String, u64)>;

/// Append operation `op`'s exact `fields` to a digest.
pub fn push_fields(digest: &mut Digest, op: usize, fields: &[(&str, u64)]) {
    digest.extend(
        fields
            .iter()
            .map(|(field, v)| (format!("op{op:03}.{field}"), *v)),
    );
}

/// Sum of `field` over every operation of a digest.
pub fn total(digest: &Digest, field: &str) -> f64 {
    let fields = digest
        .iter()
        .filter(|(k, _)| k.split_once('.').is_some_and(|(_, f)| f == field));
    fields.map(|(_, v)| *v).sum::<u64>() as f64
}

/// One repetition of a workload's fixed work.
#[derive(Default)]
pub struct Rep {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Host milliseconds of each operation, in issue order.
    pub op_ms: Vec<f64>,
    /// Work units completed (see `WorkloadDef::work_unit`).
    pub work: u64,
    pub digest: Digest,
    /// Operations that failed outright, as printable reasons.
    pub failures: Vec<String>,
}

pub trait Workload {
    /// Run the fixed work once with tracing off.
    fn repetition(&mut self) -> Rep;
    /// Run one traced pass, adding per-layer samples to `out`. Returns the
    /// reasons any check failed, digest drift against `reference` included.
    fn layers(&mut self, reference: &Rep, out: &mut Layers) -> Vec<String>;
}

/// Per-layer samples gathered over the traced passes of one run.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// The newest sample of `name` (0 if none).
    pub fn last(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|v| v.last())
            .copied()
            .unwrap_or(0.0)
    }
}

/// Field-by-field comparison of two digests, as printable mismatches.
pub fn diff(workload: &str, what: &str, want: &Digest, got: &Digest) -> Vec<String> {
    let mut out = Vec::new();
    if want.len() != got.len() {
        out.push(format!(
            "{workload}: digest has {} fields, {what} has {}",
            got.len(),
            want.len()
        ));
    }
    for ((wk, wv), (gk, gv)) in want.iter().zip(got) {
        if wk != gk {
            out.push(format!("{workload}: field {gk} where {what} has {wk}"));
        } else if wv != gv {
            let (op, field) = gk.split_once('.').unwrap_or(("run", gk));
            out.push(format!(
                "{workload}: operation {op} field {field} is {gv}, {what} has {wv}"
            ));
        }
    }
    out
}

/// The pinned digest and exact counts of `workload` at the default seed.
fn expected(workload: &str, section: &str) -> Option<Digest> {
    let doc = serde_json::parse_value(include_str!("../expected.json")).ok()?;
    let Value::Obj(fields) = doc.get_field(workload).ok()?.get_field(section).ok()? else {
        return None;
    };
    Some(
        fields
            .iter()
            .filter_map(|(k, v)| match v {
                Value::UInt(u) => Some((k.clone(), *u)),
                _ => None,
            })
            .collect(),
    )
}

fn check_expected(name: &str, seed: u64, section: &str, got: &Digest) -> Vec<String> {
    if seed != spec::DEFAULT_SEED {
        return Vec::new();
    }
    match expected(name, section) {
        Some(want) => diff(name, "expected.json", &want, got),
        None => vec![format!(
            "{name}: expected.json pins no {section} for this workload"
        )],
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number with the samples it was taken from (none, and a
/// value of 0, for a per-layer metric the workload never touches).
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `metric@workload` pairs this number is predicted to move.
    pub moves: &'static [(&'static str, &'static str)],
    pub value: f64,
    pub min: f64,
    pub quartiles: [f64; 3],
    pub samples: usize,
}

impl Measured {
    /// An end-to-end figure beside the per-repetition samples it summarises.
    fn end_to_end(name: &str, value: f64, samples: &[f64]) -> Self {
        let m = spec::end_to_end(name).expect("a metric of spec::END_TO_END");
        Measured {
            value,
            ..Self::from_samples(m.name, m.unit, m.better, &[], samples)
        }
    }

    fn from_samples(
        name: &'static str,
        unit: &'static str,
        better: Better,
        moves: &'static [(&'static str, &'static str)],
        samples: &[f64],
    ) -> Self {
        Measured {
            name,
            unit,
            better,
            moves,
            value: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            quartiles: quartiles(samples),
            samples: samples.len(),
        }
    }
}

/// Everything one run (one workload, tracing on or off) produced.
pub struct Outcome {
    pub workload: &'static spec::WorkloadDef,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub digest: Digest,
    /// Exact per-layer counts (traced runs only), pinned like the digest.
    pub exact: Digest,
}

/// Fewest set-ups and repetitions a run takes.
const MIN_SAMPLES: usize = 5;
/// Set-up is repeated for this long before the warm-up ...
const SETUP_WINDOW: Duration = Duration::from_millis(100);
/// ... and for this long after every repetition.
const SETUP_SLICE: Duration = Duration::from_millis(5);
/// A run never measures longer than this, whatever `--seconds` says.
const HARD_STOP: Duration = Duration::from_secs(120);

/// Set up at least `at_least` times and until `budget` is spent, timing
/// each; the last instance built is returned.
fn timed_setups<W>(
    setup: &impl Fn(u64) -> W,
    seed: u64,
    samples: &mut Vec<f64>,
    at_least: usize,
    budget: Duration,
) -> W {
    let window = Instant::now();
    let mut built = 0;
    loop {
        let t = Instant::now();
        let workload = setup(seed);
        samples.push(t.elapsed().as_secs_f64());
        built += 1;
        if built >= at_least && window.elapsed() >= budget {
            return workload;
        }
    }
}

pub fn run_end_to_end<W: Workload>(
    def: &'static spec::WorkloadDef,
    seed: u64,
    seconds: u64,
    setup: impl Fn(u64) -> W,
) -> Outcome {
    let mut setup_s = Vec::new();
    let mut workload = timed_setups(&setup, seed, &mut setup_s, MIN_SAMPLES, SETUP_WINDOW);

    let warm_up = workload.repetition();
    let mut attempted = warm_up.op_ms.len() as u64;
    let mut failures = warm_up.failures.clone();
    failures.extend(check_expected(def.name, seed, "digest", &warm_up.digest));

    // The host is a small shared VM whose neighbours slow it for seconds
    // at a time; that noise only ever adds. Every repetition issues the
    // same operations in the same order, so each operation keeps its
    // fastest time over all repetitions, and the reported figures are
    // those of a repetition made of these: its wall time, its throughput,
    // its latency percentiles. The per-repetition medians and quartiles
    // are written beside them.
    let mut best_ms = vec![f64::INFINITY; warm_up.op_ms.len()];
    let (mut wall_s, mut work_per_s, mut p50, mut p90) = (vec![], vec![], vec![], vec![]);
    let window = Instant::now();
    let limit = Duration::from_secs(seconds).min(HARD_STOP);
    while wall_s.len() < MIN_SAMPLES || window.elapsed() < limit {
        let rep = workload.repetition();
        attempted += rep.op_ms.len() as u64;
        failures.extend(rep.failures);
        failures.extend(diff(
            def.name,
            "the first repetition",
            &warm_up.digest,
            &rep.digest,
        ));
        if rep.op_ms.len() == best_ms.len() {
            for (best, ms) in best_ms.iter_mut().zip(&rep.op_ms) {
                *best = best.min(*ms);
            }
        }
        wall_s.push(rep.wall_s);
        work_per_s.push(rep.work as f64 / rep.wall_s);
        p50.push(percentile(&rep.op_ms, 50.0));
        p90.push(percentile(&rep.op_ms, 90.0));
        // Set-up samples are spread over the whole window for the same
        // reason: a noisy second must not hold all of them.
        drop(timed_setups(&setup, seed, &mut setup_s, 1, SETUP_SLICE));
        if window.elapsed() >= HARD_STOP {
            break;
        }
    }
    drop(workload);

    let rss = peak_rss_mb();
    let fastest = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let best_wall_s = best_ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        Measured::end_to_end("setup_s", fastest(&setup_s), &setup_s),
        Measured::end_to_end("wall_s", best_wall_s, &wall_s),
        Measured::end_to_end("work_per_s", warm_up.work as f64 / best_wall_s, &work_per_s),
        Measured::end_to_end("op_p50_ms", percentile(&best_ms, 50.0), &p50),
        Measured::end_to_end("op_p90_ms", percentile(&best_ms, 90.0), &p90),
        Measured::end_to_end("peak_rss_mb", rss, &[rss]),
    ];
    Outcome {
        workload: def,
        seed,
        seconds,
        trace: false,
        metrics,
        attempted,
        failures,
        digest: warm_up.digest,
        exact: Vec::new(),
    }
}

/// Most traced passes one run makes; medians are taken across them.
const MAX_PASSES: usize = 9;

pub fn run_traced<W: Workload>(
    def: &'static spec::WorkloadDef,
    seed: u64,
    seconds: u64,
    setup: impl Fn(u64) -> W,
) -> Outcome {
    let mut workload = setup(seed);
    let reference = workload.repetition();
    let mut attempted = reference.op_ms.len() as u64;
    let mut failures = reference.failures.clone();
    failures.extend(check_expected(def.name, seed, "digest", &reference.digest));

    let mut layers = Layers::default();
    let window = Instant::now();
    let limit = Duration::from_secs(seconds).min(HARD_STOP);
    for _ in 0..MAX_PASSES {
        failures.extend(workload.layers(&reference, &mut layers));
        attempted += reference.op_ms.len() as u64;
        if window.elapsed() >= limit {
            break;
        }
    }
    drop(workload);

    let mut exact = Digest::new();
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            // A metric this workload never samples reports 0.
            let samples = layers.samples.remove(m.name).unwrap_or_default();
            if m.exact {
                let first = samples.first().copied().unwrap_or(0.0);
                if samples.iter().any(|s| s.to_bits() != first.to_bits()) {
                    failures.push(format!(
                        "{}: exact count {} differs between traced passes: {samples:?}",
                        def.name, m.name
                    ));
                }
                exact.push((m.name.to_string(), first as u64));
            }
            Measured::from_samples(m.name, m.unit, m.better, m.moves, &samples)
        })
        .collect();
    failures.extend(check_expected(def.name, seed, "exact", &exact));
    Outcome {
        workload: def,
        seed,
        seconds,
        trace: true,
        metrics,
        attempted,
        failures,
        digest: reference.digest,
        exact,
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn digest_value(d: &Digest) -> Value {
    Value::Obj(
        d.iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect(),
    )
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", Value::Float(value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let doc = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted.max(1))),
            ("failed", Value::UInt(self.failed())),
            ("metrics", Value::Obj(metrics)),
        ]);
        serde_json::to_string(&doc).expect("finite floats serialize")
    }

    /// Everything the result files keep beside the medians.
    pub fn detail(&self) -> Value {
        let finite = |f: f64| Value::Float(if f.is_finite() { f } else { 0.0 });
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", finite(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                        ("min", finite(m.min)),
                        ("q1", finite(m.quartiles[0])),
                        ("median", finite(m.quartiles[1])),
                        ("q3", finite(m.quartiles[2])),
                        ("samples", Value::UInt(m.samples as u64)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.name.into())),
            ("seed", Value::UInt(self.seed)),
            ("seconds", Value::UInt(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed())),
            (
                "failures",
                Value::Arr(
                    self.failures
                        .iter()
                        .take(32)
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("metrics", Value::Obj(metrics)),
            ("digest", digest_value(&self.digest)),
            ("exact", digest_value(&self.exact)),
        ])
    }

    /// Print every metric the run sampled by name with its unit, the failed
    /// checks, the detail line the suite runner collects, and the result
    /// line last.
    pub fn print(&self) {
        let mode = if self.trace {
            "per-layer, tracing on"
        } else {
            "end-to-end, tracing off"
        };
        let w = self.workload;
        println!("{} seed {} ({mode})", w.name, self.seed);
        println!("  why: {}", w.why);
        println!("  work_per_s counts {}", w.work_unit);
        for m in self.metrics.iter().filter(|m| m.samples > 0) {
            let moves: Vec<String> = m
                .moves
                .iter()
                .map(|(metric, on)| format!("{metric}@{on}"))
                .collect();
            println!(
                "  {:<28} {:>12} {:<6} {} is better; samples: min {}, q1 {}, median {}, q3 {}, n={}{}{}",
                m.name,
                short(m.value),
                m.unit,
                m.better.name(),
                short(m.min),
                short(m.quartiles[0]),
                short(m.quartiles[1]),
                short(m.quartiles[2]),
                m.samples,
                if moves.is_empty() { "" } else { "; should move " },
                moves.join(", "),
            );
        }
        for f in &self.failures {
            println!("  FAILED {f}");
        }
        println!(
            "detail {}",
            serde_json::to_string(&self.detail()).expect("finite floats serialize")
        );
        println!("{}", self.result_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_the_operation_and_field() {
        let mut a = Digest::new();
        push_fields(&mut a, 0, &[("cycles", 5), ("events", 1)]);
        push_fields(&mut a, 1, &[("cycles", 7), ("events", 2)]);
        assert_eq!(a[2], ("op001.cycles".to_string(), 7));
        assert_eq!(total(&a, "cycles"), 12.0);
        let mut b = a.clone();
        assert!(diff("w", "ref", &a, &b).is_empty());
        b[2].1 = 8;
        let out = diff("w", "ref", &a, &b);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].contains("operation op001 field cycles is 8, ref has 7"),
            "{}",
            out[0]
        );
        b.pop();
        assert!(diff("w", "ref", &a, &b)[0].contains("3 fields"));
    }
}
