//! Pass 3: worst-case storage bounds per cluster.
//!
//! Sums, per cluster, everything the script can have live at once — every
//! [`Op::Alloc`] (the analyzer's model is worst-case: nothing is freed
//! before scenario end) plus one activation record per initiated task
//! replication — and compares the total against the configured arena
//! ([`MachineConfig::memory_per_cluster`]). Exceeding the arena is the
//! static form of the `MemFault` class the fault plane injects dynamically:
//! caught here, it costs zero simulated cycles.

use crate::diag::{Report, Severity, Span};
use crate::script::{Op, ScenarioScript};
use fem2_machine::MachineConfig;
use std::collections::BTreeMap;
use std::fmt;

const PASS: &str = "storage";

/// Modeled size of one task activation record, in words: header, saved
/// registers, and the argument area the kernel copies in on initiate.
pub const ACTIVATION_RECORD_WORDS: u64 = 64;

/// Fraction of the arena above which demand draws a warning (7/8).
const WARN_NUM: u64 = 7;
const WARN_DEN: u64 = 8;

/// What one contribution to a cluster's demand is for, borrowed from the
/// script and rendered only when an over-arena diagnostic quotes it.
#[derive(Clone, Copy)]
enum Claim<'s> {
    /// An `Alloc`'s own description.
    Alloc(&'s str),
    /// The activation records of an initiated task.
    Activation(&'s str),
}

impl fmt::Display for Claim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Claim::Alloc(what) => f.write_str(what),
            Claim::Activation(task) => write!(f, "activation record of '{task}'"),
        }
    }
}

/// Run the storage pass, appending findings to `report`.
pub fn check<'s>(script: &'s ScenarioScript, machine: &MachineConfig, report: &mut Report) {
    if let Err(e) = machine.validate() {
        report.push(
            Severity::Error,
            PASS,
            None,
            format!("machine configuration is invalid: {e}"),
        );
        return;
    }

    // Per-cluster demand, plus the span of the largest single contribution
    // so the diagnostic has a line to point at.
    let mut demand: BTreeMap<u32, u64> = BTreeMap::new();
    let mut biggest: BTreeMap<u32, (u64, Span, Claim<'s>)> = BTreeMap::new();
    let mut note = |cluster: u32, words: u64, span: Span, what: Claim<'s>| {
        *demand.entry(cluster).or_insert(0) += words;
        let e = biggest
            .entry(cluster)
            .or_insert((0, span, Claim::Alloc("")));
        if words > e.0 {
            *e = (words, span, what);
        }
    };

    for (op, span) in script.ops() {
        match op {
            Op::Alloc {
                cluster,
                words,
                what,
            } => {
                if *cluster >= machine.clusters {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(span),
                        format!(
                            "allocation of {words} words targets cluster {cluster}, but the \
                             machine has only clusters 0..{}",
                            machine.clusters
                        ),
                    );
                } else {
                    note(*cluster, *words, span, Claim::Alloc(what));
                }
            }
            Op::Initiate {
                task,
                cluster,
                replications,
            } if *cluster < machine.clusters => {
                note(
                    *cluster,
                    ACTIVATION_RECORD_WORDS * u64::from(*replications),
                    span,
                    Claim::Activation(task),
                );
            }
            _ => {}
        }
    }

    let capacity = machine.memory_per_cluster;
    let mut worst: Option<(u32, u64)> = None;
    for (&cluster, &words) in &demand {
        if worst.is_none_or(|(_, w)| words > w) {
            worst = Some((cluster, words));
        }
        if words > capacity {
            let (big_words, big_span, big_what) = &biggest[&cluster];
            report.push(
                Severity::Error,
                PASS,
                Some(*big_span),
                format!(
                    "cluster {cluster} worst-case demand is {words} words but its arena \
                     is {capacity} words ({} words over); largest contribution is \
                     {big_words} words for {big_what}",
                    words - capacity
                ),
            );
        } else if u128::from(words) * u128::from(WARN_DEN)
            > u128::from(capacity) * u128::from(WARN_NUM)
        {
            report.push(
                Severity::Warning,
                PASS,
                None,
                format!(
                    "cluster {cluster} worst-case demand {words} words exceeds {}/{} of \
                     its {capacity}-word arena",
                    WARN_NUM, WARN_DEN
                ),
            );
        }
    }
    if let Some((cluster, words)) = worst {
        report.push(
            Severity::Info,
            PASS,
            None,
            format!(
                "worst-case storage: {words} of {capacity} words on cluster {cluster} \
                 ({}%)",
                u128::from(words) * 100 / u128::from(capacity.max(1))
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(script: &ScenarioScript, machine: &MachineConfig) -> Report {
        let mut r = Report::new(script.name.clone(), script.source());
        check(script, machine, &mut r);
        r
    }

    fn alloc(s: &mut ScenarioScript, cluster: u32, words: u64) {
        s.push(Op::Alloc {
            cluster,
            words,
            what: "test block".into(),
        });
    }

    #[test]
    fn within_bounds_is_clean_with_info() {
        let m = MachineConfig::fem2_default();
        let mut s = ScenarioScript::new("small");
        alloc(&mut s, 0, 1000);
        let r = run(&s, &m);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.diagnostics.len(), 1, "one info summary");
        assert_eq!(r.diagnostics[0].severity, Severity::Info);
    }

    #[test]
    fn over_arena_is_an_error_naming_the_cluster() {
        let m = MachineConfig::fem1_style(4); // 64 Kwords per cluster
        let mut s = ScenarioScript::new("big");
        alloc(&mut s, 2, (64 << 10) + 1);
        let r = run(&s, &m);
        assert_eq!(r.error_count(), 1, "{}", r.render());
        let msg = &r.diagnostics[0].message;
        assert!(msg.contains("cluster 2"), "{msg}");
        assert!(msg.contains("1 words over"), "{msg}");
        assert!(msg.contains("test block"), "actionable: {msg}");
    }

    #[test]
    fn demand_accumulates_across_allocs_and_activation_records() {
        let m = MachineConfig::fem1_style(1); // one 64 Kword cluster
        let cap = 64 << 10;
        let mut s = ScenarioScript::new("sum");
        s.push(Op::Initiate {
            task: "t".into(),
            cluster: 0,
            replications: 1,
        });
        alloc(&mut s, 0, cap - ACTIVATION_RECORD_WORDS); // exactly fills
        let r = run(&s, &m);
        assert_eq!(r.error_count(), 0, "{}", r.render());
        let mut s2 = ScenarioScript::new("sum2");
        s2.push(Op::Initiate {
            task: "t".into(),
            cluster: 0,
            replications: 1,
        });
        alloc(&mut s2, 0, cap - ACTIVATION_RECORD_WORDS + 1); // one word over
        let r2 = run(&s2, &m);
        assert_eq!(r2.error_count(), 1, "{}", r2.render());
    }

    #[test]
    fn near_capacity_warns() {
        let m = MachineConfig::fem1_style(1);
        let cap: u64 = 64 << 10;
        let mut s = ScenarioScript::new("near");
        alloc(&mut s, 0, cap * 15 / 16); // 93%: above 7/8, below capacity
        let r = run(&s, &m);
        assert_eq!(r.error_count(), 0);
        assert_eq!(r.warning_count(), 1, "{}", r.render());
    }

    #[test]
    fn invalid_machine_reported() {
        let mut m = MachineConfig::fem2_default();
        m.clusters = 0;
        let s = ScenarioScript::new("cfg");
        let r = run(&s, &m);
        assert_eq!(r.error_count(), 1);
        assert!(r.diagnostics[0].message.contains("invalid"));
    }

    #[test]
    fn alloc_on_missing_cluster_rejected() {
        let m = MachineConfig::fem2_default();
        let mut s = ScenarioScript::new("oob");
        alloc(&mut s, 17, 10);
        let r = run(&s, &m);
        assert_eq!(r.error_count(), 1);
        assert!(r.diagnostics[0].message.contains("cluster 17"));
    }

    #[test]
    fn replications_scale_activation_demand() {
        let m = MachineConfig::fem1_style(1);
        let cap: u64 = 64 << 10;
        let k = (cap / ACTIVATION_RECORD_WORDS) as u32 + 1;
        let mut s = ScenarioScript::new("many");
        s.push(Op::Initiate {
            task: "swarm".into(),
            cluster: 0,
            replications: k,
        });
        let r = run(&s, &m);
        assert_eq!(r.error_count(), 1, "{}", r.render());
        assert!(r.diagnostics[0].message.contains("swarm"));
    }
}
