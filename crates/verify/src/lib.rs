//! # fem2-verify — static analysis of FEM-2 scenarios and layer grammars
//!
//! The paper specifies each virtual-machine layer formally precisely so the
//! specifications can be *analyzed*, not just admired. This crate is that
//! analyzer: it consumes a scenario lowered to a [`ScenarioScript`] (plus
//! the [`MachineConfig`] it will run on) or a layer's H-graph [`Grammar`],
//! and emits structured diagnostics — [`Severity::Error`] /
//! [`Severity::Warning`] / [`Severity::Info`] with source spans into the
//! scenario description — **without executing the simulation**.
//!
//! Four passes:
//!
//! 1. [`protocol`] — kernel-protocol conformance: every message sequence is
//!    replayed through the finite automaton `fem2-kernel` exports next to
//!    its message types (initiate/terminate pairing, pause/resume legality,
//!    no traffic to never-initiated tasks, window open → exchange → close);
//! 2. [`deadlock`] — static wait-for analysis of window exchanges: sends
//!    and receives are matched pairwise, unmatched halves are reported, and
//!    a cycle in the rendezvous event graph is reported with the shortest
//!    counterexample wait chain;
//! 3. [`storage`] — worst-case per-cluster heap and activation-record
//!    demand versus the configured arena (the `MemFault` class, caught
//!    before any cycle is simulated);
//! 4. [`grammar`] — well-formedness of the layer grammars themselves:
//!    unreachable nonterminals, duplicate (unused) productions, and
//!    non-productive rules.
//!
//! ```
//! use fem2_verify::{check_script, lower::{solve_script, SolveShape}};
//! use fem2_machine::MachineConfig;
//!
//! let machine = MachineConfig::fem2_default();
//! let script = solve_script(
//!     "plate 32x32",
//!     &machine,
//!     machine.total_workers(),
//!     SolveShape { unknowns: 32 * 32, vectors: 5, halo_words: 32 },
//! );
//! let report = check_script(&script, &machine);
//! assert!(report.is_clean(), "{report}");
//! ```

pub mod cost;
pub mod deadlock;
pub mod diag;
pub mod grammar;
pub mod lower;
pub mod protocol;
pub mod script;
pub mod storage;

pub use cost::{check_cost, CostModeler, CostParams, CostReport, CostVerdict, PhaseCost};
pub use diag::{Diagnostic, Report, Severity, Span};
pub use script::{Op, ScenarioScript};

use fem2_hgraph::Grammar;
use fem2_machine::MachineConfig;

/// Run passes 1–3 (protocol, deadlock, storage) over one scenario script.
/// The report carries the script's description only when a diagnostic
/// points into it, since rendering those excerpts is its one use.
pub fn check_script(script: &ScenarioScript, machine: &MachineConfig) -> Report {
    let mut report = Report::new(script.name.clone(), String::new());
    protocol::check(script, machine, &mut report);
    deadlock::check(script, &mut report);
    storage::check(script, machine, &mut report);
    if report.diagnostics.iter().any(|d| d.span.is_some()) {
        report.source = script.source();
    }
    report
}

/// Run pass 4 (well-formedness) over one grammar.
pub fn check_grammar(grammar: &Grammar) -> Report {
    grammar::check(grammar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_hgraph::{AtomKind, Shape};

    #[test]
    fn check_script_runs_all_three_passes() {
        let mut s = ScenarioScript::new("multi");
        // Protocol error (never initiated), deadlock error (self-exchange
        // needs an open window too), storage error (oversized alloc).
        s.push(Op::WindowSend {
            from: "a".into(),
            to: "a".into(),
            window: "w".into(),
            words: 1,
        });
        s.push(Op::Alloc {
            cluster: 0,
            words: u64::MAX / 2,
            what: "the moon".into(),
        });
        let r = check_script(&s, &MachineConfig::fem2_default());
        let passes: std::collections::BTreeSet<&str> =
            r.diagnostics.iter().map(|d| d.pass).collect();
        assert!(passes.contains("protocol"), "{}", r.render());
        assert!(passes.contains("deadlock"), "{}", r.render());
        assert!(passes.contains("storage"), "{}", r.render());
    }

    #[test]
    fn check_grammar_delegates_to_pass_four() {
        let g = Grammar::builder("g")
            .rule("Root", Shape::node(AtomKind::Int))
            .rule("Orphan", Shape::node(AtomKind::Sym))
            .build()
            .unwrap();
        let r = check_grammar(&g);
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn empty_script_is_clean() {
        let s = ScenarioScript::new("empty");
        let r = check_script(&s, &MachineConfig::fem2_default());
        assert!(r.is_clean(), "{}", r.render());
    }
}
