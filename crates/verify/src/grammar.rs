//! Pass 4: H-graph grammar well-formedness.
//!
//! The layer grammars are the formal backbone of the design method; this
//! pass keeps them honest. Three checks per grammar:
//!
//! * **reachability** — every nonterminal must be reachable from the start
//!   symbol (the first-declared production); unreachable ones are dead
//!   spec text (warning);
//! * **unused productions** — two identical alternatives of one rule mean
//!   the later one can never be the reason a value conforms (warning);
//! * **productivity** — a least-fixpoint pass marks nonterminals some
//!   *finite* object can conform to; the rest are satisfiable only by
//!   cyclic data under the coinductive semantics, which is legal here but
//!   worth flagging (warning), since a spec author usually intends at
//!   least one base case.

use crate::diag::{Report, Severity};
use fem2_hgraph::Grammar;
use std::collections::BTreeSet;

const PASS: &str = "grammar";

/// Analyze one grammar, returning its report.
pub(crate) fn check(grammar: &Grammar) -> Report {
    let mut report = Report::new(format!("grammar '{}'", grammar.name()), String::new());

    let Some(start) = grammar.start() else {
        report.push(
            Severity::Warning,
            PASS,
            None,
            "grammar has no productions at all",
        );
        return report;
    };

    // Reachability from the start symbol.
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut work = vec![start];
    while let Some(nt) = work.pop() {
        if reachable.insert(nt) {
            work.extend(grammar.referenced_by(nt));
        }
    }
    for nt in grammar.declaration_order() {
        if !reachable.contains(nt) {
            report.push(
                Severity::Warning,
                PASS,
                None,
                format!("nonterminal '{nt}' is unreachable from the start symbol '{start}'"),
            );
        }
    }

    // Unused productions: alternatives shadowed by an identical earlier one.
    for nt in grammar.declaration_order() {
        let described = grammar.describe_alternatives(nt);
        for (i, d) in described.iter().enumerate() {
            if described[..i].contains(d) {
                report.push(
                    Severity::Warning,
                    PASS,
                    None,
                    format!(
                        "alternative {} of '{nt}' duplicates an earlier alternative \
                         ({d}) and can never be used",
                        i + 1
                    ),
                );
            }
        }
    }

    // Productivity: least fixpoint of "some alternative's requirements are
    // all already productive".
    let mut productive: BTreeSet<&str> = BTreeSet::new();
    loop {
        let mut changed = false;
        for nt in grammar.declaration_order() {
            if productive.contains(nt) {
                continue;
            }
            let alts = grammar.alternative_count(nt);
            let ok = (0..alts).any(|a| {
                grammar
                    .alternative_requires(nt, a)
                    .iter()
                    .all(|r| productive.contains(r))
            });
            if ok {
                productive.insert(nt);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for nt in grammar.declaration_order() {
        if !productive.contains(nt) {
            report.push(
                Severity::Warning,
                PASS,
                None,
                format!(
                    "nonterminal '{nt}' is non-productive: no finite object conforms \
                     (only cyclic data can, under the coinductive semantics)"
                ),
            );
        }
    }

    if report.diagnostics.is_empty() {
        report.push(
            Severity::Info,
            PASS,
            None,
            format!(
                "{} production(s), all reachable and productive",
                grammar.rule_count()
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_hgraph::{AtomKind, Shape};

    #[test]
    fn empty_grammar_warns() {
        let g = Grammar::builder("void").build().unwrap();
        let r = check(&g);
        assert_eq!(r.warning_count(), 1);
        assert!(r.diagnostics[0].message.contains("no productions"));
    }

    #[test]
    fn healthy_grammar_is_clean() {
        let g = Grammar::builder("list")
            .rule("List", Shape::node(AtomKind::Int).arc_opt("next", "List"))
            .build()
            .unwrap();
        let r = check(&g);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn unreachable_nonterminal_flagged() {
        let g = Grammar::builder("dead")
            .rule("Root", Shape::node(AtomKind::Sym))
            .rule("Orphan", Shape::node(AtomKind::Int))
            .build()
            .unwrap();
        let r = check(&g);
        assert_eq!(r.warning_count(), 1, "{}", r.render());
        assert!(r.diagnostics[0].message.contains("'Orphan'"));
        assert!(r.diagnostics[0].message.contains("'Root'"));
    }

    #[test]
    fn duplicate_alternative_flagged() {
        let g = Grammar::builder("dup")
            .rule("Val", Shape::node(AtomKind::Int))
            .rule("Val", Shape::node(AtomKind::Int))
            .build()
            .unwrap();
        let r = check(&g);
        assert_eq!(r.warning_count(), 1, "{}", r.render());
        assert!(r.diagnostics[0].message.contains("duplicates"));
    }

    #[test]
    fn self_referential_required_arc_is_non_productive() {
        let g = Grammar::builder("ring")
            .rule("Ring", Shape::node(AtomKind::Int).arc("next", "Ring"))
            .build()
            .unwrap();
        let r = check(&g);
        assert_eq!(r.warning_count(), 1, "{}", r.render());
        assert!(r.diagnostics[0].message.contains("non-productive"));
        assert!(r.diagnostics[0].message.contains("'Ring'"));
    }

    #[test]
    fn base_case_restores_productivity() {
        let g = Grammar::builder("tree")
            .rule("Tree", Shape::node(AtomKind::Int).arc("left", "Tree"))
            .rule("Tree", Shape::node(AtomKind::Sym)) // leaf base case
            .build()
            .unwrap();
        let r = check(&g);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn mutual_recursion_without_base_case_flagged() {
        let g = Grammar::builder("mutual")
            .rule("A", Shape::node(AtomKind::Int).arc("b", "B"))
            .rule("B", Shape::node(AtomKind::Int).arc("a", "A"))
            .build()
            .unwrap();
        let r = check(&g);
        assert_eq!(r.warning_count(), 2, "{}", r.render());
    }
}
