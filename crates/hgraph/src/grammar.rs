//! H-graph grammars: BNF-style productions whose "language" is a set of
//! H-graphs representing a class of data objects.
//!
//! A [`Grammar`] maps nonterminal names to alternatives of [`Shape`]s. A
//! shape constrains one storage location (its atom kind and its labeled
//! access paths, no others) or one graph (via its entry node). Conformance
//! checking is coinductive: cyclic data structures (rings, doubly-linked
//! chains) conform as long as every unfolding matches, which is the greatest
//! fixpoint reading of recursive productions.
//!
//! ```
//! use fem2_hgraph::prelude::*;
//!
//! // TaskTree ::= node(Sym) with children[0..k] -> TaskTree
//! let g = Grammar::builder("tasks")
//!     .rule("TaskTree", Shape::node(AtomKind::Sym).arcs_indexed("TaskTree"))
//!     .build()
//!     .unwrap();
//!
//! let mut h = HGraph::new();
//! let gr = h.new_graph("t");
//! let root = h.add_node(gr, Value::sym("root"));
//! let kid = h.add_node(gr, Value::sym("kid"));
//! h.add_arc(gr, root, Selector::index(0), kid).unwrap();
//! assert!(g.node_conforms(&h, gr, root, "TaskTree").is_ok());
//! ```

use crate::graph::{GraphId, NodeId, Selector};
use crate::hier::{Atom, HGraph, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Constraint on the atomic value of a storage location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AtomKind {
    /// Any integer.
    Int,
    /// Any string.
    Str,
    /// Any symbol.
    Sym,
    /// Exactly the named symbol (keyword positions, tags, states).
    SymExact(String),
}

impl AtomKind {
    fn matches(&self, a: &Atom) -> bool {
        match (self, a) {
            (AtomKind::Int, Atom::Int(_)) => true,
            (AtomKind::Str, Atom::Str(_)) => true,
            (AtomKind::Sym, Atom::Sym(_)) => true,
            (AtomKind::SymExact(want), Atom::Sym(got)) => want == got,
            _ => false,
        }
    }
}

/// Whether a named access path must be present.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Multiplicity {
    /// The arc must exist.
    One,
    /// The arc may be absent; if present it must conform.
    Optional,
}

/// A requirement on one named access path out of a node.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ArcSpec {
    selector: String,
    target: String,
    mult: Multiplicity,
}

/// One alternative of a production: the shape a node or graph must have.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Shape {
    kind: ShapeKind,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum ShapeKind {
    /// A node holding an atom of the given kind. Closed: named arcs
    /// beyond `arcs`, and indexed arcs without `indexed`, do not conform.
    Node {
        value: AtomKind,
        arcs: Vec<ArcSpec>,
        /// Dense indexed arcs `[0..k)` each conforming to this nonterminal.
        indexed: Option<String>,
    },
    /// A graph whose entry node conforms to the named node nonterminal.
    GraphEntry(String),
}

impl Shape {
    /// A node holding an atom of kind `k`, with no arcs required.
    pub fn node(k: AtomKind) -> Self {
        Shape {
            kind: ShapeKind::Node {
                value: k,
                arcs: Vec::new(),
                indexed: None,
            },
        }
    }

    /// A graph-level shape: the graph's entry node must conform to `nt`.
    pub fn graph_entry(nt: impl Into<String>) -> Self {
        Shape {
            kind: ShapeKind::GraphEntry(nt.into()),
        }
    }

    /// Require a named arc to a node conforming to `target`.
    pub fn arc(mut self, selector: impl Into<String>, target: impl Into<String>) -> Self {
        self.push_arc(selector, target, Multiplicity::One);
        self
    }

    /// Permit an optional named arc to a node conforming to `target`.
    pub fn arc_opt(mut self, selector: impl Into<String>, target: impl Into<String>) -> Self {
        self.push_arc(selector, target, Multiplicity::Optional);
        self
    }

    /// Require that all indexed arcs form a dense sequence `[0..k)` whose
    /// targets each conform to `target` (k may be zero).
    pub fn arcs_indexed(mut self, target: impl Into<String>) -> Self {
        if let ShapeKind::Node { indexed, .. } = &mut self.kind {
            *indexed = Some(target.into());
        } else {
            panic!("arcs_indexed applies to node shapes only");
        }
        self
    }

    fn push_arc(
        &mut self,
        selector: impl Into<String>,
        target: impl Into<String>,
        mult: Multiplicity,
    ) {
        if let ShapeKind::Node { arcs, .. } = &mut self.kind {
            arcs.push(ArcSpec {
                selector: selector.into(),
                target: target.into(),
                mult,
            });
        } else {
            panic!("arc specs apply to node shapes only");
        }
    }

    fn referenced(&self) -> Vec<&str> {
        match &self.kind {
            ShapeKind::Node { arcs, indexed, .. } => {
                let mut v: Vec<&str> = arcs.iter().map(|a| a.target.as_str()).collect();
                if let Some(nt) = indexed {
                    v.push(nt);
                }
                v
            }
            ShapeKind::GraphEntry(nt) => vec![nt.as_str()],
        }
    }

    /// Nonterminals this shape needs to be productive before it can be
    /// satisfied by finite data (see [`Grammar::alternative_requires`]).
    fn required(&self) -> Vec<&str> {
        match &self.kind {
            ShapeKind::Node { arcs, .. } => arcs
                .iter()
                .filter(|a| a.mult == Multiplicity::One)
                .map(|a| a.target.as_str())
                .collect(),
            ShapeKind::GraphEntry(nt) => vec![nt.as_str()],
        }
    }
}

/// Errors from grammar construction and conformance checking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GrammarError {
    /// A shape references a nonterminal with no production.
    UndefinedReference { in_rule: String, to: String },
    /// Conformance was requested against an unknown nonterminal.
    UnknownNonterminal(String),
    /// The value does not conform; the message localizes the failure.
    Mismatch { nonterminal: String, detail: String },
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::UndefinedReference { in_rule, to } => {
                write!(
                    f,
                    "rule {in_rule:?} references undefined nonterminal {to:?}"
                )
            }
            GrammarError::UnknownNonterminal(nt) => write!(f, "unknown nonterminal {nt:?}"),
            GrammarError::Mismatch {
                nonterminal,
                detail,
            } => {
                write!(f, "does not conform to {nonterminal:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// An H-graph grammar: named productions, each a list of alternative shapes.
#[derive(Clone, Debug)]
pub struct Grammar {
    name: String,
    rules: BTreeMap<String, Vec<Shape>>,
    /// Nonterminals in declaration order; the first is the start symbol.
    order: Vec<String>,
}

/// Builder for [`Grammar`]; validates cross-references at [`build`](GrammarBuilder::build).
#[derive(Clone, Debug)]
pub struct GrammarBuilder {
    name: String,
    rules: BTreeMap<String, Vec<Shape>>,
    order: Vec<String>,
}

impl Grammar {
    /// Start building a grammar with the given name.
    pub fn builder(name: impl Into<String>) -> GrammarBuilder {
        GrammarBuilder {
            name: name.into(),
            rules: BTreeMap::new(),
            order: Vec::new(),
        }
    }

    /// The grammar's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of productions.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The defined nonterminal names (sorted).
    pub fn nonterminals(&self) -> impl Iterator<Item = &str> {
        self.rules.keys().map(|s| s.as_str())
    }

    /// The start symbol: the first nonterminal declared on the builder.
    /// `None` only for an empty grammar.
    pub fn start(&self) -> Option<&str> {
        self.order.first().map(|s| s.as_str())
    }

    /// Nonterminal names in the order they were declared on the builder.
    pub fn declaration_order(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|s| s.as_str())
    }

    /// The number of alternatives for `nt` (zero if undefined).
    pub fn alternative_count(&self, nt: &str) -> usize {
        self.rules.get(nt).map_or(0, Vec::len)
    }

    /// Nonterminals referenced from any alternative of `nt`, deduplicated
    /// and sorted. Empty for undefined nonterminals.
    pub fn referenced_by(&self, nt: &str) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .rules
            .get(nt)
            .map(|shapes| shapes.iter().flat_map(Shape::referenced).collect())
            .unwrap_or_default();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Nonterminals that alternative `alt` of `nt` *requires* for finite,
    /// non-cyclic data: required arcs and graph entries. An alternative is
    /// inductively productive when every requirement is; optional arcs and
    /// indexed sequences (which may be empty) require nothing. Empty when
    /// out of range.
    pub fn alternative_requires(&self, nt: &str, alt: usize) -> Vec<&str> {
        self.rules
            .get(nt)
            .and_then(|shapes| shapes.get(alt))
            .map(Shape::required)
            .unwrap_or_default()
    }

    /// Check that node `n` of graph `g` conforms to nonterminal `nt`.
    pub fn node_conforms(
        &self,
        h: &HGraph,
        g: GraphId,
        n: NodeId,
        nt: &str,
    ) -> Result<(), GrammarError> {
        let mut memo = Memo::default();
        if self.check_node(h, g, n, nt, &mut memo)? {
            Ok(())
        } else {
            Err(GrammarError::Mismatch {
                nonterminal: nt.to_string(),
                detail: format!("node {n:?} in graph {g:?}"),
            })
        }
    }

    /// Check that graph `g` conforms to (graph-level) nonterminal `nt`.
    pub fn graph_conforms(&self, h: &HGraph, g: GraphId, nt: &str) -> Result<(), GrammarError> {
        let mut memo = Memo::default();
        if self.check_graph(h, g, nt, &mut memo)? {
            Ok(())
        } else {
            Err(GrammarError::Mismatch {
                nonterminal: nt.to_string(),
                detail: format!("graph {g:?} (\"{}\")", h.label(g)),
            })
        }
    }

    /// Human-readable descriptions of each alternative of `nt` (used by the
    /// BNF renderer and by well-formedness analyzers to compare
    /// alternatives). Unknown nonterminals yield an empty list.
    pub fn describe_alternatives(&self, nt: &str) -> Vec<String> {
        self.rules
            .get(nt)
            .map(|shapes| shapes.iter().map(describe_shape).collect())
            .unwrap_or_default()
    }

    fn alternatives(&self, nt: &str) -> Result<&[Shape], GrammarError> {
        self.rules
            .get(nt)
            .map(|v| v.as_slice())
            .ok_or_else(|| GrammarError::UnknownNonterminal(nt.to_string()))
    }

    fn check_graph(
        &self,
        h: &HGraph,
        g: GraphId,
        nt: &str,
        memo: &mut Memo,
    ) -> Result<bool, GrammarError> {
        let key = (nt.to_string(), Subject::Graph(g));
        match memo.get(&key) {
            Some(v) => return Ok(v),
            None => memo.begin(key.clone()),
        }
        let mut ok = false;
        for shape in self.alternatives(nt)? {
            match &shape.kind {
                ShapeKind::GraphEntry(entry_nt) => {
                    if let Ok(entry) = h.entry(g) {
                        if self.check_node(h, g, entry, entry_nt, memo)? {
                            ok = true;
                            break;
                        }
                    }
                }
                ShapeKind::Node { .. } => {
                    // A node shape never matches a graph subject.
                }
            }
        }
        memo.finish(key, ok);
        Ok(ok)
    }

    fn check_node(
        &self,
        h: &HGraph,
        g: GraphId,
        n: NodeId,
        nt: &str,
        memo: &mut Memo,
    ) -> Result<bool, GrammarError> {
        let key = (nt.to_string(), Subject::Node(g, n));
        match memo.get(&key) {
            Some(v) => return Ok(v),
            None => memo.begin(key.clone()),
        }
        let mut ok = false;
        for shape in self.alternatives(nt)? {
            if self.check_node_shape(h, g, n, shape, memo)? {
                ok = true;
                break;
            }
        }
        memo.finish(key, ok);
        Ok(ok)
    }

    fn check_node_shape(
        &self,
        h: &HGraph,
        g: GraphId,
        n: NodeId,
        shape: &Shape,
        memo: &mut Memo,
    ) -> Result<bool, GrammarError> {
        let ShapeKind::Node {
            value,
            arcs,
            indexed,
        } = &shape.kind
        else {
            return Ok(false);
        };
        // 1. Value constraint.
        if !matches!(h.value(n), Value::Atom(a) if value.matches(a)) {
            return Ok(false);
        }
        // 2. Named-arc constraints.
        let mut matched: BTreeSet<&str> = BTreeSet::new();
        for spec in arcs {
            let sel = Selector::name(spec.selector.clone());
            match h.out_arcs(g, n).find(|a| a.selector == sel) {
                Some(arc) => {
                    if !self.check_node(h, g, arc.to, &spec.target, memo)? {
                        return Ok(false);
                    }
                    matched.insert(spec.selector.as_str());
                }
                None => {
                    if spec.mult == Multiplicity::One {
                        return Ok(false);
                    }
                }
            }
        }
        // 3. Indexed-arc constraints: dense [0..k).
        let mut index_arcs: Vec<(u64, NodeId)> = h
            .out_arcs(g, n)
            .filter_map(|a| a.selector.as_index().map(|i| (i, a.to)))
            .collect();
        index_arcs.sort_unstable_by_key(|(i, _)| *i);
        match indexed {
            Some(target) => {
                for (pos, (i, to)) in index_arcs.iter().enumerate() {
                    if *i != pos as u64 {
                        return Ok(false); // not dense
                    }
                    if !self.check_node(h, g, *to, target, memo)? {
                        return Ok(false);
                    }
                }
            }
            None => {
                if !index_arcs.is_empty() {
                    return Ok(false);
                }
            }
        }
        // 4. Shapes are closed: no unexpected named arcs.
        for a in h.out_arcs(g, n) {
            if let Some(name) = a.selector.as_name() {
                if !matched.contains(name) && !arcs.iter().any(|s| s.selector == name) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

impl GrammarBuilder {
    /// Add one alternative for nonterminal `name`. Call repeatedly with the
    /// same name for alternation.
    pub fn rule(mut self, name: impl Into<String>, shape: Shape) -> Self {
        let name = name.into();
        if !self.rules.contains_key(&name) {
            self.order.push(name.clone());
        }
        self.rules.entry(name).or_default().push(shape);
        self
    }

    /// Finish, validating that every referenced nonterminal is defined.
    pub fn build(self) -> Result<Grammar, GrammarError> {
        for (name, shapes) in &self.rules {
            for shape in shapes {
                for r in shape.referenced() {
                    if !self.rules.contains_key(r) {
                        return Err(GrammarError::UndefinedReference {
                            in_rule: name.clone(),
                            to: r.to_string(),
                        });
                    }
                }
            }
        }
        Ok(Grammar {
            name: self.name,
            rules: self.rules,
            order: self.order,
        })
    }
}

fn describe_atom(k: &AtomKind) -> String {
    match k {
        AtomKind::Int => "int".into(),
        AtomKind::Str => "str".into(),
        AtomKind::Sym => "sym".into(),
        AtomKind::SymExact(s) => format!("'{s}'"),
    }
}

fn describe_shape(shape: &Shape) -> String {
    match &shape.kind {
        ShapeKind::GraphEntry(nt) => format!("graph(entry: {nt})"),
        ShapeKind::Node {
            value,
            arcs,
            indexed,
        } => {
            let v = describe_atom(value);
            let mut parts: Vec<String> = arcs
                .iter()
                .map(|a| match a.mult {
                    Multiplicity::One => format!("{} -> {}", a.selector, a.target),
                    Multiplicity::Optional => format!("[{} -> {}]", a.selector, a.target),
                })
                .collect();
            if let Some(nt) = indexed {
                parts.push(format!("[i] -> {nt} *"));
            }
            if parts.is_empty() {
                format!("node({v})")
            } else {
                format!("node({v}) {{ {} }}", parts.join(", "))
            }
        }
    }
}

/// Subject of a conformance query: a node in a graph, or a graph.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Subject {
    Node(GraphId, NodeId),
    Graph(GraphId),
}

/// Coinductive memoization: in-progress queries are assumed true, so cyclic
/// structures conform when every finite unfolding matches.
#[derive(Default)]
struct Memo {
    state: BTreeMap<(String, Subject), Option<bool>>,
}

impl Memo {
    fn get(&self, key: &(String, Subject)) -> Option<bool> {
        match self.state.get(key) {
            Some(Some(v)) => Some(*v),
            Some(None) => Some(true), // in progress: coinductive assumption
            None => None,
        }
    }

    fn begin(&mut self, key: (String, Subject)) {
        self.state.insert(key, None);
    }

    fn finish(&mut self, key: (String, Subject), v: bool) {
        self.state.insert(key, Some(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::Value;

    fn list_grammar() -> Grammar {
        // List ::= node(Int) [next -> List]?
        Grammar::builder("list")
            .rule("List", Shape::node(AtomKind::Int).arc_opt("next", "List"))
            .build()
            .unwrap()
    }

    #[test]
    fn build_rejects_undefined_reference() {
        let err = Grammar::builder("bad")
            .rule("A", Shape::node(AtomKind::Int).arc("x", "Missing"))
            .build()
            .unwrap_err();
        assert!(matches!(err, GrammarError::UndefinedReference { .. }));
    }

    #[test]
    fn linear_list_conforms() {
        let g = list_grammar();
        let mut h = HGraph::new();
        let gr = h.new_graph("l");
        let a = h.add_node(gr, Value::int(1));
        let b = h.add_node(gr, Value::int(2));
        let c = h.add_node(gr, Value::int(3));
        h.add_arc(gr, a, Selector::name("next"), b).unwrap();
        h.add_arc(gr, b, Selector::name("next"), c).unwrap();
        assert!(g.node_conforms(&h, gr, a, "List").is_ok());
    }

    #[test]
    fn wrong_atom_kind_rejected() {
        let g = list_grammar();
        let mut h = HGraph::new();
        let gr = h.new_graph("l");
        let a = h.add_node(gr, Value::str("oops"));
        assert!(g.node_conforms(&h, gr, a, "List").is_err());
    }

    #[test]
    fn unexpected_arc_rejected_when_closed() {
        let g = list_grammar();
        let mut h = HGraph::new();
        let gr = h.new_graph("l");
        let a = h.add_node(gr, Value::int(1));
        let b = h.add_node(gr, Value::int(2));
        h.add_arc(gr, a, Selector::name("rogue"), b).unwrap();
        assert!(g.node_conforms(&h, gr, a, "List").is_err());
    }

    #[test]
    fn cyclic_ring_conforms_coinductively() {
        // Ring ::= node(Int) [next -> Ring]  (required arc, cycle closes it)
        let g = Grammar::builder("ring")
            .rule("Ring", Shape::node(AtomKind::Int).arc("next", "Ring"))
            .build()
            .unwrap();
        let mut h = HGraph::new();
        let gr = h.new_graph("r");
        let a = h.add_node(gr, Value::int(1));
        let b = h.add_node(gr, Value::int(2));
        h.add_arc(gr, a, Selector::name("next"), b).unwrap();
        h.add_arc(gr, b, Selector::name("next"), a).unwrap();
        assert!(g.node_conforms(&h, gr, a, "Ring").is_ok());
        // A broken ring (missing required arc) does not conform.
        let c = h.add_node(gr, Value::int(3));
        assert!(g.node_conforms(&h, gr, c, "Ring").is_err());
    }

    #[test]
    fn alternation_over_rules() {
        // Val ::= Int | Sym
        let g = Grammar::builder("alt")
            .rule("Val", Shape::node(AtomKind::Int))
            .rule("Val", Shape::node(AtomKind::Sym))
            .build()
            .unwrap();
        let mut h = HGraph::new();
        let gr = h.new_graph("v");
        let i = h.add_node(gr, Value::int(1));
        let s = h.add_node(gr, Value::sym("x"));
        let f = h.add_node(gr, Value::str("x"));
        assert!(g.node_conforms(&h, gr, i, "Val").is_ok());
        assert!(g.node_conforms(&h, gr, s, "Val").is_ok());
        assert!(g.node_conforms(&h, gr, f, "Val").is_err());
    }

    #[test]
    fn sym_exact_matches_only_that_symbol() {
        let g = Grammar::builder("tag")
            .rule("Ready", Shape::node(AtomKind::SymExact("ready".into())))
            .build()
            .unwrap();
        let mut h = HGraph::new();
        let gr = h.new_graph("t");
        let ok = h.add_node(gr, Value::sym("ready"));
        let no = h.add_node(gr, Value::sym("paused"));
        assert!(g.node_conforms(&h, gr, ok, "Ready").is_ok());
        assert!(g.node_conforms(&h, gr, no, "Ready").is_err());
    }

    #[test]
    fn indexed_arcs_must_be_dense() {
        let g = Grammar::builder("vec")
            .rule("Vec", Shape::node(AtomKind::Sym).arcs_indexed("Elem"))
            .rule("Elem", Shape::node(AtomKind::Int))
            .build()
            .unwrap();
        let mut h = HGraph::new();
        let gr = h.new_graph("v");
        let v = h.add_node(gr, Value::sym("vec"));
        let e0 = h.add_node(gr, Value::int(0));
        let e2 = h.add_node(gr, Value::int(2));
        h.add_arc(gr, v, Selector::index(0), e0).unwrap();
        assert!(g.node_conforms(&h, gr, v, "Vec").is_ok());
        // gap at index 1 -> not dense
        h.add_arc(gr, v, Selector::index(2), e2).unwrap();
        assert!(g.node_conforms(&h, gr, v, "Vec").is_err());
    }

    #[test]
    fn empty_indexed_sequence_conforms() {
        let g = Grammar::builder("vec")
            .rule("Vec", Shape::node(AtomKind::Sym).arcs_indexed("Elem"))
            .rule("Elem", Shape::node(AtomKind::Int))
            .build()
            .unwrap();
        let mut h = HGraph::new();
        let gr = h.new_graph("v");
        let v = h.add_node(gr, Value::sym("vec"));
        assert!(g.node_conforms(&h, gr, v, "Vec").is_ok());
    }

    #[test]
    fn unknown_nonterminal_query_errors() {
        let g = list_grammar();
        let mut h = HGraph::new();
        let gr = h.new_graph("l");
        let a = h.add_node(gr, Value::int(1));
        assert!(matches!(
            g.node_conforms(&h, gr, a, "Nope"),
            Err(GrammarError::UnknownNonterminal(_))
        ));
    }

    #[test]
    fn grammar_introspection() {
        let g = list_grammar();
        assert_eq!(g.name(), "list");
        assert_eq!(g.rule_count(), 1);
        assert_eq!(g.nonterminals().collect::<Vec<_>>(), vec!["List"]);
    }

    #[test]
    fn empty_grammar_builds_with_no_start() {
        let g = Grammar::builder("empty").build().unwrap();
        assert_eq!(g.rule_count(), 0);
        assert_eq!(g.start(), None);
        assert_eq!(g.declaration_order().count(), 0);
        assert!(g.referenced_by("Anything").is_empty());
        // Conformance queries against an empty grammar report the
        // nonterminal as unknown rather than panicking.
        let mut h = HGraph::new();
        let gr = h.new_graph("x");
        let n = h.add_node(gr, Value::int(0));
        assert!(matches!(
            g.node_conforms(&h, gr, n, "X"),
            Err(GrammarError::UnknownNonterminal(_))
        ));
    }

    #[test]
    fn self_referential_production_introspects() {
        // Loop ::= node(Int) { next -> Loop } — references itself in a
        // *required* position, so only cyclic data can satisfy it.
        let g = Grammar::builder("selfref")
            .rule("Loop", Shape::node(AtomKind::Int).arc("next", "Loop"))
            .build()
            .unwrap();
        assert_eq!(g.start(), Some("Loop"));
        assert_eq!(g.referenced_by("Loop"), vec!["Loop"]);
        assert_eq!(g.alternative_requires("Loop", 0), vec!["Loop"]);
        // The optional-arc variant requires nothing.
        let g2 = Grammar::builder("selfopt")
            .rule("List", Shape::node(AtomKind::Int).arc_opt("next", "List"))
            .build()
            .unwrap();
        assert_eq!(g2.referenced_by("List"), vec!["List"]);
        assert!(g2.alternative_requires("List", 0).is_empty());
    }

    #[test]
    fn unreachable_nonterminal_visible_via_start_and_references() {
        // Orphan is declared but never referenced from the start symbol.
        let g = Grammar::builder("unreach")
            .rule("Root", Shape::node(AtomKind::Sym).arc_opt("kid", "Kid"))
            .rule("Kid", Shape::node(AtomKind::Int))
            .rule("Orphan", Shape::node(AtomKind::Int))
            .build()
            .unwrap();
        assert_eq!(g.start(), Some("Root"));
        assert_eq!(
            g.declaration_order().collect::<Vec<_>>(),
            vec!["Root", "Kid", "Orphan"]
        );
        // Transitive closure from the start never reaches Orphan.
        let mut seen = std::collections::BTreeSet::new();
        let mut work = vec!["Root"];
        while let Some(nt) = work.pop() {
            if seen.insert(nt) {
                work.extend(g.referenced_by(nt));
            }
        }
        assert!(seen.contains("Kid"));
        assert!(!seen.contains("Orphan"));
    }

    #[test]
    fn alternative_introspection_per_alternative() {
        let g = Grammar::builder("alts")
            .rule("Val", Shape::node(AtomKind::Int))
            .rule("Val", Shape::node(AtomKind::Sym).arc("leaf", "Leaf"))
            .rule("Sub", Shape::graph_entry("Leaf"))
            .rule("Leaf", Shape::node(AtomKind::Sym))
            .build()
            .unwrap();
        assert_eq!(g.alternative_count("Val"), 2);
        assert!(g.alternative_requires("Val", 0).is_empty());
        assert_eq!(g.alternative_requires("Val", 1), vec!["Leaf"]);
        assert!(g.alternative_requires("Val", 2).is_empty());
        assert_eq!(g.alternative_requires("Sub", 0), vec!["Leaf"]);
    }
}
