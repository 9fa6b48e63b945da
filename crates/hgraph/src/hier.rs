//! The hierarchy: an arena of graphs whose node values may themselves be
//! graphs.
//!
//! An [`HGraph`] owns every graph and node in one model. A node is an
//! abstract storage location holding a [`Value`]: either an atomic datum
//! ([`Atom`]) or a reference to a nested graph — this nesting is the
//! "hierarchies of directed graphs" of the formalism.

use crate::graph::{Arc, GraphData, GraphId, NodeId, Selector};
use std::collections::BTreeSet;
use std::fmt;

/// An atomic (leaf) value stored in a node.
#[derive(Clone, PartialEq, Debug)]
pub enum Atom {
    /// A signed integer.
    Int(i64),
    /// A character string.
    Str(String),
    /// A symbol: an interned identifier-like token, distinct from strings so
    /// grammars can require "the symbol `ready`" rather than arbitrary text.
    Sym(String),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(i) => write!(f, "{i}"),
            Atom::Str(s) => write!(f, "{s:?}"),
            Atom::Sym(s) => write!(f, "'{s}"),
        }
    }
}

/// The value held by a storage location: an atom, or a nested graph.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// A leaf datum.
    Atom(Atom),
    /// A nested graph: the hierarchy step of the H-graph formalism.
    Graph(GraphId),
}

impl Value {
    /// An integer value.
    pub fn int(i: i64) -> Self {
        Value::Atom(Atom::Int(i))
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Atom(Atom::Str(s.into()))
    }

    /// A symbol value.
    pub fn sym(s: impl Into<String>) -> Self {
        Value::Atom(Atom::Sym(s.into()))
    }

    /// A nested-graph value.
    pub fn graph(g: GraphId) -> Self {
        Value::Graph(g)
    }

    /// The contained graph id, if any.
    pub fn as_graph(&self) -> Option<GraphId> {
        match self {
            Value::Atom(_) => None,
            Value::Graph(g) => Some(*g),
        }
    }
}

/// Errors raised by [`HGraph`] mutation and navigation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HGraphError {
    /// The node is not a member of the named graph.
    NodeNotInGraph { node: NodeId, graph: GraphId },
    /// An arc with the same source and selector already exists: access paths
    /// must be deterministic.
    DuplicateAccessPath { from: NodeId, selector: Selector },
    /// Navigation followed a selector that has no arc.
    NoSuchPath { from: NodeId, selector: Selector },
    /// A value was expected to be a nested graph but was an atom.
    NotAGraph { node: NodeId },
    /// The graph has no entry node.
    NoEntry { graph: GraphId },
}

impl fmt::Display for HGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HGraphError::NodeNotInGraph { node, graph } => {
                write!(f, "node {node:?} is not a member of graph {graph:?}")
            }
            HGraphError::DuplicateAccessPath { from, selector } => {
                write!(f, "access path {selector} from {from:?} already exists")
            }
            HGraphError::NoSuchPath { from, selector } => {
                write!(f, "no access path {selector} from {from:?}")
            }
            HGraphError::NotAGraph { node } => {
                write!(f, "node {node:?} does not contain a nested graph")
            }
            HGraphError::NoEntry { graph } => write!(f, "graph {graph:?} has no entry node"),
        }
    }
}

impl std::error::Error for HGraphError {}

/// Result alias for H-graph operations.
pub type Result<T> = std::result::Result<T, HGraphError>;

/// An H-graph arena: every graph and node of one model, plus the root graph.
///
/// The arena enforces the access-path discipline: from any node, at most one
/// arc per selector.
#[derive(Clone, Debug, Default)]
pub struct HGraph {
    graphs: Vec<GraphData>,
    values: Vec<Value>,
    root: Option<GraphId>,
}

impl HGraph {
    /// An empty arena with no graphs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (storage locations) in the arena.
    pub fn node_count(&self) -> usize {
        self.values.len()
    }

    /// Create a new, empty graph with a debugging label. The first graph
    /// created becomes the root.
    pub fn new_graph(&mut self, label: impl Into<String>) -> GraphId {
        let id = GraphId(self.graphs.len() as u32);
        self.graphs.push(GraphData {
            label: label.into(),
            ..GraphData::default()
        });
        if self.root.is_none() {
            self.root = Some(id);
        }
        id
    }

    /// The root graph, if any graph exists.
    pub fn root(&self) -> Option<GraphId> {
        self.root
    }

    /// The debugging label of a graph.
    pub fn label(&self, g: GraphId) -> &str {
        &self.graphs[g.index()].label
    }

    /// Allocate a fresh storage location holding `value` and add it to
    /// graph `g`. Returns the new node's id.
    pub fn add_node(&mut self, g: GraphId, value: Value) -> NodeId {
        let id = NodeId(self.values.len() as u32);
        self.values.push(value);
        self.graphs[g.index()].nodes.push(id);
        id
    }

    /// The value currently held at storage location `n`.
    pub fn value(&self, n: NodeId) -> &Value {
        &self.values[n.index()]
    }

    /// Overwrite the value at storage location `n` (assignment).
    pub fn set_value(&mut self, n: NodeId, v: Value) {
        self.values[n.index()] = v;
    }

    /// Member nodes of graph `g`, in insertion order.
    pub fn nodes(&self, g: GraphId) -> &[NodeId] {
        &self.graphs[g.index()].nodes
    }

    /// Arcs of graph `g`, in insertion order.
    pub fn arcs(&self, g: GraphId) -> &[Arc] {
        &self.graphs[g.index()].arcs
    }

    /// True if `n` is a member of `g`.
    pub fn contains(&self, g: GraphId, n: NodeId) -> bool {
        self.graphs[g.index()].nodes.contains(&n)
    }

    /// Designate `n` as the entry node of `g`.
    pub fn set_entry(&mut self, g: GraphId, n: NodeId) -> Result<()> {
        if !self.contains(g, n) {
            return Err(HGraphError::NodeNotInGraph { node: n, graph: g });
        }
        self.graphs[g.index()].entry = Some(n);
        Ok(())
    }

    /// The entry node of `g`.
    pub fn entry(&self, g: GraphId) -> Result<NodeId> {
        self.graphs[g.index()]
            .entry
            .ok_or(HGraphError::NoEntry { graph: g })
    }

    /// Add an arc `from --selector--> to` inside graph `g`.
    ///
    /// Fails if either endpoint is not a member of `g`, or if `from` already
    /// has an outgoing arc with the same selector (access paths are
    /// deterministic).
    pub fn add_arc(
        &mut self,
        g: GraphId,
        from: NodeId,
        selector: Selector,
        to: NodeId,
    ) -> Result<()> {
        if !self.contains(g, from) {
            return Err(HGraphError::NodeNotInGraph {
                node: from,
                graph: g,
            });
        }
        if !self.contains(g, to) {
            return Err(HGraphError::NodeNotInGraph { node: to, graph: g });
        }
        if self.graphs[g.index()].out_arc(from, &selector).is_some() {
            return Err(HGraphError::DuplicateAccessPath { from, selector });
        }
        self.graphs[g.index()].arcs.push(Arc { from, selector, to });
        Ok(())
    }

    /// Follow one access path: the node reached from `from` via `selector`
    /// in graph `g`.
    pub fn follow(&self, g: GraphId, from: NodeId, selector: &Selector) -> Result<NodeId> {
        self.graphs[g.index()]
            .out_arc(from, selector)
            .map(|a| a.to)
            .ok_or_else(|| HGraphError::NoSuchPath {
                from,
                selector: selector.clone(),
            })
    }

    /// The nested graph held at node `n`, or an error if `n` holds an atom.
    pub fn nested(&self, n: NodeId) -> Result<GraphId> {
        self.value(n)
            .as_graph()
            .ok_or(HGraphError::NotAGraph { node: n })
    }

    /// Outgoing arcs of `from` within `g`.
    pub fn out_arcs(&self, g: GraphId, from: NodeId) -> impl Iterator<Item = &Arc> {
        self.graphs[g.index()].out_arcs(from)
    }

    /// All graphs reachable from `g` through nested-graph values, including
    /// `g` itself, in breadth-first order.
    pub fn reachable_graphs(&self, g: GraphId) -> Vec<GraphId> {
        let mut seen = BTreeSet::new();
        let mut queue = std::collections::VecDeque::new();
        let mut order = Vec::new();
        seen.insert(g);
        queue.push_back(g);
        while let Some(cur) = queue.pop_front() {
            order.push(cur);
            for &n in &self.graphs[cur.index()].nodes {
                if let Value::Graph(child) = self.values[n.index()] {
                    if seen.insert(child) {
                        queue.push_back(child);
                    }
                }
            }
        }
        order
    }

    /// Render graph `g` (not its nested graphs) as a multi-line string for
    /// debugging and display.
    pub fn render(&self, g: GraphId) -> String {
        use std::fmt::Write as _;
        let gd = &self.graphs[g.index()];
        let mut out = String::new();
        let _ = writeln!(out, "graph {:?} \"{}\"", g, gd.label);
        for &n in &gd.nodes {
            let marker = if gd.entry == Some(n) { "»" } else { " " };
            let v = match &self.values[n.index()] {
                Value::Atom(a) => a.to_string(),
                Value::Graph(child) => format!("<{:?} \"{}\">", child, self.label(*child)),
            };
            let _ = writeln!(out, " {marker}{n:?} = {v}");
            for a in gd.out_arcs(n) {
                let _ = writeln!(out, "    --{}--> {:?}", a.selector, a.to);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (HGraph, GraphId, NodeId, NodeId) {
        let mut h = HGraph::new();
        let g = h.new_graph("test");
        let a = h.add_node(g, Value::int(1));
        let b = h.add_node(g, Value::int(2));
        (h, g, a, b)
    }

    #[test]
    fn first_graph_becomes_root() {
        let (h, g, _, _) = pair();
        assert_eq!(h.root(), Some(g));
    }

    #[test]
    fn node_values_read_write() {
        let (mut h, _, a, _) = pair();
        assert_eq!(h.value(a), &Value::int(1));
        h.set_value(a, Value::sym("ready"));
        assert_eq!(h.value(a), &Value::Atom(Atom::Sym("ready".into())));
    }

    #[test]
    fn arcs_are_deterministic_access_paths() {
        let (mut h, g, a, b) = pair();
        h.add_arc(g, a, Selector::name("x"), b).unwrap();
        let err = h.add_arc(g, a, Selector::name("x"), a).unwrap_err();
        assert!(matches!(err, HGraphError::DuplicateAccessPath { .. }));
        // A different selector from the same node is fine.
        h.add_arc(g, a, Selector::name("y"), a).unwrap();
    }

    #[test]
    fn arc_endpoints_must_be_members() {
        let (mut h, g, a, _) = pair();
        let g2 = h.new_graph("other");
        let foreign = h.add_node(g2, Value::int(0));
        let err = h.add_arc(g, a, Selector::name("x"), foreign).unwrap_err();
        assert!(matches!(err, HGraphError::NodeNotInGraph { .. }));
        let err = h.add_arc(g, foreign, Selector::name("x"), a).unwrap_err();
        assert!(matches!(err, HGraphError::NodeNotInGraph { .. }));
    }

    #[test]
    fn follow_walks_access_paths() {
        let (mut h, g, a, b) = pair();
        let c = h.add_node(g, Value::int(3));
        h.add_arc(g, a, Selector::name("x"), b).unwrap();
        h.add_arc(g, b, Selector::index(0), c).unwrap();
        assert_eq!(h.follow(g, a, &Selector::name("x")).unwrap(), b);
        assert_eq!(h.follow(g, b, &Selector::index(0)).unwrap(), c);
        assert!(matches!(
            h.follow(g, a, &Selector::name("zz")),
            Err(HGraphError::NoSuchPath { .. })
        ));
    }

    #[test]
    fn entry_must_be_set_and_a_member() {
        let (mut h, g, a, _) = pair();
        assert!(matches!(h.entry(g), Err(HGraphError::NoEntry { .. })));
        let g2 = h.new_graph("other");
        assert!(matches!(
            h.set_entry(g2, a),
            Err(HGraphError::NodeNotInGraph { .. })
        ));
        h.set_entry(g, a).unwrap();
        assert_eq!(h.entry(g).unwrap(), a);
    }

    #[test]
    fn nested_graphs_and_reachability() {
        let mut h = HGraph::new();
        let top = h.new_graph("top");
        let child = h.new_graph("child");
        let grand = h.new_graph("grand");
        let n1 = h.add_node(top, Value::graph(child));
        let _n2 = h.add_node(child, Value::graph(grand));
        let _n3 = h.add_node(grand, Value::int(42));
        assert_eq!(h.nested(n1).unwrap(), child);
        let reach = h.reachable_graphs(top);
        assert_eq!(reach, vec![top, child, grand]);
    }

    #[test]
    fn nested_on_atom_errors() {
        let (h, _, a, _) = pair();
        assert!(matches!(h.nested(a), Err(HGraphError::NotAGraph { .. })));
    }

    #[test]
    fn reachable_graphs_handles_cycles() {
        let mut h = HGraph::new();
        let a = h.new_graph("a");
        let b = h.new_graph("b");
        let na = h.add_node(a, Value::graph(b));
        let nb = h.add_node(b, Value::graph(a));
        let _ = (na, nb);
        let reach = h.reachable_graphs(a);
        assert_eq!(reach, vec![a, b]);
    }

    #[test]
    fn render_mentions_entry_and_arcs() {
        let (mut h, g, a, b) = pair();
        h.add_arc(g, a, Selector::name("x"), b).unwrap();
        h.set_entry(g, a).unwrap();
        let s = h.render(g);
        assert!(s.contains("»"));
        assert!(s.contains("--x-->"));
    }

    #[test]
    fn counts() {
        let (mut h, g, a, b) = pair();
        h.add_arc(g, a, Selector::name("x"), b).unwrap();
        assert_eq!(h.node_count(), 2);
        assert_eq!(h.arcs(g).len(), 1);
    }
}
