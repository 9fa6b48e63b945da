//! Directed graphs: nodes are abstract storage locations, arcs are
//! selector-labeled access paths.
//!
//! A [`GraphId`]/[`NodeId`] pair addresses a storage location inside an
//! [`crate::hier::HGraph`] arena. This module defines the identifier types,
//! the [`Selector`] arc labels, and the per-graph adjacency structure; the
//! arena that owns node *values* lives in [`crate::hier`].

use std::fmt;

/// Identifier of a graph within an [`crate::hier::HGraph`] arena.
///
/// Graph ids are dense indices; they are never reused within one arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub(crate) u32);

/// Identifier of a node (abstract storage location) within an arena.
///
/// Node ids are arena-global (not per-graph), so a node id uniquely names a
/// storage location regardless of which graph it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl GraphId {
    /// Raw index of this graph in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// Raw index of this node in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An arc label: the *access path* name by which one storage location reaches
/// another.
///
/// Selectors are either symbolic names (record fields, e.g. `next`, `stiff`)
/// or integer indices (array positions). The paper's access-path reading
/// means that from a node, *at most one* arc per selector may leave: an
/// access path names a unique destination.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Selector {
    /// A named access path, as in a record field.
    Name(String),
    /// An indexed access path, as in an array element.
    Index(u64),
}

impl Selector {
    /// Construct a named selector.
    pub fn name(s: impl Into<String>) -> Self {
        Selector::Name(s.into())
    }

    /// Construct an indexed selector.
    pub fn index(i: u64) -> Self {
        Selector::Index(i)
    }

    /// The name, if this is a named selector.
    pub fn as_name(&self) -> Option<&str> {
        match self {
            Selector::Name(s) => Some(s),
            Selector::Index(_) => None,
        }
    }

    /// The index, if this is an indexed selector.
    pub fn as_index(&self) -> Option<u64> {
        match self {
            Selector::Name(_) => None,
            Selector::Index(i) => Some(*i),
        }
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selector::Name(s) => write!(f, "{s}"),
            Selector::Index(i) => write!(f, "[{i}]"),
        }
    }
}

impl From<&str> for Selector {
    fn from(s: &str) -> Self {
        Selector::name(s)
    }
}

impl From<u64> for Selector {
    fn from(i: u64) -> Self {
        Selector::index(i)
    }
}

/// A directed, selector-labeled arc between two storage locations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Arc {
    /// Source node.
    pub from: NodeId,
    /// Access-path label.
    pub selector: Selector,
    /// Destination node.
    pub to: NodeId,
}

/// The structure of one graph: its member nodes, its arcs, and its entry
/// node.
///
/// Owned by an [`crate::hier::HGraph`]; exposed read-only through the arena's
/// accessors.
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphData {
    /// Human-readable label for debugging and display.
    pub(crate) label: String,
    /// Member nodes, in insertion order.
    pub(crate) nodes: Vec<NodeId>,
    /// Arcs, in insertion order. Uniqueness of `(from, selector)` is
    /// enforced at insertion.
    pub(crate) arcs: Vec<Arc>,
    /// Distinguished entry node, if set.
    pub(crate) entry: Option<NodeId>,
}

impl GraphData {
    pub(crate) fn out_arc(&self, from: NodeId, sel: &Selector) -> Option<&Arc> {
        self.arcs
            .iter()
            .find(|a| a.from == from && a.selector == *sel)
    }

    pub(crate) fn out_arcs(&self, from: NodeId) -> impl Iterator<Item = &Arc> {
        self.arcs.iter().filter(move |a| a.from == from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_constructors_and_accessors() {
        let n = Selector::name("next");
        assert_eq!(n.as_name(), Some("next"));
        assert_eq!(n.as_index(), None);
        let i = Selector::index(3);
        assert_eq!(i.as_index(), Some(3));
        assert_eq!(i.as_name(), None);
    }

    #[test]
    fn selector_display() {
        assert_eq!(Selector::name("stiff").to_string(), "stiff");
        assert_eq!(Selector::index(7).to_string(), "[7]");
    }

    #[test]
    fn selector_from_impls() {
        assert_eq!(Selector::from("a"), Selector::name("a"));
        assert_eq!(Selector::from(2u64), Selector::index(2));
    }

    #[test]
    fn ids_debug_format() {
        assert_eq!(format!("{:?}", GraphId(4)), "g4");
        assert_eq!(format!("{:?}", NodeId(9)), "n9");
    }

    #[test]
    fn graph_data_arc_queries() {
        let mut g = GraphData::default();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        g.nodes.extend([a, b, c]);
        g.arcs.push(Arc {
            from: a,
            selector: Selector::name("x"),
            to: b,
        });
        g.arcs.push(Arc {
            from: a,
            selector: Selector::name("y"),
            to: c,
        });
        g.arcs.push(Arc {
            from: b,
            selector: Selector::index(0),
            to: c,
        });
        assert_eq!(g.out_arc(a, &Selector::name("x")).unwrap().to, b);
        assert!(g.out_arc(a, &Selector::name("z")).is_none());
        assert_eq!(g.out_arcs(a).count(), 2);
        assert_eq!(g.out_arcs(c).count(), 0);
    }
}
