//! # fem2-hgraph — H-graph semantics
//!
//! An implementation of the H-graph semantics formalism of Pratt (ICASE
//! Report 83-2, 1983), the modeling method the FEM-2 design method uses to
//! formally specify each layer of virtual machine:
//!
//! > "The data objects are modeled as hierarchies of directed graphs
//! > (H-graphs) in which the nodes represent abstract storage locations and
//! > the arcs represent access paths. Data types are modeled using formal
//! > 'H-graph grammars,' a type of BNF grammar in which the 'language'
//! > defined is a set of H-graphs representing a class of data objects.
//! > Operations (procedures) on the data objects are modeled as 'H-graph
//! > transforms,' which are functions defining transformations on the H-graph
//! > models of data objects."
//!
//! The crate provides five pieces:
//!
//! * [`graph`] — directed graphs whose nodes are abstract storage locations
//!   and whose arcs are selector-labeled access paths;
//! * [`hier`] — the hierarchy: an [`hier::HGraph`] arena in which a node's
//!   *value* may itself be a graph;
//! * [`grammar`] — H-graph grammars: BNF-style productions whose language is
//!   a set of H-graphs, with a membership (conformance) checker;
//! * [`render`] — grammars as BNF text and H-graphs as Graphviz DOT;
//! * [`transform`] — H-graph transforms: named functions on H-graphs whose
//!   pre- and postconditions are checked on every application.
//!
//! Which layer of the FEM-2 design each grammar specifies, and the layer's
//! catalog under the paper's five VM components, lives in `fem2-core`.
//!
//! # Quick example
//!
//! ```
//! use fem2_hgraph::prelude::*;
//!
//! // Build an H-graph modeling a two-node load set.
//! let mut h = HGraph::new();
//! let g = h.new_graph("loadset");
//! let a = h.add_node(g, Value::int(15));
//! let b = h.add_node(g, Value::int(-20));
//! h.add_arc(g, a, Selector::name("next"), b).unwrap();
//! h.set_entry(g, a).unwrap();
//!
//! // A grammar: a LoadSet is a chain of int nodes linked by `next`.
//! let gram = Grammar::builder("loadset")
//!     .rule("LoadSet", Shape::graph_entry("Entry"))
//!     .rule("Entry", Shape::node(AtomKind::Int).arc_opt("next", "Entry"))
//!     .build()
//!     .unwrap();
//! assert!(gram.graph_conforms(&h, g, "LoadSet").is_ok());
//! ```

pub mod grammar;
pub mod graph;
pub mod hier;
pub mod render;
pub mod transform;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::grammar::{AtomKind, Grammar, GrammarError, Multiplicity, Shape};
    pub use crate::graph::{Arc, GraphId, NodeId, Selector};
    pub use crate::hier::{Atom, HGraph, Value};
    pub use crate::transform::{Transform, TransformError};
}

pub use grammar::{AtomKind, Grammar, GrammarError, Multiplicity, Shape};
pub use graph::{Arc, GraphId, NodeId, Selector};
pub use hier::{Atom, HGraph, Value};
pub use render::to_dot;
pub use transform::{Transform, TransformError};
