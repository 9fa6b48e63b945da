//! H-graph transforms: functions defining transformations on the H-graph
//! models of data objects.
//!
//! A [`Transform`] is a named function over an [`HGraph`], optionally guarded
//! by pre- and postconditions phrased as grammar conformance of the root
//! graph ("the operation maps data objects of type A to data objects of type
//! B"). Transforms invoke each other "in the usual manner of subprogram
//! calling hierarchies": one transform's body calls another's
//! [`Transform::apply`].

use crate::grammar::{Grammar, GrammarError};
use crate::hier::HGraph;
use std::fmt;
use std::sync::Arc;

/// Errors raised while applying transforms.
#[derive(Clone, Debug)]
pub enum TransformError {
    /// The input H-graph violated the transform's precondition.
    Precondition {
        transform: String,
        source: GrammarError,
    },
    /// The output H-graph violated the transform's postcondition.
    Postcondition {
        transform: String,
        source: GrammarError,
    },
    /// The transform body signaled a domain error.
    Body { transform: String, message: String },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Precondition { transform, source } => {
                write!(f, "precondition of {transform:?} failed: {source}")
            }
            TransformError::Postcondition { transform, source } => {
                write!(f, "postcondition of {transform:?} failed: {source}")
            }
            TransformError::Body { transform, message } => {
                write!(f, "transform {transform:?} failed: {message}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

type Body = Box<dyn Fn(&mut HGraph) -> Result<(), TransformError> + Send + Sync>;

/// A named H-graph transform with optional grammar-phrased pre/postconditions.
pub struct Transform {
    name: String,
    pre: Option<(Arc<Grammar>, String)>,
    post: Option<(Arc<Grammar>, String)>,
    body: Body,
}

impl fmt::Debug for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transform")
            .field("name", &self.name)
            .field("pre", &self.pre.as_ref().map(|(g, nt)| (g.name(), nt)))
            .field("post", &self.post.as_ref().map(|(g, nt)| (g.name(), nt)))
            .finish_non_exhaustive()
    }
}

impl Transform {
    /// A transform with the given name and body, no conditions.
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&mut HGraph) -> Result<(), TransformError> + Send + Sync + 'static,
    ) -> Self {
        Transform {
            name: name.into(),
            pre: None,
            post: None,
            body: Box::new(body),
        }
    }

    /// Require the root graph to conform to `nt` under `grammar` on entry.
    pub fn with_pre(mut self, grammar: Arc<Grammar>, nt: impl Into<String>) -> Self {
        self.pre = Some((grammar, nt.into()));
        self
    }

    /// Require the root graph to conform to `nt` under `grammar` on exit.
    pub fn with_post(mut self, grammar: Arc<Grammar>, nt: impl Into<String>) -> Self {
        self.post = Some((grammar, nt.into()));
        self
    }

    /// The transform's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Apply the transform to `h`: check the precondition, run the body,
    /// check the postcondition.
    pub fn apply(&self, h: &mut HGraph) -> Result<(), TransformError> {
        if let Some((grammar, nt)) = &self.pre {
            root_conforms(h, grammar, nt).map_err(|source| TransformError::Precondition {
                transform: self.name.clone(),
                source,
            })?;
        }
        (self.body)(h)?;
        if let Some((grammar, nt)) = &self.post {
            root_conforms(h, grammar, nt).map_err(|source| TransformError::Postcondition {
                transform: self.name.clone(),
                source,
            })?;
        }
        Ok(())
    }
}

/// The root graph of `h` conforms to `nt`; an H-graph with no graph does not.
fn root_conforms(h: &HGraph, grammar: &Grammar, nt: &str) -> Result<(), GrammarError> {
    let root = h.root().ok_or_else(|| GrammarError::Mismatch {
        nonterminal: nt.to_string(),
        detail: "empty H-graph".into(),
    })?;
    grammar.graph_conforms(h, root, nt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{AtomKind, Shape};
    use crate::graph::Selector;
    use crate::hier::{Atom, Value};

    fn counter_grammar() -> Arc<Grammar> {
        Arc::new(
            Grammar::builder("counter")
                .rule("Counter", Shape::graph_entry("Cell"))
                .rule("Cell", Shape::node(AtomKind::Int))
                .build()
                .unwrap(),
        )
    }

    fn counter_hgraph(v: i64) -> HGraph {
        let mut h = HGraph::new();
        let g = h.new_graph("counter");
        let n = h.add_node(g, Value::int(v));
        h.set_entry(g, n).unwrap();
        h
    }

    fn counter_value(h: &HGraph) -> &Value {
        let g = h.root().unwrap();
        h.value(h.entry(g).unwrap())
    }

    fn incr() -> Transform {
        Transform::new("incr", |h| {
            let g = h.root().unwrap();
            let n = h.entry(g).unwrap();
            let &Value::Atom(Atom::Int(v)) = h.value(n) else {
                return Err(TransformError::Body {
                    transform: "incr".into(),
                    message: "not an int".into(),
                });
            };
            h.set_value(n, Value::int(v + 1));
            Ok(())
        })
    }

    fn corrupt() -> Transform {
        // Breaks the Counter invariant: writes a string.
        Transform::new("corrupt", |h| {
            let g = h.root().unwrap();
            let n = h.entry(g).unwrap();
            h.set_value(n, Value::str("broken"));
            Ok(())
        })
    }

    #[test]
    fn apply_runs_body() {
        let t = incr();
        assert_eq!(t.name(), "incr");
        let mut h = counter_hgraph(41);
        t.apply(&mut h).unwrap();
        assert_eq!(counter_value(&h), &Value::int(42));
    }

    #[test]
    fn preconditions_are_enforced() {
        let t = incr().with_pre(counter_grammar(), "Counter");
        // Violate: entry holds a string.
        let mut h = HGraph::new();
        let g = h.new_graph("bad");
        let n = h.add_node(g, Value::str("no"));
        h.set_entry(g, n).unwrap();
        assert!(matches!(
            t.apply(&mut h),
            Err(TransformError::Precondition { .. })
        ));
    }

    #[test]
    fn postconditions_are_enforced() {
        let t = corrupt().with_post(counter_grammar(), "Counter");
        let mut h = counter_hgraph(1);
        assert!(matches!(
            t.apply(&mut h),
            Err(TransformError::Postcondition { .. })
        ));
    }

    #[test]
    fn empty_hgraph_does_not_conform() {
        let t = incr().with_pre(counter_grammar(), "Counter");
        let err = t.apply(&mut HGraph::new()).unwrap_err();
        assert!(matches!(err, TransformError::Precondition { .. }));
        assert!(err.to_string().contains("empty H-graph"), "{err}");
    }

    #[test]
    fn body_applies_another_transform() {
        // A subprogram calling hierarchy: `twice` calls `incr` twice, and
        // the callee's conditions are checked on each call.
        let inner = incr()
            .with_pre(counter_grammar(), "Counter")
            .with_post(counter_grammar(), "Counter");
        let twice = Transform::new("twice", move |h| {
            inner.apply(h)?;
            inner.apply(h)
        });
        let mut h = counter_hgraph(0);
        twice.apply(&mut h).unwrap();
        assert_eq!(counter_value(&h), &Value::int(2));
        // The callee's failure surfaces from the caller, naming the callee.
        let mut bad = counter_hgraph(0);
        corrupt().apply(&mut bad).unwrap();
        let err = twice.apply(&mut bad).unwrap_err();
        assert!(
            matches!(&err, TransformError::Precondition { transform, .. } if transform == "incr"),
            "{err}"
        );
    }

    #[test]
    fn body_failure_propagates() {
        let t = Transform::new("fails", |_| {
            Err(TransformError::Body {
                transform: "fails".into(),
                message: "nope".into(),
            })
        });
        let mut h = counter_hgraph(0);
        let err = t.apply(&mut h).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn add_and_remove_structure_in_transform() {
        // Transforms may restructure the graph, not just rewrite atoms.
        let push = Transform::new("push", |h| {
            let g = h.root().unwrap();
            let entry = h.entry(g).unwrap();
            let n = h.add_node(g, Value::int(0));
            // New node becomes the entry, pointing at old entry.
            h.add_arc(g, n, Selector::name("next"), entry).unwrap();
            h.set_entry(g, n).unwrap();
            Ok(())
        });
        let mut h = counter_hgraph(7);
        push.apply(&mut h).unwrap();
        push.apply(&mut h).unwrap();
        let g = h.root().unwrap();
        assert_eq!(h.nodes(g).len(), 3);
        let e = h.entry(g).unwrap();
        let second = h.follow(g, e, &Selector::name("next")).unwrap();
        let third = h.follow(g, second, &Selector::name("next")).unwrap();
        assert_eq!(h.value(third), &Value::int(7));
    }
}
