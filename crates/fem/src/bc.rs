//! Boundary conditions and load sets.
//!
//! [`Constraints`] fixes degrees of freedom (to zero — support conditions);
//! [`LoadSet`] carries nodal forces. Constrained systems are solved by
//! elimination: the free dofs are renumbered densely, the stiffness is
//! restricted to them, and solutions are scattered back with zeros at the
//! supports.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Fixed (zero-displacement) degrees of freedom.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Constraints {
    fixed: BTreeSet<usize>,
}

impl Constraints {
    /// No constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix both dofs of a node (pinned support).
    pub fn fix_node(&mut self, node: usize) {
        self.fixed.insert(crate::DOF_PER_NODE * node);
        self.fixed.insert(crate::DOF_PER_NODE * node + 1);
    }

    /// Fix the `component`-th dof of a node (0 = u, 1 = v): a roller.
    pub(crate) fn fix_component(&mut self, node: usize, component: usize) {
        assert!(component < crate::DOF_PER_NODE, "bad component");
        self.fixed.insert(crate::DOF_PER_NODE * node + component);
    }

    /// True if `dof` is fixed.
    pub(crate) fn is_fixed(&self, dof: usize) -> bool {
        self.fixed.contains(&dof)
    }

    /// Number of fixed dofs.
    pub fn fixed_count(&self) -> usize {
        self.fixed.len()
    }

    /// The free dofs of a system with `total_dofs`, in ascending order.
    pub fn free_dofs(&self, total_dofs: usize) -> Vec<usize> {
        (0..total_dofs).filter(|d| !self.is_fixed(*d)).collect()
    }

    /// Restrict a full-length vector to the free dofs.
    pub fn restrict(&self, full: &[f64]) -> Vec<f64> {
        self.free_dofs(full.len())
            .into_iter()
            .map(|d| full[d])
            .collect()
    }

    /// Scatter a reduced vector back to full length, zeros at supports.
    pub fn expand(&self, reduced: &[f64], total_dofs: usize) -> Vec<f64> {
        let free = self.free_dofs(total_dofs);
        assert_eq!(free.len(), reduced.len(), "reduced length mismatch");
        let mut full = vec![0.0; total_dofs];
        for (v, d) in reduced.iter().zip(free) {
            full[d] = *v;
        }
        full
    }
}

/// A named set of nodal loads.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadSet {
    /// Display name ("dead load", "gust").
    pub name: String,
    /// (dof, force) pairs; duplicates sum.
    loads: Vec<(usize, f64)>,
}

impl LoadSet {
    /// An empty load set.
    pub fn new(name: impl Into<String>) -> Self {
        LoadSet {
            name: name.into(),
            loads: Vec::new(),
        }
    }

    /// Add a force on a dof.
    pub(crate) fn add_dof(&mut self, dof: usize, force: f64) {
        self.loads.push((dof, force));
    }

    /// Add a force vector `(fx, fy)` on a node.
    pub fn add_node(&mut self, node: usize, fx: f64, fy: f64) {
        if fx != 0.0 {
            self.loads.push((crate::DOF_PER_NODE * node, fx));
        }
        if fy != 0.0 {
            self.loads.push((crate::DOF_PER_NODE * node + 1, fy));
        }
    }

    /// Number of load entries.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True if no loads.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Assemble into a dense force vector of length `total_dofs`.
    pub fn to_vector(&self, total_dofs: usize) -> Vec<f64> {
        let mut f = vec![0.0; total_dofs];
        for &(dof, v) in &self.loads {
            assert!(dof < total_dofs, "load on missing dof {dof}");
            f[dof] += v;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixing_dofs_and_nodes() {
        let mut c = Constraints::new();
        c.fix_node(1); // dofs 2, 3
        c.fix_component(3, 1); // dof 7
        c.fix_component(4, 1); // dof 9
        assert!(c.is_fixed(2));
        assert!(c.is_fixed(3));
        assert!(c.is_fixed(7));
        assert!(c.is_fixed(9));
        assert!(!c.is_fixed(0));
        assert_eq!(c.fixed_count(), 4);
    }

    #[test]
    fn free_dofs_complement() {
        let mut c = Constraints::new();
        c.fix_node(0);
        assert_eq!(c.free_dofs(6), vec![2, 3, 4, 5]);
    }

    #[test]
    fn restrict_expand_roundtrip() {
        let mut c = Constraints::new();
        c.fix_component(0, 1); // dof 1
        c.fix_component(1, 1); // dof 3
        let full = vec![10.0, 0.0, 20.0, 0.0, 30.0];
        let reduced = c.restrict(&full);
        assert_eq!(reduced, vec![10.0, 20.0, 30.0]);
        let back = c.expand(&reduced, 5);
        assert_eq!(back, full);
    }

    #[test]
    #[should_panic(expected = "reduced length mismatch")]
    fn expand_checks_length() {
        let c = Constraints::new();
        c.expand(&[1.0], 5);
    }

    #[test]
    fn loadset_accumulates() {
        let mut ls = LoadSet::new("tip");
        ls.add_node(2, 0.0, -100.0);
        ls.add_dof(5, -50.0);
        assert_eq!(ls.len(), 2);
        let f = ls.to_vector(8);
        assert_eq!(f[5], -150.0);
        assert_eq!(f[4], 0.0);
    }

    #[test]
    fn zero_components_skipped() {
        let mut ls = LoadSet::new("x only");
        ls.add_node(0, 5.0, 0.0);
        assert_eq!(ls.len(), 1);
    }

    #[test]
    #[should_panic(expected = "load on missing dof")]
    fn load_bounds_checked() {
        let mut ls = LoadSet::new("bad");
        ls.add_dof(10, 1.0);
        ls.to_vector(4);
    }

    #[test]
    fn empty_loadset() {
        let ls = LoadSet::new("none");
        assert!(ls.is_empty());
        assert_eq!(ls.to_vector(4), vec![0.0; 4]);
    }
}
