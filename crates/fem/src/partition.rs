//! Mesh partitioning: assigning elements to tasks/clusters and estimating
//! the communication the cut induces.
//!
//! The paper's conclusion names "parallelism in the substructure analysis of
//! a larger structure" as one of the levels the design method exposes; the
//! partitioner is what carves a structure into those pieces. Strip
//! partitioning by element centroid works well for the structured plates the
//! experiments use, and the interface metrics feed the E1/E5 communication
//! tables.

use crate::mesh::Mesh;
use std::collections::BTreeSet;

/// A partition of a mesh's elements into `parts` pieces.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Part index of each element.
    pub(crate) element_part: Vec<usize>,
    /// Number of parts.
    pub(crate) parts: usize,
}

impl Partition {
    /// Strip partition along x: elements sorted into `parts` vertical bands
    /// of near-equal element count (by centroid order).
    pub fn strips_x(mesh: &Mesh, parts: usize) -> Self {
        assert!(parts >= 1, "at least one part");
        let ne = mesh.element_count();
        // Order elements by centroid x, then assign contiguous runs.
        let mut order: Vec<usize> = (0..ne).collect();
        let cx = |e: usize| -> f64 {
            let el = &mesh.elements[e];
            el.nodes.iter().map(|&n| mesh.nodes[n].x).sum::<f64>() / el.nodes.len() as f64
        };
        order.sort_by(|&a, &b| cx(a).total_cmp(&cx(b)).then(a.cmp(&b)));
        let mut element_part = vec![0; ne];
        for (rank, &e) in order.iter().enumerate() {
            element_part[e] = rank * parts / ne.max(1);
        }
        Partition {
            element_part,
            parts,
        }
    }

    /// Elements of part `p`.
    pub fn elements_of(&self, p: usize) -> Vec<usize> {
        self.element_part
            .iter()
            .enumerate()
            .filter(|(_, &q)| q == p)
            .map(|(e, _)| e)
            .collect()
    }

    /// Nodes referenced by part `p`.
    pub(crate) fn nodes_of(&self, mesh: &Mesh, p: usize) -> BTreeSet<usize> {
        let mut s = BTreeSet::new();
        for e in self.elements_of(p) {
            s.extend(mesh.elements[e].nodes.iter().copied());
        }
        s
    }

    /// Interface nodes: nodes shared by two or more parts. These are the
    /// dofs that must be communicated (or condensed) between substructures.
    pub(crate) fn interface_nodes(&self, mesh: &Mesh) -> BTreeSet<usize> {
        let mut owner: Vec<Option<usize>> = vec![None; mesh.node_count()];
        let mut interface = BTreeSet::new();
        for (e, &p) in self.element_part.iter().enumerate() {
            for &n in &mesh.elements[e].nodes {
                match owner[n] {
                    None => owner[n] = Some(p),
                    Some(q) if q != p => {
                        interface.insert(n);
                    }
                    Some(_) => {}
                }
            }
        }
        interface
    }

    /// Sanity: every element assigned to a valid part.
    pub fn validate(&self) -> Result<(), String> {
        for (e, &p) in self.element_part.iter().enumerate() {
            if p >= self.parts {
                return Err(format!("element {e} assigned to missing part {p}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_partition_covers_all_elements_once() {
        let mesh = Mesh::grid_quad(8, 4, 8.0, 4.0);
        let p = Partition::strips_x(&mesh, 4);
        p.validate().unwrap();
        let total: usize = (0..4).map(|q| p.elements_of(q).len()).sum();
        assert_eq!(total, mesh.element_count());
    }

    #[test]
    fn strips_are_balanced_on_structured_grids() {
        let mesh = Mesh::grid_quad(8, 4, 8.0, 4.0);
        let p = Partition::strips_x(&mesh, 4);
        for q in 0..4 {
            assert_eq!(p.elements_of(q).len(), 8);
        }
    }

    #[test]
    fn interface_nodes_are_strip_boundaries() {
        let mesh = Mesh::grid_quad(4, 2, 4.0, 2.0);
        let p = Partition::strips_x(&mesh, 2);
        let iface = p.interface_nodes(&mesh);
        // The x = 2 column of nodes: 3 of them.
        assert_eq!(iface.len(), 3);
        for &n in &iface {
            assert!((mesh.nodes[n].x - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn more_parts_more_interface() {
        let mesh = Mesh::grid_quad(16, 4, 16.0, 4.0);
        let p2 = Partition::strips_x(&mesh, 2);
        let p8 = Partition::strips_x(&mesh, 8);
        assert!(p8.interface_nodes(&mesh).len() > p2.interface_nodes(&mesh).len());
    }

    #[test]
    fn single_part_has_no_interface() {
        let mesh = Mesh::grid_quad(4, 4, 1.0, 1.0);
        let p = Partition::strips_x(&mesh, 1);
        assert!(p.interface_nodes(&mesh).is_empty());
    }

    #[test]
    fn parts_nodes_overlap_only_on_interface() {
        let mesh = Mesh::grid_quad(6, 3, 6.0, 3.0);
        let p = Partition::strips_x(&mesh, 3);
        let iface = p.interface_nodes(&mesh);
        let n0 = p.nodes_of(&mesh, 0);
        let n1 = p.nodes_of(&mesh, 1);
        for n in n0.intersection(&n1) {
            assert!(iface.contains(n), "node {n} shared but not interface");
        }
    }
}
