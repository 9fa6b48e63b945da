//! Grid descriptions: nodes, elements, and structured mesh generators.
//!
//! The application user's "generate grid" operation: regular bar chains,
//! quadrilateral plates, and triangulated plates, plus mesh queries
//! (bandwidth, boundary nodes) the solvers and partitioners need.

use crate::element::ElementKind;
use serde::{Deserialize, Serialize};

/// A mesh node: a point in the plane.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Node {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

/// The most nodes any [`ElementKind`] connects.
pub(crate) const MAX_ELEMENT_NODES: usize = 4;

/// An element: a kind plus its node connectivity (indices into the mesh's
/// node list, counter-clockwise for areal elements).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Element {
    /// The element formulation.
    pub kind: ElementKind,
    /// Connected node indices.
    pub nodes: Vec<usize>,
}

/// A grid description: nodes plus elements.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Mesh {
    /// Node coordinates.
    pub nodes: Vec<Node>,
    /// Element connectivity.
    pub elements: Vec<Element>,
}

impl Mesh {
    /// An empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Coordinates of element `elem`'s nodes in connectivity order: a
    /// fixed buffer and how many of its entries are the element's.
    pub(crate) fn element_coords(&self, elem: usize) -> ([Node; MAX_ELEMENT_NODES], usize) {
        let nodes = &self.elements[elem].nodes;
        let mut buf = [Node { x: 0.0, y: 0.0 }; MAX_ELEMENT_NODES];
        for (slot, &n) in buf[..nodes.len()].iter_mut().zip(nodes) {
            *slot = self.nodes[n];
        }
        (buf, nodes.len())
    }

    /// A chain of `n ≥ 1` bar elements along the x axis, total length
    /// `length`: `n + 1` nodes, node 0 at the origin.
    pub fn bar_chain(n: usize, length: f64) -> Self {
        assert!(n >= 1, "at least one bar");
        let dx = length / n as f64;
        let nodes = (0..=n)
            .map(|i| Node {
                x: i as f64 * dx,
                y: 0.0,
            })
            .collect();
        let elements = (0..n)
            .map(|i| Element {
                kind: ElementKind::Bar2,
                nodes: vec![i, i + 1],
            })
            .collect();
        Mesh { nodes, elements }
    }

    /// A structured `nx × ny` grid of Quad4 elements over an `lx × ly`
    /// rectangle: `(nx+1)(ny+1)` nodes, row-major (x fastest).
    pub fn grid_quad(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        assert!(nx >= 1 && ny >= 1, "degenerate grid");
        let (dx, dy) = (lx / nx as f64, ly / ny as f64);
        let mut nodes = Vec::with_capacity((nx + 1) * (ny + 1));
        for j in 0..=ny {
            for i in 0..=nx {
                nodes.push(Node {
                    x: i as f64 * dx,
                    y: j as f64 * dy,
                });
            }
        }
        let at = |i: usize, j: usize| j * (nx + 1) + i;
        let mut elements = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                elements.push(Element {
                    kind: ElementKind::Quad4,
                    nodes: vec![at(i, j), at(i + 1, j), at(i + 1, j + 1), at(i, j + 1)],
                });
            }
        }
        Mesh { nodes, elements }
    }

    /// Like [`Mesh::grid_quad`] but each cell split into two CST triangles.
    pub fn grid_tri(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        let quad = Self::grid_quad(nx, ny, lx, ly);
        let mut elements = Vec::with_capacity(2 * nx * ny);
        for e in &quad.elements {
            let [a, b, c, d] = [e.nodes[0], e.nodes[1], e.nodes[2], e.nodes[3]];
            elements.push(Element {
                kind: ElementKind::Tri3,
                nodes: vec![a, b, c],
            });
            elements.push(Element {
                kind: ElementKind::Tri3,
                nodes: vec![a, c, d],
            });
        }
        Mesh {
            nodes: quad.nodes,
            elements,
        }
    }

    /// Node indices on the x = 0 edge (within `tol`).
    pub fn left_edge_nodes(&self, tol: f64) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.x.abs() <= tol)
            .map(|(i, _)| i)
            .collect()
    }

    /// Node indices on the x = max edge (within `tol`).
    pub fn right_edge_nodes(&self, tol: f64) -> Vec<usize> {
        let xmax = self
            .nodes
            .iter()
            .map(|n| n.x)
            .fold(f64::NEG_INFINITY, f64::max);
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| (n.x - xmax).abs() <= tol)
            .map(|(i, _)| i)
            .collect()
    }

    /// The node nearest to `(x, y)`.
    pub fn nearest_node(&self, x: f64, y: f64) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = (a.x - x).powi(2) + (a.y - y).powi(2);
                let db = (b.x - x).powi(2) + (b.y - y).powi(2);
                da.total_cmp(&db)
            })
            .map(|(i, _)| i)
            .expect("empty mesh")
    }

    /// Half-bandwidth of the node connectivity: `max |i - j|` over element
    /// node pairs. Governs skyline storage.
    pub fn half_bandwidth(&self) -> usize {
        let mut hb = 0;
        for e in &self.elements {
            for (a, &i) in e.nodes.iter().enumerate() {
                for &j in &e.nodes[a + 1..] {
                    hb = hb.max(i.abs_diff(j));
                }
            }
        }
        hb
    }

    /// Validate connectivity: every element references existing nodes and
    /// has the arity its kind requires.
    pub fn validate(&self) -> Result<(), String> {
        for (idx, e) in self.elements.iter().enumerate() {
            if e.nodes.len() != e.kind.node_count() {
                return Err(format!(
                    "element {idx}: {:?} needs {} nodes, has {}",
                    e.kind,
                    e.kind.node_count(),
                    e.nodes.len()
                ));
            }
            for &n in &e.nodes {
                if n >= self.nodes.len() {
                    return Err(format!("element {idx} references missing node {n}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chain_shape() {
        let m = Mesh::bar_chain(4, 2.0);
        assert_eq!(m.node_count(), 5);
        assert_eq!(m.element_count(), 4);
        assert_eq!(m.nodes[4].x, 2.0);
        assert_eq!(m.nodes[2].x, 1.0);
        m.validate().unwrap();
    }

    #[test]
    fn grid_quad_shape() {
        let m = Mesh::grid_quad(3, 2, 3.0, 2.0);
        assert_eq!(m.node_count(), 4 * 3);
        assert_eq!(m.element_count(), 6);
        m.validate().unwrap();
        // First element connects the origin cell counter-clockwise.
        assert_eq!(m.elements[0].nodes, vec![0, 1, 5, 4]);
        // Unit spacing.
        assert_eq!(m.nodes[1].x, 1.0);
        assert_eq!(m.nodes[4].y, 1.0);
    }

    #[test]
    fn grid_tri_doubles_elements() {
        let m = Mesh::grid_tri(3, 2, 3.0, 2.0);
        assert_eq!(m.element_count(), 12);
        assert_eq!(m.node_count(), 12);
        m.validate().unwrap();
        assert!(m.elements.iter().all(|e| e.kind == ElementKind::Tri3));
    }

    #[test]
    fn edges_and_nearest() {
        let m = Mesh::grid_quad(4, 4, 4.0, 4.0);
        let left = m.left_edge_nodes(1e-9);
        assert_eq!(left.len(), 5);
        assert!(left.iter().all(|&i| m.nodes[i].x == 0.0));
        let right = m.right_edge_nodes(1e-9);
        assert_eq!(right.len(), 5);
        assert!(right.iter().all(|&i| m.nodes[i].x == 4.0));
        assert_eq!(m.nearest_node(4.0, 4.0), m.node_count() - 1);
        assert_eq!(m.nearest_node(-1.0, -1.0), 0);
    }

    #[test]
    fn half_bandwidth_structured() {
        let m = Mesh::grid_quad(4, 4, 1.0, 1.0);
        // Row-major numbering: adjacent rows differ by nx+1 = 5, plus 1.
        assert_eq!(m.half_bandwidth(), 6);
        let bar = Mesh::bar_chain(10, 1.0);
        assert_eq!(bar.half_bandwidth(), 1);
    }

    #[test]
    fn validate_catches_bad_connectivity() {
        let mut m = Mesh::bar_chain(2, 1.0);
        m.elements[0].nodes = vec![0, 99];
        assert!(m.validate().is_err());
        let mut m2 = Mesh::bar_chain(2, 1.0);
        m2.elements[1].nodes = vec![0];
        assert!(m2.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "degenerate grid")]
    fn degenerate_grid_rejected() {
        Mesh::grid_quad(0, 2, 1.0, 1.0);
    }
}
