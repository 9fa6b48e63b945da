//! The element library: stiffness matrices for 2-D structural elements.
//!
//! * [`ElementKind::Bar2`] — two-node truss bar, arbitrary orientation;
//! * [`ElementKind::Tri3`] — three-node constant-strain triangle (CST),
//!   plane stress;
//! * [`ElementKind::Quad4`] — four-node isoparametric quadrilateral, plane
//!   stress, 2×2 Gauss quadrature.
//!
//! Every element has two translational degrees of freedom per node
//! (`u, v`), ordered `[u₁, v₁, u₂, v₂, …]`.

use crate::dense::DenseMatrix;
use crate::material::Material;
use crate::mesh::Node;
use serde::{Deserialize, Serialize};

/// Element formulations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ElementKind {
    /// Two-node truss bar.
    Bar2,
    /// Three-node constant-strain triangle, plane stress.
    Tri3,
    /// Four-node isoparametric quadrilateral, plane stress.
    Quad4,
}

impl ElementKind {
    /// Number of nodes the formulation connects.
    pub fn node_count(self) -> usize {
        match self {
            ElementKind::Bar2 => 2,
            ElementKind::Tri3 => 3,
            ElementKind::Quad4 => 4,
        }
    }

    /// Number of element degrees of freedom.
    pub fn dof_count(self) -> usize {
        self.node_count() * crate::DOF_PER_NODE
    }
}

/// An element stiffness matrix plus the global dof indices it scatters to.
#[derive(Clone, Debug)]
pub struct ElementMatrix {
    /// The element stiffness (square, `dofs.len()` × `dofs.len()`).
    pub k: DenseMatrix,
    /// Global dof indices.
    pub dofs: Vec<usize>,
}

/// Compute the element stiffness matrix for `kind` with node coordinates
/// `coords` (one entry per element node) and material `mat`.
///
/// # Panics
/// Panics if `coords.len()` does not match the formulation, or the element
/// geometry is degenerate (zero length/area).
pub fn stiffness(kind: ElementKind, coords: &[Node], mat: &Material) -> DenseMatrix {
    assert_eq!(coords.len(), kind.node_count(), "coordinate count mismatch");
    match kind {
        ElementKind::Bar2 => bar2(coords, mat),
        ElementKind::Tri3 => tri3(coords, mat),
        ElementKind::Quad4 => quad4(coords, mat),
    }
}

fn bar2(coords: &[Node], mat: &Material) -> DenseMatrix {
    let (dx, dy) = (coords[1].x - coords[0].x, coords[1].y - coords[0].y);
    let l = (dx * dx + dy * dy).sqrt();
    assert!(l > 0.0, "zero-length bar");
    let (c, s) = (dx / l, dy / l);
    let ea_l = mat.e * mat.area / l;
    let (c2, s2, cs) = (c * c, s * s, c * s);
    DenseMatrix::from_rows(
        4,
        4,
        &[
            ea_l * c2,
            ea_l * cs,
            -ea_l * c2,
            -ea_l * cs,
            ea_l * cs,
            ea_l * s2,
            -ea_l * cs,
            -ea_l * s2,
            -ea_l * c2,
            -ea_l * cs,
            ea_l * c2,
            ea_l * cs,
            -ea_l * cs,
            -ea_l * s2,
            ea_l * cs,
            ea_l * s2,
        ],
    )
}

/// CST geometry helpers: returns (area, b[3], c[3]) where the strain-
/// displacement matrix is B = 1/(2A) [[b,0],[0,c],[c,b]] per node.
pub(crate) fn tri3_geometry(coords: &[Node]) -> (f64, [f64; 3], [f64; 3]) {
    let (x1, y1) = (coords[0].x, coords[0].y);
    let (x2, y2) = (coords[1].x, coords[1].y);
    let (x3, y3) = (coords[2].x, coords[2].y);
    let area2 = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1);
    assert!(area2 > 0.0, "triangle not counter-clockwise or degenerate");
    let b = [y2 - y3, y3 - y1, y1 - y2];
    let c = [x3 - x2, x1 - x3, x2 - x1];
    (area2 / 2.0, b, c)
}

/// A 3×`N` strain-displacement matrix (`N` element dofs), on the stack.
pub(crate) type StrainDisp<const N: usize> = [[f64; N]; 3];

/// `t·w·Bᵀ·D·B` for the plane-stress `D` of `mat`.
///
/// The order of operations is fixed: row `i` of `BᵀD`, then of `(BᵀD)·B`,
/// is summed from 0.0 over the three strain components in order, a
/// component whose factor is exactly zero adds nothing (not even a signed
/// zero), and `tw` multiplies each finished entry.
fn btdb<const N: usize>(b: &StrainDisp<N>, mat: &Material, tw: f64) -> [[f64; N]; N] {
    let (d11, d12, d33) = mat.plane_stress_d();
    let d = [[d11, d12, 0.0], [d12, d11, 0.0], [0.0, 0.0, d33]];
    let mut k = [[0.0; N]; N];
    for (i, ki) in k.iter_mut().enumerate() {
        let mut btd = [0.0; 3];
        for (bc, dc) in b.iter().zip(&d) {
            if bc[i] == 0.0 {
                continue;
            }
            for (o, dcj) in btd.iter_mut().zip(dc) {
                *o += bc[i] * dcj;
            }
        }
        for (f, bc) in btd.iter().zip(b) {
            if *f == 0.0 {
                continue;
            }
            for (o, bcj) in ki.iter_mut().zip(bc) {
                *o += f * bcj;
            }
        }
        for o in ki.iter_mut() {
            *o *= tw;
        }
    }
    k
}

fn tri3(coords: &[Node], mat: &Material) -> DenseMatrix {
    let (area, b, c) = tri3_geometry(coords);
    let f = 1.0 / (2.0 * area);
    let mut bm: StrainDisp<6> = [[0.0; 6]; 3];
    for i in 0..3 {
        bm[0][2 * i] = f * b[i];
        bm[1][2 * i + 1] = f * c[i];
        bm[2][2 * i] = f * c[i];
        bm[2][2 * i + 1] = f * b[i];
    }
    let k = btdb(&bm, mat, mat.thickness * area);
    DenseMatrix::from_rows(6, 6, k.as_flattened())
}

/// Quad4 strain-displacement matrix and Jacobian determinant at natural
/// coordinates `(xi, eta)`.
pub(crate) fn quad4_b_at(coords: &[Node], xi: f64, eta: f64) -> (StrainDisp<8>, f64) {
    // Shape function derivatives w.r.t. natural coordinates.
    let dn_dxi = [
        -(1.0 - eta) / 4.0,
        (1.0 - eta) / 4.0,
        (1.0 + eta) / 4.0,
        -(1.0 + eta) / 4.0,
    ];
    let dn_deta = [
        -(1.0 - xi) / 4.0,
        -(1.0 + xi) / 4.0,
        (1.0 + xi) / 4.0,
        (1.0 - xi) / 4.0,
    ];
    // Jacobian.
    let (mut j11, mut j12, mut j21, mut j22) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..4 {
        j11 += dn_dxi[i] * coords[i].x;
        j12 += dn_dxi[i] * coords[i].y;
        j21 += dn_deta[i] * coords[i].x;
        j22 += dn_deta[i] * coords[i].y;
    }
    let det = j11 * j22 - j12 * j21;
    assert!(det > 0.0, "quad Jacobian not positive (bad node order?)");
    let inv = [j22 / det, -j12 / det, -j21 / det, j11 / det];
    let mut bm: StrainDisp<8> = [[0.0; 8]; 3];
    for i in 0..4 {
        let dn_dx = inv[0] * dn_dxi[i] + inv[1] * dn_deta[i];
        let dn_dy = inv[2] * dn_dxi[i] + inv[3] * dn_deta[i];
        bm[0][2 * i] = dn_dx;
        bm[1][2 * i + 1] = dn_dy;
        bm[2][2 * i] = dn_dy;
        bm[2][2 * i + 1] = dn_dx;
    }
    (bm, det)
}

fn quad4(coords: &[Node], mat: &Material) -> DenseMatrix {
    let g = 1.0 / 3.0f64.sqrt();
    let points = [(-g, -g), (g, -g), (g, g), (-g, g)];
    let mut k = [[0.0; 8]; 8];
    for (xi, eta) in points {
        let (bm, det) = quad4_b_at(coords, xi, eta);
        let kg = btdb(&bm, mat, mat.thickness * det); // weight = 1
        for (row, grow) in k.iter_mut().zip(&kg) {
            for (o, g) in row.iter_mut().zip(grow) {
                *o += g;
            }
        }
    }
    DenseMatrix::from_rows(8, 8, k.as_flattened())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testmat::assert_bits_eq;

    fn n(x: f64, y: f64) -> Node {
        Node { x, y }
    }

    /// Oracle: `t·w·Bᵀ·D·B` as three `DenseMatrix` products — the order of
    /// operations the stack form keeps (`matmul` skips exact-zero factors).
    fn btdb_oracle(b_mat: &DenseMatrix, mat: &Material, tw: f64) -> DenseMatrix {
        let (d11, d12, d33) = mat.plane_stress_d();
        let d = DenseMatrix::from_rows(3, 3, &[d11, d12, 0.0, d12, d11, 0.0, 0.0, 0.0, d33]);
        let mut k = b_mat.transpose().matmul(&d).matmul(b_mat);
        for i in 0..k.rows() {
            for j in 0..k.cols() {
                k[(i, j)] *= tw;
            }
        }
        k
    }

    /// Oracle: Tri3 and Quad4 stiffness through `btdb_oracle`, one heap
    /// matrix per product per Gauss point.
    fn stiffness_oracle(kind: ElementKind, coords: &[Node], mat: &Material) -> DenseMatrix {
        match kind {
            ElementKind::Bar2 => bar2(coords, mat),
            ElementKind::Tri3 => {
                let (area, b, c) = tri3_geometry(coords);
                let f = 1.0 / (2.0 * area);
                let mut bm = DenseMatrix::zeros(3, 6);
                for i in 0..3 {
                    bm[(0, 2 * i)] = f * b[i];
                    bm[(1, 2 * i + 1)] = f * c[i];
                    bm[(2, 2 * i)] = f * c[i];
                    bm[(2, 2 * i + 1)] = f * b[i];
                }
                btdb_oracle(&bm, mat, mat.thickness * area)
            }
            ElementKind::Quad4 => {
                let g = 1.0 / 3.0f64.sqrt();
                let mut k = DenseMatrix::zeros(8, 8);
                for (xi, eta) in [(-g, -g), (g, -g), (g, g), (-g, g)] {
                    let (bm, det) = quad4_b_at(coords, xi, eta);
                    let bm = DenseMatrix::from_rows(3, 8, bm.as_flattened());
                    let kg = btdb_oracle(&bm, mat, mat.thickness * det);
                    for i in 0..8 {
                        for j in 0..8 {
                            k[(i, j)] += kg[(i, j)];
                        }
                    }
                }
                k
            }
        }
    }

    #[test]
    fn stiffness_matches_dense_product_oracle_bitwise() {
        let (s, c) = (0.6, 0.8); // an exact rotation: 0.36 + 0.64 = 1
        let turn = |p: &[Node]| -> Vec<Node> {
            p.iter()
                .map(|q| n(c * q.x - s * q.y, s * q.x + c * q.y))
                .collect()
        };
        // Axis-aligned elements give `B` and `BᵀD` the exact zeros the
        // zero-factor skip sees; distorted and rotated ones give none.
        let tris = [
            vec![n(0.0, 0.0), n(1.0, 0.0), n(0.0, 1.0)],
            vec![n(2.0, 1.0), n(4.5, 1.0), n(2.0, 2.25)],
            vec![n(0.0, 0.0), n(1.0, 0.1), n(0.2, 1.3)],
            vec![n(-3.1, 0.7), n(1.9, -0.45), n(0.33, 2.71)],
        ];
        let quads = [
            unit_square(),
            vec![n(1.0, 2.0), n(3.5, 2.0), n(3.5, 2.75), n(1.0, 2.75)],
            vec![n(0.0, 0.0), n(1.2, 0.1), n(1.1, 1.0), n(-0.1, 0.9)],
            vec![n(0.3, -0.2), n(2.9, 0.4), n(2.2, 1.9), n(-0.4, 1.1)],
        ];
        for mat in [Material::steel(), Material::aluminum(), Material::unit()] {
            for (kind, shapes) in [(ElementKind::Tri3, &tris), (ElementKind::Quad4, &quads)] {
                for shape in shapes {
                    for coords in [shape.clone(), turn(shape)] {
                        let k = stiffness(kind, &coords, &mat);
                        let want = stiffness_oracle(kind, &coords, &mat);
                        assert_eq!((k.rows(), k.cols()), (want.rows(), want.cols()));
                        assert_bits_eq(k.data(), want.data(), &format!("{kind:?} {coords:?}"));
                    }
                }
            }
        }
    }

    fn unit_square() -> Vec<Node> {
        vec![n(0.0, 0.0), n(1.0, 0.0), n(1.0, 1.0), n(0.0, 1.0)]
    }

    fn rigid_modes(nnodes: usize, coords: &[Node]) -> Vec<Vec<f64>> {
        // Two translations and one in-plane rotation.
        let mut tx = vec![0.0; 2 * nnodes];
        let mut ty = vec![0.0; 2 * nnodes];
        let mut rot = vec![0.0; 2 * nnodes];
        for i in 0..nnodes {
            tx[2 * i] = 1.0;
            ty[2 * i + 1] = 1.0;
            rot[2 * i] = -coords[i].y;
            rot[2 * i + 1] = coords[i].x;
        }
        vec![tx, ty, rot]
    }

    #[test]
    fn kind_arities() {
        assert_eq!(ElementKind::Bar2.node_count(), 2);
        assert_eq!(ElementKind::Tri3.node_count(), 3);
        assert_eq!(ElementKind::Quad4.node_count(), 4);
        assert_eq!(ElementKind::Quad4.dof_count(), 8);
    }

    #[test]
    fn bar_axial_stiffness_known() {
        // Horizontal unit bar with EA = 1: k11 = 1.
        let k = stiffness(
            ElementKind::Bar2,
            &[n(0.0, 0.0), n(1.0, 0.0)],
            &Material::unit(),
        );
        assert!((k[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((k[(0, 2)] + 1.0).abs() < 1e-14);
        assert_eq!(k[(1, 1)], 0.0, "no transverse stiffness");
    }

    #[test]
    fn bar_rotated_45_degrees() {
        let k = stiffness(
            ElementKind::Bar2,
            &[n(0.0, 0.0), n(1.0, 1.0)],
            &Material::unit(),
        );
        let ea_l = 1.0 / 2.0f64.sqrt();
        for (i, j, sign) in [(0, 0, 1.0), (0, 1, 1.0), (0, 2, -1.0), (1, 3, -1.0)] {
            assert!(
                (k[(i, j)] - sign * ea_l * 0.5).abs() < 1e-14,
                "k[{i}{j}] = {}",
                k[(i, j)]
            );
        }
    }

    #[test]
    fn all_elements_symmetric() {
        let mat = Material::steel();
        let cases = [
            (ElementKind::Bar2, vec![n(0.0, 0.0), n(2.0, 1.0)]),
            (
                ElementKind::Tri3,
                vec![n(0.0, 0.0), n(1.0, 0.1), n(0.2, 1.3)],
            ),
            (
                ElementKind::Quad4,
                vec![n(0.0, 0.0), n(1.2, 0.1), n(1.1, 1.0), n(-0.1, 0.9)],
            ),
        ];
        for (kind, coords) in cases {
            let k = stiffness(kind, &coords, &mat);
            assert!(k.asymmetry() < 1e-6 * mat.e, "{kind:?}");
        }
    }

    #[test]
    fn rigid_body_modes_produce_no_force() {
        let mat = Material::steel();
        let cases = [
            (
                ElementKind::Tri3,
                vec![n(0.0, 0.0), n(1.0, 0.0), n(0.0, 1.0)],
            ),
            (ElementKind::Quad4, unit_square()),
        ];
        for (kind, coords) in cases {
            let k = stiffness(kind, &coords, &mat);
            for mode in rigid_modes(coords.len(), &coords) {
                let f = k.matvec(&mode);
                let worst = f.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                assert!(worst < 1e-4, "{kind:?}: residual {worst}");
            }
        }
    }

    #[test]
    fn stiffness_positive_semidefinite() {
        let mat = Material::steel();
        let k = stiffness(ElementKind::Quad4, &unit_square(), &mat);
        // Pseudo-random trial vectors: xᵀKx ≥ 0.
        for seed in 0..20u64 {
            let x: Vec<f64> = (0..8)
                .map(|i| (((seed * 37 + i * 17) % 19) as f64 - 9.0) / 9.0)
                .collect();
            let kx = k.matvec(&x);
            let q: f64 = x.iter().zip(&kx).map(|(a, b)| a * b).sum();
            assert!(q >= -1e-3, "xᵀKx = {q}");
        }
    }

    #[test]
    fn cst_patch_constant_strain() {
        // Pure x-stretch u = x on a triangle: strain εx = 1, forces should
        // match σ = D ε integrated over edges. Check energy: ½uᵀKu =
        // ½ σx εx A t = ½ d11 A t for unit strain.
        let mat = Material::unit();
        let coords = vec![n(0.0, 0.0), n(2.0, 0.0), n(0.0, 1.5)];
        let k = stiffness(ElementKind::Tri3, &coords, &mat);
        let u: Vec<f64> = coords.iter().flat_map(|p| [p.x, 0.0]).collect();
        let ku = k.matvec(&u);
        let energy: f64 = 0.5 * u.iter().zip(&ku).map(|(a, b)| a * b).sum::<f64>();
        let area = 0.5 * 2.0 * 1.5;
        assert!((energy - 0.5 * 1.0 * area * mat.thickness).abs() < 1e-12);
    }

    #[test]
    fn quad_matches_two_triangles_in_energy_for_constant_strain() {
        // Under a constant-strain field both discretizations store the same
        // energy (both reproduce constant strain exactly).
        let mat = Material::steel();
        let quad = stiffness(ElementKind::Quad4, &unit_square(), &mat);
        let sq = unit_square();
        let t1 = stiffness(ElementKind::Tri3, &[sq[0], sq[1], sq[2]], &mat);
        let t2 = stiffness(ElementKind::Tri3, &[sq[0], sq[2], sq[3]], &mat);
        // u = x stretch.
        let uq: Vec<f64> = sq.iter().flat_map(|p| [p.x, 0.0]).collect();
        let e_quad: f64 = 0.5
            * uq.iter()
                .zip(quad.matvec(&uq))
                .map(|(a, b)| a * b)
                .sum::<f64>();
        let u1: Vec<f64> = [sq[0], sq[1], sq[2]]
            .iter()
            .flat_map(|p| [p.x, 0.0])
            .collect();
        let u2: Vec<f64> = [sq[0], sq[2], sq[3]]
            .iter()
            .flat_map(|p| [p.x, 0.0])
            .collect();
        let e_tri: f64 = 0.5
            * u1.iter()
                .zip(t1.matvec(&u1))
                .map(|(a, b)| a * b)
                .sum::<f64>()
            + 0.5
                * u2.iter()
                    .zip(t2.matvec(&u2))
                    .map(|(a, b)| a * b)
                    .sum::<f64>();
        assert!((e_quad - e_tri).abs() / e_quad.abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "zero-length bar")]
    fn degenerate_bar_panics() {
        stiffness(
            ElementKind::Bar2,
            &[n(1.0, 1.0), n(1.0, 1.0)],
            &Material::unit(),
        );
    }

    #[test]
    #[should_panic(expected = "not counter-clockwise")]
    fn clockwise_triangle_panics() {
        stiffness(
            ElementKind::Tri3,
            &[n(0.0, 0.0), n(0.0, 1.0), n(1.0, 0.0)],
            &Material::unit(),
        );
    }

    #[test]
    #[should_panic(expected = "coordinate count mismatch")]
    fn arity_checked() {
        stiffness(ElementKind::Quad4, &[n(0.0, 0.0)], &Material::unit());
    }
}
