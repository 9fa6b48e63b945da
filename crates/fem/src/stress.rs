//! Stress recovery: from nodal displacements back to element stresses —
//! the application user's "calculate stresses" operation.

use crate::element::{quad4_b_at, tri3_geometry, ElementKind};
use crate::material::Material;
use crate::mesh::Mesh;
use crate::DOF_PER_NODE;

/// The planar stress state of one element (at its representative point).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Stress {
    /// Normal stress σx.
    pub sx: f64,
    /// Normal stress σy.
    pub sy: f64,
    /// Shear stress τxy.
    pub txy: f64,
}

impl Stress {
    /// Von Mises equivalent stress.
    pub fn von_mises(&self) -> f64 {
        (self.sx * self.sx - self.sx * self.sy + self.sy * self.sy + 3.0 * self.txy * self.txy)
            .sqrt()
    }
}

/// Gather an element's displacement vector from the global solution.
fn gather(u: &[f64], nodes: &[usize]) -> Vec<f64> {
    let mut ue = Vec::with_capacity(nodes.len() * DOF_PER_NODE);
    for &n in nodes {
        ue.push(u[DOF_PER_NODE * n]);
        ue.push(u[DOF_PER_NODE * n + 1]);
    }
    ue
}

/// Stress in element `elem` given full-length displacements `u`.
///
/// * Bar2 — axial stress `σ = E·ΔL/L` reported as `sx` (in the bar's local
///   axis), `sy = txy = 0`;
/// * Tri3 — the element's constant stress;
/// * Quad4 — stress at the element centre (ξ = η = 0).
pub(crate) fn element_stress(mesh: &Mesh, elem: usize, mat: &Material, u: &[f64]) -> Stress {
    let e = &mesh.elements[elem];
    let (coords, nodes) = mesh.element_coords(elem);
    let coords = &coords[..nodes];
    let ue = gather(u, &e.nodes);
    match e.kind {
        ElementKind::Bar2 => {
            let (dx, dy) = (coords[1].x - coords[0].x, coords[1].y - coords[0].y);
            let l = (dx * dx + dy * dy).sqrt();
            let (c, s) = (dx / l, dy / l);
            let elongation = (ue[2] - ue[0]) * c + (ue[3] - ue[1]) * s;
            Stress {
                sx: mat.e * elongation / l,
                sy: 0.0,
                txy: 0.0,
            }
        }
        ElementKind::Tri3 => {
            let (area, b, c) = tri3_geometry(coords);
            let f = 1.0 / (2.0 * area);
            // Strains.
            let mut ex = 0.0;
            let mut ey = 0.0;
            let mut gxy = 0.0;
            for i in 0..3 {
                ex += f * b[i] * ue[2 * i];
                ey += f * c[i] * ue[2 * i + 1];
                gxy += f * (c[i] * ue[2 * i] + b[i] * ue[2 * i + 1]);
            }
            strain_to_stress(mat, ex, ey, gxy)
        }
        ElementKind::Quad4 => {
            let (bm, _) = quad4_b_at(coords, 0.0, 0.0);
            let mut eps = [0.0; 3];
            for (e_out, row) in eps.iter_mut().zip(&bm) {
                for (b, uj) in row.iter().zip(&ue) {
                    *e_out += b * uj;
                }
            }
            strain_to_stress(mat, eps[0], eps[1], eps[2])
        }
    }
}

fn strain_to_stress(mat: &Material, ex: f64, ey: f64, gxy: f64) -> Stress {
    let (d11, d12, d33) = mat.plane_stress_d();
    Stress {
        sx: d11 * ex + d12 * ey,
        sy: d12 * ex + d11 * ey,
        txy: d33 * gxy,
    }
}

/// Stresses for every element.
pub fn all_stresses(mesh: &Mesh, mat: &Material, u: &[f64]) -> Vec<Stress> {
    (0..mesh.element_count())
        .map(|e| element_stress(mesh, e, mat, u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Node;
    use crate::solver::testmat::values;

    /// Oracle: element stress from gathered `Vec`s and a heap `B`.
    fn element_stress_oracle(mesh: &Mesh, elem: usize, mat: &Material, u: &[f64]) -> Stress {
        let e = &mesh.elements[elem];
        let coords: Vec<_> = e.nodes.iter().map(|&n| mesh.nodes[n]).collect();
        let ue = gather(u, &e.nodes);
        match e.kind {
            ElementKind::Bar2 => element_stress(mesh, elem, mat, u),
            ElementKind::Tri3 => {
                let (area, b, c) = tri3_geometry(&coords);
                let f = 1.0 / (2.0 * area);
                let (mut ex, mut ey, mut gxy) = (0.0, 0.0, 0.0);
                for i in 0..3 {
                    ex += f * b[i] * ue[2 * i];
                    ey += f * c[i] * ue[2 * i + 1];
                    gxy += f * (c[i] * ue[2 * i] + b[i] * ue[2 * i + 1]);
                }
                strain_to_stress(mat, ex, ey, gxy)
            }
            ElementKind::Quad4 => {
                let (bm, _) = quad4_b_at(&coords, 0.0, 0.0);
                let bm = crate::dense::DenseMatrix::from_rows(3, 8, bm.as_flattened());
                let mut eps = [0.0; 3];
                for (row, e_out) in eps.iter_mut().enumerate() {
                    for (j, &uj) in ue.iter().enumerate() {
                        *e_out += bm[(row, j)] * uj;
                    }
                }
                strain_to_stress(mat, eps[0], eps[1], eps[2])
            }
        }
    }

    #[test]
    fn all_stresses_match_gathered_oracle_bitwise() {
        // Sheared grids: no element is axis-aligned, no strain term exact.
        for mut mesh in [
            Mesh::grid_tri(5, 4, 2.0, 1.5),
            Mesh::grid_quad(5, 4, 2.0, 1.5),
        ] {
            for p in &mut mesh.nodes {
                *p = Node {
                    x: p.x + 0.13 * p.y,
                    y: p.y + 0.07 * p.x,
                };
            }
            let mat = Material::aluminum();
            let u = values(41, 2 * mesh.node_count());
            let got = all_stresses(&mesh, &mat, &u);
            for (e, s) in got.iter().enumerate() {
                let want = element_stress_oracle(&mesh, e, &mat, &u);
                for (g, w) in [(s.sx, want.sx), (s.sy, want.sy), (s.txy, want.txy)] {
                    assert_eq!(g.to_bits(), w.to_bits(), "element {e}: {s:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn bar_axial_stress_from_stretch() {
        let mesh = Mesh::bar_chain(1, 2.0);
        let mat = Material::steel();
        // Stretch the free end by 1 mm over 2 m: ε = 5e-4.
        let u = vec![0.0, 0.0, 1e-3, 0.0];
        let s = element_stress(&mesh, 0, &mat, &u);
        assert!((s.sx - 200e9 * 5e-4).abs() / s.sx < 1e-12);
        assert_eq!(s.sy, 0.0);
    }

    #[test]
    fn rotated_bar_uses_axial_projection() {
        // 45° bar, pure y displacement at the far node.
        let mut mesh = Mesh::bar_chain(1, 1.0);
        mesh.nodes[1] = Node { x: 1.0, y: 1.0 };
        let mat = Material::unit();
        let u = vec![0.0, 0.0, 0.0, 1e-3];
        let s = element_stress(&mesh, 0, &mat, &u);
        let l = 2.0f64.sqrt();
        let expect = 1.0 * (1e-3 * (1.0 / l)) / l;
        assert!((s.sx - expect).abs() < 1e-15);
    }

    #[test]
    fn uniform_stretch_gives_uniform_stress_tri_and_quad() {
        for mesh in [
            Mesh::grid_tri(3, 3, 1.0, 1.0),
            Mesh::grid_quad(3, 3, 1.0, 1.0),
        ] {
            let mat = Material::unit();
            // u = 0.01 x: εx = 0.01 everywhere.
            let u: Vec<f64> = mesh.nodes.iter().flat_map(|n| [0.01 * n.x, 0.0]).collect();
            let stresses = all_stresses(&mesh, &mat, &u);
            for s in stresses {
                assert!((s.sx - 0.01).abs() < 1e-12, "sx = {}", s.sx);
                assert!(s.sy.abs() < 1e-12);
                assert!(s.txy.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn poisson_coupling_in_sy() {
        let mesh = Mesh::grid_quad(1, 1, 1.0, 1.0);
        let mat = Material::steel(); // nu = 0.3
        let u: Vec<f64> = mesh.nodes.iter().flat_map(|n| [1e-3 * n.x, 0.0]).collect();
        let s = element_stress(&mesh, 0, &mat, &u);
        assert!((s.sy / s.sx - 0.3).abs() < 1e-10, "sy/sx = {}", s.sy / s.sx);
    }

    #[test]
    fn von_mises_of_uniaxial_and_pure_shear() {
        let s = Stress {
            sx: 100.0,
            sy: 0.0,
            txy: 0.0,
        };
        assert!((s.von_mises() - 100.0).abs() < 1e-12);

        let pure_shear = Stress {
            sx: 0.0,
            sy: 0.0,
            txy: 50.0,
        };
        assert!((pure_shear.von_mises() - 50.0 * 3.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rigid_motion_is_stress_free() {
        let mesh = Mesh::grid_quad(2, 2, 1.0, 1.0);
        let mat = Material::steel();
        // Translation + small rotation.
        let u: Vec<f64> = mesh
            .nodes
            .iter()
            .flat_map(|n| [0.5 - 1e-4 * n.y, -0.25 + 1e-4 * n.x])
            .collect();
        for s in all_stresses(&mesh, &mat, &u) {
            assert!(s.von_mises() < 1e-3, "vm = {}", s.von_mises());
        }
    }
}
