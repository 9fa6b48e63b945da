//! Substructure analysis by static condensation.
//!
//! A structure is carved into substructures ([`crate::partition`]); each
//! substructure condenses its interior dofs onto the interface
//! (`K̂ = K_bb − K_bi·K_ii⁻¹·K_ib`), the assembled interface system is
//! solved, and interior displacements are recovered by back-substitution.
//! Condensation of distinct substructures is independent — the
//! substructure-level parallelism of the paper's conclusion — and
//! [`analyze_substructures`] splits it over two host threads.

use crate::assembly::element_matrix;
use crate::bc::Constraints;
use crate::dense::DenseMatrix;
use crate::material::Material;
use crate::mesh::Mesh;
use crate::partition::Partition;
use crate::DOF_PER_NODE;
use std::collections::BTreeSet;

/// One substructure's condensation product.
struct Condensed {
    /// Global free-dof ids of this substructure's boundary, in local order.
    boundary: Vec<usize>,
    /// Condensed boundary stiffness `K̂_bb`.
    k_hat: DenseMatrix,
    /// Condensed boundary load `f̂_b` (the `−K_biᵀ…` correction only; the
    /// direct interface loads are added once, globally).
    f_hat: Vec<f64>,
    /// Interior recovery operators: `u_i = rec_f − rec_u · u_b`.
    interior: Vec<usize>,
    kii_inv: DenseMatrix,
    kib: DenseMatrix,
    f_i: Vec<f64>,
}

/// Result of a substructured analysis.
pub struct SubstructureSolution {
    /// Full-length displacement vector (zeros at supports).
    pub displacements: Vec<f64>,
    /// Interface dof count (the size of the coupled solve).
    pub interface_dofs: usize,
    /// Largest interior block condensed.
    pub max_interior: usize,
}

fn dofs_of_nodes(nodes: &BTreeSet<usize>) -> BTreeSet<usize> {
    nodes
        .iter()
        .flat_map(|&n| [DOF_PER_NODE * n, DOF_PER_NODE * n + 1])
        .collect()
}

fn condense_one(
    mesh: &Mesh,
    mat: &Material,
    cons: &Constraints,
    part: &Partition,
    iface_dofs: &BTreeSet<usize>,
    f_full: &[f64],
    p: usize,
) -> Condensed {
    let nodes = part.nodes_of(mesh, p);
    let dofs: Vec<usize> = dofs_of_nodes(&nodes)
        .into_iter()
        .filter(|d| !cons.is_fixed(*d))
        .collect();
    let boundary: Vec<usize> = dofs
        .iter()
        .copied()
        .filter(|d| iface_dofs.contains(d))
        .collect();
    let interior: Vec<usize> = dofs
        .iter()
        .copied()
        .filter(|d| !iface_dofs.contains(d))
        .collect();
    // Local numbering: interior first, then boundary.
    let mut local = vec![usize::MAX; mesh.node_count() * DOF_PER_NODE];
    for (i, &d) in interior.iter().enumerate() {
        local[d] = i;
    }
    for (i, &d) in boundary.iter().enumerate() {
        local[d] = interior.len() + i;
    }
    let nl = interior.len() + boundary.len();
    let mut k = DenseMatrix::zeros(nl, nl);
    for e in part.elements_of(p) {
        let em = element_matrix(mesh, e, mat);
        for (i, &gi) in em.dofs.iter().enumerate() {
            if cons.is_fixed(gi) {
                continue;
            }
            let li = local[gi];
            for (j, &gj) in em.dofs.iter().enumerate() {
                if cons.is_fixed(gj) {
                    continue;
                }
                k[(li, local[gj])] += em.k[(i, j)];
            }
        }
    }
    let (ni, nb) = (interior.len(), boundary.len());
    let mut kii = DenseMatrix::zeros(ni, ni);
    let mut kib = DenseMatrix::zeros(ni, nb);
    let mut kbb = DenseMatrix::zeros(nb, nb);
    for i in 0..ni {
        for j in 0..ni {
            kii[(i, j)] = k[(i, j)];
        }
        for j in 0..nb {
            kib[(i, j)] = k[(i, ni + j)];
        }
    }
    for i in 0..nb {
        for j in 0..nb {
            kbb[(i, j)] = k[(ni + i, ni + j)];
        }
    }
    let f_i: Vec<f64> = interior.iter().map(|&d| f_full[d]).collect();
    let kii_inv = kii
        .inverse_spd()
        .expect("interior block SPD (is the structure adequately supported?)");
    // K̂ = K_bb − K_biᵀ K_ii⁻¹ K_ib  (K_bi = K_ibᵀ by symmetry).
    let kii_inv_kib = kii_inv.matmul(&kib);
    let correction = kib.transpose().matmul(&kii_inv_kib);
    let mut k_hat = kbb;
    for i in 0..nb {
        for j in 0..nb {
            k_hat[(i, j)] -= correction[(i, j)];
        }
    }
    // f̂ = −K_biᵀ K_ii⁻¹ f_i.
    let kii_inv_fi = kii_inv.matvec(&f_i);
    let f_hat: Vec<f64> = (0..nb)
        .map(|b| {
            let mut s = 0.0;
            for i in 0..ni {
                s -= kib[(i, b)] * kii_inv_fi[i];
            }
            s
        })
        .collect();
    Condensed {
        boundary,
        k_hat,
        f_hat,
        interior,
        kii_inv,
        kib,
        f_i,
    }
}

/// Solve `K·u = f` by substructuring: condense each part, solve the
/// interface system, and back-substitute.
///
/// `f_full` is the full-length load vector; returns full-length
/// displacements with zeros at supports.
///
/// The parts are condensed on two host threads, this one and one more
/// (`std::thread::scope`, the same bits as a single loop: each part's
/// product depends on that part alone and the products are used in part
/// order). That is the one host-parallel path of this crate that met the
/// rule of EXPERIMENTS.md A7 "PR 24" — ≥ 1.3× at two threads against the
/// sequential loop: 1.66× on a 128×16 wing in 8 parts, where condensation
/// is the whole cost; 1.24× on a 32×4 wing, 0.7 ms either way.
pub fn analyze_substructures(
    mesh: &Mesh,
    mat: &Material,
    cons: &Constraints,
    part: &Partition,
    f_full: &[f64],
) -> SubstructureSolution {
    let iface_nodes = part.interface_nodes(mesh);
    let iface_dofs: BTreeSet<usize> = dofs_of_nodes(&iface_nodes)
        .into_iter()
        .filter(|d| !cons.is_fixed(*d))
        .collect();
    let iface_list: Vec<usize> = iface_dofs.iter().copied().collect();
    let iface_index = |d: usize| iface_list.binary_search(&d).expect("interface dof");

    // Condense every part: the back half on one more thread, the front
    // half here, joined in part order.
    let condense = |p: usize| condense_one(mesh, mat, cons, part, &iface_dofs, f_full, p);
    let split = part.parts.div_ceil(2);
    let condensed: Vec<Condensed> = std::thread::scope(|s| {
        let back = s.spawn(|| (split..part.parts).map(condense).collect::<Vec<_>>());
        let mut all: Vec<Condensed> = (0..split).map(condense).collect();
        all.extend(back.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        all
    });

    // Assemble the interface system.
    let nb = iface_list.len();
    let mut s_bb = DenseMatrix::zeros(nb, nb);
    let mut f_b: Vec<f64> = iface_list.iter().map(|&d| f_full[d]).collect();
    for c in &condensed {
        for (i, &di) in c.boundary.iter().enumerate() {
            let gi = iface_index(di);
            f_b[gi] += c.f_hat[i];
            for (j, &dj) in c.boundary.iter().enumerate() {
                s_bb[(gi, iface_index(dj))] += c.k_hat[(i, j)];
            }
        }
    }
    let u_b = if nb > 0 {
        s_bb.solve_spd(&f_b)
            .expect("interface system SPD (structure adequately supported?)")
    } else {
        Vec::new()
    };

    // Scatter and back-substitute.
    let n_full = mesh.node_count() * DOF_PER_NODE;
    let mut u = vec![0.0; n_full];
    for (i, &d) in iface_list.iter().enumerate() {
        u[d] = u_b[i];
    }
    let mut max_interior = 0;
    for c in &condensed {
        max_interior = max_interior.max(c.interior.len());
        // u_i = K_ii⁻¹ (f_i − K_ib u_b_local)
        let ub_local: Vec<f64> = c.boundary.iter().map(|&d| u[d]).collect();
        let kib_ub = if c.boundary.is_empty() {
            vec![0.0; c.interior.len()]
        } else {
            c.kib.matvec(&ub_local)
        };
        let rhs: Vec<f64> = c.f_i.iter().zip(&kib_ub).map(|(fi, k)| fi - k).collect();
        let ui = c.kii_inv.matvec(&rhs);
        for (i, &d) in c.interior.iter().enumerate() {
            u[d] = ui[i];
        }
    }
    SubstructureSolution {
        displacements: u,
        interface_dofs: nb,
        max_interior,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble;
    use crate::bc::LoadSet;
    use crate::solver::skyline;

    fn problem(parts: usize) -> (Mesh, Material, Constraints, Vec<f64>, Partition) {
        let mesh = Mesh::grid_quad(8, 3, 8.0, 3.0);
        let mat = Material::steel();
        let mut cons = Constraints::new();
        for n in mesh.left_edge_nodes(1e-9) {
            cons.fix_node(n);
        }
        let mut loads = LoadSet::new("tip");
        let tip = mesh.nearest_node(8.0, 3.0);
        loads.add_node(tip, 0.0, -1e4);
        let f = loads.to_vector(mesh.node_count() * DOF_PER_NODE);
        let part = Partition::strips_x(&mesh, parts);
        (mesh, mat, cons, f, part)
    }

    fn direct_reference(mesh: &Mesh, mat: &Material, cons: &Constraints, f: &[f64]) -> Vec<f64> {
        let k = assemble(mesh, mat);
        let free = cons.free_dofs(k.order());
        let kr = k.submatrix(&free);
        let fr = cons.restrict(f);
        let ur = skyline::solve(&kr, &fr).unwrap();
        cons.expand(&ur, k.order())
    }

    #[test]
    fn substructuring_matches_direct_solve() {
        for parts in [2, 4] {
            let (mesh, mat, cons, f, part) = problem(parts);
            let sol = analyze_substructures(&mesh, &mat, &cons, &part, &f);
            let reference = direct_reference(&mesh, &mat, &cons, &f);
            let scale = reference.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            for (a, b) in sol.displacements.iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 1e-8 * scale.max(1e-30),
                    "parts {parts}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn single_part_has_empty_interface() {
        let (mesh, mat, cons, f, _) = problem(2);
        let part = Partition::strips_x(&mesh, 1);
        let sol = analyze_substructures(&mesh, &mat, &cons, &part, &f);
        assert_eq!(sol.interface_dofs, 0);
        let reference = direct_reference(&mesh, &mat, &cons, &f);
        let scale = reference.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (a, b) in sol.displacements.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn interface_grows_with_parts() {
        let (mesh, mat, cons, f, _) = problem(2);
        let s2 = analyze_substructures(&mesh, &mat, &cons, &Partition::strips_x(&mesh, 2), &f);
        let s4 = analyze_substructures(&mesh, &mat, &cons, &Partition::strips_x(&mesh, 4), &f);
        assert!(s4.interface_dofs > s2.interface_dofs);
        assert!(s4.max_interior < s2.max_interior);
    }

    #[test]
    fn supports_inside_a_substructure_are_respected() {
        let (mesh, mat, cons, f, part) = problem(4);
        let sol = analyze_substructures(&mesh, &mat, &cons, &part, &f);
        for n in mesh.left_edge_nodes(1e-9) {
            assert_eq!(sol.displacements[2 * n], 0.0);
            assert_eq!(sol.displacements[2 * n + 1], 0.0);
        }
    }
}
