//! Global stiffness assembly.
//!
//! The sparsity pattern comes from mesh connectivity: the two rows of a
//! node store one column per dof of every node it shares an element with,
//! in dof order. Element stiffness matrices are added into those slots in
//! element order, and one compaction keeps the slots that survive
//! (DESIGN.md §4 "fem linear algebra: fixed summation order").

use crate::element::{stiffness, ElementMatrix};
use crate::material::Material;
use crate::mesh::{Mesh, MAX_ELEMENT_NODES};
use crate::sparse::Csr;
use crate::DOF_PER_NODE;

/// Global dof indices of an element (2 per node, `[u, v]` interleaved).
pub(crate) fn element_dofs(nodes: &[usize]) -> Vec<usize> {
    let mut dofs = Vec::with_capacity(nodes.len() * DOF_PER_NODE);
    for &n in nodes {
        dofs.push(DOF_PER_NODE * n);
        dofs.push(DOF_PER_NODE * n + 1);
    }
    dofs
}

/// Compute one element's stiffness and dof map.
pub(crate) fn element_matrix(mesh: &Mesh, elem: usize, mat: &Material) -> ElementMatrix {
    let e = &mesh.elements[elem];
    let (coords, nodes) = mesh.element_coords(elem);
    ElementMatrix {
        k: stiffness(e.kind, &coords[..nodes], mat),
        dofs: element_dofs(&e.nodes),
    }
}

/// The bits of a slot no element contributed to. Slots start at `-0.0`,
/// which adds to a first nonzero term `v` as exactly `v`; a sum of
/// nonzero terms is never `-0.0` (an exact cancellation rounds to `+0.0`).
const UNTOUCHED: u64 = (-0.0f64).to_bits();

/// Assemble the global stiffness matrix: every entry that received a
/// nonzero contribution is stored, even where the contributions cancel.
pub fn assemble(mesh: &Mesh, mat: &Material) -> Csr {
    let all: Vec<usize> = (0..mesh.node_count() * DOF_PER_NODE).collect();
    scatter(mesh, mat, &all, |v| v.to_bits() != UNTOUCHED)
}

/// Assemble the stiffness restricted to the dofs `free` (sorted,
/// deduplicated), renumbered densely, storing only its nonzero entries:
/// bitwise `assemble(mesh, mat).submatrix(free)` without the unreduced
/// matrix.
pub fn assemble_free(mesh: &Mesh, mat: &Material, free: &[usize]) -> Csr {
    scatter(mesh, mat, free, |v| v != 0.0)
}

/// Add every element's stiffness into the slots of the connectivity
/// pattern, then keep the rows and columns `keep` and, among them, the
/// slots whose sum `survives`.
fn scatter(mesh: &Mesh, mat: &Material, keep: &[usize], survives: impl Fn(f64) -> bool) -> Csr {
    let (ptr, adj) = mesh.node_graph();
    let mut rowptr = Vec::with_capacity(mesh.node_count() * DOF_PER_NODE + 1);
    rowptr.push(0);
    let mut colidx = Vec::with_capacity(DOF_PER_NODE * DOF_PER_NODE * adj.len());
    for nbrs in ptr.windows(2).map(|p| &adj[p[0]..p[1]]) {
        for _ in 0..DOF_PER_NODE {
            colidx.extend(
                nbrs.iter()
                    .flat_map(|&b| (0..DOF_PER_NODE).map(move |c| DOF_PER_NODE * b + c)),
            );
            rowptr.push(colidx.len());
        }
    }
    let mut vals = vec![-0.0; colidx.len()];
    for (e, elem) in mesh.elements.iter().enumerate() {
        let (coords, m) = mesh.element_coords(e);
        let k = stiffness(elem.kind, &coords[..m], mat);
        // Where node `b`'s columns start in node `a`'s rows.
        let mut at = [[0usize; MAX_ELEMENT_NODES]; MAX_ELEMENT_NODES];
        for (row, &a) in at.iter_mut().zip(&elem.nodes) {
            let nbrs = &adj[ptr[a]..ptr[a + 1]];
            for (col, &b) in row.iter_mut().zip(&elem.nodes) {
                *col = DOF_PER_NODE * nbrs.partition_point(|&x| x < b);
            }
        }
        let nd = m * DOF_PER_NODE;
        for (i, krow) in k.data().chunks_exact(nd).enumerate() {
            let (a, ra) = (i / DOF_PER_NODE, i % DOF_PER_NODE);
            let row = &mut vals[rowptr[DOF_PER_NODE * elem.nodes[a] + ra]..];
            for (j, &v) in krow.iter().enumerate() {
                // An exact zero contributes nothing: a `+0.0` would turn
                // an untouched slot into a stored entry.
                if v != 0.0 {
                    row[at[a][j / DOF_PER_NODE] + j % DOF_PER_NODE] += v;
                }
            }
        }
    }
    // The graph is not needed past the scatter.
    drop((ptr, adj));
    Csr {
        rowptr,
        colidx,
        vals,
    }
    .retain(keep, survives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::Constraints;
    use crate::mesh::Node;
    use crate::solver::testmat::splitmix;
    use crate::sparse::Coo;
    use proptest::prelude::*;

    /// Oracle: every element's triplets into a COO builder in element
    /// order, exact zeros skipped, then compressed — how `assemble` built
    /// the matrix before it scattered into the connectivity pattern.
    fn assemble_oracle(mesh: &Mesh, mat: &Material) -> Csr {
        let n = mesh.node_count() * DOF_PER_NODE;
        let mut coo = Coo::new(n);
        for e in 0..mesh.element_count() {
            let em = element_matrix(mesh, e, mat);
            let nd = em.dofs.len();
            for i in 0..nd {
                for j in 0..nd {
                    coo.add(em.dofs[i], em.dofs[j], em.k[(i, j)]);
                }
            }
        }
        coo.to_csr()
    }

    /// Oracle: the kept entries of `a` through a second COO build — how
    /// `Csr::submatrix` reduced a system before it became a filter.
    fn submatrix_oracle(a: &Csr, keep: &[usize]) -> Csr {
        let mut map = vec![usize::MAX; a.order()];
        for (new, &old) in keep.iter().enumerate() {
            map[old] = new;
        }
        let mut coo = Coo::new(keep.len());
        for (new_r, &old_r) in keep.iter().enumerate() {
            for k in a.rowptr[old_r]..a.rowptr[old_r + 1] {
                let old_c = a.colidx[k];
                if map[old_c] != usize::MAX {
                    coo.add(new_r, map[old_c], a.vals[k]);
                }
            }
        }
        coo.to_csr()
    }

    /// `got` and `want` store the same entries with the same bits.
    fn assert_csr_bits_eq(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got.rowptr, want.rowptr, "{what}: rowptr");
        assert_eq!(got.colidx, want.colidx, "{what}: colidx");
        let bits = |a: &Csr| a.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    /// `assemble`, `assemble_free` and `submatrix` against the oracles on
    /// one mesh and constraint set.
    fn assert_matches_oracles(mesh: &Mesh, mat: &Material, cons: &Constraints, what: &str) {
        let full = assemble_oracle(mesh, mat);
        let free = cons.free_dofs(full.order());
        let reduced = submatrix_oracle(&full, &free);
        assert_csr_bits_eq(&assemble(mesh, mat), &full, &format!("{what}: assemble"));
        assert_csr_bits_eq(
            &assemble_free(mesh, mat, &free),
            &reduced,
            &format!("{what}: assemble_free"),
        );
        assert_csr_bits_eq(
            &full.submatrix(&free),
            &reduced,
            &format!("{what}: submatrix"),
        );
    }

    /// An `nx × ny` Quad4 or Tri3 grid; `distort` moves every node by up
    /// to 0.2 of a cell in each direction (elements stay convex).
    fn grid(tri: bool, nx: usize, ny: usize, distort: Option<u64>) -> Mesh {
        let mut mesh = if tri {
            Mesh::grid_tri(nx, ny, nx as f64, ny as f64)
        } else {
            Mesh::grid_quad(nx, ny, nx as f64, ny as f64)
        };
        if let Some(mut state) = distort {
            let mut jitter = || (splitmix(&mut state) % 401) as f64 / 1000.0 - 0.2;
            for Node { x, y } in &mut mesh.nodes {
                *x += jitter();
                *y += jitter();
            }
        }
        mesh
    }

    /// Which dofs a case fixes.
    #[derive(Clone, Copy, Debug)]
    enum Fixing {
        None,
        All,
        /// Single components, about one dof in four.
        Components(u64),
        /// Whole nodes, about one node in four.
        Nodes(u64),
    }

    fn constraints(fixing: Fixing, nodes: usize) -> Constraints {
        let mut c = Constraints::new();
        match fixing {
            Fixing::None => {}
            Fixing::All => (0..nodes).for_each(|n| c.fix_node(n)),
            Fixing::Components(mut state) => {
                for n in 0..nodes {
                    for comp in 0..DOF_PER_NODE {
                        if splitmix(&mut state).is_multiple_of(4) {
                            c.fix_component(n, comp);
                        }
                    }
                }
            }
            Fixing::Nodes(mut state) => {
                for n in 0..nodes {
                    if splitmix(&mut state).is_multiple_of(4) {
                        c.fix_node(n);
                    }
                }
            }
        }
        c
    }

    #[test]
    fn element_dofs_interleaved() {
        assert_eq!(element_dofs(&[3, 7]), vec![6, 7, 14, 15]);
    }

    #[test]
    fn bar_chain_global_matrix() {
        // 2 unit bars with EA = 1: global K (x dofs) = [1 -1 0; -1 2 -1; 0 -1 1].
        let mesh = Mesh::bar_chain(2, 2.0);
        let k = assemble(&mesh, &Material::unit());
        assert_eq!(k.order(), 6);
        assert_eq!(k.get(0, 0), 1.0);
        assert_eq!(k.get(2, 2), 2.0);
        assert_eq!(k.get(0, 2), -1.0);
        assert_eq!(k.get(2, 4), -1.0);
        assert_eq!(k.get(0, 4), 0.0);
        // The y dofs of a bar along x get no stiffness, so nothing is
        // stored in their rows.
        assert_eq!(k.rowptr[2] - k.rowptr[1], 0);
        let mut fixed = Constraints::new();
        fixed.fix_node(0);
        assert_matches_oracles(&mesh, &Material::unit(), &fixed, "bar chain");
    }

    #[test]
    fn assembled_matrix_is_symmetric() {
        let mesh = Mesh::grid_quad(4, 3, 4.0, 3.0);
        let k = assemble(&mesh, &Material::steel());
        assert!(k.is_symmetric(1e-3));
    }

    #[test]
    fn rigid_body_null_vectors() {
        // Unconstrained K times a rigid translation = 0.
        let mesh = Mesh::grid_quad(3, 3, 1.0, 1.0);
        let k = assemble(&mesh, &Material::steel());
        let n = k.order();
        let mut tx = vec![0.0; n];
        for i in (0..n).step_by(2) {
            tx[i] = 1.0;
        }
        let mut out = vec![0.0; n];
        k.matvec(&tx, &mut out);
        let worst = out.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(worst < 1e-3, "residual {worst}");
    }

    #[test]
    fn quad_and_tri_meshes_have_expected_sparsity() {
        let quad = assemble(&Mesh::grid_quad(4, 4, 1.0, 1.0), &Material::unit());
        let tri = assemble(&Mesh::grid_tri(4, 4, 1.0, 1.0), &Material::unit());
        assert_eq!(quad.order(), tri.order());
        // Same node adjacency except the quad's cross-diagonal coupling:
        // the quad stencil is a superset.
        assert!(quad.nnz() >= tri.nnz());
    }

    #[test]
    fn cantilever_64x64_matches_oracles() {
        let m = crate::model::cantilever_plate(64, 64, -1e4);
        assert_matches_oracles(&m.mesh, &m.material, &m.constraints, "cantilever 64x64");
        let free = m.constraints.free_dofs(m.dof_count());
        assert_eq!(assemble_free(&m.mesh, &m.material, &free).nnz(), 145_648);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn assembly_matches_coo_oracles(
            tri in any::<bool>(),
            nx in 1usize..=12,
            ny in 1usize..=12,
            distorted in any::<bool>(),
            jitter in any::<u64>(),
            poisson in any::<bool>(),
            fixing in prop_oneof![
                Just(Fixing::None),
                Just(Fixing::All),
                any::<u64>().prop_map(Fixing::Components),
                any::<u64>().prop_map(Fixing::Nodes),
            ],
        ) {
            let distort = distorted.then_some(jitter);
            let mesh = grid(tri, nx, ny, distort);
            let mat = if poisson { Material::steel() } else { Material::unit() };
            let cons = constraints(fixing, mesh.node_count());
            assert_matches_oracles(
                &mesh,
                &mat,
                &cons,
                &format!("tri {tri} {nx}x{ny} distort {distort:?} nu {} {fixing:?}", mat.nu),
            );
        }
    }
}
