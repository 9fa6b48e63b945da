//! Global stiffness assembly.
//!
//! Scatter element stiffness matrices into a global COO builder, in
//! element order.

use crate::element::{stiffness, ElementMatrix};
use crate::material::Material;
use crate::mesh::Mesh;
use crate::sparse::{Coo, Csr};
use crate::DOF_PER_NODE;

/// Global dof indices of an element (2 per node, `[u, v]` interleaved).
pub fn element_dofs(nodes: &[usize]) -> Vec<usize> {
    let mut dofs = Vec::with_capacity(nodes.len() * DOF_PER_NODE);
    for &n in nodes {
        dofs.push(DOF_PER_NODE * n);
        dofs.push(DOF_PER_NODE * n + 1);
    }
    dofs
}

/// Compute one element's stiffness and dof map.
pub fn element_matrix(mesh: &Mesh, elem: usize, mat: &Material) -> ElementMatrix {
    let e = &mesh.elements[elem];
    let (coords, nodes) = mesh.element_coords(elem);
    ElementMatrix {
        k: stiffness(e.kind, &coords[..nodes], mat),
        dofs: element_dofs(&e.nodes),
    }
}

/// Exact triplet count a full scatter of `mesh` produces: each element
/// contributes a dense `(nodes·dof)²` block.
fn scatter_triplets(mesh: &Mesh) -> usize {
    mesh.elements
        .iter()
        .map(|e| (e.nodes.len() * DOF_PER_NODE).pow(2))
        .sum()
}

/// Assemble the global stiffness matrix.
pub fn assemble(mesh: &Mesh, mat: &Material) -> Csr {
    let n = mesh.node_count() * DOF_PER_NODE;
    let mut coo = Coo::with_capacity(n, scatter_triplets(mesh));
    for e in 0..mesh.element_count() {
        let em = element_matrix(mesh, e, mat);
        scatter(&mut coo, &em);
    }
    coo.to_csr()
}

/// Scatter one element matrix into the builder.
pub fn scatter(coo: &mut Coo, em: &ElementMatrix) {
    let nd = em.dofs.len();
    for i in 0..nd {
        for j in 0..nd {
            coo.add(em.dofs[i], em.dofs[j], em.k[(i, j)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
