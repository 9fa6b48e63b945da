//! Node renumbering for bandwidth/envelope reduction.
//!
//! Skyline storage (and 1983-era direct solvers generally) live and die by
//! node numbering; the Reverse Cuthill–McKee ordering is the classic
//! remedy. `rcm_order` computes the permutation from element connectivity,
//! and [`Mesh::renumbered`] applies a permutation to a mesh. The A1
//! ablation in the report shows the envelope shrinking on badly-numbered
//! meshes.

use crate::mesh::Mesh;
use std::collections::VecDeque;

/// Node adjacency lists from element connectivity: each node's
/// neighbours, sorted, itself left out.
pub(crate) fn adjacency(mesh: &Mesh) -> Vec<Vec<usize>> {
    let (ptr, adj) = mesh.node_graph();
    ptr.windows(2)
        .enumerate()
        .map(|(a, p)| {
            adj[p[0]..p[1]]
                .iter()
                .copied()
                .filter(|&b| b != a)
                .collect()
        })
        .collect()
}

/// The Reverse Cuthill–McKee ordering: returns `perm` with
/// `perm[new] = old`. Disconnected components are ordered one after the
/// other, each seeded from a minimum-degree node.
pub(crate) fn rcm_order(mesh: &Mesh) -> Vec<usize> {
    let n = mesh.node_count();
    let adj = adjacency(mesh);
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Process components by ascending degree seed.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| adj[v].len());
    for seed in seeds {
        if visited[seed] {
            continue;
        }
        // BFS with neighbours visited in ascending-degree order.
        let mut queue = VecDeque::new();
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| adj[u].len());
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse(); // the "reverse" in RCM
    order
}

impl Mesh {
    /// Apply a node permutation `perm[new] = old`: node `old` becomes node
    /// `new`; element connectivity is rewritten accordingly.
    pub fn renumbered(&self, perm: &[usize]) -> Mesh {
        assert_eq!(perm.len(), self.node_count(), "permutation length");
        let mut newpos = vec![usize::MAX; self.node_count()];
        for (new, &old) in perm.iter().enumerate() {
            assert!(newpos[old] == usize::MAX, "not a permutation");
            newpos[old] = new;
        }
        let nodes = perm.iter().map(|&old| self.nodes[old]).collect();
        let elements = self
            .elements
            .iter()
            .map(|e| crate::mesh::Element {
                kind: e.kind,
                nodes: e.nodes.iter().map(|&n| newpos[n]).collect(),
            })
            .collect();
        Mesh { nodes, elements }
    }

    /// The mesh renumbered by RCM, together with the permutation applied
    /// (`perm[new] = old`).
    pub fn rcm(&self) -> (Mesh, Vec<usize>) {
        let perm = rcm_order(self);
        (self.renumbered(&perm), perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{assemble, assemble_free};
    use crate::bc::Constraints;
    use crate::material::Material;
    use crate::solver::skyline::{self, Skyline};

    /// A deliberately badly-numbered mesh: a bar chain scattered by a
    /// multiplicative permutation (physically adjacent nodes land far apart
    /// in the numbering).
    fn shuffled_chain(n: usize) -> Mesh {
        let mesh = Mesh::bar_chain(n, n as f64);
        let total = mesh.node_count();
        // old = (new * g) % total with gcd(g, total) = 1.
        let mut g = 13;
        while num_gcd(g, total) != 1 {
            g += 2;
        }
        let perm: Vec<usize> = (0..total).map(|new| (new * g) % total).collect();
        mesh.renumbered(&perm)
    }

    fn num_gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            num_gcd(b, a % b)
        }
    }

    #[test]
    fn renumbered_preserves_geometry_and_validity() {
        let mesh = Mesh::grid_quad(4, 3, 4.0, 3.0);
        let perm: Vec<usize> = (0..mesh.node_count()).rev().collect();
        let r = mesh.renumbered(&perm);
        r.validate().unwrap();
        assert_eq!(r.node_count(), mesh.node_count());
        // Node 0 of the renumbered mesh is the old last node.
        assert_eq!(r.nodes[0], mesh.nodes[mesh.node_count() - 1]);
        // Total coordinate sums unchanged.
        let sx = |m: &Mesh| m.nodes.iter().map(|n| n.x).sum::<f64>();
        assert_eq!(sx(&r), sx(&mesh));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_permutation_rejected() {
        let mesh = Mesh::bar_chain(2, 1.0);
        mesh.renumbered(&[0, 0, 1]);
    }

    #[test]
    fn rcm_restores_chain_bandwidth() {
        let bad = shuffled_chain(20);
        assert!(bad.half_bandwidth() > 10, "shuffle ruined the numbering");
        let (good, perm) = bad.rcm();
        assert_eq!(good.half_bandwidth(), 1, "RCM finds the chain");
        assert_eq!(perm.len(), bad.node_count());
    }

    #[test]
    fn rcm_stays_close_to_optimal_on_structured_grids() {
        // Row-major numbering is already near-optimal for structured grids;
        // RCM's level-set order must stay within a small constant of it.
        for mesh in [
            Mesh::grid_quad(6, 4, 1.0, 1.0),
            Mesh::grid_tri(5, 5, 1.0, 1.0),
        ] {
            let before = mesh.half_bandwidth();
            let (r, _) = mesh.rcm();
            assert!(
                r.half_bandwidth() <= 2 * before,
                "{} -> {}",
                before,
                r.half_bandwidth()
            );
        }
    }

    #[test]
    fn envelope_shrinks_with_rcm() {
        let bad = shuffled_chain(40);
        let mat = Material::unit();
        let k_bad = assemble(&bad, &mat);
        let (good, _) = bad.rcm();
        let k_good = assemble(&good, &mat);
        let env_bad = Skyline::from_csr(&k_bad).envelope();
        let env_good = Skyline::from_csr(&k_good).envelope();
        assert!(
            env_good * 4 < env_bad,
            "envelope {env_bad} -> {env_good} should shrink at least 4x"
        );
    }

    #[test]
    fn solution_is_permutation_invariant() {
        // Solve the same physical problem on original and RCM meshes.
        let mesh = shuffled_chain(10);
        let mat = Material::unit();
        let mut cons = Constraints::new();
        // Fix the physical left end: find the node at x = 0.
        let left = mesh.nearest_node(0.0, 0.0);
        cons.fix_node(left);
        // All y dofs too (bars have no transverse stiffness).
        for n in 0..mesh.node_count() {
            cons.fix_component(n, 1);
        }
        let right = mesh.nearest_node(10.0, 0.0);
        let ndof = mesh.node_count() * 2;
        let mut f = vec![0.0; ndof];
        f[2 * right] = 1000.0;

        let solve_mesh = |m: &Mesh, cons: &Constraints, f: &[f64]| {
            let free = cons.free_dofs(f.len());
            let kr = assemble_free(m, &mat, &free);
            let fr = cons.restrict(f);
            let ur = skyline::solve(&kr, &fr).unwrap();
            cons.expand(&ur, f.len())
        };
        let u_orig = solve_mesh(&mesh, &cons, &f);

        let (rmesh, perm) = mesh.rcm();
        // Re-express constraints and loads in the new numbering.
        let mut newpos = vec![0usize; mesh.node_count()];
        for (new, &old) in perm.iter().enumerate() {
            newpos[old] = new;
        }
        let mut rcons = Constraints::new();
        rcons.fix_node(newpos[left]);
        for n in 0..rmesh.node_count() {
            rcons.fix_component(n, 1);
        }
        let mut rf = vec![0.0; ndof];
        rf[2 * newpos[right]] = 1000.0;
        let u_new = solve_mesh(&rmesh, &rcons, &rf);
        for (new, &old) in perm.iter().enumerate() {
            for k in 0..2 {
                let (a, b) = (u_orig[2 * old + k], u_new[2 * new + k]);
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn adjacency_symmetry_and_dedup() {
        let mesh = Mesh::grid_quad(2, 2, 1.0, 1.0);
        let adj = adjacency(&mesh);
        for (v, ns) in adj.iter().enumerate() {
            let mut sorted = ns.clone();
            sorted.dedup();
            assert_eq!(&sorted, ns, "deduped and sorted");
            for &u in ns {
                assert!(adj[u].contains(&v), "symmetric");
            }
        }
        // Centre node of a 2x2 quad grid touches all 8 others.
        assert_eq!(adj[4].len(), 8);
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        // Two disjoint bar chains in one mesh.
        let a = Mesh::bar_chain(3, 3.0);
        let mut mesh = a.clone();
        let off = mesh.node_count();
        for n in &a.nodes {
            mesh.nodes.push(crate::mesh::Node { x: n.x, y: 5.0 });
        }
        for e in &a.elements {
            mesh.elements.push(crate::mesh::Element {
                kind: e.kind,
                nodes: e.nodes.iter().map(|&n| n + off).collect(),
            });
        }
        let (r, perm) = mesh.rcm();
        r.validate().unwrap();
        assert_eq!(perm.len(), 8);
        assert_eq!(r.half_bandwidth(), 1);
    }
}
