//! E6 bench: regenerate the three-levels table, then time substructuring.

use criterion::{criterion_group, criterion_main, Criterion};
use fem2_bench::experiments as ex;
use fem2_core::fem::bc::{Constraints, LoadSet};
use fem2_core::fem::partition::Partition;
use fem2_core::fem::substructure::analyze_substructures;
use fem2_core::fem::{Material, Mesh};

fn bench(c: &mut Criterion) {
    eprintln!("{}", ex::e6_levels());
    let mut g = c.benchmark_group("e6_levels");
    g.sample_size(10);
    let mesh = Mesh::grid_quad(24, 4, 6.0, 1.0);
    let mat = Material::steel();
    let mut cons = Constraints::new();
    for n in mesh.left_edge_nodes(1e-9) {
        cons.fix_node(n);
    }
    let mut loads = LoadSet::new("l");
    for n in mesh.right_edge_nodes(1e-9) {
        loads.add_node(n, 0.0, 100.0);
    }
    let f = loads.to_vector(mesh.node_count() * 2);
    for parts in [1usize, 4] {
        let part = Partition::strips_x(&mesh, parts);
        g.bench_function(format!("substructure_{parts}parts"), |b| {
            b.iter(|| analyze_substructures(&mesh, &mat, &cons, &part, &f).interface_dofs)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
