//! Microbench: `Coo::to_csr` and `Csr::matvec` on 5-point Laplacians at
//! n ∈ {1k, 10k} unknowns — the kernels the counting-sort CSR build and
//! single-pass accessors are judged against — and the `fem` layer's host
//! loops on the plane-stress system the repo benchmark's `fem_native`
//! solves (`cantilever_plate(64, 64)`, 8320 free dofs): `matvec`,
//! `matvec_dot`, `Skyline::factorize`, `assemble`, `element_matrix`. Divide
//! a `plate/*` time by the count its name carries (`nnz`, `elems`) for
//! the per-entry or per-element cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fem2_core::fem::assembly::{assemble, element_matrix};
use fem2_core::fem::cantilever_plate;
use fem2_core::fem::solver::skyline::Skyline;
use fem2_core::fem::sparse::Coo;

/// Calls timed per sample where one call is short: the shim times one
/// closure call per sample.
const CALLS: usize = 50;

/// 5-point Laplacian COO for an nx×nx grid, with each stencil entry pushed
/// separately so the build also exercises duplicate summation.
fn laplacian_coo(nx: usize) -> Coo {
    let n = nx * nx;
    let mut coo = Coo::new(n);
    for j in 0..nx {
        for i in 0..nx {
            let r = j * nx + i;
            coo.add(r, r, 2.0);
            coo.add(r, r, 2.0);
            if i + 1 < nx {
                coo.add(r, r + 1, -1.0);
                coo.add(r + 1, r, -1.0);
            }
            if j + 1 < nx {
                coo.add(r, r + nx, -1.0);
                coo.add(r + nx, r, -1.0);
            }
        }
    }
    coo
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("csr");
    g.sample_size(10);
    for nx in [32usize, 100] {
        let n = nx * nx;
        let coo = laplacian_coo(nx);
        g.bench_function(format!("to_csr_n{n}"), |b| {
            b.iter(|| black_box(&coo).to_csr())
        });
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        let mut y = vec![0.0; n];
        g.bench_function(format!("matvec_n{n}"), |b| {
            b.iter(|| {
                a.matvec(black_box(&x), &mut y);
                y[0]
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("plate");
    g.sample_size(10);
    let m = cantilever_plate(64, 64, -1e3);
    let elems = m.mesh.element_count();
    g.bench_function(format!("assemble_elems{elems}"), |b| {
        b.iter(|| assemble(black_box(&m.mesh), &m.material))
    });
    g.bench_function(format!("element_matrix_elems{elems}"), |b| {
        b.iter(|| {
            for e in 0..elems {
                black_box(element_matrix(black_box(&m.mesh), e, &m.material));
            }
        })
    });
    let free = m.constraints.free_dofs(m.dof_count());
    let kr = assemble(&m.mesh, &m.material).submatrix(&free);
    let (n, nnz) = (kr.order(), kr.nnz());
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
    let mut y = vec![0.0; n];
    g.bench_function(format!("matvec_nnz{nnz}_x{CALLS}"), |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                kr.matvec(black_box(&x), &mut y);
            }
            y[0]
        })
    });
    g.bench_function(format!("matvec_dot_nnz{nnz}_x{CALLS}"), |b| {
        b.iter(|| (0..CALLS).fold(0.0, |acc, _| acc + kr.matvec_dot(black_box(&x), &mut y)))
    });
    let sky = Skyline::from_csr(&kr);
    g.bench_function(
        format!("skyline_factorize_envelope{}", sky.envelope()),
        |b| {
            b.iter(|| {
                let mut s = sky.clone();
                s.factorize().expect("the cantilever stiffness is SPD");
                s
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
