//! Microbench: the NA-VM operations of one CG iteration (`inner`, `axpy`,
//! `stencil5`) at the smallest and largest `plate_xbar` sizes, on the
//! simulated plane — host arithmetic plus the per-op charging, read per
//! operation without running the whole benchmark.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fem2_core::machine::MachineConfig;
use fem2_core::navm::NaVm;

/// Calls timed per sample: the shim times one closure call per sample.
const CALLS: usize = 200;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("navm_kernels");
    g.sample_size(10);
    for side in [96usize, 160] {
        let n = side * side;
        let cfg = MachineConfig::fem2_default();
        let mut vm = NaVm::simulated(cfg.clone(), cfg.total_workers());
        let (x, y) = (vm.vector(n), vm.vector(n));
        vm.fill(x, |i, _| ((i * 7) % 13) as f64 * 0.25 - 1.5);
        vm.fill(y, |i, _| ((i * 5) % 11) as f64 * 0.5 - 2.0);
        g.bench_function(format!("inner_{side}x{side}_x{CALLS}"), |b| {
            b.iter(|| (0..CALLS).fold(0.0, |acc, _| acc + vm.inner(x, y)))
        });
        g.bench_function(format!("axpy_{side}x{side}_x{CALLS}"), |b| {
            // Alternating signs keep `y` bounded over any number of samples.
            b.iter(|| {
                for k in 0..CALLS {
                    vm.axpy(if k % 2 == 0 { 0.5 } else { -0.5 }, x, y);
                }
            })
        });
        g.bench_function(format!("stencil5_{side}x{side}_x{CALLS}"), |b| {
            b.iter(|| {
                for _ in 0..CALLS {
                    vm.stencil5(x, y, side, side);
                }
            })
        });
        black_box(vm.get(y, n / 2, 0));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
