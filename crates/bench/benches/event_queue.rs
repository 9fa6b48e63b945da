//! Microbench: `EventQueue` schedule/pop churn — the DES inner loop every
//! simulated cycle goes through. Run untraced (the common case) and traced
//! into a small ring, to keep the cost of the depth probe honest, and on
//! both backends (calendar vs reference heap) at shallow and deep
//! queue depths, up to the 8 862 pending events `kernel_storm` peaks at.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fem2_core::machine::sim::EventQueue;
use fem2_core::machine::DesQueue;
use fem2_trace::TraceHandle;

const CHURN: u64 = 10_000;

/// Interleaved schedule/pop mix: keep `depth` events in flight, times
/// drawn from a cheap LCG so pop order is non-trivial.
fn churn(q: &mut EventQueue<u64>, depth: u64, rounds: u64) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut sum = 0u64;
    for i in 0..depth {
        q.schedule(i, i);
    }
    for _ in 0..rounds {
        let (at, ev) = q.pop().expect("queue is kept non-empty");
        sum = sum.wrapping_add(at ^ ev);
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.schedule(at + 1 + (state >> 58), ev);
    }
    sum
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(10);
    for (backend, label) in [(DesQueue::Calendar, "calendar"), (DesQueue::Heap, "heap")] {
        for depth in [64u64, 4096, 8192] {
            g.bench_function(format!("churn_{label}_d{depth}"), |b| {
                b.iter(|| {
                    let mut q = EventQueue::with_backend(backend);
                    black_box(churn(&mut q, depth, CHURN))
                })
            });
        }
    }
    g.bench_function("churn_traced", |b| {
        b.iter(|| {
            let (handle, _rec) = TraceHandle::ring(1 << 10);
            let mut q = EventQueue::new();
            q.set_trace(handle);
            black_box(churn(&mut q, 64, CHURN))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
