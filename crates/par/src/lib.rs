//! # fem2-par — scoped work-crew parallelism
//!
//! A small, self-contained data-parallel executor in the spirit of rayon,
//! built only on `std`: a fixed crew of worker threads that `fem2-fem`'s
//! pooled assembly and solver paths and `fem2-serve`'s job workers run
//! on. The simulator itself (`fem2-machine`, `fem2-navm`) is
//! single-threaded.
//!
//! Three layers of API:
//!
//! * [`Pool`] — a fixed crew of workers with a shared job queue;
//! * [`Pool::scope`] — structured parallelism: spawn borrows from the
//!   enclosing stack frame, the scope joins all tasks before returning and
//!   propagates panics;
//! * data-parallel helpers — [`Pool::for_each_index`],
//!   [`Pool::map_reduce_index`], [`Pool::join`], and
//!   [`chunks_mut`] for disjoint mutable slice chunks.
//!
//! Reductions are **deterministic**: partial results are combined in chunk
//! order, so floating-point sums are reproducible run to run for a fixed
//! grain size.
//!
//! ```
//! use fem2_par::Pool;
//!
//! let pool = Pool::new(4);
//! let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let sum = pool.map_reduce_index(0..1000, 64, |i| data[i], |a, b| a + b, 0.0);
//! assert_eq!(sum, 999.0 * 1000.0 / 2.0);
//! ```

mod pool;

pub use pool::{chunks_mut, Pool, Scope};

/// The default grain size used by convenience wrappers when the caller does
/// not specify one: small enough to balance, large enough to amortize
/// scheduling.
pub const DEFAULT_GRAIN: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn readme_style_smoke() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }
}
