//! # fem2-par — scoped work-crew parallelism
//!
//! A small data-parallel executor built only on `std`: a fixed crew of
//! worker threads behind one job queue. What is left of it serves one
//! caller, `fem2_fem::solver::parallel_cg` (with `Csr::matvec_par` under
//! it), which no product path reaches and which stays because the repo
//! benchmark's `par.cg_s` / `par.cg_speedup` probe calls it. Every other
//! host-parallel path measured slower than the sequential code beside it
//! and was deleted (EXPERIMENTS.md A5, A7 "PR 22" and "PR 24");
//! `fem2-serve` runs jobs on its own `std` threads, and the simulator is
//! single-threaded. The crate goes once that probe moves (ROADMAP 1(e)).
//!
//! The public surface is what that caller uses:
//!
//! * [`Pool`] — the crew ([`Pool::new`], [`Pool::threads`]);
//! * [`Pool::map_reduce_index`] — a chunked fold;
//! * [`chunks_mut`] — disjoint mutable slice chunks in parallel.
//!
//! Both helpers run on a private scope that joins every task before it
//! returns and propagates panics; the lifetime erasure that lets tasks
//! borrow from the caller's frame is the workspace's only `unsafe`.
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

pub use pool::{chunks_mut, Pool};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_style_smoke() {
        let pool = Pool::new(2);
        let mut squares = [0usize; 8];
        chunks_mut(&pool, &mut squares, 3, |c, piece| {
            for (i, x) in piece.iter_mut().enumerate() {
                *x = (3 * c + i).pow(2);
            }
        });
        assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
    }
}
