//! # fem2-par — a thread count
//!
//! [`Pool`] carries the number of threads a parallel solve may use, and
//! nothing else: `fem2_fem::solver::parallel_cg` starts one
//! `std::thread::scope` team per solve from it. Neither is on a product
//! path; both stay because the repo benchmark's `par.cg_*` probe
//! (`benchmark/src/fem.rs`) names `fem2_par::Pool::new(threads)` and
//! `parallel_cg::solve(&pool, …)`, and they leave together when that probe
//! moves (ROADMAP 1(a)). Every other host-parallel path measured
//! slower than the sequential code beside it and was deleted
//! (EXPERIMENTS.md A5, A7).
//!
//! ```
//! use fem2_par::Pool;
//!
//! assert_eq!(Pool::new(4).threads(), 4);
//! assert_eq!(Pool::new(0).threads(), 1);
//! ```

mod pool;

pub use pool::Pool;
