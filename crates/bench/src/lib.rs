//! # fem2-bench — the experiment harness
//!
//! One function per experiment (E1–E10 of DESIGN.md §5) and study (A1,
//! A2, A6) in [`experiments`]: it runs the workload and renders the result
//! table. The `fem2-report` binary prints all of them, and each Criterion
//! bench prints its experiment's table before timing the underlying kernel,
//! so `cargo bench` regenerates every row.

#![forbid(unsafe_code)]

pub mod experiments;
