//! # fem2-bench — the experiment tables
//!
//! One function per experiment (E1–E10 of DESIGN.md §5) and study (A1,
//! A2, A6) in [`experiments`]: it runs the workload and renders the result
//! table. The `fem2-report` binary prints all of them. Every column is a
//! simulated quantity, so two runs print the same bytes; host time is
//! measured by `benchmark/` alone.

pub mod experiments;
