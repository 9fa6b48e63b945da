//! Hot-path perf integration: the route cache must be an invisible
//! optimization (bitwise-identical reports, solutions, and trace events
//! against the reference recompute path, including under link faults and
//! repair), and the O(nnz) counting CSR build must match the sort-based
//! construction it replaced. The radix-heap DES queue against the heap is
//! covered where a DES queue runs: `crates/machine/src/sim.rs` and
//! `crates/kernel/tests/prop.rs`.

use fem2_core::scenario::{plate_cg, PlateScenario, ScenarioReport};
use fem2_fem::Coo;
use fem2_machine::fault::FaultPlan;
use fem2_machine::MachineConfig;
use fem2_navm::NaVm;
use fem2_trace::{SharedRecorder, TraceEvent, TraceHandle};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Route cache vs reference recompute path
// ---------------------------------------------------------------------

/// A recorder's retained count, dropped count and events.
type Trace = (usize, u64, Vec<TraceEvent>);

fn trace_of(rec: &SharedRecorder) -> Trace {
    let r = rec.lock().unwrap_or_else(|e| e.into_inner());
    (r.len(), r.dropped(), r.events().copied().collect())
}

/// One traced plate run with the route cache toggled.
fn plate_run(route_cache: bool) -> (ScenarioReport, Trace) {
    let mut cfg = MachineConfig::fem2_default();
    cfg.route_cache = route_cache;
    let (handle, rec) = TraceHandle::ring(1 << 16);
    let report = PlateScenario::square(16, cfg)
        .with_trace(handle)
        .run_unchecked();
    (report, trace_of(&rec))
}

/// Cached and recompute runs of the full plate scenario produce the same
/// report (down to the residual's bits) and identical traces.
#[test]
fn route_cache_is_invisible_to_plate_scenario() {
    let (cached, cached_trace) = plate_run(true);
    let (reference, reference_trace) = plate_run(false);

    assert_eq!(cached.elapsed, reference.elapsed);
    assert_eq!(cached.iterations, reference.iterations);
    assert_eq!(cached.residual.to_bits(), reference.residual.to_bits());
    assert_eq!(cached.total_messages, reference.total_messages);
    assert_eq!(cached.total_words_moved, reference.total_words_moved);
    assert_eq!(cached.total_flops, reference.total_flops);
    assert_eq!(cached.table, reference.table);
    assert!(cached_trace.0 > 0, "the traced run recorded nothing");
    assert_eq!(cached_trace, reference_trace, "trace streams diverged");
}

/// One traced CG solve on the simulated plane with a link dying mid-solve
/// and recovering later, route cache toggled.
fn faulted_cg(route_cache: bool) -> (usize, u64, Vec<u64>, u64, Trace) {
    let mut cfg = MachineConfig::fem2_default();
    cfg.route_cache = route_cache;
    let mut vm = NaVm::simulated(cfg, 8);
    let (handle, rec) = TraceHandle::ring(1 << 16);
    vm.set_trace(handle);
    let plan = FaultPlan::none()
        .kill_link(2_000, 1)
        .recover_link(40_000, 1);
    vm.inject_faults(&plan);
    let (iters, res, x) = plate_cg(&mut vm, 12, 12, 1e-8, 300);
    let bits: Vec<u64> = vm.snapshot(x).iter().map(|v| v.to_bits()).collect();
    let recovery = vm.retransmits() + vm.machine().map_or(0, |m| m.network.rerouted_packets);
    (iters, res.to_bits(), bits, recovery, trace_of(&rec))
}

/// A mid-run `fail_link` + recovery invalidates the cache twice; the
/// cached run must still match the recompute run bitwise — iteration
/// count, residual, solution, recovery activity, and every trace event.
#[test]
fn route_cache_is_invisible_under_link_fault_and_repair() {
    let (ci, cres, cx, crec, ctrace) = faulted_cg(true);
    let (ri, rres, rx, rrec, rtrace) = faulted_cg(false);

    assert_eq!(ci, ri, "iteration count diverged");
    assert_eq!(cres, rres, "residual bits diverged");
    assert_eq!(cx, rx, "solution bits diverged");
    assert_eq!(crec, rrec, "recovery activity diverged");
    assert!(crec >= 1, "the dead link forced a retransmit or reroute");
    assert_eq!(ctrace, rtrace, "trace streams diverged");
}

// ---------------------------------------------------------------------
// Counting CSR build vs the sort-based construction it replaced
// ---------------------------------------------------------------------

/// The pre-optimization CSR build, kept here as an oracle: sort the
/// triplets by `(row, col)` and merge adjacent duplicates.
fn sort_based_csr(
    n: usize,
    triplets: &[(usize, usize, f64)],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut t = triplets.to_vec();
    t.sort_by_key(|&(r, c, _)| (r, c));
    let mut rowptr = vec![0usize; n + 1];
    let mut colidx = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut prev = None;
    for &(r, c, v) in &t {
        if prev == Some((r, c)) {
            *vals.last_mut().expect("prev entry exists") += v;
        } else {
            rowptr[r + 1] += 1;
            colidx.push(c);
            vals.push(v);
            prev = Some((r, c));
        }
    }
    for r in 0..n {
        rowptr[r + 1] += rowptr[r];
    }
    (rowptr, colidx, vals)
}

proptest! {
    /// Random COO streams (duplicates included) build the same matrix via
    /// the counting path as via the sort-based oracle. Values are small
    /// integers so duplicate sums are exact in any summation order and the
    /// comparison can be bitwise.
    #[test]
    fn counting_to_csr_matches_sort_based_oracle(
        n in 1usize..24,
        raw in proptest::collection::vec((0usize..64, 0usize..64, -8i32..=8), 0..250),
    ) {
        // `Coo::add` drops explicit zeros, so the oracle sees the same
        // post-filter stream (duplicates may still cancel to a stored 0).
        let triplets: Vec<(usize, usize, f64)> = raw
            .into_iter()
            .filter(|&(_, _, v)| v != 0)
            .map(|(r, c, v)| (r % n, c % n, v as f64))
            .collect();
        let mut coo = Coo::with_capacity(n, triplets.len());
        for &(r, c, v) in &triplets {
            coo.add(r, c, v);
        }
        let csr = coo.to_csr();
        let (rowptr, colidx, vals) = sort_based_csr(n, &triplets);
        prop_assert_eq!(&csr.rowptr, &rowptr);
        prop_assert_eq!(&csr.colidx, &colidx);
        prop_assert_eq!(csr.vals.len(), vals.len());
        for (a, b) in csr.vals.iter().zip(vals.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Columns within each row come out strictly sorted (duplicates merged).
        for r in 0..n {
            let row = &csr.colidx[csr.rowptr[r]..csr.rowptr[r + 1]];
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The capacity hint is behavior-neutral: any hint (including zero)
    /// yields the identical matrix.
    #[test]
    fn with_capacity_is_behavior_neutral(
        cap in 0usize..512,
        raw in proptest::collection::vec((0usize..8, 0usize..8, -4i32..=4), 0..40),
    ) {
        let n = 8;
        let mut hinted = Coo::with_capacity(n, cap);
        let mut plain = Coo::new(n);
        for &(r, c, v) in &raw {
            hinted.add(r, c, v as f64);
            plain.add(r, c, v as f64);
        }
        let a = hinted.to_csr();
        let b = plain.to_csr();
        prop_assert_eq!(a.rowptr, b.rowptr);
        prop_assert_eq!(a.colidx, b.colidx);
        prop_assert_eq!(a.vals, b.vals);
    }
}
