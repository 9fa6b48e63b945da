//! Hot-path perf integration: the route cache and the calendar DES queue
//! must be invisible optimizations (bitwise-identical reports, solutions,
//! and trace bytes against their reference paths, including under link
//! faults and repair), and the O(nnz) counting CSR build must match the
//! sort-based construction it replaced.

use fem2_core::scenario::{plate_cg, PlateScenario, ScenarioReport};
use fem2_fem::Coo;
use fem2_machine::fault::FaultPlan;
use fem2_machine::{DesQueue, MachineConfig};
use fem2_navm::NaVm;
use fem2_trace::TraceHandle;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Route cache vs reference recompute path
// ---------------------------------------------------------------------

/// One traced plate run with the route cache toggled.
fn plate_run(route_cache: bool) -> (ScenarioReport, Vec<u8>) {
    let mut cfg = MachineConfig::fem2_default();
    cfg.route_cache = route_cache;
    let (handle, rec) = TraceHandle::ring(1 << 16);
    let report = PlateScenario::square(16, cfg)
        .with_trace(handle)
        .run_unchecked();
    let bytes = rec.lock().unwrap_or_else(|e| e.into_inner()).encode();
    (report, bytes)
}

/// Cached and recompute runs of the full plate scenario produce the same
/// report (down to the residual's bits) and byte-identical traces.
#[test]
fn route_cache_is_invisible_to_plate_scenario() {
    let (cached, cached_bytes) = plate_run(true);
    let (reference, reference_bytes) = plate_run(false);

    assert_eq!(cached.elapsed, reference.elapsed);
    assert_eq!(cached.iterations, reference.iterations);
    assert_eq!(cached.residual.to_bits(), reference.residual.to_bits());
    assert_eq!(cached.total_messages, reference.total_messages);
    assert_eq!(cached.total_words_moved, reference.total_words_moved);
    assert_eq!(cached.total_flops, reference.total_flops);
    assert_eq!(cached.table, reference.table);
    assert!(!cached_bytes.is_empty(), "the traced run recorded nothing");
    assert_eq!(cached_bytes, reference_bytes, "trace streams diverged");
}

/// One traced CG solve on the simulated plane with a link dying mid-solve
/// and recovering later, route cache toggled.
fn faulted_cg(route_cache: bool) -> (usize, u64, Vec<u64>, u64, Vec<u8>) {
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
    let bytes = rec.lock().unwrap_or_else(|e| e.into_inner()).encode();
    (iters, res.to_bits(), bits, recovery, bytes)
}

/// A mid-run `fail_link` + recovery invalidates the cache twice; the
/// cached run must still match the recompute run bitwise — iteration
/// count, residual, solution, recovery activity, and every trace byte.
#[test]
fn route_cache_is_invisible_under_link_fault_and_repair() {
    let (ci, cres, cx, crec, cbytes) = faulted_cg(true);
    let (ri, rres, rx, rrec, rbytes) = faulted_cg(false);

    assert_eq!(ci, ri, "iteration count diverged");
    assert_eq!(cres, rres, "residual bits diverged");
    assert_eq!(cx, rx, "solution bits diverged");
    assert_eq!(crec, rrec, "recovery activity diverged");
    assert!(crec >= 1, "the dead link forced a retransmit or reroute");
    assert_eq!(cbytes, rbytes, "trace streams diverged");
}

// ---------------------------------------------------------------------
// Calendar DES queue vs reference heap path
// ---------------------------------------------------------------------

/// One traced plate run with the DES queue backend selected.
fn plate_run_queue(q: DesQueue) -> (ScenarioReport, Vec<u8>) {
    let mut cfg = MachineConfig::fem2_default();
    cfg.des_queue = q;
    let (handle, rec) = TraceHandle::ring(1 << 16);
    let report = PlateScenario::square(16, cfg)
        .with_trace(handle)
        .run_unchecked();
    let bytes = rec.lock().unwrap_or_else(|e| e.into_inner()).encode();
    (report, bytes)
}

/// Calendar and heap runs of the full plate scenario produce the same
/// report (down to the residual's bits) and byte-identical traces: the
/// calendar queue's bucketed pop order reproduces the heap's `(time, seq)`
/// order exactly.
#[test]
fn calendar_queue_is_invisible_to_plate_scenario() {
    let (cal, cal_bytes) = plate_run_queue(DesQueue::Calendar);
    let (heap, heap_bytes) = plate_run_queue(DesQueue::Heap);

    assert_eq!(cal.elapsed, heap.elapsed);
    assert_eq!(cal.iterations, heap.iterations);
    assert_eq!(cal.residual.to_bits(), heap.residual.to_bits());
    assert_eq!(cal.total_messages, heap.total_messages);
    assert_eq!(cal.total_words_moved, heap.total_words_moved);
    assert_eq!(cal.total_flops, heap.total_flops);
    assert_eq!(cal.table, heap.table);
    assert!(!cal_bytes.is_empty(), "the traced run recorded nothing");
    assert_eq!(cal_bytes, heap_bytes, "trace streams diverged");
}

/// One traced CG solve on the simulated plane with a link dying mid-solve
/// and recovering later, DES queue backend selected.
fn faulted_cg_queue(q: DesQueue) -> (usize, u64, Vec<u64>, u64, Vec<u8>) {
    let mut cfg = MachineConfig::fem2_default();
    cfg.des_queue = q;
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
    let bytes = rec.lock().unwrap_or_else(|e| e.into_inner()).encode();
    (iters, res.to_bits(), bits, recovery, bytes)
}

/// Mid-run link death and repair schedule retransmission timeouts far into
/// the future (the overflow ladder) and clamped past events; the calendar
/// run must still match the heap run bitwise — iteration count, residual,
/// solution, recovery activity, and every trace byte.
#[test]
fn calendar_queue_is_invisible_under_link_fault_and_repair() {
    let (ci, cres, cx, crec, cbytes) = faulted_cg_queue(DesQueue::Calendar);
    let (hi, hres, hx, hrec, hbytes) = faulted_cg_queue(DesQueue::Heap);

    assert_eq!(ci, hi, "iteration count diverged");
    assert_eq!(cres, hres, "residual bits diverged");
    assert_eq!(cx, hx, "solution bits diverged");
    assert_eq!(crec, hrec, "recovery activity diverged");
    assert!(crec >= 1, "the dead link forced a retransmit or reroute");
    assert_eq!(cbytes, hbytes, "trace streams diverged");
}

proptest! {
    /// Any plate size and any (kill, recover) fault timing: the calendar
    /// and heap backends agree on the scenario report bit for bit. Sizes
    /// and times are small so the property stays fast, but span the
    /// clamp-to-now, same-cycle tie, and overflow-ladder regimes.
    #[test]
    fn calendar_matches_heap_for_faulted_plates(
        n in 6usize..12,
        kill_at in 1_000u64..6_000,
        repair_delta in 1_000u64..50_000,
    ) {
        let run = |q: DesQueue| {
            let mut cfg = MachineConfig::fem2_default();
            cfg.des_queue = q;
            let mut vm = NaVm::simulated(cfg, 8);
            let plan = FaultPlan::none()
                .kill_link(kill_at, 1)
                .recover_link(kill_at + repair_delta, 1);
            vm.inject_faults(&plan);
            let (iters, res, x) = plate_cg(&mut vm, n, n, 1e-8, 300);
            let bits: Vec<u64> = vm.snapshot(x).iter().map(|v| v.to_bits()).collect();
            (iters, res.to_bits(), bits, vm.elapsed())
        };
        prop_assert_eq!(run(DesQueue::Calendar), run(DesQueue::Heap));
    }
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
