//! Fault-plane v2 integration: link death mid-flight, kernel-PE loss during
//! an in-flight RemoteCall, unreachable clusters dead-lettering, bitwise
//! solver equivalence under faults, and repeatable fault traces.

use fem2_core::scenario::plate_cg;
use fem2_kernel::{CodeBlock, KernelMessage, KernelSim, TaskId, WorkProfile};
use fem2_machine::fault::FaultPlan;
use fem2_machine::{Machine, MachineConfig, PeId, Topology};
use fem2_navm::NaVm;
use fem2_trace::TraceHandle;

/// A 4x4 crossbar with slow links so a message is in flight long enough
/// for a fault to land under it.
fn slow_sim() -> KernelSim {
    let mut cfg = MachineConfig::clustered(4, 4, Topology::Crossbar);
    cfg.link_latency = 5_000;
    KernelSim::new(Machine::new(cfg))
}

/// Run one task on cluster 0 plus a RemoteCall to cluster 1, with an
/// optional fault plan, and return the finished sim.
fn rpc_run(plan: Option<&FaultPlan>) -> KernelSim {
    let mut k = slow_sim();
    let code = k.register_code(CodeBlock::new("svc", 32, WorkProfile::flops(2_000), 16));
    k.initiate(0, 0, code, 1, None, 0);
    k.send(
        1_000,
        0,
        1,
        KernelMessage::RemoteCall {
            call_id: 7,
            code,
            args_words: 8,
            caller: TaskId(0),
            reply_cluster: 0,
        },
    );
    if let Some(p) = plan {
        k.inject_faults(p);
    }
    k.run();
    k
}

/// A link dies while the RemoteCall is on the wire: the ack never comes,
/// the retransmit timer fires, and the resend is detoured around the dead
/// link. The call still returns and completions match the healthy run.
#[test]
fn remote_call_survives_dead_link_mid_flight() {
    let healthy = rpc_run(None);
    // Link 1 is the direct 0 -> 1 hop; kill it while the call is in flight
    // (send at 1_000, flight lasts thousands of cycles at latency 5_000).
    let plan = FaultPlan::none().kill_link(3_000, 1);
    let faulted = rpc_run(Some(&plan));

    assert!(
        faulted.all_done(),
        "all tasks completed despite the dead link"
    );
    assert_eq!(faulted.completions().len(), healthy.completions().len());
    assert!(faulted.rpc_returns().contains_key(&7), "the call returned");
    assert!(faulted.stats.retransmits >= 1, "a retransmit fired");
    assert_eq!(faulted.stats.drops.dead_letter, 0);
    assert!(
        faulted.machine.network.rerouted_packets > healthy.machine.network.rerouted_packets,
        "the resend took a detour"
    );
    // The faulted run can only be slower, never fail.
    assert!(faulted.now() >= healthy.now());
}

/// The target cluster's kernel PE dies while the RemoteCall is in flight:
/// the machine promotes a replacement kernel PE and the promoted PE decodes
/// the message. Same completions as the healthy run.
#[test]
fn remote_call_survives_kernel_pe_fault_mid_flight() {
    let healthy = rpc_run(None);
    let plan = FaultPlan::none().kill_pe(3_000, PeId::new(1, 0));
    let faulted = rpc_run(Some(&plan));

    assert!(faulted.all_done());
    assert_eq!(faulted.completions().len(), healthy.completions().len());
    assert!(faulted.rpc_returns().contains_key(&7));
    assert_eq!(faulted.stats.drops.dead_letter, 0);
    assert_eq!(faulted.machine.reconfigurations, 1);
    assert_eq!(faulted.machine.kernel_pe(1), PeId::new(1, 1));
}

/// Every inbound route to cluster 1 is dead: retransmits exhaust their
/// budget, the message dead-letters, and the sim still terminates with the
/// drop visible in the per-cause counters.
#[test]
fn unreachable_cluster_dead_letters_after_bounded_retries() {
    // Links into cluster 1 on a 4-cluster crossbar: 0->1 is 1, 2->1 is 9,
    // 3->1 is 13. Kill all three before the call is sent.
    let plan = FaultPlan::none()
        .kill_link(100, 1)
        .kill_link(100, 9)
        .kill_link(100, 13);
    let k = rpc_run(Some(&plan));

    assert_eq!(k.stats.drops.dead_letter, 1, "the call dead-lettered");
    assert_eq!(
        k.stats.retransmits,
        u64::from(fem2_machine::MAX_RETRANSMITS),
        "every retry in the budget was spent first"
    );
    assert!(!k.rpc_returns().contains_key(&7), "the call never returned");
    // The originating task still ran to completion on cluster 0.
    assert!(k.completions().iter().any(|(t, _)| *t == TaskId(0)));
}

/// A CG solve that loses a link and a PE mid-iteration converges to the
/// bitwise-identical solution in the same number of iterations, with the
/// recovery visible as retransmits.
#[test]
fn mid_window_faults_keep_solver_bitwise_identical() {
    let run = |plan: Option<&FaultPlan>| {
        let mut vm = NaVm::simulated(MachineConfig::fem2_default(), 8);
        if let Some(p) = plan {
            vm.inject_faults(p);
        }
        let (iters, res, x) = plate_cg(&mut vm, 12, 12, 1e-8, 300);
        let rerouted = vm.machine().map_or(0, |m| m.network.rerouted_packets);
        (iters, res, vm.snapshot(x), vm.retransmits() + rerouted)
    };
    let (hi, hres, hx, _) = run(None);
    let plan = FaultPlan::none()
        .kill_link(2_000, 1)
        .transient_pe(5_000, 50_000, PeId::new(3, 1));
    let (fi, fres, fx, frecovery) = run(Some(&plan));

    assert_eq!(hi, fi, "iteration count unchanged under faults");
    assert_eq!(hres.to_bits(), fres.to_bits(), "residual bitwise-equal");
    assert_eq!(hx.len(), fx.len());
    for (a, b) in hx.iter().zip(fx.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "solution bitwise-equal");
    }
    assert!(
        frecovery >= 1,
        "the dead link forced a retransmit or a reroute"
    );
}

/// Two identical runs under a combined fault mix (dead link, degraded
/// link, PE loss with recovery) record identical event streams.
#[test]
fn fault_traces_are_byte_stable_across_runs() {
    let run = || {
        let mut k = slow_sim();
        let (handle, rec) = TraceHandle::ring(1 << 16);
        k.set_trace(handle);
        let code = k.register_code(CodeBlock::new("w", 32, WorkProfile::flops(5_000), 16));
        for c in 0..4 {
            k.initiate(0, c, code, 6, None, 0);
        }
        let plan = FaultPlan::none()
            .kill_link(3_000, 1)
            .degrade_link(4_000, 2, 4)
            .transient_pe(6_000, 60_000, PeId::new(2, 1));
        k.inject_faults(&plan);
        k.run();
        assert!(k.all_done());
        let r = rec.lock().unwrap();
        (
            r.len(),
            r.dropped(),
            r.events().copied().collect::<Vec<_>>(),
        )
    };
    let (len_a, dropped_a, events_a) = run();
    let (len_b, dropped_b, events_b) = run();
    assert!(len_a > 0, "the run recorded nothing");
    assert_eq!(len_a, len_b);
    assert_eq!((dropped_a, events_a), (dropped_b, events_b));
}

/// The (from, to) cluster pair of every dead letter in a trace.
fn dead_letters(rec: &fem2_trace::SharedRecorder) -> Vec<(u32, u32)> {
    let r = rec.lock().expect("no other holder of the recorder lock");
    r.events()
        .filter_map(|ev| match ev.kind {
            fem2_trace::EventKind::DeadLetter { to_cluster, .. } => Some((ev.cluster, to_cluster)),
            _ => None,
        })
        .collect()
}

/// A traced 8-task NA-VM on the default 4-cluster crossbar.
fn traced_vm() -> (NaVm, fem2_trace::SharedRecorder) {
    let mut vm = NaVm::simulated(MachineConfig::fem2_default(), 8);
    let (handle, rec) = TraceHandle::ring(1 << 16);
    vm.set_trace(handle);
    (vm, rec)
}

/// A window read from a cluster whose inbound links (0->3, 1->3, 2->3:
/// ids 3, 7, 11) are all dead has no route for its request: the read
/// dead-letters and the run stops instead of panicking.
#[test]
fn window_read_from_a_cut_off_cluster_stops_the_run() {
    let (mut vm, rec) = traced_vm();
    let a = vm.array(16, 4);
    vm.fill(a, |r, c| (r * 10 + c) as f64);
    let w = vm.window(a, 14, 16, 0, 4); // cluster 3's rows
    let t = vm.elapsed();
    vm.inject_faults(
        &FaultPlan::none()
            .kill_link(t, 3)
            .kill_link(t, 7)
            .kill_link(t, 11),
    );
    let _ = vm.read_window(fem2_navm::TaskHandle(0), &w);
    let abort = vm.budget_exceeded().expect("the run stopped");
    assert_eq!(abort.cause, fem2_machine::AbortCause::Unreachable);
    assert_eq!(dead_letters(&rec), [(0, 3)]);
}

/// A pardo statement on a cluster with no surviving PE cannot run: its
/// work used to be dropped silently; now it dead-letters and the run
/// stops. Every PE dies, the kernel PE too: a lone survivor takes work.
#[test]
fn pardo_on_a_cluster_without_a_live_pe_stops_the_run() {
    let (mut vm, rec) = traced_vm();
    vm.inject_faults(&FaultPlan::at(0, (0..8).map(|i| PeId::new(2, i))));
    let stmts: Vec<_> = vm
        .tasks()
        .iter()
        .map(|t| (t, WorkProfile::flops(1_000)))
        .collect();
    vm.pardo(&stmts);
    let abort = vm.budget_exceeded().expect("the run stopped");
    assert_eq!(abort.cause, fem2_machine::AbortCause::Unreachable);
    assert_eq!(
        dead_letters(&rec),
        [(0, 2), (0, 2)],
        "one per task on cluster 2"
    );
}

/// `plate_cg` allocates `b`, fills it (the section that applies due
/// faults), then allocates `x`, `r`, `p` and `ap`. A memory-bank fault due
/// at the fill that leaves cluster 0 room for `b` alone makes the next
/// allocation fail: the run stops with a sticky `MemoryExhausted` instead
/// of panicking, before any CG iteration.
#[test]
fn array_after_a_memory_bank_fault_stops_the_run() {
    let (mut vm, rec) = traced_vm();
    let capacity = vm.machine().expect("simulated").memory(0).capacity();
    // 144 rows over 8 tasks, two tasks per cluster: `b` takes 36 words of
    // cluster 0, and the bank fault leaves 40.
    vm.inject_faults(&FaultPlan::none().fail_memory(0, 0, capacity - 40));
    let (iters, _, _) = plate_cg(&mut vm, 12, 12, 1e-8, 300);
    let abort = vm.budget_exceeded().expect("the run stopped");
    assert_eq!(abort.cause, fem2_machine::AbortCause::MemoryExhausted);
    assert_eq!(abort.cause.name(), "memory_exhausted");
    assert_eq!(iters, 0, "no CG iteration ran");
    let machine = vm.machine().expect("simulated");
    assert_eq!(machine.memory(0).used(), 36, "only `b` holds cluster 0");
    assert!(
        rec.lock()
            .unwrap()
            .events()
            .any(|ev| matches!(ev.kind, fem2_trace::EventKind::MemFault { lost: 0, .. })),
        "the bank fault fired and lost no live word"
    );
}

/// The fault-plane steps a traced run applied, in order: time, target and
/// kind of every link, PE-recovery and memory-bank record (a bank's lost
/// words depend on what the layer had allocated, so they are left out).
fn fault_steps(rec: &fem2_trace::SharedRecorder) -> Vec<(u64, u32, u32, String)> {
    use fem2_trace::EventKind;
    let r = rec.lock().expect("no other holder of the recorder lock");
    r.events()
        .filter_map(|ev| {
            let kind = match ev.kind {
                EventKind::MemFault { words, .. } => format!("mem_fault {words}"),
                EventKind::LinkFault { .. } | EventKind::LinkRecover { .. } => {
                    format!("{:?}", ev.kind)
                }
                EventKind::PeRecover => "pe_recover".to_string(),
                _ => return None,
            };
            Some((ev.at, ev.cluster, ev.pe, kind))
        })
        .collect()
}

/// One plan through both system layers: the kernel (events on its DES
/// queue) and the NA-VM (steps applied at primitive boundaries) apply the
/// same steps, at the same times, in the same order, through the one
/// `Machine::apply_fault`.
#[test]
fn one_plan_drives_the_kernel_and_the_na_vm_alike() {
    let plan = FaultPlan::none()
        .kill_link(1_000, 1)
        .degrade_link(2_000, 6, 3)
        .transient_pe(3_000, 9_000, PeId::new(2, 1))
        .fail_memory(4_000, 3, 128)
        .recover_link(5_000, 1)
        .kill_pe(6_000, PeId::new(1, 2));

    let mut k = KernelSim::new(Machine::new(MachineConfig::fem2_default()));
    let (handle, kernel_rec) = TraceHandle::ring(1 << 16);
    k.set_trace(handle);
    let code = k.register_code(CodeBlock::new("w", 32, WorkProfile::flops(20_000), 16));
    for c in 0..4 {
        k.initiate(0, c, code, 6, None, 0);
    }
    k.inject_faults(&plan);
    k.run();
    assert!(k.now() > 9_000, "the kernel run outlasts the plan");

    let (mut vm, navm_rec) = traced_vm();
    vm.inject_faults(&plan);
    plate_cg(&mut vm, 12, 12, 1e-8, 300);
    assert!(vm.elapsed() > 9_000, "the NA-VM run outlasts the plan");
    assert!(vm.budget_exceeded().is_none());

    let steps = fault_steps(&kernel_rec);
    assert_eq!(steps.len(), 5, "every traced step fired: {steps:?}");
    assert_eq!(steps, fault_steps(&navm_rec));
    let reconfigurations = |m: &Machine| m.reconfigurations;
    assert_eq!(reconfigurations(&k.machine), plan.len() as u64);
    assert_eq!(
        reconfigurations(vm.machine().expect("simulated")),
        plan.len() as u64
    );
    assert_eq!(k.machine.kernel_pe(1), PeId::new(1, 0));
    assert_eq!(
        vm.machine().expect("simulated").kernel_pe(2),
        k.machine.kernel_pe(2)
    );
}

/// A remote call whose every flight loses a link under it: the direct
/// 0 -> 1 link (id 1) and the detour through cluster 2 (ids 2 and 9) die
/// by turns, each while a copy is on the wire and each repaired in time to
/// carry the next one, 100 000-cycle links making every flight land well
/// inside its window. The fifth loss exhausts the one `MAX_RETRANSMITS`
/// budget: the call dead-letters and the run stops with `Unreachable`.
#[test]
fn a_route_that_loses_every_retry_ends_unreachable() {
    const L: u64 = 100_000;
    let mut cfg = MachineConfig::fem2_default();
    cfg.link_latency = L;
    let mut vm = NaVm::simulated(cfg, 8);
    let (handle, rec) = TraceHandle::ring(1 << 16);
    vm.set_trace(handle);
    // Flights leave at about 0, L, 3L, 4L and 6L (a detour takes two hops).
    let plan = FaultPlan::none()
        .kill_link(L / 2, 1)
        .kill_link(2 * L, 2)
        .recover_link(2 * L, 1)
        .kill_link(3 * L + L / 2, 1)
        .recover_link(3 * L + L / 2, 2)
        .kill_link(5 * L, 2)
        .recover_link(5 * L, 1)
        .kill_link(6 * L + L / 2, 1);
    vm.inject_faults(&plan);
    let (caller, owner) = (fem2_navm::TaskHandle(0), fem2_navm::TaskHandle(2));
    assert_eq!(vm.tasks().cluster_of(owner), 1);
    vm.remote_call(caller, owner, WorkProfile::flops(10), 4, 4);

    let abort = vm.budget_exceeded().expect("the run stopped");
    assert_eq!(abort.cause, fem2_machine::AbortCause::Unreachable);
    assert_eq!(vm.retransmits(), u64::from(fem2_machine::MAX_RETRANSMITS));
    assert_eq!(dead_letters(&rec), [(0, 1)]);
}

/// A 12x12 CG whose partner cluster is cut off mid-solve: every link into
/// cluster 3 (0->3, 1->3, 2->3: ids 3, 7, 11) dies after the solve has
/// started, the next exchange with it dead-letters, and the solve stops at
/// an iteration boundary with `Unreachable`.
#[test]
fn cg_with_a_cut_off_partner_cluster_ends_unreachable() {
    let (healthy_iters, _, _) = plate_cg(&mut traced_vm().0, 12, 12, 1e-8, 300);
    let (mut vm, rec) = traced_vm();
    vm.inject_faults(
        &FaultPlan::none()
            .kill_link(20_000, 3)
            .kill_link(20_000, 7)
            .kill_link(20_000, 11),
    );
    let (iters, _, _) = plate_cg(&mut vm, 12, 12, 1e-8, 300);
    let abort = vm.budget_exceeded().expect("the run stopped");
    assert_eq!(abort.cause, fem2_machine::AbortCause::Unreachable);
    assert!(
        0 < iters && iters < healthy_iters,
        "stopped mid-solve: {iters} of {healthy_iters} iterations"
    );
    assert!(
        dead_letters(&rec).iter().all(|&(_, to)| to == 3),
        "{:?}",
        dead_letters(&rec)
    );
}
