//! The seven-message kernel protocol exercised across the simulated
//! network: task trees, RPC, pause/resume, and fault recovery mid-workload.

use fem2_kernel::{CodeBlock, KernelMessage, KernelSim, MessageKind, TaskId, WorkProfile};
use fem2_machine::fault::FaultPlan;
use fem2_machine::{Machine, MachineConfig, PeId, Topology};

fn sim(clusters: u32, pes: u32) -> KernelSim {
    KernelSim::new(Machine::new(MachineConfig::clustered(
        clusters,
        pes,
        Topology::Crossbar,
    )))
}

#[test]
fn cross_cluster_task_tree_with_notifications() {
    let mut k = sim(4, 4);
    let code = k.register_code(CodeBlock::new("child", 32, WorkProfile::flops(500), 16));
    // A parent on cluster 0.
    k.initiate(0, 0, code, 1, None, 0);
    k.run();
    let parent = TaskId(0);
    // Fan out children to every other cluster.
    for c in 1..4 {
        k.send(
            k.now(),
            0,
            c,
            KernelMessage::InitiateTask {
                code,
                replications: 3,
                parent: Some(parent),
                args_words: 8,
            },
        );
    }
    k.run();
    assert!(k.all_done());
    assert_eq!(k.completions().len(), 10);
    // Nine remote children -> nine TerminateNotify deliveries at cluster 0.
    assert_eq!(k.notifications().len(), 9);
    assert_eq!(k.msg_counts()[&MessageKind::TerminateNotify], 9);
}

#[test]
fn rpc_latency_grows_with_distance() {
    let mut cfg = MachineConfig::clustered(8, 2, Topology::Ring);
    cfg.link_latency = 50;
    let mut k = KernelSim::new(Machine::new(cfg));
    let code = k.register_code(CodeBlock::new("proc", 16, WorkProfile::flops(100), 8));
    // Pre-load the code everywhere so latency differences are pure network.
    for c in 0..8 {
        k.send(0, c, c, KernelMessage::LoadCode { code });
    }
    k.run();
    let t0 = k.now();
    // Call to a neighbour cluster and to the antipode.
    k.send(
        t0 + 1000,
        0,
        1,
        KernelMessage::RemoteCall {
            call_id: 1,
            code,
            args_words: 8,
            caller: TaskId(0),
            reply_cluster: 0,
        },
    );
    k.run();
    let near = k.rpc_returns()[&1];
    let t1 = k.now();
    k.send(
        t1 + 1000,
        0,
        4,
        KernelMessage::RemoteCall {
            call_id: 2,
            code,
            args_words: 8,
            caller: TaskId(0),
            reply_cluster: 0,
        },
    );
    k.run();
    let far = k.rpc_returns()[&2];
    let near_latency = near - (t0 + 1000);
    let far_latency = far - (t1 + 1000);
    assert!(
        far_latency > near_latency,
        "4 hops {far_latency} > 1 hop {near_latency}"
    );
}

#[test]
fn pause_resume_preserves_task_identity_and_parent_links() {
    let mut k = sim(1, 4);
    let code = k.register_code(CodeBlock::new("long", 16, WorkProfile::flops(1_000_000), 8));
    k.initiate(0, 0, code, 2, None, 0);
    // Pause both mid-flight.
    k.send(2000, 0, 0, KernelMessage::PauseNotify { task: TaskId(0) });
    k.send(2100, 0, 0, KernelMessage::PauseNotify { task: TaskId(1) });
    k.run();
    assert_eq!(k.completions().len(), 0);
    // Resume in reverse order; both finish.
    k.send(k.now(), 0, 0, KernelMessage::Resume { task: TaskId(1) });
    k.send(k.now(), 0, 0, KernelMessage::Resume { task: TaskId(0) });
    k.run();
    assert!(k.all_done());
    assert_eq!(k.completions().len(), 2);
    // Task 1 resumed first, so it completes first.
    assert_eq!(k.completions()[0].0, TaskId(1));
}

#[test]
fn workload_survives_cascading_faults() {
    let mut k = sim(2, 8);
    let code = k.register_code(CodeBlock::new(
        "work",
        32,
        WorkProfile {
            flops: 10_000,
            int_ops: 500,
            mem_words: 100,
        },
        16,
    ));
    k.initiate(0, 0, code, 40, None, 0);
    k.initiate(0, 1, code, 40, None, 0);
    // Kill half of each cluster's PEs, including cluster 0's kernel PE.
    let plan = FaultPlan::new(vec![
        fem2_machine::fault::FaultEvent::kill_pe(10_000, PeId::new(0, 0)),
        fem2_machine::fault::FaultEvent::kill_pe(20_000, PeId::new(0, 2)),
        fem2_machine::fault::FaultEvent::kill_pe(30_000, PeId::new(0, 4)),
        fem2_machine::fault::FaultEvent::kill_pe(40_000, PeId::new(1, 1)),
        fem2_machine::fault::FaultEvent::kill_pe(50_000, PeId::new(1, 3)),
        fem2_machine::fault::FaultEvent::kill_pe(60_000, PeId::new(1, 5)),
    ]);
    k.inject_faults(&plan);
    k.run();
    assert!(k.all_done(), "all tasks completed despite 6 faults");
    assert_eq!(k.completions().len(), 80);
    assert_eq!(k.machine.reconfigurations, 6);
    // Cluster 0's kernel PE was promoted.
    assert_eq!(k.machine.kernel_pe(0), PeId::new(0, 1));
}

#[test]
fn all_seven_message_kinds_flow_in_one_run() {
    let mut k = sim(2, 4);
    k.auto_load_code = false;
    let code = k.register_code(CodeBlock::new("w", 32, WorkProfile::flops(200_000), 8));
    // load (explicit), initiate, pause, resume, terminate(-notify via
    // completion), call, return.
    k.send(0, 0, 0, KernelMessage::LoadCode { code });
    k.send(0, 0, 1, KernelMessage::LoadCode { code });
    k.initiate(5_000, 0, code, 1, None, 0);
    k.send(10_000, 0, 0, KernelMessage::PauseNotify { task: TaskId(0) });
    k.run();
    k.send(k.now(), 0, 0, KernelMessage::Resume { task: TaskId(0) });
    k.run();
    k.send(
        k.now(),
        0,
        1,
        KernelMessage::RemoteCall {
            call_id: 9,
            code,
            args_words: 4,
            caller: TaskId(0),
            reply_cluster: 0,
        },
    );
    k.run();
    // Force-terminate a fresh task to exercise TerminateNotify receipt.
    k.initiate(k.now(), 0, code, 1, None, 0);
    k.send(
        k.now() + 100,
        0,
        0,
        KernelMessage::TerminateNotify { task: TaskId(2) },
    );
    k.run();
    let counts = k.msg_counts();
    for kind in MessageKind::ALL {
        assert!(
            counts.get(&kind).copied().unwrap_or(0) > 0,
            "message kind {kind:?} never flowed"
        );
    }
}
