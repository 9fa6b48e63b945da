//! fem2-trace integration: recorded event streams are deterministic,
//! tracing is observation-only, and the Chrome exporter produces valid,
//! well-nested `trace_event` JSON.

use fem2_core::scenario::PlateScenario;
use fem2_kernel::{CodeBlock, KernelMessage, KernelSim, TaskId, WorkProfile};
use fem2_machine::fault::FaultPlan;
use fem2_machine::{Machine, MachineConfig, PeId, Topology};
use fem2_trace::{chrome, EventKind, TraceHandle};
use proptest::prelude::*;
use serde_json::Value;

fn uint(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => *u,
        Value::Int(i) => *i as u64,
        other => panic!("expected integer, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.get_field(name).unwrap_or_else(|e| panic!("{e:?}"))
}

/// Run the plate scenario with a recorder attached and export Chrome JSON.
fn scenario_trace_json(n: usize) -> Value {
    let (handle, rec) = TraceHandle::ring(1 << 18);
    let report = PlateScenario::square(n, MachineConfig::fem2_default())
        .with_trace(handle)
        .run();
    assert!(report.converged);
    let rec = rec.lock().expect("no other holder of the recorder lock");
    serde_json::parse_value(&chrome::trace_json(&rec)).expect("exporter emits valid JSON")
}

// ---------------------------------------------------------------------
// Determinism (property)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two runs over identical inputs record identical event streams.
    #[test]
    fn identical_runs_record_identical_event_streams(n in 6usize..13) {
        let run = |n: usize| {
            let (handle, rec) = TraceHandle::ring(1 << 18);
            let _ = PlateScenario::square(n, MachineConfig::fem2_default())
                .with_trace(handle)
                .run();
            let r = rec.lock().unwrap();
            (r.len(), r.dropped(), r.events().copied().collect::<Vec<_>>())
        };
        let (len_a, dropped_a, events_a) = run(n);
        let (len_b, dropped_b, events_b) = run(n);
        prop_assert!(len_a > 0, "the run recorded nothing");
        prop_assert_eq!(len_a, len_b);
        prop_assert_eq!((dropped_a, events_a), (dropped_b, events_b));
    }
}

// ---------------------------------------------------------------------
// Observation-only
// ---------------------------------------------------------------------

/// Attaching a recorder never changes simulation results: elapsed
/// cycles, CG behaviour, and every stats counter are bit-identical to an
/// untraced run.
#[test]
fn tracing_never_changes_simulation_results() {
    let scenario = PlateScenario::square(12, MachineConfig::fem2_default());
    let base = scenario.clone().run();

    let (handle, _rec) = TraceHandle::ring(1 << 18);
    let traced = scenario.with_trace(handle).run();

    assert_eq!(base.elapsed, traced.elapsed);
    assert_eq!(base.iterations, traced.iterations);
    assert_eq!(base.residual.to_bits(), traced.residual.to_bits());
    assert_eq!(base.total_messages, traced.total_messages);
    assert_eq!(base.total_words_moved, traced.total_words_moved);
    assert_eq!(base.total_memory_words, traced.total_memory_words);
    assert_eq!(base.table, traced.table, "per-phase stats table");
}

// ---------------------------------------------------------------------
// Chrome exporter
// ---------------------------------------------------------------------

/// The export parses as JSON and its records carry the mandatory
/// trace_event fields.
#[test]
fn chrome_export_is_valid_trace_event_json() {
    let json = scenario_trace_json(10);
    let Value::Arr(events) = field(&json, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty());
    for ev in events {
        let Value::Str(ph) = field(ev, "ph") else {
            panic!("ph is not a string");
        };
        assert!(
            matches!(ph.as_str(), "X" | "i" | "M"),
            "unexpected record type {ph}"
        );
        field(ev, "pid");
        field(ev, "tid");
        if ph != "M" {
            field(ev, "ts");
            field(ev, "name");
        }
    }
}

/// Complete ("X") spans on any one (pid, tid) lane are properly nested:
/// two spans either don't overlap or one contains the other.
#[test]
fn chrome_spans_nest_within_each_lane() {
    let json = scenario_trace_json(10);
    let Value::Arr(events) = field(&json, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut spans = 0usize;
    for ev in events {
        if field(ev, "ph") != &Value::Str("X".into()) {
            continue;
        }
        spans += 1;
        let pid = uint(field(ev, "pid"));
        let tid = uint(field(ev, "tid"));
        let ts = uint(field(ev, "ts"));
        let dur = uint(field(ev, "dur"));
        lanes.entry((pid, tid)).or_default().push((ts, ts + dur));
    }
    assert!(spans > 0, "no complete spans in the export");
    for ((pid, tid), mut iv) in lanes {
        iv.sort();
        for w in 0..iv.len() {
            for v in w + 1..iv.len() {
                let (a0, a1) = iv[w];
                let (b0, b1) = iv[v];
                let disjoint = a1 <= b0 || b1 <= a0;
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                assert!(
                    disjoint || nested,
                    "lane ({pid},{tid}): span [{a0},{a1}) partially overlaps [{b0},{b1})"
                );
            }
        }
    }
}

/// pid maps to cluster id and tid to PE index for machine events; every
/// pid used by an event also has a process_name metadata record.
#[test]
fn chrome_pids_and_tids_map_to_clusters_and_pes() {
    let cfg = MachineConfig::fem2_default();
    let (clusters, pes) = (cfg.clusters as u64, cfg.pes_per_cluster as u64);
    let json = scenario_trace_json(10);
    let Value::Arr(events) = field(&json, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    let mut named_pids = std::collections::BTreeSet::new();
    let mut used_pids = std::collections::BTreeSet::new();
    let mut pe_lanes = std::collections::BTreeSet::new();
    for ev in events {
        let pid = uint(field(ev, "pid"));
        if field(ev, "ph") == &Value::Str("M".into()) {
            if field(ev, "name") == &Value::Str("process_name".into()) {
                named_pids.insert(pid);
            }
            continue;
        }
        used_pids.insert(pid);
        if field(ev, "cat") == &Value::Str("pe".into()) {
            let tid = uint(field(ev, "tid"));
            assert!(pid < clusters, "pe event on pid {pid} >= {clusters}");
            assert!(tid < pes, "pe event on tid {tid} >= {pes}");
            pe_lanes.insert((pid, tid));
        }
    }
    assert!(
        pe_lanes.len() > clusters as usize,
        "busy spans should land on several PE lanes, got {pe_lanes:?}"
    );
    for pid in &used_pids {
        assert!(named_pids.contains(pid), "pid {pid} has no process_name");
    }
}

/// The plain-text table lists each scenario phase with its event counts.
#[test]
fn phase_table_reports_scenario_phases() {
    let (handle, rec) = TraceHandle::ring(1 << 18);
    let _ = PlateScenario::square(10, MachineConfig::fem2_default())
        .with_trace(handle)
        .run();
    let rec = rec.lock().expect("no other holder of the recorder lock");
    let table = chrome::phase_table(&rec);
    for phase in ["assembly", "solve", "stress"] {
        assert!(
            table.contains(phase),
            "table is missing phase {phase}:\n{table}"
        );
    }
}

// ---------------------------------------------------------------------
// Kernel-plane events
// ---------------------------------------------------------------------

/// Driving the kernel protocol with a recorder attached captures DES
/// scheduling, kernel message send/receive pairs, and task lifecycles.
#[test]
fn kernel_protocol_emits_des_message_and_task_events() {
    let machine = Machine::new(MachineConfig::clustered(2, 4, Topology::Crossbar));
    let mut k = KernelSim::new(machine);
    let (handle, rec) = TraceHandle::ring(1 << 16);
    k.set_trace(handle);
    let code = k.register_code(CodeBlock::new("child", 32, WorkProfile::flops(100), 16));
    k.initiate(0, 0, code, 1, None, 0);
    k.run();
    k.send(
        k.now(),
        0,
        1,
        KernelMessage::InitiateTask {
            code,
            replications: 2,
            parent: Some(TaskId(0)),
            args_words: 4,
        },
    );
    k.run();
    assert!(k.all_done());

    let r = rec.lock().unwrap();
    let (mut des, mut sends, mut recvs, mut tasks) = (0, 0, 0, 0);
    for ev in r.events() {
        match ev.kind {
            EventKind::DesSchedule { .. } | EventKind::DesDispatch { .. } => des += 1,
            EventKind::MsgSend { .. } => sends += 1,
            EventKind::MsgRecv { .. } => recvs += 1,
            EventKind::Task { .. } => tasks += 1,
            _ => {}
        }
    }
    assert!(des > 0, "no DES events");
    assert!(
        sends >= 2,
        "expected the initiate and notify sends, got {sends}"
    );
    assert_eq!(sends, recvs, "every send is eventually decoded");
    assert!(
        tasks >= 9,
        "3 creations x (created+dispatched+completed), got {tasks}"
    );
    // The kernel schedules through the DES queue, and its dispatches
    // surface in the metrics table with a throughput figure.
    assert!(r.metrics().peak_queue_depth() > 0);
    let table = chrome::phase_table(&r);
    assert!(table.contains("des: dispatches"), "{table}");
    assert!(table.contains("evt/Mcyc"), "{table}");
}

// ---------------------------------------------------------------------
// Pinned exports
// ---------------------------------------------------------------------

/// FNV-1a digest and record count of a Chrome export. Every record, and
/// nothing else in the document, carries one `"ph":` key.
fn export_identity(rec: &fem2_trace::SharedRecorder) -> (u64, usize) {
    let rec = rec.lock().expect("no other holder of the recorder lock");
    let json = chrome::trace_json(&rec);
    (
        fem2_core::hash::fnv1a_64(json.as_bytes()),
        json.matches("\"ph\":").count(),
    )
}

/// The Chrome export of a traced 16×16 plate on the default machine is
/// pinned byte for byte: every `PeBusy` span a dispatched task charges
/// keeps its start, duration, lane and order.
#[test]
fn plate_chrome_export_is_pinned() {
    let (handle, rec) = TraceHandle::ring(1 << 18);
    let report = PlateScenario::square(16, MachineConfig::fem2_default())
        .with_trace(handle)
        .run();
    assert!(report.converged);
    let (digest, events) = export_identity(&rec);
    assert_eq!(
        (digest, events),
        (0x57ed_c79f_9ca7_0b69, 27_710),
        "got ({digest:#018x}, {events})"
    );
}

/// The Chrome export of a traced kernel run is pinned byte for byte: task
/// dispatches across PE faults (a transient worker fault, a kernel-PE
/// kill), two fans of replications and one remote call.
#[test]
fn kernel_chrome_export_is_pinned() {
    let machine = Machine::new(MachineConfig::clustered(2, 4, Topology::Crossbar));
    let mut k = KernelSim::new(machine);
    let (handle, rec) = TraceHandle::ring(1 << 16);
    k.set_trace(handle);
    let work = WorkProfile {
        flops: 300,
        int_ops: 40,
        mem_words: 120,
    };
    let code = k.register_code(CodeBlock::new("worker", 32, work, 16));
    k.inject_faults(
        &FaultPlan::none()
            .transient_pe(400, 3_000, PeId::new(0, 1))
            .kill_pe(900, PeId::new(1, 0)),
    );
    k.initiate(0, 0, code, 6, None, 0);
    k.initiate(0, 1, code, 5, None, 0);
    k.send(
        200,
        0,
        1,
        KernelMessage::RemoteCall {
            call_id: 7,
            code,
            args_words: 16,
            caller: TaskId(0),
            reply_cluster: 0,
        },
    );
    k.run();
    assert!(k.rpc_returns().contains_key(&7));
    let (digest, events) = export_identity(&rec);
    assert_eq!(
        (digest, events),
        (0x1db0_d43b_53fd_aa1d, 245),
        "got ({digest:#018x}, {events})"
    );
}
