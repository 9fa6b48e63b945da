//! Exporters: Chrome `trace_event` JSON and a plain-text per-phase table.
//!
//! The JSON loads in `chrome://tracing` and Perfetto. Mapping:
//! - **pid** = cluster id (process-name metadata labels it `cluster N`);
//!   machine-level events (no cluster) use `SIM_PID`, scenario phase
//!   spans use `PHASE_PID`.
//! - **tid** = PE index within the cluster; cluster-level activity
//!   (kernel protocol, network, heap) rides the `CONTROL_TID` lane.
//! - **ts/dur** are simulated cycles, exported 1 cycle = 1 µs.
//!
//! Only activity that is serialized by the model becomes `X` (complete)
//! spans — PE busy spans, scenario phases, console commands — so spans on
//! a lane always nest. Messages, window stages, heap ops, and transfers
//! are instant events carrying their duration in `args`.

use crate::event::{EventKind, TraceEvent, NO_CLUSTER, NO_PE};
use crate::sink::RingRecorder;

/// `pid` for machine-level events not tied to a cluster (DES queue).
pub(crate) const SIM_PID: u32 = 1_000_000;

/// `pid` for scenario phase spans.
pub(crate) const PHASE_PID: u32 = 1_000_001;

/// `tid` for cluster-level (non-PE) activity within a cluster `pid`.
pub(crate) const CONTROL_TID: u32 = 999;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn pid_of(ev: &TraceEvent) -> u32 {
    if ev.cluster == NO_CLUSTER {
        SIM_PID
    } else {
        ev.cluster
    }
}

fn tid_of(ev: &TraceEvent) -> u32 {
    if ev.cluster == NO_CLUSTER {
        0
    } else if ev.pe == NO_PE {
        CONTROL_TID
    } else {
        ev.pe
    }
}

fn args_of(ev: &TraceEvent) -> String {
    match ev.kind {
        EventKind::DesSchedule {
            queue_depth,
            events_processed,
        }
        | EventKind::DesDispatch {
            queue_depth,
            events_processed,
        } => {
            format!("{{\"queue_depth\":{queue_depth},\"events_processed\":{events_processed}}}")
        }
        EventKind::PeBusy { count, .. } => format!("{{\"count\":{count}}}"),
        EventKind::MsgSend {
            to_cluster, words, ..
        } => {
            format!(
                "{{\"to_cluster\":{to_cluster},\"words\":{words},\"dur\":{}}}",
                ev.dur
            )
        }
        EventKind::MsgRecv {
            from_cluster,
            words,
            ..
        } => {
            format!("{{\"from_cluster\":{from_cluster},\"words\":{words}}}")
        }
        EventKind::Window {
            peer_cluster,
            words,
            ..
        } => {
            format!(
                "{{\"peer_cluster\":{peer_cluster},\"words\":{words},\"dur\":{}}}",
                ev.dur
            )
        }
        EventKind::Alloc { words, in_use } | EventKind::Free { words, in_use } => {
            format!("{{\"words\":{words},\"in_use\":{in_use}}}")
        }
        EventKind::LinkTransfer {
            to_cluster,
            words,
            packets,
        } => {
            format!(
                "{{\"to_cluster\":{to_cluster},\"words\":{words},\"packets\":{packets},\"dur\":{}}}",
                ev.dur
            )
        }
        EventKind::Task { task, .. } => format!("{{\"task\":{task}}}"),
        EventKind::AppCommand { seq } => format!("{{\"seq\":{seq}}}"),
        EventKind::LinkFault { link, degrade } => {
            format!("{{\"link\":{link},\"degrade\":{degrade}}}")
        }
        EventKind::Retransmit {
            to_cluster,
            attempt,
            ..
        } => {
            format!("{{\"to_cluster\":{to_cluster},\"attempt\":{attempt}}}")
        }
        EventKind::DeadLetter { to_cluster, .. } => {
            format!("{{\"to_cluster\":{to_cluster}}}")
        }
        EventKind::PeRecover => "{}".to_string(),
        EventKind::LinkRecover { link } => format!("{{\"link\":{link}}}"),
        EventKind::MemFault { words, lost } => {
            format!("{{\"words\":{words},\"lost\":{lost}}}")
        }
        EventKind::RunAbort { cause } => format!("{{\"cause\":{cause}}}"),
    }
}

fn cat_of(ev: &TraceEvent) -> &'static str {
    match ev.kind {
        EventKind::DesSchedule { .. } | EventKind::DesDispatch { .. } => "des",
        EventKind::PeBusy { .. } => "pe",
        EventKind::MsgSend { .. } | EventKind::MsgRecv { .. } => "kernel_msg",
        EventKind::Window { .. } => "window",
        EventKind::Alloc { .. } | EventKind::Free { .. } => "heap",
        EventKind::LinkTransfer { .. } => "network",
        EventKind::Task { .. } => "task",
        EventKind::AppCommand { .. } => "command",
        EventKind::LinkFault { .. }
        | EventKind::LinkRecover { .. }
        | EventKind::PeRecover
        | EventKind::MemFault { .. }
        | EventKind::RunAbort { .. } => "fault",
        EventKind::Retransmit { .. } | EventKind::DeadLetter { .. } => "reliable",
    }
}

/// Whether the event renders as a complete (`X`) span. Only families whose
/// spans are serialized per lane qualify, so spans always nest.
fn is_span(ev: &TraceEvent) -> bool {
    matches!(
        ev.kind,
        EventKind::PeBusy { .. } | EventKind::AppCommand { .. }
    )
}

/// Render the recorder as Chrome `trace_event` JSON.
pub fn trace_json(rec: &RingRecorder) -> String {
    let mut events = Vec::new();

    // Process/thread name metadata.
    let mut seen: Vec<(u32, u32)> = Vec::new();
    for ev in rec.events() {
        let (pid, tid) = (pid_of(ev), tid_of(ev));
        if !seen.contains(&(pid, tid)) {
            seen.push((pid, tid));
        }
    }
    seen.sort_unstable();
    let mut named_pids: Vec<u32> = Vec::new();
    for &(pid, tid) in &seen {
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            let pname = if pid == SIM_PID {
                "simulator".to_string()
            } else {
                format!("cluster {pid}")
            };
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ));
        }
        let tname = if pid == SIM_PID {
            "event queue".to_string()
        } else if tid == CONTROL_TID {
            "kernel/net".to_string()
        } else {
            format!("pe {tid}")
        };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{tname}\"}}}}"
        ));
    }
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PHASE_PID},\"tid\":0,\
         \"args\":{{\"name\":\"scenario phases\"}}}}"
    ));

    // Scenario phase spans, from entry marks.
    let marks = rec.phase_marks();
    for (i, &(phase, start)) in marks.iter().enumerate() {
        let end = marks
            .get(i + 1)
            .map(|&(_, t)| t)
            .unwrap_or(rec.high_water());
        let dur = end.saturating_sub(start);
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
             \"pid\":{PHASE_PID},\"tid\":0,\"args\":{{}}}}",
            esc(rec.phase_name(phase)),
        ));
    }

    // The recorded events.
    for ev in rec.events() {
        let (pid, tid) = (pid_of(ev), tid_of(ev));
        let (name, cat, args) = (ev.name(), cat_of(ev), args_of(ev));
        if is_span(ev) {
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                ev.at, ev.dur,
            ));
        } else {
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                ev.at,
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}},\
         \"traceEvents\":[\n{}\n]}}\n",
        rec.dropped(),
        events.join(",\n"),
    )
}

/// Render per-phase counters and histograms as a plain-text table.
pub fn phase_table(rec: &RingRecorder) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>9} {:>12} {:>7} {:>10} {:>9} {:>8} {:>7} {:>7} {:>24}\n",
        "phase",
        "events",
        "busy_cyc",
        "msgs",
        "msg_words",
        "transfers",
        "packets",
        "allocs",
        "frees",
        "window r/g/t/s words"
    ));
    let metrics = rec.metrics();
    for (id, pm) in metrics.phases.iter().enumerate() {
        if pm.events == 0 {
            continue;
        }
        let w = pm.window_words;
        out.push_str(&format!(
            "{:<12} {:>9} {:>12} {:>7} {:>10} {:>9} {:>8} {:>7} {:>7} {:>24}\n",
            rec.phase_name(id as u16),
            pm.events,
            pm.busy_cycles,
            pm.msgs_sent,
            pm.msg_words,
            pm.transfers,
            pm.packets,
            pm.allocs,
            pm.frees,
            format!("{}/{}/{}/{}", w[0], w[1], w[2], w[3]),
        ));
        if pm.des_dispatches > 0 {
            out.push_str(&format!(
                "  des: dispatches {} events_processed {} span {} cyc throughput {} evt/Mcyc\n",
                pm.des_dispatches,
                pm.des_events_processed,
                pm.des_last_dispatch_at
                    .saturating_sub(pm.des_first_dispatch_at),
                pm.des_throughput_per_mcycle(),
            ));
        }
        if pm.any_fault_activity() {
            out.push_str(&format!(
                "  faults: link {} link_recover {} mem {} pe_recover {} | retransmits {} dead_letters {} stale {}\n",
                pm.link_faults,
                pm.link_recoveries,
                pm.mem_faults,
                pm.pe_recoveries,
                pm.retransmits,
                pm.dead_letters,
                pm.stale_tasks,
            ));
        }
    }
    out.push('\n');
    for (id, pm) in metrics.phases.iter().enumerate() {
        if pm.events == 0 {
            continue;
        }
        out.push_str(&format!(
            "phase {} histograms (log2 buckets)\n",
            rec.phase_name(id as u16)
        ));
        out.push_str(&format!(
            "  msg_size_words : {} (mean {}, max {})\n",
            pm.msg_size.summarize(),
            pm.msg_size.mean(),
            pm.msg_size.max
        ));
        out.push_str(&format!(
            "  queue_depth    : {} (mean {}, max {})\n",
            pm.queue_depth.summarize(),
            pm.queue_depth.mean(),
            pm.queue_depth.max
        ));
        out.push_str(&format!(
            "  task_latency   : {} (mean {}, max {})\n",
            pm.task_latency.summarize(),
            pm.task_latency.mean(),
            pm.task_latency.max
        ));
    }
    if rec.dropped() > 0 {
        out.push_str(&format!(
            "\n({} events dropped by the ring buffer; counters above are exact)\n",
            rec.dropped()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostKind, MsgKind, TaskStage, WindowStage};
    use crate::sink::TraceHandle;

    fn sample_recorder() -> crate::sink::SharedRecorder {
        let (h, rec) = TraceHandle::ring(1024);
        h.begin_phase("assembly", 0);
        h.emit(|| {
            TraceEvent::span(
                0,
                40,
                0,
                1,
                EventKind::PeBusy {
                    cost: CostKind::Flop,
                    count: 10,
                },
            )
        });
        h.emit(|| {
            TraceEvent::span(
                40,
                8,
                0,
                1,
                EventKind::PeBusy {
                    cost: CostKind::MemWord,
                    count: 4,
                },
            )
        });
        h.emit(|| {
            TraceEvent::span(
                5,
                60,
                0,
                NO_PE,
                EventKind::MsgSend {
                    msg: MsgKind::InitiateTask,
                    to_cluster: 1,
                    words: 12,
                },
            )
        });
        h.emit(|| {
            TraceEvent::instant(
                65,
                1,
                NO_PE,
                EventKind::MsgRecv {
                    msg: MsgKind::InitiateTask,
                    from_cluster: 0,
                    words: 12,
                },
            )
        });
        h.begin_phase("solve", 100);
        h.emit(|| {
            TraceEvent::span(
                100,
                20,
                1,
                NO_PE,
                EventKind::Window {
                    stage: WindowStage::Transit,
                    peer_cluster: 0,
                    words: 64,
                },
            )
        });
        h.emit(|| {
            TraceEvent::instant(
                100,
                NO_CLUSTER,
                NO_PE,
                EventKind::DesSchedule {
                    queue_depth: 3,
                    events_processed: 7,
                },
            )
        });
        h.emit(|| {
            TraceEvent::instant(
                110,
                0,
                NO_PE,
                EventKind::Task {
                    task: 1,
                    stage: TaskStage::Created,
                },
            )
        });
        h.emit(|| {
            TraceEvent::instant(
                150,
                0,
                NO_PE,
                EventKind::Task {
                    task: 1,
                    stage: TaskStage::Completed,
                },
            )
        });
        rec
    }

    #[test]
    fn json_has_expected_records_and_mapping() {
        let rec = sample_recorder();
        let json = trace_json(&rec.lock().unwrap());
        // Families present.
        assert!(json.contains("\"cat\":\"pe\""));
        assert!(json.contains("initiate_task"));
        assert!(json.contains("\"cat\":\"window\""));
        assert!(json.contains("\"name\":\"transit\""));
        // PE busy span on cluster 0 / pe 1.
        assert!(json.contains("\"ph\":\"X\",\"ts\":0,\"dur\":40,\"pid\":0,\"tid\":1"));
        // Cluster-level message on the control lane.
        assert!(json.contains(&format!("\"tid\":{CONTROL_TID}")));
        // DES event on the simulator pseudo-process.
        assert!(json.contains(&format!("\"pid\":{SIM_PID}")));
        // Phase spans.
        assert!(json.contains("\"name\":\"assembly\",\"cat\":\"phase\""));
        assert!(json.contains("\"name\":\"solve\",\"cat\":\"phase\""));
    }

    #[test]
    fn phase_table_lists_both_phases() {
        let rec = sample_recorder();
        let table = phase_table(&rec.lock().unwrap());
        assert!(table.contains("assembly"));
        assert!(table.contains("solve"));
        assert!(table.contains("msg_size_words"));
        assert!(table.contains("task_latency"));
    }

    #[test]
    fn exporter_handles_empty_recorder() {
        let rec = crate::sink::RingRecorder::new(4);
        let json = trace_json(&rec);
        assert!(json.contains("traceEvents"));
        let table = phase_table(&rec);
        assert!(table.contains("phase"));
    }
}
