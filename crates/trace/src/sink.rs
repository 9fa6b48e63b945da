//! The sink: where events go.
//!
//! [`RingRecorder`] is the bounded in-memory recorder. Instrumented code
//! holds a [`TraceHandle`] — a cheap, cloneable, optionally-empty
//! reference to a shared recorder. A disabled handle makes every emit a
//! branch on `None`: the event value is never even built.

use crate::event::TraceEvent;
use crate::metrics::Metrics;
use crate::Cycles;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Name of the implicit phase active before any `begin_phase` call.
pub(crate) const STARTUP_PHASE: &str = "startup";

/// Bounded ring-buffer recorder with per-phase metrics.
///
/// Keeps the newest `capacity` events (dropping the oldest and counting
/// them); metrics fold in every event regardless of retention. Task
/// latencies are derived by pairing `Task{Created}` / `Task{Completed}`
/// events as they arrive.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    phases: Vec<String>,
    current_phase: u16,
    /// (phase id, entry time) in order of `begin_phase` calls.
    phase_marks: Vec<(u16, Cycles)>,
    metrics: Metrics,
    /// Open tasks: (task id, creation time); scanned linearly (small).
    open_tasks: Vec<(u32, Cycles)>,
    /// Largest event timestamp seen (end of spans included).
    high_water: Cycles,
}

impl RingRecorder {
    /// A recorder retaining at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
            phases: vec![STARTUP_PHASE.to_string()],
            current_phase: 0,
            phase_marks: vec![(0, 0)],
            metrics: Metrics::default(),
            open_tasks: Vec::new(),
            high_water: 0,
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Name of a phase id (or `"?"` for an unknown id).
    pub(crate) fn phase_name(&self, id: u16) -> &str {
        self.phases
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Phase entry marks: (phase id, entry time), in entry order.
    pub(crate) fn phase_marks(&self) -> &[(u16, Cycles)] {
        &self.phase_marks
    }

    /// Per-phase aggregates.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Largest timestamp observed (span ends included).
    pub(crate) fn high_water(&self) -> Cycles {
        self.high_water
    }

    /// Enter a (possibly already-interned) scenario phase at simulated
    /// time `at`; returns the phase's interned id.
    fn begin_phase(&mut self, name: &str, at: Cycles) -> u16 {
        let id = match self.phases.iter().position(|p| p == name) {
            Some(i) => i as u16,
            None => {
                self.phases.push(name.to_string());
                (self.phases.len() - 1) as u16
            }
        };
        self.current_phase = id;
        self.phase_marks.push((id, at));
        id
    }

    /// Record one event, stamped with the current phase.
    fn record(&mut self, mut ev: TraceEvent) {
        ev.phase = self.current_phase;
        self.high_water = self.high_water.max(ev.at + ev.dur);
        self.metrics.phase_mut(ev.phase).observe(&ev);
        if let crate::event::EventKind::Task { task, stage } = ev.kind {
            match stage {
                crate::event::TaskStage::Created => self.open_tasks.push((task, ev.at)),
                crate::event::TaskStage::Completed => {
                    if let Some(i) = self.open_tasks.iter().position(|&(t, _)| t == task) {
                        let (_, created) = self.open_tasks.swap_remove(i);
                        self.metrics
                            .phase_mut(ev.phase)
                            .task_latency
                            .record(ev.at.saturating_sub(created));
                    }
                }
                _ => {}
            }
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// A shared, lockable recorder (what [`TraceHandle::ring`] hands back).
pub type SharedRecorder = Arc<Mutex<RingRecorder>>;

/// A cheap handle instrumented code holds.
///
/// Cloning shares the underlying recorder. The default handle is disabled:
/// [`TraceHandle::emit`] is then a single `None` check and the closure
/// building the event is never called.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<SharedRecorder>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// The disabled (zero-cost) handle.
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// A handle recording into a fresh [`RingRecorder`] of `capacity`
    /// events, plus the shared recorder for later inspection/export.
    pub fn ring(capacity: usize) -> (Self, SharedRecorder) {
        let rec = Arc::new(Mutex::new(RingRecorder::new(capacity)));
        let handle = TraceHandle {
            inner: Some(Arc::clone(&rec)),
        };
        (handle, rec)
    }

    /// Whether events are being consumed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record the event `f` builds — `f` runs only when enabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.inner {
            sink.lock().unwrap_or_else(|e| e.into_inner()).record(f());
        }
    }

    /// Enter scenario phase `name` at simulated time `at`.
    pub fn begin_phase(&self, name: &str, at: Cycles) {
        if let Some(sink) = &self.inner {
            sink.lock()
                .unwrap_or_else(|e| e.into_inner())
                .begin_phase(name, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostKind, EventKind, TaskStage};

    fn busy(at: Cycles, count: u64) -> TraceEvent {
        TraceEvent::span(
            at,
            count,
            0,
            1,
            EventKind::PeBusy {
                cost: CostKind::Flop,
                count,
            },
        )
    }

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let h = TraceHandle::disabled();
        let mut ran = false;
        h.emit(|| {
            ran = true;
            busy(0, 1)
        });
        assert!(!ran);
        assert!(!h.is_enabled());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let (h, rec) = TraceHandle::ring(3);
        for i in 0..5 {
            h.emit(|| busy(i, 1));
        }
        let r = rec.lock().unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().unwrap();
        assert_eq!(first.at, 2, "oldest two were dropped");
        // Metrics saw all five events despite the drops.
        assert_eq!(r.metrics().phases[0].events, 5);
    }

    #[test]
    fn phases_are_interned_and_stamped() {
        let (h, rec) = TraceHandle::ring(16);
        h.emit(|| busy(0, 1));
        h.begin_phase("solve", 10);
        h.emit(|| busy(10, 1));
        h.begin_phase("solve", 20);
        h.emit(|| busy(20, 1));
        let r = rec.lock().unwrap();
        assert_eq!(r.phases, ["startup".to_string(), "solve".to_string()]);
        let phases: Vec<u16> = r.events().map(|e| e.phase).collect();
        assert_eq!(phases, vec![0, 1, 1]);
        assert_eq!(r.phase_marks(), &[(0, 0), (1, 10), (1, 20)]);
    }

    #[test]
    fn task_latency_pairs_created_and_completed() {
        let (h, rec) = TraceHandle::ring(16);
        h.emit(|| {
            TraceEvent::instant(
                100,
                0,
                0,
                EventKind::Task {
                    task: 7,
                    stage: TaskStage::Created,
                },
            )
        });
        h.emit(|| {
            TraceEvent::instant(
                250,
                0,
                0,
                EventKind::Task {
                    task: 7,
                    stage: TaskStage::Completed,
                },
            )
        });
        let r = rec.lock().unwrap();
        let lat = &r.metrics().phases[0].task_latency;
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 150);
    }

    #[test]
    fn encode_is_deterministic() {
        let run = || {
            let (h, rec) = TraceHandle::ring(8);
            h.begin_phase("p", 1);
            for i in 0..4 {
                h.emit(|| busy(i * 3, i));
            }
            let r = rec.lock().unwrap();
            (
                r.len(),
                r.dropped(),
                r.events().copied().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
        assert!(!run().2.is_empty());
    }
}
