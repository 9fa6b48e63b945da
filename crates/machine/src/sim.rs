//! A generic discrete-event engine with deterministic tie-breaking.
//!
//! [`EventQueue`] is a time-ordered priority queue: events scheduled for the
//! same cycle pop in scheduling order (FIFO), so simulations are
//! deterministic regardless of payload type. Its user, the kernel's
//! `KernelSim`, runs the loop itself: pop, advance the clock, handle the
//! event, which may schedule more.
//!
//! Two interchangeable backends implement the queue (selected by
//! [`DesQueue`], see `MachineConfig::des_queue`):
//!
//! * **Calendar** (default) — a two-level bucketed calendar queue. Level 0
//!   is a ring of "day" buckets, each covering a power-of-two span of
//!   cycles; events beyond the level-0 window wait in an overflow ladder (a
//!   binary heap) and migrate into the ring as the cursor approaches their
//!   day. The day width is auto-tuned from observed inter-event gaps, so a
//!   bucket holds O(1) events and schedule/pop are O(1) amortized instead
//!   of the heap's O(log n).
//! * **Heap** — the reference `BinaryHeap` path, kept for determinism tests
//!   and the A4 ablation.
//!
//! Both backends pop in exactly `(time, sequence)` order. Every entry
//! carries a monotone sequence number stamped at schedule time, and the
//! calendar's bucket scan and overflow ladder compare full `(at, seq)`
//! keys, so same-cycle FIFO ties and cross-bucket ordering reproduce the
//! heap bit for bit — the property the oracle tests check.

use crate::config::DesQueue;
use crate::Cycles;
use fem2_trace::{EventKind, TraceEvent, TraceHandle, NO_CLUSTER, NO_PE};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pending event: time, a monotone sequence number for FIFO ties, payload.
struct Entry<E> {
    at: Cycles,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Initial day width: 2^6 = 64 cycles.
const INITIAL_WIDTH_LOG2: u32 = 6;
/// Initial level-0 ring size (buckets). Must be a power of two.
const INITIAL_DAYS: usize = 64;
/// Ring size bounds for retunes.
const MIN_DAYS: usize = 64;
const MAX_DAYS: usize = 4096;
/// Pops between tune checks: a short warmup, then long steady intervals.
const FIRST_TUNE_POPS: u32 = 64;
const TUNE_INTERVAL_POPS: u32 = 4096;

/// The two-level bucketed calendar queue backend.
///
/// Level 0 is `days`, a power-of-two ring of buckets; absolute day `d`
/// (`at >> width_log2`) lives in slot `d & (days.len() - 1)`. The cursor
/// tracks the earliest day that may still hold events; it only moves
/// forward during pops and rewinds when an insert lands on an earlier day,
/// so no pending event is ever behind it. Days at or beyond
/// `cursor_day + days.len()` sit in the `overflow` ladder and migrate into
/// the ring when the cursor reaches them.
///
/// Each bucket is kept sorted ascending by `(at, seq)`, so a pop is a
/// front-pop: window wrap-around aliases later days into the same slot, but
/// those entries have strictly larger times and therefore sort behind the
/// cursor's day. Inserts binary-search for their slot; the common cascade
/// pattern (schedule a bit ahead of now) lands at or near the back, and
/// same-cycle ties always append because sequence numbers are monotone.
struct Calendar<E> {
    /// log2 of the day width in cycles.
    width_log2: u32,
    /// The level-0 ring. Length is a power of two; buckets sorted by
    /// `(at, seq)`.
    days: Vec<VecDeque<Entry<E>>>,
    /// Absolute day index the cursor is serving.
    cursor_day: u64,
    /// Far-future events (day ≥ cursor_day + days.len() at insert time).
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Entries currently in the ring.
    level0_len: usize,
    /// Total pending entries (ring + overflow).
    len: usize,
    // --- day-width auto-tuning from observed inter-event gaps ---
    last_pop_at: Cycles,
    gap_sum: u64,
    pops_since_tune: u32,
    tune_budget: u32,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            width_log2: INITIAL_WIDTH_LOG2,
            days: (0..INITIAL_DAYS).map(|_| VecDeque::new()).collect(),
            cursor_day: 0,
            overflow: BinaryHeap::new(),
            level0_len: 0,
            len: 0,
            last_pop_at: 0,
            gap_sum: 0,
            pops_since_tune: 0,
            tune_budget: FIRST_TUNE_POPS,
        }
    }

    #[inline]
    fn day(&self, at: Cycles) -> u64 {
        at >> self.width_log2
    }

    #[inline]
    fn slot(&self, day: u64) -> usize {
        (day as usize) & (self.days.len() - 1)
    }

    /// First day beyond the level-0 window.
    #[inline]
    fn window_end(&self) -> u64 {
        self.cursor_day.saturating_add(self.days.len() as u64)
    }

    /// Sorted insert into one bucket. The search runs back to front in
    /// spirit: `partition_point` is O(log k), and the memmove it implies is
    /// empty for the dominant patterns — appends (future times, or
    /// same-cycle ties whose monotone `seq` sorts last).
    fn bucket_insert(bucket: &mut VecDeque<Entry<E>>, e: Entry<E>) {
        if bucket.back().is_none_or(|b| (b.at, b.seq) < (e.at, e.seq)) {
            bucket.push_back(e);
            return;
        }
        let pos = bucket.partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
        bucket.insert(pos, e);
    }

    fn insert(&mut self, e: Entry<E>) {
        let d = self.day(e.at);
        // An insert on an earlier day than the cursor rewinds it: the
        // cursor may have advanced past `now`'s day while searching, and
        // clamped schedules can land there. Rewinding keeps the invariant
        // that no pending event is behind the cursor.
        if d < self.cursor_day {
            self.cursor_day = d;
        }
        if d < self.window_end() {
            let s = self.slot(d);
            Self::bucket_insert(&mut self.days[s], e);
            self.level0_len += 1;
        } else {
            self.overflow.push(Reverse(e));
        }
        self.len += 1;
        // Degenerate occupancy: far more events than buckets. Grow the
        // ring (deterministic: depends only on the event sequence).
        if self.len > self.days.len() * 8 && self.days.len() < MAX_DAYS {
            let days = (self.days.len() * 2).min(MAX_DAYS);
            self.rebuild(self.width_log2, days);
        }
    }

    /// Move every overflow entry whose day is inside the current level-0
    /// window into the ring.
    fn migrate_window(&mut self) {
        let end = self.window_end();
        while let Some(Reverse(top)) = self.overflow.peek() {
            if self.day(top.at) >= end {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry exists");
            let s = self.slot(self.day(e.at));
            Self::bucket_insert(&mut self.days[s], e);
            self.level0_len += 1;
        }
    }

    /// The minimum day held in the ring. Bucket fronts are bucket minima,
    /// so only fronts are scanned. Caller guarantees the ring is non-empty.
    fn min_level0_day(&self) -> u64 {
        self.days
            .iter()
            .filter_map(|b| b.front())
            .map(|e| self.day(e.at))
            .min()
            .expect("ring has entries")
    }

    /// Remove and return the earliest `(at, seq)` entry.
    fn pop_min(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        // Bounded cursor advance: after a full lap over the ring without
        // finding anything, jump straight to the earliest populated day
        // instead of stepping through a sparse stretch day by day.
        let mut empty_steps = 0usize;
        loop {
            if self.level0_len == 0 {
                // Everything pending is far-future: jump the cursor to the
                // ladder's earliest day and pull the window in.
                let Reverse(top) = self.overflow.peek().expect("len > 0 and ring empty");
                self.cursor_day = self.day(top.at);
                self.migrate_window();
                continue;
            }
            if let Some(Reverse(top)) = self.overflow.peek() {
                // The cursor caught up with days the ladder still holds;
                // fold them in before serving.
                if self.day(top.at) <= self.cursor_day {
                    self.migrate_window();
                    continue;
                }
            }
            // Serve the cursor's day. The bucket is sorted, so its front
            // is the minimum `(at, seq)`; if the front belongs to a later
            // aliased day (window wrap-around), the whole bucket does, and
            // the cursor reaches it later.
            let s = self.slot(self.cursor_day);
            let front_is_today = self.days[s]
                .front()
                .is_some_and(|e| self.day(e.at) == self.cursor_day);
            if front_is_today {
                let e = self.days[s].pop_front().expect("front checked above");
                self.level0_len -= 1;
                self.len -= 1;
                self.observe_pop(e.at);
                return Some(e);
            }
            self.cursor_day += 1;
            empty_steps += 1;
            if empty_steps >= self.days.len() {
                self.cursor_day = self.min_level0_day();
                empty_steps = 0;
            }
        }
    }

    /// Track inter-event gaps and retune the day width when the observed
    /// scale disagrees with the current one. Deterministic: driven purely
    /// by popped event times.
    fn observe_pop(&mut self, at: Cycles) {
        self.gap_sum += at.saturating_sub(self.last_pop_at);
        self.last_pop_at = at;
        self.pops_since_tune += 1;
        if self.pops_since_tune < self.tune_budget {
            return;
        }
        // Aim for a day ≈ 4 average gaps, so a bucket holds a handful of
        // events: wide enough to amortize cursor steps, narrow enough that
        // inserts land near the back of their sorted bucket. The ×4 also
        // gives quarter-cycle resolution: deep queues see sub-cycle average
        // gaps, which should tune to 1-cycle days (w = 0) where same-cycle
        // ties append in pure seq order.
        let four_gaps = (self.gap_sum * 4 / u64::from(self.pops_since_tune)).max(1);
        let desired_w = (63 - four_gaps.leading_zeros()).min(32);
        let desired_days = self.len.next_power_of_two().clamp(MIN_DAYS, MAX_DAYS);
        let w_delta = desired_w.abs_diff(self.width_log2);
        if w_delta >= 2 || desired_days > self.days.len() * 4 {
            self.rebuild(desired_w, desired_days.max(self.days.len()));
        }
        self.gap_sum = 0;
        self.pops_since_tune = 0;
        self.tune_budget = TUNE_INTERVAL_POPS;
    }

    /// Re-bucket every pending entry under new parameters. Order is
    /// untouched: entries keep their `(at, seq)` keys, and both levels
    /// compare full keys.
    fn rebuild(&mut self, width_log2: u32, days: usize) {
        let days = days.next_power_of_two().clamp(MIN_DAYS, MAX_DAYS);
        let mut pending: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.days {
            pending.extend(bucket.drain(..));
        }
        pending.extend(self.overflow.drain().map(|Reverse(e)| e));
        self.width_log2 = width_log2;
        if days != self.days.len() {
            self.days = (0..days).map(|_| VecDeque::new()).collect();
        }
        self.level0_len = 0;
        self.len = 0;
        self.cursor_day = pending
            .iter()
            .map(|e| self.day(e.at))
            .min()
            .unwrap_or(self.day(self.last_pop_at));
        for e in pending {
            // Plain re-bucketing: growth checks cannot re-trigger here
            // because `days` was just sized from `len`.
            let d = self.day(e.at);
            if d < self.window_end() {
                let s = self.slot(d);
                Self::bucket_insert(&mut self.days[s], e);
                self.level0_len += 1;
            } else {
                self.overflow.push(Reverse(e));
            }
            self.len += 1;
        }
    }
}

/// The queue's backing store; see [`DesQueue`].
enum Backend<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Calendar(Calendar<E>),
}

impl<E> Backend<E> {
    fn len(&self) -> usize {
        match self {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len,
        }
    }
}

/// Time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    backend: Backend<E>,
    seq: u64,
    now: Cycles,
    events_processed: u64,
    trace: TraceHandle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero on the default (calendar) backend.
    pub fn new() -> Self {
        Self::with_backend(DesQueue::Calendar)
    }

    /// An empty queue at time zero on the chosen backend.
    pub fn with_backend(kind: DesQueue) -> Self {
        let backend = match kind {
            DesQueue::Heap => Backend::Heap(BinaryHeap::new()),
            DesQueue::Calendar => Backend::Calendar(Calendar::new()),
        };
        EventQueue {
            backend,
            seq: 0,
            now: 0,
            events_processed: 0,
            trace: TraceHandle::disabled(),
        }
    }

    /// Attach a trace sink: every schedule/pop emits a DES event carrying
    /// the queue depth and the lifetime pop count (observation only).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Current simulation time: the time of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Total events popped over the queue's lifetime.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.backend.len() == 0
    }

    /// Schedule `ev` at absolute time `at`. Scheduling in the past clamps
    /// to `now` (events cannot rewind the clock).
    pub fn schedule(&mut self, at: Cycles, ev: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, ev };
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse(entry)),
            Backend::Calendar(c) => c.insert(entry),
        }
        // Read the depth inside the closure so the untraced hot path pays
        // nothing for the observation.
        let backend = &self.backend;
        let events_processed = self.events_processed;
        self.trace.emit(|| {
            TraceEvent::instant(
                at,
                NO_CLUSTER,
                NO_PE,
                EventKind::DesSchedule {
                    queue_depth: backend.len() as u32,
                    events_processed,
                },
            )
        });
    }

    /// Schedule `ev` `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycles, ev: E) {
        self.schedule(self.now + delay, ev);
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let entry = match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse(e)| e),
            Backend::Calendar(c) => c.pop_min(),
        };
        entry.map(|e| {
            self.now = e.at;
            self.events_processed += 1;
            let backend = &self.backend;
            let events_processed = self.events_processed;
            self.trace.emit(|| {
                TraceEvent::instant(
                    e.at,
                    NO_CLUSTER,
                    NO_PE,
                    EventKind::DesDispatch {
                        queue_depth: backend.len() as u32,
                        events_processed,
                    },
                )
            });
            (e.at, e.ev)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every behavioral test runs on both backends: the calendar queue
    /// must be indistinguishable from the reference heap.
    const BACKENDS: [DesQueue; 2] = [DesQueue::Calendar, DesQueue::Heap];

    #[test]
    fn events_pop_in_time_order() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            q.schedule(30, "c");
            q.schedule(10, "a");
            q.schedule(20, "b");
            assert_eq!(q.pop(), Some((10, "a")));
            assert_eq!(q.pop(), Some((20, "b")));
            assert_eq!(q.pop(), Some((30, "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn ties_break_fifo() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            for i in 0..100 {
                q.schedule(5, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((5, i)));
            }
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            q.schedule(10, ());
            q.schedule(50, ());
            assert_eq!(q.now(), 0);
            q.pop();
            assert_eq!(q.now(), 10);
            q.pop();
            assert_eq!(q.now(), 50);
        }
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            q.schedule(100, "late");
            q.pop();
            q.schedule(5, "early"); // in the past; clamps to 100
            assert_eq!(q.pop(), Some((100, "early")));
        }
    }

    #[test]
    fn schedule_in_is_relative() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            q.schedule(10, "first");
            q.pop();
            q.schedule_in(7, "second");
            assert_eq!(q.pop(), Some((17, "second")));
        }
    }

    #[test]
    fn len_and_empty() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            assert!(q.is_empty());
            q.schedule(1, ());
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn far_future_events_ride_the_overflow_ladder() {
        let mut q = EventQueue::with_backend(DesQueue::Calendar);
        // Beyond the initial 64-day × 64-cycle window: lands in overflow.
        q.schedule(1 << 30, "far");
        q.schedule(10, "near");
        q.schedule((1 << 30) + 1, "farther");
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((1 << 30, "far")));
        assert_eq!(q.pop(), Some(((1 << 30) + 1, "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_near_and_far_schedules_stay_ordered() {
        let mut q = EventQueue::with_backend(DesQueue::Calendar);
        // Repeatedly pop and schedule around the window edge so the cursor
        // advances, rewinds, and migrates from the ladder.
        let mut expect = Vec::new();
        for i in 0..50u64 {
            q.schedule(i * 3, ("n", i));
            q.schedule(100_000 + i * 7, ("f", i));
            expect.push((i * 3, ("n", i)));
            expect.push((100_000 + i * 7, ("f", i)));
        }
        expect.sort_by_key(|&(at, (_, i))| (at, i));
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn events_processed_counts_pops() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            for t in 0..10u64 {
                q.schedule(t, t);
            }
            assert_eq!(q.events_processed(), 0);
            while q.pop().is_some() {}
            assert_eq!(q.events_processed(), 10);
        }
    }

    #[test]
    fn drain_loop_cascades() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            q.schedule(0, 3u32); // event payload = remaining cascade depth
            let mut log = Vec::new();
            while let Some((at, depth)) = q.pop() {
                log.push((at, depth));
                if depth > 0 {
                    q.schedule_in(10, depth - 1);
                }
            }
            assert_eq!(log, vec![(0, 3), (10, 2), (20, 1), (30, 0)]);
            assert_eq!(q.events_processed(), 4);
            assert_eq!(q.now(), 30);
        }
    }

    #[test]
    fn deterministic_replay() {
        for kind in BACKENDS {
            let run = || {
                let mut q = EventQueue::with_backend(kind);
                for i in 0..50u64 {
                    q.schedule((i * 7) % 13, i);
                }
                let mut order = Vec::new();
                while let Some((_, ev)) = q.pop() {
                    order.push(ev);
                    if ev < 1000 && ev % 5 == 0 {
                        q.schedule_in(3, ev + 1000);
                    }
                }
                order
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn retune_survives_large_volumes_in_order() {
        // Enough events to trip the warmup tune, interval tunes, and the
        // ring-growth rebuild; the pop order must match the heap oracle.
        let mut cal = EventQueue::with_backend(DesQueue::Calendar);
        let mut heap = EventQueue::with_backend(DesQueue::Heap);
        let mut x = 0x2545f4914f6cdd1du64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = x % 1_000_000;
            cal.schedule(at, i);
            heap.schedule(at, i);
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn steady_churn_on_deep_queues_matches_heap_oracle() {
        // The DES inner loop at steady state: hold `depth` events pending,
        // pop the earliest and reschedule it a short LCG-drawn delay later,
        // up to the ~8 900 pending events `kernel_storm` peaks at.
        for depth in [64u64, 4096, 8192] {
            let mut cal = EventQueue::with_backend(DesQueue::Calendar);
            let mut heap = EventQueue::with_backend(DesQueue::Heap);
            for i in 0..depth {
                cal.schedule(i, i);
                heap.schedule(i, i);
            }
            let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
            for round in 0..10_000 {
                let popped = cal.pop();
                assert_eq!(popped, heap.pop(), "depth {depth}, round {round}");
                let (at, ev) = popped.expect("queue is kept non-empty");
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                let next = at + 1 + (lcg >> 58);
                cal.schedule(next, ev);
                heap.schedule(next, ev);
                assert_eq!(cal.now(), heap.now(), "depth {depth}, round {round}");
                assert_eq!(cal.len(), heap.len(), "depth {depth}, round {round}");
            }
        }
    }

    /// One scripted interleaving of schedules and pops, mirrored on both
    /// backends. `ops` drives the script; the pop streams must agree.
    fn oracle_run(ops: &[(u8, u64)]) {
        let mut cal = EventQueue::with_backend(DesQueue::Calendar);
        let mut heap = EventQueue::with_backend(DesQueue::Heap);
        let mut payload = 0u64;
        for &(op, t) in ops {
            if op % 3 == 0 {
                // Pop on both; streams must match (including clocks).
                assert_eq!(cal.pop(), heap.pop());
                assert_eq!(cal.now(), heap.now());
            } else {
                // Absolute schedule; past times exercise clamp-to-now.
                cal.schedule(t, payload);
                heap.schedule(t, payload);
                payload += 1;
                assert_eq!(cal.len(), heap.len());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        /// Random schedule/pop interleavings (with heavy ties, past
        /// schedules, and far-future outliers) pop identically on the
        /// calendar and heap backends: time order, same-cycle FIFO,
        /// clamp-to-now, clock and depths all agree.
        #[test]
        fn calendar_matches_heap_oracle(
            ops in proptest::collection::vec(
                (0u8..6, prop_oneof![
                    0u64..50,              // dense ties near the origin
                    0u64..5_000,           // in-window spread
                    1_000_000u64..1_100_000, // far future: overflow ladder
                ]),
                0..400,
            )
        ) {
            oracle_run(&ops);
        }
    }
}
