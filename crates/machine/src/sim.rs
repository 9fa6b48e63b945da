//! A generic discrete-event engine with deterministic tie-breaking.
//!
//! [`EventQueue`] is a time-ordered priority queue: events scheduled for the
//! same cycle pop in scheduling order (FIFO), so simulations are
//! deterministic regardless of payload type. Its user, the kernel's
//! `KernelSim`, runs the loop itself: pop, advance the clock, handle the
//! event, which may schedule more.
//!
//! The queue keeps payloads in a slab and orders `(time, slot)` keys on one
//! of two interchangeable backends (selected by [`DesQueue`], see
//! `MachineConfig::des_queue`), so ordering moves 16 or 24 bytes per event
//! whatever the payload:
//!
//! * **Radix heap** (default, selected by [`DesQueue::Calendar`]) — a
//!   monotone radix heap keyed by time alone. Bucket `b > 0` holds the keys
//!   whose time first differs from `last`, the time of the last pop, in
//!   bit `b - 1`; bucket 0 holds the keys at `last` itself and is a FIFO,
//!   read from a cursor and cleared once read out. A pop from an
//!   empty bucket 0 finds the lowest non-empty bucket, sets `last` to its
//!   minimum time and redistributes its keys, in order, into the lower
//!   buckets. Schedule is O(1), and a pop O(1) amortized: a key only ever
//!   moves to a strictly lower bucket, so it moves at most 64 times.
//! * **Heap** — the reference `BinaryHeap` on `(time, sequence)`, kept for
//!   the oracle tests and the A4 ablation.
//!
//! Both backends pop in exactly `(time, sequence)` order. The radix heap
//! needs monotone keys, and has them: `schedule` clamps every event to
//! `at ≥ now`, and `now == last` after every pop. Its order is exact
//! because inserts append, so every bucket stays in scheduling order, and a
//! redistribution keeps that order because every lower bucket is empty
//! when it runs. Bucket 0 therefore pops same-cycle ties FIFO, which the
//! oracle tests check against the heap.

use crate::config::DesQueue;
use crate::Cycles;
use fem2_trace::{EventKind, TraceEvent, TraceHandle, NO_CLUSTER, NO_PE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The monotone radix heap backend; see the module doc.
struct Radix {
    /// Bucket `b` holds `(at, slot)` keys in scheduling order, where `b` is
    /// [`Radix::bucket`] of `at`.
    buckets: [Vec<(Cycles, usize)>; 65],
    /// Bucket 0's read cursor: the keys before it have popped. Bucket 0
    /// is cleared when read out, so it holds at most one cycle's events.
    head: usize,
    /// The time of the last pop; no pending key is earlier.
    last: Cycles,
}

impl Radix {
    /// 0 if `at == last`, else one more than the highest differing bit.
    #[inline]
    fn bucket(&self, at: Cycles) -> usize {
        (Cycles::BITS - (at ^ self.last).leading_zeros()) as usize
    }

    fn push(&mut self, at: Cycles, slot: usize) {
        debug_assert!(
            at >= self.last,
            "key {at} precedes the last pop {}",
            self.last
        );
        let b = self.bucket(at);
        self.buckets[b].push((at, slot));
    }

    fn pop(&mut self) -> Option<(Cycles, usize)> {
        if self.head == self.buckets[0].len() {
            self.buckets[0].clear();
            self.head = 0;
            let b = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            self.last = moved
                .iter()
                .map(|&(at, _)| at)
                .min()
                .expect("bucket is non-empty");
            for (at, slot) in moved.drain(..) {
                let to = self.bucket(at);
                self.buckets[to].push((at, slot));
            }
            // Keep the drained bucket's allocation for its next fill.
            self.buckets[b] = moved;
        }
        let key = self.buckets[0][self.head];
        self.head += 1;
        Some(key)
    }
}

/// The key order; see [`DesQueue`].
enum Backend {
    /// `(at, seq, slot)`; `seq` breaks ties in scheduling order.
    Heap(BinaryHeap<Reverse<(Cycles, u64, usize)>>),
    Radix(Box<Radix>),
}

/// Time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    backend: Backend,
    /// Pending payloads, indexed by the slot in their key.
    slab: Vec<Option<E>>,
    /// Slots of `slab` free for reuse.
    free: Vec<usize>,
    /// Events scheduled so far: the heap's tie-breaker.
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
    /// An empty queue at time zero on the default (radix heap) backend.
    pub(crate) fn new() -> Self {
        Self::with_backend(DesQueue::Calendar)
    }

    /// An empty queue at time zero on the chosen backend.
    pub fn with_backend(kind: DesQueue) -> Self {
        let backend = match kind {
            DesQueue::Heap => Backend::Heap(BinaryHeap::new()),
            DesQueue::Calendar => Backend::Radix(Box::new(Radix {
                buckets: std::array::from_fn(|_| Vec::new()),
                head: 0,
                last: 0,
            })),
        };
        EventQueue {
            backend,
            slab: Vec::new(),
            free: Vec::new(),
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
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Schedule `ev` at absolute time `at`. Scheduling in the past clamps
    /// to `now` (events cannot rewind the clock).
    pub fn schedule(&mut self, at: Cycles, ev: E) {
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(ev);
                slot
            }
            None => {
                self.slab.push(Some(ev));
                self.slab.len() - 1
            }
        };
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse((at, self.seq, slot))),
            Backend::Radix(r) => r.push(at, slot),
        }
        self.seq += 1;
        let queue_depth = self.len() as u32;
        let events_processed = self.events_processed;
        self.trace.emit(|| {
            TraceEvent::instant(
                at,
                NO_CLUSTER,
                NO_PE,
                EventKind::DesSchedule {
                    queue_depth,
                    events_processed,
                },
            )
        });
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let (at, slot) = match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse((at, _, slot))| (at, slot)),
            Backend::Radix(r) => r.pop(),
        }?;
        let ev = self.slab[slot]
            .take()
            .expect("a queued slot holds its event");
        self.free.push(slot);
        self.now = at;
        self.events_processed += 1;
        let queue_depth = self.len() as u32;
        let events_processed = self.events_processed;
        self.trace.emit(|| {
            TraceEvent::instant(
                at,
                NO_CLUSTER,
                NO_PE,
                EventKind::DesDispatch {
                    queue_depth,
                    events_processed,
                },
            )
        });
        Some((at, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every behavioral test runs on both backends: the radix heap must be
    /// indistinguishable from the reference heap.
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
    fn same_cycle_tie_after_a_redistribution_pops_fifo() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            q.schedule(100, "a");
            q.schedule(100, "b");
            q.schedule(101, "c");
            // Popping "a" redistributes bucket 7: "b" into bucket 0 and
            // "c" into bucket 1. "d" ties with "b" and must queue behind it.
            assert_eq!(q.pop(), Some((100, "a")));
            q.schedule(100, "d");
            q.schedule(101, "e");
            assert_eq!(q.pop(), Some((100, "b")));
            assert_eq!(q.pop(), Some((100, "d")));
            assert_eq!(q.pop(), Some((101, "c")));
            assert_eq!(q.pop(), Some((101, "e")));
        }
    }

    #[test]
    fn len_and_empty() {
        for kind in BACKENDS {
            let mut q = EventQueue::with_backend(kind);
            assert_eq!(q.len(), 0);
            q.schedule(1, ());
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn far_future_events_pop_after_near_ones() {
        let mut q = EventQueue::with_backend(DesQueue::Calendar);
        // "far" and "farther" share bucket 31 until "near" is popped.
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
        // Near and far times interleaved, so pops redistribute high
        // buckets into low ones many times over.
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
                    q.schedule(at + 10, depth - 1);
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
                        q.schedule(q.now() + 3, ev + 1000);
                    }
                }
                order
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn large_random_volumes_pop_in_heap_order() {
        // 20 000 random times over 20 bits: every bucket up to 20 fills and
        // drains; the pop order must match the heap oracle.
        let mut radix = EventQueue::with_backend(DesQueue::Calendar);
        let mut heap = EventQueue::with_backend(DesQueue::Heap);
        let mut x = 0x2545f4914f6cdd1du64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = x % 1_000_000;
            radix.schedule(at, i);
            heap.schedule(at, i);
        }
        loop {
            let (a, b) = (radix.pop(), heap.pop());
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
        // past the ~8 900 pending events `kernel_storm` peaks at.
        for depth in [64u64, 4096, 8192, 1 << 15] {
            let mut radix = EventQueue::with_backend(DesQueue::Calendar);
            let mut heap = EventQueue::with_backend(DesQueue::Heap);
            for i in 0..depth {
                radix.schedule(i, i);
                heap.schedule(i, i);
            }
            let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
            for round in 0..10_000 {
                let popped = radix.pop();
                assert_eq!(popped, heap.pop(), "depth {depth}, round {round}");
                let (at, ev) = popped.expect("queue is kept non-empty");
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                let next = at + 1 + (lcg >> 58);
                radix.schedule(next, ev);
                heap.schedule(next, ev);
                assert_eq!(radix.now(), heap.now(), "depth {depth}, round {round}");
                assert_eq!(radix.len(), heap.len(), "depth {depth}, round {round}");
            }
        }
    }

    /// One scripted interleaving of schedules and pops, mirrored on both
    /// backends. `ops` drives the script; the pop streams must agree.
    fn oracle_run(ops: &[(u8, u64)]) {
        let mut radix = EventQueue::with_backend(DesQueue::Calendar);
        let mut heap = EventQueue::with_backend(DesQueue::Heap);
        let mut payload = 0u64;
        for &(op, t) in ops {
            if op % 3 == 0 {
                // Pop on both; streams must match (including clocks).
                assert_eq!(radix.pop(), heap.pop());
                assert_eq!(radix.now(), heap.now());
            } else {
                // Absolute schedule; past times exercise clamp-to-now.
                radix.schedule(t, payload);
                heap.schedule(t, payload);
                payload += 1;
                assert_eq!(radix.len(), heap.len());
            }
        }
        loop {
            let (a, b) = (radix.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        /// Random schedule/pop interleavings (with heavy ties, past
        /// schedules, and far-future outliers) pop identically on the
        /// `DesQueue::Calendar` (radix heap) and heap backends: time
        /// order, same-cycle FIFO, clamp-to-now, clock and depths all
        /// agree. Keys at `2^k - 1` and `2^k` land in every one of the 65
        /// buckets, and keys next to `Cycles::MAX` in the top one.
        #[test]
        fn calendar_matches_heap_oracle(
            ops in proptest::collection::vec(
                (0u8..6, prop_oneof![
                    0u64..50,              // dense ties near the origin
                    0u64..5_000,           // spread over the low buckets
                    1_000_000u64..1_100_000, // far future
                    (0u32..64).prop_map(|k| (1u64 << k) - 1),
                    (0u32..64).prop_map(|k| 1u64 << k),
                    (Cycles::MAX - 1_000)..=Cycles::MAX,
                ]),
                0..400,
            )
        ) {
            oracle_run(&ops);
        }
    }
}
