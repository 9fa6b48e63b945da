//! Windows on arrays: the NA-VM's only mechanism for non-local data access.
//!
//! A [`Window`] pairs a kernel-level [`WindowDescriptor`] with the VM's
//! array registry. Reading or writing through a window always works (the
//! host data is shared), but the charge depends on locality: segments
//! owned by the accessor's cluster cost shared-memory words, segments owned
//! by other clusters cost a descriptor-plus-data message per owning
//! cluster. This is the paper's data-control rule made
//! operational: "All data owned by a single task; data accessible
//! non-locally only via windows."

use crate::runtime::{ArrayId, NaVm, SimState};
use crate::task::{TaskHandle, TaskSet};
use fem2_kernel::window_desc::WindowDescriptor;
use fem2_machine::{CostClass, Cycles, Words};
use fem2_trace::WindowStage::{self, Gather, Request, Scatter, Transit};
use fem2_trace::{EventKind, MsgKind, TraceEvent, NO_PE};

/// Words of the descriptor that heads every window message.
const WIRE_WORDS: Words = WindowDescriptor::WIRE_WORDS;

/// A window over a rectangular region of a distributed array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    pub(crate) array: ArrayId,
    pub(crate) desc: WindowDescriptor,
}

impl Window {
    /// Elements visible through the window.
    pub(crate) fn len(&self) -> u64 {
        self.desc.len()
    }
}

/// The clusters holding rows of the window `desc` over an array of `rows`
/// rows, ascending, each with the words it holds. Block mapping gives each
/// cluster one contiguous band of rows, the shares of its tasks; a cluster
/// whose band misses the window is skipped, and a zero-column window still
/// yields its owners, with 0 words: each pays the descriptor round trip.
fn cluster_words(
    tasks: TaskSet,
    rows: usize,
    desc: &WindowDescriptor,
) -> impl Iterator<Item = (u32, Words)> {
    let (row0, row1) = (desc.row0 as usize, desc.row1 as usize);
    let cols = Words::from(desc.col1 - desc.col0);
    tasks
        .by_cluster()
        .map(move |(c, run)| {
            let first = tasks.share(rows, TaskHandle(run.start)).start;
            let end = tasks.share(rows, TaskHandle(run.end - 1)).end;
            (c, first.max(row0)..end.min(row1))
        })
        .take_while(move |(_, band)| band.start < row1)
        .filter(|(_, band)| !band.is_empty())
        .map(move |(c, band)| (c, band.len() as Words * cols))
}

impl SimState {
    /// A memory stage of the window protocol: `words` shared-memory words
    /// on cluster `c`'s kernel PE from `at`, traced as one `stage` span on
    /// `c` toward `peer`. The charge records the words; counting them again
    /// here would double-book the pass. Returns when the pass is done.
    pub(crate) fn memory_stage(
        &mut self,
        at: Cycles,
        c: u32,
        peer: u32,
        stage: WindowStage,
        words: Words,
    ) -> Cycles {
        let pe = self.machine.kernel_pe(c);
        let done = self
            .machine
            .charge(at, pe, CostClass::MemWord, words)
            .unwrap_or(at);
        self.window_span(at, done, c, peer, stage, words);
        done
    }

    /// A network stage of the window protocol: a
    /// [reliable transfer](SimState::reliable_transmit) of `words` from
    /// `from` to `to`, labelled `kind`, traced as one `stage` span on
    /// `from`. Returns the arrival time.
    pub(crate) fn network_stage(
        &mut self,
        at: Cycles,
        from: u32,
        to: u32,
        stage: WindowStage,
        words: Words,
        kind: MsgKind,
    ) -> Cycles {
        let arrive = self.reliable_transmit(at, from, to, words, kind);
        self.window_span(at, arrive, from, to, stage, words);
        arrive
    }

    /// Trace one window stage on cluster `c` over `[at, end)`.
    pub(crate) fn window_span(
        &self,
        at: Cycles,
        end: Cycles,
        c: u32,
        peer: u32,
        stage: WindowStage,
        words: Words,
    ) {
        self.machine.trace.emit(|| {
            TraceEvent::span(
                at,
                end - at,
                c,
                NO_PE,
                EventKind::Window {
                    stage,
                    peer_cluster: peer,
                    words,
                },
            )
        });
    }
}

impl NaVm {
    /// A window over rows `[row0, row1)` and columns `[col0, col1)` of
    /// array `id`. The descriptor's owner is the task owning `row0`.
    pub fn window(&self, id: ArrayId, row0: u32, row1: u32, col0: u32, col1: u32) -> Window {
        let rows = self.rows(id);
        let cols = self.cols(id);
        assert!(
            (row1 as usize) <= rows && (col1 as usize) <= cols,
            "window out of bounds"
        );
        let owner = if (row0 as usize) < rows {
            self.tasks.owner_of(rows, row0 as usize)
        } else {
            TaskHandle(0)
        };
        Window {
            array: id,
            desc: WindowDescriptor::block(
                id.0,
                row0,
                row1,
                col0,
                col1,
                fem2_kernel::TaskId(owner.0 as u64),
                self.tasks.cluster_of(owner),
            ),
        }
    }

    /// A window over one full row.
    pub fn row_window(&self, id: ArrayId, r: u32) -> Window {
        self.window(id, r, r + 1, 0, self.cols(id) as u32)
    }

    /// A window over one full column.
    pub fn col_window(&self, id: ArrayId, c: u32) -> Window {
        self.window(id, 0, self.rows(id) as u32, c, c + 1)
    }

    /// Charge the communication of moving the window's data between its
    /// owning clusters and `accessor`'s cluster. `inbound` selects read
    /// (owner → accessor) vs write (accessor → owner) direction.
    fn charge_window_traffic(&mut self, w: &Window, accessor: TaskHandle, inbound: bool) {
        self.settle();
        let rows = self.rows(w.array);
        let tasks = self.tasks;
        let s = &mut self.sim;
        if s.stopped().is_some() {
            return;
        }
        let ac = tasks.cluster_of(accessor);
        let start = s.now;
        s.apply_faults_through(start);
        let mut barrier = start;
        for (c, words) in cluster_words(tasks, rows, &w.desc) {
            let done = if c == ac {
                // Local segment: a shared-memory pass.
                s.memory_stage(start, ac, c, Gather, words)
            } else if inbound {
                // Remote read: request descriptor upstream, the owner
                // gathers from its shared memory, ships descriptor + data,
                // and the accessor scatters into its memory.
                let req = s.network_stage(start, ac, c, Request, WIRE_WORDS, MsgKind::RemoteCall);
                let gathered = s.memory_stage(req, c, ac, Gather, words);
                let payload = words + WIRE_WORDS;
                let arrive =
                    s.network_stage(gathered, c, ac, Transit, payload, MsgKind::RemoteReturn);
                s.memory_stage(arrive, ac, c, Scatter, words)
            } else {
                // Remote write: gather locally, ship descriptor + data, the
                // owner scatters into its shared memory.
                let gathered = s.memory_stage(start, ac, c, Gather, words);
                let payload = words + WIRE_WORDS;
                let arrive =
                    s.network_stage(gathered, ac, c, Transit, payload, MsgKind::RemoteCall);
                s.memory_stage(arrive, c, ac, Scatter, words)
            };
            barrier = barrier.max(done);
        }
        s.now = barrier;
    }

    /// Read the window's contents (row-major) as task `accessor`. The
    /// values are exact; the charge is locality-aware traffic.
    pub fn read_window(&mut self, accessor: TaskHandle, w: &Window) -> Vec<f64> {
        self.charge_window_traffic(w, accessor, true);
        let a = &self.arrays[w.array.0 as usize];
        let mut out = Vec::with_capacity(w.len() as usize);
        for r in w.desc.row0..w.desc.row1 {
            for c in w.desc.col0..w.desc.col1 {
                out.push(a.data[r as usize * a.cols + c as usize]);
            }
        }
        out
    }

    /// Write `values` (row-major, exactly `w.len()` of them) through the
    /// window as task `accessor`. A retried exchange re-charges its traffic
    /// but the values are applied once, here.
    pub fn write_window(&mut self, accessor: TaskHandle, w: &Window, values: &[f64]) {
        assert_eq!(values.len() as u64, w.len(), "value count mismatch");
        self.charge_window_traffic(w, accessor, false);
        let a = &mut self.arrays[w.array.0 as usize];
        let mut it = values.iter();
        for r in w.desc.row0..w.desc.row1 {
            for c in w.desc.col0..w.desc.col1 {
                a.data[r as usize * a.cols + c as usize] =
                    *it.next().expect("asserted values.len() == w.len()");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_machine::MachineConfig;

    fn sim(ntasks: u32) -> NaVm {
        NaVm::simulated(MachineConfig::fem2_default(), ntasks)
    }

    #[test]
    fn window_construction_and_owner() {
        let mut vm = sim(8); // 8 tasks, 4 clusters
        let a = vm.array(16, 4);
        let w = vm.window(a, 0, 4, 0, 4);
        assert_eq!(w.len(), 16);
        assert_eq!(w.desc.owner_cluster, 0);
        let w_tail = vm.window(a, 14, 16, 0, 4);
        assert_eq!(w_tail.desc.owner_cluster, 3);
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn window_bounds_checked() {
        let mut vm = sim(4);
        let a = vm.array(8, 2);
        let _ = vm.window(a, 0, 9, 0, 2);
    }

    #[test]
    fn read_window_returns_exact_values() {
        let mut vm = sim(4);
        let a = vm.array(6, 3);
        vm.fill(a, |r, c| (r * 10 + c) as f64);
        let w = vm.window(a, 1, 3, 1, 3);
        let vals = vm.read_window(TaskHandle(0), &w);
        assert_eq!(vals, vec![11.0, 12.0, 21.0, 22.0]);
    }

    #[test]
    fn write_window_updates_array() {
        let mut vm = sim(4);
        let a = vm.array(4, 2);
        let w = vm.window(a, 2, 4, 0, 2);
        vm.write_window(TaskHandle(0), &w, &[1.0, 2.0, 3.0, 4.0]);
        let data = vm.snapshot(a);
        assert_eq!(data[2 * 2], 1.0);
        assert_eq!(data[3 * 2 + 1], 4.0);
        assert_eq!(data[0], 0.0, "outside the window untouched");
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn write_window_length_checked() {
        let mut vm = sim(4);
        let a = vm.array(4, 2);
        let w = vm.window(a, 0, 1, 0, 2);
        vm.write_window(TaskHandle(0), &w, &[1.0]);
    }

    #[test]
    fn remote_read_sends_messages_local_read_does_not() {
        let mut vm = sim(8); // tasks 0..8 over clusters 0..4; rows 0..16
        let a = vm.array(16, 4);
        // Rows 14..16 are owned by task 7 -> cluster 3.
        let w = vm.window(a, 14, 16, 0, 4);
        let before = vm.machine().network.messages;
        let _ = vm.read_window(TaskHandle(0), &w); // cluster 0 reads cluster 3
        let mid = vm.machine().network.messages;
        assert_eq!(mid - before, 2, "request + data for one remote segment");
        let _ = vm.read_window(TaskHandle(7), &w); // cluster 3 reads locally
        let after = vm.machine().network.messages;
        assert_eq!(after, mid, "local read is message-free");
    }

    #[test]
    fn spanning_window_charges_one_message_per_remote_cluster() {
        let mut vm = sim(8);
        let a = vm.array(16, 1);
        // The whole vector: segments on all 4 clusters.
        let w = vm.window(a, 0, 16, 0, 1);
        let before = vm.machine().network.messages;
        let _ = vm.read_window(TaskHandle(0), &w);
        let after = vm.machine().network.messages;
        assert_eq!(
            after - before,
            6,
            "request + data for each of 3 remote clusters"
        );
    }

    #[test]
    fn row_and_col_windows() {
        let mut vm = sim(4);
        let a = vm.array(5, 7);
        vm.fill(a, |r, c| (r * 100 + c) as f64);
        let rw = vm.row_window(a, 2);
        assert_eq!(
            vm.read_window(TaskHandle(0), &rw),
            (0..7).map(|c| (200 + c) as f64).collect::<Vec<_>>()
        );
        let cw = vm.col_window(a, 3);
        assert_eq!(
            vm.read_window(TaskHandle(0), &cw),
            (0..5).map(|r| (r * 100 + 3) as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn remote_read_costs_more_than_local() {
        let mut vm = sim(8);
        let a = vm.array(16, 64);
        vm.fill(a, |_, _| 1.0);
        let local = vm.window(a, 0, 2, 0, 64); // cluster 0 rows
        let remote = vm.window(a, 14, 16, 0, 64); // cluster 3 rows
        let t0 = vm.elapsed();
        let _ = vm.read_window(TaskHandle(0), &local);
        let t_local = vm.elapsed() - t0;
        let t1 = vm.elapsed();
        let _ = vm.read_window(TaskHandle(0), &remote);
        let t_remote = vm.elapsed() - t1;
        assert!(
            t_remote > t_local,
            "remote {t_remote} should cost more than local {t_local}"
        );
    }

    #[test]
    fn window_exchange_survives_mid_flight_link_fault() {
        use fem2_machine::fault::FaultPlan;
        let mut healthy = sim(8);
        let a = healthy.array(16, 4);
        healthy.fill(a, |r, c| (r * 10 + c) as f64);
        let w = healthy.window(a, 14, 16, 0, 4); // cluster 3's rows
        let want = healthy.read_window(TaskHandle(0), &w);

        let mut faulted = sim(8);
        let b = faulted.array(16, 4);
        faulted.fill(b, |r, c| (r * 10 + c) as f64);
        let wf = faulted.window(b, 14, 16, 0, 4);
        // Kill the direct 0->3 link (crossbar link 3) while the window
        // request is on the wire: the packet is lost, the retransmission
        // fires, and the retry detours via an intermediate cluster.
        let at = faulted.elapsed() + 1;
        faulted.inject_faults(&FaultPlan::none().kill_link(at, 3));
        let got = faulted.read_window(TaskHandle(0), &wf);
        assert_eq!(got, want, "rerouted exchange returns identical values");
        assert!(faulted.retransmits() >= 1, "the lost packet was retried");
        assert!(faulted.machine().network.rerouted_packets > 0);
    }

    /// The per-row grouping [`cluster_words`] replaced: each row of the
    /// window mapped to its owning task, then to that task's cluster.
    fn cluster_words_per_row(
        tasks: TaskSet,
        rows: usize,
        desc: &WindowDescriptor,
    ) -> Vec<(u32, u64)> {
        let cols = u64::from(desc.col1 - desc.col0);
        let mut words = std::collections::BTreeMap::new();
        for r in desc.row0..desc.row1 {
            let c = tasks.cluster_of(tasks.owner_of(rows, r as usize));
            *words.entry(c).or_insert(0) += cols;
        }
        words.into_iter().collect()
    }

    /// Each cluster's words come from its one row band, exactly as from
    /// per-row ownership: more clusters than tasks, more tasks than rows,
    /// zero-row windows (no cluster) and zero-column windows (every
    /// owning cluster, with 0 words).
    #[test]
    fn cluster_bands_match_per_row_ownership() {
        for n in 1..=40 {
            for clusters in 1..=16 {
                let tasks = TaskSet::new(n, clusters);
                for rows in 1..=100u32 {
                    let spans = [
                        (0, rows, 0),
                        (0, rows, 3),
                        (rows / 2, rows / 2, 3),
                        (rows / 3, 2 * rows / 3 + 1, 3),
                        (rows - 1, rows, 0),
                    ];
                    for (row0, row1, cols) in spans {
                        let desc = WindowDescriptor::block(
                            0,
                            row0,
                            row1,
                            1,
                            1 + cols,
                            fem2_kernel::TaskId(0),
                            0,
                        );
                        let got: Vec<_> = cluster_words(tasks, rows as usize, &desc).collect();
                        assert_eq!(
                            got,
                            cluster_words_per_row(tasks, rows as usize, &desc),
                            "{n} tasks on {clusters} clusters, rows {row0}..{row1} of {rows}"
                        );
                        assert_eq!(got.is_empty(), row0 == row1);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_column_window_pays_the_descriptor_round_trip() {
        let mut vm = sim(8);
        let a = vm.array(16, 4);
        let before = vm.machine().network.messages;
        let _ = vm.read_window(TaskHandle(0), &vm.window(a, 14, 16, 2, 2));
        let mid = vm.machine().network.messages;
        assert_eq!(mid - before, 2, "request + descriptor from cluster 3");
        let _ = vm.read_window(TaskHandle(0), &vm.window(a, 9, 9, 0, 4));
        let after = vm.machine().network.messages;
        assert_eq!(after, mid, "a zero-row window touches no cluster");
    }

    #[test]
    fn window_traffic_advances_simulated_time() {
        let mut vm = sim(8);
        let a = vm.array(16, 16);
        let t0 = vm.elapsed();
        let w = vm.window(a, 8, 16, 0, 16);
        let _ = vm.read_window(TaskHandle(0), &w);
        assert!(vm.elapsed() > t0);
    }
}
