//! Windows on arrays: the NA-VM's only mechanism for non-local data access.
//!
//! A [`Window`] pairs a kernel-level [`WindowDescriptor`] with the VM's
//! array registry. Reading or writing through a window always works (the
//! host data is shared), but on the simulated plane the charge depends on
//! locality: segments owned by the accessor's cluster cost shared-memory
//! words, segments owned by other clusters cost a descriptor-plus-data
//! message per owning cluster. This is the paper's data-control rule made
//! operational: "All data owned by a single task; data accessible
//! non-locally only via windows."

use crate::runtime::{ArrayId, NaVm, Plane};
use crate::task::TaskHandle;
use fem2_kernel::window_desc::WindowDescriptor;
use fem2_machine::Words;
use fem2_trace::{EventKind, MsgKind, TraceEvent, WindowStage, NO_PE};

/// A window over a rectangular region of a distributed array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    pub(crate) array: ArrayId,
    pub(crate) desc: WindowDescriptor,
}

impl Window {
    /// The kernel-level descriptor (what travels as a parameter).
    pub fn descriptor(&self) -> &WindowDescriptor {
        &self.desc
    }

    /// Elements visible through the window.
    pub fn len(&self) -> u64 {
        self.desc.len()
    }

    /// True if the window exposes nothing.
    pub fn is_empty(&self) -> bool {
        self.desc.is_empty()
    }

    /// Partition row-wise into sub-windows ("windows may be … further
    /// partitioned").
    pub fn partition_rows(&self, parts: u32) -> Vec<Window> {
        self.desc
            .partition_rows(parts)
            .into_iter()
            .map(|d| Window {
                array: self.array,
                desc: d,
            })
            .collect()
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
        let rows_total = self.rows(w.array);
        let cols = (w.desc.col1 - w.desc.col0) as u64;
        let Plane::Sim(s) = &mut self.plane else {
            return;
        };
        let ac = self.tasks.cluster_of(accessor);
        let t0 = s.now;
        s.apply_faults_through(t0);
        // Group the window's rows by owning cluster, into the reusable
        // per-cluster scratch (no allocation per exchange). Scanning the
        // scratch in index order visits clusters ascending, exactly like
        // the BTreeMap this replaced.
        for r in w.desc.row0..w.desc.row1 {
            let owner = self.tasks.owner_of(rows_total, r as usize);
            let c = self.tasks.cluster_of(owner);
            let slot = &mut s.window_words_scratch[c as usize];
            *slot = Some(slot.unwrap_or(0) + cols);
        }
        let start = s.now;
        let mut barrier = start;
        for c in 0..s.window_words_scratch.len() as u32 {
            // `take` reads the entry and resets it to `None`, so the
            // scratch is clean for the next exchange.
            let Some(words) = s.window_words_scratch[c as usize].take() else {
                continue;
            };
            if c == ac {
                // Local segment: a shared-memory pass (the charge records
                // the mem_words; counting them again here would double-book).
                let pe = s.machine.kernel_pe(ac);
                let done = s
                    .machine
                    .charge(start, pe, fem2_machine::CostClass::MemWord, words)
                    .unwrap_or(start);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        start,
                        done - start,
                        ac,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Gather,
                            peer_cluster: c,
                            words,
                        },
                    )
                });
                barrier = barrier.max(done);
            } else if inbound {
                // Remote read: request descriptor upstream, the owner
                // gathers from its shared memory, ships descriptor + data,
                // and the accessor scatters into its memory.
                let req = s.reliable_transmit(
                    start,
                    ac,
                    c,
                    WindowDescriptor::WIRE_WORDS,
                    MsgKind::RemoteCall,
                );
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        start,
                        req - start,
                        ac,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Request,
                            peer_cluster: c,
                            words: WindowDescriptor::WIRE_WORDS,
                        },
                    )
                });
                let owner_pe = s.machine.kernel_pe(c);
                let gathered = s
                    .machine
                    .charge(req, owner_pe, fem2_machine::CostClass::MemWord, words)
                    .unwrap_or(req);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        req,
                        gathered - req,
                        c,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Gather,
                            peer_cluster: ac,
                            words,
                        },
                    )
                });
                let payload = words + WindowDescriptor::WIRE_WORDS;
                let arrive =
                    s.reliable_transmit(gathered, c, ac, payload as Words, MsgKind::RemoteReturn);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        gathered,
                        arrive - gathered,
                        c,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Transit,
                            peer_cluster: ac,
                            words: payload,
                        },
                    )
                });
                let my_pe = s.machine.kernel_pe(ac);
                let done = s
                    .machine
                    .charge(arrive, my_pe, fem2_machine::CostClass::MemWord, words)
                    .unwrap_or(arrive);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        arrive,
                        done - arrive,
                        ac,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Scatter,
                            peer_cluster: c,
                            words,
                        },
                    )
                });
                barrier = barrier.max(done);
            } else {
                // Remote write: gather locally, ship descriptor + data, the
                // owner scatters into its shared memory.
                let my_pe = s.machine.kernel_pe(ac);
                let gathered = s
                    .machine
                    .charge(start, my_pe, fem2_machine::CostClass::MemWord, words)
                    .unwrap_or(start);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        start,
                        gathered - start,
                        ac,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Gather,
                            peer_cluster: c,
                            words,
                        },
                    )
                });
                let payload = words + WindowDescriptor::WIRE_WORDS;
                let arrive =
                    s.reliable_transmit(gathered, ac, c, payload as Words, MsgKind::RemoteCall);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        gathered,
                        arrive - gathered,
                        ac,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Transit,
                            peer_cluster: c,
                            words: payload,
                        },
                    )
                });
                let owner_pe = s.machine.kernel_pe(c);
                let done = s
                    .machine
                    .charge(arrive, owner_pe, fem2_machine::CostClass::MemWord, words)
                    .unwrap_or(arrive);
                s.machine.trace.emit(|| {
                    TraceEvent::span(
                        arrive,
                        done - arrive,
                        c,
                        NO_PE,
                        EventKind::Window {
                            stage: WindowStage::Scatter,
                            peer_cluster: ac,
                            words,
                        },
                    )
                });
                barrier = barrier.max(done);
            }
        }
        s.now = barrier;
    }

    /// Read the window's contents (row-major) as task `accessor`. Values
    /// are exact on both planes; the simulated plane charges locality-aware
    /// traffic.
    pub fn read_window(&mut self, accessor: TaskHandle, w: &Window) -> Vec<f64> {
        let mut out = Vec::with_capacity(w.len() as usize);
        self.read_window_into(accessor, w, &mut out);
        out
    }

    /// [`NaVm::read_window`] into a caller-provided buffer: the buffer is
    /// cleared and refilled, so a loop that reads windows repeatedly reuses
    /// one allocation instead of creating a fresh `Vec` per read. Charges
    /// and values are identical to `read_window`.
    pub fn read_window_into(&mut self, accessor: TaskHandle, w: &Window, out: &mut Vec<f64>) {
        self.charge_window_traffic(w, accessor, true);
        let a = &self.arrays[w.array.0 as usize];
        out.clear();
        out.reserve(w.len() as usize);
        for r in w.desc.row0..w.desc.row1 {
            for c in w.desc.col0..w.desc.col1 {
                out.push(a.data[r as usize * a.cols + c as usize]);
            }
        }
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
        assert_eq!(w.descriptor().owner_cluster, 0);
        let w_tail = vm.window(a, 14, 16, 0, 4);
        assert_eq!(w_tail.descriptor().owner_cluster, 3);
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
    fn read_window_into_reuses_buffer_and_matches_read() {
        let mut vm = sim(4);
        let a = vm.array(6, 3);
        vm.fill(a, |r, c| (r * 10 + c) as f64);
        let w = vm.window(a, 1, 3, 1, 3);
        let want = vm.read_window(TaskHandle(0), &w);
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        for _ in 0..3 {
            vm.read_window_into(TaskHandle(0), &w, &mut buf);
            assert_eq!(buf, want);
            assert_eq!(buf.capacity(), cap, "no reallocation across reads");
        }
    }

    #[test]
    fn write_window_updates_array() {
        let mut vm = sim(4);
        let a = vm.array(4, 2);
        let w = vm.window(a, 2, 4, 0, 2);
        vm.write_window(TaskHandle(0), &w, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(vm.get(a, 2, 0), 1.0);
        assert_eq!(vm.get(a, 3, 1), 4.0);
        assert_eq!(vm.get(a, 0, 0), 0.0, "outside the window untouched");
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
        let before = vm.machine().unwrap().network.messages;
        let _ = vm.read_window(TaskHandle(0), &w); // cluster 0 reads cluster 3
        let mid = vm.machine().unwrap().network.messages;
        assert_eq!(mid - before, 2, "request + data for one remote segment");
        let _ = vm.read_window(TaskHandle(7), &w); // cluster 3 reads locally
        let after = vm.machine().unwrap().network.messages;
        assert_eq!(after, mid, "local read is message-free");
    }

    #[test]
    fn spanning_window_charges_one_message_per_remote_cluster() {
        let mut vm = sim(8);
        let a = vm.array(16, 1);
        // The whole vector: segments on all 4 clusters.
        let w = vm.window(a, 0, 16, 0, 1);
        let before = vm.machine().unwrap().network.messages;
        let _ = vm.read_window(TaskHandle(0), &w);
        let after = vm.machine().unwrap().network.messages;
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
    fn partitioned_windows_tile_the_parent() {
        let mut vm = sim(4);
        let a = vm.array(12, 2);
        vm.fill(a, |r, c| (r * 2 + c) as f64);
        let w = vm.window(a, 0, 12, 0, 2);
        let parts = w.partition_rows(3);
        assert_eq!(parts.len(), 3);
        let mut gathered = Vec::new();
        for p in &parts {
            gathered.extend(vm.read_window(TaskHandle(0), p));
        }
        assert_eq!(gathered, vm.read_window(TaskHandle(0), &w));
    }

    #[test]
    fn native_plane_windows_work_without_charges() {
        let mut vm = NaVm::native(4);
        let a = vm.array(8, 2);
        vm.fill(a, |r, _| r as f64);
        let w = vm.window(a, 0, 8, 0, 2);
        let vals = vm.read_window(TaskHandle(3), &w);
        assert_eq!(vals.len(), 16);
        assert_eq!(vm.elapsed(), 0);
    }

    #[test]
    fn remote_read_costs_more_than_local() {
        let mut vm = sim(8);
        vm.set_spawn_overhead(false);
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
        faulted.inject_faults(&FaultPlan::none().kill_link(faulted.elapsed() + 1, 3));
        let got = faulted.read_window(TaskHandle(0), &wf);
        assert_eq!(got, want, "rerouted exchange returns identical values");
        assert!(faulted.retransmits() >= 1, "the lost packet was retried");
        assert!(faulted.machine().unwrap().network.rerouted_packets > 0);
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
