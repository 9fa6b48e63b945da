//! Machine-layer time in isolation: the exact `PeBusy` / `LinkTransfer` /
//! DES stream a traced run recorded is re-issued against a fresh
//! `Machine` (or `EventQueue`) of the same configuration and timed there.

use fem2_machine::{CostClass, EventQueue, Machine, MachineConfig, PeId};
use fem2_trace::{CostKind, EventKind, RingRecorder, TaskStage};
use std::hint::black_box;
use std::time::Instant;

/// Ring capacity of every traced run; large enough that nothing drops.
pub const RING_CAPACITY: usize = 1 << 22;

enum PeOp {
    /// The dispatcher asked the cluster for its earliest-free worker.
    Pick { cluster: u32 },
    Charge {
        at: u64,
        pe: PeId,
        class: CostClass,
        count: u64,
    },
}

enum QueueOp {
    Schedule { at: u64 },
    Pop,
}

/// The machine-level calls of one traced run, in recorded order.
#[derive(Default)]
pub struct Stream {
    pe_ops: Vec<PeOp>,
    transfers: Vec<(u64, u32, u32, u64)>,
    queue_ops: Vec<QueueOp>,
}

fn cost_class(kind: CostKind) -> CostClass {
    match kind {
        CostKind::Flop => CostClass::Flop,
        CostKind::IntOp => CostClass::IntOp,
        CostKind::MemWord => CostClass::MemWord,
        CostKind::MsgSend => CostClass::MsgSend,
        CostKind::MsgDispatch => CostClass::MsgDispatch,
        CostKind::TaskCreate => CostClass::TaskCreate,
        CostKind::ContextSwitch => CostClass::ContextSwitch,
    }
}

impl Stream {
    pub fn harvest(rec: &RingRecorder) -> Stream {
        let mut s = Stream::default();
        for ev in rec.events() {
            match ev.kind {
                EventKind::Task {
                    stage: TaskStage::Dispatched,
                    ..
                } => {
                    s.pe_ops.push(PeOp::Pick {
                        cluster: ev.cluster,
                    });
                }
                EventKind::PeBusy { cost, count } => s.pe_ops.push(PeOp::Charge {
                    at: ev.at,
                    pe: PeId::new(ev.cluster, ev.pe),
                    class: cost_class(cost),
                    count,
                }),
                EventKind::LinkTransfer {
                    to_cluster, words, ..
                } => {
                    s.transfers.push((ev.at, ev.cluster, to_cluster, words));
                }
                EventKind::DesSchedule { .. } => s.queue_ops.push(QueueOp::Schedule { at: ev.at }),
                EventKind::DesDispatch { .. } => s.queue_ops.push(QueueOp::Pop),
                _ => {}
            }
        }
        s
    }

    /// Machine events (charges + transfers) the stream carries.
    pub fn machine_events(&self) -> u64 {
        let charges = self
            .pe_ops
            .iter()
            .filter(|op| matches!(op, PeOp::Charge { .. }))
            .count();
        (charges + self.transfers.len()) as u64
    }
}

/// Host time of each machine-layer call class over one stream.
#[derive(Default, Clone, Copy)]
pub struct ReplayTimes {
    pub transmit_s: f64,
    pub transmits: u64,
    /// `pick_worker` + `charge`, as the dispatcher issues them.
    pub charge_s: f64,
    pub charges: u64,
    /// `pick_worker` alone, on the machine the charges left behind.
    pub pick_s: f64,
    pub picks: u64,
    pub queue_s: f64,
    pub queue_ops: u64,
}

impl ReplayTimes {
    pub fn total_s(&self) -> f64 {
        self.transmit_s + self.charge_s + self.queue_s
    }

    pub fn add(&mut self, o: &ReplayTimes) {
        self.transmit_s += o.transmit_s;
        self.transmits += o.transmits;
        self.charge_s += o.charge_s;
        self.charges += o.charges;
        self.pick_s += o.pick_s;
        self.picks += o.picks;
        self.queue_s += o.queue_s;
        self.queue_ops += o.queue_ops;
    }

    fn per_call_ns(seconds: f64, calls: u64) -> f64 {
        if calls == 0 {
            0.0
        } else {
            seconds * 1e9 / calls as f64
        }
    }

    pub fn transmit_ns(&self) -> f64 {
        Self::per_call_ns(self.transmit_s, self.transmits)
    }

    pub fn charge_ns(&self) -> f64 {
        Self::per_call_ns(self.charge_s, self.charges)
    }

    pub fn pick_ns(&self) -> f64 {
        Self::per_call_ns(self.pick_s, self.picks)
    }

    pub fn queue_ns(&self) -> f64 {
        Self::per_call_ns(self.queue_s, self.queue_ops)
    }
}

/// Re-issue `stream` against fresh state built from `cfg`. Returns the
/// times and the replayed machine's event count, which must equal the
/// stream's.
pub fn replay(cfg: &MachineConfig, stream: &Stream) -> (ReplayTimes, u64) {
    let mut times = ReplayTimes::default();

    let mut net = Machine::new(cfg.clone());
    let t = Instant::now();
    for &(at, from, to, words) in &stream.transfers {
        black_box(net.transmit(at, from, to, words));
    }
    times.transmit_s = t.elapsed().as_secs_f64();
    times.transmits = stream.transfers.len() as u64;

    let mut pes = Machine::new(cfg.clone());
    let t = Instant::now();
    for op in &stream.pe_ops {
        match *op {
            PeOp::Pick { cluster } => {
                black_box(pes.pick_worker(cluster));
                times.picks += 1;
            }
            PeOp::Charge {
                at,
                pe,
                class,
                count,
            } => {
                black_box(pes.charge(at, pe, class, count).ok());
                times.charges += 1;
            }
        }
    }
    times.charge_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for op in &stream.pe_ops {
        if let PeOp::Pick { cluster } = *op {
            black_box(pes.pick_worker(cluster));
        }
    }
    times.pick_s = t.elapsed().as_secs_f64();

    let mut queue: EventQueue<()> = EventQueue::with_backend(cfg.des_queue);
    let t = Instant::now();
    for op in &stream.queue_ops {
        match *op {
            QueueOp::Schedule { at } => queue.schedule(at, ()),
            QueueOp::Pop => {
                black_box(queue.pop());
            }
        }
    }
    times.queue_s = t.elapsed().as_secs_f64();
    times.queue_ops = stream.queue_ops.len() as u64;

    (times, net.events + pes.events)
}
