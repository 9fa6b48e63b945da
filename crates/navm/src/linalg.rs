//! Linear-algebra operations of the NA-VM.
//!
//! Inner products, vector updates, and the 5-point-stencil operator the FEM
//! scenarios lean on. Every operation computes real values *and* charges
//! the simulated machine.
//!
//! The host arithmetic of each operation is **one slice kernel** (the free
//! functions below), and the charges never touch a value, so the answers
//! depend neither on the machine nor on the task count. The integration
//! tests check the plate CG built from these operations against a direct
//! solve. Two contracts fix the bits:
//!
//! * **Reductions.** One partial per [`REDUCE_GRAIN`] chunk, each summed
//!   left to right from `0.0`; partials are folded in chunk order from
//!   `0.0`. The combination tree depends only on `n`. How many chunks a
//!   kernel advances together is an implementation detail no result depends
//!   on.
//! * **Stencil.** Every point is `4·c − l − r − u − d`, subtracted in that
//!   order, with the terms of out-of-grid neighbours skipped.
//!
//! `inner`, `axpy`, `xpby` and `stencil5` compute their values at once and
//! queue their charges as one [`Charge`] each. [`SimState::settle`] applies
//! the queue before anything reads simulated state, in op order, so no
//! charge moves: values never read a charge and charges never read a
//! value. A CG loop that polls [`NaVm::budget_exceeded`] once per
//! iteration settles one iteration at a time, and an iteration whose queue
//! and machine state repeat the last recorded one is applied whole
//! ([`Machine::replay`](fem2_machine::Machine::replay)).

use crate::runtime::{ArrayId, NaVm, SimState};
use crate::task::{TaskHandle, TaskSet};
use fem2_machine::{Cycles, Words, WorkProfile};
use fem2_trace::{MsgKind, WindowStage};

/// Chunk size for deterministic reductions, elements.
pub(crate) const REDUCE_GRAIN: usize = 1024;

/// Chunks the widest step of [`dot_partials`] advances together.
const REDUCE_SPAN: usize = 8;

/// Advance `L` whole chunks together for as long as `L` remain: `L`
/// independent left-to-right add chains whose latencies overlap. Each
/// partial is exactly the sum a chunk-at-a-time loop produces. Returns the
/// number of chunks consumed.
fn dot_lanes<const L: usize>(
    x: &[[f64; REDUCE_GRAIN]],
    y: &[[f64; REDUCE_GRAIN]],
    out: &mut [f64],
) -> usize {
    let (xl, _) = x.as_chunks::<L>();
    let (yl, _) = y.as_chunks::<L>();
    let (ol, _) = out.as_chunks_mut::<L>();
    for ((x, y), o) in xl.iter().zip(yl).zip(ol) {
        let mut acc = [0.0; L];
        for i in 0..REDUCE_GRAIN {
            for l in 0..L {
                acc[l] += x[l][i] * y[l][i];
            }
        }
        *o = acc;
    }
    xl.len() * L
}

/// The reduction kernel: `out[c] = Σ x[i]·y[i]` over chunk `c` of
/// [`REDUCE_GRAIN`] elements, summed left to right from `0.0`. Whole chunks
/// advance 8, then 4, then 1 at a time; the short tail chunk comes last.
fn dot_partials(x: &[f64], y: &[f64], out: &mut [f64]) {
    assert_eq!(
        out.len(),
        x.len().div_ceil(REDUCE_GRAIN),
        "one partial per chunk"
    );
    let (xc, xt) = x.as_chunks::<REDUCE_GRAIN>();
    let (yc, yt) = y.as_chunks::<REDUCE_GRAIN>();
    let mut c = dot_lanes::<REDUCE_SPAN>(xc, yc, out);
    c += dot_lanes::<4>(&xc[c..], &yc[c..], &mut out[c..]);
    c += dot_lanes::<1>(&xc[c..], &yc[c..], &mut out[c..]);
    if let Some(tail) = out.get_mut(c) {
        *tail = dot_row(xt, yt);
    }
}

/// `y ← y + alpha·x`.
fn axpy_slice(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

/// `y ← x + beta·y`.
fn xpby_slice(x: &[f64], beta: f64, y: &mut [f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y = x + beta * *y;
    }
}

/// `Σ row[c]·x[c]`, left to right from `0.0`.
fn dot_row(row: &[f64], x: &[f64]) -> f64 {
    row.iter().zip(x).fold(0.0, |acc, (a, b)| acc + a * b)
}

/// One grid row of the 5-point stencil: `out[i] = 4·c[i] − c[i−1] − c[i+1]
/// − up[i] − down[i]`, subtracted in that order, absent neighbours skipped.
/// `up`/`down` are the neighbouring rows, `None` at the grid edge.
fn stencil_row(out: &mut [f64], c: &[f64], up: Option<&[f64]>, down: Option<&[f64]>) {
    let nx = c.len();
    let point = |i: usize| {
        let mut v = 4.0 * c[i];
        if i > 0 {
            v -= c[i - 1];
        }
        if i + 1 < nx {
            v -= c[i + 1];
        }
        if let Some(u) = up {
            v -= u[i];
        }
        if let Some(d) = down {
            v -= d[i];
        }
        v
    };
    if nx < 3 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = point(i);
        }
        return;
    }
    // Two peeled end points, then an interior of equal-length windows with
    // no edge test left in the loop.
    out[0] = point(0);
    out[nx - 1] = point(nx - 1);
    let horizontal = out[1..nx - 1]
        .iter_mut()
        .zip(&c[1..nx - 1])
        .zip(c[..nx - 2].iter().zip(&c[2..]));
    match (up, down) {
        (Some(u), Some(d)) => {
            let vertical = u[1..nx - 1].iter().zip(&d[1..nx - 1]);
            for (((o, c), (l, r)), (u, d)) in horizontal.zip(vertical) {
                *o = 4.0 * c - l - r - u - d;
            }
        }
        (Some(v), None) | (None, Some(v)) => {
            for (((o, c), (l, r)), v) in horizontal.zip(&v[1..nx - 1]) {
                *o = 4.0 * c - l - r - v;
            }
        }
        (None, None) => {
            for ((o, c), (l, r)) in horizontal {
                *o = 4.0 * c - l - r;
            }
        }
    }
}

/// A vector operation of the NA-VM, by what it charges per item. The
/// runtime charges each through [`VectorOp::work`], and the static bound
/// of the plate CG walks [`PLATE_CG_SETUP`](crate::PLATE_CG_SETUP) and
/// [`PLATE_CG_ITERATION`](crate::PLATE_CG_ITERATION) through the same.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VectorOp {
    /// `fill`: one element computed and stored.
    Fill,
    /// `copy`: one element read and one written.
    Copy,
    /// `inner`: two elements read and multiplied into the partial, then
    /// the reduction of the partials ([`reduction_messages`]).
    Inner,
    /// `axpy` or `xpby`: two elements read, one written.
    Update,
    /// `stencil5`: one grid point, after the halo exchange.
    Stencil,
}

impl VectorOp {
    /// The work of one item.
    pub const fn work(self) -> WorkProfile {
        let (flops, int_ops, mem_words) = match self {
            VectorOp::Fill => (0, 1, 1),
            VectorOp::Copy => (0, 0, 2),
            VectorOp::Inner => (2, 0, 2),
            VectorOp::Update => (2, 0, 3),
            VectorOp::Stencil => (8, 6, 6),
        };
        WorkProfile {
            flops,
            int_ops,
            mem_words,
        }
    }

    /// Whether the op ends in a reduction.
    pub fn reduces(self) -> bool {
        self == VectorOp::Inner
    }
}

/// The messages of one reduction by the crew `tasks`: each cluster of the
/// iterator sends its partial to cluster 0 and gets the result back, and
/// every message carries the returned number of words.
pub fn reduction_messages(tasks: TaskSet) -> (impl Iterator<Item = u32> + Clone, Words) {
    (1..tasks.clusters(), 2)
}

/// The queued charges of one linear-algebra operation: its kind and its
/// sizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Charge {
    /// `inner`: a forall over `n` items, then the reduction.
    Inner { n: usize },
    /// `axpy` or `xpby`: a forall over `n` items.
    Update { n: usize },
    /// `stencil5`: the halo exchanges of an `nx × ny` grid, then a forall
    /// over its points.
    Stencil { nx: usize, ny: usize },
}

impl SimState {
    /// Apply the queued charges to the machine, in op order, through the
    /// same bodies an unqueued operation runs: every `stopped` check stays
    /// where it was.
    ///
    /// When the queue equals the last one that left a record, that record
    /// is applied whole ([`Machine::replay`](fem2_machine::Machine::replay))
    /// if, besides the machine's own checks, the crew is initiated, the
    /// run has not stopped, the budget admits the record's end and no
    /// fault step is due by then. Otherwise the entries run one by one
    /// under a recording, kept if the run is still going at its end.
    pub(crate) fn settle(&mut self, tasks: TaskSet) {
        if self.queue.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.queue);
        if self.replay_settle(&queue) {
            self.replays += 1;
        } else {
            // A traced machine replays no settle, so it records none.
            let traced = self.machine.trace.is_enabled();
            let recording = self.replaying() && self.spawned && !traced;
            if recording {
                self.machine.begin_record(self.now);
            }
            for &charge in &queue {
                match charge {
                    Charge::Inner { n } => {
                        self.elementwise(tasks, n, VectorOp::Inner.work());
                        self.reduction(tasks);
                    }
                    Charge::Update { n } => self.elementwise(tasks, n, VectorOp::Update.work()),
                    Charge::Stencil { nx, ny } => {
                        self.halo(tasks, nx, ny);
                        self.elementwise(tasks, nx * ny, VectorOp::Stencil.work());
                    }
                }
            }
            if recording {
                let record = self.machine.end_record(self.now);
                if let Some(record) = record.filter(|_| self.stopped().is_none()) {
                    self.settled = Some((queue, record));
                    return;
                }
            }
        }
        queue.clear();
        self.queue = queue;
    }

    /// Whether this state replays records at all: false only for the
    /// entry-by-entry oracle.
    fn replaying(&self) -> bool {
        #[cfg(test)]
        if self.per_entry {
            return false;
        }
        true
    }

    /// Apply the last settle's record if `queue` repeats it and every
    /// precondition holds; `false`, with nothing charged, otherwise.
    fn replay_settle(&mut self, queue: &[Charge]) -> bool {
        let Some((last, record)) = &self.settled else {
            return false;
        };
        let end = self.now + record.end();
        if last != queue
            || !self.replaying()
            || !self.spawned
            || self.stopped().is_some()
            || self.budget.exceeded(end, 0).is_some()
            || self.faults.next_at().is_some_and(|at| at <= end)
        {
            return false;
        }
        match self.machine.replay(record, self.now) {
            Some(end) => {
                self.now = end;
                true
            }
            None => false,
        }
    }

    /// Charge a forall over `n` items block-split over `tasks`
    /// ([`TaskSet::share`](crate::TaskSet::share)): task `i` does
    /// `per_elem` for each of its `base + (i < extra)` items.
    pub(crate) fn elementwise(&mut self, tasks: TaskSet, n: usize, per_elem: WorkProfile) {
        let (base, extra) = (n / tasks.len() as usize, n % tasks.len() as usize);
        let runs = tasks.by_cluster().map(|(c, run)| {
            let work = run.map(move |i| {
                let items = base + usize::from((i as usize) < extra);
                (TaskHandle(i), per_elem.scaled(items as u64))
            });
            (c, work)
        });
        self.parallel_section(runs);
    }

    /// One halo exchange of `nx` words each way between adjacent
    /// row-holding tasks on clusters `ca` and `cb`, from `start`: a memory
    /// pass on the kernel PE when they share a cluster, two messages
    /// otherwise. Returns when the exchange is done.
    fn halo_pair(&mut self, start: Cycles, ca: u32, cb: u32, nx: usize) -> Cycles {
        let words = nx as Words;
        if ca == cb {
            return self.memory_stage(start, ca, cb, WindowStage::Gather, 2 * words);
        }
        // Halo messages have no reliable layer, and both leave before
        // either is traced: the plate's pinned trace fixes that order.
        let a1 = self.transmit(start, ca, cb, words, MsgKind::RemoteCall);
        let a2 = self.transmit(start, cb, ca, words, MsgKind::RemoteCall);
        self.window_span(start, a1, ca, cb, WindowStage::Transit, words);
        self.window_span(start, a2, cb, ca, WindowStage::Transit, words);
        a1.max(a2)
    }

    /// The tree reduction that combines the per-task partials of `tasks`
    /// ([`reduction_messages`]): every message toward cluster 0 sent at
    /// the start, then a broadcast of the result, each of whose messages
    /// leaves once every message before it has arrived.
    ///
    /// The messages are the same every time, so the run is recorded and
    /// replayed ([`Machine::replay`](fem2_machine::Machine::replay)) while
    /// the fault epoch and the crew stay the same and every recorded link
    /// is free by the start (a traced machine also needs the record's
    /// spans). Otherwise each message is routed, and the run is recorded
    /// again if its links were idle and nothing dead-lettered. A settle
    /// being recorded sees either.
    pub(crate) fn reduction(&mut self, tasks: TaskSet) {
        if self.stopped().is_some() {
            return;
        }
        let start = self.now;
        if let Some((_, record)) = self.reduction.as_ref().filter(|(k, _)| *k == tasks) {
            if let Some(end) = self.machine.replay(record, start) {
                self.now = end;
                return;
            }
        }
        let recording = self.replaying();
        if recording {
            self.machine.begin_record(start);
        }
        let (peers, words) = reduction_messages(tasks);
        let mut barrier = start;
        for c in peers.clone() {
            let arrive = self.transmit(start, c, 0, words, MsgKind::RemoteCall);
            barrier = barrier.max(arrive);
        }
        for c in peers {
            let arrive = self.transmit(barrier, 0, c, words, MsgKind::RemoteReturn);
            barrier = barrier.max(arrive);
        }
        if recording {
            if let Some(record) = self.machine.end_record(barrier) {
                self.reduction = Some((tasks, record));
            }
        }
        self.now = barrier;
    }

    /// The halo exchanges of [`NaVm::stencil5`] on an `nx × ny` grid:
    /// between each pair of adjacent tasks that hold grid rows (the first
    /// `min(tasks, ny)`), in task order, all from the start.
    fn halo(&mut self, tasks: TaskSet, nx: usize, ny: usize) {
        if self.stopped().is_some() {
            return;
        }
        let held = tasks.len().min(u32::try_from(ny).unwrap_or(u32::MAX));
        let mut hosts = tasks
            .by_cluster()
            .map_while(|(c, run)| (run.start < held).then(|| (c, run.end.min(held) - run.start)))
            .peekable();
        let start = self.now;
        let mut barrier = start;
        while let Some((ca, k)) = hosts.next() {
            for _ in 1..k {
                barrier = barrier.max(self.halo_pair(start, ca, ca, nx));
            }
            if let Some(&(cb, _)) = hosts.peek() {
                barrier = barrier.max(self.halo_pair(start, ca, cb, nx));
            }
        }
        self.now = barrier;
    }
}

#[cfg(test)]
impl SimState {
    /// The oracle of [`NaVm::stencil5`]'s halo charges: every adjacent
    /// task pair, filtered on both shares of `ny` rows being non-empty,
    /// with one division per task for its cluster.
    pub(crate) fn halo_per_task(&mut self, tasks: &TaskSet, nx: usize, ny: usize) {
        if self.stopped().is_some() {
            return;
        }
        let pairs = tasks
            .iter()
            .zip(tasks.iter().skip(1))
            .filter(|(a, b)| !tasks.share(ny, *a).is_empty() && !tasks.share(ny, *b).is_empty())
            .map(|(a, b)| (tasks.cluster_of(a), tasks.cluster_of(b)));
        let start = self.now;
        let mut barrier = start;
        for (ca, cb) in pairs {
            barrier = barrier.max(self.halo_pair(start, ca, cb, nx));
        }
        self.now = barrier;
    }
}

impl NaVm {
    /// The elements of `src` (shared) beside those of `dst` (mutable).
    fn src_dst(&mut self, src: ArrayId, dst: ArrayId) -> (&[f64], &mut [f64]) {
        let [s, d] = self
            .arrays
            .get_disjoint_mut([src.0 as usize, dst.0 as usize])
            .expect("aliasing arrays");
        (&s.data, &mut d.data)
    }

    /// Settle, then charge a forall over `n` items block-split over the
    /// task crew ([`SimState::elementwise`]).
    pub(crate) fn charge_elementwise(&mut self, n: usize, per_elem: WorkProfile) {
        self.settle();
        self.sim.elementwise(self.tasks, n, per_elem);
    }

    /// Inner product `xᵀy`, rounded by the reduction contract: the
    /// combination tree depends on the length alone, not on the task count
    /// or the machine.
    pub fn inner(&mut self, x: ArrayId, y: ArrayId) -> f64 {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        let result = {
            let xd = &self.arrays[x.0 as usize].data;
            let yd = &self.arrays[y.0 as usize].data;
            // Each block's partials fold into the total in chunk order as
            // they come, so the sum needs no buffer beyond one block's.
            let block = REDUCE_SPAN * REDUCE_GRAIN;
            let mut partials = [0.0; REDUCE_SPAN];
            xd.chunks(block)
                .zip(yd.chunks(block))
                .fold(0.0, |total, (xb, yb)| {
                    let out = &mut partials[..xb.len().div_ceil(REDUCE_GRAIN)];
                    dot_partials(xb, yb, out);
                    out.iter().fold(total, |total, p| total + p)
                })
        };
        self.sim.queue.push(Charge::Inner { n });
        result
    }

    /// `y ← y + alpha·x`.
    pub fn axpy(&mut self, alpha: f64, x: ArrayId, y: ArrayId) {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        let (xd, yd) = self.src_dst(x, y);
        axpy_slice(alpha, xd, yd);
        self.sim.queue.push(Charge::Update { n });
    }

    /// `y ← x + beta·y` (the CG direction update).
    pub fn xpby(&mut self, x: ArrayId, beta: f64, y: ArrayId) {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        let (xd, yd) = self.src_dst(x, y);
        xpby_slice(xd, beta, yd);
        self.sim.queue.push(Charge::Update { n });
    }

    /// `y ← x`.
    pub fn copy(&mut self, x: ArrayId, y: ArrayId) {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        {
            let (xd, yd) = self.src_dst(x, y);
            yd.copy_from_slice(xd);
        }
        self.charge_elementwise(n, VectorOp::Copy.work());
    }

    /// 5-point-stencil operator on an `nx × ny` grid: for interior and
    /// boundary points alike,
    /// `y[i,j] = 4·x[i,j] − x[i−1,j] − x[i+1,j] − x[i,j−1] − x[i,j+1]`
    /// with out-of-grid neighbours treated as zero (homogeneous Dirichlet).
    /// `x` and `y` are `nx·ny` vectors, grid row-major.
    ///
    /// Each task owning a band of grid rows exchanges one halo row (`nx`
    /// words) with each neighbouring task: intra-cluster neighbours cost
    /// memory passes, inter-cluster ones cost messages — the
    /// nearest-neighbour pattern of E5.
    pub fn stencil5(&mut self, x: ArrayId, y: ArrayId, nx: usize, ny: usize) {
        assert_eq!(self.len(x), nx * ny, "x length mismatch");
        assert_eq!(self.len(y), nx * ny, "y length mismatch");
        {
            let (xd, yd) = self.src_dst(x, y);
            let grid_row = |j: usize| &xd[j * nx..(j + 1) * nx];
            for (j, out) in yd.chunks_mut(nx).enumerate() {
                let up = (j > 0).then(|| grid_row(j - 1));
                let down = (j + 1 < ny).then(|| grid_row(j + 1));
                stencil_row(out, grid_row(j), up, down);
            }
        }
        self.sim.queue.push(Charge::Stencil { nx, ny });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plate_cg;
    use fem2_machine::MachineConfig;
    use proptest::prelude::*;

    fn sim(ntasks: u32) -> NaVm {
        NaVm::simulated(MachineConfig::fem2_default(), ntasks)
    }

    fn vector_of(vm: &mut NaVm, data: &[f64]) -> ArrayId {
        let id = vm.vector(data.len());
        vm.fill(id, |i, _| data[i]);
        id
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// `n` values of mixed sign and magnitude (2⁻³⁰…2³⁰), one in sixteen a
    /// signed zero, from a SplitMix64 stream.
    fn mixed_values(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
                if (z >> 1) & 15 == 0 {
                    return sign * 0.0;
                }
                let exponent = ((z >> 5) % 61) as i32 - 30;
                let mantissa = 1.0 + (z >> 12) as f64 / (1u64 << 52) as f64;
                sign * mantissa * 2f64.powi(exponent)
            })
            .collect()
    }

    /// Oracle: the element-by-element chunk fold `inner` ran before the
    /// slice kernels — the reduction contract written out.
    fn inner_oracle(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let mut total = 0.0;
        let mut start = 0;
        while start < n {
            let end = (start + REDUCE_GRAIN).min(n);
            let mut acc = 0.0;
            for i in start..end {
                acc += x[i] * y[i];
            }
            total += acc;
            start = end;
        }
        total
    }

    /// Oracle: the per-point stencil with its four edge tests.
    fn stencil_oracle(x: &[f64], nx: usize, ny: usize) -> Vec<f64> {
        let mut y = vec![0.0; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let idx = j * nx + i;
                let mut v = 4.0 * x[idx];
                if i > 0 {
                    v -= x[idx - 1];
                }
                if i + 1 < nx {
                    v -= x[idx + 1];
                }
                if j > 0 {
                    v -= x[idx - nx];
                }
                if j + 1 < ny {
                    v -= x[idx + nx];
                }
                y[idx] = v;
            }
        }
        y
    }

    fn assert_inner_matches_oracle(seed: u64, n: usize) {
        let x = mixed_values(seed, n);
        let y = mixed_values(seed ^ 0x5bd1_e995, n);
        let want = inner_oracle(&x, &y);
        let want_norm = inner_oracle(&x, &x);
        for (p, mut vm) in [sim(1), sim(4)].into_iter().enumerate() {
            let (xa, ya) = (vector_of(&mut vm, &x), vector_of(&mut vm, &y));
            let got = vm.inner(xa, ya);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "n {n} crew {p}: {got} vs {want}"
            );
            let got = vm.inner(xa, xa);
            assert_eq!(got.to_bits(), want_norm.to_bits(), "n {n} crew {p}: x·x");
        }
    }

    #[test]
    fn inner_matches_chunk_fold_oracle_at_lane_boundaries() {
        let g = REDUCE_GRAIN;
        let sizes = [
            1,
            g - 1,
            g,
            g + 1,
            4 * g - 1,
            4 * g + 1,
            8 * g - 1,
            8 * g + 1,
            12 * g + 7,
            25_600,
        ];
        for (k, n) in sizes.into_iter().enumerate() {
            assert_inner_matches_oracle(1983 + k as u64, n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn inner_matches_chunk_fold_oracle(n in 1usize..=40_000, seed in any::<u64>()) {
            assert_inner_matches_oracle(seed, n);
        }
    }

    #[test]
    fn stencil5_matches_per_point_oracle() {
        let grids = (1..=6usize)
            .flat_map(|nx| (1..=6usize).map(move |ny| (nx, ny)))
            .chain([(131, 125)]);
        for (nx, ny) in grids {
            let x = mixed_values((nx * 1000 + ny) as u64, nx * ny);
            let want = stencil_oracle(&x, nx, ny);
            for (p, mut vm) in [sim(1), sim(4)].into_iter().enumerate() {
                let xa = vector_of(&mut vm, &x);
                let ya = vm.vector(nx * ny);
                vm.stencil5(xa, ya, nx, ny);
                assert_bits_eq(&vm.snapshot(ya), &want, &format!("{nx}x{ny} crew {p}"));
            }
        }
    }

    #[test]
    fn vector_updates_match_per_element_oracle() {
        let n = 3 * REDUCE_GRAIN + 517;
        let x = mixed_values(7, n);
        let y = mixed_values(11, n);
        let (alpha, beta) = (-1.375e-3, 0.8125);
        let axpy: Vec<f64> = x.iter().zip(&y).map(|(x, y)| y + alpha * x).collect();
        let xpby: Vec<f64> = x.iter().zip(&axpy).map(|(x, y)| x + beta * y).collect();
        for (p, mut vm) in [sim(1), sim(4)].into_iter().enumerate() {
            let (xa, ya) = (vector_of(&mut vm, &x), vector_of(&mut vm, &y));
            vm.axpy(alpha, xa, ya);
            assert_bits_eq(&vm.snapshot(ya), &axpy, &format!("axpy crew {p}"));
            vm.xpby(xa, beta, ya);
            assert_bits_eq(&vm.snapshot(ya), &xpby, &format!("xpby crew {p}"));
        }
    }

    #[test]
    fn inner_product_exact() {
        for mut vm in [sim(1), sim(4)] {
            let x = vm.vector(100);
            let y = vm.vector(100);
            vm.fill(x, |i, _| i as f64);
            vm.fill(y, |_, _| 3.0);
            assert_eq!(vm.inner(x, y), 3.0 * (99.0 * 100.0 / 2.0));
        }
    }

    #[test]
    fn axpy_and_xpby() {
        for mut vm in [sim(1), sim(4)] {
            let x = vm.vector(10);
            let y = vm.vector(10);
            vm.fill(x, |i, _| i as f64);
            vm.fill(y, |_, _| 1.0);
            vm.axpy(2.0, x, y); // y = 1 + 2i
            assert_eq!(vm.snapshot(y)[3], 7.0);
            vm.xpby(x, 0.5, y); // y = i + 0.5(1 + 2i) = 2i + 0.5
            assert_eq!(vm.snapshot(y)[3], 6.5);
        }
    }

    #[test]
    fn scale_and_copy_and_norm() {
        for mut vm in [sim(1), sim(4)] {
            let x = vm.vector(4);
            vm.fill(x, |_, _| 3.0);
            let y = vm.vector(4);
            vm.copy(x, y);
            assert_eq!(vm.snapshot(y), vec![3.0; 4]);
            assert_eq!(vm.inner(y, y).sqrt(), (4.0f64 * 9.0).sqrt());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut vm = sim(2);
        let x = vm.vector(4);
        let y = vm.vector(5);
        vm.axpy(1.0, x, y);
    }

    #[test]
    #[should_panic(expected = "aliasing arrays")]
    fn aliasing_rejected() {
        let mut vm = sim(2);
        let x = vm.vector(4);
        vm.axpy(1.0, x, x);
    }

    #[test]
    #[should_panic(expected = "aliasing arrays")]
    fn stencil5_aliasing_rejected() {
        let mut vm = sim(2);
        let x = vm.vector(16);
        vm.stencil5(x, x, 4, 4);
    }

    #[test]
    fn stencil5_constant_interior() {
        // x ≡ 1: interior points give 0; edges lose missing neighbours.
        for mut vm in [sim(1), sim(4)] {
            let (nx, ny) = (5, 5);
            let x = vm.vector(nx * ny);
            vm.fill(x, |_, _| 1.0);
            let y = vm.vector(nx * ny);
            vm.stencil5(x, y, nx, ny);
            let y = vm.snapshot(y);
            // Interior (2,2): 4 - 4 = 0.
            assert_eq!(y[2 * nx + 2], 0.0);
            // Corner (0,0): 4 - 2 = 2.
            assert_eq!(y[0], 2.0);
            // Edge (2,0): 4 - 3 = 1.
            assert_eq!(y[2], 1.0);
        }
    }

    #[test]
    fn stencil5_matches_dense_laplacian() {
        let (nx, ny) = (4, 3);
        let n = nx * ny;
        // The dense 5-point matrix, multiplied on the host.
        let entry = |r: usize, c: usize| {
            let (ri, rj) = (r % nx, r / nx);
            let (ci, cj) = (c % nx, c / nx);
            if r == c {
                4.0
            } else if (ri == ci && rj.abs_diff(cj) == 1) || (rj == cj && ri.abs_diff(ci) == 1) {
                -1.0
            } else {
                0.0
            }
        };
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let y_dense: Vec<f64> = (0..n)
            .map(|r| dot_row(&(0..n).map(|c| entry(r, c)).collect::<Vec<_>>(), &xs))
            .collect();
        let mut vm = sim(4);
        let x = vector_of(&mut vm, &xs);
        let y_sten = vm.vector(n);
        vm.stencil5(x, y_sten, nx, ny);
        assert_eq!(y_dense, vm.snapshot(y_sten));
    }

    #[test]
    fn sim_plane_charges_flops_for_linalg() {
        let mut vm = sim(4);
        let x = vm.vector(1000);
        let y = vm.vector(1000);
        vm.fill(x, |_, _| 1.0);
        vm.fill(y, |_, _| 1.0);
        let f0 = vm.machine().stats.total().flops;
        let _ = vm.inner(x, y);
        let f1 = vm.machine().stats.total().flops;
        assert_eq!(f1 - f0, 2000, "2 flops per element");
    }

    #[test]
    fn stencil_halo_crosses_clusters_as_messages() {
        // 4 tasks on 4 clusters: each task boundary is a cluster boundary.
        let mut cfg = MachineConfig::fem2_default();
        cfg.clusters = 4;
        let mut vm = NaVm::simulated(cfg, 4);
        let (nx, ny) = (8, 8);
        let x = vm.vector(nx * ny);
        let y = vm.vector(nx * ny);
        vm.fill(x, |_, _| 1.0);
        let m0 = vm.machine().network.messages;
        vm.stencil5(x, y, nx, ny);
        let m1 = vm.machine().network.messages;
        assert_eq!(m1 - m0, 6, "3 task boundaries × 2 directions");
    }

    #[test]
    fn stencil_halo_within_cluster_is_message_free() {
        // 4 tasks on 1 cluster: halos are memory passes.
        let mut cfg = MachineConfig::fem2_default();
        cfg.clusters = 1;
        let mut vm = NaVm::simulated(cfg, 4);
        let (nx, ny) = (8, 8);
        let x = vm.vector(nx * ny);
        let y = vm.vector(nx * ny);
        vm.fill(x, |_, _| 1.0);
        let m0 = vm.machine().network.messages;
        vm.stencil5(x, y, nx, ny);
        let m1 = vm.machine().network.messages;
        assert_eq!(m1 - m0, 0);
    }

    /// One plate run for [`settle_replay_matches_per_entry_oracle`].
    struct PlateRun<'a> {
        cfg: &'a MachineConfig,
        ntasks: u32,
        grid: (usize, usize),
        max_iters: usize,
        faults: &'a fem2_machine::fault::FaultPlan,
        budget: Option<Cycles>,
        traced: bool,
    }

    impl PlateRun<'_> {
        /// Run the plate on a VM that replays (`per_entry` false) or on the
        /// entry-by-entry oracle. Returns the replayed settles and what
        /// the two must agree on: the CG's iterations, residual and
        /// solution bits, the clock, the abort, the stats table, the
        /// events, the whole network, every PE, the allocated record
        /// counts and the trace.
        fn run(&self, per_entry: bool) -> (u64, impl PartialEq + std::fmt::Debug) {
            let cfg = self.cfg.clone();
            let mut vm = if per_entry {
                NaVm::simulated_per_entry(cfg, self.ntasks)
            } else {
                NaVm::simulated(cfg, self.ntasks)
            };
            let (trace, rec) = fem2_trace::TraceHandle::ring(1 << 16);
            if self.traced {
                vm.set_trace(trace);
            }
            vm.inject_faults(self.faults);
            if let Some(cycles) = self.budget {
                vm.set_budget(fem2_machine::RunBudget::max_cycles(cycles));
            }
            let (nx, ny) = self.grid;
            let cg = plate_cg(&mut vm, nx, ny, 1e-6, self.max_iters);
            let x: Vec<u64> = vm.snapshot(cg.x).iter().map(|v| v.to_bits()).collect();
            let (iters, res) = (cg.iterations, cg.residual.to_bits());
            let cg = (iters, res, x, vm.budget_exceeded(), vm.elapsed());
            let m = vm.machine();
            let pes: Vec<_> = (0..m.config.clusters)
                .flat_map(|c| m.cluster_pes(c))
                .map(|pe| *m.pe(pe).unwrap())
                .collect();
            let records = (
                m.network.allocated_link_records(),
                m.allocated_cluster_records(),
            );
            let machine = (m.stats.table(), m.events, format!("{:?}", m.network));
            let r = rec.lock().unwrap();
            let trace = (
                r.len(),
                r.dropped(),
                r.events().copied().collect::<Vec<_>>(),
            );
            (vm.sim.replays, (cg, machine, pes, records, trace))
        }

        /// The replaying run against the oracle; returns the replays.
        fn check(&self) -> Result<u64, TestCaseError> {
            let (replays, got) = self.run(false);
            let (none, want) = self.run(true);
            prop_assert_eq!(none, 0);
            prop_assert_eq!(got, want);
            Ok(replays)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// [`SimState::settle`], which replays the last recorded iteration
        /// whenever it may, against settling every queue entry by entry and
        /// routing every reduction message (`NaVm::simulated_per_entry`),
        /// over a plate CG on all six topologies of 16 clusters: crews of
        /// 1–24 tasks on 2–6 PEs per cluster with a dedicated kernel PE or
        /// none (where a cluster's tasks leave workers over, the order in
        /// which its workers free up changes from one iteration to the
        /// next, so a replay must check it), non-square grids, 0–3 fault
        /// steps inside the loop (link kill, degrade, recovery; PE kill or
        /// transient; memory bank), a cycle budget that may expire inside
        /// an iteration, traced or not.
        #[test]
        fn settle_replay_matches_per_entry_oracle(
            topology in 0usize..6,
            machine in (2u32..=6, any::<bool>()),
            ntasks in 1u32..=24,
            grid in (2usize..=24, 2usize..=24),
            faults in proptest::collection::vec((0u8..6, any::<u32>(), 0u64..1000), 0..4),
            budget in (any::<bool>(), 1u64..1000),
            traced in any::<bool>(),
        ) {
            use fem2_machine::{fault::FaultPlan, PeId, Topology};
            let (pes, dedicated) = machine;
            let topology = [
                Topology::Bus,
                Topology::Ring,
                Topology::Mesh2D { width: 4 },
                Topology::Crossbar,
                Topology::Torus { dims: vec![4, 4] },
                Topology::FatTree { radix: 4 },
            ][topology]
                .clone();
            let mut cfg = MachineConfig::clustered(16, pes, topology);
            cfg.dedicated_kernel_pe = dedicated;
            let healthy = PlateRun {
                cfg: &cfg,
                ntasks,
                grid,
                max_iters: 40,
                faults: &FaultPlan::none(),
                budget: None,
                traced: false,
            };
            // Steps and budgets fall at thousandths of the healthy run.
            let mut vm = NaVm::simulated(cfg.clone(), ntasks);
            let full = {
                let (nx, ny) = grid;
                plate_cg(&mut vm, nx, ny, 1e-6, 40);
                vm.elapsed()
            };
            let at = |k: u64| full * k / 1000;
            let links = vm.machine().network.link_count();
            let plan = faults.iter().fold(FaultPlan::none(), |plan, &(kind, a, k)| {
                let pe = PeId::new(a % 16, (a >> 8) % pes);
                let link = a as usize % links;
                match kind {
                    0 => plan.kill_link(at(k), link),
                    1 => plan.degrade_link(at(k), link, 2 + a % 3),
                    2 => plan.recover_link(at(k), link),
                    3 => plan.kill_pe(at(k), pe),
                    4 => plan.transient_pe(at(k), at(k) + 1 + at(k) / 2, pe),
                    _ => plan.fail_memory(at(k), a % 16, u64::from(a >> 4) % cfg.memory_per_cluster),
                }
            });
            let run = PlateRun {
                faults: &plan,
                budget: budget.0.then(|| at(budget.1)),
                traced,
                ..healthy
            };
            run.check()?;
        }
    }

    /// The settle oracle on the benchmark's machine: 128 tasks on the
    /// 1024-cluster 32×32 torus, every task holding rows, with a link on
    /// the reduction's routes killed mid-run. The replaying run replays.
    #[test]
    fn settle_replay_matches_per_entry_on_the_1024_cluster_torus() {
        use fem2_machine::{fault::FaultPlan, Topology};
        let cfg = MachineConfig::clustered(1024, 2, Topology::Torus { dims: vec![32, 32] });
        let mut vm = NaVm::simulated(cfg.clone(), 128);
        plate_cg(&mut vm, 6, 130, 1e-6, 12);
        let mid = vm.elapsed() / 2;
        let link = vm.machine().network.route_links(5, 0).unwrap()[0];
        let plan = FaultPlan::none().kill_link(mid, link);
        for faults in [FaultPlan::none(), plan] {
            let run = PlateRun {
                cfg: &cfg,
                ntasks: 128,
                grid: (6, 130),
                max_iters: 12,
                faults: &faults,
                budget: None,
                traced: false,
            };
            let replays = run.check().unwrap();
            assert!(replays >= 6, "{replays} of 12 iterations replayed");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// [`SimState::reduction`], which replays its record whenever it
        /// may, against routing every message (`NaVm::simulated_per_entry`,
        /// which never records) on twin VMs over all six
        /// topologies, traced or not. Before each reduction: an idle gap, a
        /// halo exchange, traffic left busy past the start, or a link kill,
        /// degrade or recovery (a kill can cut a cluster off, which
        /// dead-letters and halts both alike). Compared: `now`, the whole
        /// network (every link's `free` and `busy`, the counters, the
        /// routes), the stats, the events, the halt and the trace.
        #[test]
        fn reduction_replay_matches_per_message_oracle(
            topology in 0usize..6,
            ntasks in 1u32..=24,
            traced in any::<bool>(),
            ops in proptest::collection::vec((0u8..6, any::<u32>(), 0u64..2000), 1..8),
        ) {
            use fem2_machine::Topology;
            let topology = [
                Topology::Bus,
                Topology::Ring,
                Topology::Mesh2D { width: 4 },
                Topology::Crossbar,
                Topology::Torus { dims: vec![4, 4] },
                Topology::FatTree { radix: 4 },
            ][topology]
                .clone();
            let twin = |oracle: bool| {
                let cfg = MachineConfig::clustered(16, 2, topology.clone());
                let mut vm = if oracle {
                    NaVm::simulated_per_entry(cfg, ntasks)
                } else {
                    NaVm::simulated(cfg, ntasks)
                };
                let (trace, rec) = fem2_trace::TraceHandle::ring(1 << 16);
                if traced {
                    vm.set_trace(trace);
                }
                let (x, y) = (vm.vector(64), vm.vector(64));
                for &(op, a, w) in &ops {
                    if op == 1 {
                        vm.stencil5(x, y, 8, 8);
                        vm.settle();
                    }
                    let s = &mut vm.sim;
                    let link = a as usize % s.machine.network.link_count();
                    match op {
                        0 => s.now += w,
                        2 => {
                            let (from, to) = (a % 16, (a >> 8) % 16);
                            s.transmit(s.now, from, to, w, MsgKind::RemoteCall);
                        }
                        3 => s.machine.network.fail_link(link),
                        4 => s.machine.network.degrade_link(link, 2 + (w % 3) as u32),
                        5 => s.machine.network.recover_link(link),
                        _ => {}
                    }
                    s.reduction(vm.tasks);
                }
                let s = &mut vm.sim;
                let r = rec.lock().unwrap();
                let trace: Vec<_> = r.events().copied().collect();
                (
                    s.now,
                    format!("{:?}", s.machine.network),
                    s.machine.stats.table(),
                    s.machine.events,
                    s.halted.clone(),
                    trace,
                )
            };
            prop_assert_eq!(twin(false), twin(true));
        }
    }
}
