//! The common communication network between clusters.
//!
//! Six topologies ([`Topology`]) with per-link contention and
//! store-and-forward packet transmission. Large messages are segmented into
//! packets of at most `max_packet_words` payload, each charged a header —
//! this is how the simulator honours the "large messages" requirement while
//! still modeling finite link buffers. Packets of one message pipeline
//! across the path (a later link can carry packet *k* while an earlier link
//! carries packet *k+1*), which matters for the E5 message-size sweeps.
//!
//! All state is deterministic: links are FIFO resources with a `free_at`
//! time, and arrival times depend only on the sequence of `transmit` calls.
//!
//! Link state is *sparse*: the topology defines a link-id space (up to
//! `n²` ids for a crossbar), but per-link records (reservation time, busy
//! cycles, fault state) live in a slab allocated on first touch and found
//! through a paged index (see `LinkSlab`), so memory scales with the
//! links that carry traffic or a fault, not with the topology. Links
//! without a record behave as healthy and idle. Slab order never influences
//! results: every behavior is keyed by link id, and the aggregate reports
//! (max/total busy) are order-independent.
//!
//! Route selection is cached: the route for a `(from, to)` pair is computed
//! once and reused until the link-fault state changes
//! ([`Network::fail_link`], [`Network::degrade_link`] and
//! [`Network::recover_link`] empty the table, which keeps its memory). The
//! table (`RouteTable`) holds *touched* pairs, not `n²`, and is reached by
//! key only. A cached route starts as link ids; the first *transmit* of the
//! pair rewrites it in place to slab slots, so every later message walks
//! link records directly with no per-hop lookup (see [`Route`]). A fresh
//! machine sees only first transmits, so one stays within a few times a
//! later one: with no dead link (a count the fault calls maintain) route
//! selection checks no hop, resolving a hop is two loads, and filing the
//! route is one probe of a flat table. Cached and uncached runs are bitwise
//! identical: the cache stores exactly what [`Network::compute_route`]
//! would return.
//!
//! A reliable layer that must know, at arrival time, whether a message's
//! route lost a link while it was in flight sends through
//! [`Network::transmit_tracked`]: the same single cache lookup also yields
//! the contention-free estimate and a [`Flight`] — the fault epoch at send
//! time plus the route's slab slots — which [`Network::flight_lost`] later
//! checks without touching the cache or the link-id index.

use crate::config::{MachineConfig, Topology};
use crate::{Cycles, Words};
use std::cell::RefCell;
use std::rc::Rc;

/// One allocated link: everything the contention loop reads or writes for
/// a hop, so a hop touches one record.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// Next-free time.
    free: Cycles,
    /// Cumulative busy cycles (for utilization reports).
    busy: Cycles,
    /// Occupancy multiplier (1 = healthy).
    degrade: u32,
    /// The link's id, so a slot-resolved route can still answer in ids.
    id: u32,
}

/// Link ids per page of the slab's index.
const PAGE: usize = 256;

/// Per-link state, allocated on first touch (traffic or fault).
///
/// Slots are never freed or reordered, which is what lets a cached
/// [`Route`] hold slots instead of ids for as long as it lives.
///
/// Link id → slot is a two-level table: `pages[id / 256][id % 256]` holds
/// `slot + 1`, 0 for a link with no record, so a lookup is two loads. A
/// page exists once a link on it has a record and the directory reaches
/// the highest such page, so the index is O(touched) — a fully swept
/// 4096-cluster torus or fat tree is 64–128 one-KiB pages — except on a
/// crossbar, the one `n²` id space: a source that talks to everyone
/// touches ⌈n/256⌉ pages, each mostly empty. Crossbars here stop at 64
/// clusters (16 pages in all).
#[derive(Clone, Debug, Default)]
struct LinkSlab {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    links: Vec<Link>,
    /// Dead links (packets cannot traverse; routes detour where possible).
    /// Beside `links`, not in it: only route selection reads it.
    dead: Vec<bool>,
    /// How many of `dead` are set: zero lets route selection skip the
    /// per-hop check.
    dead_links: usize,
}

impl LinkSlab {
    /// Slot for `link`, allocating a healthy idle record on first touch.
    fn ensure(&mut self, link: u32) -> u32 {
        let page = link as usize / PAGE;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let cell =
            &mut self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]))[link as usize % PAGE];
        if *cell == 0 {
            self.links.push(Link {
                free: 0,
                busy: 0,
                degrade: 1,
                id: link,
            });
            self.dead.push(false);
            // At most `u32::MAX` ids, so `slot + 1` fits.
            *cell = self.links.len() as u32;
        }
        *cell - 1
    }

    fn slot(&self, link: u32) -> Option<usize> {
        let page = self.pages.get(link as usize / PAGE)?.as_ref()?;
        (page[link as usize % PAGE] as usize).checked_sub(1)
    }

    /// Read-only probes: untouched links are healthy and idle.
    fn is_dead(&self, link: u32) -> bool {
        self.slot(link).is_some_and(|s| self.dead[s])
    }

    fn degrade_of(&self, link: u32) -> u32 {
        self.slot(link).map_or(1, |s| self.links[s].degrade)
    }

    /// Kill or revive the link in `slot`; a link already in that state
    /// leaves the count alone.
    fn set_dead(&mut self, slot: usize, dead: bool) {
        if self.dead[slot] != dead {
            self.dead[slot] = dead;
            if dead {
                self.dead_links += 1;
            } else {
                self.dead_links -= 1;
            }
        }
        debug_assert_eq!(self.dead_links, self.dead.iter().filter(|d| **d).count());
    }

    /// Number of allocated link records (the O(active) memory proxy).
    fn len(&self) -> usize {
        self.links.len()
    }
}

/// A route as the cache holds it: one `u32` per hop, in one of three
/// states.
///
/// The hops are link ids when the route is computed (`Links`). The first
/// transmit over the route rewrites them in place to slab slots (`Slots`),
/// after which the contention loop indexes link records directly. Slots
/// stay valid because the slab never frees or reorders records, and a
/// fault transition — the only thing that changes which links a pair uses
/// — empties the table. The first *tracked* transmit moves the slots
/// into a shared slice (`Shared`) that its [`Flight`] and every later one
/// hold a reference to; routes that never carry a tracked message never
/// pay for the second allocation. Read-only probes
/// ([`Network::estimate`], [`Network::route_links`],
/// [`Network::min_delivery_latency`]) never resolve: resolving allocates
/// link records, and a probe must leave
/// [`Network::allocated_link_records`] alone.
///
/// One enum rather than a struct with flags: every variant is a fat
/// pointer and a `bool`, so the tag shares their last word, a route is 24
/// bytes and a [`RouteTable`] entry 32 with its key — cold-route workloads
/// are bound by that table.
#[derive(Clone, Debug)]
enum Route {
    Links { hops: Box<[u32]>, rerouted: bool },
    Slots { hops: Box<[u32]>, rerouted: bool },
    Shared { hops: Rc<[u32]>, rerouted: bool },
}

impl Route {
    fn of_links(path: Vec<u32>, rerouted: bool) -> Self {
        Route::Links {
            hops: path.into_boxed_slice(),
            rerouted,
        }
    }

    /// Link ids before [`Route::resolve`], slab slots after.
    fn hops(&self) -> &[u32] {
        match self {
            Route::Links { hops, .. } | Route::Slots { hops, .. } => hops,
            Route::Shared { hops, .. } => hops,
        }
    }

    /// Whether this is a detour around a dead link.
    fn rerouted(&self) -> bool {
        match *self {
            Route::Links { rerouted, .. }
            | Route::Slots { rerouted, .. }
            | Route::Shared { rerouted, .. } => rerouted,
        }
    }

    fn resolved(&self) -> bool {
        !matches!(self, Route::Links { .. })
    }

    /// Rewrite link ids to slab slots, allocating records for links this
    /// is the first traffic on.
    fn resolve(&mut self, slab: &mut LinkSlab) {
        if let Route::Links { hops, rerouted } = self {
            for hop in hops.iter_mut() {
                *hop = slab.ensure(*hop);
            }
            *self = Route::Slots {
                hops: std::mem::take(hops),
                rerouted: *rerouted,
            };
        }
    }

    /// Occupancy multiplier of each hop, in route order.
    fn degrades<'a>(&'a self, slab: &'a LinkSlab) -> impl Iterator<Item = Cycles> + 'a {
        let resolved = self.resolved();
        self.hops().iter().map(move |&hop| {
            Cycles::from(if resolved {
                slab.links[hop as usize].degrade
            } else {
                slab.degrade_of(hop)
            })
        })
    }

    /// The slab slots of a resolved route, shared rather than copied.
    fn shared_slots(&mut self) -> Rc<[u32]> {
        debug_assert!(self.resolved(), "slots exist only after resolve");
        match self {
            Route::Shared { hops, .. } => Rc::clone(hops),
            Route::Links { hops, rerouted } | Route::Slots { hops, rerouted } => {
                let rerouted = *rerouted;
                let shared: Rc<[u32]> = Rc::from(std::mem::take(hops));
                *self = Route::Shared {
                    hops: Rc::clone(&shared),
                    rerouted,
                };
                shared
            }
        }
    }

    fn link_ids(&self, slab: &LinkSlab) -> Vec<usize> {
        let resolved = self.resolved();
        let id = |&hop: &u32| {
            if resolved {
                slab.links[hop as usize].id as usize
            } else {
                hop as usize
            }
        };
        self.hops().iter().map(id).collect()
    }
}

/// The routes of touched `(from, to)` pairs: entries in first-touch order
/// and an open-addressed index over them (entry number + 1, 0 = free; a
/// power of two long, at most half full, linear probing). Lookup by key is
/// the only access — nothing iterates it — so its layout cannot reach an
/// outcome, and the hash is fixed, so the layout itself repeats from run to
/// run.
#[derive(Clone, Debug, Default)]
struct RouteTable {
    /// `None` = no live route under the current fault state.
    entries: Vec<(u64, Option<Route>)>,
    index: Vec<u32>,
}

impl RouteTable {
    /// The entry number of `key`, or else the free index cell its probe
    /// sequence ends at.
    fn find(&self, key: u64) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let bits = self.index.len().trailing_zeros();
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        loop {
            match self.index[at] as usize {
                0 => return Err(at),
                e if self.entries[e - 1].0 == key => return Ok(e - 1),
                _ => at = (at + 1) & (self.index.len() - 1),
            }
        }
    }

    /// The entry for `key`, filled by `compute` on first touch.
    fn entry(&mut self, key: u64, compute: impl FnOnce() -> Option<Route>) -> &mut Option<Route> {
        let entry = match self.find(key) {
            Ok(entry) => entry,
            Err(mut free) => {
                if (self.entries.len() + 1) * 2 > self.index.len() {
                    self.grow();
                    free = self.find(key).expect_err("growing adds no key");
                }
                self.entries.push((key, compute()));
                self.index[free] = self.entries.len() as u32;
                self.entries.len() - 1
            }
        };
        &mut self.entries[entry].1
    }

    fn grow(&mut self) {
        let len = (self.index.len() * 2).max(16);
        self.index.clear();
        self.index.resize(len, 0);
        for entry in 0..self.entries.len() {
            let free = self
                .find(self.entries[entry].0)
                .expect_err("keys are distinct");
            self.index[free] = entry as u32 + 1;
        }
    }

    /// Drop every route, keeping the memory.
    fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.entries.clear();
            self.index.fill(0);
        }
    }
}

/// The route a tracked message took, kept by the sender's reliable layer
/// until the message (or its acknowledgement) arrives: the network's fault
/// epoch at send time and the slab slots of the links traversed. Slots
/// outlive the route cache — the slab never frees or reorders records — so
/// a flight stays checkable after the fault that dropped its cache entry.
#[derive(Clone, Debug)]
pub struct Flight {
    epoch: u64,
    slots: Rc<[u32]>,
}

/// The result of [`Network::transmit_tracked`].
#[derive(Clone, Debug)]
pub struct Tracked {
    /// Contention-free latency of the message over the route it took —
    /// what [`Network::estimate`] returns for the same arguments (the
    /// healthy-path shape when no live route exists).
    pub estimate: Cycles,
    /// Arrival time of the last packet and the route taken, or `None`
    /// (nothing charged) when dead links leave no route.
    pub arrival: Option<(Cycles, Flight)>,
}

/// The inter-cluster network: topology, per-link reservation times, and
/// traffic counters.
#[derive(Clone, Debug)]
pub struct Network {
    topology: Topology,
    clusters: u32,
    link_latency: Cycles,
    words_per_cycle: u32,
    max_packet_words: Words,
    header_words: Words,
    /// Size of the topology's link-id space (not the allocated records).
    links: usize,
    /// Sparse per-link state, allocated on first touch.
    slab: LinkSlab,
    /// Whether route lookups memoize (config `route_cache`; off = the
    /// reference path that recomputes every route, for determinism tests).
    cache_enabled: bool,
    /// Memoized routes for touched `(from, to)` pairs, keyed
    /// `from << 32 | to`. Emptied on fault transitions. Interior-mutable so
    /// `&self` estimators can fill it.
    cache: RefCell<RouteTable>,
    /// Count of link-fault transitions (kill, degrade, recover) so far: the
    /// cache generation, and the stamp a [`Flight`] is checked against.
    fault_epoch: u64,
    /// Remote messages transmitted.
    pub messages: u64,
    /// Packets transmitted (after segmentation).
    pub packets: u64,
    /// Packets that took a detour around a dead link.
    pub rerouted_packets: u64,
    /// Payload words moved between clusters.
    pub payload_words: u64,
    /// Header words moved (overhead).
    pub header_words_moved: u64,
}

/// Size of the link-id space for `topology` over `clusters` clusters.
/// Routes store link ids as `u32`, so [`MachineConfig::validate`] rejects
/// a configuration whose space exceeds `u32::MAX`.
pub(crate) fn link_id_space(topology: &Topology, clusters: u32) -> u64 {
    let n = u64::from(clusters);
    match topology {
        Topology::Bus => 1,
        Topology::Ring => 2 * n,
        Topology::Mesh2D { .. } => 4 * n,
        Topology::Crossbar => n * n,
        Topology::Torus { dims } => (2 * n).saturating_mul(dims.len() as u64),
        Topology::FatTree { .. } => 4 * n,
    }
}

impl Network {
    /// Build the network for a machine configuration. Allocation is
    /// O(1) in the cluster count: link records and route-cache entries
    /// appear only as traffic (or faults) touch them.
    ///
    /// # Panics
    /// Panics if the topology's link ids do not fit `u32`, which
    /// [`MachineConfig::validate`] rejects.
    pub fn new(cfg: &MachineConfig) -> Self {
        let links = u32::try_from(link_id_space(&cfg.topology, cfg.clusters))
            .expect("link-id space exceeds u32::MAX");
        Network {
            topology: cfg.topology.clone(),
            clusters: cfg.clusters,
            link_latency: cfg.link_latency,
            words_per_cycle: cfg.words_per_cycle,
            max_packet_words: cfg.max_packet_words,
            header_words: cfg.header_words,
            links: links as usize,
            slab: LinkSlab::default(),
            cache_enabled: cfg.route_cache,
            cache: RefCell::default(),
            fault_epoch: 0,
            messages: 0,
            packets: 0,
            rerouted_packets: 0,
            payload_words: 0,
            header_words_moved: 0,
        }
    }

    /// Kill a link: packets can no longer traverse it; routes that used it
    /// detour where the topology allows.
    pub fn fail_link(&mut self, link: usize) {
        let slot = self.fault_slot(link);
        self.slab.set_dead(slot, true);
    }

    /// Degrade a link: its occupancy is multiplied by `factor` (≥ 1).
    pub fn degrade_link(&mut self, link: usize, factor: u32) {
        let slot = self.fault_slot(link);
        self.slab.links[slot].degrade = factor.max(1);
    }

    /// Restore a link to full health: revive it if dead and clear any
    /// degradation. Routes that detoured around it snap back to the
    /// primary path.
    pub fn recover_link(&mut self, link: usize) {
        let slot = self.fault_slot(link);
        self.slab.set_dead(slot, false);
        self.slab.links[slot].degrade = 1;
    }

    /// The record of a link whose fault state is about to change. Every
    /// cached route is dropped with it: a fault transition can change which
    /// links any pair uses.
    fn fault_slot(&mut self, link: usize) -> usize {
        assert!(link < self.links, "link out of range");
        self.cache.get_mut().clear();
        self.fault_epoch += 1;
        self.slab.ensure(link as u32) as usize
    }

    /// Whether `link` is dead.
    pub fn link_is_dead(&self, link: usize) -> bool {
        u32::try_from(link).is_ok_and(|l| self.slab.is_dead(l))
    }

    fn path_alive(&self, path: &[u32]) -> bool {
        self.slab.dead_links == 0 || path.iter().all(|&l| !self.slab.is_dead(l))
    }

    /// Number of links in the topology (the id space, not the allocated
    /// records — see [`Network::allocated_link_records`] for those).
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Number of link records actually allocated: links that have carried
    /// traffic or held a fault. The regression guard for the sparse-state
    /// refactor and the weak-scaling study's RSS proxy.
    pub fn allocated_link_records(&self) -> usize {
        self.slab.len()
    }

    /// Hop count between two clusters (0 when equal).
    pub fn hops(&self, from: u32, to: u32) -> u32 {
        if from == to {
            return 0;
        }
        match &self.topology {
            Topology::Bus => 1,
            Topology::Crossbar => 1,
            Topology::Ring => {
                let n = self.clusters;
                let fwd = (to + n - from) % n;
                let bwd = (from + n - to) % n;
                fwd.min(bwd)
            }
            Topology::Mesh2D { width } => {
                let (fx, fy) = (from % width, from / width);
                let (tx, ty) = (to % width, to / width);
                fx.abs_diff(tx) + fy.abs_diff(ty)
            }
            Topology::Torus { dims } => {
                let f = torus_coords(dims, from);
                let t = torus_coords(dims, to);
                dims.iter()
                    .enumerate()
                    .map(|(d, &dim)| {
                        let fwd = (t[d] + dim - f[d]) % dim;
                        let bwd = (f[d] + dim - t[d]) % dim;
                        fwd.min(bwd)
                    })
                    .sum()
            }
            Topology::FatTree { radix } => {
                if from / radix == to / radix {
                    2 // up to the edge switch, down to the sibling leaf
                } else {
                    4 // leaf-up, edge-up, core-down, leaf-down
                }
            }
        }
    }

    /// Forward ring path from `from` to `to` (link out of `cur` has id
    /// `cur`); backward uses ids `n + cur`.
    fn ring_path(&self, from: u32, to: u32, forward: bool) -> Vec<u32> {
        let nc = self.clusters;
        let mut path = Vec::new();
        let mut cur = from;
        if forward {
            while cur != to {
                path.push(cur);
                cur = (cur + 1) % nc;
            }
        } else {
            while cur != to {
                path.push(nc + cur);
                cur = (cur + nc - 1) % nc;
            }
        }
        path
    }

    /// Mesh path with dimension order: x-then-y (XY routing) or y-then-x.
    /// Link ids: node*4 + {0:+x, 1:-x, 2:+y, 3:-y}.
    fn mesh_path(&self, width: u32, from: u32, to: u32, x_first: bool) -> Vec<u32> {
        let mut path = Vec::new();
        let (mut cx, mut cy) = (from % width, from / width);
        let (tx, ty) = (to % width, to / width);
        let step_x = |path: &mut Vec<u32>, cx: &mut u32, cy: u32| {
            while *cx != tx {
                let node = cy * width + *cx;
                if *cx < tx {
                    path.push(node * 4);
                    *cx += 1;
                } else {
                    path.push(node * 4 + 1);
                    *cx -= 1;
                }
            }
        };
        let step_y = |path: &mut Vec<u32>, cx: u32, cy: &mut u32| {
            while *cy != ty {
                let node = *cy * width + cx;
                if *cy < ty {
                    path.push(node * 4 + 2);
                    *cy += 1;
                } else {
                    path.push(node * 4 + 3);
                    *cy -= 1;
                }
            }
        };
        if x_first {
            step_x(&mut path, &mut cx, cy);
            step_y(&mut path, cx, &mut cy);
        } else {
            step_y(&mut path, cx, &mut cy);
            step_x(&mut path, &mut cx, cy);
        }
        path
    }

    /// Torus path with dimension-order routing. Link ids:
    /// `node * 2·ndims + 2·d + {0:+, 1:-}` in dimension `d`. `rev` reverses
    /// the dimension order; `anti` takes the long way around each
    /// dimension. The primary route is `(rev: false, anti: false)`: lowest
    /// dimension first, shorter wrap direction (ties go forward), which is
    /// hop-minimal.
    fn torus_path(&self, dims: &[u32], from: u32, to: u32, rev: bool, anti: bool) -> Vec<u32> {
        let nd = dims.len();
        let cur = torus_coords(dims, from);
        let tgt = torus_coords(dims, to);
        let mut strides = [1u32; 4];
        for d in 1..nd {
            strides[d] = strides[d - 1] * dims[d - 1];
        }
        // Shortest-wrap paths are hop-minimal in either dimension order, so
        // their length is known up front: allocate once, at the final size.
        let mut path = Vec::with_capacity(if anti {
            0
        } else {
            self.hops(from, to) as usize
        });
        // The node index is carried along the walk: one stride per step,
        // back across the whole dimension at a wrap.
        let mut node = from;
        for i in 0..nd {
            let d = if rev { nd - 1 - i } else { i };
            let (dim, stride) = (dims[d], strides[d]);
            let fwd = (tgt[d] + dim - cur[d]) % dim;
            if fwd == 0 {
                continue;
            }
            let bwd = dim - fwd;
            let forward = (fwd <= bwd) != anti;
            let steps = if forward { fwd } else { bwd };
            let port = 2 * d as u32 + u32::from(!forward);
            let wrap = (dim - 1) * stride;
            let mut at = cur[d];
            for _ in 0..steps {
                path.push(node * 2 * nd as u32 + port);
                if forward {
                    at = if at + 1 == dim { 0 } else { at + 1 };
                    node = if at == 0 { node - wrap } else { node + stride };
                } else {
                    node = if at == 0 { node + wrap } else { node - stride };
                    at = if at == 0 { dim - 1 } else { at - 1 };
                }
            }
        }
        path
    }

    /// Fat-tree up/down path through core switch `core` (ignored for
    /// same-pod pairs, which turn around at the edge switch). Link ids for
    /// `n` leaves, radix `r`, `p = n/r` pods: leaf-up = `node`, leaf-down =
    /// `n + node`, edge-up(pod, core) = `2n + pod·r + core`, core-down(core,
    /// pod) = `2n + p·r + pod·r + core`.
    fn fat_tree_path(&self, radix: u32, from: u32, to: u32, core: u32) -> Vec<u32> {
        let n = self.clusters;
        let (pod_a, pod_b) = (from / radix, to / radix);
        let up = from;
        let down = n + to;
        if pod_a == pod_b {
            return vec![up, down];
        }
        let pods = n / radix;
        let edge_up = 2 * n + pod_a * radix + core;
        let core_down = 2 * n + pods * radix + pod_b * radix + core;
        vec![up, edge_up, core_down, down]
    }

    /// The healthy-path route (ignores link faults).
    fn primary_route(&self, from: u32, to: u32) -> Vec<u32> {
        if from == to {
            return Vec::new();
        }
        let n = self.clusters;
        match &self.topology {
            Topology::Bus => vec![0],
            Topology::Crossbar => vec![from * n + to],
            Topology::Ring => {
                let nc = self.clusters;
                let fwd = (to + nc - from) % nc;
                let bwd = (from + nc - to) % nc;
                self.ring_path(from, to, fwd <= bwd)
            }
            Topology::Mesh2D { width } => self.mesh_path(*width, from, to, true),
            Topology::Torus { dims } => self.torus_path(dims, from, to, false, false),
            Topology::FatTree { radix } => self.fat_tree_path(*radix, from, to, to % radix),
        }
    }

    /// Pick a live route: the primary path when intact, otherwise the
    /// topology's deterministic detour. Returns the path and whether it is
    /// a detour; `None` when every candidate crosses a dead link. This is
    /// the uncached reference computation; hot paths go through
    /// [`Network::route_into`] which memoizes its result per fault epoch.
    ///
    /// Detour candidates are checked whole (`path_alive`), in a fixed
    /// order, so a chosen detour never crosses — and never revisits — a
    /// dead link, and the choice depends only on the fault state.
    fn compute_route(&self, from: u32, to: u32) -> Option<Route> {
        let primary = self.primary_route(from, to);
        if self.path_alive(&primary) {
            return Some(Route::of_links(primary, false));
        }
        let n = self.clusters;
        let alt = match &self.topology {
            Topology::Bus => None,
            Topology::Crossbar => {
                // Two-hop detour via the lowest-indexed live intermediate.
                (0..self.clusters)
                    .filter(|&k| k != from && k != to)
                    .map(|k| vec![from * n + k, k * n + to])
                    .find(|p| self.path_alive(p))
            }
            Topology::Ring => {
                let nc = self.clusters;
                let fwd = (to + nc - from) % nc;
                let bwd = (from + nc - to) % nc;
                // The non-preferred direction.
                let other = self.ring_path(from, to, fwd > bwd);
                self.path_alive(&other).then_some(other)
            }
            Topology::Mesh2D { width } => {
                let yx = self.mesh_path(*width, from, to, false);
                self.path_alive(&yx).then_some(yx)
            }
            Topology::Torus { dims } => {
                // Reverse the dimension order first (hop-minimal, like the
                // mesh's YX fallback), then the long-way-around variants.
                [(true, false), (false, true), (true, true)]
                    .into_iter()
                    .map(|(rev, anti)| self.torus_path(dims, from, to, rev, anti))
                    .find(|p| self.path_alive(p))
            }
            Topology::FatTree { radix } => {
                // Same hop count through any core: try them in ascending
                // order. Same-pod pairs have a unique up/down path (no
                // detour exists past a dead leaf link).
                let radix = *radix;
                (0..radix)
                    .filter(|&c| c != to % radix)
                    .map(|c| self.fat_tree_path(radix, from, to, c))
                    .find(|p| self.path_alive(p))
            }
        };
        alt.map(|p| Route::of_links(p, true))
    }

    /// Run `f` on the current route for `(from, to)` (`None` when no live
    /// route exists), computing and caching it if this epoch has not seen
    /// the pair yet; unreachable pairs are cached too, so repeated probes
    /// stay cheap. `f` must not look up another route.
    fn with_route<R>(&self, from: u32, to: u32, f: impl FnOnce(Option<&Route>) -> R) -> R {
        if !self.cache_enabled {
            return f(self.compute_route(from, to).as_ref());
        }
        let mut cache = self.cache.borrow_mut();
        let route = cache.entry(pair_key(from, to), || self.compute_route(from, to));
        f(route.as_ref())
    }

    /// The link ids a message from `from` to `to` would traverse right now,
    /// or `None` when no live route exists (reliable layers use this both
    /// to detect unreachable clusters and to loss-check in-flight packets).
    pub fn route_links(&self, from: u32, to: u32) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        self.with_route(from, to, |route| Some(route?.link_ids(&self.slab)))
    }

    /// Transmit `words` of payload from cluster `from` to cluster `to`,
    /// starting no earlier than `now`. Returns the arrival time of the last
    /// packet at `to`.
    ///
    /// Intra-cluster transfers (`from == to`) move through the shared
    /// memory: they cost one memory pass (`words / words_per_cycle`) and use
    /// no links, and are *not* counted as network messages.
    pub fn transmit(&mut self, now: Cycles, from: u32, to: u32, words: Words) -> Cycles {
        self.try_transmit(now, from, to, words)
            .expect("no live route between clusters")
    }

    /// Fallible [`Network::transmit`]: returns `None` (charging nothing)
    /// when dead links leave no route from `from` to `to`.
    pub fn try_transmit(
        &mut self,
        now: Cycles,
        from: u32,
        to: u32,
        words: Words,
    ) -> Option<Cycles> {
        assert!(
            from < self.clusters && to < self.clusters,
            "cluster out of range"
        );
        if from == to {
            return Some(now + words.div_ceil(self.words_per_cycle as Words).max(1));
        }
        self.carry(now, from, to, words, |_, _| ())
            .map(|(arrival, ())| arrival)
    }

    /// [`Network::try_transmit`] for a remote pair, plus what a reliable
    /// layer needs to arm a timeout and to loss-check the message when it
    /// arrives — from the one route lookup the transmit does anyway: the
    /// forward-leg [`Network::estimate`] and the [`Flight`] to hand to
    /// [`Network::flight_lost`]. Charges and allocates exactly what
    /// `try_transmit` does.
    ///
    /// # Panics
    /// Panics if `from == to`: a local transfer uses no links, so there is
    /// nothing to track.
    pub fn transmit_tracked(&mut self, now: Cycles, from: u32, to: u32, words: Words) -> Tracked {
        assert!(
            from < self.clusters && to < self.clusters,
            "cluster out of range"
        );
        assert!(from != to, "a local transfer has no route to track");
        let sent = self.carry(now, from, to, words, |net, route| {
            let flight = Flight {
                epoch: net.fault_epoch,
                slots: route.shared_slots(),
            };
            (net.estimate_over(route, words), flight)
        });
        match sent {
            Some((arrival, (estimate, flight))) => Tracked {
                estimate,
                arrival: Some((arrival, flight)),
            },
            None => Tracked {
                estimate: self.estimate(from, to, words),
                arrival: None,
            },
        }
    }

    /// Whether a link of the route `flight` took has died since it was
    /// sent and is still dead now — the arrival-time loss rule. A live
    /// route whose network saw no fault transition since cannot have lost
    /// a link, so an unchanged epoch answers without looking; otherwise the
    /// route's own slots are checked, which is the same predicate as
    /// [`Network::link_is_dead`] over the link ids it traversed (a link
    /// killed and repaired before arrival does not lose the message).
    pub fn flight_lost(&self, flight: &Flight) -> bool {
        let any_dead = || flight.slots.iter().any(|&s| self.slab.dead[s as usize]);
        debug_assert!(
            flight.epoch != self.fault_epoch || !any_dead(),
            "a route lost a link with no fault transition"
        );
        flight.epoch != self.fault_epoch && any_dead()
    }

    /// Carry one remote message over its current route, reserving links.
    /// `track` sees the resolved route before any link is reserved; its
    /// result rides along with the arrival time. `None` (nothing charged,
    /// `track` not called) when no live route exists.
    fn carry<T>(
        &mut self,
        now: Cycles,
        from: u32,
        to: u32,
        words: Words,
        track: impl FnOnce(&Self, &mut Route) -> T,
    ) -> Option<(Cycles, T)> {
        // The route stays where it lives (the cache entry, or a local when
        // caching is off): the cache and the slab are disjoint fields, so
        // the contention loop below mutates link records while reading it.
        let mut uncached;
        let mut cache;
        let route = if self.cache_enabled {
            cache = self.cache.borrow_mut();
            cache
                .entry(pair_key(from, to), || self.compute_route(from, to))
                .as_mut()?
        } else {
            uncached = self.compute_route(from, to)?;
            &mut uncached
        };
        route.resolve(&mut self.slab);
        let tracked = track(self, route);
        let (hops, rerouted) = (route.hops(), route.rerouted());
        self.messages += 1;
        self.payload_words += words;
        let mut remaining = words;
        let mut arrival = now;
        // Segment; a zero-word message still sends one header-only packet.
        let mut first = true;
        // Time at which the next packet may enter the first link (FIFO
        // injection at the source).
        let mut inject_at = now;
        while remaining > 0 || first {
            first = false;
            let chunk = remaining.min(self.max_packet_words);
            remaining -= chunk;
            let packet_words = chunk + self.header_words;
            self.packets += 1;
            if rerouted {
                self.rerouted_packets += 1;
            }
            self.header_words_moved += self.header_words;
            let occ = packet_words.div_ceil(self.words_per_cycle as Words).max(1);
            // Store-and-forward over the route with per-link FIFO contention.
            let mut t = inject_at;
            for (hop, &slot) in hops.iter().enumerate() {
                let link = &mut self.slab.links[slot as usize];
                let link_occ = occ * link.degrade as Cycles;
                let start = t.max(link.free);
                link.free = start + link_occ;
                link.busy += link_occ;
                t = start + link_occ + self.link_latency;
                if hop == 0 {
                    // The next packet can be injected once the first link
                    // frees up.
                    inject_at = start + link_occ;
                }
            }
            arrival = arrival.max(t);
        }
        Some((arrival, tracked))
    }

    /// Contention-free latency estimate for `words` from `from` to `to`
    /// under the current route and degradation factors — the reliable
    /// layer's basis for retransmission timeouts. Ignores queueing; when no
    /// live route exists the healthy-path shape is used (the timeout will
    /// fire and the message dead-letter).
    pub fn estimate(&self, from: u32, to: u32, words: Words) -> Cycles {
        if from == to {
            return words.div_ceil(self.words_per_cycle as Words).max(1);
        }
        self.with_route(from, to, |route| match route {
            Some(route) => self.estimate_over(route, words),
            None => {
                self.estimate_over(&Route::of_links(self.primary_route(from, to), false), words)
            }
        })
    }

    fn estimate_over(&self, route: &Route, words: Words) -> Cycles {
        let mut remaining = words;
        let mut first = true;
        let mut inject_at = 0;
        let mut arrival = 0;
        while remaining > 0 || first {
            first = false;
            let chunk = remaining.min(self.max_packet_words);
            remaining -= chunk;
            let packet_words = chunk + self.header_words;
            let occ = packet_words.div_ceil(self.words_per_cycle as Words).max(1);
            let mut t = inject_at;
            for (hop, degrade) in route.degrades(&self.slab).enumerate() {
                let link_occ = occ * degrade;
                t += link_occ + self.link_latency;
                if hop == 0 {
                    inject_at += link_occ;
                }
            }
            arrival = arrival.max(t);
        }
        arrival
    }

    /// A lower bound on the delivery latency of *any* message from `from`
    /// to `to` under the current route and link state, or `None` when no
    /// live route exists.
    ///
    /// Every packet occupies each link of its route for at least one cycle
    /// (scaled by the link's degradation factor) and then pays the link
    /// latency, so the bound is `Σ (degrade + link_latency)` over the
    /// current route — independent of message size, contention, and
    /// injection time. The kernel's debug build checks every remote
    /// delivery against it; it is only valid until the next fault-state
    /// change, which recomputes routes.
    pub fn min_delivery_latency(&self, from: u32, to: u32) -> Option<Cycles> {
        if from == to {
            // Local transfers cost at least one memory-pass cycle.
            return Some(1);
        }
        self.with_route(from, to, |route| {
            let bound: Cycles = route?
                .degrades(&self.slab)
                .map(|degrade| degrade + self.link_latency)
                .sum();
            Some(bound.max(1))
        })
    }

    /// Highest per-link busy-cycle count (the bottleneck link).
    pub fn max_link_busy(&self) -> Cycles {
        self.slab.links.iter().map(|l| l.busy).max().unwrap_or(0)
    }

    /// Total busy cycles across all links.
    pub fn total_link_busy(&self) -> Cycles {
        self.slab.links.iter().map(|l| l.busy).sum()
    }

    /// Total words moved including headers.
    pub fn total_words_moved(&self) -> u64 {
        self.payload_words + self.header_words_moved
    }

    /// Reset traffic counters and link reservations (new experiment phase).
    /// Link fault state (dead/degraded) is hardware, not traffic, and is
    /// preserved.
    pub fn reset(&mut self) {
        for link in &mut self.slab.links {
            link.free = 0;
            link.busy = 0;
        }
        self.messages = 0;
        self.packets = 0;
        self.rerouted_packets = 0;
        self.payload_words = 0;
        self.header_words_moved = 0;
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

/// Route-cache key of an ordered cluster pair.
fn pair_key(from: u32, to: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// Row-major coordinates of `node` in a torus of the given extents
/// (dimension 0 has the lowest stride). Padded to the 4-D maximum.
fn torus_coords(dims: &[u32], node: u32) -> [u32; 4] {
    debug_assert!(dims.len() <= 4);
    let mut c = [0u32; 4];
    let mut rest = node;
    for (d, &dim) in dims.iter().enumerate() {
        c[d] = rest % dim;
        rest /= dim;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    /// Inverse of [`torus_coords`].
    fn torus_index(dims: &[u32], coords: &[u32; 4]) -> u32 {
        let mut idx = 0;
        let mut stride = 1;
        for (d, &dim) in dims.iter().enumerate() {
            idx += coords[d] * stride;
            stride *= dim;
        }
        idx
    }

    fn cfg(topology: Topology, clusters: u32) -> MachineConfig {
        let mut c = MachineConfig::fem2_default();
        c.topology = topology;
        c.clusters = clusters;
        c
    }

    /// `net_cold` is bound by the route table: a route must not grow past
    /// the fat pointer and flags it held before routes could be shared with
    /// flights, so a table entry is 32 bytes with its key.
    #[test]
    fn cached_route_stays_three_words() {
        let words = 3 * std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<Route>(), words);
        assert_eq!(std::mem::size_of::<Option<Route>>(), words);
        assert_eq!(std::mem::size_of::<(u64, Option<Route>)>(), 32);
    }

    fn pages(n: &Network) -> usize {
        n.slab.pages.iter().flatten().count()
    }

    /// (entries, entry capacity, index length) of the route table.
    fn table(n: &Network) -> (usize, usize, usize) {
        let t = n.cache.borrow();
        (t.entries.len(), t.entries.capacity(), t.index.len())
    }

    /// The memory contract of the link index and the route table on a
    /// 4096-cluster 2-D torus swept the way `net_cold` sweeps it.
    #[test]
    fn index_pages_and_route_table_follow_the_traffic() {
        let c = torus(&[64, 64]);
        let mut n = Network::new(&c);
        assert_eq!((pages(&n), n.slab.pages.capacity()), (0, 0));
        assert_eq!(
            (table(&n), n.cache.borrow().index.capacity()),
            ((0, 0, 0), 0)
        );

        // Read-only probes fill the route table and leave the slab alone.
        for from in 0..4096 {
            let to = (from + 2048) % 4096;
            n.estimate(from, to, 64);
            n.route_links(from, to).unwrap();
            n.min_delivery_latency(from, to).unwrap();
        }
        assert_eq!((pages(&n), n.allocated_link_records()), (0, 0));
        assert_eq!(table(&n).0, 4096);

        for from in 0..4096 {
            n.transmit(0, from, (from + 1) % 4096, 64);
            n.transmit(0, from, (from + 2048) % 4096, 64);
        }
        // Every cluster's +dim0 and +dim1 link, and no other.
        assert_eq!(n.allocated_link_records(), 8192);
        assert!(pages(&n) <= n.link_count() / PAGE);
        let swept = table(&n);
        assert_eq!(swept, (8192, 8192, 16384), "at most half full");

        // A fault on a link with a record: the table is emptied in place,
        // the slab is as it was.
        n.fail_link(0);
        n.degrade_link(2, 3);
        n.recover_link(0);
        assert_eq!(table(&n), (0, swept.1, swept.2));
        assert_eq!((pages(&n), n.allocated_link_records()), (64, 8192));
        // A fault on an untouched link pins one record, on a page of its own
        // if need be.
        let mut xbar = Network::new(&cfg(Topology::Crossbar, 64));
        xbar.fail_link(4095);
        assert_eq!((pages(&xbar), xbar.slab.pages.len()), (1, 16));
        assert_eq!(xbar.allocated_link_records(), 1);
    }

    /// The torus walk that recomputes the node index from its coordinates
    /// at every hop, kept as the reference for the one that carries it.
    fn torus_path_by_coords(dims: &[u32], from: u32, to: u32, rev: bool, anti: bool) -> Vec<u32> {
        let nd = dims.len();
        let mut cur = torus_coords(dims, from);
        let tgt = torus_coords(dims, to);
        let mut path = Vec::new();
        for i in 0..nd {
            let d = if rev { nd - 1 - i } else { i };
            let dim = dims[d];
            let fwd = (tgt[d] + dim - cur[d]) % dim;
            let forward = (fwd <= dim - fwd) != anti;
            let steps = if forward { fwd } else { (dim - fwd) % dim };
            for _ in 0..steps {
                let node = torus_index(dims, &cur);
                path.push(node * 2 * nd as u32 + 2 * d as u32 + u32::from(!forward));
                cur[d] = (cur[d] + if forward { 1 } else { dim - 1 }) % dim;
            }
        }
        path
    }

    proptest::proptest! {
        /// Extent 2 is where forward and backward tie; odd extents are
        /// where they never do.
        #[test]
        fn torus_walk_by_stride_matches_walk_by_coordinates(
            dims in proptest::collection::vec(2u32..=9, 2..5),
            from in proptest::prelude::any::<u32>(),
            to in proptest::prelude::any::<u32>(),
            rev in proptest::prelude::any::<bool>(),
            anti in proptest::prelude::any::<bool>(),
        ) {
            let c = torus(&dims);
            let n = Network::new(&c);
            let (from, to) = (from % c.clusters, to % c.clusters);
            proptest::prop_assert_eq!(
                n.torus_path(&dims, from, to, rev, anti),
                torus_path_by_coords(&dims, from, to, rev, anti)
            );
        }
    }

    #[test]
    fn hop_counts_per_topology() {
        let bus = Network::new(&cfg(Topology::Bus, 8));
        assert_eq!(bus.hops(0, 7), 1);
        assert_eq!(bus.hops(3, 3), 0);

        let xbar = Network::new(&cfg(Topology::Crossbar, 8));
        assert_eq!(xbar.hops(0, 7), 1);

        let ring = Network::new(&cfg(Topology::Ring, 8));
        assert_eq!(ring.hops(0, 1), 1);
        assert_eq!(ring.hops(0, 4), 4);
        assert_eq!(ring.hops(0, 7), 1); // wraps backward
        assert_eq!(ring.hops(6, 2), 4);

        let mesh = Network::new(&cfg(Topology::Mesh2D { width: 4 }, 16));
        assert_eq!(mesh.hops(0, 3), 3); // same row
        assert_eq!(mesh.hops(0, 15), 6); // 3 x + 3 y
        assert_eq!(mesh.hops(5, 5), 0);
    }

    #[test]
    fn link_counts() {
        assert_eq!(Network::new(&cfg(Topology::Bus, 8)).link_count(), 1);
        assert_eq!(Network::new(&cfg(Topology::Ring, 8)).link_count(), 16);
        assert_eq!(
            Network::new(&cfg(Topology::Mesh2D { width: 4 }, 16)).link_count(),
            64
        );
        assert_eq!(Network::new(&cfg(Topology::Crossbar, 8)).link_count(), 64);
    }

    #[test]
    fn local_transfer_uses_no_links() {
        let mut n = Network::new(&cfg(Topology::Bus, 4));
        let t = n.transmit(100, 2, 2, 64);
        assert_eq!(t, 100 + 64);
        assert_eq!(n.messages, 0);
        assert_eq!(n.packets, 0);
        assert_eq!(n.total_link_busy(), 0);
    }

    #[test]
    fn single_packet_arrival_time() {
        let mut c = cfg(Topology::Crossbar, 4);
        c.link_latency = 10;
        c.words_per_cycle = 1;
        c.max_packet_words = 256;
        c.header_words = 4;
        let mut n = Network::new(&c);
        // 32 payload + 4 header = 36 cycles occupancy + 10 latency.
        let t = n.transmit(0, 0, 1, 32);
        assert_eq!(t, 36 + 10);
        assert_eq!(n.messages, 1);
        assert_eq!(n.packets, 1);
        assert_eq!(n.payload_words, 32);
        assert_eq!(n.header_words_moved, 4);
    }

    #[test]
    fn zero_word_message_sends_header_packet() {
        let mut n = Network::new(&cfg(Topology::Crossbar, 4));
        let t0 = n.transmit(0, 0, 1, 0);
        assert!(t0 > 0);
        assert_eq!(n.packets, 1);
        assert_eq!(n.payload_words, 0);
        assert!(n.header_words_moved > 0);
    }

    #[test]
    fn segmentation_counts_packets() {
        let mut c = cfg(Topology::Crossbar, 4);
        c.max_packet_words = 100;
        let mut n = Network::new(&c);
        n.transmit(0, 0, 1, 250); // 100 + 100 + 50
        assert_eq!(n.packets, 3);
        assert_eq!(n.header_words_moved, 3 * c.header_words);
    }

    #[test]
    fn bus_serializes_concurrent_transfers() {
        let mut c = cfg(Topology::Bus, 8);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        let t1 = n.transmit(0, 0, 1, 100);
        let t2 = n.transmit(0, 2, 3, 100); // different pair, same bus
        assert_eq!(t1, 100);
        assert_eq!(t2, 200, "bus transfers serialize");
    }

    #[test]
    fn crossbar_parallel_transfers_do_not_contend() {
        let mut c = cfg(Topology::Crossbar, 8);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        let t1 = n.transmit(0, 0, 1, 100);
        let t2 = n.transmit(0, 2, 3, 100);
        assert_eq!(t1, 100);
        assert_eq!(t2, 100, "disjoint crossbar paths run in parallel");
    }

    #[test]
    fn same_pair_crossbar_transfers_serialize() {
        let mut c = cfg(Topology::Crossbar, 8);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        let t1 = n.transmit(0, 0, 1, 100);
        let t2 = n.transmit(0, 0, 1, 100);
        assert_eq!(t1, 100);
        assert_eq!(t2, 200);
    }

    #[test]
    fn ring_multi_hop_latency_accumulates() {
        let mut c = cfg(Topology::Ring, 8);
        c.link_latency = 5;
        c.header_words = 0;
        c.words_per_cycle = 1;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        // 0 -> 2 is 2 hops forward: occupancy 10 per link, store-and-forward.
        let t = n.transmit(0, 0, 2, 10);
        assert_eq!(t, (10 + 5) * 2);
    }

    #[test]
    fn packets_pipeline_across_hops() {
        let mut c = cfg(Topology::Ring, 8);
        c.link_latency = 0;
        c.header_words = 0;
        c.words_per_cycle = 1;
        c.max_packet_words = 10;
        let mut n = Network::new(&c);
        // 2 hops, 3 packets of 10 words. Without pipelining: 3 * 20 = 60.
        // With pipelining the last packet enters link 0 at t=20, arrives 40.
        let t = n.transmit(0, 0, 2, 30);
        assert_eq!(t, 40);
    }

    #[test]
    fn mesh_xy_route_respects_dimension_order() {
        let c = cfg(Topology::Mesh2D { width: 4 }, 16);
        let n = Network::new(&c);
        // 0 (0,0) -> 15 (3,3): route through x then y, 6 links.
        let r = n.route_links(0, 15).unwrap();
        assert_eq!(r.len(), 6);
        // First three are +x links of nodes 0,1,2.
        assert_eq!(&r[..3], &[0, 4, 8]);
    }

    #[test]
    fn reset_clears_counters_and_reservations() {
        let mut n = Network::new(&cfg(Topology::Bus, 4));
        n.transmit(0, 0, 1, 100);
        assert!(n.messages > 0);
        n.reset();
        assert_eq!(n.messages, 0);
        assert_eq!(n.packets, 0);
        assert_eq!(n.total_link_busy(), 0);
        // After reset, transfers start from a clean bus.
        let t = n.transmit(0, 0, 1, 10);
        let occ = (10u64 + 4).div_ceil(1);
        assert_eq!(t, occ + n.link_latency);
    }

    #[test]
    fn total_words_moved_includes_headers() {
        let mut n = Network::new(&cfg(Topology::Crossbar, 4));
        n.transmit(0, 0, 1, 10);
        assert_eq!(n.total_words_moved(), 10 + 4);
    }

    #[test]
    #[should_panic(expected = "cluster out of range")]
    fn out_of_range_cluster_panics() {
        let mut n = Network::new(&cfg(Topology::Bus, 4));
        n.transmit(0, 0, 9, 10);
    }

    #[test]
    fn dead_crossbar_link_takes_two_hop_detour() {
        let mut c = cfg(Topology::Crossbar, 4);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        n.fail_link(1); // 0 -> 1 direct
        assert!(n.link_is_dead(1));
        // Detour via cluster 2 (lowest live intermediate): 2 hops.
        assert_eq!(n.route_links(0, 1), Some(vec![2, 2 * 4 + 1]));
        let t = n.transmit(0, 0, 1, 100);
        assert_eq!(t, 200, "two store-and-forward hops");
        assert_eq!(n.rerouted_packets, 1);
    }

    #[test]
    fn dead_bus_is_unreachable() {
        let mut n = Network::new(&cfg(Topology::Bus, 4));
        n.fail_link(0);
        assert_eq!(n.route_links(0, 1), None);
        assert_eq!(n.try_transmit(0, 0, 1, 10), None);
        assert_eq!(n.messages, 0, "unreachable transfers charge nothing");
    }

    #[test]
    fn dead_ring_link_reroutes_the_long_way() {
        let mut c = cfg(Topology::Ring, 4);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        // 0 -> 1 prefers forward link 0; kill it.
        n.fail_link(0);
        // Backward: 0 -> 3 -> 2 -> 1 over links n+0, n+3, n+2.
        assert_eq!(n.route_links(0, 1), Some(vec![4, 7, 6]));
        let t = n.transmit(0, 0, 1, 10);
        assert_eq!(t, 30, "three hops instead of one");
        // Both directions severed between 0 and 1 -> unreachable.
        n.fail_link(6);
        assert_eq!(n.route_links(0, 1), None);
    }

    #[test]
    fn dead_mesh_link_falls_back_to_yx() {
        let c = cfg(Topology::Mesh2D { width: 2 }, 4);
        let mut n = Network::new(&c);
        // 0 (0,0) -> 3 (1,1): XY route is +x at node 0 (link 0), +y at
        // node 1 (link 6).
        assert_eq!(n.route_links(0, 3), Some(vec![0, 6]));
        n.fail_link(0);
        // YX: +y at node 0 (link 2), +x at node 2 (link 8).
        assert_eq!(n.route_links(0, 3), Some(vec![2, 8]));
        n.fail_link(2);
        assert_eq!(n.route_links(0, 3), None);
    }

    #[test]
    fn degraded_link_slows_but_does_not_reroute() {
        let mut c = cfg(Topology::Crossbar, 4);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        n.degrade_link(1, 4);
        let t = n.transmit(0, 0, 1, 100);
        assert_eq!(t, 400, "4x occupancy on the degraded link");
        assert_eq!(n.rerouted_packets, 0);
    }

    #[test]
    fn estimate_matches_contention_free_transmit() {
        let mut c = cfg(Topology::Ring, 8);
        c.link_latency = 5;
        let mut n = Network::new(&c);
        let est = n.estimate(0, 2, 30);
        let t = n.transmit(0, 0, 2, 30);
        assert_eq!(est, t, "estimate equals transmit on an idle network");
        assert_eq!(n.estimate(3, 3, 64), 64);
    }

    #[test]
    fn recover_link_restores_primary_route_and_clears_degrade() {
        let mut c = cfg(Topology::Mesh2D { width: 2 }, 4);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        assert_eq!(n.route_links(0, 3), Some(vec![0, 6]));
        n.fail_link(0);
        assert_eq!(n.route_links(0, 3), Some(vec![2, 8]), "YX detour");
        n.degrade_link(2, 8);
        n.recover_link(0);
        n.recover_link(2);
        assert!(!n.link_is_dead(0));
        assert_eq!(n.route_links(0, 3), Some(vec![0, 6]), "primary is back");
        let t = n.transmit(0, 0, 3, 100);
        assert_eq!(t, 200, "no residual degradation after repair");
    }

    #[test]
    fn route_cache_serves_repeated_lookups_and_invalidates_on_faults() {
        let c = cfg(Topology::Crossbar, 8);
        let mut n = Network::new(&c);
        // Same pair twice: second lookup is served from the cache and must
        // equal the first.
        let first = n.route_links(2, 5);
        assert_eq!(n.route_links(2, 5), first);
        // Kill the direct link: the cached entry must not survive.
        let direct = first.unwrap()[0];
        n.fail_link(direct);
        let detour = n.route_links(2, 5).unwrap();
        assert_eq!(detour.len(), 2, "two-hop detour after invalidation");
        n.recover_link(direct);
        assert_eq!(n.route_links(2, 5), Some(vec![direct]));
    }

    /// Cached and uncached networks must produce bitwise-identical arrival
    /// times and traffic counters over an arbitrary transmit sequence that
    /// spans a link failure and its repair.
    #[test]
    fn cached_matches_uncached_across_fail_and_recovery() {
        let run = |route_cache: bool| {
            let mut c = cfg(Topology::Ring, 8);
            c.route_cache = route_cache;
            let mut n = Network::new(&c);
            let mut log = Vec::new();
            let mut t = 0;
            for step in 0..200u64 {
                if step == 60 {
                    n.fail_link(0);
                }
                if step == 140 {
                    n.recover_link(0);
                }
                let from = (step * 3) % 8;
                let to = (step * 5 + 1) % 8;
                if let Some(arr) = n.try_transmit(t, from as u32, to as u32, 16 + step % 64) {
                    log.push(arr);
                    t = t.max(arr / 2);
                }
                log.push(n.estimate(to as u32, from as u32, 32));
            }
            (
                log,
                n.messages,
                n.packets,
                n.rerouted_packets,
                n.total_link_busy(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn max_link_busy_tracks_bottleneck() {
        let mut c = cfg(Topology::Ring, 4);
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        n.transmit(0, 0, 1, 50);
        n.transmit(0, 0, 1, 50);
        assert_eq!(n.max_link_busy(), 100);
        assert_eq!(n.total_link_busy(), 100);
    }

    fn torus(dims: &[u32]) -> MachineConfig {
        let clusters = dims.iter().product();
        let mut c = cfg(
            Topology::Torus {
                dims: dims.to_vec(),
            },
            clusters,
        );
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        c
    }

    #[test]
    fn torus_and_fat_tree_link_id_spaces() {
        assert_eq!(Network::new(&torus(&[4, 4])).link_count(), 64);
        assert_eq!(Network::new(&torus(&[4, 4, 4])).link_count(), 64 * 6);
        assert_eq!(
            Network::new(&cfg(Topology::FatTree { radix: 4 }, 8)).link_count(),
            32
        );
    }

    #[test]
    fn torus_hops_take_the_shorter_wrap_per_dimension() {
        let n = Network::new(&torus(&[4, 4]));
        assert_eq!(n.hops(0, 0), 0);
        assert_eq!(n.hops(0, 1), 1);
        assert_eq!(n.hops(0, 3), 1, "wraps backward in dim 0");
        assert_eq!(n.hops(0, 5), 2);
        assert_eq!(n.hops(0, 15), 2, "wraps in both dimensions");
        let n = Network::new(&torus(&[4, 4, 4]));
        assert_eq!(n.hops(0, 63), 3, "one backward wrap per dimension");
    }

    #[test]
    fn torus_route_respects_dimension_order_and_wrap() {
        let n = Network::new(&torus(&[4, 4]));
        // 0 (0,0) -> 5 (1,1): +dim0 at node 0 (link 0), +dim1 at node 1
        // (link 1*4+2 = 6).
        assert_eq!(n.route_links(0, 5), Some(vec![0, 6]));
        // 0 -> 3: backward wrap (1 hop, link 0*4+1) beats 3 forward hops.
        assert_eq!(n.route_links(0, 3), Some(vec![1]));
    }

    #[test]
    fn dead_torus_link_detours_in_reverse_dimension_order() {
        let mut n = Network::new(&torus(&[4, 4]));
        n.fail_link(0); // node 0's +dim0 link
                        // dim1 first: +dim1 at node 0 (link 2), +dim0 at node 4 (link 16).
        let detour = n.route_links(0, 5).unwrap();
        assert_eq!(detour, vec![2, 16]);
        assert_eq!(detour.len() as u32, n.hops(0, 5), "detour stays minimal");
        assert!(detour.iter().all(|&l| !n.link_is_dead(l)));
        // Kill the reverse-order path too: the long-way-around fallback
        // still avoids every dead link.
        n.fail_link(2);
        let long_way = n.route_links(0, 5).unwrap();
        assert!(long_way.iter().all(|&l| !n.link_is_dead(l)));
        assert_eq!(long_way.len(), 6, "3 backward hops per dimension");
        let t = n.transmit(0, 0, 5, 10);
        assert_eq!(t, 60, "six store-and-forward hops");
        assert_eq!(n.rerouted_packets, 1);
    }

    #[test]
    fn fat_tree_routes_up_and_down() {
        let mut c = cfg(Topology::FatTree { radix: 4 }, 8);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        // Same pod: leaf-up 0, leaf-down 8+1.
        assert_eq!(n.route_links(0, 1), Some(vec![0, 9]));
        assert_eq!(n.hops(0, 1), 2);
        // Cross pod via core 5 % 4 = 1: leaf-up 0, edge-up 16+1,
        // core-down 16+8+4+1, leaf-down 8+5.
        assert_eq!(n.route_links(0, 5), Some(vec![0, 17, 29, 13]));
        assert_eq!(n.hops(0, 5), 4);
        let t = n.transmit(0, 0, 5, 10);
        assert_eq!(t, 40, "four store-and-forward hops");
    }

    #[test]
    fn dead_fat_tree_uplink_detours_through_another_core() {
        let mut c = cfg(Topology::FatTree { radix: 4 }, 8);
        c.link_latency = 0;
        c.header_words = 0;
        c.max_packet_words = 1000;
        let mut n = Network::new(&c);
        n.fail_link(17); // pod 0's edge-up to core 1 (primary for dst 5)
                         // Core 0 is the lowest live alternative; hop count is unchanged.
        assert_eq!(n.route_links(0, 5), Some(vec![0, 16, 28, 13]));
        let t = n.transmit(0, 0, 5, 10);
        assert_eq!(t, 40);
        assert_eq!(n.rerouted_packets, 1);
        // A dead leaf uplink has no alternative: the leaf is cut off.
        n.fail_link(0);
        assert_eq!(n.route_links(0, 5), None);
        assert_eq!(n.route_links(0, 1), None);
    }

    /// The sparse-state regression guard: a big crossbar allocates link
    /// records only for links that carry traffic or hold a fault — never
    /// the n² id space.
    #[test]
    fn link_records_allocated_lazily() {
        let mut n = Network::new(&cfg(Topology::Crossbar, 64));
        assert_eq!(n.link_count(), 64 * 64);
        assert_eq!(n.allocated_link_records(), 0, "no traffic, no records");
        n.transmit(0, 0, 1, 100);
        n.transmit(0, 0, 1, 100); // same pair reuses the record
        n.transmit(0, 5, 9, 100);
        assert_eq!(n.allocated_link_records(), 2, "one record per used link");
        n.fail_link(63); // faults pin a record too
        assert_eq!(n.allocated_link_records(), 3);
        n.reset();
        assert_eq!(n.total_link_busy(), 0);
        assert!(n.link_is_dead(63), "reset keeps fault state");
        assert_eq!(n.allocated_link_records(), 3, "reset keeps the slab");
    }

    #[test]
    #[should_panic(expected = "link out of range")]
    fn out_of_range_link_fault_panics() {
        let mut n = Network::new(&cfg(Topology::Bus, 4));
        n.fail_link(1);
    }

    #[test]
    fn min_delivery_latency_never_dips_below_one_healthy_hop() {
        let mut c = cfg(Topology::Ring, 8);
        c.link_latency = 20;
        let mut n = Network::new(&c);
        // Degrade and kill links arbitrarily: no pair's actual minimum
        // delivery latency may dip below the healthy single-hop floor.
        n.degrade_link(0, 7);
        n.fail_link(3);
        let floor = 1 + c.link_latency;
        for from in 0..8 {
            for to in 0..8 {
                if from == to {
                    continue;
                }
                if let Some(b) = n.min_delivery_latency(from, to) {
                    assert!(b >= floor, "{from}->{to}: {b} < {floor}");
                }
            }
        }
    }
}
