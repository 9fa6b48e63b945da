//! Tasks and their placement on clusters.
//!
//! A [`TaskSet`] is a fixed crew of logical tasks (the unit the numerical
//! analyst thinks in), block-mapped onto the machine's clusters: task `t` of
//! `n` lives on cluster `t * clusters / n`. Block mapping keeps neighbouring
//! tasks on the same cluster, which is what makes nearest-neighbour FEM
//! communication mostly intra-cluster on the FEM-2 organization.

use std::fmt;

/// Handle of one logical task within a [`TaskSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskHandle(pub u32);

impl fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A crew of `n` logical tasks block-mapped over `clusters` clusters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskSet {
    n: u32,
    clusters: u32,
}

impl TaskSet {
    /// A set of `n ≥ 1` tasks over `clusters ≥ 1` clusters.
    pub fn new(n: u32, clusters: u32) -> Self {
        assert!(n >= 1 && clusters >= 1, "empty task set or machine");
        TaskSet { n, clusters }
    }

    /// Number of tasks.
    pub(crate) fn len(&self) -> u32 {
        self.n
    }

    /// Number of clusters tasks are mapped onto.
    pub(crate) fn clusters(&self) -> u32 {
        self.clusters
    }

    /// The cluster hosting task `t` (block mapping).
    pub fn cluster_of(&self, t: TaskHandle) -> u32 {
        assert!(t.0 < self.n, "task out of range");
        ((t.0 as u64 * self.clusters as u64) / self.n as u64) as u32
    }

    /// Each cluster that hosts a task, in order, with its tasks: block
    /// mapping gives every such cluster one contiguous run of task ids.
    /// Two divisions per cluster, none per task; a cluster that hosts no
    /// task (more clusters than tasks) is never visited.
    pub fn by_cluster(&self) -> impl Iterator<Item = (u32, std::ops::Range<u32>)> {
        let (n, clusters) = (self.n as u64, self.clusters as u64);
        let mut first = 0;
        std::iter::from_fn(move || {
            if first == n {
                return None;
            }
            let c = first * clusters / n;
            // The first task of cluster `c + 1`: ⌈(c+1)·n / clusters⌉.
            let end = ((c + 1) * n).div_ceil(clusters);
            let tasks = first as u32..end as u32;
            first = end;
            Some((c as u32, tasks))
        })
    }

    /// All tasks, in order.
    pub fn iter(&self) -> impl Iterator<Item = TaskHandle> {
        (0..self.n).map(TaskHandle)
    }

    /// Split `items` items into per-task contiguous shares: task `t` owns
    /// `[share_start(t), share_start(t+1))`. Earlier tasks take the
    /// remainder.
    pub fn share(&self, items: usize, t: TaskHandle) -> std::ops::Range<usize> {
        assert!(t.0 < self.n, "task out of range");
        let n = self.n as usize;
        let base = items / n;
        let extra = items % n;
        let i = t.0 as usize;
        let start = i * base + i.min(extra);
        let len = base + usize::from(i < extra);
        start..start + len
    }

    /// The task owning item `i` of `items` under the block split.
    pub(crate) fn owner_of(&self, items: usize, i: usize) -> TaskHandle {
        assert!(i < items, "item out of range");
        // Invert `share`: earlier `extra` tasks have base+1 items.
        let n = self.n as usize;
        let base = items / n;
        let extra = items % n;
        let big = (base + 1) * extra; // items covered by the larger shares
        let t = if i < big {
            i / (base + 1)
        } else {
            // With more tasks than items every item sits in a big share,
            // so reaching this branch guarantees `base > 0`.
            let small = (i - big)
                .checked_div(base)
                .expect("i < big whenever base == 0 and i < items");
            extra + small
        };
        TaskHandle(t as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_is_monotone_and_balanced() {
        let ts = TaskSet::new(8, 4);
        let clusters: Vec<u32> = ts.iter().map(|t| ts.cluster_of(t)).collect();
        assert_eq!(clusters, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn mapping_with_uneven_ratio() {
        let ts = TaskSet::new(5, 2);
        let clusters: Vec<u32> = ts.iter().map(|t| ts.cluster_of(t)).collect();
        assert_eq!(clusters, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn more_clusters_than_tasks() {
        let ts = TaskSet::new(2, 8);
        assert_eq!(ts.cluster_of(TaskHandle(0)), 0);
        assert_eq!(ts.cluster_of(TaskHandle(1)), 4);
    }

    #[test]
    fn by_cluster_groups_what_cluster_of_maps() {
        for (n, clusters) in [
            (8u32, 4u32),
            (5, 2),
            (2, 8),
            (128, 1024),
            (7, 3),
            (1, 1),
            (9, 9),
        ] {
            let ts = TaskSet::new(n, clusters);
            let grouped: Vec<(u32, u32)> = ts
                .by_cluster()
                .flat_map(|(c, tasks)| tasks.map(move |t| (c, t)))
                .collect();
            let mapped: Vec<(u32, u32)> = ts.iter().map(|t| (ts.cluster_of(t), t.0)).collect();
            assert_eq!(grouped, mapped, "{n} tasks on {clusters} clusters");
            assert!(ts.by_cluster().all(|(_, tasks)| !tasks.is_empty()));
            let hosts = ts.by_cluster().count() as u32;
            assert_eq!(hosts, n.min(clusters), "one group per hosting cluster");
        }
    }

    #[test]
    fn shares_partition_items_exactly() {
        for (items, n) in [(10usize, 3u32), (7, 7), (3, 5), (100, 8), (1, 1)] {
            let ts = TaskSet::new(n, 1);
            let mut covered = 0;
            let mut expected_start = 0;
            for t in ts.iter() {
                let r = ts.share(items, t);
                assert_eq!(r.start, expected_start, "contiguous shares");
                expected_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, items, "items {items} tasks {n}");
        }
    }

    #[test]
    fn owner_of_matches_share() {
        for (items, n) in [(10usize, 3u32), (7, 7), (3, 5), (97, 8)] {
            let ts = TaskSet::new(n, 1);
            for i in 0..items {
                let owner = ts.owner_of(items, i);
                let r = ts.share(items, owner);
                assert!(r.contains(&i), "item {i}: owner {owner:?} share {r:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "task out of range")]
    fn cluster_of_bounds() {
        let ts = TaskSet::new(2, 2);
        ts.cluster_of(TaskHandle(5));
    }

    #[test]
    #[should_panic(expected = "empty task set")]
    fn zero_tasks_rejected() {
        TaskSet::new(0, 1);
    }

    #[test]
    fn len_and_is_empty() {
        let ts = TaskSet::new(3, 2);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.clusters(), 2);
    }
}
