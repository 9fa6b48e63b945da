//! Per-cluster shared memories.
//!
//! The machine level tracks *capacity*: how many words each cluster's shared
//! memory has, how many are allocated, and the high-water mark. The kernel
//! (`fem2-kernel`'s `KernelSim`) charges its activation records and code
//! images here directly, as does the NA-VM its arrays. The kernel's
//! variable-size-block heap (`fem2_kernel::Heap`, the system programmer's
//! "general heap") is a standalone model that experiment E8 measures; it
//! draws nothing from this module.

use crate::Words;
use std::fmt;

/// Out-of-memory error for a cluster allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfMemory {
    /// The cluster whose memory was exhausted.
    pub(crate) cluster: u32,
    /// The request that failed, in words.
    pub(crate) requested: Words,
    /// Words still unallocated at the time of the request.
    pub(crate) available: Words,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster {} out of memory: requested {} words, {} available",
            self.cluster, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// One cluster's shared memory: capacity accounting with a high-water mark.
#[derive(Clone, Debug)]
pub struct ClusterMemory {
    cluster: u32,
    capacity: Words,
    used: Words,
    high_water: Words,
}

impl ClusterMemory {
    /// A memory of `capacity` words for cluster `cluster`.
    pub(crate) fn new(cluster: u32, capacity: Words) -> Self {
        ClusterMemory {
            cluster,
            capacity,
            used: 0,
            high_water: 0,
        }
    }

    /// Total capacity in words.
    pub fn capacity(&self) -> Words {
        self.capacity
    }

    /// Words currently allocated.
    pub fn used(&self) -> Words {
        self.used
    }

    /// Words currently free. After a bank fault `used` may transiently
    /// exceed `capacity` (until victims are invalidated), so this saturates.
    pub fn available(&self) -> Words {
        self.capacity.saturating_sub(self.used)
    }

    /// Peak allocation over the memory's lifetime.
    pub(crate) fn high_water(&self) -> Words {
        self.high_water
    }

    /// Allocate `words`; fails with [`OutOfMemory`] if capacity would be
    /// exceeded.
    pub(crate) fn alloc(&mut self, words: Words) -> Result<(), OutOfMemory> {
        if words > self.available() {
            return Err(OutOfMemory {
                cluster: self.cluster,
                requested: words,
                available: self.available(),
            });
        }
        self.used += words;
        self.high_water = self.high_water.max(self.used);
        Ok(())
    }

    /// Release `words`. Releasing more than is allocated is a logic error
    /// upstream and panics in debug builds; in release it saturates.
    pub(crate) fn free(&mut self, words: Words) {
        debug_assert!(words <= self.used, "freeing more than allocated");
        self.used = self.used.saturating_sub(words);
    }

    /// A memory bank of `words` capacity fails: the arena shrinks. Returns
    /// the words of live allocations that no longer fit — the caller must
    /// invalidate victims (free their allocations) until `used()` is back
    /// within `capacity()`.
    pub(crate) fn fail_bank(&mut self, words: Words) -> Words {
        self.capacity = self.capacity.saturating_sub(words);
        self.used.saturating_sub(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_is_empty() {
        let m = ClusterMemory::new(0, 1000);
        assert_eq!(m.capacity(), 1000);
        assert_eq!(m.used(), 0);
        assert_eq!(m.available(), 1000);
        assert_eq!(m.high_water(), 0);
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = ClusterMemory::new(0, 1000);
        m.alloc(300).unwrap();
        m.alloc(200).unwrap();
        assert_eq!(m.used(), 500);
        m.free(300);
        assert_eq!(m.used(), 200);
    }

    #[test]
    fn high_water_is_peak_not_current() {
        let mut m = ClusterMemory::new(0, 1000);
        m.alloc(700).unwrap();
        m.free(600);
        m.alloc(100).unwrap();
        assert_eq!(m.used(), 200);
        assert_eq!(m.high_water(), 700);
    }

    #[test]
    fn oom_reports_request_and_available() {
        let mut m = ClusterMemory::new(3, 100);
        m.alloc(90).unwrap();
        let err = m.alloc(20).unwrap_err();
        assert_eq!(err.cluster, 3);
        assert_eq!(err.requested, 20);
        assert_eq!(err.available, 10);
        assert!(err.to_string().contains("cluster 3"));
        // Failed alloc does not change state.
        assert_eq!(m.used(), 90);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut m = ClusterMemory::new(0, 100);
        m.alloc(100).unwrap();
        assert_eq!(m.available(), 0);
    }

    #[test]
    fn failed_bank_shrinks_arena_and_reports_overflow() {
        let mut m = ClusterMemory::new(0, 1000);
        m.alloc(600).unwrap();
        // Losing 300 words still leaves room for the 600 in use.
        assert_eq!(m.fail_bank(300), 0);
        assert_eq!(m.capacity(), 700);
        assert_eq!(m.available(), 100);
        // Losing 200 more puts 100 words of live data in the failed bank.
        assert_eq!(m.fail_bank(200), 100);
        assert_eq!(m.capacity(), 500);
        assert_eq!(m.available(), 0, "available saturates, not underflows");
        // Invalidating a 150-word victim restores headroom.
        m.free(150);
        assert_eq!(m.used(), 450);
        assert_eq!(m.available(), 50);
    }
}
