//! The general heap with variable-size blocks.
//!
//! A word-addressed arena managed by an address-ordered first-fit free list
//! with immediate coalescing. This is the storage manager the paper assigns
//! to the system programmer's VM ("General heap with variable size blocks");
//! the E8 experiment measures its throughput and fragmentation under
//! FEM-shaped allocation traces.
//!
//! The heap tracks *placement* (offsets and sizes); the bytes themselves are
//! abstract, as everywhere in the simulated plane.

use fem2_machine::Words;
use std::fmt;

/// An allocated block: offset and length in words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Block {
    /// Word offset within the arena.
    pub offset: Words,
    /// Length in words (as requested).
    pub len: Words,
}

/// Heap errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapError {
    /// No free block large enough (possibly due to fragmentation).
    OutOfMemory {
        /// The failed request size.
        requested: Words,
        /// Total free words (may exceed `requested` if fragmented).
        free: Words,
        /// Largest contiguous free block.
        largest: Words,
    },
    /// Zero-size allocation.
    ZeroSize,
    /// Free of a block that is not currently allocated.
    InvalidFree(Block),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory {
                requested,
                free,
                largest,
            } => write!(
                f,
                "heap exhausted: requested {requested}, free {free} (largest contiguous {largest})"
            ),
            HeapError::ZeroSize => write!(f, "zero-size allocation"),
            HeapError::InvalidFree(b) => write!(f, "invalid free of {b:?}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Variable-size-block heap: address-ordered first-fit with coalescing.
#[derive(Clone, Debug)]
pub struct Heap {
    capacity: Words,
    /// Free list as (offset, len), sorted by offset, no two adjacent.
    free_list: Vec<(Words, Words)>,
    used: Words,
    high_water: Words,
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub(crate) frees: u64,
    /// Allocations that failed for lack of a large-enough block.
    pub failed_allocs: u64,
}

impl Heap {
    /// A heap over `capacity` words.
    pub fn new(capacity: Words) -> Self {
        Heap {
            capacity,
            free_list: if capacity > 0 {
                vec![(0, capacity)]
            } else {
                Vec::new()
            },
            used: 0,
            high_water: 0,
            allocs: 0,
            frees: 0,
            failed_allocs: 0,
        }
    }

    /// Words currently allocated.
    pub fn used(&self) -> Words {
        self.used
    }

    /// Words currently free.
    pub(crate) fn free_words(&self) -> Words {
        self.capacity - self.used
    }

    /// Peak allocation.
    pub fn high_water(&self) -> Words {
        self.high_water
    }

    /// Number of free-list fragments.
    pub fn fragments(&self) -> usize {
        self.free_list.len()
    }

    /// Largest contiguous free block.
    pub(crate) fn largest_free(&self) -> Words {
        self.free_list.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: 1 − largest_free / free_words
    /// (0 when the free space is one block or the heap is full).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_words();
        if free == 0 {
            0.0
        } else {
            1.0 - self.largest_free() as f64 / free as f64
        }
    }

    /// Allocate `len` words; first fit in address order.
    pub fn alloc(&mut self, len: Words) -> Result<Block, HeapError> {
        if len == 0 {
            return Err(HeapError::ZeroSize);
        }
        for i in 0..self.free_list.len() {
            let (off, flen) = self.free_list[i];
            if flen >= len {
                if flen == len {
                    self.free_list.remove(i);
                } else {
                    self.free_list[i] = (off + len, flen - len);
                }
                self.used += len;
                self.high_water = self.high_water.max(self.used);
                self.allocs += 1;
                return Ok(Block { offset: off, len });
            }
        }
        self.failed_allocs += 1;
        Err(HeapError::OutOfMemory {
            requested: len,
            free: self.free_words(),
            largest: self.largest_free(),
        })
    }

    /// Free a block previously returned by [`Heap::alloc`], coalescing with
    /// adjacent free blocks.
    pub fn free(&mut self, block: Block) -> Result<(), HeapError> {
        if block.len == 0 || block.offset + block.len > self.capacity {
            return Err(HeapError::InvalidFree(block));
        }
        // Find insertion point by offset.
        let pos = self
            .free_list
            .partition_point(|&(off, _)| off < block.offset);
        // Overlap checks against neighbours.
        if let Some(&(off, len)) = pos.checked_sub(1).and_then(|p| self.free_list.get(p)) {
            if off + len > block.offset {
                return Err(HeapError::InvalidFree(block));
            }
        }
        if let Some(&(off, _)) = self.free_list.get(pos) {
            if block.offset + block.len > off {
                return Err(HeapError::InvalidFree(block));
            }
        }
        self.free_list.insert(pos, (block.offset, block.len));
        // Coalesce with successor, then predecessor.
        if pos + 1 < self.free_list.len() {
            let (off, len) = self.free_list[pos];
            let (noff, nlen) = self.free_list[pos + 1];
            if off + len == noff {
                self.free_list[pos] = (off, len + nlen);
                self.free_list.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (poff, plen) = self.free_list[pos - 1];
            let (off, len) = self.free_list[pos];
            if poff + plen == off {
                self.free_list[pos - 1] = (poff, plen + len);
                self.free_list.remove(pos);
            }
        }
        self.used -= block.len;
        self.frees += 1;
        Ok(())
    }

    /// Internal consistency check (used by property tests): free list is
    /// sorted, non-overlapping, non-adjacent, within capacity, and accounts
    /// for exactly `capacity - used` words.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<Words> = None;
        let mut total = 0;
        for &(off, len) in &self.free_list {
            if len == 0 {
                return Err(format!("zero-length free block at {off}"));
            }
            if off + len > self.capacity {
                return Err(format!("free block ({off},{len}) beyond capacity"));
            }
            if let Some(end) = prev_end {
                if off < end {
                    return Err(format!("overlapping free blocks at {off}"));
                }
                if off == end {
                    return Err(format!("uncoalesced adjacent free blocks at {off}"));
                }
            }
            prev_end = Some(off + len);
            total += len;
        }
        if total != self.free_words() {
            return Err(format!(
                "free list total {total} != capacity - used = {}",
                self.free_words()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_first_fit_address_order() {
        let mut h = Heap::new(100);
        let a = h.alloc(10).unwrap();
        let b = h.alloc(20).unwrap();
        assert_eq!(a, Block { offset: 0, len: 10 });
        assert_eq!(
            b,
            Block {
                offset: 10,
                len: 20
            }
        );
        assert_eq!(h.used(), 30);
        h.check_invariants().unwrap();
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut h = Heap::new(10);
        assert_eq!(h.alloc(0), Err(HeapError::ZeroSize));
    }

    #[test]
    fn exhaustion_reports_largest() {
        let mut h = Heap::new(100);
        let _a = h.alloc(40).unwrap();
        let b = h.alloc(40).unwrap();
        let _c = h.alloc(20).unwrap();
        h.free(b).unwrap();
        // 40 free but fragmented? No — one hole of 40. Request 50 fails.
        let err = h.alloc(50).unwrap_err();
        match err {
            HeapError::OutOfMemory {
                requested,
                free,
                largest,
            } => {
                assert_eq!(requested, 50);
                assert_eq!(free, 40);
                assert_eq!(largest, 40);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.failed_allocs, 1);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut h = Heap::new(100);
        let a = h.alloc(10).unwrap();
        let b = h.alloc(10).unwrap();
        let c = h.alloc(10).unwrap();
        h.free(a).unwrap();
        h.free(c).unwrap();
        // c coalesced with the tail: free list is [0,10) and [20,100).
        assert_eq!(h.fragments(), 2);
        h.free(b).unwrap();
        assert_eq!(h.fragments(), 1, "full coalescing back to one block");
        assert_eq!(h.largest_free(), 100);
        h.check_invariants().unwrap();
    }

    #[test]
    fn invalid_frees_detected() {
        let mut h = Heap::new(100);
        let a = h.alloc(10).unwrap();
        // Double free.
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(HeapError::InvalidFree(_))));
        // Out of range.
        assert!(matches!(
            h.free(Block {
                offset: 95,
                len: 10
            }),
            Err(HeapError::InvalidFree(_))
        ));
        // Overlapping an allocated region but touching free space.
        let _b = h.alloc(50).unwrap();
        assert!(matches!(
            h.free(Block {
                offset: 25,
                len: 50
            }),
            Err(HeapError::InvalidFree(_))
        ));
    }

    #[test]
    fn fragmentation_metric() {
        let mut h = Heap::new(100);
        assert_eq!(h.fragmentation(), 0.0);
        let blocks: Vec<Block> = (0..10).map(|_| h.alloc(10).unwrap()).collect();
        assert_eq!(h.fragmentation(), 0.0); // full: no free space
                                            // Free every other block: 5 fragments of 10.
        for b in blocks.iter().step_by(2) {
            h.free(*b).unwrap();
        }
        assert_eq!(h.free_words(), 50);
        assert_eq!(h.largest_free(), 10);
        assert!((h.fragmentation() - 0.8).abs() < 1e-12);
        h.check_invariants().unwrap();
    }

    #[test]
    fn reuse_after_free() {
        let mut h = Heap::new(30);
        let a = h.alloc(10).unwrap();
        let _b = h.alloc(10).unwrap();
        h.free(a).unwrap();
        let c = h.alloc(10).unwrap();
        assert_eq!(c.offset, 0, "first fit reuses the freed hole");
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut h = Heap::new(100);
        let a = h.alloc(60).unwrap();
        h.free(a).unwrap();
        h.alloc(10).unwrap();
        assert_eq!(h.high_water(), 60);
        assert_eq!(h.used(), 10);
    }

    #[test]
    fn zero_capacity_heap() {
        let mut h = Heap::new(0);
        assert!(matches!(h.alloc(1), Err(HeapError::OutOfMemory { .. })));
        assert_eq!(h.fragments(), 0);
        assert_eq!(h.largest_free(), 0);
    }

    #[test]
    fn counters() {
        let mut h = Heap::new(100);
        let a = h.alloc(10).unwrap();
        h.alloc(10).unwrap();
        h.free(a).unwrap();
        let _ = h.alloc(1000);
        assert_eq!(h.allocs, 2);
        assert_eq!(h.frees, 1);
        assert_eq!(h.failed_allocs, 1);
    }
}
