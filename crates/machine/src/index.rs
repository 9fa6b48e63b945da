//! The two indexes behind every keyed table the engine holds, and the one
//! FNV-1a. Callers keep their entries in first-touch order; an index maps
//! a key to an entry number and is reached by key only, under a fixed
//! hash, so its layout repeats from run to run and reaches no outcome
//! (DESIGN.md §7.2).

use std::mem;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`: the reference 64-bit fold (xor then multiply).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// An open-addressed index over entries the caller keeps: a power-of-two
/// `Vec<u32>` of entry number + 1 (0 = free), at most half full, probed
/// linearly from a fixed multiplicative hash of a caller-supplied `u64`.
/// The caller decides which entry is the key, so the index stores no key.
#[derive(Clone, Debug, Default)]
pub struct OpenIndex {
    cells: Vec<u32>,
    len: usize,
}

impl OpenIndex {
    /// The entry filed under `hash` that `is_key` accepts (`Ok`), or else
    /// the number of a new entry, filed now (`Err`): the caller appends
    /// that entry before the next call. Entry numbers count up from 0 in
    /// filing order. `hash_of(e)` must return the `hash` entry `e` was
    /// filed under; growing the index asks it of every entry.
    pub fn entry(
        &mut self,
        hash: u64,
        is_key: impl Fn(usize) -> bool,
        hash_of: impl Fn(usize) -> u64,
    ) -> Result<usize, usize> {
        let mut free = match self.probe(hash, is_key) {
            Ok(entry) => return Ok(entry),
            Err(free) => free,
        };
        if (self.len + 1) * 2 > self.cells.len() {
            self.grow(hash_of);
            free = self.probe(hash, |_| false).expect_err("a new key");
        }
        self.len += 1;
        // At most `u32::MAX - 1` entries: the caller's ids are `u32`.
        self.cells[free] = self.len as u32;
        Err(self.len - 1)
    }

    /// The entry `is_key` accepts, or else the free cell its probe
    /// sequence ends at.
    fn probe(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Result<usize, usize> {
        if self.cells.is_empty() {
            return Err(0);
        }
        let mask = self.cells.len() - 1;
        let bits = self.cells.len().trailing_zeros();
        let mut at = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        loop {
            match self.cells[at] as usize {
                0 => return Err(at),
                c if is_key(c - 1) => return Ok(c - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Double the cells (16 at first) and re-file every entry.
    fn grow(&mut self, hash_of: impl Fn(usize) -> u64) {
        let len = (self.cells.len() * 2).max(16);
        self.cells.clear();
        self.cells.resize(len, 0);
        for entry in 0..self.len {
            let free = self
                .probe(hash_of(entry), |_| false)
                .expect_err("a new key");
            self.cells[free] = entry as u32 + 1;
        }
    }

    /// Forget every entry, keeping the memory.
    pub fn clear(&mut self) {
        if mem::take(&mut self.len) != 0 {
            self.cells.fill(0);
        }
    }

    /// The cells, for memory-contract tests.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> &Vec<u32> {
        &self.cells
    }
}

/// Ids per page of a [`PagedIndex`].
const PAGE: usize = 256;

/// A two-level index from dense-ish ids to entry numbers:
/// `pages[id / 256][id % 256]` holds entry number + 1, 0 for an id with no
/// entry, so a lookup is two loads. A page exists once an id on it has an
/// entry and the directory reaches the highest such page, so memory
/// follows the touched ids, not the id space: a one-KiB page per 256 ids.
#[derive(Clone, Debug, Default)]
pub struct PagedIndex {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    len: usize,
}

impl PagedIndex {
    /// The entry of `id`, if it has one.
    #[inline]
    pub fn get(&self, id: usize) -> Option<usize> {
        let page = self.pages.get(id / PAGE)?.as_ref()?;
        (page[id % PAGE] as usize).checked_sub(1)
    }

    /// The entry of `id` (`Ok`), or else the number of a new entry,
    /// filed now (`Err`): the caller appends that entry before the next
    /// call. Entry numbers count up from 0 in filing order.
    #[inline]
    pub fn entry(&mut self, id: usize) -> Result<usize, usize> {
        let page = id / PAGE;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let cell = &mut self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]))[id % PAGE];
        if *cell == 0 {
            self.len += 1;
            // At most `u32::MAX - 1` entries: the callers' ids are `u32`.
            *cell = self.len as u32;
            return Err(self.len - 1);
        }
        Ok(*cell as usize - 1)
    }

    /// The page directory, for memory-contract tests.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> &Vec<Option<Box<[u32; PAGE]>>> {
        &self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Keys in an `OpenIndex`, held the way its callers hold them, with
    /// `hash` mapping a key to what the index is given.
    struct Table {
        keys: Vec<u64>,
        index: OpenIndex,
        hash: fn(u64) -> u64,
    }

    impl Table {
        fn new(hash: fn(u64) -> u64) -> Self {
            Table {
                keys: Vec::new(),
                index: OpenIndex::default(),
                hash,
            }
        }

        /// The entry of `key`, filed on first sight.
        fn entry(&mut self, key: u64) -> usize {
            let (keys, hash) = (&self.keys, self.hash);
            match self
                .index
                .entry(hash(key), |e| keys[e] == key, |e| hash(keys[e]))
            {
                Ok(e) => e,
                Err(e) => {
                    self.keys.push(key);
                    e
                }
            }
        }

        /// Every key against a `BTreeMap` oracle that numbers keys on
        /// first sight: the same entry, and the index at most half full.
        fn check(&mut self, keys: &[u64]) -> Result<(), TestCaseError> {
            let mut oracle = BTreeMap::new();
            for &key in keys {
                let next = oracle.len();
                let want = *oracle.entry(key).or_insert(next);
                prop_assert_eq!(self.entry(key), want);
            }
            prop_assert_eq!(self.keys.len(), oracle.len());
            prop_assert!(self.index.cells().len() >= 2 * oracle.len());
            for (&key, &entry) in &oracle {
                prop_assert_eq!(self.entry(key), entry, "a second sight");
            }
            Ok(())
        }
    }

    fn fnv(key: u64) -> u64 {
        fnv1a_64(&key.to_le_bytes())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn open_index_matches_the_btreemap_oracle(
            keys in proptest::collection::vec(any::<u64>(), 0..400),
            repeats in proptest::collection::vec(0usize..400, 0..400),
        ) {
            // Second sights after the first ones.
            let mut all = keys.clone();
            all.extend(repeats.iter().filter_map(|&i| keys.get(i)));
            Table::new(|k| k).check(&all)?;
            Table::new(fnv).check(&all)?;
        }

        /// Every key hashes to 0: each one probes past all the others.
        #[test]
        fn open_index_probes_past_full_collisions(
            keys in proptest::collection::vec(0u64..64, 0..200),
        ) {
            Table::new(|_| 0).check(&keys)?;
        }

        #[test]
        fn paged_index_matches_the_btreemap_oracle(
            ids in proptest::collection::vec(0usize..1 << 20, 0..300),
        ) {
            check_paged(&ids)?;
        }
    }

    /// Growth past 2^16 entries, then `clear` and reuse: entries count
    /// from 0 again, the cells keep their length, and nothing filed before
    /// the clear is found after it.
    #[test]
    fn open_index_grows_past_two_to_the_sixteen_and_clears_for_reuse() {
        let keys: Vec<u64> = (0..70_000u64).map(|k| k * 7_919).collect();
        let mut table = Table::new(|k| k);
        table.check(&keys).unwrap();
        assert_eq!(table.index.cells().len(), 1 << 18);
        table.keys.clear();
        table.index.clear();
        assert_eq!(table.index.cells().len(), 1 << 18, "memory is kept");
        assert!(table.index.cells().iter().all(|&c| c == 0));
        let reused: Vec<u64> = keys.iter().rev().take(1_000).copied().collect();
        table.check(&reused).unwrap();
    }

    /// Every id against a `BTreeMap` oracle, and exactly the touched pages
    /// allocated.
    fn check_paged(ids: &[usize]) -> Result<(), TestCaseError> {
        let mut index = PagedIndex::default();
        let mut oracle = BTreeMap::new();
        for &id in ids {
            prop_assert_eq!(index.get(id), oracle.get(&id).copied());
            let next = oracle.len();
            let want = match oracle.get(&id) {
                Some(&entry) => Ok(entry),
                None => Err(next),
            };
            oracle.entry(id).or_insert(next);
            prop_assert_eq!(index.entry(id), want);
        }
        for (&id, &entry) in &oracle {
            prop_assert_eq!(index.get(id), Some(entry));
        }
        let touched: BTreeSet<usize> = oracle.keys().map(|id| id / PAGE).collect();
        let allocated: BTreeSet<usize> = (index.pages().iter().enumerate())
            .filter_map(|(p, page)| page.as_ref().map(|_| p))
            .collect();
        prop_assert_eq!(index.pages().len(), touched.last().map_or(0, |p| p + 1));
        prop_assert_eq!(allocated, touched);
        Ok(())
    }

    #[test]
    fn paged_index_allocates_only_touched_pages() {
        let edges = [0, 255, 256, 65_535, (1 << 24) + 7];
        check_paged(&edges).unwrap();
        let mut sparse: Vec<usize> = (0..200).map(|i| i * 40_961 % (1 << 24)).collect();
        sparse.extend(edges);
        check_paged(&sparse).unwrap();
        let index = PagedIndex::default();
        assert_eq!((index.get(0), index.get(1 << 24)), (None, None));
        assert!(index.pages().is_empty(), "a read allocates nothing");
    }
}
