//! A paged, direct-indexed `u64 -> u64` map for the CP bind path.
//!
//! The virtual→physical VBN map is the hottest structure in a CP: every
//! written block inserts one entry and (on copy-on-write) removes the old
//! one. A `HashMap` spends most of that time hashing; at ~8 Ki blocks per
//! CP the hashing alone dominated the bind phase (see `docs/perf.md`).
//!
//! Keys here are virtual VBNs, bounded by the volume's configured virtual
//! space, so the map can be *direct-indexed*: fixed-size pages of slots,
//! allocated lazily the first time a key lands in them. Lookup, insert,
//! and remove are a shift, a bounds-checked page deref, and a slot store —
//! no hashing, no probing. Memory stays proportional to the *touched*
//! regions of the space (thin-provisioned volumes never fault in pages for
//! VBN ranges they never map), and because the allocator assigns VBNs in
//! AA-dense order, touched pages run nearly full in practice.
//!
//! Slots are 4 bytes. What is left of a CP's bind is the cache misses of
//! its random slot accesses, and their cost follows the table's size: a
//! 4 Mi-block volume's map is 16 MiB at `u32` and 32 MiB at `u64` (see
//! `docs/perf.md`, *CP footprint*). The price is a limit — every block
//! number space is below [`MAX_BLOCKS`] — that [`check_block_space`]
//! enforces where volumes and aggregates are built; the API stays `u64`.
#![deny(clippy::cast_possible_truncation)]

use wafl_types::{WaflError, WaflResult};

/// Slots per page. One page covers 4 Ki keys and costs 16 KiB: small
/// enough that sparse workloads waste little.
const PAGE: usize = 4096;

/// Slot sentinel for "no mapping".
const EMPTY: u32 = u32::MAX;

/// Exclusive bound on every block number stored in a 4-byte slot (the
/// top value is the "no mapping" sentinel): 2³² − 1 blocks, 16 TiB of
/// 4 KiB blocks per virtual or physical space.
pub(crate) const MAX_BLOCKS: u64 = EMPTY as u64;

/// Reject a virtual or physical block space too large for 4-byte slots.
pub(crate) fn check_block_space(what: impl std::fmt::Display, blocks: u64) -> WaflResult<()> {
    if blocks >= MAX_BLOCKS {
        return Err(WaflError::InvalidConfig {
            reason: format!(
                "{what}: {blocks} blocks reach the 4-byte block-number limit of {MAX_BLOCKS}"
            ),
        });
    }
    Ok(())
}

/// The one narrowing of a block number to its 4-byte slot form, for this
/// module and `FlexVol`'s logical map. Lossless because every space passed
/// [`check_block_space`] when it was built.
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn slot(block: u64) -> u32 {
    debug_assert!(
        block < MAX_BLOCKS,
        "block number {block} outside the 4-byte slot space"
    );
    block as u32
}

/// `key`'s (page, slot-in-page) position. A key no `usize` holds lands
/// past every page, like any other key outside the map's space.
#[inline]
fn locate(key: u64) -> (usize, usize) {
    let key = usize::try_from(key).unwrap_or(usize::MAX);
    (key / PAGE, key % PAGE)
}

/// A slot's content as a lookup result.
#[inline]
fn mapped(slot: u32) -> Option<u64> {
    (slot != EMPTY).then_some(u64::from(slot))
}

/// Paged direct-indexed map; see the module docs.
pub(crate) struct PagedMap {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
}

impl PagedMap {
    /// An empty map for keys in `0..key_space`.
    pub(crate) fn new(key_space: u64) -> PagedMap {
        let (full, rest) = locate(key_space);
        PagedMap {
            pages: vec![None; full + usize::from(rest > 0)],
        }
    }

    /// Value mapped to `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        let (page, at) = locate(key);
        mapped(self.pages.get(page)?.as_ref()?[at])
    }

    /// Map `key` to `value`, returning the previous value if present.
    /// Panics if `key` is outside the map's key space.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let (page, at) = locate(key);
        let page = self.pages[page].get_or_insert_with(|| Box::new([EMPTY; PAGE]));
        mapped(std::mem::replace(&mut page[at], slot(value)))
    }

    /// Remove `key`, returning its value if it was mapped.
    #[inline]
    pub(crate) fn remove(&mut self, key: u64) -> Option<u64> {
        let (page, at) = locate(key);
        let page = self.pages.get_mut(page)?.as_mut()?;
        mapped(std::mem::replace(&mut page[at], EMPTY))
    }

    /// Point the mapped `key` at `value`; `false` (and no change) if `key`
    /// is not mapped.
    #[inline]
    pub(crate) fn set(&mut self, key: u64, value: u64) -> bool {
        let (page, at) = locate(key);
        match self.pages.get_mut(page).and_then(Option::as_mut) {
            Some(page) if page[at] != EMPTY => {
                page[at] = slot(value);
                true
            }
            _ => false,
        }
    }

    /// All `(key, value)` pairs in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter().flat_map(move |p| {
                p.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != EMPTY)
                    .map(move |(si, &v)| ((pi * PAGE + si) as u64, u64::from(v)))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = PagedMap::new(100_000);
        assert_eq!(m.get(42), None);
        assert_eq!(m.insert(42, 7), None);
        assert_eq!(m.insert(42, 8), Some(7));
        assert_eq!(m.get(42), Some(8));
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.remove(42), Some(8));
        assert_eq!(m.remove(42), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn pages_fault_in_lazily() {
        let mut m = PagedMap::new(10 * PAGE as u64);
        m.insert(5, 1);
        m.insert(9 * PAGE as u64 + 3, 2);
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 2);
        assert_eq!(m.get(5), Some(1));
        assert_eq!(m.get(9 * PAGE as u64 + 3), Some(2));
        assert_eq!(m.get(5 * PAGE as u64), None);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut m = PagedMap::new(3 * PAGE as u64);
        for k in [7u64, 2, PAGE as u64 + 1, 2 * PAGE as u64] {
            m.insert(k, k * 10);
        }
        let got: Vec<_> = m.iter().collect();
        assert_eq!(
            got,
            vec![
                (2, 20),
                (7, 70),
                (PAGE as u64 + 1, (PAGE as u64 + 1) * 10),
                (2 * PAGE as u64, 2 * PAGE as u64 * 10),
            ]
        );
    }

    #[test]
    fn set_edits_mapped_keys_only() {
        let mut m = PagedMap::new(2 * PAGE as u64);
        m.insert(1, 10);
        assert!(m.set(1, 11));
        assert_eq!(m.get(1), Some(11));
        // Unmapped slot of a faulted-in page, a page never touched, and a
        // key outside the space: no change, no page faulted in.
        assert!(!m.set(999, 5));
        assert!(!m.set(PAGE as u64 + 1, 5));
        assert!(!m.set(u64::MAX, 5));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(1, 11)]);
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 1);
    }

    #[test]
    fn the_largest_block_number_is_a_value_not_the_sentinel() {
        let mut m = PagedMap::new(100);
        let top = MAX_BLOCKS - 1;
        assert_eq!(top, u64::from(u32::MAX - 1));
        assert_eq!(m.insert(3, top), None);
        assert_eq!(m.get(3), Some(top));
        assert_eq!(m.insert(3, 0), Some(top));
        assert!(m.set(3, top));
        assert_eq!(m.remove(3), Some(top));
        assert_eq!(m.get(3), None);
        // Keys past 32 bits are outside every map, never aliases of a
        // key inside it.
        m.insert(5, 1);
        assert_eq!(m.get((1 << 32) + 5), None);
        assert_eq!(m.remove((1 << 32) + 5), None);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(5, 1)]);
    }

    #[test]
    fn block_space_limit_is_the_sentinel() {
        assert!(check_block_space("space", MAX_BLOCKS - 1).is_ok());
        for blocks in [MAX_BLOCKS, MAX_BLOCKS + 1, u64::MAX] {
            assert!(matches!(
                check_block_space("space", blocks),
                Err(WaflError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn matches_hashmap_reference() {
        use std::collections::HashMap;
        let mut m = PagedMap::new(4096 * 4);
        let mut r: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        for i in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % (4096 * 4);
            // Every tenth value is the largest a slot holds, one below
            // the sentinel.
            let val = if i % 10 == 0 {
                MAX_BLOCKS - 1
            } else {
                (state & 0xffff_ffff) % MAX_BLOCKS
            };
            match (state >> 20) % 4 {
                0 => assert_eq!(m.insert(key, val), r.insert(key, val)),
                1 => assert_eq!(m.remove(key), r.remove(&key)),
                2 => assert_eq!(m.set(key, val), r.get_mut(&key).map(|v| *v = val).is_some()),
                _ => assert_eq!(m.get(key), r.get(&key).copied()),
            }
        }
        let mut pairs: Vec<_> = r.into_iter().collect();
        pairs.sort_unstable();
        assert_eq!(m.iter().collect::<Vec<_>>(), pairs);
    }
}
