//! The whole activemap for one block-number space, with dirty-page
//! accounting.

use crate::page::{BitmapPage, WORDS_PER_PAGE};
use std::fmt::Display;
use std::ops::Range;
use wafl_types::{Reciprocal, Vbn, WaflError, WaflResult, BITS_PER_BITMAP_BLOCK};

/// Per-consistency-point accounting of bitmap-metafile I/O.
///
/// Paper §2.5: "assigning free VBNs colocated in the number space minimizes
/// the number of metafile blocks that need to be consulted and updated."
/// The experiments therefore measure how many distinct metafile blocks each
/// CP dirties; this struct is that counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirtyStats {
    /// Distinct metafile pages written since the last
    /// [`Bitmap::take_dirty_stats`] call.
    pub pages_dirtied: u64,
    /// Individual bit flips since the last take (allocations + frees).
    pub bits_flipped: u64,
}

/// Per-AA free-count summary: one counter per allocation area of a flat
/// (RAID-agnostic) AA tiling, maintained incrementally by every bit flip.
struct AaSummary {
    /// Blocks per AA of the tiling this summary indexes.
    aa_blocks: u64,
    /// Free blocks per AA, `space_len.div_ceil(aa_blocks)` entries.
    counts: Vec<u32>,
}

impl AaSummary {
    /// Count down the bits of `mask` claimed in the 64-bit word whose
    /// first VBN is `word_base`.
    #[inline]
    fn claim_word(&mut self, word_base: u64, mask: u64) {
        let mut bump = |vbn: u64, n: u32| self.counts[(vbn / self.aa_blocks) as usize] -= n;
        if self.aa_blocks.is_multiple_of(64) {
            // A word never straddles an AA boundary: one bump.
            bump(word_base, mask.count_ones());
        } else {
            let mut m = mask;
            while m != 0 {
                bump(word_base + m.trailing_zeros() as u64, 1);
                m &= m - 1;
            }
        }
    }
}

/// What one [`Bitmap::claim_free_in_range`] call took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Claim {
    /// Highest VBN claimed; `None` if nothing was.
    pub last_taken: Option<Vbn>,
    /// The quota was reached with a free block still left in the range.
    pub more_free: bool,
}

/// The activemap of one block-number space: one bit per VBN, grouped into
/// 4 KiB pages exactly as the on-disk metafile would be.
///
/// ```
/// use wafl_bitmap::Bitmap;
/// use wafl_types::Vbn;
///
/// let mut map = Bitmap::new(100_000);
/// map.allocate(Vbn(42)).unwrap();
/// assert!(!map.is_free(Vbn(42)).unwrap());
/// assert!(map.allocate(Vbn(42)).is_err()); // double allocation caught
///
/// // AA scores are range free-counts (§3.3), answered from the per-page
/// // summary counters where whole pages are covered.
/// assert_eq!(map.free_count_range(Vbn(0), 32_768), 32_767);
///
/// // Each CP's metafile I/O is the dirty-page count (§2.5).
/// assert_eq!(map.take_dirty_stats().pages_dirtied, 1);
/// ```
///
/// # Free-count summaries
///
/// The paper's premise is that "a linear walk of the bitmap metafiles" to
/// recompute AA scores is too expensive to do on demand (§3.4). The bitmap
/// therefore keeps a two-level summary, maintained incrementally by
/// [`Bitmap::allocate`]/[`Bitmap::free`]/[`Bitmap::extend`]:
///
/// * **per page** — a `u16` free-bit count per 4 KiB metafile page
///   (2 bytes per 32 Ki tracked blocks ≈ 0.006 % overhead). Range
///   queries answer fully-covered pages from the counter and popcount
///   only the partial edge pages; skip-scans jump over pages whose
///   counter is zero.
/// * **per AA** — an optional `u32` free count per allocation area of a
///   flat tiling ([`Bitmap::enable_aa_summary`]), making a whole-space
///   score rebuild a sequential copy instead of a popcount walk.
///
/// Debug builds verify every touched counter against the popcount ground
/// truth on each mutation, and the whole summary at every
/// [`Bitmap::take_dirty_stats`] (i.e. every consistency point).
///
/// Invariants enforced at runtime (not just in debug builds) because the
/// paper's system treats them as consistency checks:
/// * allocating an allocated block fails with
///   [`WaflError::BitmapStateMismatch`];
/// * freeing a free block fails likewise.
pub struct Bitmap {
    pages: Vec<BitmapPage>,
    /// One flag per page: dirtied since the last `take_dirty_stats`.
    dirty: Vec<bool>,
    stats: DirtyStats,
    space_len: u64,
    free_blocks: u64,
    /// Free bits per page (32 Ki max fits `u16`), kept exact by every
    /// mutation. Index parallel to `pages`.
    page_free: Vec<u16>,
    /// Optional per-AA counters for one configured flat tiling.
    aa_summary: Option<AaSummary>,
}

impl Bitmap {
    /// An all-free bitmap covering `space_len` VBNs. The final page is
    /// padded with *allocated* bits past `space_len` so range queries never
    /// see phantom free space.
    pub fn new(space_len: u64) -> Bitmap {
        let page_count = space_len.div_ceil(BITS_PER_BITMAP_BLOCK) as usize;
        let mut pages = vec![BitmapPage::new_free(); page_count];
        // Pad the tail of the last page.
        let tail_start = space_len % BITS_PER_BITMAP_BLOCK;
        if tail_start != 0 {
            let last = pages.last_mut().expect("space_len > 0 implies a page");
            for i in tail_start..BITS_PER_BITMAP_BLOCK {
                last.set_allocated(i);
            }
        }
        let page_free = (0..page_count as u64)
            .map(|p| BITS_PER_BITMAP_BLOCK.min(space_len - p * BITS_PER_BITMAP_BLOCK) as u16)
            .collect();
        Bitmap {
            dirty: vec![false; page_count],
            pages,
            stats: DirtyStats::default(),
            space_len,
            free_blocks: space_len,
            page_free,
            aa_summary: None,
        }
    }

    /// Enable the per-AA free-count summary for a flat tiling of
    /// `aa_blocks` consecutive VBNs per AA (the trailing AA may be
    /// short). From this point every allocate/free/extend keeps the
    /// counters exact, and [`Bitmap::aa_free_counts`] answers whole-space
    /// score rebuilds without touching a single bitmap word.
    ///
    /// Calling it again (same or different `aa_blocks`) rebuilds from the
    /// current bit state.
    pub fn enable_aa_summary(&mut self, aa_blocks: u64) -> WaflResult<()> {
        if aa_blocks == 0 {
            return Err(WaflError::InvalidConfig {
                reason: "aa_blocks for the AA summary must be positive".into(),
            });
        }
        self.aa_summary = Some(AaSummary {
            aa_blocks,
            counts: self.compute_aa_counts(aa_blocks),
        });
        Ok(())
    }

    /// Per-AA free counts for a tiling of `aa_blocks`, if that summary is
    /// enabled and matches. Entry `i` is the free-block count of the AA
    /// covering `i*aa_blocks .. (i+1)*aa_blocks` — exactly the AA score
    /// of §3.3, served in O(1).
    pub fn aa_free_counts(&self, aa_blocks: u64) -> Option<&[u32]> {
        self.aa_summary
            .as_ref()
            .filter(|s| s.aa_blocks == aa_blocks)
            .map(|s| s.counts.as_slice())
    }

    /// The AA size of the enabled per-AA summary, if any.
    pub fn aa_summary_blocks(&self) -> Option<u64> {
        self.aa_summary.as_ref().map(|s| s.aa_blocks)
    }

    /// Free counts per AA recomputed from the page counters (partial edge
    /// pages popcounted). Used to (re)build the AA summary.
    fn compute_aa_counts(&self, aa_blocks: u64) -> Vec<u32> {
        let aa_count = self.space_len.div_ceil(aa_blocks);
        (0..aa_count)
            .map(|aa| self.free_count_range(Vbn(aa * aa_blocks), aa_blocks))
            .collect()
    }

    /// Number of VBNs in the space.
    #[inline]
    pub fn space_len(&self) -> u64 {
        self.space_len
    }

    /// Number of 4 KiB metafile pages backing the space.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total free blocks in the space — the top level of the free-count
    /// summary, maintained incrementally so this is O(1) on every call
    /// (it is hot in `free_fraction`, CP statistics, and harness
    /// reports). Debug builds re-prove it against the popcount total at
    /// every CP via [`Bitmap::verify_summary`].
    #[inline]
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Fraction of the space that is free.
    #[inline]
    pub fn free_fraction(&self) -> f64 {
        if self.space_len == 0 {
            0.0
        } else {
            self.free_blocks as f64 / self.space_len as f64
        }
    }

    #[inline]
    fn locate(&self, vbn: Vbn) -> WaflResult<(usize, u64)> {
        if vbn.get() >= self.space_len {
            return Err(WaflError::VbnOutOfRange {
                vbn,
                space_len: self.space_len,
            });
        }
        Ok((
            (vbn.get() / BITS_PER_BITMAP_BLOCK) as usize,
            vbn.get() % BITS_PER_BITMAP_BLOCK,
        ))
    }

    /// Whether `vbn` is free.
    pub fn is_free(&self, vbn: Vbn) -> WaflResult<bool> {
        let (p, i) = self.locate(vbn)?;
        Ok(self.pages[p].is_free(i))
    }

    #[inline]
    fn mark_dirty(&mut self, page: usize) {
        if !self.dirty[page] {
            self.dirty[page] = true;
            self.stats.pages_dirtied += 1;
        }
        self.stats.bits_flipped += 1;
    }

    /// Allocate `vbn`. Errors if out of range or already allocated.
    pub fn allocate(&mut self, vbn: Vbn) -> WaflResult<()> {
        let (p, i) = self.locate(vbn)?;
        if !self.pages[p].set_allocated(i) {
            return Err(WaflError::BitmapStateMismatch {
                vbn,
                expected_free: true,
            });
        }
        self.free_blocks -= 1;
        self.page_free[p] -= 1;
        if let Some(s) = self.aa_summary.as_mut() {
            s.counts[(vbn.get() / s.aa_blocks) as usize] -= 1;
        }
        self.mark_dirty(p);
        self.debug_check_counters(vbn);
        Ok(())
    }

    /// Free `vbn`. Errors if out of range or already free.
    pub fn free(&mut self, vbn: Vbn) -> WaflResult<()> {
        let (p, i) = self.locate(vbn)?;
        if !self.pages[p].set_free(i) {
            return Err(WaflError::BitmapStateMismatch {
                vbn,
                expected_free: false,
            });
        }
        self.free_blocks += 1;
        self.page_free[p] += 1;
        if let Some(s) = self.aa_summary.as_mut() {
            s.counts[(vbn.get() / s.aa_blocks) as usize] += 1;
        }
        self.mark_dirty(p);
        self.debug_check_counters(vbn);
        Ok(())
    }

    /// Allocate the run `start .. start+len` in bulk: whole-word bit
    /// stores, one summary-counter update per touched page and per touched
    /// AA, and one dirty mark per page — instead of the per-bit loop's
    /// per-block bookkeeping. `DirtyStats` accounting is identical to
    /// `len` calls of [`Bitmap::allocate`].
    ///
    /// Atomic: if any bit in the run is already allocated (or the run
    /// leaves the space), the error names the first offending VBN and the
    /// bitmap is left untouched.
    pub fn allocate_run(&mut self, start: Vbn, len: u64) -> WaflResult<()> {
        self.mutate_run(start, len, true)
    }

    /// Free the run `start .. start+len` in bulk. Counterpart of
    /// [`Bitmap::allocate_run`]; errors (without mutating) if any bit in
    /// the run is already free.
    pub fn free_run(&mut self, start: Vbn, len: u64) -> WaflResult<()> {
        self.mutate_run(start, len, false)
    }

    fn mutate_run(&mut self, start: Vbn, len: u64, alloc: bool) -> WaflResult<()> {
        if len == 0 {
            return Ok(());
        }
        let s = start.get();
        let end = s.saturating_add(len);
        if s >= self.space_len || end > self.space_len {
            // Same VBN the per-bit loop would have tripped on: the start
            // if it is already out of range, else the first VBN past the
            // space.
            let vbn = if s >= self.space_len {
                start
            } else {
                Vbn(self.space_len)
            };
            return Err(WaflError::VbnOutOfRange {
                vbn,
                space_len: self.space_len,
            });
        }
        // Pass 1: verify the whole run is in the expected state, so a
        // mismatch mid-run cannot leave a half-applied mutation.
        let mut pos = s;
        while pos < end {
            let p = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let in_page = pos % BITS_PER_BITMAP_BLOCK;
            let page_end = ((p as u64 + 1) * BITS_PER_BITMAP_BLOCK).min(end);
            let in_page_end = in_page + (page_end - pos);
            let bad = if alloc {
                self.pages[p].first_allocated_in(in_page, in_page_end)
            } else {
                self.pages[p].first_free_in(in_page, in_page_end)
            };
            if let Some(i) = bad {
                return Err(WaflError::BitmapStateMismatch {
                    vbn: Vbn(p as u64 * BITS_PER_BITMAP_BLOCK + i),
                    expected_free: alloc,
                });
            }
            pos = page_end;
        }
        // Pass 2: apply with word stores; each touched page costs one
        // counter update and one dirty mark.
        let mut pos = s;
        while pos < end {
            let p = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let in_page = pos % BITS_PER_BITMAP_BLOCK;
            let page_end = ((p as u64 + 1) * BITS_PER_BITMAP_BLOCK).min(end);
            let in_page_end = in_page + (page_end - pos);
            let touched = (page_end - pos) as u16;
            if alloc {
                self.pages[p].set_range_allocated(in_page, in_page_end);
                self.page_free[p] -= touched;
            } else {
                self.pages[p].set_range_free(in_page, in_page_end);
                self.page_free[p] += touched;
            }
            if !self.dirty[p] {
                self.dirty[p] = true;
                self.stats.pages_dirtied += 1;
            }
            pos = page_end;
        }
        self.stats.bits_flipped += len;
        if alloc {
            self.free_blocks -= len;
        } else {
            self.free_blocks += len;
        }
        if let Some(sm) = self.aa_summary.as_mut() {
            let first_aa = s / sm.aa_blocks;
            let last_aa = (end - 1) / sm.aa_blocks;
            for aa in first_aa..=last_aa {
                let aa_start = aa * sm.aa_blocks;
                let aa_end = aa_start + sm.aa_blocks;
                let overlap = (end.min(aa_end) - s.max(aa_start)) as u32;
                if alloc {
                    sm.counts[aa as usize] -= overlap;
                } else {
                    sm.counts[aa as usize] += overlap;
                }
            }
        }
        if cfg!(debug_assertions) {
            self.debug_check_counters(start);
            self.debug_check_counters(Vbn(end - 1));
        }
        Ok(())
    }

    /// Free a strictly ascending batch of VBNs: [`Bitmap::free_batch`]
    /// behind a check of the order, which rejects a duplicate or an
    /// out-of-order VBN before anything changes.
    pub fn free_sorted_blocks(&mut self, vbns: &[Vbn]) -> WaflResult<()> {
        if let Some(w) = vbns.windows(2).find(|w| w[1] <= w[0]) {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "free_sorted_blocks: VBN {} out of order after {}",
                    w[1].get(),
                    w[0].get()
                ),
            });
        }
        self.free_batch(vbns)
    }

    /// Free a batch of VBNs in any order, in one pass: the CP's
    /// immediate-free path. Random overwrites free thousands of isolated
    /// blocks per CP, where sorting them first costs more than it saves.
    /// VBNs next to each other in the batch that share a 64-bit word
    /// share one check-and-clear; the counters advance by the number of
    /// VBNs, and the AA counter is found by a reciprocal multiply.
    /// `DirtyStats` accounting is identical to calling [`Bitmap::free`]
    /// once per VBN.
    ///
    /// Atomic: a VBN out of range or already free (before the call, or
    /// earlier in the batch) undoes the frees before it and is named in
    /// the error: the first VBN, in batch order, that [`Bitmap::free`]
    /// would refuse. Bits, counters, `free_blocks` and `DirtyStats` are
    /// then as before the call.
    pub fn free_batch(&mut self, vbns: &[Vbn]) -> WaflResult<()> {
        let mut newly_dirty = Vec::new();
        // One copy of the loop per way of counting AAs: none tests for
        // the summary per VBN.
        let cleared = match self.aa_summary.as_ref().map(|s| s.aa_blocks % 64 == 0) {
            None => self.clear_groups::<0>(vbns, &mut newly_dirty),
            // A word never straddles an AA boundary: one bump a group.
            Some(true) => self.clear_groups::<1>(vbns, &mut newly_dirty),
            Some(false) => self.clear_groups::<2>(vbns, &mut newly_dirty),
        };
        if let Err((done, err)) = cleared {
            for &v in &vbns[..done] {
                let (p, i) = self.locate(v)?;
                self.pages[p].set_allocated(i);
                self.page_free[p] -= 1;
                if let Some(s) = self.aa_summary.as_mut() {
                    s.counts[(v.get() / s.aa_blocks) as usize] -= 1;
                }
            }
            for p in newly_dirty {
                self.dirty[p] = false;
            }
            return Err(err);
        }
        self.stats.pages_dirtied += newly_dirty.len() as u64;
        self.stats.bits_flipped += vbns.len() as u64;
        self.free_blocks += vbns.len() as u64;
        if let (Some(&first), Some(&last)) = (vbns.first(), vbns.last()) {
            self.debug_check_counters(first);
            self.debug_check_counters(last);
        }
        Ok(())
    }

    /// [`Bitmap::free_batch`]'s pass, with the AA summary off (`AA` 0),
    /// bumped once a group (1) or once a VBN (2): clears the bits, bumps
    /// the counters and pushes each page it dirties to `newly_dirty`. On
    /// a refused VBN, returns how many VBNs before it were cleared.
    fn clear_groups<const AA: u8>(
        &mut self,
        vbns: &[Vbn],
        newly_dirty: &mut Vec<usize>,
    ) -> Result<(), (usize, WaflError)> {
        let Bitmap {
            pages,
            dirty,
            space_len,
            page_free,
            aa_summary,
            ..
        } = self;
        let space_len = *space_len;
        let (r, counts) = match aa_summary {
            Some(s) => (Reciprocal::new(s.aa_blocks), &mut s.counts[..]),
            None => (Reciprocal::new(1), &mut [][..]),
        };
        let mut i = 0;
        while i < vbns.len() {
            let v = vbns[i].get();
            if v >= space_len {
                let vbn = vbns[i];
                return Err((i, WaflError::VbnOutOfRange { vbn, space_len }));
            }
            // The group: the VBNs from `i` on in `v`'s word, up to a
            // repeat, which the next group then finds already free.
            let mut mask = 1u64 << (v % 64);
            let mut end = i + 1;
            while end < vbns.len() {
                let next = vbns[end].get();
                let bit = 1u64 << (next % 64);
                if next ^ v >= 64 || mask & bit != 0 || next >= space_len {
                    break;
                }
                mask |= bit;
                end += 1;
            }
            let p = (v / BITS_PER_BITMAP_BLOCK) as usize;
            let clear = pages[p].clear_word_bits((v / 64) as usize % WORDS_PER_PAGE, mask);
            if clear != 0 {
                let bad = vbns[i..end]
                    .iter()
                    .find(|x| clear & 1 << (x.get() % 64) != 0);
                let vbn = *bad.expect("a clear bit is one of the group's");
                let expected_free = false;
                return Err((i, WaflError::BitmapStateMismatch { vbn, expected_free }));
            }
            let n = end - i;
            page_free[p] += n as u16;
            if !dirty[p] {
                dirty[p] = true;
                newly_dirty.push(p);
            }
            match AA {
                1 => counts[r.quotient(v) as usize] += n as u32,
                2 => vbns[i..end]
                    .iter()
                    .for_each(|x| counts[r.quotient(x.get()) as usize] += 1),
                _ => {}
            }
            i = end;
        }
        Ok(())
    }

    /// Iterate the maximal runs of consecutive free VBNs in
    /// `start .. start+len` as `(run_start, run_len)` pairs, ascending.
    /// Fully-allocated pages are skipped from their summary counter and
    /// free stretches advance word-at-a-time, so walking an AA costs
    /// O(words touched), not O(bits).
    pub fn free_runs_in_range(
        &self,
        start: Vbn,
        len: u64,
    ) -> impl Iterator<Item = (Vbn, u64)> + '_ {
        let end = start.get().saturating_add(len).min(self.space_len);
        FreeRunIter {
            bitmap: self,
            next: start.get(),
            end,
        }
    }

    /// Claim the lowest `quota` free VBNs of `start .. start+len` (clamped
    /// to the space): search and take in one walk. The range is read a
    /// 64-bit word at a time — edge words masked, pages whose summary
    /// counter reads full skipped unread — and the free bits of a word
    /// are set in the word just read, so there is nothing to re-validate
    /// between finding a block and owning it. The summary counters and
    /// `DirtyStats` advance once per touched word or page, to exactly
    /// what one [`Bitmap::allocate`] per claimed VBN would leave.
    ///
    /// The claimed VBNs are appended to `vbns` and their maximal runs
    /// (merged across word and page boundaries within this call) to
    /// `runs`, both ascending.
    pub fn claim_free_in_range(
        &mut self,
        start: Vbn,
        len: u64,
        quota: u64,
        runs: &mut Vec<(Vbn, u64)>,
        vbns: &mut Vec<Vbn>,
    ) -> Claim {
        let end = start.get().saturating_add(len).min(self.space_len);
        let first_run = runs.len();
        let Bitmap {
            pages,
            dirty,
            stats,
            page_free,
            aa_summary,
            ..
        } = self;
        let mut left = quota;
        let mut pos = start.get();
        while pos < end && left > 0 {
            let p = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let page_start = p as u64 * BITS_PER_BITMAP_BLOCK;
            let page_end = (page_start + BITS_PER_BITMAP_BLOCK).min(end);
            let mut page_taken = 0u16;
            let words = (pos - page_start) / 64..(page_end - page_start).div_ceil(64);
            for wi in words {
                // The page has nothing (more) free, or the quota is met.
                if page_taken == page_free[p] || left == 0 {
                    break;
                }
                let base = page_start + wi * 64;
                let mut mask = u64::MAX;
                if base < pos {
                    mask <<= pos - base;
                }
                if page_end - base < 64 {
                    mask &= (1u64 << (page_end - base)) - 1;
                }
                let mut take = !pages[p].words()[wi as usize] & mask;
                if take == 0 {
                    continue;
                }
                // Over quota: give back the highest free bits.
                let mut n = take.count_ones() as u64;
                while n > left {
                    take &= !(1u64 << (63 - take.leading_zeros()));
                    n -= 1;
                }
                pages[p].set_word_bits(wi as usize, take);
                left -= n;
                page_taken += n as u16;
                if let Some(sm) = aa_summary.as_mut() {
                    sm.claim_word(base, take);
                }
                // A word claimed whole is one `extend`, so a long run
                // costs what its length does; a fragmented AA is made of
                // partly claimed words, ten runs to a word, and a push per
                // bit is cheaper there than an `extend` per run.
                if take == u64::MAX {
                    vbns.extend((base..base + 64).map(Vbn));
                } else {
                    let mut bits = take;
                    while bits != 0 {
                        vbns.push(Vbn(base + bits.trailing_zeros() as u64));
                        bits &= bits - 1;
                    }
                }
                // Peel the word's runs of set bits off `take`, lowest first;
                // one that continues this call's last run extends it.
                while take != 0 {
                    let bit = take.trailing_zeros();
                    let vbn = base + bit as u64;
                    let n = (!(take >> bit)).trailing_zeros() as u64;
                    match runs[first_run..].last_mut() {
                        Some((s, l)) if s.get() + *l == vbn => *l += n,
                        _ => runs.push((Vbn(vbn), n)),
                    }
                    take &= take.wrapping_add(1u64 << bit);
                }
            }
            if page_taken > 0 {
                page_free[p] -= page_taken;
                if !dirty[p] {
                    dirty[p] = true;
                    stats.pages_dirtied += 1;
                }
            }
            pos = page_end;
        }
        stats.bits_flipped += quota - left;
        self.free_blocks -= quota - left;
        let last_taken = runs[first_run..].last().map(|&(s, l)| Vbn(s.get() + l - 1));
        if cfg!(debug_assertions) {
            for vbn in last_taken
                .into_iter()
                .chain(runs.get(first_run).map(|r| r.0))
            {
                self.debug_check_counters(vbn);
            }
        }
        let rest = last_taken.map_or(start, Vbn::next).get();
        Claim {
            last_taken,
            more_free: left == 0 && self.first_free_between(rest, end).is_some(),
        }
    }

    /// Debug-build parity check: the summary audit of the mutated `vbn`
    /// (its page's and its AA's counters). Compiled out of release builds.
    #[inline]
    fn debug_check_counters(&self, vbn: Vbn) {
        if cfg!(debug_assertions) {
            let range = vbn.get()..vbn.get() + 1;
            self.audit_range(range, &mut |c| panic!("{c}"));
        }
    }

    /// Number of free blocks in `start .. start+len` (clamped to the
    /// space). This is how an AA score is computed from the metafile
    /// (§3.3: "computed by consulting bitmap metafiles") — but pages the
    /// range fully covers are answered from the per-page summary counter,
    /// so only the two partial edge pages ever cost a popcount.
    pub fn free_count_range(&self, start: Vbn, len: u64) -> u32 {
        let start = start.get().min(self.space_len);
        let end = start.saturating_add(len).min(self.space_len);
        if start >= end {
            return 0;
        }
        let mut total = 0u32;
        let mut pos = start;
        while pos < end {
            let page = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let in_page = pos % BITS_PER_BITMAP_BLOCK;
            let page_end = ((page as u64 + 1) * BITS_PER_BITMAP_BLOCK).min(end);
            if in_page == 0 && page_end - pos == BITS_PER_BITMAP_BLOCK {
                total += self.page_free[page] as u32;
            } else {
                let in_page_end = in_page + (page_end - pos);
                total += self.pages[page].free_count_range(in_page, in_page_end);
            }
            pos = page_end;
        }
        total
    }

    /// [`Bitmap::free_count_range`] computed by raw popcount only, never
    /// consulting the summary counters. This is the pre-summary
    /// implementation, kept as the ground truth the debug assertions,
    /// property tests, and the `wafl-bench` bitmap benches compare
    /// against.
    pub fn free_count_range_popcount(&self, start: Vbn, len: u64) -> u32 {
        let start = start.get().min(self.space_len);
        let end = start.saturating_add(len).min(self.space_len);
        if start >= end {
            return 0;
        }
        let mut total = 0u32;
        let mut pos = start;
        while pos < end {
            let page = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let in_page = pos % BITS_PER_BITMAP_BLOCK;
            let page_end = ((page as u64 + 1) * BITS_PER_BITMAP_BLOCK).min(end);
            let in_page_end = in_page + (page_end - pos);
            total += self.pages[page].free_count_range(in_page, in_page_end);
            pos = page_end;
        }
        total
    }

    /// First free VBN at or after `from`, or `None`. Pages whose summary
    /// counter is zero are skipped without touching their words, so a
    /// nearly full bitmap costs one counter load per full page instead of
    /// a 4 KiB word walk.
    pub fn first_free_from(&self, from: Vbn) -> Option<Vbn> {
        self.first_free_between(from.get(), self.space_len).map(Vbn)
    }

    /// First free VBN in `from..to` (`to <= space_len`). Pages whose
    /// summary counter reads full are skipped unread, and no word past
    /// `to` is probed: a search costs at most the range it was given.
    fn first_free_between(&self, from: u64, to: u64) -> Option<u64> {
        let mut pos = from;
        while pos < to {
            let p = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let page_start = p as u64 * BITS_PER_BITMAP_BLOCK;
            let page_end = (page_start + BITS_PER_BITMAP_BLOCK).min(to);
            if self.page_free[p] != 0 {
                let hit = self.pages[p].first_free_in(pos - page_start, page_end - page_start);
                if let Some(i) = hit {
                    return Some(page_start + i);
                }
            }
            pos = page_end;
        }
        None
    }

    /// Free blocks in page `page`, from the summary counter — O(1).
    /// `None` if `page` is out of range.
    pub fn page_free_count(&self, page: usize) -> Option<u32> {
        self.page_free.get(page).map(|&c| c as u32)
    }

    /// All per-page free counts (one `u16` per 4 KiB metafile page).
    pub fn page_free_counts(&self) -> &[u16] {
        &self.page_free
    }

    /// The summary audit over VBNs `vbns`: describes to `diverged` every
    /// per-page and per-AA counter whose page or AA intersects the range
    /// and disagrees with a popcount of the raw bits. Returns the
    /// popcount free total of those pages.
    fn audit_range(&self, vbns: Range<u64>, diverged: &mut impl FnMut(&dyn Display)) -> u64 {
        let mut total = 0u64;
        let pages = vbns.start / BITS_PER_BITMAP_BLOCK..vbns.end.div_ceil(BITS_PER_BITMAP_BLOCK);
        for p in pages.map(|p| p as usize) {
            let truth = self.pages[p].free_count();
            if u32::from(self.page_free[p]) != truth {
                diverged(&format_args!(
                    "page {p} summary counter diverged from popcount"
                ));
            }
            total += u64::from(truth);
        }
        if let Some(s) = self.aa_summary.as_ref().filter(|_| !vbns.is_empty()) {
            for aa in vbns.start / s.aa_blocks..=(vbns.end - 1) / s.aa_blocks {
                let truth = self.free_count_range_popcount(Vbn(aa * s.aa_blocks), s.aa_blocks);
                if s.counts.get(aa as usize) != Some(&truth) {
                    diverged(&format_args!(
                        "AA {aa} summary counter diverged from popcount"
                    ));
                }
            }
        }
        total
    }

    /// The whole summary audit: every page, the top-level free-block
    /// total, and the per-AA summary's length against its tiling.
    fn audit(&self, diverged: &mut impl FnMut(&dyn Display)) {
        if let Some(s) = self.aa_summary.as_ref() {
            if s.counts.len() as u64 != self.space_len.div_ceil(s.aa_blocks) {
                diverged(&"AA summary length diverged from the tiling");
            }
        }
        if self.audit_range(0..self.space_len, diverged) != self.free_blocks {
            diverged(&"free_blocks counter diverged from popcount total");
        }
    }

    /// Summary counters (per-page, per-AA, the free-block total and the
    /// per-AA tiling) that disagree with the popcount ground truth: zero
    /// unless memory damage or a bug corrupted the summary. Iron repairs
    /// them with [`Bitmap::rebuild_summary`].
    pub fn summary_divergences(&self) -> u64 {
        let mut bad = 0u64;
        self.audit(&mut |_| bad += 1);
        bad
    }

    /// [`Bitmap::summary_divergences`] for one page's counter and every
    /// per-AA counter intersecting the page: the unit the scrubber checks
    /// and [`Bitmap::rebuild_page_summary`] repairs.
    pub fn page_summary_divergences(&self, page: usize) -> u64 {
        let mut bad = 0u64;
        if page < self.pages.len() {
            let start = page as u64 * BITS_PER_BITMAP_BLOCK;
            let end = (start + BITS_PER_BITMAP_BLOCK).min(self.space_len);
            self.audit_range(start..end, &mut |_| bad += 1);
        }
        bad
    }

    /// Fault-injection hook: overwrite one per-page summary counter
    /// without touching the raw bits — a memory scribble on derived
    /// state, so crash/corruption tests can exercise the Iron summary
    /// audit. No-op if `page` is out of range.
    pub fn scribble_page_counter(&mut self, page: usize, value: u16) {
        if let Some(c) = self.page_free.get_mut(page) {
            *c = value;
        }
    }

    /// Recompute the summary counters covering one metafile page from the
    /// raw bits: the page's free counter, the top-level free-block total,
    /// and any per-AA counters whose tiling intersects the page. This is
    /// the structure-scoped repair the runtime scrubber schedules — a
    /// single page's worth of popcounting instead of a whole-space
    /// [`Bitmap::rebuild_summary`]. Returns the number of counters that
    /// actually changed (0 when the summary was already exact, or `page`
    /// is out of range).
    pub fn rebuild_page_summary(&mut self, page: usize) -> u64 {
        let Some(pg) = self.pages.get(page) else {
            return 0;
        };
        let fixed = self.page_summary_divergences(page);
        self.page_free[page] = pg.free_count() as u16;
        let total = self.page_free.iter().map(|&c| u64::from(c)).sum();
        let total_fixed = std::mem::replace(&mut self.free_blocks, total) != total;
        if let Some(mut s) = self.aa_summary.take() {
            let start = page as u64 * BITS_PER_BITMAP_BLOCK;
            let end = (start + BITS_PER_BITMAP_BLOCK).min(self.space_len);
            for aa in start / s.aa_blocks..=(end - 1) / s.aa_blocks {
                let (aa_start, len) = (Vbn(aa * s.aa_blocks), s.aa_blocks);
                s.counts[aa as usize] = self.free_count_range_popcount(aa_start, len);
            }
            self.aa_summary = Some(s);
        }
        fixed + u64::from(total_fixed)
    }

    /// Recompute every summary counter from the raw bits — what WAFL Iron
    /// does for damaged derived state: recompute, don't fabricate.
    pub fn rebuild_summary(&mut self) {
        for (p, page) in self.pages.iter().enumerate() {
            self.page_free[p] = page.free_count() as u16;
        }
        self.free_blocks = self.page_free.iter().map(|&c| c as u64).sum();
        if let Some(aa_blocks) = self.aa_summary_blocks() {
            let counts = self.compute_aa_counts(aa_blocks);
            self.aa_summary = Some(AaSummary { aa_blocks, counts });
        }
    }

    /// [`Bitmap::summary_divergences`] as an assertion naming the first
    /// counter that diverged. Debug builds run it at every CP
    /// ([`Bitmap::take_dirty_stats`]).
    pub fn verify_summary(&self) {
        self.audit(&mut |c| panic!("{c}"));
    }

    /// Take and reset the dirty-page statistics. Called once per CP by the
    /// consistency-point engine; the returned counts model that CP's
    /// metafile-block I/O. Debug builds verify the whole free-count
    /// summary against popcount ground truth here, so every CP boundary
    /// re-proves the counters exact.
    pub fn take_dirty_stats(&mut self) -> DirtyStats {
        if cfg!(debug_assertions) {
            self.verify_summary();
        }
        let out = self.stats;
        self.stats = DirtyStats::default();
        self.dirty.iter_mut().for_each(|d| *d = false);
        out
    }

    /// Grow the space to `new_len` VBNs (aggregate growth: §3.1's "RAID
    /// group creation and growth"). The old tail page's padding becomes
    /// real free space; new pages arrive free with the new tail padded.
    /// Shrinking is not supported.
    pub fn extend(&mut self, new_len: u64) -> WaflResult<()> {
        if new_len < self.space_len {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "cannot shrink a bitmap from {} to {new_len}",
                    self.space_len
                ),
            });
        }
        if new_len == self.space_len {
            return Ok(());
        }
        // Unpad the old tail up to the page boundary (or new_len).
        let old_len = self.space_len;
        let old_tail = old_len % BITS_PER_BITMAP_BLOCK;
        if old_tail != 0 {
            let page = (old_len / BITS_PER_BITMAP_BLOCK) as usize;
            let unpad_end = (old_len - old_tail + BITS_PER_BITMAP_BLOCK).min(new_len);
            for v in old_len..unpad_end {
                let was = self.pages[page].set_free(v % BITS_PER_BITMAP_BLOCK);
                debug_assert!(was, "tail padding must have been allocated");
                self.free_blocks += 1;
                self.page_free[page] += 1;
            }
        }
        // Append whole pages.
        let new_pages = new_len.div_ceil(BITS_PER_BITMAP_BLOCK) as usize;
        while self.pages.len() < new_pages {
            self.pages.push(BitmapPage::new_free());
            self.dirty.push(false);
            let page_start = (self.pages.len() as u64 - 1) * BITS_PER_BITMAP_BLOCK;
            let free = BITS_PER_BITMAP_BLOCK.min(new_len - page_start);
            self.free_blocks += free;
            self.page_free.push(free as u16);
        }
        // Pad the new tail. The pushed counter above already excludes the
        // padding, and set_allocated on padding bits flips real bits only
        // for freshly pushed pages (whose counter accounts for them).
        let new_tail = new_len % BITS_PER_BITMAP_BLOCK;
        if new_tail != 0 {
            let last = self.pages.last_mut().expect("pages exist after extend");
            for i in new_tail..BITS_PER_BITMAP_BLOCK {
                last.set_allocated(i);
            }
        }
        self.space_len = new_len;
        // The AA tiling over the grown space has more (and re-shaped
        // trailing) AAs: rebuild its counters from the page summaries.
        // Growth is a RAID-group-addition-frequency event, not a hot path.
        if let Some(aa_blocks) = self.aa_summary_blocks() {
            let counts = self.compute_aa_counts(aa_blocks);
            self.aa_summary = Some(AaSummary { aa_blocks, counts });
        }
        if cfg!(debug_assertions) {
            self.verify_summary();
        }
        Ok(())
    }

    /// Read-only access to a page, for scans and serialization.
    /// `None` if `page` is out of range.
    pub fn page(&self, page: usize) -> Option<&BitmapPage> {
        self.pages.get(page)
    }
}

struct FreeRunIter<'a> {
    bitmap: &'a Bitmap,
    next: u64,
    end: u64,
}

impl Iterator for FreeRunIter<'_> {
    type Item = (Vbn, u64);

    fn next(&mut self) -> Option<(Vbn, u64)> {
        let start = self.bitmap.first_free_between(self.next, self.end)?;
        // Extend the run page by page, never probing past the range end:
        // a page whose remainder holds no allocated bit is consumed
        // whole, so long runs cost one probe per 32 Ki bits rather than
        // one per bit, and short runs stop at the word that ends them.
        let mut pos = start;
        while pos < self.end {
            let p = pos / BITS_PER_BITMAP_BLOCK;
            let page_start = p * BITS_PER_BITMAP_BLOCK;
            let page_end = (page_start + BITS_PER_BITMAP_BLOCK).min(self.end);
            let hit = self.bitmap.pages[p as usize]
                .first_allocated_in(pos - page_start, page_end - page_start);
            match hit {
                Some(i) => {
                    pos = page_start + i;
                    break;
                }
                None => pos = page_end,
            }
        }
        self.next = pos + 1; // +1: the bit at `pos` is allocated (or the range's end)
        Some((Vbn(start), pos - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bitmap_is_all_free() {
        let b = Bitmap::new(100_000);
        assert_eq!(b.free_blocks(), 100_000);
        assert_eq!(b.space_len(), 100_000);
        assert_eq!(b.page_count(), 4); // ceil(100_000 / 32768)
        assert_eq!(b.free_fraction(), 1.0);
    }

    #[test]
    fn tail_padding_is_not_free_space() {
        // 40_000 VBNs: second page is mostly padding.
        let b = Bitmap::new(40_000);
        assert_eq!(b.free_count_range(Vbn(0), u64::MAX), 40_000);
        assert_eq!(b.first_free_from(Vbn(39_999)), Some(Vbn(39_999)));
        assert_eq!(b.free_count_range(Vbn(32_768), 32_768), 40_000 - 32_768);
    }

    #[test]
    fn allocate_free_round_trip() {
        let mut b = Bitmap::new(1000);
        b.allocate(Vbn(10)).unwrap();
        assert!(!b.is_free(Vbn(10)).unwrap());
        assert_eq!(b.free_blocks(), 999);
        b.free(Vbn(10)).unwrap();
        assert!(b.is_free(Vbn(10)).unwrap());
        assert_eq!(b.free_blocks(), 1000);
    }

    #[test]
    fn rebuild_page_summary_fixes_only_the_scribbled_page() {
        let mut b = Bitmap::new(3 * BITS_PER_BITMAP_BLOCK);
        b.enable_aa_summary(BITS_PER_BITMAP_BLOCK / 4).unwrap();
        for v in 0..100 {
            b.allocate(Vbn(v)).unwrap();
        }
        b.scribble_page_counter(1, 7);
        // The scribble hit page 1's counter only; the tracked total, AA
        // counters, and other pages are still exact, so the audit finds
        // and the repair fixes exactly one counter.
        assert_eq!(b.summary_divergences(), 1);
        assert_eq!(
            (0..4)
                .map(|p| b.page_summary_divergences(p))
                .collect::<Vec<_>>(),
            [0, 1, 0, 0]
        );
        assert_eq!(b.rebuild_page_summary(1), 1);
        b.verify_summary();
        // Repairing a clean page is a no-op, as is an out-of-range page.
        assert_eq!(b.rebuild_page_summary(0), 0);
        assert_eq!(b.rebuild_page_summary(999), 0);
    }

    #[test]
    #[should_panic(expected = "page 1 summary counter diverged from popcount")]
    fn verify_summary_names_the_counter_that_diverged() {
        let mut b = Bitmap::new(2 * BITS_PER_BITMAP_BLOCK);
        b.scribble_page_counter(1, 7);
        b.verify_summary();
    }

    #[test]
    fn run_mutators_match_per_bit_loop_and_are_atomic() {
        // Run crossing a page boundary on a summary-enabled bitmap.
        let mut bulk = Bitmap::new(3 * BITS_PER_BITMAP_BLOCK);
        bulk.enable_aa_summary(BITS_PER_BITMAP_BLOCK / 4).unwrap();
        let mut bit = Bitmap::new(3 * BITS_PER_BITMAP_BLOCK);
        bit.enable_aa_summary(BITS_PER_BITMAP_BLOCK / 4).unwrap();
        let (start, len) = (BITS_PER_BITMAP_BLOCK - 100, 300);
        bulk.allocate_run(Vbn(start), len).unwrap();
        for v in start..start + len {
            bit.allocate(Vbn(v)).unwrap();
        }
        assert_eq!(bulk.free_blocks(), bit.free_blocks());
        assert_eq!(
            bulk.aa_free_counts(BITS_PER_BITMAP_BLOCK / 4),
            bit.aa_free_counts(BITS_PER_BITMAP_BLOCK / 4)
        );
        assert_eq!(bulk.take_dirty_stats(), bit.take_dirty_stats());
        // Atomic: a mid-run conflict reports the first offending VBN and
        // leaves the bitmap untouched.
        let before = bulk.free_blocks();
        let err = bulk.allocate_run(Vbn(start - 10), 20).unwrap_err();
        assert!(matches!(
            err,
            WaflError::BitmapStateMismatch { vbn, expected_free: true } if vbn == Vbn(start)
        ));
        assert_eq!(bulk.free_blocks(), before);
        bulk.verify_summary();
        // Free the run back in bulk; out-of-range runs also fail cleanly.
        bulk.free_run(Vbn(start), len).unwrap();
        assert_eq!(bulk.free_blocks(), 3 * BITS_PER_BITMAP_BLOCK);
        bulk.verify_summary();
        assert!(matches!(
            bulk.allocate_run(Vbn(3 * BITS_PER_BITMAP_BLOCK - 1), 2),
            Err(WaflError::VbnOutOfRange { .. })
        ));
        assert!(bulk.allocate_run(Vbn(0), 0).is_ok());
    }

    #[test]
    fn free_sorted_blocks_matches_per_block_free() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        // An AA size that is not a multiple of 64 exercises the per-bit
        // summary fallback; a page-sized one exercises the per-word fast
        // path.
        for aa_blocks in [1000, BITS_PER_BITMAP_BLOCK] {
            let space = 3 * BITS_PER_BITMAP_BLOCK;
            let mut bulk = Bitmap::new(space);
            bulk.enable_aa_summary(aa_blocks).unwrap();
            let mut bit = Bitmap::new(space);
            bit.enable_aa_summary(aa_blocks).unwrap();
            // Allocate everything, then free a scattered sorted subset
            // (isolated bits, same-word neighbours, word and page
            // boundaries all show up at this density).
            for b in [&mut bulk, &mut bit] {
                b.allocate_run(Vbn(0), space).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(aa_blocks);
            let mut vbns: Vec<Vbn> = (0..space)
                .filter(|_| rng.random_bool(0.1))
                .map(Vbn)
                .collect();
            for &must in &[
                0,
                63,
                64,
                BITS_PER_BITMAP_BLOCK - 1,
                BITS_PER_BITMAP_BLOCK,
                space - 1,
            ] {
                if !vbns.contains(&Vbn(must)) {
                    vbns.push(Vbn(must));
                }
            }
            vbns.sort_unstable();
            bulk.free_sorted_blocks(&vbns).unwrap();
            for &v in &vbns {
                bit.free(v).unwrap();
            }
            assert_eq!(bulk.free_blocks(), bit.free_blocks());
            assert_eq!(
                bulk.aa_free_counts(aa_blocks),
                bit.aa_free_counts(aa_blocks)
            );
            for p in 0..bulk.page_count() {
                assert_eq!(bulk.pages[p].words(), bit.pages[p].words(), "page {p}");
            }
            assert_eq!(bulk.take_dirty_stats(), bit.take_dirty_stats());
            bulk.verify_summary();
        }
    }

    #[test]
    fn free_sorted_blocks_is_atomic_and_validates_input() {
        let mut b = Bitmap::new(2 * BITS_PER_BITMAP_BLOCK);
        b.enable_aa_summary(BITS_PER_BITMAP_BLOCK).unwrap();
        b.allocate_run(Vbn(100), 50).unwrap();
        let stats_before = b.stats;
        // VBN 200 is already free: the whole batch must bounce untouched,
        // naming the offending VBN.
        let err = b
            .free_sorted_blocks(&[Vbn(100), Vbn(101), Vbn(200)])
            .unwrap_err();
        assert!(matches!(
            err,
            WaflError::BitmapStateMismatch { vbn, expected_free: false } if vbn == Vbn(200)
        ));
        assert!(!b.is_free(Vbn(100)).unwrap());
        assert_eq!(b.free_blocks(), 2 * BITS_PER_BITMAP_BLOCK - 50);
        assert_eq!(b.stats, stats_before, "failed batch left no dirty marks");
        // Duplicates are double frees; unsorted input is rejected too.
        assert!(matches!(
            b.free_sorted_blocks(&[Vbn(100), Vbn(100)]),
            Err(WaflError::InvalidConfig { .. })
        ));
        assert!(matches!(
            b.free_sorted_blocks(&[Vbn(101), Vbn(100)]),
            Err(WaflError::InvalidConfig { .. })
        ));
        assert!(matches!(
            b.free_sorted_blocks(&[Vbn(2 * BITS_PER_BITMAP_BLOCK)]),
            Err(WaflError::VbnOutOfRange { .. })
        ));
        assert!(b.free_sorted_blocks(&[]).is_ok());
        b.verify_summary();
    }

    #[test]
    fn free_runs_in_range_yields_maximal_runs() {
        let mut b = Bitmap::new(2 * BITS_PER_BITMAP_BLOCK);
        // Carve the space into: [0,5) allocated, [5,100) free, [100,101)
        // allocated, then free across the page boundary until a late
        // allocated bit, then free tail.
        b.allocate_run(Vbn(0), 5).unwrap();
        b.allocate(Vbn(100)).unwrap();
        let late = BITS_PER_BITMAP_BLOCK + 50;
        b.allocate(Vbn(late)).unwrap();
        let runs: Vec<_> = b.free_runs_in_range(Vbn(0), u64::MAX).collect();
        assert_eq!(
            runs,
            vec![
                (Vbn(5), 95),
                (Vbn(101), late - 101),
                (Vbn(late + 1), 2 * BITS_PER_BITMAP_BLOCK - (late + 1)),
            ]
        );
        // Clamped range splits mid-run.
        let clamped: Vec<_> = b.free_runs_in_range(Vbn(50), 100).collect();
        assert_eq!(clamped, vec![(Vbn(50), 50), (Vbn(101), 49)]);
        // Fully allocated range yields nothing.
        assert_eq!(b.free_runs_in_range(Vbn(0), 5).count(), 0);
    }

    #[test]
    fn double_allocate_and_double_free_fail() {
        let mut b = Bitmap::new(1000);
        b.allocate(Vbn(5)).unwrap();
        assert!(matches!(
            b.allocate(Vbn(5)),
            Err(WaflError::BitmapStateMismatch { .. })
        ));
        b.free(Vbn(5)).unwrap();
        assert!(matches!(
            b.free(Vbn(5)),
            Err(WaflError::BitmapStateMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut b = Bitmap::new(1000);
        assert!(matches!(
            b.allocate(Vbn(1000)),
            Err(WaflError::VbnOutOfRange { .. })
        ));
        assert!(b.is_free(Vbn(1_000_000)).is_err());
    }

    #[test]
    fn free_count_range_spans_pages() {
        let mut b = Bitmap::new(3 * 32768);
        // Allocate a band straddling the page-0/page-1 boundary.
        for v in 32_700..32_900 {
            b.allocate(Vbn(v)).unwrap();
        }
        assert_eq!(b.free_count_range(Vbn(32_700), 200), 0);
        assert_eq!(b.free_count_range(Vbn(0), 3 * 32768), 3 * 32768 - 200);
        assert_eq!(b.free_count_range(Vbn(32_699), 202), 2);
    }

    #[test]
    fn first_free_crosses_page_boundary() {
        let mut b = Bitmap::new(2 * 32768);
        for v in 0..32768 {
            b.allocate(Vbn(v)).unwrap();
        }
        assert_eq!(b.first_free_from(Vbn(0)), Some(Vbn(32768)));
    }

    #[test]
    fn first_free_worst_case_lands_in_last_page() {
        // Worst case for the pre-summary word-walk: every page except
        // the last is completely allocated and the only free bit is the
        // final VBN. The skip-scan must answer from three counter reads
        // plus one page walk instead of scanning 2048 words.
        const PAGES: u64 = 4;
        let len = PAGES * BITS_PER_BITMAP_BLOCK;
        let mut b = Bitmap::new(len);
        for v in 0..len - 1 {
            b.allocate(Vbn(v)).unwrap();
        }
        for p in 0..PAGES as usize - 1 {
            assert_eq!(b.page_free_count(p), Some(0));
        }
        assert_eq!(b.page_free_count(PAGES as usize - 1), Some(1));
        assert_eq!(b.first_free_from(Vbn(0)), Some(Vbn(len - 1)));
        assert_eq!(b.first_free_from(Vbn(len - 1)), Some(Vbn(len - 1)));
        // Once that bit goes too, the scan exhausts via counters alone.
        b.allocate(Vbn(len - 1)).unwrap();
        assert_eq!(b.first_free_from(Vbn(0)), None);
        b.free(Vbn(17)).unwrap();
        assert_eq!(b.first_free_from(Vbn(0)), Some(Vbn(17)));
        assert_eq!(b.first_free_from(Vbn(18)), None);
    }

    #[test]
    fn dirty_stats_count_distinct_pages_once() {
        let mut b = Bitmap::new(4 * 32768);
        // Two flips in page 0, one in page 2.
        b.allocate(Vbn(1)).unwrap();
        b.allocate(Vbn(2)).unwrap();
        b.allocate(Vbn(2 * 32768 + 5)).unwrap();
        let s = b.take_dirty_stats();
        assert_eq!(s.pages_dirtied, 2);
        assert_eq!(s.bits_flipped, 3);
        // Stats reset after take.
        let s2 = b.take_dirty_stats();
        assert_eq!(s2, DirtyStats::default());
        // A page dirtied again counts again in the next window.
        b.free(Vbn(1)).unwrap();
        assert_eq!(b.take_dirty_stats().pages_dirtied, 1);
    }

    #[test]
    fn colocated_allocations_dirty_fewer_pages() {
        // The core of paper §2.5, as a unit test: 1000 colocated
        // allocations touch 1 page; 1000 scattered ones touch many.
        let mut colocated = Bitmap::new(100 * 32768);
        for v in 0..1000u64 {
            colocated.allocate(Vbn(v)).unwrap();
        }
        let mut scattered = Bitmap::new(100 * 32768);
        for i in 0..1000u64 {
            scattered.allocate(Vbn(i * 3277)).unwrap(); // stride over pages
        }
        let c = colocated.take_dirty_stats();
        let s = scattered.take_dirty_stats();
        assert_eq!(c.pages_dirtied, 1);
        assert!(
            s.pages_dirtied > 90,
            "scattered dirtied {}",
            s.pages_dirtied
        );
    }

    #[test]
    fn extend_grows_free_space_exactly() {
        // 40_000 -> 100_000: old tail padding becomes free, new pages
        // arrive free, the new tail is padded.
        let mut b = Bitmap::new(40_000);
        for v in 0..100 {
            b.allocate(Vbn(v)).unwrap();
        }
        b.extend(100_000).unwrap();
        assert_eq!(b.space_len(), 100_000);
        assert_eq!(b.free_blocks(), 100_000 - 100);
        assert_eq!(b.page_count(), 4);
        // The formerly padded region is usable.
        assert!(b.is_free(Vbn(40_000)).unwrap());
        b.allocate(Vbn(99_999)).unwrap();
        assert!(b.allocate(Vbn(100_000)).is_err());
        // Counting agrees with the incremental tracker.
        assert_eq!(b.free_count_range(Vbn(0), u64::MAX) as u64, b.free_blocks());
    }

    #[test]
    fn extend_is_idempotent_at_same_size_and_rejects_shrink() {
        let mut b = Bitmap::new(50_000);
        b.extend(50_000).unwrap();
        assert_eq!(b.free_blocks(), 50_000);
        assert!(b.extend(10_000).is_err());
    }

    #[test]
    fn extend_within_the_same_page() {
        let mut b = Bitmap::new(10_000);
        b.extend(20_000).unwrap();
        assert_eq!(b.page_count(), 1);
        assert_eq!(b.free_blocks(), 20_000);
        assert!(b.is_free(Vbn(15_000)).unwrap());
        assert!(b.is_free(Vbn(19_999)).unwrap());
        assert!(b.allocate(Vbn(20_000)).is_err());
    }

    #[test]
    fn zero_length_space() {
        let b = Bitmap::new(0);
        assert_eq!(b.free_blocks(), 0);
        assert_eq!(b.page_count(), 0);
        assert_eq!(b.first_free_from(Vbn(0)), None);
        assert_eq!(b.free_fraction(), 0.0);
    }
}
