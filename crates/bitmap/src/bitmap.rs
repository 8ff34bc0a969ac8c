//! The whole activemap for one block-number space, with dirty-page
//! accounting.

use crate::page::{BitmapPage, WORDS_PER_PAGE};
use std::fmt::Display;
use std::ops::Range;
use wafl_types::{Vbn, WaflError, WaflResult, BITS_PER_BITMAP_BLOCK};

/// log2 of [`BITS_PER_BITMAP_BLOCK`]: a page is the largest summary unit.
const PAGE_SHIFT: u32 = BITS_PER_BITMAP_BLOCK.trailing_zeros();

/// log2 of the smallest summary unit, one 64-bit word: a word never
/// straddles two units.
const WORD_SHIFT: u32 = 6;

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
/// // AA scores are range free-counts (§3.3), answered from the summary
/// // counters where whole units are covered.
/// assert_eq!(map.free_count_range(Vbn(0), 32_768), 32_767);
///
/// // Each CP's metafile I/O is the dirty-page count (§2.5).
/// assert_eq!(map.take_dirty_stats().pages_dirtied, 1);
/// ```
///
/// # Free-count summary
///
/// The paper's premise is that "a linear walk of the bitmap metafiles" to
/// recompute AA scores is too expensive to do on demand (§3.4). The bitmap
/// therefore keeps one `u16` free-bit counter per *summary unit*, kept
/// exact by every mutator: a power-of-two run of 64 ..= 32 Ki VBNs, so a
/// 64-bit word never straddles two units and a unit never straddles two
/// pages.
///
/// * [`Bitmap::new`] counts per 4 KiB metafile page (2 bytes per 32 Ki
///   tracked blocks).
/// * [`Bitmap::for_aa_tiling`] counts per AA of a flat tiling when the AA
///   size allows it, so an AA score is one counter load.
///
/// Range queries answer fully covered units from the counter and popcount
/// only the partial edges; skip-scans jump over units whose counter is
/// zero. Debug builds verify every touched counter against the popcount
/// ground truth on each mutation, and the whole summary at every
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
    /// log2 of the VBNs per summary unit, `WORD_SHIFT ..= PAGE_SHIFT`.
    unit_shift: u32,
    /// Free bits per summary unit (32 Ki max fits `u16`), kept exact by
    /// every mutation; `space_len.div_ceil(unit)` entries.
    unit_free: Vec<u16>,
}

impl Bitmap {
    /// An all-free bitmap covering `space_len` VBNs, one summary counter
    /// per page. The final page is padded with *allocated* bits past
    /// `space_len` so range queries never see phantom free space.
    pub fn new(space_len: u64) -> Bitmap {
        Bitmap::with_unit_shift(space_len, PAGE_SHIFT)
    }

    /// An all-free bitmap for a space tiled in AAs of `aa_blocks`
    /// consecutive VBNs: the summary unit is the AA when `aa_blocks` is a
    /// power of two in 64 ..= 32 Ki — every production volume AA size —
    /// so each AA score is one counter. Any other size counts per page.
    pub fn for_aa_tiling(space_len: u64, aa_blocks: u64) -> Bitmap {
        let fits = aa_blocks.is_power_of_two()
            && (1 << WORD_SHIFT..=BITS_PER_BITMAP_BLOCK).contains(&aa_blocks);
        let shift = if fits {
            aa_blocks.trailing_zeros()
        } else {
            PAGE_SHIFT
        };
        Bitmap::with_unit_shift(space_len, shift)
    }

    fn with_unit_shift(space_len: u64, unit_shift: u32) -> Bitmap {
        let page_count = space_len.div_ceil(BITS_PER_BITMAP_BLOCK) as usize;
        let mut pages = vec![BitmapPage::new_free(); page_count];
        // Pad the tail of the last page.
        let tail_start = space_len % BITS_PER_BITMAP_BLOCK;
        if let Some(last) = pages.last_mut().filter(|_| tail_start != 0) {
            last.set_range_allocated(tail_start, BITS_PER_BITMAP_BLOCK);
        }
        let unit = 1u64 << unit_shift;
        let unit_free = (0..space_len.div_ceil(unit))
            .map(|u| unit.min(space_len - u * unit) as u16)
            .collect();
        Bitmap {
            dirty: vec![false; page_count],
            pages,
            stats: DirtyStats::default(),
            space_len,
            free_blocks: space_len,
            unit_shift,
            unit_free,
        }
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

    /// VBNs per summary unit: a page, or the AA of
    /// [`Bitmap::for_aa_tiling`].
    #[inline]
    pub fn unit_blocks(&self) -> u64 {
        1 << self.unit_shift
    }

    /// Every summary counter: the free blocks of each unit, in VBN order.
    pub fn unit_free_counts(&self) -> &[u16] {
        &self.unit_free
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

    /// The summary unit holding VBN `v`.
    #[inline]
    fn unit_of(&self, v: u64) -> usize {
        (v >> self.unit_shift) as usize
    }

    /// The end of the unit holding VBN `v`, clamped to `limit`.
    #[inline]
    fn unit_end(&self, v: u64, limit: u64) -> u64 {
        (((v >> self.unit_shift) + 1) << self.unit_shift).min(limit)
    }

    /// Free bits in `start..end`, which lies in one page, by popcount.
    #[inline]
    fn popcount_in_page(&self, start: u64, end: u64) -> u32 {
        let page_start = start & !(BITS_PER_BITMAP_BLOCK - 1);
        let page = &self.pages[(start / BITS_PER_BITMAP_BLOCK) as usize];
        page.free_count_range(start - page_start, end - page_start)
    }

    /// Unit `u`'s free bits by popcount: what its counter must read. The
    /// tail padding is allocated, so the whole unit can be counted.
    fn unit_popcount(&self, u: usize) -> u32 {
        let start = (u as u64) << self.unit_shift;
        self.popcount_in_page(start, start + self.unit_blocks())
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
        let u = self.unit_of(vbn.get());
        self.unit_free[u] -= 1;
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
        let u = self.unit_of(vbn.get());
        self.unit_free[u] += 1;
        self.mark_dirty(p);
        self.debug_check_counters(vbn);
        Ok(())
    }

    /// Allocate the run `start .. start+len` in bulk: whole-word bit
    /// stores, one summary-counter update per touched unit, and one dirty
    /// mark per page — instead of the per-bit loop's per-block
    /// bookkeeping. `DirtyStats` accounting is identical to `len` calls
    /// of [`Bitmap::allocate`].
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
        // Pass 2: apply with word stores, a unit at a time; each touched
        // unit costs one counter update, each touched page a dirty mark.
        let mut pos = s;
        while pos < end {
            let p = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let in_page = pos % BITS_PER_BITMAP_BLOCK;
            let unit_end = self.unit_end(pos, end);
            let in_page_end = in_page + (unit_end - pos);
            let touched = (unit_end - pos) as u16;
            let u = self.unit_of(pos);
            if alloc {
                self.pages[p].set_range_allocated(in_page, in_page_end);
                self.unit_free[u] -= touched;
            } else {
                self.pages[p].set_range_free(in_page, in_page_end);
                self.unit_free[u] += touched;
            }
            if !self.dirty[p] {
                self.dirty[p] = true;
                self.stats.pages_dirtied += 1;
            }
            pos = unit_end;
        }
        self.stats.bits_flipped += len;
        if alloc {
            self.free_blocks -= len;
        } else {
            self.free_blocks += len;
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
    /// share one check-and-clear and one counter update (a word never
    /// straddles two summary units). `DirtyStats` accounting is identical
    /// to calling [`Bitmap::free`] once per VBN.
    ///
    /// Atomic: a VBN out of range or already free (before the call, or
    /// earlier in the batch) undoes the frees before it and is named in
    /// the error: the first VBN, in batch order, that [`Bitmap::free`]
    /// would refuse. Bits, counters, `free_blocks` and `DirtyStats` are
    /// then as before the call.
    pub fn free_batch(&mut self, vbns: &[Vbn]) -> WaflResult<()> {
        let mut newly_dirty = Vec::new();
        if let Err((done, err)) = self.clear_groups(vbns, &mut newly_dirty) {
            for &v in &vbns[..done] {
                let (p, i) = self.locate(v)?;
                self.pages[p].set_allocated(i);
                let u = self.unit_of(v.get());
                self.unit_free[u] -= 1;
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

    /// [`Bitmap::free_batch`]'s pass: clears the bits, bumps the unit
    /// counters and pushes each page it dirties to `newly_dirty`. On a
    /// refused VBN, returns how many VBNs before it were cleared.
    fn clear_groups(
        &mut self,
        vbns: &[Vbn],
        newly_dirty: &mut Vec<usize>,
    ) -> Result<(), (usize, WaflError)> {
        let Bitmap {
            pages,
            dirty,
            space_len,
            unit_shift,
            unit_free,
            ..
        } = self;
        let (space_len, unit_shift) = (*space_len, *unit_shift);
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
            unit_free[(v >> unit_shift) as usize] += (end - i) as u16;
            if !dirty[p] {
                dirty[p] = true;
                newly_dirty.push(p);
            }
            i = end;
        }
        Ok(())
    }

    /// Iterate the maximal runs of consecutive free VBNs in
    /// `start .. start+len` as `(run_start, run_len)` pairs, ascending.
    /// Fully-allocated units are skipped from their summary counter and
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
    /// 64-bit word at a time — edge words masked, units whose summary
    /// counter reads full skipped unread — and the free bits of a word
    /// are set in the word just read, so there is nothing to re-validate
    /// between finding a block and owning it. The summary counters and
    /// `DirtyStats` advance once per touched unit or page, to exactly
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
        let mut left = quota;
        let mut pos = start.get();
        while pos < end && left > 0 {
            let u = self.unit_of(pos);
            let unit_end = self.unit_end(pos, end);
            let Bitmap {
                pages,
                dirty,
                stats,
                unit_free,
                ..
            } = self;
            let p = (pos / BITS_PER_BITMAP_BLOCK) as usize;
            let page_start = p as u64 * BITS_PER_BITMAP_BLOCK;
            let mut unit_taken = 0u16;
            let words = (pos - page_start) / 64..(unit_end - page_start).div_ceil(64);
            for wi in words {
                // The unit has nothing (more) free, or the quota is met.
                if unit_taken == unit_free[u] || left == 0 {
                    break;
                }
                let base = page_start + wi * 64;
                let mut mask = u64::MAX;
                if base < pos {
                    mask <<= pos - base;
                }
                if unit_end - base < 64 {
                    mask &= (1u64 << (unit_end - base)) - 1;
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
                unit_taken += n as u16;
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
            if unit_taken > 0 {
                unit_free[u] -= unit_taken;
                if !dirty[p] {
                    dirty[p] = true;
                    stats.pages_dirtied += 1;
                }
            }
            pos = unit_end;
        }
        self.stats.bits_flipped += quota - left;
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
    /// (its unit's counter). Compiled out of release builds.
    #[inline]
    fn debug_check_counters(&self, vbn: Vbn) {
        if cfg!(debug_assertions) {
            let range = vbn.get()..vbn.get() + 1;
            self.audit_range(range, &mut |c| panic!("{c}"));
        }
    }

    /// Number of free blocks in `start .. start+len` (clamped to the
    /// space). This is how an AA score is computed from the metafile
    /// (§3.3: "computed by consulting bitmap metafiles") — but units the
    /// range fully covers are answered from their summary counter, so
    /// only the two partial edge units ever cost a popcount. An AA that
    /// is the bitmap's unit ([`Bitmap::for_aa_tiling`]) is one load.
    #[inline]
    pub fn free_count_range(&self, start: Vbn, len: u64) -> u32 {
        if len == self.unit_blocks() && start.get() & (len - 1) == 0 {
            if let Some(&free) = self.unit_free.get(self.unit_of(start.get())) {
                return u32::from(free);
            }
        }
        self.count_units_in(start.get(), len)
    }

    /// [`Bitmap::free_count_range`] of a range that is not one unit.
    fn count_units_in(&self, start: u64, len: u64) -> u32 {
        let start = start.min(self.space_len);
        let end = start.saturating_add(len).min(self.space_len);
        let mut total = 0u32;
        let mut pos = start;
        while pos < end {
            // The unit's end; the space's end for the last one.
            let whole_end = self.unit_end(pos, self.space_len);
            let unit_end = whole_end.min(end);
            if pos & (self.unit_blocks() - 1) == 0 && unit_end == whole_end {
                total += u32::from(self.unit_free[self.unit_of(pos)]);
            } else {
                total += self.popcount_in_page(pos, unit_end);
            }
            pos = unit_end;
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
        let mut total = 0u32;
        let mut pos = start;
        while pos < end {
            let page_end = (pos / BITS_PER_BITMAP_BLOCK + 1) * BITS_PER_BITMAP_BLOCK;
            total += self.popcount_in_page(pos, page_end.min(end));
            pos = page_end;
        }
        total
    }

    /// First free VBN at or after `from`, or `None`. Units whose summary
    /// counter is zero are skipped without touching their words, so a
    /// nearly full bitmap costs one counter load per full unit instead of
    /// a word walk.
    pub fn first_free_from(&self, from: Vbn) -> Option<Vbn> {
        self.first_free_between(from.get(), self.space_len).map(Vbn)
    }

    /// First free VBN in `from..to` (`to <= space_len`). Units whose
    /// summary counter reads full are skipped unread, and no word past
    /// `to` is probed: a search costs at most the range it was given.
    fn first_free_between(&self, from: u64, to: u64) -> Option<u64> {
        let mut pos = from;
        while pos < to {
            let unit_end = self.unit_end(pos, to);
            if self.unit_free[self.unit_of(pos)] != 0 {
                let page_start = pos & !(BITS_PER_BITMAP_BLOCK - 1);
                let page = &self.pages[(pos / BITS_PER_BITMAP_BLOCK) as usize];
                if let Some(i) = page.first_free_in(pos - page_start, unit_end - page_start) {
                    return Some(page_start + i);
                }
            }
            pos = unit_end;
        }
        None
    }

    /// The summary audit over VBNs `vbns`: describes to `diverged` every
    /// unit counter whose unit intersects the range and disagrees with a
    /// popcount of the raw bits. Returns the popcount free total of those
    /// units.
    fn audit_range(&self, vbns: Range<u64>, diverged: &mut impl FnMut(&dyn Display)) -> u64 {
        if vbns.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        let units = self.unit_of(vbns.start)..self.unit_of(vbns.end + self.unit_blocks() - 1);
        for u in units {
            let truth = self.unit_popcount(u);
            if u32::from(self.unit_free[u]) != truth {
                let vbn = (u as u64) << self.unit_shift;
                let p = vbn / BITS_PER_BITMAP_BLOCK;
                diverged(&format_args!(
                    "page {p} summary counter diverged from popcount (unit at VBN {vbn})"
                ));
            }
            total += u64::from(truth);
        }
        total
    }

    /// The whole summary audit: every unit and the top-level free-block
    /// total.
    fn audit(&self, diverged: &mut impl FnMut(&dyn Display)) {
        if self.audit_range(0..self.space_len, diverged) != self.free_blocks {
            diverged(&"free_blocks counter diverged from popcount total");
        }
    }

    /// Summary counters (per unit and the free-block total) that disagree
    /// with the popcount ground truth: zero unless memory damage or a bug
    /// corrupted the summary. Iron repairs them with
    /// [`Bitmap::rebuild_summary`].
    pub fn summary_divergences(&self) -> u64 {
        let mut bad = 0u64;
        self.audit(&mut |_| bad += 1);
        bad
    }

    /// The VBNs of page `page` inside the space (empty past its end).
    fn page_vbns(&self, page: usize) -> Range<u64> {
        let start = (page as u64 * BITS_PER_BITMAP_BLOCK).min(self.space_len);
        start..(start + BITS_PER_BITMAP_BLOCK).min(self.space_len)
    }

    /// [`Bitmap::summary_divergences`] for the unit counters of one page:
    /// the unit the scrubber checks and [`Bitmap::rebuild_page_summary`]
    /// repairs.
    pub fn page_summary_divergences(&self, page: usize) -> u64 {
        let mut bad = 0u64;
        self.audit_range(self.page_vbns(page), &mut |_| bad += 1);
        bad
    }

    /// Fault-injection hook: flip the bits `xor` of the summary counter of
    /// page `page`'s first unit without touching the raw bits — a memory
    /// scribble on derived state, so crash/corruption tests can exercise
    /// the Iron summary audit. No-op if `page` is out of range.
    pub fn scribble_page_counter(&mut self, page: usize, xor: u16) {
        let first = self.unit_of(self.page_vbns(page).start);
        if page < self.pages.len() {
            self.unit_free[first] ^= xor;
        }
    }

    /// Recompute the summary counters covering one metafile page from the
    /// raw bits: the page's unit counters and the top-level free-block
    /// total. This is the structure-scoped repair the runtime scrubber
    /// schedules — a single page's worth of popcounting instead of a
    /// whole-space [`Bitmap::rebuild_summary`]. Returns the number of
    /// counters that actually changed (0 when the summary was already
    /// exact, or `page` is out of range).
    pub fn rebuild_page_summary(&mut self, page: usize) -> u64 {
        let vbns = self.page_vbns(page);
        if vbns.is_empty() {
            return 0;
        }
        let fixed = self.page_summary_divergences(page);
        for u in self.unit_of(vbns.start)..self.unit_of(vbns.end + self.unit_blocks() - 1) {
            self.unit_free[u] = self.unit_popcount(u) as u16;
        }
        let total = self.unit_free.iter().map(|&c| u64::from(c)).sum();
        let total_fixed = std::mem::replace(&mut self.free_blocks, total) != total;
        fixed + u64::from(total_fixed)
    }

    /// Recompute every summary counter from the raw bits — what WAFL Iron
    /// does for damaged derived state: recompute, don't fabricate.
    pub fn rebuild_summary(&mut self) {
        for u in 0..self.unit_free.len() {
            self.unit_free[u] = self.unit_popcount(u) as u16;
        }
        self.free_blocks = self.unit_free.iter().map(|&c| u64::from(c)).sum();
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
            let last = self.pages.last_mut().expect("a tail implies a page");
            let unpad_end = (BITS_PER_BITMAP_BLOCK - old_tail).min(new_len - old_len) + old_tail;
            debug_assert!(
                last.first_free_in(old_tail, unpad_end).is_none(),
                "tail padding must have been allocated"
            );
            last.set_range_free(old_tail, unpad_end);
        }
        // Append whole pages, then pad the new tail (on the old tail page
        // when the growth ends inside it; those bits are padding already).
        let new_pages = new_len.div_ceil(BITS_PER_BITMAP_BLOCK) as usize;
        self.pages.resize(new_pages, BitmapPage::new_free());
        self.dirty.resize(new_pages, false);
        let new_tail = new_len % BITS_PER_BITMAP_BLOCK;
        if new_tail != 0 {
            let last = self.pages.last_mut().expect("pages exist after extend");
            last.set_range_allocated(new_tail, BITS_PER_BITMAP_BLOCK);
        }
        self.space_len = new_len;
        self.free_blocks += new_len - old_len;
        // Every unit from the old tail's on gained free space: count it.
        // Growth is a RAID-group-addition-frequency event, not a hot path.
        let first = self.unit_of(old_len);
        let fresh: Vec<u16> = (first..self.unit_of(new_len + self.unit_blocks() - 1))
            .map(|u| self.unit_popcount(u) as u16)
            .collect();
        self.unit_free.truncate(first);
        self.unit_free.extend(fresh);
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
        // Four units to a page: the scribble hits page 1's first.
        let mut b = Bitmap::for_aa_tiling(3 * BITS_PER_BITMAP_BLOCK, BITS_PER_BITMAP_BLOCK / 4);
        for v in 0..100 {
            b.allocate(Vbn(v)).unwrap();
        }
        b.scribble_page_counter(1, 7);
        // The scribble hit one of page 1's counters only; the tracked
        // total and the other units are still exact, so the audit finds
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
        // Run crossing a page boundary and two of its quarter-page units.
        let space = 3 * BITS_PER_BITMAP_BLOCK;
        let mut bulk = Bitmap::for_aa_tiling(space, BITS_PER_BITMAP_BLOCK / 4);
        let mut bit = Bitmap::for_aa_tiling(space, BITS_PER_BITMAP_BLOCK / 4);
        let (start, len) = (BITS_PER_BITMAP_BLOCK - 100, 300);
        bulk.allocate_run(Vbn(start), len).unwrap();
        for v in start..start + len {
            bit.allocate(Vbn(v)).unwrap();
        }
        assert_eq!(bulk.free_blocks(), bit.free_blocks());
        assert_eq!(bulk.unit_free_counts(), bit.unit_free_counts());
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
        // Units of a word, of the benchmark volumes' AA and of a page.
        for aa_blocks in [64, 2048, BITS_PER_BITMAP_BLOCK] {
            let space = 3 * BITS_PER_BITMAP_BLOCK;
            let mut bulk = Bitmap::for_aa_tiling(space, aa_blocks);
            let mut bit = Bitmap::for_aa_tiling(space, aa_blocks);
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
            assert_eq!(bulk.unit_free_counts(), bit.unit_free_counts());
            for p in 0..bulk.page_count() {
                assert_eq!(bulk.pages[p].words(), bit.pages[p].words(), "page {p}");
            }
            assert_eq!(bulk.take_dirty_stats(), bit.take_dirty_stats());
            bulk.verify_summary();
        }
    }

    #[test]
    fn free_sorted_blocks_is_atomic_and_validates_input() {
        let mut b = Bitmap::for_aa_tiling(2 * BITS_PER_BITMAP_BLOCK, 2048);
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
        assert_eq!(b.unit_free_counts(), [0, 0, 0, 1]);
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
