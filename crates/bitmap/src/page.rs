//! A single 4 KiB bitmap-metafile block.

use wafl_types::BITS_PER_BITMAP_BLOCK;

/// Number of 64-bit words in one page: `32 Ki bits / 64 = 512`.
pub(crate) const WORDS_PER_PAGE: usize = (BITS_PER_BITMAP_BLOCK / 64) as usize;

/// One 4 KiB block of a bitmap metafile: 32 Ki bits, bit `i` tracking the
/// state of the page's `i`-th VBN (`1` = allocated, `0` = free).
///
/// All hot operations (popcount, first-free search, run iteration) work on
/// whole `u64` words so they compile to `popcnt`/`tzcnt` on x86-64.
#[derive(Clone)]
pub struct BitmapPage {
    words: Box<[u64; WORDS_PER_PAGE]>,
}

impl Default for BitmapPage {
    fn default() -> Self {
        Self::new_free()
    }
}

impl BitmapPage {
    /// A page with every block free.
    pub fn new_free() -> BitmapPage {
        BitmapPage {
            words: Box::new([0u64; WORDS_PER_PAGE]),
        }
    }

    /// A page with every block allocated.
    pub fn new_full() -> BitmapPage {
        BitmapPage {
            words: Box::new([u64::MAX; WORDS_PER_PAGE]),
        }
    }

    /// Number of bits in a page.
    #[inline]
    pub const fn bits() -> u64 {
        BITS_PER_BITMAP_BLOCK
    }

    /// Whether bit `i` is free. `i < 32 Ki`.
    #[inline]
    pub fn is_free(&self, i: u64) -> bool {
        debug_assert!(i < Self::bits());
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) == 0
    }

    /// Mark bit `i` allocated. Returns `false` if it already was.
    #[inline]
    pub fn set_allocated(&mut self, i: u64) -> bool {
        debug_assert!(i < Self::bits());
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let was_free = *w & mask == 0;
        *w |= mask;
        was_free
    }

    /// Mark bit `i` free. Returns `false` if it already was.
    #[inline]
    pub fn set_free(&mut self, i: u64) -> bool {
        debug_assert!(i < Self::bits());
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let was_allocated = *w & mask != 0;
        *w &= !mask;
        was_allocated
    }

    /// Number of free bits in the whole page.
    #[inline]
    pub fn free_count(&self) -> u32 {
        let allocated: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        BITS_PER_BITMAP_BLOCK as u32 - allocated
    }

    /// Number of free bits in `start..end` (bit indices within the page).
    pub fn free_count_range(&self, start: u64, end: u64) -> u32 {
        debug_assert!(start <= end && end <= Self::bits());
        if start == end {
            return 0;
        }
        let allocated: u32 = Self::range_words(start, end)
            .map(|(wi, mask)| (self.words[wi] & mask).count_ones())
            .sum();
        (end - start) as u32 - allocated
    }

    /// First free bit at or after `from`, or `None`.
    pub fn first_free_from(&self, from: u64) -> Option<u64> {
        if from >= Self::bits() {
            return None;
        }
        let mut wi = (from / 64) as usize;
        // Mask off bits below `from` in the first word.
        let mut w = !self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if w != 0 {
                return Some(wi as u64 * 64 + w.trailing_zeros() as u64);
            }
            wi += 1;
            if wi == WORDS_PER_PAGE {
                return None;
            }
            w = !self.words[wi];
        }
    }

    /// The word indices and masks covering bits `start..end`, one
    /// `(word_index, mask)` per touched word in ascending order. The mask
    /// selects only in-range bits, so edge words are handled without
    /// branching at the call sites. An iterator, so a search stops at
    /// its first hit instead of walking to the end of the range.
    #[inline]
    fn range_words(start: u64, end: u64) -> impl Iterator<Item = (usize, u64)> {
        debug_assert!(start < end && end <= Self::bits());
        let (first_word, last_word) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        (first_word..last_word + 1).map(move |wi| {
            let mut mask = u64::MAX;
            if wi == first_word {
                mask &= u64::MAX << (start % 64);
            }
            if wi == last_word {
                let top = end - (last_word as u64) * 64; // 1..=64 bits kept
                if top < 64 {
                    mask &= (1u64 << top) - 1;
                }
            }
            (wi, mask)
        })
    }

    /// First *allocated* bit in `start..end`, or `None` if the whole range
    /// is free. One popcount-free word test per word up to the hit.
    pub fn first_allocated_in(&self, start: u64, end: u64) -> Option<u64> {
        debug_assert!(start <= end && end <= Self::bits());
        if start == end {
            return None;
        }
        Self::range_words(start, end).find_map(|(wi, mask)| {
            let hit = self.words[wi] & mask;
            (hit != 0).then(|| wi as u64 * 64 + hit.trailing_zeros() as u64)
        })
    }

    /// First *free* bit in `start..end`, or `None` if the whole range is
    /// allocated.
    pub fn first_free_in(&self, start: u64, end: u64) -> Option<u64> {
        debug_assert!(start <= end && end <= Self::bits());
        if start == end {
            return None;
        }
        Self::range_words(start, end).find_map(|(wi, mask)| {
            let hit = !self.words[wi] & mask;
            (hit != 0).then(|| wi as u64 * 64 + hit.trailing_zeros() as u64)
        })
    }

    /// Set every bit in `start..end` allocated with whole-word stores.
    /// The caller must have verified the range is free (see
    /// [`BitmapPage::first_allocated_in`]); this does not re-check.
    pub fn set_range_allocated(&mut self, start: u64, end: u64) {
        if start == end {
            return;
        }
        for (wi, mask) in Self::range_words(start, end) {
            self.words[wi] |= mask;
        }
    }

    /// Clear every bit in `start..end` with whole-word stores. The caller
    /// must have verified the range is allocated.
    pub fn set_range_free(&mut self, start: u64, end: u64) {
        if start == end {
            return;
        }
        for (wi, mask) in Self::range_words(start, end) {
            self.words[wi] &= !mask;
        }
    }

    /// Clear every bit of `mask` in word `wi` if all of them are set.
    /// Returns the bits of `mask` that were already clear, leaving the
    /// word as it was; 0 means the bits were cleared.
    #[inline]
    pub fn clear_word_bits(&mut self, wi: usize, mask: u64) -> u64 {
        let clear = !self.words[wi] & mask;
        if clear == 0 {
            self.words[wi] &= !mask;
        }
        clear
    }

    /// Set every bit of `mask` in word `wi`. The caller has just read
    /// those bits free; this does not re-check.
    #[inline]
    pub fn set_word_bits(&mut self, wi: usize, mask: u64) {
        self.words[wi] |= mask;
    }

    /// Raw words, for serialization.
    pub fn words(&self) -> &[u64] {
        &self.words[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_all_free() {
        let p = BitmapPage::new_free();
        assert_eq!(p.free_count(), 32768);
        assert!(p.is_free(0));
        assert!(p.is_free(32767));
        assert_eq!(p.first_free_from(0), Some(0));
    }

    #[test]
    fn full_page_has_nothing() {
        let p = BitmapPage::new_full();
        assert_eq!(p.free_count(), 0);
        assert_eq!(p.first_free_from(0), None);
    }

    #[test]
    fn set_and_clear_report_prior_state() {
        let mut p = BitmapPage::new_free();
        assert!(p.set_allocated(100));
        assert!(!p.set_allocated(100), "double allocation detected");
        assert!(!p.is_free(100));
        assert!(p.set_free(100));
        assert!(!p.set_free(100), "double free detected");
        assert!(p.is_free(100));
    }

    #[test]
    fn free_count_range_handles_word_boundaries() {
        let mut p = BitmapPage::new_free();
        for i in [0, 63, 64, 65, 127, 128, 200] {
            p.set_allocated(i);
        }
        assert_eq!(p.free_count_range(0, 64), 62); // lost bits 0, 63
        assert_eq!(p.free_count_range(64, 128), 61); // lost 64, 65, 127
        assert_eq!(p.free_count_range(63, 66), 0); // 63,64,65 all allocated
        assert_eq!(p.free_count_range(0, 32768), 32768 - 7);
        assert_eq!(p.free_count_range(5, 5), 0);
        assert_eq!(p.free_count_range(32704, 32768), 64);
    }

    #[test]
    fn first_free_skips_allocated_prefix() {
        let mut p = BitmapPage::new_free();
        for i in 0..130 {
            p.set_allocated(i);
        }
        assert_eq!(p.first_free_from(0), Some(130));
        assert_eq!(p.first_free_from(130), Some(130));
        assert_eq!(p.first_free_from(131), Some(131));
    }

    #[test]
    fn first_free_from_past_end_is_none() {
        let p = BitmapPage::new_free();
        assert_eq!(p.first_free_from(32768), None);
        assert_eq!(p.first_free_from(32767), Some(32767));
    }

    #[test]
    fn range_probes_find_first_mismatched_bit() {
        let mut p = BitmapPage::new_free();
        p.set_allocated(130);
        assert_eq!(p.first_allocated_in(0, 32768), Some(130));
        assert_eq!(p.first_allocated_in(0, 130), None);
        assert_eq!(p.first_allocated_in(130, 131), Some(130));
        assert_eq!(p.first_allocated_in(131, 32768), None);
        assert_eq!(p.first_allocated_in(5, 5), None);
        assert_eq!(p.first_free_in(130, 131), None);
        assert_eq!(p.first_free_in(129, 132), Some(129));
    }

    #[test]
    fn range_setters_match_per_bit_loop() {
        // Runs chosen to cross word boundaries and end mid-word.
        for (start, end) in [(0u64, 64u64), (3, 200), (60, 68), (64, 128), (100, 101)] {
            let mut bulk = BitmapPage::new_free();
            let mut per_bit = BitmapPage::new_free();
            bulk.set_range_allocated(start, end);
            for i in start..end {
                per_bit.set_allocated(i);
            }
            assert_eq!(bulk.words(), per_bit.words(), "alloc {start}..{end}");
            bulk.set_range_free(start, end);
            for i in start..end {
                per_bit.set_free(i);
            }
            assert_eq!(bulk.words(), per_bit.words(), "free {start}..{end}");
            assert_eq!(bulk.free_count(), 32768);
        }
    }
}
