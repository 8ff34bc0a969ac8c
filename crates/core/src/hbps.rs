//! The histogram-based partial sort (HBPS) — §3.3.2's novel data
//! structure.
//!
//! Two 4 KiB pages track millions of allocation areas:
//!
//! * The **histogram page** counts *all* AAs in fixed-width score bins
//!   (default: 32 bins of 1 Ki over the 0..=32 Ki score space).
//! * The **list page** holds up to 1,000 AA ids from the best bins,
//!   grouped contiguously by bin, *unsorted within a bin* (sorting inside
//!   a 1 Ki-wide range "was found to be negligible" — the partial sort).
//!
//! The write allocator takes the first list entry, which is guaranteed to
//! come from the best populated bin in the list, giving a score within one
//! bin width of the true maximum (3.125 % = 1k/32k for the defaults).
//!
//! Moving an AA between bins costs O(1) histogram updates plus, when the
//! AA is in the list, at most one element move per deeper bin — the
//! boundary-rotation trick enabled by in-bin disorder ("only one AA needs
//! to be moved down from each bin present in the list").

use crate::topology::AaTopology;
use bytes::{Buf, BufMut};
use wafl_types::{
    crc64, AaId, AaScore, WaflError, WaflResult, BLOCK_SIZE, HBPS_BINS, HBPS_LIST_CAPACITY,
    RAID_AGNOSTIC_MAX_SCORE, TOPAA_CRC_BYTES,
};

const MAGIC: u32 = 0x4842_5053; // "HBPS"
const VERSION: u32 = 1;

/// Shape of an HBPS instance. The defaults reproduce the paper's
/// RAID-agnostic AA cache; other uses (e.g. delayed-free scores, §3.3.2)
/// pick their own score space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbpsConfig {
    /// Highest possible score (an empty AA). Must be a positive multiple
    /// of `bins`.
    pub max_score: u32,
    /// Number of histogram bins.
    pub bins: usize,
    /// List-page capacity in entries. At most 1024 (one 4 KiB page of
    /// `u32` ids).
    pub list_capacity: usize,
}

impl Default for HbpsConfig {
    fn default() -> Self {
        HbpsConfig {
            max_score: RAID_AGNOSTIC_MAX_SCORE,
            bins: HBPS_BINS,
            list_capacity: HBPS_LIST_CAPACITY,
        }
    }
}

impl HbpsConfig {
    fn validate(&self) -> WaflResult<()> {
        if self.bins == 0 || self.max_score == 0 {
            return Err(WaflError::InvalidConfig {
                reason: "HBPS needs nonzero bins and max_score".into(),
            });
        }
        if !(self.max_score as usize).is_multiple_of(self.bins) {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "max_score {} not a multiple of bin count {}",
                    self.max_score, self.bins
                ),
            });
        }
        // Both persisted pages reserve their trailing TOPAA_CRC_BYTES for
        // a CRC64 (see `to_pages`), shrinking the usable payload.
        if self.list_capacity == 0 || self.list_capacity * 4 + TOPAA_CRC_BYTES > BLOCK_SIZE {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "list capacity {} does not fit one CRC-sealed 4 KiB page",
                    self.list_capacity
                ),
            });
        }
        if self.bins * 8 + 24 + TOPAA_CRC_BYTES > BLOCK_SIZE {
            return Err(WaflError::InvalidConfig {
                reason: format!("{} bins do not fit the histogram page", self.bins),
            });
        }
        Ok(())
    }

    /// Width of one score bin.
    pub fn bin_width(&self) -> u32 {
        self.max_score / self.bins as u32
    }

    /// The worst-case relative error of the best-AA query: one bin width
    /// over the score space (3.125 % for the defaults).
    pub fn error_margin(&self) -> f64 {
        self.bin_width() as f64 / self.max_score as f64
    }
}

/// Cumulative maintenance counters for one [`Hbps`] instance.
///
/// Volatile observability state: never persisted to the TopAA pages, and
/// reset by [`Hbps::take_stats`] so callers can scrape deltas into an
/// external metrics registry at CP boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HbpsStats {
    /// Score changes that moved an AA between histogram bins.
    pub bin_moves: u64,
    /// Single-element boundary moves performed while walking a list hole
    /// across deeper segments (the §3.3.2 rotation trick).
    pub boundary_rotations: u64,
    /// Entries actually inserted into the list page.
    pub list_inserts: u64,
    /// Entries evicted from the deepest segment to admit a better AA.
    pub list_evictions: u64,
    /// Full list rebuilds via [`Hbps::replenish`].
    pub refills: u64,
}

impl HbpsStats {
    /// Accumulate another instance's counters into this one.
    pub fn merge(&mut self, other: HbpsStats) {
        self.bin_moves += other.bin_moves;
        self.boundary_rotations += other.boundary_rotations;
        self.list_inserts += other.list_inserts;
        self.list_evictions += other.list_evictions;
        self.refills += other.refills;
    }
}

/// The two-page histogram-based partial sort. See the module docs.
///
/// ```
/// use wafl_core::{Hbps, HbpsConfig};
/// use wafl_types::{AaId, AaScore};
///
/// // Track a million AAs in two pages of memory.
/// let mut hbps = Hbps::build(
///     HbpsConfig::default(),
///     (0..1_000_000).map(|i| (AaId(i), AaScore((i * 7) % 32_769))),
/// ).unwrap();
/// assert_eq!(hbps.memory_bytes(), 2 * 4096);
///
/// // The first list entry always comes from the best populated bin:
/// // within 3.125 % of the true maximum score.
/// let (_aa, bound) = hbps.take_best().unwrap();
/// assert!(bound.get() >= 32_768 - 1024);
///
/// // Score changes are O(bins): histogram count moves plus at most one
/// // list element per deeper bin. Scores beyond the configured space are
/// // rejected rather than silently clamped.
/// hbps.on_score_change(AaId(3), AaScore(21), AaScore(30_000)).unwrap();
/// assert!(hbps.on_score_change(AaId(3), AaScore(30_000), AaScore(40_000)).is_err());
/// ```
pub struct Hbps {
    cfg: HbpsConfig,
    /// AAs per bin, counting *every* tracked AA (bin 0 = best scores).
    counts: Vec<u32>,
    /// List-page entries, grouped by bin, best bins first.
    list: Vec<AaId>,
    /// Entries in `list` belonging to each bin.
    seg_len: Vec<u32>,
    /// Volatile maintenance counters (not persisted).
    stats: HbpsStats,
}

impl Hbps {
    /// An empty structure (no AAs tracked).
    pub fn new(cfg: HbpsConfig) -> WaflResult<Hbps> {
        cfg.validate()?;
        Ok(Hbps {
            counts: vec![0; cfg.bins],
            list: Vec::with_capacity(cfg.list_capacity),
            seg_len: vec![0; cfg.bins],
            cfg,
            stats: HbpsStats::default(),
        })
    }

    /// Build from a full set of `(aa, score)` pairs (a bitmap walk).
    pub fn build(
        cfg: HbpsConfig,
        scores: impl IntoIterator<Item = (AaId, AaScore)>,
    ) -> WaflResult<Hbps> {
        let mut h = Hbps::new(cfg)?;
        for (aa, score) in scores {
            h.track_new(aa, score)?;
        }
        Ok(h)
    }

    /// This instance's configuration.
    pub fn config(&self) -> HbpsConfig {
        self.cfg
    }

    /// The bin holding `score`. Bin 0 covers `(max - width, max]`; the
    /// last bin additionally covers score 0.
    ///
    /// Scores above `max_score` are outside the configured score space: a
    /// free-count can never exceed the AA size, so an oversized score
    /// means the caller's accounting is broken. Debug builds assert;
    /// release builds clamp into bin 0 (misbinning one AA degrades pick
    /// quality, never correctness). Mutation paths reject such scores via
    /// [`Hbps::try_bin_of`] instead of reaching this clamp.
    #[inline]
    pub fn bin_of(&self, score: AaScore) -> usize {
        debug_assert!(
            score.get() <= self.cfg.max_score,
            "score {} exceeds HBPS max_score {}",
            score.get(),
            self.cfg.max_score
        );
        let s = score.get().min(self.cfg.max_score);
        (((self.cfg.max_score - s) / self.cfg.bin_width()) as usize).min(self.cfg.bins - 1)
    }

    /// Like [`Hbps::bin_of`], but rejects scores outside the configured
    /// score space instead of clamping them into the best bin.
    #[inline]
    pub fn try_bin_of(&self, score: AaScore) -> WaflResult<usize> {
        if score.get() > self.cfg.max_score {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "score {} exceeds HBPS max_score {}",
                    score.get(),
                    self.cfg.max_score
                ),
            });
        }
        Ok(
            (((self.cfg.max_score - score.get()) / self.cfg.bin_width()) as usize)
                .min(self.cfg.bins - 1),
        )
    }

    /// Maintenance counters accumulated since construction or the last
    /// [`Hbps::take_stats`] call.
    pub fn stats(&self) -> HbpsStats {
        self.stats
    }

    /// Return and reset the maintenance counters (delta scrape).
    pub fn take_stats(&mut self) -> HbpsStats {
        std::mem::take(&mut self.stats)
    }

    /// Total AAs tracked by the histogram.
    pub fn tracked(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Current list occupancy.
    pub fn list_len(&self) -> usize {
        self.list.len()
    }

    /// Histogram counts per bin (all AAs, listed or not).
    pub fn bin_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Start index of `bin`'s segment in the list.
    fn seg_start(&self, bin: usize) -> usize {
        self.seg_len[..bin].iter().map(|&l| l as usize).sum()
    }

    /// Deepest (worst) bin with list entries, if any.
    fn deepest_listed_bin(&self) -> Option<usize> {
        (0..self.cfg.bins).rev().find(|&b| self.seg_len[b] > 0)
    }

    /// Begin tracking a new AA with the given score (histogram count plus
    /// list insertion if it qualifies). Rejects scores above `max_score`.
    pub fn track_new(&mut self, aa: AaId, score: AaScore) -> WaflResult<()> {
        let bin = self.try_bin_of(score)?;
        self.counts[bin] += 1;
        self.try_insert_listed(aa, bin);
        Ok(())
    }

    /// Apply a score change for `aa`. The caller supplies the old score
    /// (derivable from the bitmap and the CP's delta); the structure
    /// itself stores no per-AA state — that is what keeps it two pages.
    /// Either score above `max_score` is rejected as [`WaflError::InvalidConfig`].
    pub fn on_score_change(&mut self, aa: AaId, old: AaScore, new: AaScore) -> WaflResult<()> {
        let (ob, nb) = (self.try_bin_of(old)?, self.try_bin_of(new)?);
        if ob == nb {
            return Ok(()); // same bin: counts unchanged, in-bin order irrelevant
        }
        self.stats.bin_moves += 1;
        // Saturate rather than assert: a TopAA image written less often
        // than every CP restores counts that lag the bitmaps. Histogram
        // drift degrades pick quality, never allocation correctness (the
        // bitmap is authoritative), and the §3.3.2 replenish scan restores
        // exact counts.
        self.counts[ob] = self.counts[ob].saturating_sub(1);
        self.counts[nb] += 1;
        if self.remove_listed(aa, ob) {
            self.try_insert_listed(aa, nb);
        } else {
            // Not in the list; it may now qualify (freed into a top bin).
            self.try_insert_listed(aa, nb);
        }
        Ok(())
    }

    /// Stop tracking `aa` entirely (e.g. the FlexVol shrank). Rejects
    /// scores above `max_score`.
    pub fn untrack(&mut self, aa: AaId, score: AaScore) -> WaflResult<()> {
        let bin = self.try_bin_of(score)?;
        self.counts[bin] = self.counts[bin].saturating_sub(1);
        self.remove_listed(aa, bin);
        Ok(())
    }

    /// The best available AA: the first list entry, which belongs to the
    /// best listed bin. Returns the AA and the *upper bound* of its bin's
    /// score range. `None` when the list is empty (trigger a replenish).
    pub fn peek_best(&self) -> Option<(AaId, AaScore)> {
        let &aa = self.list.first()?;
        let bin = (0..self.cfg.bins).find(|&b| self.seg_len[b] > 0)?;
        Some((
            aa,
            AaScore(self.cfg.max_score - bin as u32 * self.cfg.bin_width()),
        ))
    }

    /// Remove and return the best AA (the write allocator claiming it for
    /// a CP). Histogram counts are untouched — the AA still has its score
    /// until its blocks are consumed and the CP-boundary update arrives.
    pub fn take_best(&mut self) -> Option<(AaId, AaScore)> {
        let out = self.peek_best()?;
        let bin = (0..self.cfg.bins)
            .find(|&b| self.seg_len[b] > 0)
            .expect("nonempty list has a first bin");
        self.remove_at(0, bin);
        Some(out)
    }

    /// Whether the background replenish scan should run (§3.3.2: "in the
    /// rare case that the write allocator consumes more AAs than are being
    /// inserted due to freeing of blocks, a background scan replenishes
    /// the list"). Two triggers:
    ///
    /// * the list drained below `low_water` while the histogram knows of
    ///   unlisted AAs; or
    /// * *quality degradation*: the best populated bin has no listed
    ///   entries (takes emptied its segment while same-bin score changes
    ///   were rejected against a then-full list), so picks would silently
    ///   come from a worse bin than the error-margin guarantee allows.
    pub fn needs_replenish(&self, low_water: usize) -> bool {
        let unlisted = self.tracked() > self.list.len() as u64;
        if self.list.len() < low_water && unlisted {
            return true;
        }
        // Best populated bin vs best listed bin.
        let best_counted = (0..self.cfg.bins).find(|&b| self.counts[b] > 0);
        let best_listed = (0..self.cfg.bins).find(|&b| self.seg_len[b] > 0);
        match (best_counted, best_listed) {
            (Some(c), Some(l)) => c < l,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Rebuild from an authoritative full scan (the background replenish).
    /// Resets both pages. Fails (leaving the structure mid-rebuild but
    /// internally consistent) if a supplied score exceeds `max_score`.
    pub fn replenish(
        &mut self,
        scores: impl IntoIterator<Item = (AaId, AaScore)>,
    ) -> WaflResult<()> {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.seg_len.iter_mut().for_each(|l| *l = 0);
        self.list.clear();
        self.stats.refills += 1;
        for (aa, score) in scores {
            self.track_new(aa, score)?;
        }
        Ok(())
    }

    /// Constant memory: exactly two metafile pages (§3.3.2: "this AA cache
    /// uses exactly two pages of memory"), independent of how many AAs the
    /// histogram tracks.
    pub fn memory_bytes(&self) -> usize {
        2 * BLOCK_SIZE
    }

    // ----- list maintenance -------------------------------------------

    /// Insert `aa` into `bin`'s segment if it qualifies: room in the list,
    /// or better than the deepest listed bin (whose boundary entry is then
    /// evicted).
    fn try_insert_listed(&mut self, aa: AaId, bin: usize) {
        if self.list.len() >= self.cfg.list_capacity {
            match self.deepest_listed_bin() {
                Some(deepest) if bin < deepest => {
                    // Evict the last entry (end of the deepest segment).
                    self.list.pop();
                    self.seg_len[deepest] -= 1;
                    self.stats.list_evictions += 1;
                }
                _ => return, // not better than anything listed
            }
        }
        // Open a hole at the end of the list, then walk it up to the end
        // of `bin`'s segment by moving one boundary element per deeper
        // nonempty segment.
        self.list.push(aa); // placeholder; will be overwritten unless hole stays last
        let mut hole = self.list.len() - 1;
        for b in (bin + 1..self.cfg.bins).rev() {
            if self.seg_len[b] == 0 {
                continue;
            }
            let start = self.seg_start(b);
            if start == hole {
                continue;
            }
            self.list[hole] = self.list[start];
            hole = start;
            self.stats.boundary_rotations += 1;
        }
        self.list[hole] = aa;
        self.seg_len[bin] += 1;
        self.stats.list_inserts += 1;
    }

    /// Remove `aa` from `bin`'s segment if present. Returns whether it was.
    fn remove_listed(&mut self, aa: AaId, bin: usize) -> bool {
        if self.seg_len[bin] == 0 {
            return false;
        }
        let start = self.seg_start(bin);
        let end = start + self.seg_len[bin] as usize;
        let Some(idx) = self.list[start..end].iter().position(|&e| e == aa) else {
            return false;
        };
        self.remove_at(start + idx, bin);
        true
    }

    /// Remove the entry at `idx` inside `bin`'s segment, closing the gap
    /// with one boundary move per deeper nonempty segment.
    fn remove_at(&mut self, idx: usize, bin: usize) {
        let start = self.seg_start(bin);
        let end = start + self.seg_len[bin] as usize;
        debug_assert!((start..end).contains(&idx));
        // Move the segment's last element into the vacated slot; the hole
        // is now at the segment boundary (end - 1).
        self.list[idx] = self.list[end - 1];
        let mut hole = end - 1;
        // Walk the hole to the end of the list: each deeper nonempty
        // segment donates its *last* element into the hole just before its
        // start, shifting the segment's footprint left by one.
        let mut next_seg_start = end;
        for b in bin + 1..self.cfg.bins {
            let l = self.seg_len[b] as usize;
            if l == 0 {
                continue;
            }
            let last = next_seg_start + l - 1;
            self.list[hole] = self.list[last];
            hole = last;
            next_seg_start = last + 1;
            self.stats.boundary_rotations += 1;
        }
        debug_assert_eq!(hole, self.list.len() - 1);
        self.list.pop();
        self.seg_len[bin] -= 1;
    }

    // ----- persistence (§3.4: the RAID-agnostic TopAA metafile embeds
    // these two pages directly) ----------------------------------------

    /// Serialize into the two exact 4 KiB block images stored in the
    /// TopAA metafile, each sealed with a trailing CRC64 (a deviation
    /// from the paper's raw pages; see `docs/recovery.md`).
    pub fn to_pages(&self) -> ([u8; BLOCK_SIZE], [u8; BLOCK_SIZE]) {
        let mut hist = [0u8; BLOCK_SIZE];
        {
            let mut w = &mut hist[..];
            w.put_u32_le(MAGIC);
            w.put_u32_le(VERSION);
            w.put_u32_le(self.cfg.max_score);
            w.put_u32_le(self.cfg.bins as u32);
            w.put_u32_le(self.cfg.list_capacity as u32);
            w.put_u32_le(self.list.len() as u32);
            for b in 0..self.cfg.bins {
                w.put_u32_le(self.counts[b]);
                w.put_u32_le(self.seg_len[b]);
            }
        }
        crc64::seal_page(&mut hist);
        let mut list = [0u8; BLOCK_SIZE];
        {
            let mut w = &mut list[..];
            for &aa in &self.list {
                w.put_u32_le(aa.get());
            }
        }
        crc64::seal_page(&mut list);
        (hist, list)
    }

    /// Deserialize from the two TopAA block images, checking each page's
    /// CRC and then validating every structural invariant, a list that
    /// names no AA twice included (a damaged metafile must fail loudly
    /// and fall back to the bitmap walk, per §3.4's corruption
    /// discussion). [`Hbps::from_pages_for`] adds the checks that need
    /// the range's topology.
    pub fn from_pages(hist: &[u8; BLOCK_SIZE], list: &[u8; BLOCK_SIZE]) -> WaflResult<Hbps> {
        let corrupt = |reason: String| WaflError::CorruptMetafile { reason };
        if !crc64::verify_page(hist) {
            return Err(corrupt("HBPS histogram page CRC mismatch".into()));
        }
        if !crc64::verify_page(list) {
            return Err(corrupt("HBPS list page CRC mismatch".into()));
        }
        let mut r = &hist[..];
        if r.get_u32_le() != MAGIC {
            return Err(corrupt("bad HBPS magic".into()));
        }
        if r.get_u32_le() != VERSION {
            return Err(corrupt("unsupported HBPS version".into()));
        }
        let cfg = HbpsConfig {
            max_score: r.get_u32_le(),
            bins: r.get_u32_le() as usize,
            list_capacity: r.get_u32_le() as usize,
        };
        cfg.validate()
            .map_err(|e| corrupt(format!("bad HBPS config: {e}")))?;
        let list_len = r.get_u32_le() as usize;
        if list_len > cfg.list_capacity {
            return Err(corrupt(format!(
                "list length {list_len} exceeds capacity {}",
                cfg.list_capacity
            )));
        }
        let mut h = Hbps::new(cfg)?;
        for b in 0..cfg.bins {
            h.counts[b] = r.get_u32_le();
            h.seg_len[b] = r.get_u32_le();
            if h.seg_len[b] > h.counts[b] {
                return Err(corrupt(format!(
                    "bin {b} lists {} entries but counts {}",
                    h.seg_len[b], h.counts[b]
                )));
            }
        }
        let seg_total: usize = h.seg_len.iter().map(|&l| l as usize).sum();
        if seg_total != list_len {
            return Err(corrupt(format!(
                "segment lengths sum to {seg_total}, header says {list_len}"
            )));
        }
        let mut r = &list[..];
        for _ in 0..list_len {
            h.list.push(AaId(r.get_u32_le()));
        }
        if let Some(aa) = first_repeat(&h.list) {
            return Err(corrupt(format!("list page names {aa} twice")));
        }
        Ok(h)
    }

    /// [`Hbps::from_pages`] for the range `topology` describes: the image
    /// must also be one this range could have written, its score space
    /// the topology's and every listed AA inside it.
    pub fn from_pages_for(
        topology: &AaTopology,
        hist: &[u8; BLOCK_SIZE],
        list: &[u8; BLOCK_SIZE],
    ) -> WaflResult<Hbps> {
        let corrupt = |reason: String| WaflError::CorruptMetafile { reason };
        let h = Hbps::from_pages(hist, list)?;
        if h.cfg.max_score != topology.max_score() {
            return Err(corrupt(format!(
                "TopAA max score {} does not match topology {}",
                h.cfg.max_score,
                topology.max_score()
            )));
        }
        if let Some(aa) = h.list.iter().find(|aa| aa.get() >= topology.aa_count()) {
            return Err(corrupt(format!(
                "list page names {aa}, beyond the range's {} AAs",
                topology.aa_count()
            )));
        }
        Ok(h)
    }

    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        assert!(self.list.len() <= self.cfg.list_capacity);
        let seg_total: usize = self.seg_len.iter().map(|&l| l as usize).sum();
        assert_eq!(seg_total, self.list.len(), "segments must tile the list");
        for b in 0..self.cfg.bins {
            assert!(
                self.seg_len[b] <= self.counts[b],
                "bin {b}: listed {} > counted {}",
                self.seg_len[b],
                self.counts[b]
            );
        }
        // No duplicate AAs in the list.
        let mut seen: Vec<u32> = self.list.iter().map(|a| a.get()).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "duplicate AA in list");
    }
}

/// The first AA `list` names a second time, if any. Linear probing in a
/// table of at least twice the list's length: linear in the list, and as
/// cheap for the arbitrary ids of a damaged page as for valid ones.
fn first_repeat(list: &[AaId]) -> Option<AaId> {
    let slots = (2 * list.len()).next_power_of_two().max(2);
    let shift = 64 - slots.trailing_zeros();
    let mut table = vec![0u64; slots]; // AA id + 1; 0 marks a free slot
    for &aa in list {
        let key = u64::from(aa.get()) + 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while table[i] != 0 {
            if table[i] == key {
                return Some(aa);
            }
            i = (i + 1) & (slots - 1);
        }
        table[i] = key;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HbpsConfig {
        HbpsConfig {
            max_score: 320,
            bins: 32,
            list_capacity: 10,
        }
    }

    #[test]
    fn config_validation() {
        assert!(HbpsConfig::default().validate().is_ok());
        assert!(HbpsConfig {
            max_score: 0,
            ..small_cfg()
        }
        .validate()
        .is_err());
        assert!(HbpsConfig {
            bins: 0,
            ..small_cfg()
        }
        .validate()
        .is_err());
        assert!(HbpsConfig {
            max_score: 33,
            bins: 32,
            list_capacity: 10
        }
        .validate()
        .is_err());
        assert!(HbpsConfig {
            list_capacity: 2000,
            ..HbpsConfig::default()
        }
        .validate()
        .is_err());
        assert!((HbpsConfig::default().error_margin() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn bin_mapping_matches_paper_ranges() {
        let h = Hbps::new(HbpsConfig::default()).unwrap();
        // "The first bin tracks AAs with scores in 31K-32K, the second in
        // 30K-31K, and so on."
        assert_eq!(h.bin_of(AaScore(32 * 1024)), 0);
        assert_eq!(h.bin_of(AaScore(31 * 1024 + 1)), 0);
        assert_eq!(h.bin_of(AaScore(31 * 1024)), 1);
        assert_eq!(h.bin_of(AaScore(30 * 1024 + 1)), 1);
        assert_eq!(h.bin_of(AaScore(1)), 31);
        assert_eq!(h.bin_of(AaScore(0)), 31);
        // Scores above max are outside the score space: the checked
        // mapping and every mutation path reject them.
        assert!(matches!(
            h.try_bin_of(AaScore(32 * 1024 + 1)),
            Err(WaflError::InvalidConfig { .. })
        ));
        assert!(h.try_bin_of(AaScore(u32::MAX)).is_err());
    }

    #[test]
    fn oversized_scores_are_rejected_by_mutation_paths() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        let too_big = AaScore(321);
        assert!(h.track_new(AaId(1), too_big).is_err());
        assert_eq!(h.tracked(), 0, "failed track must not count");
        h.track_new(AaId(1), AaScore(320)).unwrap();
        assert!(h.on_score_change(AaId(1), AaScore(320), too_big).is_err());
        assert!(h.on_score_change(AaId(1), too_big, AaScore(320)).is_err());
        assert!(h.untrack(AaId(1), too_big).is_err());
        assert_eq!(h.tracked(), 1, "failed mutations must not disturb state");
        assert!(Hbps::build(small_cfg(), [(AaId(9), too_big)]).is_err());
        assert!(h.replenish([(AaId(9), too_big)]).is_err());
        h.assert_invariants();
    }

    #[test]
    fn bin_edges_map_per_paper_ranges() {
        // Width 10 over 0..=320: bin 0 = (310, 320], bin 1 = (300, 310],
        // ..., bin 31 = [0, 10].
        let h = Hbps::new(small_cfg()).unwrap();
        let w = h.config().bin_width();
        assert_eq!(w, 10);
        assert_eq!(h.bin_of(AaScore(320)), 0); // exactly max_score
        assert_eq!(h.bin_of(AaScore(311)), 0); // lower edge of bin 0 + 1
        assert_eq!(h.bin_of(AaScore(310)), 1); // exactly max_score - width
        assert_eq!(h.bin_of(AaScore(309)), 1); // one below the edge
        assert_eq!(h.bin_of(AaScore(301)), 1);
        assert_eq!(h.bin_of(AaScore(300)), 2);
        assert_eq!(h.bin_of(AaScore(10)), 31);
        assert_eq!(h.bin_of(AaScore(1)), 31);
        assert_eq!(h.bin_of(AaScore(0)), 31); // zero shares the last bin
        for s in [0u32, 1, 9, 10, 11, 309, 310, 311, 320] {
            assert_eq!(h.try_bin_of(AaScore(s)).unwrap(), h.bin_of(AaScore(s)));
        }
    }

    #[test]
    fn best_bin_query_bound_at_edges() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        // A score exactly at max_score reports the bin-0 upper bound.
        h.track_new(AaId(1), AaScore(320)).unwrap();
        assert_eq!(h.peek_best().unwrap(), (AaId(1), AaScore(320)));
        h.take_best().unwrap();
        // A score exactly at max_score - width sits in bin 1, whose upper
        // bound is max_score - width: the reported bound never overstates
        // by more than one bin width.
        h.track_new(AaId(2), AaScore(310)).unwrap();
        let (aa, bound) = h.peek_best().unwrap();
        assert_eq!((aa, bound), (AaId(2), AaScore(310)));
        h.take_best().unwrap();
        // Score 0 lands in the worst bin; its reported bound is that
        // bin's upper edge (one width), not zero.
        h.track_new(AaId(3), AaScore(0)).unwrap();
        assert_eq!(h.peek_best().unwrap(), (AaId(3), AaScore(10)));
        h.assert_invariants();
    }

    #[test]
    fn boundary_rotation_at_bin_edges() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        // Populate three adjacent segments via edge scores.
        h.track_new(AaId(0), AaScore(320)).unwrap(); // bin 0
        h.track_new(AaId(1), AaScore(310)).unwrap(); // bin 1
        h.track_new(AaId(2), AaScore(309)).unwrap(); // bin 1
        h.track_new(AaId(3), AaScore(300)).unwrap(); // bin 2
        h.assert_invariants();
        let before = h.stats();
        // Crossing a single edge (309 -> 311) moves the AA from bin 1 to
        // bin 0: one bin move, and the insert rotates one boundary element
        // per deeper nonempty segment it passes.
        h.on_score_change(AaId(2), AaScore(309), AaScore(311))
            .unwrap();
        let after = h.stats();
        assert_eq!(after.bin_moves - before.bin_moves, 1);
        assert!(after.boundary_rotations > before.boundary_rotations);
        h.assert_invariants();
        // Same-bin edge movement (311 -> 320 within bin 0) is a no-op.
        let before = h.stats();
        h.on_score_change(AaId(2), AaScore(311), AaScore(320))
            .unwrap();
        assert_eq!(h.stats(), before);
        // Drain in bin order: the rotated structure still yields bin 0
        // entries first.
        let order: Vec<AaId> = std::iter::from_fn(|| h.take_best().map(|(aa, _)| aa)).collect();
        assert_eq!(order.len(), 4);
        assert!(order[..2].contains(&AaId(0)) && order[..2].contains(&AaId(2)));
        assert_eq!(order[2], AaId(1));
        assert_eq!(order[3], AaId(3));
        h.assert_invariants();
    }

    #[test]
    fn stats_track_maintenance_and_reset() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        for i in 0..12 {
            h.track_new(AaId(i), AaScore(100 + i.min(5))).unwrap();
        }
        h.on_score_change(AaId(0), AaScore(100), AaScore(319))
            .unwrap();
        h.replenish((0..12).map(|i| (AaId(i), AaScore(100))))
            .unwrap();
        let s = h.take_stats();
        assert!(s.list_inserts >= 10);
        assert!(s.list_evictions >= 1, "insert into a full list evicts");
        assert_eq!(s.bin_moves, 1);
        assert_eq!(s.refills, 1);
        assert_eq!(h.take_stats(), HbpsStats::default(), "take resets");
    }

    #[test]
    fn best_comes_from_best_bin() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        h.track_new(AaId(1), AaScore(50)).unwrap();
        h.track_new(AaId(2), AaScore(315)).unwrap(); // bin 0
        h.track_new(AaId(3), AaScore(200)).unwrap();
        let (aa, bound) = h.peek_best().unwrap();
        assert_eq!(aa, AaId(2));
        assert_eq!(bound, AaScore(320));
        h.assert_invariants();
    }

    #[test]
    fn take_best_drains_in_bin_order() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        h.track_new(AaId(1), AaScore(5)).unwrap(); // worst bin
        h.track_new(AaId(2), AaScore(315)).unwrap(); // bin 0
        h.track_new(AaId(3), AaScore(305)).unwrap(); // bin 1 (301..=310)
        let first = h.take_best().unwrap().0;
        assert_eq!(first, AaId(2));
        let second = h.take_best().unwrap().0;
        assert_eq!(second, AaId(3));
        let third = h.take_best().unwrap().0;
        assert_eq!(third, AaId(1));
        assert!(h.take_best().is_none());
        // Counts were never touched by take.
        assert_eq!(h.tracked(), 3);
        h.assert_invariants();
    }

    #[test]
    fn eviction_keeps_only_best_when_full() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        // 10-entry capacity; insert 20 mediocre then 10 great AAs.
        for i in 0..20 {
            h.track_new(AaId(i), AaScore(100)).unwrap(); // bin 21
        }
        assert_eq!(h.list_len(), 10);
        for i in 20..30 {
            h.track_new(AaId(i), AaScore(315)).unwrap(); // bin 0 evicts mediocre
        }
        h.assert_invariants();
        assert_eq!(h.list_len(), 10);
        assert_eq!(h.tracked(), 30);
        // All ten listed entries are now the great ones.
        for _ in 0..10 {
            let (aa, bound) = h.take_best().unwrap();
            assert!(aa.get() >= 20, "expected a bin-0 AA, got {aa}");
            assert_eq!(bound, AaScore(320));
        }
    }

    #[test]
    fn score_change_moves_between_bins() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        h.track_new(AaId(1), AaScore(100)).unwrap();
        h.track_new(AaId(2), AaScore(200)).unwrap();
        // AA 1 gets lots of frees: moves to bin 0.
        h.on_score_change(AaId(1), AaScore(100), AaScore(320))
            .unwrap();
        assert_eq!(h.peek_best().unwrap().0, AaId(1));
        // AA 1 gets consumed: drops to the worst bin.
        h.on_score_change(AaId(1), AaScore(320), AaScore(0))
            .unwrap();
        assert_eq!(h.peek_best().unwrap().0, AaId(2));
        h.assert_invariants();
        // Same-bin movement is a no-op (bin width 10: 200 and 199 share
        // the (190, 200] bin).
        let counts_before = h.bin_counts().to_vec();
        h.on_score_change(AaId(2), AaScore(200), AaScore(199))
            .unwrap();
        assert_eq!(h.bin_counts(), &counts_before[..]);
    }

    #[test]
    fn unlisted_aa_joins_list_when_freed_into_top_bins() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        for i in 0..10 {
            h.track_new(AaId(i), AaScore(250)).unwrap();
        }
        // AA 100 starts poor and unlisted (list is full of 250s).
        h.track_new(AaId(100), AaScore(10)).unwrap();
        assert_eq!(h.list_len(), 10);
        // Frees push it into bin 0: it must displace a 250.
        h.on_score_change(AaId(100), AaScore(10), AaScore(319))
            .unwrap();
        assert_eq!(h.peek_best().unwrap().0, AaId(100));
        h.assert_invariants();
    }

    #[test]
    fn needs_replenish_when_list_drains() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        for i in 0..5 {
            h.track_new(AaId(i), AaScore(300)).unwrap();
        }
        assert!(!h.needs_replenish(3));
        h.take_best();
        h.take_best();
        h.take_best();
        assert!(h.needs_replenish(3));
        // Replenish from a fresh scan restores the full picture.
        h.replenish((0..5).map(|i| (AaId(i), AaScore(300))))
            .unwrap();
        assert_eq!(h.list_len(), 5);
        assert!(!h.needs_replenish(3));
        h.assert_invariants();
    }

    #[test]
    fn round_trip_through_pages() {
        let mut h = Hbps::new(HbpsConfig::default()).unwrap();
        for i in 0..5000u32 {
            h.track_new(AaId(i), AaScore((i * 7) % 32769)).unwrap();
        }
        let (p1, p2) = h.to_pages();
        let h2 = Hbps::from_pages(&p1, &p2).unwrap();
        assert_eq!(h.bin_counts(), h2.bin_counts());
        assert_eq!(h.list, h2.list);
        assert_eq!(h.seg_len, h2.seg_len);
        assert_eq!(h.config(), h2.config());
        h2.assert_invariants();
    }

    #[test]
    fn corrupt_pages_fail_loudly() {
        let h = Hbps::build(
            HbpsConfig::default(),
            (0..100u32).map(|i| (AaId(i), AaScore(i * 300))),
        )
        .unwrap();
        let (mut p1, p2) = h.to_pages();
        p1[0] ^= 0xff; // break the magic
        assert!(matches!(
            Hbps::from_pages(&p1, &p2),
            Err(WaflError::CorruptMetafile { .. })
        ));
        let (mut p1, p2) = h.to_pages();
        p1[20] = 0xff; // absurd list length
        p1[21] = 0xff;
        assert!(Hbps::from_pages(&p1, &p2).is_err());
    }

    #[test]
    fn structural_corruption_detected_even_with_valid_crc() {
        // Re-seal after each scribble so the CRC passes and only the
        // structural checks can catch the damage.
        fn resealed(page: &[u8; BLOCK_SIZE], at: usize, value: u32) -> [u8; BLOCK_SIZE] {
            let mut page = *page;
            page[at..at + 4].copy_from_slice(&value.to_le_bytes());
            crc64::seal_page(&mut page);
            page
        }
        let blocks = 1024;
        let topology = AaTopology::raid_agnostic(
            100 * blocks,
            wafl_types::AaSizingPolicy::ConsecutiveVbns { blocks },
        )
        .unwrap();
        let cfg = HbpsConfig {
            max_score: topology.max_score(),
            ..HbpsConfig::default()
        };
        let h = Hbps::build(cfg, (0..100u32).map(|i| (AaId(i), AaScore(i * 10)))).unwrap();
        let (hist, list) = h.to_pages();
        assert!(Hbps::from_pages_for(&topology, &hist, &list).is_ok());
        let corrupt = |r: WaflResult<Hbps>| matches!(r, Err(WaflError::CorruptMetafile { .. }));
        // One AA listed twice.
        let first = u32::from_le_bytes(list[..4].try_into().unwrap());
        let twice = resealed(&list, 4, first);
        assert!(corrupt(Hbps::from_pages(&hist, &twice)));
        // A listed AA beyond the range: only the topology can tell.
        let beyond = resealed(&list, 0, topology.aa_count());
        assert!(Hbps::from_pages(&hist, &beyond).is_ok());
        assert!(corrupt(Hbps::from_pages_for(&topology, &hist, &beyond)));
        // Another range's score space (offset 8: max_score).
        let other = resealed(&hist, 8, 2 * topology.max_score());
        assert!(Hbps::from_pages(&other, &list).is_ok());
        assert!(corrupt(Hbps::from_pages_for(&topology, &other, &list)));
    }

    #[test]
    fn first_repeat_finds_the_second_naming_of_any_id() {
        let ids = |v: &[u32]| v.iter().map(|&i| AaId(i)).collect::<Vec<_>>();
        assert_eq!(first_repeat(&[]), None);
        assert_eq!(first_repeat(&ids(&[0, u32::MAX, 7])), None);
        assert_eq!(
            first_repeat(&ids(&[u32::MAX, 3, u32::MAX])),
            Some(AaId(u32::MAX))
        );
        // A full list of ids spread over the whole space, then a repeat.
        let mut list: Vec<AaId> = (0..1000u32)
            .map(|i| AaId(i.wrapping_mul(0x9E37_79B9)))
            .collect();
        assert_eq!(first_repeat(&list), None);
        list.push(list[500]);
        assert_eq!(first_repeat(&list), Some(list[500]));
    }

    #[test]
    fn memory_is_two_pages_regardless_of_scale() {
        let small = Hbps::build(
            HbpsConfig::default(),
            (0..10u32).map(|i| (AaId(i), AaScore(100))),
        )
        .unwrap();
        let large = Hbps::build(
            HbpsConfig::default(),
            (0..1_000_000u32).map(|i| (AaId(i), AaScore(i % 32769))),
        )
        .unwrap();
        assert_eq!(small.memory_bytes(), 2 * 4096);
        assert_eq!(large.memory_bytes(), 2 * 4096);
        assert_eq!(large.tracked(), 1_000_000);
    }

    #[test]
    fn untrack_removes_everywhere() {
        let mut h = Hbps::new(small_cfg()).unwrap();
        h.track_new(AaId(1), AaScore(300)).unwrap();
        h.track_new(AaId(2), AaScore(100)).unwrap();
        h.untrack(AaId(1), AaScore(300)).unwrap();
        assert_eq!(h.tracked(), 1);
        assert_eq!(h.peek_best().unwrap().0, AaId(2));
        h.assert_invariants();
    }
}
