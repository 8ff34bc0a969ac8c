//! Batched delayed-free processing — the second HBPS use case.
//!
//! §3.3.2 closes with: "The HBPS data structure has other uses in WAFL
//! when millions of items need to be sorted in close-to-optimal order and
//! with minimal memory usage. For example, it is used to track
//! *delayed-free scores*." The underlying machinery comes from the
//! paper's companion work on free-space reclamation (its references
//! \[17\]/\[18\]): instead of clearing each freed block's bitmap bit
//! immediately — dirtying whatever metafile page it lands on — frees are
//! *logged*, and a background processor applies them page by page,
//! picking the page with the most pending frees first so each metafile
//! write retires as many frees as possible.
//!
//! The "score" of a metafile page is its pending-free count (0..=32 Ki,
//! the page's bit capacity), so the default HBPS geometry fits exactly.
//!
//! [`DelayedFreeLog`] is that log + HBPS; [`crate::Aggregate`] routes
//! physical frees through it when [`crate::AggregateConfig::batched_frees`]
//! is set, and processes a budgeted number of pages at each CP boundary.
//! The log is a list per bitmap page, indexed by page number, and a page
//! is applied whole: its frees sorted, cleared with one masked store per
//! touched bitmap word, and handed to the caller's bookkeeping as one
//! ascending slice.

use wafl_bitmap::{sort_vbns, Bitmap};
use wafl_core::{Hbps, HbpsConfig};
use wafl_types::{AaId, AaScore, Vbn, WaflResult, BITS_PER_BITMAP_BLOCK};

/// Results of one processing pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DelayedFreeStats {
    /// Metafile pages written.
    pub pages_processed: u64,
    /// Frees applied to the bitmap.
    pub frees_applied: u64,
}

/// A log of pending physical frees, indexed by the bitmap-metafile page
/// each free will dirty, with an HBPS ranking pages by pending count.
pub struct DelayedFreeLog {
    /// Pending frees per metafile page, indexed by page number (grown
    /// on demand; an applied page keeps its buffer for the next frees).
    per_page: Vec<Vec<Vbn>>,
    /// Pages with pending frees.
    pending_pages: usize,
    /// A page's live frees while it is applied (reused).
    live: Vec<Vbn>,
    /// Pages ranked by pending-free count. Page index stands in for the
    /// "AA" id; the score is the pending count.
    hbps: Hbps,
    total_pending: u64,
}

impl Default for DelayedFreeLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DelayedFreeLog {
    /// An empty log.
    pub fn new() -> DelayedFreeLog {
        DelayedFreeLog {
            per_page: Vec::new(),
            pending_pages: 0,
            live: Vec::new(),
            // Score space = frees pending against one 32 Ki-bit page.
            // 256 bins (width 128) — finer than the AA cache's 32,
            // because pending counts cluster in the low thousands and the
            // processor wants real discrimination there. Still two pages.
            hbps: Hbps::new(HbpsConfig {
                max_score: 32_768,
                bins: 256,
                list_capacity: 1000,
            })
            .expect("geometry fits two pages"),
            total_pending: 0,
        }
    }

    /// Frees waiting to be applied.
    pub fn pending(&self) -> u64 {
        self.total_pending
    }

    /// Distinct metafile pages with pending frees.
    pub fn pending_pages(&self) -> usize {
        self.pending_pages
    }

    /// Every logged-but-unapplied VBN, sorted (deterministic order for
    /// WAFL Iron's leak accounting and for crash-replay tests).
    pub fn pending_vbns(&self) -> Vec<Vbn> {
        let mut vbns: Vec<Vbn> = self
            .per_page
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        vbns.sort_unstable_by_key(|v| v.get());
        vbns
    }

    /// Log a freed VBN. The block stays allocated in the bitmap (and thus
    /// invisible to the allocator) until a processing pass applies it.
    /// Fails only if the page's pending count would exceed the ranking
    /// structure's score space (impossible for in-range VBNs: a page holds
    /// at most `max_score` bits).
    pub fn log_free(&mut self, vbn: Vbn) -> WaflResult<()> {
        let page = vbn.get() / BITS_PER_BITMAP_BLOCK;
        let i = page as usize;
        if i >= self.per_page.len() {
            self.per_page.resize_with(i + 1, Vec::new);
        }
        let entry = &mut self.per_page[i];
        let old = entry.len() as u32;
        entry.push(vbn);
        if old == 0 {
            self.pending_pages += 1;
            self.hbps.track_new(AaId(page as u32), AaScore(1))?;
        } else {
            self.hbps
                .on_score_change(AaId(page as u32), AaScore(old), AaScore(old + 1))?;
        }
        self.total_pending += 1;
        Ok(())
    }

    /// Apply the pending frees of up to `page_budget` pages — best
    /// (fullest) pages first, so each metafile-page write retires the
    /// most frees. `record` runs once per applied page with its applied
    /// VBNs, strictly ascending (the CP engine books them as AA-score
    /// deltas and TRIMs).
    pub fn process(
        &mut self,
        bitmap: &mut Bitmap,
        page_budget: usize,
        mut record: impl FnMut(&[Vbn], &mut Bitmap) -> WaflResult<()>,
    ) -> WaflResult<DelayedFreeStats> {
        let mut stats = DelayedFreeStats::default();
        for _ in 0..page_budget {
            // If the list drained while pages remain, rebuild it.
            if self.hbps.needs_replenish(1) {
                self.rebuild_ranking()?;
            }
            let Some((page, _bound)) = self.hbps.take_best() else {
                break;
            };
            let Some(frees) = self
                .per_page
                .get_mut(page.index())
                .filter(|frees| !frees.is_empty())
            else {
                continue; // stale entry from a replenish race
            };
            let count = frees.len() as u32;
            // Replay idempotence: a crash between a bitmap-page write and
            // the log absolution leaves entries whose blocks are already
            // free. Skipping them makes post-crash replay safe instead of
            // a double-free error. The survivors are sorted and cleared
            // with one masked store per touched word.
            let live = &mut self.live;
            live.clear();
            for &vbn in frees.iter() {
                if !bitmap.is_free(vbn)? {
                    live.push(vbn);
                }
            }
            frees.clear();
            self.pending_pages -= 1;
            sort_vbns(live);
            live.dedup();
            bitmap.free_sorted_blocks(live)?;
            record(live, bitmap)?;
            stats.frees_applied += live.len() as u64;
            self.total_pending -= count as u64;
            self.hbps.untrack(page, AaScore(count))?;
            stats.pages_processed += 1;
        }
        Ok(stats)
    }

    /// Each logged page with its pending count — the truth the ranking
    /// indexes — in page order: the ranking breaks score ties by
    /// arrival.
    fn page_scores(&self) -> Vec<(AaId, AaScore)> {
        (0u32..)
            .zip(&self.per_page)
            .filter(|(_, v)| !v.is_empty())
            .map(|(p, v)| (AaId(p), AaScore(v.len() as u32)))
            .collect()
    }

    /// Rebuild the ranking from the log itself: the replenish scan, and
    /// what WAFL Iron repairs a divergent ranking with.
    pub(crate) fn rebuild_ranking(&mut self) -> WaflResult<()> {
        self.hbps.replenish(self.page_scores())
    }

    /// Divergences of the ranking from the log ([`Hbps::audit`] against
    /// each page's pending count); 0 = exact.
    pub fn audit(&self) -> u64 {
        self.hbps.audit(self.page_scores())
    }

    /// Drain everything regardless of budget (space pressure: the
    /// allocator needs those blocks back *now*).
    pub fn force_drain(
        &mut self,
        bitmap: &mut Bitmap,
        record: impl FnMut(&[Vbn], &mut Bitmap) -> WaflResult<()>,
    ) -> WaflResult<DelayedFreeStats> {
        let pages = self.pending_pages;
        self.process(bitmap, pages + 1, record)
    }

    /// Memory used by the ranking structure — two pages, per the §3.3.2
    /// claim, regardless of how many frees are pending. (The log entries
    /// themselves model the on-disk delayed-free metafiles of \[18\].)
    pub fn ranking_memory_bytes(&self) -> usize {
        self.hbps.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frees_stay_invisible_until_processed() {
        let mut bitmap = Bitmap::new(4 * 32768);
        for v in 0..1000 {
            bitmap.allocate(Vbn(v)).unwrap();
        }
        let mut log = DelayedFreeLog::new();
        for v in 0..500 {
            log.log_free(Vbn(v)).unwrap();
        }
        assert_eq!(log.pending(), 500);
        assert_eq!(bitmap.free_blocks(), 4 * 32768 - 1000, "not yet applied");
        let stats = log.process(&mut bitmap, 10, |_, _| Ok(())).unwrap();
        assert_eq!(stats.frees_applied, 500);
        assert_eq!(stats.pages_processed, 1, "all 500 shared one page");
        assert_eq!(bitmap.free_blocks(), 4 * 32768 - 500);
        assert_eq!(log.pending(), 0);
    }

    #[test]
    fn equally_full_pages_process_in_the_same_order_every_time() {
        // More pages than the ranking lists (1000), one pending free
        // each: once the list drains, a replenish re-ranks the rest from
        // the log itself, and among equal scores its iteration order is
        // the processing order. Two logs fed the same frees must agree;
        // left in the map's order, each would follow its own hash seed.
        const PAGES: u64 = 1200;
        let order = || {
            let mut bitmap = Bitmap::new(PAGES * BITS_PER_BITMAP_BLOCK);
            let mut log = DelayedFreeLog::new();
            for p in 0..PAGES {
                let vbn = Vbn(p * BITS_PER_BITMAP_BLOCK);
                bitmap.allocate(vbn).unwrap();
                log.log_free(vbn).unwrap();
            }
            let mut order = Vec::new();
            log.force_drain(&mut bitmap, |vbns, _| {
                order.extend(vbns.iter().map(|v| v.get() / BITS_PER_BITMAP_BLOCK));
                Ok(())
            })
            .unwrap();
            assert_eq!(order.len() as u64, PAGES);
            order
        };
        assert_eq!(order(), order());
    }

    #[test]
    fn audit_holds_the_ranking_to_the_log() {
        let mut log = DelayedFreeLog::new();
        for v in [0, 1, 2, BITS_PER_BITMAP_BLOCK] {
            log.log_free(Vbn(v)).unwrap();
        }
        assert_eq!(log.audit(), 0);
        // Page 0's pending count grows from 3 to 203 behind the ranking's
        // back: two bin counts and page 0's list entry now disagree.
        log.per_page[0].extend((3..203).map(Vbn));
        assert_eq!(log.audit(), 3);
        log.rebuild_ranking().unwrap();
        assert_eq!(log.audit(), 0);
        // A page that leaves the log without leaving the ranking.
        log.per_page[1].clear();
        assert_eq!(log.audit(), 2, "its bin count and its list entry");
    }

    #[test]
    fn fullest_pages_process_first() {
        let mut bitmap = Bitmap::new(8 * 32768);
        // Allocate candidates on three pages.
        let pages = [0u64, 3, 6];
        for &p in &pages {
            for i in 0..1000 {
                bitmap.allocate(Vbn(p * 32768 + i)).unwrap();
            }
        }
        let mut log = DelayedFreeLog::new();
        // Page 3 has the most pending frees, page 0 the fewest.
        for i in 0..10 {
            log.log_free(Vbn(i)).unwrap();
        }
        for i in 0..900 {
            log.log_free(Vbn(3 * 32768 + i)).unwrap();
        }
        for i in 0..300 {
            log.log_free(Vbn(6 * 32768 + i)).unwrap();
        }
        let mut order = Vec::new();
        log.process(&mut bitmap, 1, |vbns, _| {
            order.push(vbns[0].get() / 32768);
            Ok(())
        })
        .unwrap();
        assert_eq!(order, vec![3], "fullest page first");
        log.process(&mut bitmap, 1, |vbns, _| {
            order.push(vbns[0].get() / 32768);
            Ok(())
        })
        .unwrap();
        assert_eq!(order, vec![3, 6]);
        assert_eq!(log.pending(), 10);
    }

    #[test]
    fn force_drain_empties_everything() {
        let mut bitmap = Bitmap::new(32 * 32768);
        let mut log = DelayedFreeLog::new();
        for p in 0..32u64 {
            for i in 0..5 {
                bitmap.allocate(Vbn(p * 32768 + i)).unwrap();
                log.log_free(Vbn(p * 32768 + i)).unwrap();
            }
        }
        assert_eq!(log.pending_pages(), 32);
        let stats = log.force_drain(&mut bitmap, |_, _| Ok(())).unwrap();
        assert_eq!(stats.frees_applied, 160);
        assert_eq!(stats.pages_processed, 32);
        assert_eq!(log.pending(), 0);
        assert_eq!(bitmap.free_blocks(), 32 * 32768);
    }

    #[test]
    fn ranking_memory_constant() {
        let mut log = DelayedFreeLog::new();
        let mut bitmap = Bitmap::new(1024 * 32768);
        for p in 0..1024u64 {
            bitmap.allocate(Vbn(p * 32768)).unwrap();
            log.log_free(Vbn(p * 32768)).unwrap();
        }
        assert_eq!(log.ranking_memory_bytes(), 2 * 4096);
    }

    #[test]
    fn batching_reduces_pages_dirtied_per_free() {
        // The point of the design (§2.5): N frees scattered over K pages
        // cost K page writes when batched, but up to N when immediate.
        let space = 16 * 32768u64;
        let mut immediate = Bitmap::new(space);
        let mut batched = Bitmap::new(space);
        // Scatter the frees uniformly so every immediate "CP" chunk
        // touches many pages (the aged-COW overwrite pattern).
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let frees: Vec<Vbn> = rand::seq::index::sample(&mut rng, space as usize, 1600)
            .into_iter()
            .map(|i| Vbn(i as u64))
            .collect();
        for &v in &frees {
            immediate.allocate(v).unwrap();
            batched.allocate(v).unwrap();
        }
        immediate.take_dirty_stats();
        batched.take_dirty_stats();

        // Immediate: free as they arrive, taking dirty stats per "CP" of 100.
        let mut immediate_pages = 0;
        for chunk in frees.chunks(100) {
            for &v in chunk {
                immediate.free(v).unwrap();
            }
            immediate_pages += immediate.take_dirty_stats().pages_dirtied;
        }
        // Batched: log everything, then process page-at-a-time.
        let mut log = DelayedFreeLog::new();
        for &v in &frees {
            log.log_free(v).unwrap();
        }
        let mut batched_pages = 0;
        while log.pending() > 0 {
            log.process(&mut batched, 1, |_, _| Ok(())).unwrap();
            batched_pages += batched.take_dirty_stats().pages_dirtied;
        }
        assert!(
            batched_pages <= 16,
            "batched path touches each page once: {batched_pages}"
        );
        assert!(
            immediate_pages >= 10 * batched_pages,
            "immediate {immediate_pages} vs batched {batched_pages}"
        );
    }
}
