//! AA selection and sequential VBN assignment — the write allocator's
//! free-space side (§3.1: "the write allocator picks an AA and then
//! assigns all free VBNs from the AA in sequential order").
//!
//! Once picked, an AA remains the *active* allocation context across CPs
//! until every free VBN in it has been assigned; only then is the next AA
//! taken from the cache (or at random, in the baseline arms). While
//! active, a RAID-aware AA stays out of the max-heap.
//!
//! Besides the VBNs themselves, planning tracks `blocks_examined`: the
//! number of candidate block positions the allocator stepped over while
//! collecting free ones. Draining an AA with free fraction *f* examines
//! ~1/f candidates per allocation — the §2.5/§4.1.2 CPU effect of writing
//! into fuller regions.

use crate::aggregate::{GroupCache, RaidGroupState};
use crate::bitset::BitSet;
use crate::volume::FlexVol;
use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_bitmap::Bitmap;
use wafl_core::{AaTopology, RaidAgnosticCache, ScoreDeltaBatch};
use wafl_types::{AaId, AaScore, Vbn, WaflError, WaflResult};

/// How AAs are selected for writing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocatorMode {
    /// Consult the AA cache for the emptiest AA (the paper's design).
    CacheGuided,
    /// Pick AAs uniformly at random among non-full ones — the §4.1
    /// baseline ("randomly selected AAs average only 46% free space").
    RandomAa,
}

/// Result of planning allocation within one space.
#[derive(Debug, Default)]
pub(crate) struct AllocOutcome {
    /// VBNs to consume, in assignment order.
    pub vbns: Vec<Vbn>,
    /// `(aa, score at claim time)` for every AA newly claimed — feeds the
    /// chosen-AA-quality statistics of §4.1.
    pub picked: Vec<(AaId, AaScore)>,
    /// RAID-aware only: AAs fully drained by this plan, to be re-inserted
    /// into the max-heap (with post-batch scores) at the CP boundary.
    pub drained: Vec<AaId>,
    /// Candidate block positions examined while collecting free VBNs.
    pub blocks_examined: u64,
    /// Bitmap pages scanned by replenish walks triggered while planning.
    pub replenish_pages: u64,
    /// `(true_best - picked, bin_width)` score error for each HBPS-guided
    /// pick, in blocks. The §3.3.2 bound keeps the error under one bin
    /// width; heap picks are exact and record nothing.
    pub pick_errors: Vec<(u32, u32)>,
    /// Picks served by the linear bitmap sweep instead of a cache (the
    /// cache-less fallback, baseline-mode exhaustion, a CP's last round).
    pub sweep_picks: u64,
    /// The VBNs of `vbns` as the consecutive runs they were claimed in,
    /// in the same order. Media costing works per run.
    pub runs: Vec<(Vbn, u64)>,
    /// Drains that resumed from the volume's per-AA cursor instead of
    /// re-walking the AA's allocated prefix.
    pub cursor_hits: u64,
    /// Drains that started from the AA's first VBN (no cursor, cursor on
    /// another AA, or cursor invalidated by frees, a replenish or a rebuild).
    pub cursor_misses: u64,
}

impl AllocOutcome {
    /// Record a *fresh* claim: an AA taken from a cache, a random draw or
    /// a sweep, at the score it was claimed with. The one place the pick
    /// statistics are fed from, so every planner counts the same events —
    /// an active AA carried over from an earlier CP was recorded when it
    /// was claimed and is not a pick again.
    pub(crate) fn record_pick(&mut self, aa: AaId, score: AaScore) {
        self.picked.push((aa, score));
    }
}

/// Claim the free VBNs of `ranges` in `bitmap`, in write order, until
/// `out` holds `quota` of them. Returns how many it claimed and whether
/// the ranges were exhausted.
pub(crate) fn drain_ranges(
    ranges: &[(Vbn, u64)],
    bitmap: &mut Bitmap,
    quota: usize,
    out: &mut AllocOutcome,
) -> (u32, bool) {
    let before = out.vbns.len();
    // Sized once: a fragmented AA hands its blocks over a few at a time.
    out.vbns.reserve(quota - before);
    for &(start, len) in ranges {
        let want = (quota - out.vbns.len()) as u64;
        let claim = bitmap.claim_free_in_range(start, len, want, &mut out.runs, &mut out.vbns);
        if claim.more_free {
            // Quota hit mid-range: examined up to the last take.
            if let Some(last) = claim.last_taken {
                out.blocks_examined += last.get() - start.get() + 1;
            }
            return ((out.vbns.len() - before) as u32, false);
        }
        // Range fully consumed (or empty): every position was examined.
        out.blocks_examined += len;
    }
    ((out.vbns.len() - before) as u32, true)
}

/// Popcount an AA's free blocks directly from the raw bits, bypassing the
/// summary-accelerated score paths. The sweeps use this: when the cache
/// (or the summaries it is built from) is suspect, the raw bitmap words
/// are the only state still trusted.
pub(crate) fn popcount_score(topology: &AaTopology, bitmap: &Bitmap, aa: AaId) -> u32 {
    topology
        .aa_vbn_ranges(aa)
        .iter()
        .map(|&(start, len)| bitmap.free_count_range_popcount(start, len))
        .sum()
}

/// Allocate from a group without its cache, AA by AA in order, scored by
/// popcount: a quarantined cache's path, and a CP's last round. No AA
/// becomes active — the sweep makes no claim a cache must honor later.
pub(crate) fn plan_group_sweep(
    g: &mut RaidGroupState,
    bitmap: &mut Bitmap,
    quota: usize,
) -> AllocOutcome {
    let mut out = AllocOutcome::default();
    for aa in 0..g.topology.aa_count() {
        if out.vbns.len() >= quota {
            break;
        }
        let aa = AaId(aa);
        let score = popcount_score(&g.topology, bitmap, aa);
        if score == 0 {
            continue;
        }
        out.sweep_picks += 1;
        out.record_pick(aa, AaScore(score));
        let ranges = g.topology.aa_write_ranges(aa);
        let (taken, _) = drain_ranges(&ranges, bitmap, quota, &mut out);
        g.batch.record_allocated(aa, taken);
    }
    out
}

/// Audit 1 in this many HBPS-guided picks of a space, a volume's or an
/// object-store group's, against the exact best score (the
/// `allocator.pick_score_error_bin_widths` histogram); a space's first
/// pick is always audited. The exact best is a full score scan, so it
/// must not ride every pick: see [`PickAudit`].
pub(crate) const PICK_AUDIT_SAMPLE: u64 = 64;

/// One plan call's sampled audit of a space's HBPS picks.
pub(crate) struct PickAudit<'a> {
    /// The space's HBPS picks so far, across plan calls: the pick at a
    /// multiple of [`PICK_AUDIT_SAMPLE`] is audited.
    tick: &'a mut u64,
    /// The exact best score, computed at most once per plan call and
    /// before the pick it first audits is drained: a later sampled pick
    /// of the same call is held to a best this call may have taken since,
    /// which overstates its error and never hides one. At most one scan
    /// per space per plan call, the §3.3 CP-boundary discipline.
    best: Option<u32>,
}

impl<'a> PickAudit<'a> {
    /// The audit of one plan call over the space whose pick count is
    /// `tick`.
    pub(crate) fn new(tick: &'a mut u64) -> PickAudit<'a> {
        PickAudit { tick, best: None }
    }

    /// Count a pick of `score` off `cache`; if it is sampled, push its
    /// `(true_best - score, bin_width)` to `errors`.
    fn check(
        &mut self,
        cache: &RaidAgnosticCache,
        bitmap: &Bitmap,
        score: AaScore,
        errors: &mut Vec<(u32, u32)>,
    ) {
        let sampled = self.tick.is_multiple_of(PICK_AUDIT_SAMPLE);
        *self.tick = self.tick.wrapping_add(1);
        if sampled {
            let best = *self.best.get_or_insert_with(|| {
                let scores = cache.topology().all_scores(bitmap);
                scores.into_iter().map(|(_, s)| s.get()).max().unwrap_or(0)
            });
            let width = cache.hbps().config().bin_width();
            errors.push((best.saturating_sub(score.get()), width));
        }
    }
}

/// Pick an AA off an HBPS cache, a volume's or an object-store group's
/// alike: the best listed AA at its exact score (the HBPS bound is a bin
/// edge; the score comes from the bitmap, as in §3.3). On a miss — the
/// list is empty, or its best AA has nothing free — the cache replenishes
/// from a scan if it needs to (§3.3.2's background scan), and picks once
/// more. The pick goes through `audit`, which records its error to
/// `errors` when sampled. Returns the pick and whether a scan ran: the
/// caller charges its pages.
///
/// `batch` holds exactly the changes the bitmap carries and the cache
/// has not seen — this CP's earlier claims included — so a replenish
/// here spends it: the rescan has just read what it describes.
pub(crate) fn hbps_pick(
    cache: &mut RaidAgnosticCache,
    bitmap: &Bitmap,
    batch: &mut ScoreDeltaBatch,
    audit: &mut PickAudit<'_>,
    errors: &mut Vec<(u32, u32)>,
) -> WaflResult<(Option<(AaId, AaScore)>, bool)> {
    let nonzero = |pick: Option<(AaId, AaScore)>| pick.filter(|(_, s)| s.get() > 0);
    let mut scanned = false;
    let mut pick = nonzero(cache.pick_best(bitmap));
    if pick.is_none() {
        if !cache.maybe_replenish(bitmap, batch)? {
            return Ok((None, false));
        }
        scanned = true;
        pick = nonzero(cache.pick_best(bitmap));
    }
    if let Some((_, score)) = pick {
        audit.check(cache, bitmap, score, errors);
    }
    Ok((pick, scanned))
}

/// The §4.1 baseline's draws within one plan call: AAs uniformly at
/// random, none twice, full ones skipped, at most `4 × max(aa_count, 8)`
/// draws in all.
struct RandomDraw {
    rng: StdRng,
    /// AAs drawn so far: a dense set, so each membership test is a word
    /// index and a mask instead of a hash.
    tried: BitSet,
    draws: u32,
}

impl RandomDraw {
    fn new(seed: u64) -> RandomDraw {
        RandomDraw {
            rng: StdRng::seed_from_u64(seed),
            tried: BitSet::default(),
            draws: 0,
        }
    }

    /// The next AA drawn that has a free block, at its score; `None` once
    /// the draws run out (the space is effectively full).
    fn pick(&mut self, topology: &AaTopology, bitmap: &Bitmap) -> Option<(AaId, AaScore)> {
        let aa_count = topology.aa_count();
        while self.draws < 4 * aa_count.max(8) {
            self.draws += 1;
            let aa = AaId(self.rng.random_range(0..aa_count));
            if !self.tried.insert(aa.index()) {
                continue;
            }
            let score = topology.score_from_bitmap(bitmap, aa);
            if score.get() > 0 {
                return Some((aa, score));
            }
        }
        None
    }
}

/// Allocate `quota` physical blocks from one RAID group: pick AAs off the
/// group's cache and claim their free VBNs in the shared physical bitmap,
/// recording each AA's take into the group's score batch as it is made.
/// The plan stops when the cache (or the random draws) has no AA left to
/// offer; the CP's later rounds offer the shortfall again.
pub(crate) fn plan_raid_group(
    g: &mut RaidGroupState,
    bitmap: &mut Bitmap,
    quota: usize,
    mode: AllocatorMode,
    seed: u64,
) -> WaflResult<AllocOutcome> {
    // Structure quarantine: the cache's scores are suspect, so don't
    // consult it at all — sweep the bitmap with popcount scoring instead.
    if mode == AllocatorMode::CacheGuided && g.cache_quarantined {
        g.active_aa = None;
        return Ok(plan_group_sweep(g, bitmap, quota));
    }
    let mut out = AllocOutcome::default();
    let mut draw = RandomDraw::new(seed);
    let scan_pages = g.scan_pages();
    let mut audit = PickAudit::new(&mut g.pick_audit_tick);
    while out.vbns.len() < quota {
        // Continue the active AA, or claim a new one.
        let aa = match g.active_aa {
            Some(aa) => aa,
            None => {
                let pick = match (mode, g.cache.as_mut()) {
                    (AllocatorMode::RandomAa, _) => draw.pick(&g.topology, bitmap),
                    (_, Some(GroupCache::Heap(cache))) => match cache.take_best() {
                        Some((aa, score)) if score.get() > 0 => Some((aa, score)),
                        Some((aa, _)) => {
                            // Best AA is full: the group is exhausted.
                            out.drained.push(aa);
                            None
                        }
                        None => None,
                    },
                    (_, Some(GroupCache::Hbps(cache))) => {
                        let errors = &mut out.pick_errors;
                        let (pick, scanned) =
                            hbps_pick(cache, bitmap, &mut g.batch, &mut audit, errors)?;
                        if scanned {
                            out.replenish_pages += scan_pages;
                        }
                        pick
                    }
                    (_, None) => None,
                };
                let Some((aa, score)) = pick else { break };
                out.record_pick(aa, score);
                g.active_aa = Some(aa);
                aa
            }
        };
        // Assign the AA's free VBNs in write order: tetris by tetris, one
        // chain per device — full stripes and long chains (§2.3–2.4).
        // Ranges with no free block are dropped by their summary count
        // and not examined, like the prefix behind a volume's drain
        // cursor.
        let mut ranges = g.topology.aa_write_ranges(aa);
        ranges.retain(|&(start, len)| bitmap.free_count_range(start, len) > 0);
        let (taken, exhausted) = drain_ranges(&ranges, bitmap, quota, &mut out);
        g.batch.record_allocated(aa, taken);
        if exhausted {
            out.drained.push(aa);
            g.active_aa = None;
        } else {
            break; // quota met mid-AA; stays active for the next CP
        }
    }
    Ok(out)
}

/// Allocate `n` virtual VBNs from a volume, updating its bitmap and batch
/// in place (the volume owns both).
pub(crate) fn allocate_vvbns(
    vol: &mut FlexVol,
    n: usize,
    seed: u64,
    mode: AllocatorMode,
) -> WaflResult<AllocOutcome> {
    let mut out = AllocOutcome::default();
    let mut draw = RandomDraw::new(seed);
    let mut audit = PickAudit::new(&mut vol.pick_audit_tick);
    while out.vbns.len() < n {
        let aa = match vol.active_aa {
            Some(aa) => aa,
            None => {
                let picked = match mode {
                    // Structure quarantine: the cache's scores are suspect;
                    // ignore it and use the popcount sweep below, exactly
                    // like the cache-less degraded-mount path.
                    AllocatorMode::CacheGuided if vol.cache_quarantined => None,
                    AllocatorMode::CacheGuided => match vol.cache.as_mut() {
                        Some(cache) => {
                            let errors = &mut out.pick_errors;
                            let (pick, scanned) =
                                hbps_pick(cache, &vol.bitmap, &mut vol.batch, &mut audit, errors)?;
                            if scanned {
                                out.replenish_pages += vol.bitmap.page_count() as u64;
                                // The replenish scan re-derives AA scores
                                // from scratch; the cursor's resume point
                                // is no longer known to be ahead of every
                                // free block.
                                vol.drain_cursor = None;
                            }
                            pick
                        }
                        // A degraded mount can leave a cache-guided volume
                        // without its HBPS. Fall through to the linear
                        // sweep below rather than panicking; the cache is
                        // rebuilt at the next clean mount.
                        None => None,
                    },
                    AllocatorMode::RandomAa => draw.pick(&vol.topology, &vol.bitmap),
                };
                match picked {
                    Some((aa, score)) => {
                        out.record_pick(aa, score);
                        vol.active_aa = Some(aa);
                        aa
                    }
                    None => {
                        // Fall back to a linear sweep before declaring the
                        // space full: first AA with free blocks, scored by
                        // popcount (a quarantined cache's scores are
                        // exactly what is suspect).
                        let found = (0..vol.topology.aa_count()).map(AaId).find_map(|aa| {
                            let score = popcount_score(&vol.topology, &vol.bitmap, aa);
                            (score > 0).then_some((aa, AaScore(score)))
                        });
                        let Some((aa, score)) = found else {
                            return Err(WaflError::SpaceExhausted);
                        };
                        out.sweep_picks += 1;
                        out.record_pick(aa, score);
                        vol.active_aa = Some(aa);
                        aa
                    }
                }
            }
        };
        // Drain. A valid cursor lets the walk resume just past the last
        // run this AA handed out, instead of re-examining its allocated
        // prefix on every re-entry.
        let mut ranges = vol.topology.aa_vbn_ranges(aa);
        match vol.drain_cursor {
            Some((cursor_aa, resume)) if cursor_aa == aa => {
                out.cursor_hits += 1;
                ranges.retain_mut(|(start, len)| {
                    let end = start.get() + *len;
                    if end <= resume.get() {
                        false // entirely behind the cursor
                    } else {
                        if start.get() < resume.get() {
                            *len = end - resume.get();
                            *start = resume;
                        }
                        true
                    }
                });
            }
            _ => out.cursor_misses += 1,
        }
        let (taken, exhausted) = drain_ranges(&ranges, &mut vol.bitmap, n, &mut out);
        vol.batch.record_allocated(aa, taken);
        if exhausted {
            vol.active_aa = None;
            vol.drain_cursor = None;
        } else {
            // Quota met mid-AA: the next drain resumes one past the last
            // VBN taken (frees into this AA invalidate the cursor).
            let last = out.vbns.last().expect("quota>0 and not exhausted");
            vol.drain_cursor = Some((aa, Vbn(last.get() + 1)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlexVolConfig;
    use wafl_types::VolumeId;

    fn vol(cache: bool) -> FlexVol {
        FlexVol::new(
            VolumeId(0),
            FlexVolConfig {
                size_blocks: 4 * 32768,
                aa_cache: cache,
                aa_blocks: None,
            },
            1000,
        )
        .unwrap()
    }

    #[test]
    fn vvbns_come_sequentially_from_one_aa() {
        let mut v = vol(true);
        let out = allocate_vvbns(&mut v, 100, 7, AllocatorMode::CacheGuided).unwrap();
        assert_eq!(out.vbns.len(), 100);
        for w in out.vbns.windows(2) {
            assert_eq!(w[1].get(), w[0].get() + 1);
        }
        assert_eq!(out.picked.len(), 1);
        // A fresh AA: one candidate examined per block taken.
        assert_eq!(out.blocks_examined, 100);
        assert_eq!(v.bitmap().free_blocks(), 4 * 32768 - 100);
        // The AA stays active for the next CP...
        assert!(v.active_aa.is_some());
        let aa = v.active_aa.unwrap();
        // ...and the next allocation continues it contiguously.
        let out2 = allocate_vvbns(&mut v, 50, 8, AllocatorMode::CacheGuided).unwrap();
        assert_eq!(out2.vbns[0].get(), out.vbns.last().unwrap().get() + 1);
        assert!(out2.picked.is_empty(), "no new pick while an AA is active");
        assert_eq!(v.active_aa, Some(aa));
    }

    #[test]
    fn drain_cursor_resumes_and_never_skips_freed_blocks() {
        let mut v = vol(true);
        let out = allocate_vvbns(&mut v, 100, 7, AllocatorMode::CacheGuided).unwrap();
        assert_eq!((out.cursor_hits, out.cursor_misses), (0, 1));
        assert_eq!(out.runs, vec![(Vbn(0), 100)], "contiguous drain is one run");
        assert!(v.drain_cursor.is_some());
        // The second drain resumes from the cursor: no re-walk of the
        // allocated prefix, so only the 50 taken blocks are examined.
        let out2 = allocate_vvbns(&mut v, 50, 8, AllocatorMode::CacheGuided).unwrap();
        assert_eq!((out2.cursor_hits, out2.cursor_misses), (1, 0));
        assert_eq!(out2.blocks_examined, 50);
        assert_eq!(out2.vbns[0], Vbn(100));
        // Interleaved frees behind the cursor (the CP delayed-free path)
        // must invalidate it; the next drain then finds the freed blocks
        // instead of skipping them.
        v.delayed_vvbn_frees.extend([Vbn(10), Vbn(11), Vbn(12)]);
        v.flush_delayed_frees().unwrap();
        assert!(
            v.drain_cursor.is_none(),
            "a free into the cursor's AA must invalidate it"
        );
        let out3 = allocate_vvbns(&mut v, 3, 9, AllocatorMode::CacheGuided).unwrap();
        assert_eq!(out3.vbns, vec![Vbn(10), Vbn(11), Vbn(12)]);
        assert_eq!((out3.cursor_hits, out3.cursor_misses), (0, 1));
    }

    #[test]
    fn fragmented_drain_reports_per_run_granularity() {
        let mut v = vol(true);
        for b in (0..32768u64).step_by(2) {
            v.bitmap.allocate(Vbn(b)).unwrap();
        }
        v.active_aa = Some(AaId(0));
        let out = allocate_vvbns(&mut v, 10, 3, AllocatorMode::CacheGuided).unwrap();
        // Every other block free: ten single-block runs.
        assert_eq!(out.runs.len(), 10);
        assert!(out.runs.iter().all(|&(_, len)| len == 1));
        assert_eq!(out.vbns.len(), 10);
    }

    #[test]
    fn allocation_spills_to_next_aa_when_one_fills() {
        let mut v = vol(true);
        let out = allocate_vvbns(&mut v, 3 * 32768 + 10, 7, AllocatorMode::CacheGuided).unwrap();
        assert_eq!(out.vbns.len(), 3 * 32768 + 10);
        assert!(out.picked.len() >= 4);
    }

    #[test]
    fn space_exhaustion_reported() {
        let mut v = vol(true);
        assert!(matches!(
            allocate_vvbns(&mut v, 4 * 32768 + 1, 7, AllocatorMode::CacheGuided),
            Err(WaflError::SpaceExhausted)
        ));
    }

    #[test]
    fn random_mode_picks_varied_aas() {
        let mut v = vol(false);
        let out = allocate_vvbns(&mut v, 200, 11, AllocatorMode::RandomAa).unwrap();
        assert_eq!(out.vbns.len(), 200);
        assert_eq!(v.bitmap().free_blocks(), 4 * 32768 - 200);
    }

    #[test]
    fn cache_guided_prefers_emptier_aas() {
        let mut v = vol(true);
        for b in 0..16_384u64 {
            v.bitmap.allocate(Vbn(b)).unwrap();
        }
        let mut cache = wafl_core::RaidAgnosticCache::build(v.topology.clone(), &v.bitmap).unwrap();
        std::mem::swap(v.cache.as_mut().unwrap(), &mut cache);
        let out = allocate_vvbns(&mut v, 100, 7, AllocatorMode::CacheGuided).unwrap();
        assert!(out.picked[0].0.get() >= 1);
        assert_eq!(out.picked[0].1, AaScore(32768));
    }

    #[test]
    fn cache_guided_without_cache_falls_back_to_sweep() {
        // Regression: a degraded mount leaves `cache = None`; CacheGuided
        // allocation used to panic on `.expect("cache-guided without a
        // cache")`. It must fall back to the linear sweep instead.
        let mut v = vol(true);
        v.cache = None;
        let out = allocate_vvbns(&mut v, 100, 7, AllocatorMode::CacheGuided).unwrap();
        assert_eq!(out.vbns.len(), 100);
        assert!(out.sweep_picks >= 1, "sweep fallback should be counted");
        assert!(out.pick_errors.is_empty(), "sweep picks record no error");
        assert_eq!(v.bitmap().free_blocks(), 4 * 32768 - 100);
    }

    #[test]
    fn pick_error_stays_under_one_bin_width() {
        let mut v = vol(true);
        // Skew free space so AAs have distinct scores, then let the cache
        // (rebalanced at build time) pick; the HBPS bound caps the error.
        for b in 0..10_000u64 {
            v.bitmap.allocate(Vbn(b)).unwrap();
        }
        let mut cache = wafl_core::RaidAgnosticCache::build(v.topology.clone(), &v.bitmap).unwrap();
        std::mem::swap(v.cache.as_mut().unwrap(), &mut cache);
        let out = allocate_vvbns(&mut v, 100, 7, AllocatorMode::CacheGuided).unwrap();
        assert!(!out.pick_errors.is_empty());
        for &(err, width) in &out.pick_errors {
            assert!(err < width, "pick error {err} >= bin width {width}");
        }
    }

    /// An object-store group audits its first HBPS pick, as a volume
    /// does: the 1-in-`PICK_AUDIT_SAMPLE` sample counts from it.
    #[test]
    fn a_groups_first_hbps_pick_records_a_pick_error() {
        use crate::{Aggregate, AggregateConfig, RaidGroupSpec};
        use wafl_media::MediaProfile;
        let group = RaidGroupSpec {
            data_devices: 1,
            parity_devices: 0,
            device_blocks: 8 * 32768,
            profile: MediaProfile::object_store(),
        };
        let vol = FlexVolConfig {
            size_blocks: 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let cfg = AggregateConfig::single_group(group);
        let mut a = Aggregate::new(cfg, &[(vol, 1000)], 0).unwrap();
        let (g, bitmap) = (&mut a.groups[0], &mut a.bitmap);
        assert!(matches!(g.cache, Some(GroupCache::Hbps(_))));
        let out = plan_raid_group(g, bitmap, 100, AllocatorMode::CacheGuided, 1).unwrap();
        assert_eq!(out.picked.len(), 1);
        assert_eq!(out.pick_errors.len(), 1, "the first pick went unaudited");
        let (err, width) = out.pick_errors[0];
        assert!(err < width, "pick error {err} >= bin width {width}");
    }

    #[test]
    fn examined_exceeds_taken_in_fragmented_aas() {
        let mut v = vol(true);
        // Fragment AA 0: every other block allocated.
        for b in (0..32768u64).step_by(2) {
            v.bitmap.allocate(Vbn(b)).unwrap();
        }
        // Force AA 0 active.
        v.active_aa = Some(AaId(0));
        let out = allocate_vvbns(&mut v, 1000, 3, AllocatorMode::CacheGuided).unwrap();
        assert_eq!(out.vbns.len(), 1000);
        // Half-free AA: ~2 candidates examined per block taken.
        assert!(
            out.blocks_examined >= 1990 && out.blocks_examined <= 2010,
            "examined {}",
            out.blocks_examined
        );
    }
}
