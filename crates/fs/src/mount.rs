//! Unmount/mount with and without TopAA metafiles (§3.4).
//!
//! After a failover or reboot, write allocation cannot begin until an AA
//! can be selected, which requires operational AA caches. The slow path
//! walks every bitmap-metafile block; the fast path reads the fixed-size
//! TopAA metafile: one block per RAID-aware cache (512 best AAs) and two
//! blocks (the embedded HBPS pages) per RAID-agnostic cache. Figure 10
//! measures exactly this difference, and [`MountStats`] carries the
//! numbers the harness plots.
//!
//! Beside the page images a [`TopAaImage`] carries the allocator context:
//! the AA each RAID group and volume was filling. A mount resumes them
//! ([`resumable`]), so the sequential tail of a half-filled AA is written
//! next instead of being abandoned for another AA's fragmented head.

use crate::aggregate::{Aggregate, GroupCache};
use crate::scrub::ScrubTarget;
use serde::{Deserialize, Serialize};
use wafl_bitmap::Bitmap;
use wafl_core::{topaa, AaTopology, RaidAgnosticCache, RaidAwareCache};
use wafl_faults::{FaultPlan, FaultSession, PageSel, ReadOutcome, StructureId};
use wafl_obs::trace::TraceData;
use wafl_types::{
    AaId, AaScore, RetryPolicy, WaflError, WaflResult, BITS_PER_BITMAP_BLOCK, BLOCK_SIZE,
};

/// Journal a mount-path span on the engine track: real wall duration from
/// `t0` (a [`crate::obs::FsObs::trace_now_us`] stamp taken at entry),
/// modeled time = the path's first-CP-ready cost.
fn trace_mount_span(agg: &Aggregate, name: &'static str, t0: Option<f64>, model_us: f64) {
    if let (Some(t0), Some(now)) = (t0, agg.obs.trace_now_us()) {
        agg.obs.trace_at(
            t0,
            agg.cp_count,
            TraceData::Span {
                name,
                dur_us: now - t0,
                model_us,
            },
        );
    }
}

/// Persisted form of one physical range's AA cache.
#[allow(clippy::large_enum_variant)] // both variants are page images
#[derive(Clone)]
pub enum RgTopAa {
    /// One 4 KiB block: the 512 best AAs of a RAID-aware max-heap (§3.4).
    Heap([u8; BLOCK_SIZE]),
    /// Two 4 KiB blocks: the HBPS pages of a natively redundant range,
    /// embedded verbatim like a FlexVol cache.
    Hbps([u8; BLOCK_SIZE], [u8; BLOCK_SIZE]),
}

/// The persisted TopAA metafile image of a whole aggregate: one block per
/// RAID group (two for HBPS-cached ranges) plus two per FlexVol, and the
/// allocator context — the AA each of them was filling. The context rides
/// beside the pages, not in them: the heap block has no spare byte
/// (511 × 8 + 8), and on storage it would sit in blocks the mount reads
/// anyway, so [`TopAaImage::block_count`] does not count it.
#[derive(Clone)]
pub struct TopAaImage {
    /// Per-group cache image (index = RAID group).
    pub rg_blocks: Vec<Option<RgTopAa>>,
    /// Two 4 KiB blocks per volume cache (index = volume).
    pub vol_pages: Vec<Option<([u8; BLOCK_SIZE], [u8; BLOCK_SIZE])>>,
    /// The AA each RAID group was filling (index = RAID group). A hint
    /// without a seal: see [`resumable`].
    pub rg_active: Vec<Option<AaId>>,
    /// The AA each volume was filling (index = volume). The drain cursor
    /// inside it is not kept: one CP stale, it would skip free blocks.
    pub vol_active: Vec<Option<AaId>>,
}

impl TopAaImage {
    /// Metafile blocks this image occupies on storage.
    pub fn block_count(&self) -> u64 {
        let rg: u64 = self
            .rg_blocks
            .iter()
            .flatten()
            .map(|b| match b {
                RgTopAa::Heap(_) => 1,
                RgTopAa::Hbps(..) => 2,
            })
            .sum();
        let vol = self.vol_pages.iter().flatten().count() as u64 * 2;
        rg + vol
    }
}

/// Which structure's TopAA state fell back to a cold bitmap scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradedPart {
    /// A RAID group's TopAA block / HBPS page pair.
    Group(usize),
    /// A FlexVol's HBPS page pair.
    Volume(usize),
}

/// One structure [`mount_auto`] could not seed from the TopAA metafile:
/// its cache was rebuilt from the authoritative bitmap instead. The rest
/// of the mount stays on the fast path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// The structure that degraded.
    pub part: DegradedPart,
    /// Why the fast path failed (CRC mismatch, persistent I/O error, ...).
    pub reason: String,
    /// Bitmap pages the cold rebuild of this structure scanned.
    pub pages_scanned: u64,
}

/// What a mount path cost and left behind.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MountStats {
    /// Metafile blocks read before the first CP could run (TopAA blocks
    /// plus any bitmap pages scanned for degraded structures).
    pub metafile_blocks_read: u64,
    /// Modelled time until the first CP can start, µs (reads + processing).
    pub first_cp_ready_us: f64,
    /// Bitmap pages a background walk must still scan to complete the
    /// caches (zero for the cold path, which scans everything up front).
    pub background_pages_remaining: u64,
    /// Transient metafile read failures absorbed by retries during the
    /// mount (only [`mount_auto_with`] can make this nonzero).
    pub transient_retries: u64,
    /// Structures that fell back to a cold bitmap scan (empty on a fully
    /// fast mount).
    pub degraded: Vec<DegradationEvent>,
}

/// Serialize every cache's TopAA state and the allocator's active AAs —
/// what WAFL persists at each CP so a crash loses nothing (§3.4).
pub fn save_topaa(agg: &Aggregate) -> TopAaImage {
    TopAaImage {
        rg_blocks: agg
            .groups
            .iter()
            .map(|g| {
                g.cache.as_ref().map(|c| match c {
                    GroupCache::Heap(h) => RgTopAa::Heap(topaa::serialize_raid_aware(h)),
                    GroupCache::Hbps(c) => {
                        let (a, b) = c.to_topaa();
                        RgTopAa::Hbps(a, b)
                    }
                })
            })
            .collect(),
        vol_pages: agg
            .volumes()
            .iter()
            .map(|v| v.cache().map(RaidAgnosticCache::to_topaa))
            .collect(),
        rg_active: agg.groups.iter().map(|g| g.active_aa).collect(),
        vol_active: agg.volumes().iter().map(|v| v.active_aa).collect(),
    }
}

/// Simulate a crash/reboot: all in-memory AA caches, allocator context
/// (active AAs, drain cursors, device stream state), queued client
/// operations, and unapplied delayed frees are lost. Bitmaps, volume maps,
/// snapshots, and the delayed-free *log* — the persistent state — survive;
/// so does whatever [`TopAaImage`] the last CP saved.
pub fn crash(agg: &mut Aggregate) {
    for g in agg.groups.iter_mut() {
        g.cache = None;
        g.active_aa = None;
        g.azcs_next.iter_mut().for_each(|n| *n = u64::MAX);
        g.cache_quarantined = false;
    }
    for v in agg.vols.iter_mut() {
        v.cache = None;
        v.active_aa = None;
        v.drain_cursor = None;
        v.cache_quarantined = false;
    }
    // The scrubber's cursor, tickets, and health are volatile too: the
    // remount re-derives health from its own degradation events.
    agg.scrub.reset_volatile();
    agg.lose_volatile_state();
}

/// What seeding structures from a [`TopAaImage`] has cost and done so far
/// — the sums both image-reading mount paths report.
#[derive(Default)]
struct Seeding {
    /// TopAA blocks read, those of an image that then failed included.
    blocks_read: u64,
    /// Structures whose cache came from the image.
    seed_hits: u64,
    /// Whether some max-heap was left without a score for some AA of its
    /// group (more AAs than a TopAA block lists).
    partial_heap: bool,
    /// Structures whose active AA was reinstated.
    resumed: u64,
}

impl Seeding {
    /// Export the counters: seed hits, and every active AA the image
    /// names as either resumed or dropped.
    fn record(&self, agg: &Aggregate, image: &TopAaImage) {
        let named = image.rg_active.iter().chain(&image.vol_active).flatten();
        agg.obs.mount_seed_hits.inc(self.seed_hits);
        agg.obs.mount_active_resumed.inc(self.resumed);
        agg.obs
            .mount_active_dropped
            .inc(named.count() as u64 - self.resumed);
    }

    /// Bitmap pages the background walk owes: a pass over the physical
    /// bitmap only when a partial heap seed was actually installed; an
    /// all-HBPS mount, or one whose seeds and resumed AAs cover every AA,
    /// restores complete.
    fn background_pages(&self, agg: &Aggregate) -> u64 {
        if self.partial_heap {
            agg.bitmap.page_count() as u64
        } else {
            0
        }
    }
}

/// The AA an image says a structure was filling, with its score, if it
/// can still be filled: in range and holding a free block by the
/// authoritative bitmap. The hint says only *where to allocate next*, so
/// a wrong one costs pick quality, never correctness: it carries no
/// seal, and one that fails a check is dropped.
fn resumable(
    hint: Option<AaId>,
    topology: &AaTopology,
    bitmap: &Bitmap,
) -> Option<(AaId, AaScore)> {
    let aa = hint.filter(|aa| aa.get() < topology.aa_count())?;
    let score = topology.score_from_bitmap(bitmap, aa);
    (score.get() > 0).then_some((aa, score))
}

/// Seed group `i`'s cache from its TopAA image, then resume the AA the
/// image says the group was filling. On an error — the image has no
/// entry for the group, or a bad one — the group is left as it was.
fn seed_group(
    agg: &mut Aggregate,
    i: usize,
    image: &TopAaImage,
    seeding: &mut Seeding,
) -> WaflResult<()> {
    let g = &mut agg.groups[i];
    let mut cache = match image.rg_blocks.get(i).and_then(Option::as_ref) {
        None => {
            return Err(WaflError::CorruptMetafile {
                reason: "TopAA image missing for this group".into(),
            })
        }
        Some(RgTopAa::Heap(block)) => {
            seeding.blocks_read += 1;
            let entries = topaa::deserialize_raid_aware(block)?;
            let max: Vec<u32> = (0..g.topology.aa_count())
                .map(|a| g.topology.aa_blocks(AaId(a)) as u32)
                .collect();
            GroupCache::Heap(RaidAwareCache::seeded(max, &entries)?)
        }
        Some(RgTopAa::Hbps(hist, list)) => {
            seeding.blocks_read += 2;
            // HBPS restores complete — like a volume cache.
            let cache = RaidAgnosticCache::from_topaa(g.topology.clone(), hist, list)?;
            GroupCache::Hbps(Box::new(cache))
        }
    };
    let hint = image.rg_active.get(i).copied().flatten();
    let resumed = resumable(hint, &g.topology, &agg.bitmap);
    // The active AA was taken before the save, so a heap seed does not
    // list it: the heap holds it out at its score. An HBPS never stopped
    // counting it.
    if let GroupCache::Heap(heap) = &mut cache {
        if let Some((aa, score)) = resumed {
            heap.take(aa, score)?;
        }
        seeding.partial_heap |= !heap.is_complete();
    }
    g.cache = Some(cache);
    g.active_aa = resumed.map(|(aa, _)| aa);
    seeding.seed_hits += 1;
    seeding.resumed += resumed.is_some() as u64;
    Ok(())
}

/// Seed volume `i`'s cache from its two HBPS pages (complete — no
/// background debt for volumes), then resume the AA it was filling. The
/// first drain walks that AA from its start: no cursor is persisted.
fn seed_volume(
    agg: &mut Aggregate,
    i: usize,
    image: &TopAaImage,
    seeding: &mut Seeding,
) -> WaflResult<()> {
    let Some((hist, list)) = image.vol_pages.get(i).and_then(Option::as_ref) else {
        return Err(WaflError::CorruptMetafile {
            reason: "TopAA image missing for this volume".into(),
        });
    };
    seeding.blocks_read += 2;
    let v = &mut agg.vols[i];
    v.cache = Some(RaidAgnosticCache::from_topaa(
        v.topology.clone(),
        hist,
        list,
    )?);
    let hint = image.vol_active.get(i).copied().flatten();
    v.active_aa = resumable(hint, &v.topology, &v.bitmap).map(|(aa, _)| aa);
    seeding.seed_hits += 1;
    seeding.resumed += v.active_aa.is_some() as u64;
    Ok(())
}

/// Fast mount: seed every cache from the TopAA image (§3.4) and resume
/// the AAs it names. Reads a fixed number of metafile blocks regardless
/// of file-system size; the max-heap of a group with more AAs than a
/// block lists starts partial and [`complete_background_rebuild`]
/// finishes it later.
pub fn mount_with_topaa(agg: &mut Aggregate, image: &TopAaImage) -> WaflResult<MountStats> {
    let t0 = agg.obs.trace_now_us();
    let cpu = agg.config().cpu;
    let mut seeding = Seeding::default();
    // A structure the image has no pages for is left without a cache.
    for i in (0..image.rg_blocks.len()).filter(|&i| image.rg_blocks[i].is_some()) {
        seed_group(agg, i, image, &mut seeding)?;
    }
    for i in (0..image.vol_pages.len()).filter(|&i| image.vol_pages[i].is_some()) {
        seed_volume(agg, i, image, &mut seeding)?;
    }
    seeding.record(agg, image);
    let stats = MountStats {
        metafile_blocks_read: seeding.blocks_read,
        first_cp_ready_us: seeding.blocks_read as f64
            * (cpu.us_per_metafile_read + cpu.us_per_scan_page),
        background_pages_remaining: seeding.background_pages(agg),
        transient_retries: 0,
        degraded: Vec::new(),
    };
    trace_mount_span(agg, "mount.topaa", t0, stats.first_cp_ready_us);
    Ok(stats)
}

/// Apply a fault plan's scribbles to a persisted TopAA image — the damage
/// the torture driver inflicts between crash and remount. Scribbles aimed
/// at absent structures (or at the nonexistent second page of a heap
/// block) hit unused media and are ignored.
pub fn apply_scribbles(image: &mut TopAaImage, plan: &FaultPlan) {
    for s in &plan.scribbles {
        match s.target {
            StructureId::Group(i) => {
                if let Some(Some(block)) = image.rg_blocks.get_mut(i) {
                    match block {
                        RgTopAa::Heap(page) => {
                            if s.page == PageSel::First {
                                s.apply(page);
                            }
                        }
                        RgTopAa::Hbps(hist, list) => s.apply(match s.page {
                            PageSel::First => hist,
                            PageSel::Second => list,
                        }),
                    }
                }
            }
            StructureId::Volume(i) => {
                if let Some(Some((hist, list))) = image.vol_pages.get_mut(i) {
                    s.apply(match s.page {
                        PageSel::First => hist,
                        PageSel::Second => list,
                    });
                }
            }
        }
    }
}

/// Fault-free [`mount_auto_with`]: fast-path every structure, degrading
/// any whose persisted state fails its CRC or structural validation.
pub fn mount_auto(agg: &mut Aggregate, image: &TopAaImage) -> MountStats {
    let plan = FaultPlan::none();
    let mut session = FaultSession::new(&plan);
    mount_auto_with(agg, image, &mut session, RetryPolicy::default())
}

/// Degraded-mode mount: seed every cache from the TopAA image where
/// possible, and fall back to a cold bitmap scan *per structure* where
/// not. Unlike [`mount_with_topaa`], this never returns an error and
/// never leaves a cache-configured structure without its cache: a corrupt
/// TopAA block or a persistently unreadable metafile costs that one
/// group/volume a bitmap walk (recorded in [`MountStats::degraded`])
/// while everything else keeps the fast path. Transient read errors are
/// retried within `retry`'s budget and surface only as
/// [`MountStats::transient_retries`].
pub fn mount_auto_with(
    agg: &mut Aggregate,
    image: &TopAaImage,
    faults: &mut FaultSession<'_>,
    retry: RetryPolicy,
) -> MountStats {
    let t0 = agg.obs.trace_now_us();
    let cpu = agg.config().cpu;
    let mut stats = MountStats::default();
    let mut seeding = Seeding::default();

    let want_group_caches = agg.config().raid_aware_cache;
    for i in 0..agg.groups.len() {
        if !want_group_caches {
            continue;
        }
        let (read, retries) = faulted_read(faults, StructureId::Group(i), retry);
        stats.transient_retries += retries as u64;
        let seeded = read.and_then(|()| seed_group(agg, i, image, &mut seeding));
        if let Err(e) = seeded {
            // Per-structure degradation: recompute this group's cache
            // from the authoritative bitmap (§3.4's fallback), leaving
            // every other structure on the fast path. The rebuilt cache
            // ranks every AA, so the group resumes none.
            crate::aging::rebuild_rg_cache(agg, i)
                .expect("cold cache rebuild from the authoritative bitmap");
            let pages = agg.groups[i]
                .geometry
                .data_blocks()
                .div_ceil(BITS_PER_BITMAP_BLOCK);
            stats.metafile_blocks_read += pages;
            stats.degraded.push(DegradationEvent {
                part: DegradedPart::Group(i),
                reason: e.to_string(),
                pages_scanned: pages,
            });
            // A degraded-at-mount structure starts fenced, with a repair
            // ticket: its cold-rebuilt cache is trusted only once the
            // ticket's rebuild (or `complete_background_rebuild`) settles
            // it.
            crate::scrub::ticket(agg, ScrubTarget::GroupCache(i));
        }
    }

    for i in 0..agg.vols.len() {
        if !agg.vols[i].config().aa_cache {
            continue;
        }
        let (read, retries) = faulted_read(faults, StructureId::Volume(i), retry);
        stats.transient_retries += retries as u64;
        let seeded = read.and_then(|()| seed_volume(agg, i, image, &mut seeding));
        if let Err(e) = seeded {
            let v = &mut agg.vols[i];
            v.rebuild_cache()
                .expect("cold cache rebuild from the authoritative bitmap");
            let pages = v.bitmap.page_count() as u64;
            stats.metafile_blocks_read += pages;
            stats.degraded.push(DegradationEvent {
                part: DegradedPart::Volume(i),
                reason: e.to_string(),
                pages_scanned: pages,
            });
            crate::scrub::ticket(agg, ScrubTarget::VolCache(i));
        }
    }

    stats.metafile_blocks_read += seeding.blocks_read;
    stats.first_cp_ready_us =
        stats.metafile_blocks_read as f64 * (cpu.us_per_metafile_read + cpu.us_per_scan_page);
    stats.background_pages_remaining = seeding.background_pages(agg);
    seeding.record(agg, image);
    agg.obs
        .mount_cold_pages
        .inc(stats.degraded.iter().map(|d| d.pages_scanned).sum());
    // Reflect the mount's degradations in the health state machine (the
    // scrub-state fix: a degraded mount used to report Healthy until the
    // first scrub step happened to run).
    crate::scrub::refresh_health(agg);
    trace_mount_span(agg, "mount.auto", t0, stats.first_cp_ready_us);
    stats
}

/// One metafile read against the fault session, retried within `retry`'s
/// budget. Returns the settled result and the retries consumed.
fn faulted_read(
    faults: &mut FaultSession<'_>,
    target: StructureId,
    retry: RetryPolicy,
) -> (WaflResult<()>, u32) {
    retry.run(|| match faults.on_read(target) {
        ReadOutcome::Ok => Ok(()),
        ReadOutcome::Transient => Err(WaflError::TransientIo {
            reason: format!("metafile read failed for {target:?}"),
        }),
        ReadOutcome::Persistent => Err(WaflError::CorruptMetafile {
            reason: format!("metafile persistently unreadable for {target:?}"),
        }),
    })
}

/// Cold mount: no TopAA metafile — walk every bitmap page of the
/// aggregate and of every volume to compute all AA scores (§3.4's
/// "linear walk of the bitmap metafiles ... may take multiple seconds").
pub fn mount_cold(agg: &mut Aggregate) -> WaflResult<MountStats> {
    let t0 = agg.obs.trace_now_us();
    let cpu = agg.config().cpu;
    let mut pages = agg.bitmap.page_count() as u64;
    for i in 0..agg.groups.len() {
        crate::aging::rebuild_rg_cache(agg, i)?;
    }
    for v in agg.vols.iter_mut() {
        pages += v.bitmap.page_count() as u64;
        v.rebuild_cache()?;
    }
    agg.obs.mount_cold_pages.inc(pages);
    let stats = MountStats {
        metafile_blocks_read: pages,
        first_cp_ready_us: pages as f64 * (cpu.us_per_metafile_read + cpu.us_per_scan_page),
        background_pages_remaining: 0,
        transient_retries: 0,
        degraded: Vec::new(),
    };
    trace_mount_span(agg, "mount.cold", t0, stats.first_cp_ready_us);
    Ok(stats)
}

/// Finish a TopAA-seeded mount: the background walk that completes every
/// RAID-aware max-heap with authoritative scores, and rebuilds from its
/// bitmap every cache a degraded mount left fenced, settling its repair
/// ticket. Returns the pages scanned (its cost runs behind client
/// traffic, not in front of it). The *modelled* cost stays a full
/// metafile walk — the paper's §3.4 I/O — but the in-memory
/// recomputation is summary-driven: each AA's score comes from the
/// free-count counters, not a popcount over raw bits, so the rebuild no
/// longer competes with client CPs for CPU.
pub fn complete_background_rebuild(agg: &mut Aggregate) -> WaflResult<u64> {
    let bitmap = &agg.bitmap;
    let mut scanned = 0u64;
    let mut settled = Vec::new();
    for (i, g) in agg.groups.iter_mut().enumerate() {
        match g.cache.as_mut() {
            // Complete and trusted: nothing to do. A fenced heap is
            // recomputed even when complete (a degraded mount cold-rebuilt
            // it, but only an authoritative pass settles its ticket).
            Some(GroupCache::Heap(cache)) if !cache.is_complete() || g.cache_quarantined => {
                cache.absorb_rebuild(&g.topology.all_scores(bitmap))?;
            }
            // An HBPS range restores complete from its two pages; a
            // fenced one is rebuilt.
            Some(GroupCache::Hbps(_)) if g.cache_quarantined => g.rebuild_cache(bitmap)?,
            _ => continue,
        }
        scanned += bitmap.page_count() as u64;
        if g.cache_quarantined {
            settled.push(ScrubTarget::GroupCache(i));
        }
    }
    for (i, vol) in agg.vols.iter_mut().enumerate() {
        if !vol.cache_quarantined || !vol.config().aa_cache {
            continue;
        }
        vol.rebuild_cache()?;
        scanned += vol.bitmap.page_count() as u64;
        settled.push(ScrubTarget::VolCache(i));
    }
    if !settled.is_empty() {
        crate::scrub::settle(agg, &settled);
    }
    Ok(scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;
    use wafl_types::VolumeId;

    fn aged_agg(vols: usize) -> Aggregate {
        let mut a = Aggregate::new(
            AggregateConfig {
                // 64-stripe AAs -> 2048 AAs per group, so the 512-entry
                // TopAA seed is a strict subset and the background rebuild
                // has real work to do.
                aa_policy_override: Some(wafl_types::AaSizingPolicy::Stripes { stripes: 64 }),
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 32 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &vec![
                (
                    FlexVolConfig {
                        size_blocks: 8 * 32768,
                        aa_cache: true,
                        aa_blocks: None,
                    },
                    40_000,
                );
                vols
            ],
            3,
        )
        .unwrap();
        for v in 0..vols {
            aging::fill_volume(&mut a, VolumeId(v as u32), 8192).unwrap();
            aging::random_overwrite_churn(&mut a, VolumeId(v as u32), 20_000, 8192, v as u64)
                .unwrap();
        }
        a
    }

    #[test]
    fn topaa_mount_reads_fixed_blocks() {
        let mut a = aged_agg(2);
        let image = save_topaa(&a);
        assert_eq!(image.block_count(), 1 + 2 * 2);
        crash(&mut a);
        assert!(a.groups()[0].cache().is_none());
        let stats = mount_with_topaa(&mut a, &image).unwrap();
        assert_eq!(stats.metafile_blocks_read, 5);
        assert!(stats.background_pages_remaining > 0);
        assert!(a.groups()[0].cache().is_some());
        assert!(!a.groups()[0].cache().unwrap().is_complete());
        // Volume caches are fully operational immediately.
        assert!(a.volumes()[0].cache().is_some());
    }

    #[test]
    fn cold_mount_scales_with_size() {
        let mut a = aged_agg(1);
        crash(&mut a);
        let cold = mount_cold(&mut a).unwrap();
        // Cold mount reads every bitmap page: aggregate (16 pages for
        // 4*32*4096 blocks) + volume (8 pages).
        assert_eq!(cold.metafile_blocks_read, 16 + 8);
        assert_eq!(cold.background_pages_remaining, 0);
        assert!(a.groups()[0].cache().unwrap().is_complete());
    }

    /// Every group's cache passes its audit, and every heap is complete:
    /// it ranks every AA but the active one, which it holds out.
    fn assert_ranked_xor_active(a: &Aggregate, ctx: &str) {
        for (i, g) in a.groups().iter().enumerate() {
            if let Some(cache) = g.cache() {
                assert!(cache.is_complete(), "{ctx}: group {i} incomplete");
            }
            let bad = crate::iron::group_cache_divergences(g, &a.bitmap);
            assert_eq!(bad, 0, "{ctx}: group {i} (active {:?})", g.active_aa);
        }
    }

    fn overwrite_cp(
        a: &mut Aggregate,
        vol: u32,
        logicals: impl IntoIterator<Item = u64>,
    ) -> crate::CpStats {
        for l in logicals {
            a.client_overwrite(VolumeId(vol), l).unwrap();
        }
        a.run_cp().unwrap()
    }

    #[test]
    fn seeded_mount_can_run_cps_then_rebuild() {
        let mut a = aged_agg(1);
        let image = save_topaa(&a);
        crash(&mut a);
        mount_with_topaa(&mut a, &image).unwrap();
        // Client traffic works on the seeded caches.
        let s = overwrite_cp(&mut a, 0, 0..2000);
        assert_eq!(s.blocks_written, 2000);
        // Background rebuild completes the heap.
        let scanned = complete_background_rebuild(&mut a).unwrap();
        assert!(scanned > 0);
        assert!(a.groups()[0].cache().unwrap().is_complete());
        // The AA the CP left active was scored, not ranked beside its
        // holder — the allocator would have been handed it twice.
        assert!(a.groups()[0].active_aa.is_some());
        assert_ranked_xor_active(&a, "after the rebuild");
        // Idempotent.
        assert_eq!(complete_background_rebuild(&mut a).unwrap(), 0);
        for cp in 0..3u64 {
            overwrite_cp(&mut a, 0, cp * 700..cp * 700 + 700);
            assert_ranked_xor_active(&a, "after a later CP");
            assert!(a.groups()[0].cache().unwrap().is_complete());
        }
    }

    /// One HDD group (max-heap), one object-store range (HBPS) and one
    /// volume, aged, with a CP behind them that left all three mid-AA.
    fn mid_aa_agg() -> Aggregate {
        let mut a = Aggregate::new(
            AggregateConfig {
                raid_groups: vec![
                    RaidGroupSpec {
                        data_devices: 4,
                        parity_devices: 1,
                        device_blocks: 16 * 4096,
                        profile: MediaProfile::hdd(),
                    },
                    RaidGroupSpec {
                        data_devices: 1,
                        parity_devices: 0,
                        device_blocks: 8 * 32768,
                        profile: MediaProfile::object_store(),
                    },
                ],
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 1,
                    parity_devices: 0,
                    device_blocks: 1,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                40_000,
            )],
            5,
        )
        .unwrap();
        aging::fill_volume_fraction(&mut a, VolumeId(0), 0.5, 8192).unwrap();
        for round in 0..4 {
            overwrite_cp(&mut a, 0, (round..20_000).step_by(4));
        }
        // First writes free nothing, so the drain cursor survives the CP.
        overwrite_cp(&mut a, 0, 20_000..23_000);
        assert!(a.groups().iter().all(|g| g.active_aa.is_some()));
        assert!(a.vols[0].active_aa.is_some());
        a
    }

    fn actives(a: &Aggregate) -> (Vec<Option<AaId>>, Vec<Option<AaId>>) {
        (
            a.groups().iter().map(|g| g.active_aa).collect(),
            a.volumes().iter().map(|v| v.active_aa).collect(),
        )
    }

    fn resume_counters(a: &Aggregate) -> (u64, u64) {
        (
            a.obs().counter_value("mount.active_resumed").unwrap(),
            a.obs().counter_value("mount.active_dropped").unwrap(),
        )
    }

    #[test]
    fn a_mount_resumes_the_aas_it_was_filling() {
        for auto in [true, false] {
            let mut a = mid_aa_agg();
            let before = actives(&a);
            let image = save_topaa(&a);
            assert_eq!(
                (&image.rg_active, &image.vol_active),
                (&before.0, &before.1)
            );
            assert_eq!(image.block_count(), 1 + 2 + 2, "context is not a block");
            crash(&mut a);
            assert_eq!(actives(&a), (vec![None; 2], vec![None]));
            let stats = if auto {
                mount_auto(&mut a, &image)
            } else {
                mount_with_topaa(&mut a, &image).unwrap()
            };
            assert_eq!(stats.metafile_blocks_read, 5);
            assert_eq!(actives(&a), before, "heap group, HBPS range and volume");
            assert_eq!(resume_counters(&a), (3, 0));
            // The heap holds its active AA out at the bitmap's score; a
            // 16-AA seed plus that one covers the group.
            let g = &a.groups()[0];
            let (heap, aa) = (g.cache().unwrap(), g.active_aa.unwrap());
            assert_eq!(
                heap.score_of(aa),
                g.topology.score_from_bitmap(&a.bitmap, aa)
            );
            assert!(heap.is_complete());
            assert_eq!(stats.background_pages_remaining, 0);
            assert_ranked_xor_active(&a, "after the mount");
            // The next CP goes on filling them: nothing is picked.
            let s = overwrite_cp(&mut a, 0, 30_000..30_500);
            assert_eq!((s.agg_picks, s.vol_picks), (0, 0));
            assert_eq!(actives(&a), before);
            assert_eq!(complete_background_rebuild(&mut a).unwrap(), 0);
            assert_ranked_xor_active(&a, "after the rebuild");
            assert!(crate::iron::check(&a).unwrap().is_clean());
        }
    }

    #[test]
    fn a_crash_forgets_the_drain_cursor_and_a_resumed_aa_is_walked_from_its_start() {
        let mut a = mid_aa_agg();
        let (aa, resume) = a.vols[0].drain_cursor.expect("quota met mid-AA");
        assert_eq!(a.vols[0].active_aa, Some(aa));
        let image = save_topaa(&a);
        crash(&mut a);
        assert_eq!(a.vols[0].drain_cursor, None, "volatile allocator context");
        mount_auto(&mut a, &image);
        assert_eq!(a.vols[0].active_aa, Some(aa));
        assert_eq!(a.vols[0].drain_cursor, None, "the cursor is not persisted");
        let s = overwrite_cp(&mut a, 0, 30_000..30_500);
        assert_eq!((s.cursor_hits, s.cursor_misses), (0, 1));
        assert_eq!(s.vol_picks, 0);
        // Walked from the AA's first VBN: at least the prefix the lost
        // cursor used to skip is examined again.
        let first = a.vols[0].topology.aa_vbn_ranges(aa)[0].0;
        assert!(s.blocks_examined >= resume.get() - first.get());
    }

    #[test]
    fn a_hint_that_fails_a_check_is_dropped() {
        /// Allocate what is left of `aa`, as CPs after the image would.
        fn drain(t: &AaTopology, b: &mut Bitmap, aa: AaId) {
            for (start, len) in t.aa_vbn_ranges(aa) {
                b.claim_free_in_range(start, len, len, &mut Vec::new(), &mut Vec::new());
            }
        }
        // The heap group's and the volume's hint fail; the object-store
        // range's is good in all cases but the first.
        for case in ["out of range", "drained since the save"] {
            let mut a = mid_aa_agg();
            let mut image = save_topaa(&a);
            let (g_aa, v_aa) = (a.groups[0].active_aa.unwrap(), a.vols[0].active_aa.unwrap());
            crash(&mut a);
            match case {
                "out of range" => {
                    image.rg_active[0] = Some(AaId(a.groups[0].topology.aa_count()));
                    image.rg_active[1] = Some(AaId(u32::MAX));
                    image.vol_active[0] = Some(AaId(a.vols[0].topology.aa_count()));
                }
                _ => {
                    drain(&a.groups[0].topology, &mut a.bitmap, g_aa);
                    let v = &mut a.vols[0];
                    drain(&v.topology, &mut v.bitmap, v_aa);
                }
            }
            let stats = mount_auto(&mut a, &image);
            assert!(stats.degraded.is_empty(), "{case}: {:?}", stats.degraded);
            let kept = u64::from(case != "out of range");
            assert_eq!(resume_counters(&a), (kept, 3 - kept), "{case}");
            assert_eq!(a.groups[0].active_aa, None, "{case}");
            assert_eq!(a.vols[0].active_aa, None, "{case}");
            assert_eq!(a.groups[1].active_aa.is_some(), kept == 1, "{case}");
            // Dropping costs a pick, nothing else.
            let s = overwrite_cp(&mut a, 0, 30_000..30_500);
            assert_eq!(s.blocks_written, 500, "{case}");
            assert!(s.agg_picks >= 1 && s.vol_picks >= 1, "{case}");
            complete_background_rebuild(&mut a).unwrap();
            assert_ranked_xor_active(&a, case);
        }
    }

    #[test]
    fn a_resealed_hbps_image_that_breaks_an_invariant_degrades_that_structure() {
        // Re-seal after each scribble so the CRC passes and only the
        // structural checks can catch the damage.
        fn scribble(page: &mut [u8; BLOCK_SIZE], at: usize, value: u32) {
            page[at..at + 4].copy_from_slice(&value.to_le_bytes());
            wafl_types::crc64::seal_page(page);
        }
        let mut a = mid_aa_agg();
        let saved = save_topaa(&a);
        let (g, v) = (&a.groups[1].topology, &a.vols[0].topology);
        let (g_aas, g_max, v_aas) = (g.aa_count(), g.max_score(), v.aa_count());
        for reason in ["twice", "beyond the range", "does not match topology"] {
            let mut image = saved.clone();
            let Some(RgTopAa::Hbps(hist, list)) = &mut image.rg_blocks[1] else {
                unreachable!("the object-store range ranks by HBPS")
            };
            let parts: &[DegradedPart] = match reason {
                "twice" => {
                    let first = u32::from_le_bytes(list[..4].try_into().unwrap());
                    scribble(list, 4, first);
                    &[DegradedPart::Group(1)]
                }
                "beyond the range" => {
                    scribble(list, 0, g_aas);
                    let (_, list) = image.vol_pages[0].as_mut().unwrap();
                    scribble(list, 0, v_aas);
                    &[DegradedPart::Group(1), DegradedPart::Volume(0)]
                }
                _ => {
                    scribble(hist, 8, 2 * g_max); // another score space
                    &[DegradedPart::Group(1)]
                }
            };
            crash(&mut a);
            let stats = mount_auto(&mut a, &image);
            let got: Vec<_> = stats.degraded.iter().map(|d| d.part).collect();
            assert_eq!(got, parts, "{reason}");
            for d in &stats.degraded {
                assert!(d.reason.contains(reason), "{reason}: {}", d.reason);
            }
            assert!(crate::iron::check(&a).unwrap().is_clean(), "{reason}");
        }
    }

    /// The background rebuild settled every cache a degraded mount
    /// fenced: the aggregate is healthy, and the next CP allocates
    /// from the caches instead of sweeping the bitmap.
    fn assert_rebuild_released_the_caches(a: &mut Aggregate) {
        assert!(a.groups.iter().all(|g| !g.cache_quarantined));
        assert!(a.vols.iter().all(|v| !v.cache_quarantined));
        assert_eq!(a.health(), crate::scrub::HealthState::Healthy);
        let sweeps = |a: &Aggregate| {
            a.obs()
                .counter_value("allocator.sweep_fallback_picks")
                .unwrap()
        };
        let before = sweeps(a);
        let s = overwrite_cp(a, 0, 30_000..30_500);
        assert_eq!(s.blocks_written, 500);
        assert_eq!(sweeps(a), before, "a released cache is swept past");
    }

    #[test]
    fn a_structure_the_image_does_not_cover_resumes_nothing() {
        // Missing pages: the structure degrades to a cold rebuild, whose
        // cache ranks every AA — none may be active beside it.
        let mut a = mid_aa_agg();
        let before = actives(&a);
        let mut image = save_topaa(&a);
        image.rg_blocks[0] = None;
        image.vol_pages[0] = None;
        crash(&mut a);
        let stats = mount_auto(&mut a, &image);
        assert_eq!(stats.degraded.len(), 2);
        assert_eq!(actives(&a), (vec![None, before.0[1]], vec![None]));
        assert!(a.groups[0].cache_quarantined && a.vols[0].cache_quarantined);
        assert_eq!(resume_counters(&a), (1, 2));
        complete_background_rebuild(&mut a).unwrap();
        assert_ranked_xor_active(&a, "degraded group");
        assert_rebuild_released_the_caches(&mut a);

        // The same for an object-store range, whose cache is an HBPS.
        let mut a = mid_aa_agg();
        let before = actives(&a);
        let mut image = save_topaa(&a);
        image.rg_blocks[1] = None;
        crash(&mut a);
        let stats = mount_auto(&mut a, &image);
        assert_eq!(stats.degraded.len(), 1);
        assert_eq!(actives(&a), (vec![before.0[0], None], before.1));
        assert!(a.groups[1].cache_quarantined);
        complete_background_rebuild(&mut a).unwrap();
        assert_rebuild_released_the_caches(&mut a);

        // An image older than a structure: the group added after the save
        // has neither pages nor a hint in it.
        let mut a = mid_aa_agg();
        let before = actives(&a);
        let mut image = save_topaa(&a);
        a.add_raid_group(RaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 16 * 4096,
            profile: MediaProfile::hdd(),
        })
        .unwrap();
        // ... and, as if the volume had been too, one without its entry.
        image.vol_pages.pop();
        image.vol_active.pop();
        crash(&mut a);
        let stats = mount_auto(&mut a, &image);
        let parts: Vec<_> = stats.degraded.iter().map(|d| d.part).collect();
        assert_eq!(parts, [DegradedPart::Group(2), DegradedPart::Volume(0)]);
        assert_eq!(
            actives(&a),
            (vec![before.0[0], before.0[1], None], vec![None])
        );
        assert_eq!(resume_counters(&a), (2, 0));
        let s = overwrite_cp(&mut a, 0, 30_000..30_500);
        assert_eq!(s.blocks_written, 500);
    }

    /// With scrub off and no call to the background rebuild, a degraded
    /// mount's tickets still settle: the CPs stop sweeping the bitmap
    /// once the first ticket is due, and health returns to Healthy.
    #[test]
    fn a_degraded_mount_recovers_with_scrub_off() {
        let mut a = mid_aa_agg();
        assert!(!a.scrub.due(), "scrub is off");
        let mut image = save_topaa(&a);
        image.rg_blocks[0] = None;
        image.vol_pages[0] = None;
        crash(&mut a);
        assert_eq!(mount_auto(&mut a, &image).degraded.len(), 2);
        assert_eq!(a.health(), crate::scrub::HealthState::Degraded(2));
        let sweeps = |a: &Aggregate| {
            a.obs()
                .counter_value("allocator.sweep_fallback_picks")
                .unwrap()
        };
        let due = RetryPolicy::default().backoff_cps(0) + 1;
        let mut logical = 30_000;
        let mut cp = |a: &mut Aggregate| {
            overwrite_cp(a, 0, logical..logical + 500);
            logical += 500;
        };
        for _ in 0..due {
            cp(&mut a);
        }
        let settled = sweeps(&a);
        for _ in 0..4 {
            cp(&mut a);
        }
        assert_eq!(sweeps(&a), settled, "a settled cache is swept past");
        assert!(a.groups.iter().all(|g| !g.cache_quarantined));
        assert!(a.vols.iter().all(|v| !v.cache_quarantined));
        assert_eq!(a.health(), crate::scrub::HealthState::Healthy);
        assert!(crate::iron::check(&a).unwrap().is_clean());
    }

    #[test]
    fn cp_with_cacheless_volume_falls_back_instead_of_panicking() {
        // Regression: a volume running cache-guided without its HBPS
        // (traffic admitted against a degraded structure) used to panic in
        // `allocate_vvbns`. It must take the linear-sweep fallback.
        let mut a = aged_agg(1);
        a.vols[0].cache = None;
        a.vols[0].active_aa = None;
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, 500);
        assert!(
            a.obs()
                .counter_value("allocator.sweep_fallback_picks")
                .unwrap()
                >= 1,
            "sweep fallback must be visible in the metrics"
        );
    }

    #[test]
    fn mount_paths_record_metrics() {
        let mut a = aged_agg(1);
        let image = save_topaa(&a);
        crash(&mut a);
        mount_with_topaa(&mut a, &image).unwrap();
        assert_eq!(a.obs().counter_value("mount.topaa_seed_hits"), Some(2));
        crash(&mut a);
        mount_cold(&mut a).unwrap();
        assert_eq!(a.obs().counter_value("mount.cold_scan_pages"), Some(16 + 8));
    }

    #[test]
    fn seeded_and_cold_mounts_agree_on_best_aas() {
        let mut a = aged_agg(1);
        let image = save_topaa(&a);
        let best_before = a.groups()[0].cache().unwrap().best().unwrap();
        crash(&mut a);
        mount_with_topaa(&mut a, &image).unwrap();
        let best_seeded = a.groups()[0].cache().unwrap().best().unwrap();
        assert_eq!(best_before, best_seeded, "seed preserves the best AA");
        crash(&mut a);
        mount_cold(&mut a).unwrap();
        let best_cold = a.groups()[0].cache().unwrap().best().unwrap();
        assert_eq!(best_before.1, best_cold.1, "cold rebuild agrees on score");
    }
}
