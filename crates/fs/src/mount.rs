//! Unmount/mount with and without TopAA metafiles (§3.4).
//!
//! After a failover or reboot, write allocation cannot begin until an AA
//! can be selected, which requires operational AA caches. The slow path
//! walks every bitmap-metafile block; the fast path reads the fixed-size
//! TopAA metafile: one block per RAID-aware cache (512 best AAs) and two
//! blocks (the embedded HBPS pages) per RAID-agnostic cache. Figure 10
//! measures exactly this difference, and [`MountStats`] carries the
//! numbers the harness plots.

use crate::aggregate::{Aggregate, GroupCache};
use serde::{Deserialize, Serialize};
use wafl_core::{topaa, Hbps, RaidAgnosticCache, RaidAwareCache};
use wafl_faults::{FaultPlan, FaultSession, PageSel, ReadOutcome, StructureId};
use wafl_obs::trace::TraceData;
use wafl_types::{AaId, RetryPolicy, WaflError, WaflResult, BITS_PER_BITMAP_BLOCK, BLOCK_SIZE};

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
/// RAID group (two for HBPS-cached ranges) plus two per FlexVol.
#[derive(Clone)]
pub struct TopAaImage {
    /// Per-group cache image (index = RAID group).
    pub rg_blocks: Vec<Option<RgTopAa>>,
    /// Two 4 KiB blocks per volume cache (index = volume).
    pub vol_pages: Vec<Option<([u8; BLOCK_SIZE], [u8; BLOCK_SIZE])>>,
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

/// Serialize every cache's TopAA state — what WAFL persists at each CP so
/// a crash loses nothing (§3.4).
pub fn save_topaa(agg: &Aggregate) -> TopAaImage {
    TopAaImage {
        rg_blocks: agg
            .groups
            .iter()
            .map(|g| {
                g.cache.as_ref().map(|c| match c {
                    GroupCache::Heap(h) => RgTopAa::Heap(topaa::serialize_raid_aware(h)),
                    GroupCache::Hbps(h) => {
                        let (a, b) = h.to_pages();
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
    }
}

/// Simulate a crash/reboot: all in-memory AA caches, allocator context
/// (active AAs, device stream state), queued client operations, and
/// unapplied delayed frees are lost. Bitmaps, volume maps, snapshots, and
/// the delayed-free *log* — the persistent state — survive.
pub fn crash(agg: &mut Aggregate) {
    for g in agg.groups.iter_mut() {
        g.cache = None;
        g.active_aa = None;
        g.azcs_next.iter_mut().for_each(|n| *n = u64::MAX);
        g.quarantined_aas.clear();
        g.cache_quarantined = false;
    }
    for v in agg.vols.iter_mut() {
        v.cache = None;
        v.active_aa = None;
        v.quarantined_aas.clear();
        v.cache_quarantined = false;
    }
    // The scrubber's cursor, tickets, and health are volatile too: the
    // remount re-derives health from its own degradation events.
    agg.scrub.reset_volatile();
    agg.lose_volatile_state();
}

/// Fast mount: seed every cache from the TopAA image (§3.4). Reads a
/// fixed number of metafile blocks regardless of file-system size; the
/// max-heaps start partial and [`complete_background_rebuild`] finishes
/// them later.
pub fn mount_with_topaa(agg: &mut Aggregate, image: &TopAaImage) -> WaflResult<MountStats> {
    let t0 = agg.obs.trace_now_us();
    let cpu = agg.config().cpu;
    let mut blocks_read = 0u64;
    let mut seed_hits = 0u64;
    let mut partial_heap_seeded = false;
    for (i, block) in image.rg_blocks.iter().enumerate() {
        let g = &mut agg.groups[i];
        match block {
            Some(RgTopAa::Heap(block)) => {
                blocks_read += 1;
                let entries = topaa::deserialize_raid_aware(block)?;
                let max: Vec<u32> = (0..g.topology.aa_count())
                    .map(|a| g.topology.aa_blocks(AaId(a)) as u32)
                    .collect();
                let seeded = RaidAwareCache::seeded(max, &entries)?;
                partial_heap_seeded |= !seeded.is_complete();
                g.cache = Some(GroupCache::Heap(seeded));
                seed_hits += 1;
            }
            Some(RgTopAa::Hbps(hist, list)) => {
                blocks_read += 2;
                // HBPS restores complete — like a volume cache.
                g.cache = Some(GroupCache::Hbps(Box::new(Hbps::from_pages(hist, list)?)));
                seed_hits += 1;
            }
            None => {}
        }
    }
    for (i, pages) in image.vol_pages.iter().enumerate() {
        let Some((hist, list)) = pages else { continue };
        blocks_read += 2;
        let v = &mut agg.vols[i];
        v.cache = Some(RaidAgnosticCache::from_topaa(
            v.topology.clone(),
            hist,
            list,
        )?);
        seed_hits += 1;
        // HBPS restores complete — no background debt for volumes.
    }
    agg.obs.mount_seed_hits.inc(seed_hits);
    let stats = MountStats {
        metafile_blocks_read: blocks_read,
        first_cp_ready_us: blocks_read as f64 * (cpu.us_per_metafile_read + cpu.us_per_scan_page),
        // The background walk owes a pass over the physical bitmap only
        // when a partial heap seed was actually installed; an all-HBPS
        // (or seed-covers-everything) mount restores complete.
        background_pages_remaining: if partial_heap_seeded {
            agg.bitmap.page_count() as u64
        } else {
            0
        },
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
    let mut seed_hits = 0u64;
    let mut partial_heap_seeded = false;

    let want_group_caches = agg.config().raid_aware_cache;
    for i in 0..agg.groups.len() {
        if !want_group_caches {
            continue;
        }
        let (read, retries) = faulted_read(faults, StructureId::Group(i), retry);
        stats.transient_retries += retries as u64;
        let seeded = read.and_then(|()| match image.rg_blocks.get(i).and_then(Option::as_ref) {
            Some(RgTopAa::Heap(block)) => {
                stats.metafile_blocks_read += 1;
                let entries = topaa::deserialize_raid_aware(block)?;
                let g = &mut agg.groups[i];
                let max: Vec<u32> = (0..g.topology.aa_count())
                    .map(|a| g.topology.aa_blocks(AaId(a)) as u32)
                    .collect();
                let cache = RaidAwareCache::seeded(max, &entries)?;
                partial_heap_seeded |= !cache.is_complete();
                g.cache = Some(GroupCache::Heap(cache));
                seed_hits += 1;
                Ok(())
            }
            Some(RgTopAa::Hbps(hist, list)) => {
                stats.metafile_blocks_read += 2;
                agg.groups[i].cache =
                    Some(GroupCache::Hbps(Box::new(Hbps::from_pages(hist, list)?)));
                seed_hits += 1;
                Ok(())
            }
            None => Err(WaflError::CorruptMetafile {
                reason: "TopAA image missing for this group".into(),
            }),
        });
        if let Err(e) = seeded {
            // Per-structure degradation: recompute this group's cache
            // from the authoritative bitmap (§3.4's fallback), leaving
            // every other structure on the fast path.
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
            // A degraded-at-mount structure starts quarantined: its cold-
            // rebuilt cache is trusted only after the first clean scrub
            // pass over it (or `complete_background_rebuild`) releases it.
            agg.groups[i].cache_quarantined = true;
        }
    }

    for i in 0..agg.vols.len() {
        if !agg.vols[i].config().aa_cache {
            continue;
        }
        let (read, retries) = faulted_read(faults, StructureId::Volume(i), retry);
        stats.transient_retries += retries as u64;
        let seeded = read.and_then(|()| match image.vol_pages.get(i).and_then(Option::as_ref) {
            Some((hist, list)) => {
                stats.metafile_blocks_read += 2;
                let v = &mut agg.vols[i];
                v.cache = Some(RaidAgnosticCache::from_topaa(
                    v.topology.clone(),
                    hist,
                    list,
                )?);
                seed_hits += 1;
                Ok(())
            }
            None => Err(WaflError::CorruptMetafile {
                reason: "TopAA image missing for this volume".into(),
            }),
        });
        if let Err(e) = seeded {
            let v = &mut agg.vols[i];
            v.cache = Some(
                RaidAgnosticCache::build(v.topology.clone(), &v.bitmap)
                    .expect("cold cache rebuild from the authoritative bitmap"),
            );
            let pages = v.bitmap.page_count() as u64;
            stats.metafile_blocks_read += pages;
            stats.degraded.push(DegradationEvent {
                part: DegradedPart::Volume(i),
                reason: e.to_string(),
                pages_scanned: pages,
            });
            agg.vols[i].cache_quarantined = true;
        }
    }

    stats.first_cp_ready_us =
        stats.metafile_blocks_read as f64 * (cpu.us_per_metafile_read + cpu.us_per_scan_page);
    stats.background_pages_remaining = if partial_heap_seeded {
        agg.bitmap.page_count() as u64
    } else {
        0
    };
    agg.obs.mount_seed_hits.inc(seed_hits);
    agg.obs.mount_degradations.inc(stats.degraded.len() as u64);
    agg.obs
        .mount_cold_pages
        .inc(stats.degraded.iter().map(|d| d.pages_scanned).sum());
    agg.obs.mount_retries.inc(stats.transient_retries);
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
        v.cache = Some(RaidAgnosticCache::build(v.topology.clone(), &v.bitmap)?);
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
/// RAID-aware max-heap with authoritative scores. Returns the pages
/// scanned (its cost runs behind client traffic, not in front of it).
/// The *modelled* cost stays a full metafile walk — the paper's §3.4
/// I/O — but the in-memory recomputation is summary-driven: each AA's
/// score comes from the free-count counters, not a popcount over raw
/// bits, so the rebuild no longer competes with client CPs for CPU.
pub fn complete_background_rebuild(agg: &mut Aggregate) -> WaflResult<u64> {
    let bitmap = &agg.bitmap;
    let mut scanned = 0u64;
    let mut released = false;
    for g in agg.groups.iter_mut() {
        let Some(GroupCache::Heap(cache)) = g.cache.as_mut() else {
            continue; // HBPS ranges restore complete from their two pages
        };
        // Complete and trusted: nothing to do. A quarantined heap is
        // recomputed even when complete (a degraded mount cold-rebuilt
        // it, but only an authoritative pass lifts the quarantine).
        if cache.is_complete() && !g.cache_quarantined {
            continue;
        }
        let scores = g.topology.all_scores(bitmap);
        cache.absorb_rebuild(&scores)?;
        scanned += bitmap.page_count() as u64;
        // The heap now carries authoritative scores for every AA: a
        // mount-time structure quarantine on this group is settled.
        if g.cache_quarantined {
            g.cache_quarantined = false;
            released = true;
        }
    }
    if released {
        crate::scrub::refresh_health(agg);
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

    #[test]
    fn seeded_mount_can_run_cps_then_rebuild() {
        let mut a = aged_agg(1);
        let image = save_topaa(&a);
        crash(&mut a);
        mount_with_topaa(&mut a, &image).unwrap();
        // Client traffic works on the seeded caches.
        for l in 0..2000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, 2000);
        // Background rebuild completes the heap.
        let scanned = complete_background_rebuild(&mut a).unwrap();
        assert!(scanned > 0);
        assert!(a.groups()[0].cache().unwrap().is_complete());
        // Idempotent.
        assert_eq!(complete_background_rebuild(&mut a).unwrap(), 0);
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
