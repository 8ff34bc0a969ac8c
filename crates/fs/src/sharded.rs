//! Sharded multi-threaded write allocation (the CP front end).
//!
//! The paper's allocation areas are not just a search optimization — they
//! are a natural *sharding* unit. An AA is drained by exactly one writer
//! at a time ("the write allocator picks an AA and then assigns all free
//! VBNs from the AA in sequential order", §3.1), so handing *disjoint*
//! write-order work to N worker shards lets every shard run the existing
//! per-AA drain (cursor walk + bulk runs) with **no shared state on the
//! per-block path**: the bitmap is a read-only snapshot during planning,
//! and each shard appends to its own plan.
//!
//! The plan preserves the legacy planner's *rank-order* drain discipline,
//! which is what keeps CP writes dense (§2.3–2.4): the best-ranked AAs
//! are claimed off the TopAA heap until their exact free counts cover the
//! quota — usually one or two AAs — and only *their* write-order ranges
//! are handed out. The block set allocated is exactly the write-order
//! prefix the single-threaded planner would take; what shards change is
//! who walks which slice of it.
//!
//! The shared structure is the group's TopAA ranking plus the per-shard
//! lease queues, wrapped in a [`LeaseManager`]:
//!
//! * **claim** — before the fan-out, the next-best non-quarantined AAs
//!   are popped until quota coverage. Heap scores are exact free counts
//!   and the bitmap is a snapshot, so coverage is exact, not a guess.
//! * **lease** — the claimed AAs' write ranges (tagged with per-range
//!   free counts) are sliced into `shards` contiguous chunks of
//!   near-equal free count and queued per shard as [`RangeLease`]s: AA-
//!   granular when the ranking is deep, range-granular slices of the top
//!   AA when one AA covers the whole quota. A shard touches the mutex
//!   once per lease (many thousand blocks), never per block.
//! * **steal** — a shard whose queue ran dry takes the last-queued lease
//!   of the most-loaded sibling, so one slow shard cannot strand planned
//!   work another could drain.
//! * **return** — fully drained AAs re-rank at the CP boundary with
//!   their post-CP scores, exactly like the legacy planner's drained-AA
//!   reinsertion; the AA that was mid-drain when the quota was met stays
//!   the group's active cursor for the next CP (also exactly like the
//!   legacy planner). Quarantined AAs are never claimed.
//!
//! Each lease carries its global write-order sequence number, and the
//! merge splices shard results back in sequence order — so the plan's
//! VBN stream is *bit-identical* to the legacy planner's rank-order
//! drain at every shard count, no matter how leases were scheduled or
//! stolen. Only wall-clock time depends on scheduling; allocation state
//! never does (tested below down to the f64 media costs).

use crate::aggregate::{GroupCache, RaidGroupState};
use crate::allocator::{
    drain_ranges, plan_raid_group, popcount_score, AllocOutcome, AllocatorMode,
};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;
use wafl_bitmap::Bitmap;
use wafl_core::RaidAwareCache;
use wafl_obs::trace::{TraceData, Tracer};
use wafl_types::{AaId, AaScore, Vbn, WaflResult};

/// Per-shard lease traffic from one plan call, for the
/// `allocator.shard.{i}.*` counters.
#[derive(Debug, Default, Clone)]
pub struct ShardStats {
    /// Leases consumed per shard (own queue + stolen).
    pub leases: Vec<u64>,
    /// Leases stolen from a sibling's queue per shard.
    pub steals: Vec<u64>,
}

impl ShardStats {
    fn new(shards: usize) -> ShardStats {
        ShardStats {
            leases: vec![0; shards],
            steals: vec![0; shards],
        }
    }

    /// Accumulate another plan call's traffic (per-CP totals span groups).
    pub fn accumulate(&mut self, other: &ShardStats) {
        if self.leases.len() < other.leases.len() {
            self.leases.resize(other.leases.len(), 0);
            self.steals.resize(other.steals.len(), 0);
        }
        for (a, b) in self.leases.iter_mut().zip(&other.leases) {
            *a += b;
        }
        for (a, b) in self.steals.iter_mut().zip(&other.steals) {
            *a += b;
        }
    }
}

/// One unit of leased work: a batch of write-order ranges within a single
/// AA, with the exact number of free blocks the holder must take from
/// them. Takes are exact because the ranges were counted against the CP's
/// read-only bitmap snapshot.
#[derive(Debug, Clone)]
pub(crate) struct RangeLease {
    /// Global write-order position of this lease within the plan. The
    /// merge reassembles shard results in `seq` order, so the plan's VBN
    /// sequence is the legacy planner's write order no matter which shard
    /// drained (or stole) which lease.
    pub(crate) seq: usize,
    pub(crate) aa: AaId,
    pub(crate) ranges: Vec<(Vbn, u64)>,
    pub(crate) take: u64,
}

/// The shared lease source: the group's TopAA heap plus the per-shard
/// lease queues. All access is under one mutex, taken once per lease.
struct LeaseState<'a> {
    cache: &'a mut RaidAwareCache,
    quarantined: &'a BTreeSet<AaId>,
    /// Pre-assigned leases per shard, front = next to drain.
    pending: Vec<VecDeque<RangeLease>>,
    stats: ShardStats,
    /// AAs claimed from the heap with score 0 (ranking exhausted): they
    /// re-enter the heap at the CP boundary like every claimed AA.
    exhausted: Vec<AaId>,
}

/// Mutex-wrapped [`LeaseState`]; see the module docs for the protocol.
pub(crate) struct LeaseManager<'a> {
    state: Mutex<LeaseState<'a>>,
}

impl<'a> LeaseManager<'a> {
    fn new(
        cache: &'a mut RaidAwareCache,
        quarantined: &'a BTreeSet<AaId>,
        shards: usize,
    ) -> LeaseManager<'a> {
        LeaseManager {
            state: Mutex::new(LeaseState {
                cache,
                quarantined,
                pending: vec![VecDeque::new(); shards],
                stats: ShardStats::new(shards),
                exhausted: Vec::new(),
            }),
        }
    }

    /// Claim the group's next-best non-quarantined AA straight off the
    /// heap. `None` when the ranking is dry (including "best is empty").
    fn take_ranked(state: &mut LeaseState<'_>) -> WaflResult<Option<(AaId, AaScore)>> {
        // Quarantined AAs are set aside while claiming and always put
        // back: they must neither be leased nor leak out of the heap.
        let mut set_aside: Vec<(AaId, AaScore)> = Vec::new();
        let claimed = loop {
            match state.cache.take_best() {
                Some((aa, score)) if state.quarantined.contains(&aa) => {
                    set_aside.push((aa, score));
                }
                other => break other,
            }
        };
        for (aa, score) in set_aside {
            state.cache.insert(aa, score)?;
        }
        match claimed {
            Some((aa, score)) if score.get() > 0 => Ok(Some((aa, score))),
            Some((aa, _)) => {
                state.exhausted.push(aa);
                Ok(None)
            }
            None => Ok(None),
        }
    }

    /// Next lease for `shard`: its own queue first, then a steal of the
    /// most-loaded sibling's last-queued lease. `None` when every queue
    /// is empty — the plan's work is fully handed out. The flag reports
    /// whether the grant was a steal (for the flight recorder; the
    /// counters aggregate the same fact).
    fn lease(&self, shard: usize) -> Option<(RangeLease, bool)> {
        let mut state = self.state.lock().expect("lease manager poisoned");
        if let Some(lease) = state.pending[shard].pop_front() {
            state.stats.leases[shard] += 1;
            return Some((lease, false));
        }
        let victim = (0..state.pending.len()).max_by_key(|&i| state.pending[i].len());
        if let Some(v) = victim {
            // Steal the sibling's *last*-queued lease: its front is what
            // it will drain next.
            if let Some(lease) = state.pending[v].pop_back() {
                state.stats.leases[shard] += 1;
                state.stats.steals[shard] += 1;
                return Some((lease, true));
            }
        }
        None
    }

    /// Tear down, returning unconsumed leases, heap-exhausted AAs, and
    /// the lease/steal counters.
    fn into_parts(self) -> (Vec<RangeLease>, Vec<AaId>, ShardStats) {
        let state = self.state.into_inner().expect("lease manager poisoned");
        let leftover: Vec<RangeLease> = state.pending.into_iter().flatten().collect();
        (leftover, state.exhausted, state.stats)
    }
}

/// One shard's share of a group plan.
struct ShardPlan {
    out: AllocOutcome,
    /// One entry per drained lease, in this shard's drain order.
    segments: Vec<LeaseSegment>,
}

/// Where one lease's results sit inside its shard's [`AllocOutcome`],
/// plus what the merge needs to replay them in global write order.
struct LeaseSegment {
    seq: usize,
    aa: AaId,
    taken: u32,
    vbn_lo: usize,
    run_lo: usize,
}

/// One claimed AA's write-order range tagged with its exact free count
/// against the plan's bitmap snapshot.
struct RangeJob {
    aa: AaId,
    start: Vbn,
    len: u64,
    free: u64,
}

/// Plan `quota` physical allocations from one RAID group across
/// `shards` worker shards. Falls back to the single-threaded
/// [`plan_raid_group`] whenever sharding does not apply: one shard,
/// random-AA mode, a quarantined or missing cache, or an HBPS-cached
/// range (its probabilistic ranking hands out *bounds*, not exact
/// scores, so leases cannot be sized without re-ranking — such ranges
/// shard at volume granularity instead).
///
/// Reads the shared physical bitmap snapshot; mutates only group-local
/// state. The returned VBNs/runs are applied to the bitmap afterwards
/// (see [`wafl_bitmap::Bitmap::mutate_runs_partitioned`]).
///
/// With a live `tracer`, every lease grant is journaled as an event on
/// its shard's track (tagged `cp`) and each worker's drain as a span —
/// the raw material for the trace-report utilization and steal-rate
/// numbers.
#[allow(clippy::too_many_arguments)] // internal call site; a ctx struct would just rename the list
pub(crate) fn plan_raid_group_sharded(
    g: &mut RaidGroupState,
    bitmap: &Bitmap,
    quota: usize,
    mode: AllocatorMode,
    seed: u64,
    pick_audit_sample: u32,
    shards: usize,
    tracer: Option<&Tracer>,
    cp: u64,
) -> WaflResult<(AllocOutcome, ShardStats)> {
    let shardable = shards > 1
        && mode == AllocatorMode::CacheGuided
        && !g.cache_quarantined
        && matches!(g.cache, Some(GroupCache::Heap(_)));
    if !shardable {
        let out = plan_raid_group(g, bitmap, quota, mode, seed, pick_audit_sample)?;
        return Ok((out, ShardStats::new(shards.max(1))));
    }
    let Some(GroupCache::Heap(cache)) = g.cache.as_mut() else {
        unreachable!("shardable checked Heap");
    };

    let mut out = AllocOutcome::default();
    // The cross-CP active AA joins the claim order first (best position)
    // without counting as a pick: it was recorded the CP it was claimed.
    // A quarantined active AA goes back to the heap instead, popcount-
    // scored, exactly like the legacy planner.
    let mut carried_over: Option<AaId> = None;
    if let Some(aa) = g.active_aa.take() {
        if g.quarantined_aas.contains(&aa) {
            let score = popcount_score(&g.topology, bitmap, aa);
            if !cache.contains(aa) {
                cache.insert(aa, AaScore(score))?;
            }
        } else {
            carried_over = Some(aa);
        }
    }

    let topology = &g.topology;
    let mgr = LeaseManager::new(cache, &g.quarantined_aas, shards);

    // ---- claim: pop best AAs until quota coverage --------------------
    // Exactly the AAs the legacy planner would drain this CP, in the same
    // rank order. Each claimed AA's write ranges are tagged with their
    // exact free counts (against the snapshot) so the slicing below can
    // hand out precisely `quota` blocks; tagging stops as soon as the
    // quota is covered — an AA's untagged tail simply stays free.
    let mut jobs: Vec<RangeJob> = Vec::new();
    let mut covered = 0u64;
    let mut claimed: Vec<AaId> = Vec::new();
    {
        let mut state = mgr.state.lock().expect("fresh manager");
        while covered < quota as u64 {
            let aa = match carried_over.take() {
                Some(aa) => aa,
                None => match LeaseManager::take_ranked(&mut state)? {
                    Some((aa, score)) => {
                        out.record_pick(aa, score);
                        aa
                    }
                    None => break, // ranking dry; the CP's shortfall pass takes over
                },
            };
            claimed.push(aa);
            for (start, len) in topology.aa_write_ranges(aa) {
                if covered >= quota as u64 {
                    break;
                }
                let free = u64::from(bitmap.free_count_range(start, len));
                if free == 0 {
                    continue;
                }
                covered += free;
                jobs.push(RangeJob {
                    aa,
                    start,
                    len,
                    free,
                });
            }
        }
    }

    // Active-AA semantics mirror the legacy planner exactly: when the
    // quota was met, the last claimed AA is mid-drain and stays the
    // group's active cursor for the next CP (it is *not* re-ranked);
    // every other claimed AA was fully drained and re-ranks at the CP
    // boundary with its post-batch score.
    let new_active = if covered >= quota as u64 {
        claimed.pop()
    } else {
        None
    };
    out.drained.extend(claimed);

    // ---- slice: contiguous chunks of near-equal free count -----------
    // Cut points land on range boundaries, so a chunk may overshoot its
    // even share by at most one range's free count; the final take is
    // clipped so the chunks sum to exactly `want`. Every lease groups one
    // chunk's consecutive same-AA ranges.
    let want = (quota as u64).min(covered);
    {
        let mut bounds: Vec<usize> = Vec::with_capacity(shards + 1);
        bounds.push(0);
        let mut ji = 0usize;
        let mut cum = 0u64;
        for shard in 0..shards {
            let target = want * (shard as u64 + 1) / shards as u64;
            while cum < target {
                cum += jobs[ji].free;
                ji += 1;
            }
            bounds.push(ji);
        }
        let mut state = mgr.state.lock().expect("fresh manager");
        let mut assigned = 0u64;
        let mut seq = 0usize;
        for shard in 0..shards {
            for group in jobs[bounds[shard]..bounds[shard + 1]].chunk_by(|a, b| a.aa == b.aa) {
                let free: u64 = group.iter().map(|j| j.free).sum();
                let take = free.min(want - assigned);
                if take == 0 {
                    break;
                }
                assigned += take;
                state.pending[shard].push_back(RangeLease {
                    seq,
                    aa: group[0].aa,
                    ranges: group.iter().map(|j| (j.start, j.len)).collect(),
                    take,
                });
                seq += 1;
            }
        }
        debug_assert_eq!(assigned, want, "chunk takes must sum to the quota");
    }

    // Fan the drain out. Each shard walks its leased ranges against the
    // read-only bitmap snapshot, so shard plans touch no shared memory
    // beyond the lease mutex (once per lease). Per-lease segment bounds
    // are kept so the merge can splice results back into `seq` order.
    let shard_plans: Vec<WaflResult<ShardPlan>> = {
        use rayon::prelude::*;
        (0..shards)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|shard| {
                let drain_t0 = tracer.map(|t| t.now_us());
                let mut plan = ShardPlan {
                    out: AllocOutcome::default(),
                    segments: Vec::new(),
                };
                while let Some((lease, stolen)) = mgr.lease(shard) {
                    if let Some(t) = tracer {
                        t.emit(
                            cp,
                            Some(shard as u32),
                            TraceData::Lease {
                                aa: lease.aa.0,
                                take: lease.take,
                                stolen,
                            },
                        );
                    }
                    let (vbn_lo, run_lo) = (plan.out.vbns.len(), plan.out.runs.len());
                    let quota_here = vbn_lo + lease.take as usize;
                    drain_ranges(&lease.ranges, bitmap, quota_here, &mut plan.out);
                    let taken = (plan.out.vbns.len() - vbn_lo) as u32;
                    debug_assert_eq!(
                        u64::from(taken),
                        lease.take,
                        "exact free counts on a snapshot"
                    );
                    plan.segments.push(LeaseSegment {
                        seq: lease.seq,
                        aa: lease.aa,
                        taken,
                        vbn_lo,
                        run_lo,
                    });
                }
                if let (Some(t), Some(t0)) = (tracer, drain_t0) {
                    // Real-timestamp worker span: the utilization signal
                    // is how long each shard actually spent draining
                    // within its CP, stolen leases included.
                    t.emit_at(
                        t0,
                        cp,
                        Some(shard as u32),
                        TraceData::Span {
                            name: "shard.drain",
                            dur_us: t.now_us() - t0,
                            model_us: 0.0,
                        },
                    );
                }
                Ok(plan)
            })
            .collect()
    };

    // Serial merge, in global write order: every lease's segment splices
    // back at its `seq` position, so the plan's VBN/run sequence — and
    // with it the logical->physical binding downstream — is identical to
    // the legacy planner's rank-order drain, independent of how leases
    // were scheduled or stolen across shards. Per-AA takes land in the
    // group's score-delta batch in the same order.
    let (leftover, exhausted, stats) = mgr.into_parts();
    debug_assert!(leftover.is_empty(), "shards consumed every lease");
    drop(leftover);
    let shard_plans = shard_plans.into_iter().collect::<WaflResult<Vec<_>>>()?;
    let mut ordered: Vec<(usize, &ShardPlan, usize)> = Vec::new();
    for plan in &shard_plans {
        out.blocks_examined += plan.out.blocks_examined;
        out.replenish_pages += plan.out.replenish_pages;
        out.cursor_hits += plan.out.cursor_hits;
        out.cursor_misses += plan.out.cursor_misses;
        out.sweep_picks += plan.out.sweep_picks;
        out.pick_errors.extend(plan.out.pick_errors.iter().cloned());
        for (i, seg) in plan.segments.iter().enumerate() {
            ordered.push((seg.seq, plan, i));
        }
    }
    ordered.sort_unstable_by_key(|&(seq, _, _)| seq);
    for &(_, plan, i) in &ordered {
        let seg = &plan.segments[i];
        let vbn_hi = plan
            .segments
            .get(i + 1)
            .map_or(plan.out.vbns.len(), |next| next.vbn_lo);
        let run_hi = plan
            .segments
            .get(i + 1)
            .map_or(plan.out.runs.len(), |next| next.run_lo);
        out.vbns
            .extend_from_slice(&plan.out.vbns[seg.vbn_lo..vbn_hi]);
        out.runs
            .extend_from_slice(&plan.out.runs[seg.run_lo..run_hi]);
        g.batch.record_allocated(seg.aa, seg.taken);
    }
    // Heap-exhausted claims re-rank at the CP boundary with the other
    // claimed AAs (same-CP frees may revive them).
    out.drained.extend(exhausted);
    g.active_aa = new_active;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;
    use wafl_types::VolumeId;

    fn agg(shards: usize) -> Aggregate {
        Aggregate::new(
            AggregateConfig {
                write_shards: shards,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 16 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                50_000,
            )],
            1,
        )
        .unwrap()
    }

    /// Drive one aggregate for `rounds` CPs of random overwrites and
    /// return a digest of the physical and virtual state: free counts
    /// plus the exact per-page physical layout.
    fn drive(mut agg: Aggregate, rounds: usize) -> (u64, u64, Vec<u16>) {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..rounds {
            for _ in 0..2000 {
                agg.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            agg.run_cp().unwrap();
        }
        let bm = agg.bitmap();
        (
            bm.free_blocks(),
            agg.volumes()[0].free_blocks(),
            bm.page_free_counts().to_vec(),
        )
    }

    /// [`drive`] for the sequential reference planner: same workload,
    /// same digest shape.
    fn drive_oracle(rounds: usize) -> (u64, u64, Vec<u16>) {
        use rand::prelude::*;
        let mut orc = wafl_oracle::OracleAggregate::new(
            &[wafl_oracle::OracleRaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
            }],
            &[(
                wafl_oracle::OracleVolSpec {
                    size_blocks: 8 * 32768,
                    aa_blocks: None,
                },
                50_000,
            )],
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..rounds {
            for _ in 0..2000 {
                orc.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            orc.run_cp().unwrap();
        }
        let bm = orc.bitmap();
        (
            bm.free_blocks(),
            orc.volumes()[0].free_blocks(),
            bm.page_free_counts().to_vec(),
        )
    }

    /// Build a LeaseManager with `n` single-range leases of `take` blocks
    /// each queued round-robin across `shards`.
    fn queued_manager<'a>(
        cache: &'a mut RaidAwareCache,
        quarantined: &'a BTreeSet<AaId>,
        shards: usize,
        n: usize,
        take: u64,
    ) -> LeaseManager<'a> {
        let mgr = LeaseManager::new(cache, quarantined, shards);
        {
            let mut st = mgr.state.lock().unwrap();
            for i in 0..n {
                st.pending[i % shards].push_back(RangeLease {
                    seq: i,
                    aa: AaId(i as u32),
                    ranges: vec![(Vbn(i as u64 * 1000), take)],
                    take,
                });
            }
        }
        mgr
    }

    #[test]
    fn sharded_plan_allocates_disjoint_blocks() {
        let mut a = agg(4);
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..6 {
            for _ in 0..3000 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
        // The run invariants (no double allocation, summary counters
        // exact) are enforced by the bitmap itself; reaching here without
        // a BitmapStateMismatch *is* the disjointness proof. Check space
        // accounting end-to-end on top.
        a.bitmap().verify_summary();
        let mapped = (0..50_000u64)
            .filter(|&l| a.volumes()[0].lookup_logical(l).is_some())
            .count() as u64;
        assert_eq!(
            a.bitmap().free_blocks() + mapped,
            a.bitmap().space_len(),
            "every live logical block occupies exactly one pvbn"
        );
    }

    #[test]
    fn shards_respect_quarantine() {
        let mut a = agg(4);
        // Quarantine a few physical AAs, then allocate heavily.
        {
            let g = &mut a.groups_mut()[0];
            g.quarantined_aas.insert(wafl_types::AaId(0));
            g.quarantined_aas.insert(wafl_types::AaId(1));
        }
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..4 {
            for _ in 0..2000 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
        let g = &a.groups()[0];
        for aa in [wafl_types::AaId(0), wafl_types::AaId(1)] {
            for &(start, len) in &g.topology().aa_vbn_ranges(aa) {
                assert_eq!(
                    a.bitmap().free_count_range(start, len) as u64,
                    len,
                    "quarantined AA {aa:?} must never be leased"
                );
            }
        }
    }

    #[test]
    fn one_shard_matches_oracle_state() {
        // The sharded pipeline at shards=1 must reproduce the sequential
        // reference planner's state bit for bit — one shard drains in
        // exact rank order, like the retired legacy pipeline the oracle
        // preserves.
        let (free_new, vfree_new, pages_new) = drive(agg(1), 8);
        let (free_old, vfree_old, pages_old) = drive_oracle(8);
        assert_eq!(free_new, free_old);
        assert_eq!(vfree_new, vfree_old);
        assert_eq!(pages_new, pages_old);
    }

    #[test]
    fn sharded_block_set_matches_oracle_rank_order_drain() {
        // Stronger than virtual-state parity: the sharded plan's *physical*
        // block set is the same rank-order write-order prefix the reference
        // planner drains, so even the per-page physical free counts match
        // block for block.
        let (_, _, pages_new) = drive(agg(4), 8);
        let (_, _, pages_old) = drive_oracle(8);
        assert_eq!(pages_new, pages_old);
    }

    #[test]
    fn run_based_costing_matches_per_block_costing() {
        // The sharded pipeline costs media from run intervals, the
        // reference planner from block lists. Same workload, same physical
        // block set (rank-order parity), so every per-group stat —
        // including the f64 media time — must be bit-identical.
        use rand::prelude::*;
        let mut a = agg(4);
        let mut b = wafl_oracle::OracleAggregate::new(
            &[wafl_oracle::OracleRaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
            }],
            &[(
                wafl_oracle::OracleVolSpec {
                    size_blocks: 8 * 32768,
                    aa_blocks: None,
                },
                50_000,
            )],
        )
        .unwrap();
        let mut ra = rand::rngs::StdRng::seed_from_u64(5);
        let mut rb = rand::rngs::StdRng::seed_from_u64(5);
        for round in 0..6 {
            for _ in 0..2500 {
                a.client_overwrite(VolumeId(0), ra.random_range(0..50_000))
                    .unwrap();
                b.client_overwrite(VolumeId(0), rb.random_range(0..50_000))
                    .unwrap();
            }
            let sa = a.run_cp().unwrap();
            let sb = b.run_cp().unwrap();
            assert_eq!(sa.per_rg.len(), sb.per_rg.len(), "round {round}");
            for (x, y) in sa.per_rg.iter().zip(&sb.per_rg) {
                assert_eq!(x.blocks, y.blocks, "round {round}");
                assert_eq!(x.tetrises, y.tetrises, "round {round}");
                assert_eq!(x.full_stripes, y.full_stripes, "round {round}");
                assert_eq!(x.partial_stripes, y.partial_stripes, "round {round}");
                assert_eq!(x.parity_reads, y.parity_reads, "round {round}");
                assert_eq!(x.parity_writes, y.parity_writes, "round {round}");
                assert_eq!(x.per_device_blocks, y.per_device_blocks, "round {round}");
                assert_eq!(x.per_device_chains, y.per_device_chains, "round {round}");
                assert_eq!(x.media_us.to_bits(), y.media_us.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn lease_manager_steals_when_own_queue_dry() {
        // Two queued leases, two shards; shard 0 consumes its own, then
        // steals shard 1's.
        let mut cache =
            RaidAwareCache::new_full(vec![AaScore(100), AaScore(90)], vec![32_768; 2]).unwrap();
        let quarantined = BTreeSet::new();
        let mgr = queued_manager(&mut cache, &quarantined, 2, 2, 10);
        let (_, stolen) = mgr.lease(0).expect("own queue");
        assert!(!stolen, "own-queue grant is not a steal");
        let (_, stolen) = mgr.lease(0).expect("steal from shard 1");
        assert!(stolen, "cross-queue grant reports the steal");
        assert!(mgr.lease(1).is_none(), "nothing left anywhere");
        let (leftover, _, stats) = mgr.into_parts();
        assert!(leftover.is_empty());
        assert_eq!(stats.leases, vec![2, 0]);
        assert_eq!(stats.steals, vec![1, 0]);
    }

    /// Pin the steal policy precisely, so the module docs, the metric
    /// semantics (`allocator.shard.{i}.steals`), and the code can't
    /// silently drift apart again: a shard whose *own* queue is dry takes
    /// the *last*-queued lease (`pop_back`) of the *most-loaded* sibling
    /// — ties resolved to the highest shard index (`max_by_key` keeps the
    /// last maximum) — and the steal is counted against the *stealer*.
    #[test]
    fn steal_policy_victim_order_and_attribution() {
        let mut cache = RaidAwareCache::new_full(vec![AaScore(100); 9], vec![32_768; 9]).unwrap();
        let quarantined = BTreeSet::new();
        // 9 leases round-robin over 3 shards: every queue holds seqs
        // {i, i+3, i+6} front-to-back.
        let mgr = queued_manager(&mut cache, &quarantined, 3, 9, 10);

        // Drain shard 0's own queue in FIFO order: 0, 3, 6.
        let own: Vec<usize> = (0..3).map(|_| mgr.lease(0).unwrap().0.seq).collect();
        assert_eq!(own, vec![0, 3, 6], "own queue drains front-first");

        // First steal: shards 1 and 2 both hold 3 leases — the tie goes
        // to the LAST maximal index (shard 2), and the victim loses its
        // last-queued lease (seq 8), not the seq-2 front it drains next.
        let (lease, stolen) = mgr.lease(0).unwrap();
        assert_eq!(lease.seq, 8, "tie → highest index, pop_back");
        assert!(stolen);
        // Now shard 1 (3 leases) is strictly more loaded than shard 2
        // (2 leases): steal its back (seq 7).
        let (lease, stolen) = mgr.lease(0).unwrap();
        assert_eq!(lease.seq, 7, "most-loaded victim, pop_back");
        assert!(stolen);

        // Victims still drain their own fronts untouched.
        assert_eq!(mgr.lease(1).unwrap().0.seq, 1);
        assert_eq!(mgr.lease(2).unwrap().0.seq, 2);

        let (leftover, _, stats) = mgr.into_parts();
        // Leases 4 and 5 remain queued (shard 1 and 2 backs).
        let left: Vec<usize> = leftover.iter().map(|l| l.seq).collect();
        assert_eq!(left, vec![4, 5]);
        // Every grant — own or stolen — counts as a lease for the shard
        // that received it; steals are attributed to the stealer only.
        assert_eq!(stats.leases, vec![5, 1, 1]);
        assert_eq!(stats.steals, vec![2, 0, 0]);
    }

    /// Contention stress for the lease handoff: real OS threads hammer
    /// one [`LeaseManager`] (loom is unavailable offline, so this relies
    /// on scheduler preemption plus `yield_now` to widen interleavings).
    /// Every queued lease must be granted exactly once across all
    /// threads, and the counters must add up.
    #[test]
    fn lease_handoff_survives_thread_contention() {
        const LEASES: usize = 64;
        const SHARDS: usize = 4;
        let scores: Vec<AaScore> = (0..LEASES).map(|i| AaScore(1 + i as u32)).collect();
        let mut cache = RaidAwareCache::new_full(scores, vec![32_768; LEASES]).unwrap();
        let quarantined = BTreeSet::new();
        let mgr = queued_manager(&mut cache, &quarantined, SHARDS, LEASES, 8);
        let granted: Vec<Vec<AaId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SHARDS)
                .map(|shard| {
                    let mgr = &mgr;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some((lease, _)) = mgr.lease(shard) {
                            got.push(lease.aa);
                            std::thread::yield_now();
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (leftover, exhausted, stats) = mgr.into_parts();
        assert!(leftover.is_empty(), "threads drained every queued lease");
        assert!(exhausted.is_empty(), "the ranking was never consulted");
        let mut all: Vec<AaId> = granted.iter().flatten().copied().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a lease was granted to two shards");
        assert_eq!(total, LEASES, "every queued lease granted exactly once");
        assert_eq!(stats.leases.iter().sum::<u64>() as usize, total);
        assert!(stats.steals.iter().sum::<u64>() <= stats.leases.iter().sum::<u64>());
    }

    #[test]
    fn quarantined_aas_never_claimed_off_the_ranking() {
        // take_ranked sets quarantined AAs aside and restores them: the
        // best clean AA is claimed, the quarantined better-ranked ones
        // stay ranked.
        let mut cache = RaidAwareCache::new_full(
            vec![AaScore(100), AaScore(90), AaScore(80)],
            vec![32_768; 3],
        )
        .unwrap();
        let quarantined: BTreeSet<AaId> = [AaId(0), AaId(1)].into_iter().collect();
        let mgr = LeaseManager::new(&mut cache, &quarantined, 2);
        {
            let mut st = mgr.state.lock().unwrap();
            let claimed = LeaseManager::take_ranked(&mut st).unwrap();
            assert_eq!(claimed.map(|(aa, _)| aa), Some(AaId(2)));
            assert!(LeaseManager::take_ranked(&mut st).unwrap().is_none());
        }
        drop(mgr);
        assert!(cache.contains(AaId(0)), "quarantined AAs stay ranked");
        assert!(cache.contains(AaId(1)));
    }

    #[test]
    fn shard_stats_accumulate_across_groups() {
        let mut a = ShardStats::new(2);
        a.leases = vec![1, 2];
        let mut b = ShardStats::new(4);
        b.leases = vec![10, 20, 30, 40];
        b.steals = vec![1, 0, 0, 1];
        a.accumulate(&b);
        assert_eq!(a.leases, vec![11, 22, 30, 40]);
        assert_eq!(a.steals, vec![1, 0, 0, 1]);
    }

    #[test]
    fn partial_drains_keep_the_active_cursor_like_legacy() {
        let mut a = agg(4);
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..3 {
            for _ in 0..1000 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
        // 1000 ops per CP never fill an AA, so the quota was met mid-AA:
        // that AA stays the group's active cursor (the legacy planner's
        // invariant), held *out* of the ranking until it drains dry.
        let g = &a.groups()[0];
        let aa = g.active_aa.expect("quota met mid-AA leaves a cursor");
        match g.cache.as_ref() {
            Some(GroupCache::Heap(cache)) => {
                assert!(!cache.contains(aa), "active cursor must be off the heap");
            }
            other => panic!("expected a heap cache, got {:?}", other.is_some()),
        }
    }

    #[test]
    fn bind_batch_owner_updates_survive_reads() {
        // End-to-end read-back through the sharded pipeline: data written
        // before a CP remains addressable after it.
        let mut a = agg(4);
        for l in 0..500u64 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        for l in (0..500u64).step_by(7) {
            let vvbn = a.volumes()[0].lookup_logical(l).expect("mapped");
            assert!(a.volumes()[0].lookup_vvbn(vvbn).is_some());
        }
    }
}
