//! Classification of one consistency point's writes to a RAID group.

use crate::geometry::RaidGeometry;
use serde::{Deserialize, Serialize};
use wafl_types::{Vbn, WaflResult, TETRIS_STRIPES};

/// What one CP's writes to a RAID group cost, in RAID terms.
///
/// Produced by [`analyze_cp_write`]. The media layer turns the I/O counts
/// into time; the harness reports `tetrises` and per-device blocks for
/// Figure 7 and uses full/partial stripe ratios everywhere latency is
/// modelled.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CpWriteAnalysis {
    /// Data blocks written.
    pub data_blocks: u64,
    /// Stripes with every data block written — parity computed with no
    /// reads (§2.3).
    pub full_stripes: u64,
    /// Stripes with only some data blocks written.
    pub partial_stripes: u64,
    /// Parity blocks written: `(full + partial) * parity_devices`.
    pub parity_writes: u64,
    /// Blocks read to compute parity for partial stripes. Per stripe WAFL's
    /// RAID layer picks the cheaper of read-modify-write (read the old data
    /// plus old parity of the written blocks) and reconstruct-write (read
    /// the unwritten data blocks).
    pub parity_reads: u64,
    /// Tetrises (64-stripe RAID I/O units) that contained at least one
    /// written stripe.
    pub tetrises: u64,
    /// Data blocks written per device, indexed by data-device id.
    pub per_device_blocks: Vec<u64>,
    /// Number of contiguous write chains per device (a chain is a maximal
    /// run of consecutive DBNs written on one device, §2.4 — fewer chains
    /// for the same block count means longer sequential writes).
    pub per_device_chains: Vec<u64>,
}

impl CpWriteAnalysis {
    /// Fraction of written stripes that were full.
    pub fn full_stripe_fraction(&self) -> f64 {
        let total = self.full_stripes + self.partial_stripes;
        if total == 0 {
            0.0
        } else {
            self.full_stripes as f64 / total as f64
        }
    }

    /// Mean write-chain length across devices (blocks per chain).
    pub fn mean_chain_len(&self) -> f64 {
        let chains: u64 = self.per_device_chains.iter().sum();
        if chains == 0 {
            0.0
        } else {
            self.data_blocks as f64 / chains as f64
        }
    }

    /// Total device I/O operations implied: one per chain per device plus
    /// parity traffic (reads and writes are both I/Os). A coarse but
    /// monotone proxy used by the HDD cost model.
    pub fn device_ios(&self) -> u64 {
        let chain_ios: u64 = self.per_device_chains.iter().sum();
        chain_ios + self.parity_writes + self.parity_reads
    }
}

/// Analyze the set of PVBNs one CP writes to `geometry`'s group.
///
/// `blocks` need not be sorted; duplicates are an error upstream (a VBN is
/// allocated once per CP) and are debug-asserted here.
pub fn analyze_cp_write(geometry: &RaidGeometry, blocks: &[Vbn]) -> WaflResult<CpWriteAnalysis> {
    let d = geometry.data_devices as usize;
    let mut per_device: Vec<Vec<u64>> = vec![Vec::new(); d];
    // Blocks written per stripe, keyed densely by stripe id. A CP writes a
    // tiny fraction of the group's stripes, so use a sorted-vec approach:
    // collect (stripe, device) pairs, sort, then run-length scan.
    let mut stripe_hits: Vec<u64> = Vec::with_capacity(blocks.len());
    for &vbn in blocks {
        let loc = geometry.vbn_to_loc(vbn)?;
        per_device[loc.device.index()].push(loc.dbn.get());
        stripe_hits.push(loc.dbn.get());
    }

    let mut analysis = CpWriteAnalysis {
        data_blocks: blocks.len() as u64,
        per_device_blocks: per_device.iter().map(|v| v.len() as u64).collect(),
        per_device_chains: vec![0; d],
        ..CpWriteAnalysis::default()
    };

    // Stripe classification.
    stripe_hits.sort_unstable();
    let p = geometry.parity_devices as u64;
    let mut tetrises: Vec<u64> = Vec::new();
    let mut i = 0;
    while i < stripe_hits.len() {
        let stripe = stripe_hits[i];
        let mut k = 0u64;
        while i < stripe_hits.len() && stripe_hits[i] == stripe {
            k += 1;
            i += 1;
        }
        debug_assert!(k <= d as u64, "more writes than devices in stripe {stripe}");
        if k == d as u64 {
            analysis.full_stripes += 1;
        } else {
            analysis.partial_stripes += 1;
            // RMW reads k old-data + p old-parity; reconstruct reads the
            // d-k untouched data blocks. Take the cheaper.
            let rmw = k + p;
            let reconstruct = d as u64 - k;
            analysis.parity_reads += rmw.min(reconstruct);
        }
        analysis.parity_writes += p;
        tetrises.push(stripe / TETRIS_STRIPES);
    }
    tetrises.dedup();
    analysis.tetrises = tetrises.len() as u64;

    // Write chains per device.
    for (dev, dbns) in per_device.iter_mut().enumerate() {
        dbns.sort_unstable();
        debug_assert!(
            dbns.windows(2).all(|w| w[0] != w[1]),
            "duplicate block written on device {dev}"
        );
        let mut chains = 0u64;
        let mut prev: Option<u64> = None;
        for &dbn in dbns.iter() {
            if prev != Some(dbn.wrapping_sub(1)) {
                chains += 1;
            }
            prev = Some(dbn);
        }
        analysis.per_device_chains[dev] = chains;
    }

    Ok(analysis)
}

/// [`analyze_cp_write`] in interval form, for run-based plans.
///
/// Carries the per-device write chains and the union of written stripes
/// as intervals so the media costing never has to materialize per-block
/// lists (the CP hands over a few hundred runs where the block list
/// would be tens of thousands of VBNs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunWriteAnalysis {
    /// The same classification [`analyze_cp_write`] produces.
    pub analysis: CpWriteAnalysis,
    /// Maximal write chains per data device: sorted, disjoint `(dbn, len)`.
    pub device_chains: Vec<Vec<(u64, u64)>>,
    /// Union of written stripes as sorted, disjoint `(stripe, len)`
    /// intervals — exactly the blocks each parity device writes.
    pub stripe_intervals: Vec<(u64, u64)>,
}

/// Analyze one CP's writes given as allocation runs instead of blocks.
///
/// Equivalent to expanding `runs` and calling [`analyze_cp_write`] (the
/// equivalence is tested below), but stripe classification is a coverage
/// sweep over run endpoints, so a thousand multi-block runs never touch
/// per-block state. The sweep costs O(endpoints × data devices) — a
/// group is a few dozen devices wide at most — and the one sort left,
/// of each device's intervals, meets one ascending stretch per drained
/// AA, which the stable sort merges. Runs may cross device
/// boundaries; overlapping runs are an upstream error, debug-asserted
/// here like duplicate blocks are in [`analyze_cp_write`].
pub fn analyze_cp_write_runs(
    geometry: &RaidGeometry,
    runs: &[(Vbn, u64)],
) -> WaflResult<RunWriteAnalysis> {
    let d = geometry.data_devices as usize;
    let p = geometry.parity_devices as u64;

    // Split runs at device boundaries into per-device DBN intervals.
    let mut per_dev: Vec<Vec<(u64, u64)>> = vec![Vec::new(); d];
    let mut data_blocks = 0u64;
    for &(start, len) in runs {
        let mut vbn = start;
        let mut rem = len;
        while rem > 0 {
            let loc = geometry.vbn_to_loc(vbn)?;
            let in_dev = (geometry.device_blocks - loc.dbn.get()).min(rem);
            per_dev[loc.device.index()].push((loc.dbn.get(), in_dev));
            data_blocks += in_dev;
            vbn = Vbn(vbn.get() + in_dev);
            rem -= in_dev;
        }
    }

    // Merge per-device intervals into maximal chains.
    let mut out = RunWriteAnalysis {
        analysis: CpWriteAnalysis {
            data_blocks,
            per_device_blocks: vec![0; d],
            per_device_chains: vec![0; d],
            ..CpWriteAnalysis::default()
        },
        device_chains: Vec::with_capacity(d),
        stripe_intervals: Vec::new(),
    };
    for (dev, mut ivals) in per_dev.into_iter().enumerate() {
        // One ascending stretch per drained AA: the stable sort merges
        // such stretches, the unstable one sorts as if from scratch.
        ivals.sort();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ivals.len());
        for (s, l) in ivals {
            out.analysis.per_device_blocks[dev] += l;
            match merged.last_mut() {
                Some(&mut (ms, ref mut ml)) if ms + *ml >= s => {
                    debug_assert!(ms + *ml == s, "overlapping runs on device {dev}");
                    *ml += l;
                }
                _ => merged.push((s, l)),
            }
        }
        out.analysis.per_device_chains[dev] = merged.len() as u64;
        out.device_chains.push(merged);
    }

    // Stripe classification. `classify` books `width` stripes that `k`
    // devices cover (arithmetic on comparison results, not branches: on
    // fragmented writes the coverage changes like a coin toss).
    let classify = |a: &mut CpWriteAnalysis, k: u64, width: u64| {
        let full = u64::from(k == d as u64);
        let partial = u64::from(k > 0) - full;
        a.full_stripes += width * full;
        a.partial_stripes += width * partial;
        // Per stripe: RMW reads k old-data + p old-parity, reconstruct
        // reads the d-k untouched blocks; cheaper wins.
        a.parity_reads += width * partial * (k + p).min(d as u64 - k);
        a.parity_writes += width * (full + partial) * p;
    };
    let mut wrote = out.device_chains.iter().filter(|c| !c.is_empty());
    if let (Some(only), None) = (wrote.next(), wrote.next()) {
        // One device wrote (on a one-device range, always): its chains
        // are the stripe intervals, each covered once.
        classify(&mut out.analysis, 1, data_blocks);
        out.stripe_intervals = only.clone();
    } else {
        sweep_stripes(&mut out, classify);
    }

    // Tetrises touched: count tetris ids covered by the stripe union,
    // deduplicating the id shared by adjacent intervals.
    let mut prev_last: Option<u64> = None;
    for &(s, l) in &out.stripe_intervals {
        let first = s / TETRIS_STRIPES;
        let last = (s + l - 1) / TETRIS_STRIPES;
        out.analysis.tetrises += last - first + 1;
        if prev_last == Some(first) {
            out.analysis.tetrises -= 1;
        }
        prev_last = Some(last);
    }
    Ok(out)
}

/// Classify the stripes several devices' chains cover: sweep the chain
/// endpoints in position order, tracking how many devices cover each
/// stripe span. Between consecutive endpoints the coverage `k` is
/// constant, so a whole span of stripes classifies at once.
///
/// A device's chains are ascending, disjoint and maximal, so its
/// endpoints s0 < e0 < s1 < e1 < … are in order already, one to a
/// position: the sweep takes the lowest of the streams' heads instead of
/// sorting 2 × chains events. `ends[i]` is the `i`th writing device's
/// stream (even index: a chain opens) closed by a `u64::MAX` sentinel,
/// `taken[i]` the endpoints consumed; like `classify`, the steps are
/// arithmetic, not branches.
fn sweep_stripes(out: &mut RunWriteAnalysis, classify: impl Fn(&mut CpWriteAnalysis, u64, u64)) {
    let ends: Vec<Vec<u64>> = (out.device_chains.iter())
        .filter(|chains| !chains.is_empty())
        .map(|chains| {
            (chains.iter().flat_map(|&(s, l)| [s, s + l]))
                .chain([u64::MAX])
                .collect()
        })
        .collect();
    let mut taken = vec![0usize; ends.len()];
    // One slot more than intervals can exist: every step writes the
    // would-be interval and only keeps it (`n_intervals`) if one closed.
    let chains: usize = out.device_chains.iter().map(Vec::len).sum();
    out.stripe_intervals = vec![(0, 0); chains + 1];
    let mut n_intervals = 0usize;
    let mut k = 0u64;
    let mut prev_pos = 0u64;
    let mut open = 0u64;
    loop {
        let pos = (ends.iter().zip(&taken))
            .map(|(ends, &taken)| ends[taken])
            .fold(u64::MAX, u64::min);
        if pos == u64::MAX {
            break;
        }
        classify(&mut out.analysis, k, pos - prev_pos);
        // Every event at `pos` before the coverage is looked at again: a
        // chain ending where another device's begins leaves no gap.
        let was = k;
        for (ends, taken) in ends.iter().zip(&mut taken) {
            let hit = u64::from(ends[*taken] == pos);
            let closes = *taken as u64 & 1;
            k = k + hit - 2 * (hit & closes);
            *taken += hit as usize;
        }
        if was == 0 {
            open = pos;
        }
        out.stripe_intervals[n_intervals] = (open, pos - open);
        n_intervals += usize::from(was > 0 && k == 0);
        prev_pos = pos;
    }
    out.stripe_intervals.truncate(n_intervals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_types::{Dbn, DeviceId, RaidGroupId};

    fn g() -> RaidGeometry {
        RaidGeometry::new(RaidGroupId(0), 4, 1, 10_000, Vbn(0)).unwrap()
    }

    fn vbn(g: &RaidGeometry, dev: u32, dbn: u64) -> Vbn {
        g.loc_to_vbn(crate::geometry::DeviceLoc {
            device: DeviceId(dev),
            dbn: Dbn(dbn),
        })
        .unwrap()
    }

    #[test]
    fn empty_write_is_zero_cost() {
        let a = analyze_cp_write(&g(), &[]).unwrap();
        assert_eq!(
            a,
            CpWriteAnalysis {
                per_device_blocks: vec![0; 4],
                per_device_chains: vec![0; 4],
                ..CpWriteAnalysis::default()
            }
        );
        assert_eq!(a.full_stripe_fraction(), 0.0);
        assert_eq!(a.mean_chain_len(), 0.0);
    }

    #[test]
    fn full_stripe_needs_no_parity_reads() {
        let g = g();
        let blocks: Vec<Vbn> = (0..4).map(|d| vbn(&g, d, 42)).collect();
        let a = analyze_cp_write(&g, &blocks).unwrap();
        assert_eq!(a.full_stripes, 1);
        assert_eq!(a.partial_stripes, 0);
        assert_eq!(a.parity_reads, 0);
        assert_eq!(a.parity_writes, 1);
        assert_eq!(a.full_stripe_fraction(), 1.0);
        assert_eq!(a.tetrises, 1);
    }

    #[test]
    fn partial_stripe_picks_cheaper_parity_path() {
        let g = g(); // 4 data + 1 parity
                     // One block in a stripe: RMW = 1+1 = 2 reads, reconstruct = 3.
        let a = analyze_cp_write(&g, &[vbn(&g, 0, 7)]).unwrap();
        assert_eq!(a.partial_stripes, 1);
        assert_eq!(a.parity_reads, 2);
        // Three blocks: RMW = 3+1 = 4, reconstruct = 1. Reconstruct wins.
        let blocks: Vec<Vbn> = (0..3).map(|d| vbn(&g, d, 8)).collect();
        let a = analyze_cp_write(&g, &blocks).unwrap();
        assert_eq!(a.partial_stripes, 1);
        assert_eq!(a.parity_reads, 1);
    }

    #[test]
    fn tetris_grouping() {
        let g = g();
        // Stripes 0, 63 share tetris 0; stripe 64 is tetris 1; 6400 is 100.
        let blocks = vec![
            vbn(&g, 0, 0),
            vbn(&g, 1, 63),
            vbn(&g, 2, 64),
            vbn(&g, 3, 6400),
        ];
        let a = analyze_cp_write(&g, &blocks).unwrap();
        assert_eq!(a.tetrises, 3);
        assert_eq!(a.partial_stripes, 4);
    }

    #[test]
    fn chains_count_contiguity_per_device() {
        let g = g();
        // Device 0: dbns 10,11,12 (1 chain) + 20 (1 chain).
        // Device 1: dbns 5, 7, 9 (3 chains).
        let blocks = vec![
            vbn(&g, 0, 10),
            vbn(&g, 0, 11),
            vbn(&g, 0, 12),
            vbn(&g, 0, 20),
            vbn(&g, 1, 5),
            vbn(&g, 1, 7),
            vbn(&g, 1, 9),
        ];
        let a = analyze_cp_write(&g, &blocks).unwrap();
        assert_eq!(a.per_device_blocks, vec![4, 3, 0, 0]);
        assert_eq!(a.per_device_chains, vec![2, 3, 0, 0]);
        assert!((a.mean_chain_len() - 7.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn contiguous_aa_write_yields_full_stripes_and_one_chain_per_device() {
        // Writing every block of a stripe range — what the allocator does
        // when it drains an empty AA — is all full stripes, one chain per
        // device. This is the §2.4/§2.3 ideal case.
        let g = g();
        let mut blocks = Vec::new();
        for d in 0..4 {
            for s in 100..164 {
                blocks.push(vbn(&g, d, s));
            }
        }
        let a = analyze_cp_write(&g, &blocks).unwrap();
        assert_eq!(a.full_stripes, 64);
        assert_eq!(a.partial_stripes, 0);
        assert_eq!(a.parity_reads, 0);
        assert_eq!(a.per_device_chains, vec![1, 1, 1, 1]);
        assert_eq!(a.tetrises, 2); // stripes 100..164 touch tetrises 1 and 2
        assert_eq!(a.device_ios(), 4 + 64); // 4 chains + 64 parity writes
    }

    #[test]
    fn out_of_group_vbn_is_error() {
        let g = g();
        assert!(analyze_cp_write(&g, &[Vbn(40_000 * 2)]).is_err());
    }

    /// Expand runs to blocks and check both analyzers agree exactly.
    fn assert_runs_equivalent(geometry: &RaidGeometry, runs: &[(Vbn, u64)]) {
        let blocks: Vec<Vbn> = runs
            .iter()
            .flat_map(|&(s, l)| (0..l).map(move |i| Vbn(s.get() + i)))
            .collect();
        let per_block = analyze_cp_write(geometry, &blocks).unwrap();
        let by_runs = analyze_cp_write_runs(geometry, runs).unwrap();
        assert_eq!(by_runs.analysis, per_block, "runs {runs:?}");
        // The interval outputs must agree with the per-block counts too.
        for (dev, chains) in by_runs.device_chains.iter().enumerate() {
            assert_eq!(chains.len() as u64, per_block.per_device_chains[dev]);
            assert_eq!(
                chains.iter().map(|&(_, l)| l).sum::<u64>(),
                per_block.per_device_blocks[dev]
            );
        }
        let stripes: u64 = by_runs.stripe_intervals.iter().map(|&(_, l)| l).sum();
        assert_eq!(stripes, per_block.full_stripes + per_block.partial_stripes);
    }

    #[test]
    fn run_analysis_matches_per_block_on_crafted_patterns() {
        let g = g();
        let v = |dev: u32, dbn: u64| vbn(&g, dev, dbn);
        // Empty, one block, one full device-crossing run (10_000 blocks per
        // device means a run off device 0's end continues on device 1),
        // a full stripe built from four single-block runs, a dense AA-style
        // drain, and ragged partial coverage around a tetris boundary.
        assert_runs_equivalent(&g, &[]);
        assert_runs_equivalent(&g, &[(v(0, 7), 1)]);
        assert_runs_equivalent(&g, &[(v(0, 9_990), 25)]);
        assert_runs_equivalent(
            &g,
            &[(v(0, 42), 1), (v(1, 42), 1), (v(2, 42), 1), (v(3, 42), 1)],
        );
        assert_runs_equivalent(
            &g,
            &[
                (v(0, 100), 64),
                (v(1, 100), 64),
                (v(2, 100), 64),
                (v(3, 100), 64),
            ],
        );
        assert_runs_equivalent(
            &g,
            &[
                (v(0, 60), 10),
                (v(1, 62), 3),
                (v(2, 63), 2),
                (v(3, 64), 1),
                (v(0, 127), 2),
            ],
        );
    }

    #[test]
    fn one_writing_device_needs_no_sweep() {
        // A one-device range (every stripe it writes is full) and a 4+1
        // group whose CP stayed on device 2 (every stripe partial), runs
        // out of order and touching.
        let single = RaidGeometry::new(RaidGroupId(0), 1, 0, 10_000, Vbn(0)).unwrap();
        let wide = g();
        for (geometry, dev) in [(&single, 0), (&wide, 2)] {
            let v = |dbn| vbn(geometry, dev, dbn);
            let runs = [
                (v(500), 3),
                (v(10), 2),
                (v(12), 5),
                (v(9_999), 1),
                (v(64), 64),
            ];
            assert_runs_equivalent(geometry, &runs);
            let rw = analyze_cp_write_runs(geometry, &runs).unwrap();
            let chains = vec![(10, 7), (64, 64), (500, 3), (9_999, 1)];
            assert_eq!(rw.device_chains[dev as usize], chains);
            assert_eq!(rw.stripe_intervals, chains);
        }
    }

    #[test]
    fn run_analysis_matches_per_block_on_wide_groups_with_touching_chains() {
        use rand::prelude::*;
        // Three AAs of 256 stripes drained one after the other, the last
        // one lower than the first, device by device as the allocator
        // walks them. Run lengths and gaps come from a three-value
        // alphabet over a four-stripe period, so across 8 – 12 devices
        // chains end where other devices' begin, begin and end together,
        // and run to the AAs' shared edges all the time.
        for (seed, d) in [(1u64, 8u32), (2, 9), (3, 12)] {
            let g = RaidGeometry::new(RaidGroupId(0), d, 2, 4096, Vbn(0)).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut runs: Vec<(Vbn, u64)> = Vec::new();
            for aa in [5u64, 6, 2] {
                for dev in 0..d {
                    let (mut dbn, end) = (aa * 256, (aa + 1) * 256);
                    while dbn < end {
                        let len = [1u64, 2, 4][rng.random_range(0..3usize)].min(end - dbn);
                        runs.push((vbn(&g, dev, dbn), len));
                        dbn += len + [0u64, 2, 4][rng.random_range(0..3usize)];
                    }
                }
            }
            // A gap of 0 leaves adjacent runs for the chain merge.
            assert!(runs
                .windows(2)
                .any(|w| w[0].0.get() + w[0].1 == w[1].0.get()));
            assert_runs_equivalent(&g, &runs);
            let rw = analyze_cp_write_runs(&g, &runs).unwrap();
            assert!(rw.analysis.full_stripes > 0 && rw.analysis.partial_stripes > 0);
            // Disjoint and maximal: no two stripe intervals touch.
            assert!(rw
                .stripe_intervals
                .windows(2)
                .all(|w| w[0].0 + w[0].1 < w[1].0));
        }
    }

    #[test]
    fn run_analysis_matches_per_block_on_random_workloads() {
        use rand::prelude::*;
        let g = g();
        for seed in 0..20 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Disjoint runs over the whole group VBN space: random gaps and
            // lengths, so runs cross devices and tetrises arbitrarily.
            let mut runs: Vec<(Vbn, u64)> = Vec::new();
            let space = 4 * 10_000u64;
            let mut pos = rng.random_range(0u64..100);
            while pos < space {
                let len = rng.random_range(1u64..=80).min(space - pos);
                runs.push((Vbn(pos), len));
                pos += len + rng.random_range(1u64..500);
            }
            // Scrambled order: neither analyzer may depend on sortedness.
            runs.shuffle(&mut rng);
            assert_runs_equivalent(&g, &runs);
        }
    }
}
