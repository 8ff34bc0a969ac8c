//! How allocation areas tile a block-number space.

use wafl_bitmap::Bitmap;
use wafl_raid::RaidGeometry;
use wafl_types::{
    AaId, AaScore, AaSizingPolicy, Reciprocal, Vbn, WaflError, WaflResult, TETRIS_STRIPES,
};

/// The AA tiling of one block-number space (§3.1).
///
/// Two shapes exist:
/// * **RAID-aware** — an AA is a run of consecutive stripes across all
///   data devices of a RAID group, so it is one VBN range *per device*.
/// * **RAID-agnostic** — an AA is a single run of consecutive VBNs. Used
///   for FlexVol virtual VBNs and physical storage with native redundancy.
///
/// All score computation goes through this type so that caches never need
/// to know which shape they serve.
#[derive(Clone, Debug)]
pub enum AaTopology {
    /// Consecutive stripes of a RAID group.
    RaidAware {
        /// The group's geometry (device count, capacity, PVBN base).
        geometry: RaidGeometry,
        /// AA height in stripes.
        stripes_per_aa: u64,
    },
    /// Consecutive VBNs of a flat space.
    RaidAgnostic {
        /// Number of VBNs in the space.
        space_len: u64,
        /// Blocks per AA.
        aa_blocks: u64,
    },
}

impl AaTopology {
    /// Build the RAID-aware topology for `geometry` under `policy`.
    /// Errors if the policy is RAID-agnostic.
    pub fn raid_aware(geometry: RaidGeometry, policy: AaSizingPolicy) -> WaflResult<AaTopology> {
        let stripes_per_aa = policy
            .stripes_per_aa()
            .ok_or_else(|| WaflError::InvalidConfig {
                reason: "RAID-aware topology needs a stripe-based sizing policy".into(),
            })?;
        if stripes_per_aa == 0 {
            return Err(WaflError::InvalidConfig {
                reason: "stripes_per_aa must be positive".into(),
            });
        }
        Ok(AaTopology::RaidAware {
            geometry,
            stripes_per_aa,
        })
    }

    /// Build the RAID-agnostic topology for a flat space of `space_len`
    /// VBNs under `policy`. Errors if the policy is RAID-aware.
    pub fn raid_agnostic(space_len: u64, policy: AaSizingPolicy) -> WaflResult<AaTopology> {
        let aa_blocks = policy
            .blocks_per_aa()
            .ok_or_else(|| WaflError::InvalidConfig {
                reason: "RAID-agnostic topology needs a consecutive-VBN sizing policy".into(),
            })?;
        if aa_blocks == 0 {
            return Err(WaflError::InvalidConfig {
                reason: "aa_blocks must be positive".into(),
            });
        }
        Ok(AaTopology::RaidAgnostic {
            space_len,
            aa_blocks,
        })
    }

    /// Number of AAs tiling the space (the trailing partial AA counts).
    pub fn aa_count(&self) -> u32 {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => geometry.aa_count(*stripes_per_aa),
            AaTopology::RaidAgnostic {
                space_len,
                aa_blocks,
            } => space_len.div_ceil(*aa_blocks) as u32,
        }
    }

    /// Total blocks (and thus the maximum score) of AA `aa`.
    pub fn aa_blocks(&self, aa: AaId) -> u64 {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => geometry.aa_blocks(aa, *stripes_per_aa),
            AaTopology::RaidAgnostic {
                space_len,
                aa_blocks,
            } => {
                let start = aa.get() as u64 * *aa_blocks;
                (*aa_blocks).min(space_len.saturating_sub(start))
            }
        }
    }

    /// Maximum score over all AAs in this topology (full-size AA block
    /// count). The HBPS bins span `0..=max_score()`.
    pub fn max_score(&self) -> u32 {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => (*stripes_per_aa * geometry.data_devices as u64) as u32,
            AaTopology::RaidAgnostic { aa_blocks, .. } => *aa_blocks as u32,
        }
    }

    /// The VBN runs making up AA `aa`: one per data device for RAID-aware
    /// topologies, exactly one for RAID-agnostic.
    pub fn aa_vbn_ranges(&self, aa: AaId) -> Vec<(Vbn, u64)> {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => geometry.aa_vbn_ranges(aa, *stripes_per_aa).collect(),
            AaTopology::RaidAgnostic {
                space_len,
                aa_blocks,
            } => {
                let start = aa.get() as u64 * *aa_blocks;
                let len = (*aa_blocks).min(space_len.saturating_sub(start));
                if len == 0 {
                    vec![]
                } else {
                    vec![(Vbn(start), len)]
                }
            }
        }
    }

    /// The VBN runs of AA `aa` in *write-allocation order*: the order the
    /// allocator assigns VBNs so that draining an empty AA produces full
    /// stripes *and* long per-device chains (§2.3–2.4).
    ///
    /// RAID-aware AAs are walked tetris by tetris (64 consecutive stripes,
    /// §4.2): within each tetris, one 64-block chain per data device. A
    /// fully drained tetris is 64 full stripes written as D sequential
    /// chains. RAID-agnostic AAs are a single run already.
    pub fn aa_write_ranges(&self, aa: AaId) -> Vec<(Vbn, u64)> {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => {
                let (start, end) = geometry.aa_stripe_range(aa, *stripes_per_aa);
                let base = geometry.base_vbn.get();
                let dev_blocks = geometry.device_blocks;
                let mut out = Vec::with_capacity(
                    ((end - start).div_ceil(TETRIS_STRIPES) * geometry.data_devices as u64)
                        as usize,
                );
                let mut t = start;
                while t < end {
                    let len = TETRIS_STRIPES.min(end - t);
                    for d in 0..geometry.data_devices {
                        out.push((Vbn(base + d as u64 * dev_blocks + t), len));
                    }
                    t += len;
                }
                out
            }
            AaTopology::RaidAgnostic { .. } => self.aa_vbn_ranges(aa),
        }
    }

    /// The AA lookup of bulk paths that map many VBNs to their AA spans
    /// (the CP's booking of frees): this topology's divisors, turned
    /// into reciprocals once.
    pub fn span_finder(&self) -> AaSpanFinder {
        // A RAID-agnostic space is one device whose AAs are one band each.
        let (base, devices, device_blocks, height) = match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => (
                geometry.base_vbn.get(),
                geometry.data_devices as u64,
                geometry.device_blocks,
                *stripes_per_aa,
            ),
            AaTopology::RaidAgnostic {
                space_len,
                aa_blocks,
            } => (0, 1, *space_len, *aa_blocks),
        };
        AaSpanFinder {
            base,
            len: devices * device_blocks,
            device_blocks,
            per_device: Reciprocal::new(device_blocks.max(1)),
            height,
            per_band: Reciprocal::new(height),
        }
    }

    /// The AA containing `vbn`.
    pub fn aa_of_vbn(&self, vbn: Vbn) -> WaflResult<AaId> {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => geometry.aa_of_vbn(vbn, *stripes_per_aa),
            AaTopology::RaidAgnostic {
                space_len,
                aa_blocks,
            } => {
                if vbn.get() >= *space_len {
                    return Err(WaflError::VbnOutOfRange {
                        vbn,
                        space_len: *space_len,
                    });
                }
                Ok(vbn.aa(*aa_blocks))
            }
        }
    }

    /// Compute AA `aa`'s score by consulting the bitmap metafile (§3.3:
    /// "the number of free blocks in the AA, computed by consulting bitmap
    /// metafiles"). For RAID-aware topologies the bitmap indexes the
    /// aggregate's physical VBNs; for RAID-agnostic ones, the flat space.
    ///
    /// Each of the AA's VBN ranges is one [`Bitmap::free_count_range`]. A
    /// RAID-agnostic AA that is the bitmap's summary unit (a volume's,
    /// [`Bitmap::for_aa_tiling`]) is one counter load; everything else
    /// costs its covered units' counters plus the partial edges.
    pub fn score_from_bitmap(&self, bitmap: &Bitmap, aa: AaId) -> AaScore {
        if let AaTopology::RaidAgnostic { aa_blocks, .. } = self {
            let start = Vbn(aa.get() as u64 * *aa_blocks);
            return AaScore(bitmap.free_count_range(start, *aa_blocks));
        }
        let mut free = 0u32;
        for (start, len) in self.aa_vbn_ranges(aa) {
            free += bitmap.free_count_range(start, len);
        }
        AaScore(free)
    }

    /// Compute every AA's score with one walk (the expensive path the
    /// TopAA metafile avoids at mount, §3.4). RAID-agnostic tilings reuse
    /// the summary-aware scan kernel; RAID-aware tilings walk their
    /// per-device ranges, each range a summary-accelerated count.
    pub fn all_scores(&self, bitmap: &Bitmap) -> Vec<(AaId, AaScore)> {
        if let AaTopology::RaidAgnostic { aa_blocks, .. } = self {
            return wafl_bitmap::scan::scores_seq(bitmap, *aa_blocks);
        }
        (0..self.aa_count())
            .map(|a| (AaId(a), self.score_from_bitmap(bitmap, AaId(a))))
            .collect()
    }
}

/// The VBNs `start .. start + len`, all in AA `aa`: one device's band of
/// a RAID-aware AA, or a whole RAID-agnostic AA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AaSpan {
    /// The AA.
    pub aa: AaId,
    /// First VBN of the span.
    pub start: u64,
    /// VBNs in the span.
    pub len: u64,
}

impl AaSpan {
    /// Whether `vbn` is in the span: one unsigned compare, since a VBN
    /// below `start` wraps to a huge offset.
    #[inline]
    pub fn contains(self, vbn: Vbn) -> bool {
        vbn.get().wrapping_sub(self.start) < self.len
    }
}

/// [`AaTopology::span_finder`]: the span of any VBN, without dividing.
#[derive(Clone, Copy, Debug)]
pub struct AaSpanFinder {
    base: u64,
    len: u64,
    device_blocks: u64,
    per_device: Reciprocal,
    height: u64,
    per_band: Reciprocal,
}

impl AaSpanFinder {
    /// Whether `vbn` is in the space: one compare.
    #[inline]
    pub fn covers(&self, vbn: Vbn) -> bool {
        vbn.get().wrapping_sub(self.base) < self.len
    }

    /// First VBN of the space.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The AA holding `vbn` and the maximal run of VBNs around it that
    /// stays in that AA: to the ends of the device's stripe band for
    /// RAID-aware topologies, of the AA itself for RAID-agnostic ones.
    #[inline]
    pub fn span_of(&self, vbn: Vbn) -> WaflResult<AaSpan> {
        let offset = vbn.get().wrapping_sub(self.base);
        if offset >= self.len {
            return Err(WaflError::VbnOutOfRange {
                vbn,
                space_len: self.base + self.len,
            });
        }
        let t = offset - self.per_device.quotient(offset) * self.device_blocks;
        let aa = self.per_band.quotient(t);
        let band = aa * self.height;
        Ok(AaSpan {
            aa: AaId(aa as u32),
            start: vbn.get() - (t - band),
            len: self.height.min(self.device_blocks - band),
        })
    }
}

/// Count `vbns`, in any order, by AA span: `book(key, aa, n)` once for
/// each run of `n` VBNs next to each other in the batch that share a
/// span. `locate` maps a VBN outside the open span to the key of its
/// space and its span. A VBN inside the open span costs one compare, so
/// a batch that visits each span in one run, as a sorted one does,
/// books each span once; the totals per AA do not depend on the order.
pub fn book_spans<K: Copy>(
    vbns: &[Vbn],
    mut locate: impl FnMut(Vbn) -> WaflResult<(K, AaSpan)>,
    mut book: impl FnMut(K, AaId, u32),
) -> WaflResult<()> {
    let mut i = 0;
    while i < vbns.len() {
        let (key, span) = locate(vbns[i])?;
        let run = vbns[i + 1..]
            .iter()
            .take_while(|&&v| span.contains(v))
            .count()
            + 1;
        book(key, span.aa, run as u32);
        i += run;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_types::{RaidGroupId, RAID_AGNOSTIC_AA_BLOCKS};

    fn raid_topo() -> AaTopology {
        let g = RaidGeometry::new(RaidGroupId(0), 3, 1, 4096, Vbn(0)).unwrap();
        AaTopology::raid_aware(g, AaSizingPolicy::Stripes { stripes: 1024 }).unwrap()
    }

    #[test]
    fn construction_rejects_mismatched_policies() {
        let g = RaidGeometry::new(RaidGroupId(0), 3, 1, 4096, Vbn(0)).unwrap();
        assert!(AaTopology::raid_aware(g, AaSizingPolicy::raid_agnostic()).is_err());
        assert!(
            AaTopology::raid_agnostic(1 << 20, AaSizingPolicy::Stripes { stripes: 4096 }).is_err()
        );
    }

    #[test]
    fn aa_span_agrees_with_per_vbn_lookup() {
        // A base offset plus a trailing short AA on the RAID-aware side; a
        // short trailing AA on the agnostic side. Every VBN's span must
        // hold it, lie in its AA and be maximal.
        let g = RaidGeometry::new(RaidGroupId(0), 3, 1, 1000, Vbn(5000)).unwrap();
        let topos = [
            AaTopology::raid_aware(g, AaSizingPolicy::Stripes { stripes: 300 }).unwrap(),
            AaTopology::raid_agnostic(
                2 * RAID_AGNOSTIC_AA_BLOCKS + 100,
                AaSizingPolicy::raid_agnostic(),
            )
            .unwrap(),
        ];
        for t in &topos {
            // A RAID-agnostic space is one device.
            let (lo, hi, device_blocks) = match t {
                AaTopology::RaidAware { geometry, .. } => (
                    geometry.base_vbn.get(),
                    geometry.base_vbn.get() + geometry.data_devices as u64 * geometry.device_blocks,
                    geometry.device_blocks,
                ),
                AaTopology::RaidAgnostic { space_len, .. } => (0, *space_len, *space_len),
            };
            let finder = t.span_finder();
            assert!(finder.span_of(Vbn(hi)).is_err());
            assert!(lo == 0 || finder.span_of(Vbn(lo - 1)).is_err());
            let in_aa = |v: u64, aa| (lo..hi).contains(&v) && t.aa_of_vbn(Vbn(v)).unwrap() == aa;
            for vbn in lo..hi {
                let span = finder.span_of(Vbn(vbn)).unwrap();
                assert_eq!(span.aa, t.aa_of_vbn(Vbn(vbn)).unwrap());
                assert!(span.contains(Vbn(vbn)));
                let end = span.start + span.len;
                assert!(in_aa(span.start, span.aa) && in_aa(end - 1, span.aa));
                // Maximal: the VBNs just outside are in another AA, on
                // another device, or out of the space.
                let dev = |v: u64| (v - lo) / device_blocks;
                for out in [span.start.wrapping_sub(1), end] {
                    assert!(!span.contains(Vbn(out)));
                    assert!(!in_aa(out, span.aa) || dev(out) != dev(vbn));
                }
            }
        }
    }

    /// `book_spans` books what one `aa_of_vbn` + `record_freed` per VBN
    /// books, on two groups of the 3 + 1 × 1 000-block geometry with
    /// 300-stripe AAs, for frees in random, ascending and descending
    /// order.
    #[test]
    fn book_spans_matches_per_block_booking() {
        use crate::ScoreDeltaBatch;
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let topos: Vec<AaTopology> = [0u64, 3000]
            .iter()
            .enumerate()
            .map(|(i, &base)| {
                let g = RaidGeometry::new(RaidGroupId(i as u32), 3, 1, 1000, Vbn(base)).unwrap();
                AaTopology::raid_aware(g, AaSizingPolicy::Stripes { stripes: 300 }).unwrap()
            })
            .collect();
        let finders: Vec<AaSpanFinder> = topos.iter().map(AaTopology::span_finder).collect();
        let drain = |b: &mut ScoreDeltaBatch| b.drain().collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(42);
        for density in [0.02, 0.3, 1.0] {
            let mut vbns: Vec<Vbn> = (0..6000)
                .filter(|_| rng.random_bool(density))
                .map(Vbn)
                .collect();
            vbns.shuffle(&mut rng);
            let mut ascending = vbns.clone();
            ascending.sort_unstable();
            let descending: Vec<Vbn> = ascending.iter().rev().copied().collect();
            for batch in [vbns, ascending, descending] {
                let mut want = [ScoreDeltaBatch::new(), ScoreDeltaBatch::new()];
                for &v in &batch {
                    let g = (v.get() / 3000) as usize;
                    want[g].record_freed(topos[g].aa_of_vbn(v).unwrap(), 1);
                }
                let mut got = [ScoreDeltaBatch::new(), ScoreDeltaBatch::new()];
                let locate = |v: Vbn| {
                    let g = finders.partition_point(|f| f.base() <= v.get()) - 1;
                    Ok((g, finders[g].span_of(v)?))
                };
                book_spans(&batch, locate, |g, aa, n| got[g].record_freed(aa, n)).unwrap();
                for g in 0..2 {
                    assert_eq!(got[g].touched_aas(), want[g].touched_aas());
                    assert_eq!(drain(&mut got[g]), drain(&mut want[g]));
                }
            }
        }
    }

    #[test]
    fn raid_aware_counts() {
        let t = raid_topo();
        assert_eq!(t.aa_count(), 4);
        assert_eq!(t.max_score(), 3 * 1024);
        assert_eq!(t.aa_blocks(AaId(0)), 3 * 1024);
        assert!(matches!(t, AaTopology::RaidAware { .. }));
        // 3 devices -> 3 VBN runs per AA.
        assert_eq!(t.aa_vbn_ranges(AaId(2)).len(), 3);
    }

    #[test]
    fn raid_agnostic_counts() {
        let t = AaTopology::raid_agnostic(100_000, AaSizingPolicy::raid_agnostic()).unwrap();
        assert_eq!(t.aa_count(), 4); // ceil(100_000 / 32768)
        assert_eq!(t.max_score(), RAID_AGNOSTIC_AA_BLOCKS as u32);
        // Trailing partial AA.
        assert_eq!(t.aa_blocks(AaId(3)), 100_000 - 3 * RAID_AGNOSTIC_AA_BLOCKS);
        assert_eq!(
            t.aa_vbn_ranges(AaId(3)),
            vec![(
                Vbn(3 * RAID_AGNOSTIC_AA_BLOCKS),
                100_000 - 3 * RAID_AGNOSTIC_AA_BLOCKS
            )]
        );
        assert!(matches!(t, AaTopology::RaidAgnostic { .. }));
    }

    #[test]
    fn scores_partition_free_space() {
        let t = raid_topo();
        let mut bitmap = Bitmap::new(3 * 4096);
        // Allocate the whole first AA (stripes 0..1024 on 3 devices).
        for (start, len) in t.aa_vbn_ranges(AaId(0)) {
            for v in start.get()..start.get() + len {
                bitmap.allocate(Vbn(v)).unwrap();
            }
        }
        let scores = t.all_scores(&bitmap);
        assert_eq!(scores[0].1, AaScore(0));
        for &(_, s) in &scores[1..] {
            assert_eq!(s, AaScore(3 * 1024));
        }
        let total: u64 = scores.iter().map(|&(_, s)| s.get() as u64).sum();
        assert_eq!(total, bitmap.free_blocks());
    }

    #[test]
    fn aa_of_vbn_agrees_with_ranges() {
        for t in [
            raid_topo(),
            AaTopology::raid_agnostic(100_000, AaSizingPolicy::raid_agnostic()).unwrap(),
        ] {
            for a in 0..t.aa_count() {
                for (start, len) in t.aa_vbn_ranges(AaId(a)) {
                    assert_eq!(t.aa_of_vbn(start).unwrap(), AaId(a));
                    assert_eq!(t.aa_of_vbn(Vbn(start.get() + len - 1)).unwrap(), AaId(a));
                }
            }
        }
    }

    #[test]
    fn out_of_space_vbn_rejected() {
        let t = AaTopology::raid_agnostic(1000, AaSizingPolicy::ConsecutiveVbns { blocks: 100 })
            .unwrap();
        assert!(t.aa_of_vbn(Vbn(1000)).is_err());
        assert!(t.aa_of_vbn(Vbn(999)).is_ok());
    }
}
