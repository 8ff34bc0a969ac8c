//! How allocation areas tile a block-number space.

use wafl_bitmap::Bitmap;
use wafl_raid::RaidGeometry;
use wafl_types::{AaId, AaScore, AaSizingPolicy, Vbn, WaflError, WaflResult, TETRIS_STRIPES};

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

    /// The AA containing `vbn`, plus the end (exclusive) of the maximal
    /// run of consecutive VBNs from `vbn` that stay inside that AA. Bulk
    /// paths that walk sorted VBN lists (the CP delayed-free coalescers)
    /// use the span end to tag whole runs with one lookup instead of one
    /// `aa_of_vbn` per block: within `vbn..end` the AA cannot change.
    ///
    /// For RAID-aware topologies the span ends where the device's current
    /// stripe band does (an AA is one VBN run *per device*); for RAID-
    /// agnostic topologies it ends at the AA boundary itself.
    pub fn aa_span_of_vbn(&self, vbn: Vbn) -> WaflResult<(AaId, Vbn)> {
        match self {
            AaTopology::RaidAware {
                geometry,
                stripes_per_aa,
            } => {
                let base = geometry.base_vbn.get();
                let data_span = geometry.data_devices as u64 * geometry.device_blocks;
                if vbn.get() < base || vbn.get() >= base + data_span {
                    return Err(WaflError::VbnOutOfRange {
                        vbn,
                        space_len: base + data_span,
                    });
                }
                let offset = vbn.get() - base;
                let dev = offset / geometry.device_blocks;
                let t = offset % geometry.device_blocks;
                let aa = t / stripes_per_aa;
                let band_end = ((aa + 1) * stripes_per_aa).min(geometry.device_blocks);
                Ok((
                    AaId(aa as u32),
                    Vbn(base + dev * geometry.device_blocks + band_end),
                ))
            }
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
                let aa = vbn.get() / aa_blocks;
                Ok((AaId(aa as u32), Vbn(((aa + 1) * aa_blocks).min(*space_len))))
            }
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
    /// A RAID-agnostic topology whose tiling matches the bitmap's enabled
    /// per-AA summary reads the counter directly — O(1), no bitmap words
    /// touched. Everything else goes through the range query, which the
    /// per-page counters keep at O(partial edge pages).
    pub fn score_from_bitmap(&self, bitmap: &Bitmap, aa: AaId) -> AaScore {
        if let AaTopology::RaidAgnostic { aa_blocks, .. } = self {
            if let Some(counts) = bitmap.aa_free_counts(*aa_blocks) {
                return AaScore(counts.get(aa.index()).copied().unwrap_or(0));
            }
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
        // start in its own AA and cover exactly the same-AA suffix.
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
            let (lo, hi) = match t {
                AaTopology::RaidAware { geometry, .. } => (
                    geometry.base_vbn.get(),
                    geometry.base_vbn.get() + geometry.data_devices as u64 * geometry.device_blocks,
                ),
                AaTopology::RaidAgnostic { space_len, .. } => (0, *space_len),
            };
            assert!(t.aa_span_of_vbn(Vbn(hi)).is_err());
            let mut vbn = lo;
            while vbn < hi {
                let (aa, end) = t.aa_span_of_vbn(Vbn(vbn)).unwrap();
                assert_eq!(aa, t.aa_of_vbn(Vbn(vbn)).unwrap());
                assert!(end.get() > vbn && end.get() <= hi);
                // Everything in the span shares the AA; the span is maximal
                // (the next VBN, if in range, is in a different AA or a
                // different device run).
                assert_eq!(t.aa_of_vbn(Vbn(end.get() - 1)).unwrap(), aa);
                vbn = end.get();
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
