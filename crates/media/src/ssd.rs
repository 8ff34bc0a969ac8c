//! A page-mapped flash translation layer with greedy garbage collection.
//!
//! Write amplification is not a parameter of this model — it *emerges*
//! from the interaction of the host write pattern with erase-block
//! recycling, which is exactly the phenomenon §3.2.2 of the paper
//! exploits: draining whole (erase-block-aligned) allocation areas makes
//! pages that were written together become invalid together, so the
//! greedy collector finds nearly-empty victims and relocates little.

use serde::{Deserialize, Serialize};
use wafl_types::{WaflError, WaflResult};

const UNMAPPED: u32 = u32::MAX;

/// Cumulative FTL counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsdStats {
    /// Pages written by the host.
    pub host_writes: u64,
    /// Pages programmed on flash (host writes + GC relocations).
    pub nand_writes: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Erase operations performed.
    pub erases: u64,
    /// TRIM/unmap commands applied.
    pub trims: u64,
}

impl SsdStats {
    /// Write amplification: flash pages programmed per host page written.
    /// 1.0 is ideal (§3.2.2).
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.nand_writes as f64 / self.host_writes as f64
        }
    }
}

/// A page-mapped FTL over one SSD.
///
/// Logical page numbers (LPNs) are the device DBNs; 4 KiB pages. Physical
/// capacity exceeds the exported logical capacity by the over-provisioning
/// factor; the surplus plus a small erased-block reserve is what garbage
/// collection breathes with.
pub struct SsdFtl {
    erase_block_pages: u32,
    logical_pages: u32,
    /// LPN -> physical page, or `UNMAPPED`.
    l2p: Vec<u32>,
    /// Physical page -> LPN, or `UNMAPPED` (free or invalid).
    p2l: Vec<u32>,
    /// Valid-page count per erase block.
    valid: Vec<u32>,
    /// Fully erased blocks available for writing.
    free_ebs: Vec<u32>,
    /// `free_ebs` membership per erase block, so that the GC's victim
    /// scan asks in O(1) what a search of the list would answer.
    is_free: Vec<bool>,
    /// Pick GC victims the way the code did before `is_free` existed
    /// (the differential test's reference side).
    #[cfg(test)]
    pick_by_list_search: bool,
    /// Erase block currently being programmed, and its fill level.
    active: u32,
    write_ptr: u32,
    /// GC refills the free list up to this many blocks.
    gc_reserve: usize,
    in_gc: bool,
    stats: SsdStats,
    /// Page program time, µs.
    pub program_us: f64,
    /// Page read time (GC relocations read before re-programming), µs.
    pub read_us: f64,
    /// Erase-block erase time, µs.
    pub erase_us: f64,
    /// Internal parallelism: independent channels/planes programming
    /// concurrently. Batch costs divide by this — enterprise SSDs sustain
    /// far more than one page per program latency.
    pub channels: f64,
}

impl SsdFtl {
    /// Create an FTL exporting `logical_pages` pages with `op` fractional
    /// over-provisioning (e.g. `0.07` for 7 %) and `erase_block_pages`
    /// pages per erase block. Timings default to enterprise-NAND-class
    /// values (program 200 µs, read 60 µs, erase 2 ms).
    pub fn new(logical_pages: u32, erase_block_pages: u32, op: f64) -> WaflResult<SsdFtl> {
        if erase_block_pages == 0 || logical_pages == 0 {
            return Err(WaflError::InvalidConfig {
                reason: "SSD needs nonzero capacity and erase-block size".into(),
            });
        }
        if !(0.0..=1.0).contains(&op) {
            return Err(WaflError::InvalidConfig {
                reason: format!("over-provisioning {op} outside [0, 1]"),
            });
        }
        let gc_reserve = 4usize;
        let logical_ebs = (logical_pages as u64).div_ceil(erase_block_pages as u64);
        let physical_ebs =
            ((logical_ebs as f64) * (1.0 + op)).ceil() as u64 + gc_reserve as u64 + 1; // +1 for the active block
        let physical_pages = physical_ebs * erase_block_pages as u64;
        if physical_pages > UNMAPPED as u64 {
            return Err(WaflError::InvalidConfig {
                reason: "SSD too large for the u32 page index space".into(),
            });
        }
        let mut ftl = SsdFtl {
            erase_block_pages,
            logical_pages,
            l2p: vec![UNMAPPED; logical_pages as usize],
            p2l: vec![UNMAPPED; physical_pages as usize],
            valid: vec![0; physical_ebs as usize],
            free_ebs: (0..physical_ebs as u32).rev().collect(),
            is_free: vec![true; physical_ebs as usize],
            #[cfg(test)]
            pick_by_list_search: false,
            active: 0,
            write_ptr: 0,
            gc_reserve,
            in_gc: false,
            stats: SsdStats::default(),
            program_us: 200.0,
            read_us: 60.0,
            erase_us: 2000.0,
            channels: 8.0,
        };
        ftl.active = ftl.pop_free();
        Ok(ftl)
    }

    /// Exported capacity in pages.
    pub fn logical_pages(&self) -> u32 {
        self.logical_pages
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Current write amplification.
    pub fn write_amplification(&self) -> f64 {
        self.stats.write_amplification()
    }

    /// Reset counters (e.g. after aging, before measurement) without
    /// touching the mapping state.
    pub fn reset_stats(&mut self) {
        self.stats = SsdStats::default();
    }

    fn invalidate(&mut self, lpn: u32) {
        let old = self.l2p[lpn as usize];
        if old != UNMAPPED {
            self.p2l[old as usize] = UNMAPPED;
            self.valid[(old / self.erase_block_pages) as usize] -= 1;
            self.l2p[lpn as usize] = UNMAPPED;
        }
    }

    /// Take an erased block off the free list.
    fn pop_free(&mut self) -> u32 {
        let eb = self
            .free_ebs
            .pop()
            .expect("FTL invariant: free list never empties (OP + reserve)");
        self.is_free[eb as usize] = false;
        eb
    }

    /// The GC's victim: the lowest-numbered of the sealed blocks (neither
    /// active nor erased) with the fewest valid pages.
    fn pick_victim(&self) -> u32 {
        (0u32..)
            .zip(self.valid.iter().zip(&self.is_free))
            .filter(|&(eb, (_, &free))| eb != self.active && !free)
            .min_by_key(|&(_, (&valid, _))| valid)
            .map(|(eb, _)| eb)
            .expect("non-free erase block exists")
    }

    /// Claim the next physical page of the active block, rolling to a new
    /// erase block (and triggering GC) as needed.
    fn alloc_page(&mut self) -> u32 {
        if self.write_ptr == self.erase_block_pages {
            self.active = self.pop_free();
            self.write_ptr = 0;
            if !self.in_gc && self.free_ebs.len() < self.gc_reserve {
                self.run_gc();
            }
        }
        let page = self.active * self.erase_block_pages + self.write_ptr;
        self.write_ptr += 1;
        page
    }

    /// Greedy collection: always the victim with the fewest valid pages,
    /// mirroring the "FTL must first relocate all active data in the erase
    /// block elsewhere" description of §3.2.2.
    fn run_gc(&mut self) {
        self.in_gc = true;
        while self.free_ebs.len() < self.gc_reserve {
            let victim = self.pick_victim();
            #[cfg(test)]
            let victim = if self.pick_by_list_search {
                tests::victim_by_list_search(self)
            } else {
                victim
            };
            let base = victim * self.erase_block_pages;
            for p in base..base + self.erase_block_pages {
                let lpn = self.p2l[p as usize];
                if lpn != UNMAPPED {
                    // Relocate the still-valid page.
                    self.p2l[p as usize] = UNMAPPED;
                    self.valid[victim as usize] -= 1;
                    let dst = self.alloc_page();
                    self.l2p[lpn as usize] = dst;
                    self.p2l[dst as usize] = lpn;
                    self.valid[(dst / self.erase_block_pages) as usize] += 1;
                    self.stats.nand_writes += 1;
                    self.stats.gc_relocations += 1;
                }
            }
            debug_assert_eq!(self.valid[victim as usize], 0);
            self.stats.erases += 1;
            self.free_ebs.push(victim);
            self.is_free[victim as usize] = true;
        }
        self.in_gc = false;
    }

    /// Write one logical page. Returns nothing; use [`SsdFtl::write_batch`]
    /// for costed writes.
    pub fn host_write(&mut self, lpn: u32) -> WaflResult<()> {
        if lpn >= self.logical_pages {
            return Err(WaflError::VbnOutOfRange {
                vbn: wafl_types::Vbn(lpn as u64),
                space_len: self.logical_pages as u64,
            });
        }
        self.invalidate(lpn);
        let dst = self.alloc_page();
        self.l2p[lpn as usize] = dst;
        self.p2l[dst as usize] = lpn;
        self.valid[(dst / self.erase_block_pages) as usize] += 1;
        self.stats.host_writes += 1;
        self.stats.nand_writes += 1;
        Ok(())
    }

    /// Write a batch of logical pages and return the cost in microseconds:
    /// programs for host pages and relocations, reads for relocations, and
    /// erase time for blocks recycled while absorbing this batch.
    pub fn write_batch(&mut self, lpns: impl IntoIterator<Item = u32>) -> WaflResult<f64> {
        let before = self.stats;
        for lpn in lpns {
            self.host_write(lpn)?;
        }
        let d_nand = self.stats.nand_writes - before.nand_writes;
        let d_reloc = self.stats.gc_relocations - before.gc_relocations;
        let d_erase = self.stats.erases - before.erases;
        Ok((d_nand as f64 * self.program_us
            + d_reloc as f64 * self.read_us
            + d_erase as f64 * self.erase_us)
            / self.channels.max(1.0))
    }

    /// TRIM a logical page: the FS tells the FTL the block no longer holds
    /// live data, so GC need not relocate it. WAFL's delayed frees can be
    /// forwarded here (extension beyond the paper's experiments).
    pub fn trim(&mut self, lpn: u32) -> WaflResult<()> {
        if lpn >= self.logical_pages {
            return Err(WaflError::VbnOutOfRange {
                vbn: wafl_types::Vbn(lpn as u64),
                space_len: self.logical_pages as u64,
            });
        }
        self.invalidate(lpn);
        self.stats.trims += 1;
        Ok(())
    }

    /// Read cost for `pages` random page reads, µs.
    pub fn random_read_cost_us(&self, pages: u64) -> f64 {
        pages as f64 * self.read_us
    }

    /// Total valid (live) pages — equals the number of distinct LPNs ever
    /// written and not trimmed.
    pub fn live_pages(&self) -> u64 {
        self.valid.iter().map(|&v| v as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// The victim scan as it was: every erase block asks the free *list*
    /// whether it is on it.
    pub(super) fn victim_by_list_search(ftl: &SsdFtl) -> u32 {
        ftl.valid
            .iter()
            .enumerate()
            .filter(|&(eb, _)| eb as u32 != ftl.active && !ftl.free_ebs.contains(&(eb as u32)))
            .min_by_key(|&(_, &v)| v)
            .map(|(eb, _)| eb as u32)
            .expect("non-free erase block exists")
    }

    #[test]
    fn flagged_victim_scan_matches_the_list_search() {
        // Same host stream into two FTLs that differ only in how they
        // find a victim: writes skewed towards a hot fifth of the space
        // (many equally empty victims: the tie-break matters), trims in
        // bursts, at a tight and a roomy over-provisioning.
        for (seed, op) in [(11u64, 0.07), (12, 0.28)] {
            let n = 64 * 120;
            let mut flagged = SsdFtl::new(n, 64, op).unwrap();
            let mut searched = SsdFtl::new(n, 64, op).unwrap();
            searched.pick_by_list_search = true;
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..(8 * n as u64) {
                let lpn = if rng.random_range(0..10) < 7 {
                    rng.random_range(0..n / 5)
                } else {
                    rng.random_range(0..n)
                };
                if step % 4096 < 256 {
                    flagged.trim(lpn).unwrap();
                    searched.trim(lpn).unwrap();
                } else {
                    flagged.host_write(lpn).unwrap();
                    searched.host_write(lpn).unwrap();
                }
            }
            assert!(flagged.stats().erases > 100, "the stream must exercise GC");
            assert_eq!(flagged.stats(), searched.stats());
            assert_eq!(flagged.l2p, searched.l2p);
            assert_eq!(flagged.free_ebs, searched.free_ebs);
            for (eb, &free) in flagged.is_free.iter().enumerate() {
                assert_eq!(free, flagged.free_ebs.contains(&(eb as u32)), "eb {eb}");
            }
        }
    }

    #[test]
    fn construction_validates() {
        assert!(SsdFtl::new(0, 64, 0.1).is_err());
        assert!(SsdFtl::new(1024, 0, 0.1).is_err());
        assert!(SsdFtl::new(1024, 64, -0.1).is_err());
        assert!(SsdFtl::new(1024, 64, 1.5).is_err());
        assert!(SsdFtl::new(1024, 64, 0.07).is_ok());
    }

    #[test]
    fn first_fill_has_unit_write_amplification() {
        let mut ssd = SsdFtl::new(64 * 100, 64, 0.1).unwrap();
        for lpn in 0..64 * 100 {
            ssd.host_write(lpn).unwrap();
        }
        assert_eq!(ssd.write_amplification(), 1.0);
        assert_eq!(ssd.live_pages(), 64 * 100);
    }

    #[test]
    fn sequential_overwrite_stays_near_unit_wa() {
        // Overwriting the whole device in LPN order keeps invalidations
        // clustered: GC victims are empty, WA stays ~1.
        let n = 64 * 200;
        let mut ssd = SsdFtl::new(n, 64, 0.1).unwrap();
        for round in 0..4 {
            for lpn in 0..n {
                ssd.host_write(lpn).unwrap();
            }
            let wa = ssd.write_amplification();
            assert!(wa < 1.1, "round {round}: WA {wa} should be ~1");
        }
    }

    #[test]
    fn random_overwrite_amplifies_more_than_sequential() {
        let n = 64 * 200;
        let mut seq = SsdFtl::new(n, 64, 0.1).unwrap();
        let mut rnd = SsdFtl::new(n, 64, 0.1).unwrap();
        // Pre-fill both.
        for lpn in 0..n {
            seq.host_write(lpn).unwrap();
            rnd.host_write(lpn).unwrap();
        }
        seq.reset_stats();
        rnd.reset_stats();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..(4 * n as u64) {
            seq.host_write((i % n as u64) as u32).unwrap();
            rnd.host_write(rng.random_range(0..n)).unwrap();
        }
        let (wa_seq, wa_rnd) = (seq.write_amplification(), rnd.write_amplification());
        assert!(wa_seq < 1.1, "sequential WA {wa_seq}");
        assert!(
            wa_rnd > wa_seq + 0.3,
            "random WA {wa_rnd} must exceed sequential {wa_seq}"
        );
    }

    #[test]
    fn lower_op_worsens_random_wa() {
        // Classic FTL behaviour the paper leans on when it says AA sizing
        // "enabled NetApp to ship SSDs with significantly lower OP".
        let n = 64 * 200;
        let mut tight = SsdFtl::new(n, 64, 0.05).unwrap();
        let mut roomy = SsdFtl::new(n, 64, 0.30).unwrap();
        for lpn in 0..n {
            tight.host_write(lpn).unwrap();
            roomy.host_write(lpn).unwrap();
        }
        tight.reset_stats();
        roomy.reset_stats();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..(4 * n as u64) {
            let l = rng.random_range(0..n);
            tight.host_write(l).unwrap();
            roomy.host_write(l).unwrap();
        }
        assert!(
            tight.write_amplification() > roomy.write_amplification(),
            "tight {} <= roomy {}",
            tight.write_amplification(),
            roomy.write_amplification()
        );
    }

    #[test]
    fn trim_reduces_wa_under_random_load() {
        let n = 64 * 200;
        let mut no_trim = SsdFtl::new(n, 64, 0.1).unwrap();
        let mut with_trim = SsdFtl::new(n, 64, 0.1).unwrap();
        for lpn in 0..n {
            no_trim.host_write(lpn).unwrap();
            with_trim.host_write(lpn).unwrap();
        }
        // Trim half the space on one device.
        for lpn in (0..n).step_by(2) {
            with_trim.trim(lpn).unwrap();
        }
        no_trim.reset_stats();
        with_trim.reset_stats();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..(2 * n as u64) {
            let l = rng.random_range(0..n);
            no_trim.host_write(l).unwrap();
            with_trim.host_write(l).unwrap();
        }
        assert!(with_trim.write_amplification() < no_trim.write_amplification());
    }

    #[test]
    fn write_batch_cost_includes_gc() {
        let n = 64 * 50;
        let mut ssd = SsdFtl::new(n, 64, 0.07).unwrap();
        let fill: f64 = ssd.write_batch(0..n).unwrap();
        assert!(fill >= n as f64 * ssd.program_us / ssd.channels);
        // Random churn must cost more per page than the clean fill did.
        let mut rng = StdRng::seed_from_u64(4);
        let churn: Vec<u32> = (0..2 * n).map(|_| rng.random_range(0..n)).collect();
        let churn_cost = ssd.write_batch(churn.iter().copied()).unwrap();
        let per_page_fill = fill / n as f64;
        let per_page_churn = churn_cost / (2 * n) as f64;
        assert!(per_page_churn > per_page_fill);
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut ssd = SsdFtl::new(128, 64, 0.1).unwrap();
        assert!(ssd.host_write(128).is_err());
        assert!(ssd.trim(usize::MAX as u32).is_err());
    }

    #[test]
    fn mapping_stays_consistent_under_churn() {
        // Invariant check: live pages == distinct written LPNs, and every
        // l2p entry round-trips through p2l.
        let n = 64 * 80;
        let mut ssd = SsdFtl::new(n, 64, 0.12).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut written = std::collections::HashSet::new();
        for _ in 0..(6 * n as u64) {
            let l = rng.random_range(0..n);
            ssd.host_write(l).unwrap();
            written.insert(l);
        }
        assert_eq!(ssd.live_pages(), written.len() as u64);
        for (lpn, &phys) in ssd.l2p.iter().enumerate() {
            if phys != UNMAPPED {
                assert_eq!(ssd.p2l[phys as usize], lpn as u32);
            }
        }
    }
}
