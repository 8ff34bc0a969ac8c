//! A page-mapped flash translation layer with greedy garbage collection.
//!
//! Write amplification is not a parameter of this model — it *emerges*
//! from the interaction of the host write pattern with erase-block
//! recycling, which is exactly the phenomenon §3.2.2 of the paper
//! exploits: draining whole (erase-block-aligned) allocation areas makes
//! pages that were written together become invalid together, so the
//! greedy collector finds nearly-empty victims and relocates little.
//!
//! The maps of a device the size of a real one outgrow the CPU's caches,
//! so the FTL works in passes where a page at a time would wait on one
//! cache miss after another. A batch of host writes first checks every
//! LPN's mapping (independent loads whose misses overlap), then writes;
//! the collector first resolves the victim's live pages, then moves them.
//! The greedy victim — the lowest-numbered block among those with the
//! fewest valid pages — comes from an index of the sealed blocks by
//! valid count instead of a scan over every erase block.

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

/// The sealed erase blocks (neither erased nor being programmed) by
/// valid-page count: bit `eb` of row `c` is set when block `eb` is sealed
/// and holds `c` valid pages, and bit `c` of `counts` when row `c` has a
/// bit set. The collector's victim is two first-set-bit scans away.
#[derive(Debug, PartialEq, Eq)]
struct VictimIndex {
    /// Words per row: one bit per erase block.
    words: usize,
    /// One row per valid count, `0..=erase_block_pages`.
    rows: Vec<u64>,
    counts: Vec<u64>,
}

/// Index of the first set bit of `words`.
fn first_set(words: &[u64]) -> Option<usize> {
    let i = words.iter().position(|&w| w != 0)?;
    Some(i * 64 + words[i].trailing_zeros() as usize)
}

impl VictimIndex {
    fn new(erase_blocks: usize, erase_block_pages: u32) -> VictimIndex {
        let words = erase_blocks.div_ceil(64);
        let counts = erase_block_pages as usize + 1;
        VictimIndex {
            words,
            rows: vec![0; counts * words],
            counts: vec![0; counts.div_ceil(64)],
        }
    }

    /// Row `count`'s span of `rows`.
    fn row(&self, count: u32) -> std::ops::Range<usize> {
        let start = count as usize * self.words;
        start..start + self.words
    }

    fn insert(&mut self, eb: u32, count: u32) {
        let row = self.row(count);
        self.rows[row][eb as usize / 64] |= 1 << (eb % 64);
        self.counts[count as usize / 64] |= 1 << (count % 64);
    }

    fn remove(&mut self, eb: u32, count: u32) {
        let row = self.row(count);
        let row = &mut self.rows[row];
        row[eb as usize / 64] &= !(1 << (eb % 64));
        if row.iter().all(|&w| w == 0) {
            self.counts[count as usize / 64] &= !(1 << (count % 64));
        }
    }

    /// The lowest-numbered block among those with the fewest valid pages.
    fn fewest(&self) -> Option<u32> {
        let count = first_set(&self.counts)? as u32;
        first_set(&self.rows[self.row(count)]).map(|eb| eb as u32)
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
    /// The sealed blocks by valid count: the GC's victim candidates.
    victims: VictimIndex,
    /// Pick GC victims by a search of every block, as the code did before
    /// the index (the differential test's reference side).
    #[cfg(test)]
    pick_by_list_search: bool,
    /// Erase block currently being programmed, and its fill level.
    active: u32,
    write_ptr: u32,
    /// GC refills the free list up to this many blocks.
    gc_reserve: usize,
    in_gc: bool,
    /// Reused buffers: a host batch's LPNs, a victim's live LPNs.
    batch: Vec<u32>,
    moving: Vec<u32>,
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
            victims: VictimIndex::new(physical_ebs as usize, erase_block_pages),
            #[cfg(test)]
            pick_by_list_search: false,
            active: 0,
            write_ptr: 0,
            gc_reserve,
            in_gc: false,
            batch: Vec::new(),
            moving: Vec::new(),
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
            let eb = old / self.erase_block_pages;
            let valid = &mut self.valid[eb as usize];
            *valid -= 1;
            if eb != self.active {
                self.victims.remove(eb, *valid + 1);
                self.victims.insert(eb, *valid);
            }
            self.l2p[lpn as usize] = UNMAPPED;
        }
    }

    /// Take an erased block off the free list.
    fn pop_free(&mut self) -> u32 {
        self.free_ebs
            .pop()
            .expect("FTL invariant: free list never empties (OP + reserve)")
    }

    /// Claim the next physical page of the active block, rolling to a new
    /// erase block (and triggering GC) as needed. The full block is
    /// sealed: it joins the victim index.
    fn alloc_page(&mut self) -> u32 {
        if self.write_ptr == self.erase_block_pages {
            self.victims
                .insert(self.active, self.valid[self.active as usize]);
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
    ///
    /// Two passes per victim. The first reads the victim's reverse map and
    /// checks that each live page's forward entry points back at it: those
    /// loads are independent, so their cache misses overlap, and they
    /// bring in the lines the second pass — the moves — then stores to.
    fn run_gc(&mut self) {
        self.in_gc = true;
        let mut moving = std::mem::take(&mut self.moving);
        while self.free_ebs.len() < self.gc_reserve {
            let victim = self.victims.fewest().expect("a sealed erase block exists");
            #[cfg(test)]
            let victim = if self.pick_by_list_search {
                tests::victim_by_list_search(self)
            } else {
                victim
            };
            self.victims.remove(victim, self.valid[victim as usize]);
            let base = victim * self.erase_block_pages;
            let pages = &mut self.p2l[base as usize..(base + self.erase_block_pages) as usize];
            moving.clear();
            for (p, &lpn) in (base..).zip(pages.iter()) {
                if lpn != UNMAPPED {
                    assert_eq!(self.l2p[lpn as usize], p, "FTL maps disagree on LPN {lpn}");
                    moving.push(lpn);
                }
            }
            pages.fill(UNMAPPED);
            debug_assert_eq!(self.valid[victim as usize] as usize, moving.len());
            self.valid[victim as usize] = 0;
            for &lpn in &moving {
                let dst = self.alloc_page();
                self.l2p[lpn as usize] = dst;
                self.p2l[dst as usize] = lpn;
                self.valid[self.active as usize] += 1;
            }
            self.stats.nand_writes += moving.len() as u64;
            self.stats.gc_relocations += moving.len() as u64;
            self.stats.erases += 1;
            self.free_ebs.push(victim);
        }
        self.moving = moving;
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
    ///
    /// A check pass first asserts that each page's two map entries agree
    /// (independent loads: their misses overlap, and the writes then find
    /// the lines in cache), up to the first LPN out of range; the writes
    /// fail there, after those before it.
    pub fn write_batch(&mut self, lpns: impl IntoIterator<Item = u32>) -> WaflResult<f64> {
        let before = self.stats;
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.extend(lpns);
        for &lpn in &batch {
            let Some(&p) = self.l2p.get(lpn as usize) else {
                break;
            };
            if p != UNMAPPED {
                assert_eq!(self.p2l[p as usize], lpn, "FTL maps disagree on LPN {lpn}");
            }
        }
        let written = batch.iter().try_for_each(|&lpn| self.host_write(lpn));
        self.batch = batch;
        written?;
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

    /// Whether `lpn` maps to a physical page: written and not trimmed.
    pub fn is_mapped(&self, lpn: u32) -> bool {
        self.l2p.get(lpn as usize).is_some_and(|&p| p != UNMAPPED)
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

    /// The victim search as it was before the index: every erase block
    /// asks the free *list* whether it is on it.
    pub(super) fn victim_by_list_search(ftl: &SsdFtl) -> u32 {
        ftl.valid
            .iter()
            .enumerate()
            .filter(|&(eb, _)| eb as u32 != ftl.active && !ftl.free_ebs.contains(&(eb as u32)))
            .min_by_key(|&(_, &v)| v)
            .map(|(eb, _)| eb as u32)
            .expect("non-free erase block exists")
    }

    /// The victim index rebuilt from the truth: every block neither
    /// erased nor active, under its valid count.
    fn audit_victims(ftl: &SsdFtl) {
        let mut want = VictimIndex::new(ftl.valid.len(), ftl.erase_block_pages);
        for (eb, &valid) in (0u32..).zip(&ftl.valid) {
            if eb != ftl.active && !ftl.free_ebs.contains(&eb) {
                want.insert(eb, valid);
            }
        }
        assert!(ftl.victims == want, "victim index diverged from the blocks");
    }

    #[test]
    fn indexed_victim_pick_matches_the_list_search() {
        // Same host stream into two FTLs that differ only in how they
        // find a victim, the index audited after every op on both: writes
        // skewed towards a hot fifth of the space (many equally empty
        // victims: the tie-break matters), trims in bursts — in one case
        // a quarter of all ops — at a tight and a roomy over-provisioning.
        // The erase-block counts are 134, 159, 128 (a whole number of
        // index words) and 134 again.
        for (seed, logical_ebs, op, trims_per_4k) in [
            (11u64, 120, 0.07, 256),
            (12, 120, 0.28, 256),
            (13, 117, 0.05, 256),
            (14, 120, 0.07, 1024),
        ] {
            let n = 64 * logical_ebs;
            let mut indexed = SsdFtl::new(n, 64, op).unwrap();
            let mut searched = SsdFtl::new(n, 64, op).unwrap();
            searched.pick_by_list_search = true;
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..(8 * n as u64) {
                let lpn = if rng.random_range(0..10) < 7 {
                    rng.random_range(0..n / 5)
                } else {
                    rng.random_range(0..n)
                };
                for ftl in [&mut indexed, &mut searched] {
                    if step % 4096 < trims_per_4k {
                        ftl.trim(lpn).unwrap();
                    } else {
                        ftl.host_write(lpn).unwrap();
                    }
                    audit_victims(ftl);
                }
            }
            assert!(indexed.stats().erases > 100, "the stream must exercise GC");
            assert_eq!(indexed.stats(), searched.stats());
            assert_eq!(indexed.l2p, searched.l2p);
            assert_eq!(indexed.free_ebs, searched.free_ebs);
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
