//! The SSD FTL's write path at the benchmark's device geometry: 64 × 4 096
//! pages, 512-page erase blocks, 7 % over-provisioning, aged by a fill and
//! one device's worth of random chain overwrites, so that every batch
//! makes the collector relocate. Each iteration feeds CP-sized batches of
//! chains, and each case reports ns per NAND page programmed (host writes
//! plus relocations), the unit the collector's cost scales with.
//!
//! Ten devices — the `nearfull_churn` workload's two 4 + 1 groups — hold
//! maps that together outgrow the L2 cache, so their page moves wait on
//! cache misses that one device's maps mostly hit. The benchmark's probe
//! `media.ssd_write_ns_per_page` drives one small FTL, so this bench shows
//! both beside each other.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wafl_media::SsdFtl;

const PAGES: u32 = 64 * 4096;
const ERASE_BLOCK_PAGES: u32 = 512;
const OP: f64 = 0.07;
/// Host pages a `nearfull_churn` CP writes to each device, in chains of
/// `CHAIN` pages.
const CP_PAGES: u32 = 344;
const CHAIN: u32 = 8;
/// CP batches per device per iteration.
const CPS: usize = 16;

/// One CP's writes to a device: `CP_PAGES / CHAIN` chains at random
/// offsets.
fn cp_batch(rng: &mut StdRng, out: &mut Vec<u32>) {
    out.clear();
    for _ in 0..CP_PAGES / CHAIN {
        let start = rng.random_range(0..PAGES - CHAIN);
        out.extend(start..start + CHAIN);
    }
}

fn aged_ftl(seed: u64) -> SsdFtl {
    let mut ftl = SsdFtl::new(PAGES, ERASE_BLOCK_PAGES, OP).expect("valid SSD");
    ftl.write_batch(0..PAGES).expect("pages in range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::new();
    for _ in 0..PAGES / CP_PAGES {
        cp_batch(&mut rng, &mut batch);
        ftl.write_batch(batch.iter().copied())
            .expect("pages in range");
    }
    ftl
}

fn write_batches(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssd/cp_chain_batches");
    for devices in [1u64, 10] {
        let mut ftls: Vec<SsdFtl> = (0..devices).map(aged_ftl).collect();
        let mut rng = StdRng::seed_from_u64(99);
        let mut batches = vec![Vec::new(); CPS * ftls.len()];
        let (mut spent, mut nand) = (Duration::ZERO, 0u64);
        let name = format!("{devices}_devices");
        g.bench_function(&name, |b| {
            b.iter(|| {
                for batch in &mut batches {
                    cp_batch(&mut rng, batch);
                }
                let before: u64 = ftls.iter().map(|f| f.stats().nand_writes).sum();
                let t = Instant::now();
                for cp in batches.chunks(ftls.len()) {
                    for (ftl, batch) in ftls.iter_mut().zip(cp) {
                        black_box(ftl.write_batch(batch.iter().copied()).expect("in range"));
                    }
                }
                spent += t.elapsed();
                nand += ftls.iter().map(|f| f.stats().nand_writes).sum::<u64>() - before;
            })
        });
        println!(
            "ssd/cp_chain_batches/{name}: {:.1} ns per NAND page, WA {:.2}",
            spent.as_nanos() as f64 / nand as f64,
            ftls[0].write_amplification()
        );
    }
    g.finish();
}

criterion_group!(benches, write_batches);
criterion_main!(benches);
