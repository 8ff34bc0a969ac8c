//! CRC-64 page seals (the TopAA image's integrity check): a page whose
//! payload fills all 4 088 bytes, and one whose payload is 256 bytes
//! followed by zeros, like a 64-AA volume's HBPS list page. Together they
//! are the per-page cost behind `core.hbps_to_pages_us` and
//! `core.hbps_from_pages_us`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wafl_types::{crc64, BLOCK_SIZE, TOPAA_CRC_BYTES};

/// A page whose first `used` bytes are non-zero and the rest zero.
fn page(used: usize) -> [u8; BLOCK_SIZE] {
    let mut page = [0u8; BLOCK_SIZE];
    for (i, b) in page[..used].iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31) | 1;
    }
    page
}

fn seal(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc64");
    for (name, used) in [
        ("seal_page_full", BLOCK_SIZE - TOPAA_CRC_BYTES),
        ("seal_page_256_used", 256),
    ] {
        let mut p = page(used);
        group.bench_function(name, |b| b.iter(|| crc64::seal_page(black_box(&mut p))));
    }
    group.finish();
}

criterion_group!(benches, seal);
criterion_main!(benches);
