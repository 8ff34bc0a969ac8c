//! Golden digests of the TopAA image: the on-media format, pinned.
//!
//! `docs/recovery.md` fixes every persisted page byte for byte: a heap
//! group's TopAA block, both HBPS pages of an object-store range and of
//! each volume, each sealed with a trailing CRC-64. Each test below ages
//! one small seeded geometry, saves its image with `mount::save_topaa`
//! and folds every page, in image order, into one FNV-1a digest. The
//! constants were recorded at commit 1bbca1f, before the CRC kernel
//! learned to skip zero tails; a kernel that returns a different CRC for
//! any page, or a serializer that lays a page out differently, moves a
//! constant.

use wafl_fs::mount::{self, RgTopAa, TopAaImage};
use wafl_fs::{aging, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{AaSizingPolicy, VolumeId, BLOCK_SIZE};

/// FNV-1a over every page of `image`, each preceded by a tag naming
/// which structure and which of its pages it is.
fn digest(image: &TopAaImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut page = |tag: u8, index: usize, bytes: &[u8; BLOCK_SIZE]| {
        eat(&[tag]);
        eat(&(index as u64).to_le_bytes());
        eat(bytes);
    };
    for (i, block) in image.rg_blocks.iter().enumerate() {
        match block {
            None => {}
            Some(RgTopAa::Heap(p)) => page(b'h', i, p),
            Some(RgTopAa::Hbps(hist, list)) => {
                page(b'g', i, hist);
                page(b'l', i, list);
            }
        }
    }
    for (i, pages) in image.vol_pages.iter().enumerate() {
        if let Some((hist, list)) = pages {
            page(b'v', i, hist);
            page(b'w', i, list);
        }
    }
    h
}

fn overwrite_cp(a: &mut Aggregate, vol: u32, logicals: impl IntoIterator<Item = u64>) {
    for l in logicals {
        a.client_overwrite(VolumeId(vol), l).unwrap();
    }
    a.run_cp().unwrap();
}

/// One HDD group (max-heap), one object-store range (HBPS) and one
/// volume, half filled and overwritten in strides: the three kinds of
/// page, with the heap block partly sentinel.
#[test]
fn heap_group_hbps_range_and_volume() {
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
    let image = mount::save_topaa(&a);
    assert_eq!(image.block_count(), 1 + 2 + 2);
    assert_eq!(digest(&image), 0xf331_9ebe_b238_6dfa);
}

/// Six aged volumes on one HDD group of 2 048 AAs: a heap block with all
/// 511 entries used, and twelve volume pages of differing fill.
#[test]
fn many_volume_aggregate() {
    let vols = 6;
    let mut a = Aggregate::new(
        AggregateConfig {
            aa_policy_override: Some(AaSizingPolicy::Stripes { stripes: 64 }),
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
                12_000,
            );
            vols
        ],
        3,
    )
    .unwrap();
    for v in 0..vols {
        let vol = VolumeId(v as u32);
        aging::fill_volume(&mut a, vol, 4096).unwrap();
        aging::random_overwrite_churn(&mut a, vol, 2_000 * (v as u64 + 1), 4096, v as u64).unwrap();
    }
    let image = mount::save_topaa(&a);
    assert_eq!(image.block_count(), 1 + 2 * vols as u64);
    assert_eq!(digest(&image), 0x9460_e7e2_053d_31da);
}
