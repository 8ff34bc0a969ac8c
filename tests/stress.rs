//! Randomized full-system stress: interleaves every mutating operation
//! the stack supports — overwrites, deletes, snapshots, segment cleaning,
//! aggregate growth, crash/remount, delayed-free draining — and audits
//! the cross-structure invariants with `iron::check` after every phase.
//! A model of the live logicals per volume, advanced by each client op,
//! must agree with `lookup_logical` after every CP: the structures
//! agreeing with each other does not show that the client's last op on
//! a block is what the CP kept.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use wafl_repro::fs::snapshot::SnapshotId;
use wafl_repro::fs::{
    cleaning, iron, mount, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec,
};
use wafl_repro::media::MediaProfile;
use wafl_repro::types::{VolumeId, WaflError};

struct Driver {
    agg: Aggregate,
    rng: StdRng,
    snaps: Vec<(VolumeId, SnapshotId)>,
    image: Option<wafl_repro::fs::mount::TopAaImage>,
    /// The logicals each volume's client has written and not deleted
    /// since.
    live: Vec<BTreeSet<u64>>,
}

impl Driver {
    fn new(seed: u64, batched_frees: bool) -> Driver {
        let spec = RaidGroupSpec {
            data_devices: 3,
            parity_devices: 1,
            device_blocks: 8 * 4096,
            profile: MediaProfile::hdd(),
        };
        let agg = Aggregate::new(
            AggregateConfig {
                batched_frees,
                free_pages_per_cp: 2,
                ..AggregateConfig::single_group(spec)
            },
            &[
                (
                    FlexVolConfig {
                        size_blocks: 4 * 32768,
                        aa_cache: true,
                        aa_blocks: None,
                    },
                    25_000,
                ),
                (
                    FlexVolConfig {
                        size_blocks: 2 * 32768,
                        aa_cache: false,
                        aa_blocks: None,
                    },
                    15_000,
                ),
            ],
            seed,
        )
        .unwrap();
        Driver {
            agg,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED),
            snaps: Vec::new(),
            image: None,
            live: vec![BTreeSet::new(); 2],
        }
    }

    fn random_vol(&mut self) -> (VolumeId, u64) {
        if self.rng.random_bool(0.7) {
            (VolumeId(0), 25_000)
        } else {
            (VolumeId(1), 15_000)
        }
    }

    fn overwrite(&mut self, vol: VolumeId, l: u64) {
        self.agg.client_overwrite(vol, l).unwrap();
        self.live[vol.index()].insert(l);
    }

    fn delete(&mut self, vol: VolumeId, l: u64) {
        self.agg.client_delete(vol, l).unwrap();
        self.live[vol.index()].remove(&l);
    }

    /// Run a CP, then hold every logical's mapping to the model.
    fn cp(&mut self, step: u32) {
        self.agg.run_cp().unwrap();
        for (vol, live) in self.agg.volumes().iter().zip(&self.live) {
            for l in 0..vol.logical_blocks() {
                assert_eq!(
                    vol.lookup_logical(l).is_some(),
                    live.contains(&l),
                    "step {step}: {} logical {l}",
                    vol.id
                );
            }
        }
    }

    fn phase(&mut self, step: u32) {
        match step % 11 {
            // Bursts of overwrites with a delete in twenty, CP'd.
            0..=4 => {
                for _ in 0..self.rng.random_range(500..3000) {
                    let (vol, ws) = self.random_vol();
                    let l = self.rng.random_range(0..ws);
                    if self.rng.random_range(0..20) == 0 {
                        self.delete(vol, l);
                    } else {
                        self.overwrite(vol, l);
                    }
                }
                self.cp(step);
            }
            // Deletions.
            5 => {
                for _ in 0..self.rng.random_range(100..1000) {
                    let (vol, ws) = self.random_vol();
                    let l = self.rng.random_range(0..ws);
                    self.delete(vol, l);
                }
                self.cp(step);
            }
            // Snapshot create (bounded count to keep occupancy in range).
            6 => {
                if self.snaps.len() < 2 {
                    let (vol, _) = self.random_vol();
                    let id = self.agg.snapshot_create(vol).unwrap();
                    self.snaps.push((vol, id));
                }
            }
            // Snapshot delete.
            7 => {
                if !self.snaps.is_empty() {
                    let i = self.rng.random_range(0..self.snaps.len());
                    let (vol, id) = self.snaps.swap_remove(i);
                    self.agg.snapshot_delete(vol, id).unwrap();
                    self.cp(step);
                }
            }
            // Segment cleaning of a random group.
            8 => {
                let g = self.rng.random_range(0..self.agg.groups().len());
                // The only refusal there is: a group with no heap cache.
                match cleaning::clean_top_aas(&mut self.agg, g, 1) {
                    Ok(_) | Err(WaflError::InvalidConfig { .. }) => {}
                    Err(e) => panic!("cleaning group {g}: {e}"),
                }
            }
            // Crash and remount (alternating paths).
            9 => {
                let image = self
                    .image
                    .take()
                    .unwrap_or_else(|| mount::save_topaa(&self.agg));
                mount::crash(&mut self.agg);
                if self.rng.random_bool(0.5) {
                    // The image may be stale (taken a phase ago): safety
                    // over quality, like a lagging TopAA write.
                    if mount::mount_with_topaa(&mut self.agg, &image).is_err() {
                        mount::mount_cold(&mut self.agg).unwrap();
                    }
                    mount::complete_background_rebuild(&mut self.agg).unwrap();
                } else {
                    mount::mount_cold(&mut self.agg).unwrap();
                }
            }
            // Stash a TopAA image to use (stale) at the next crash; grow
            // the aggregate once mid-run.
            _ => {
                self.image = Some(mount::save_topaa(&self.agg));
                if self.agg.groups().len() < 2 {
                    self.agg
                        .add_raid_group(RaidGroupSpec {
                            data_devices: 3,
                            parity_devices: 1,
                            device_blocks: 8 * 4096,
                            profile: MediaProfile::hdd(),
                        })
                        .unwrap();
                }
            }
        }
    }

    fn audit(&mut self, step: u32) {
        // Drain pending reclamation so iron's leak accounting is exact,
        // then audit everything.
        while self.agg.free_log().pending() > 0 {
            self.cp(step);
        }
        // A stale TopAA mount can leave heap scores lagging until the
        // background rebuild runs; finish it before auditing.
        mount::complete_background_rebuild(&mut self.agg).unwrap();
        let report = iron::check(&self.agg).unwrap();
        // Stale-score drift from lagging TopAA images is repairable, not
        // corruption; everything else must be pristine.
        assert_eq!(report.broken_mappings, 0, "step {step}: {report:?}");
        assert_eq!(report.owner_mismatches, 0, "step {step}: {report:?}");
        assert_eq!(report.leaked_blocks, 0, "step {step}: {report:?}");
        assert_eq!(
            report.volume_accounting_errors, 0,
            "step {step}: {report:?}"
        );
        if report.stale_scores > 0 {
            iron::repair(&mut self.agg).unwrap();
            let fixed = iron::check(&self.agg).unwrap();
            assert!(fixed.is_clean(), "step {step}: unrepairable {fixed:?}");
        }
    }
}

/// 44 phases of one seed, audited every 11.
fn lifecycle(seed: u64, batched_frees: bool) {
    let mut d = Driver::new(seed, batched_frees);
    for step in 0..44 {
        d.phase(step);
        if step % 11 == 10 {
            d.audit(step);
        }
    }
    d.audit(u32::MAX);
}

#[test]
fn randomized_lifecycle_keeps_every_invariant() {
    for seed in [1u64, 2, 3] {
        lifecycle(seed, false);
    }
}

#[test]
fn randomized_lifecycle_with_batched_frees() {
    lifecycle(7, true);
}

/// The `scripts/ci.sh --torture` sweep: many seeds, each with frees
/// applied at once and batched. Release-only (ignored by the default
/// test run).
#[test]
#[ignore = "release-mode sweep: run via scripts/ci.sh --torture"]
fn randomized_lifecycle_seed_sweep() {
    for seed in 0..64 {
        lifecycle(seed, false);
        lifecycle(seed, true);
    }
}
