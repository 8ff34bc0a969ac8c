//! Figure 10 (§4.4): time for the first CP after boot, with and without
//! TopAA metafiles.
//!
//! (A) sweeps FlexVol size at a fixed volume count; (B) sweeps volume
//! count at a fixed size. With TopAA, the mount path reads a fixed number
//! of metafile blocks (1 per RAID-aware cache + 2 per volume cache), so
//! first-CP time is flat; without it, every bitmap page is walked, so the
//! time grows linearly with capacity.
//!
//! Beside the modelled time each point reports the measured wall time of
//! the two mount calls on this host: the CPU the model does not charge
//! (decoding and CRC-checking the TopAA pages, or rebuilding every cache
//! from the bitmap summaries).

use crate::report::markdown_table;
use crate::Scale;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use wafl_fs::mount::{self, MountStats};
use wafl_fs::{Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::WaflResult;

/// One sweep point.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MountPoint {
    /// Volumes in the aggregate.
    pub volumes: u64,
    /// Size of each volume, blocks.
    pub volume_blocks: u64,
    /// First-CP readiness time with TopAA, µs.
    pub with_topaa_us: f64,
    /// Metafile blocks read with TopAA.
    pub with_topaa_blocks: u64,
    /// First-CP readiness time via the full bitmap walk, µs.
    pub without_topaa_us: f64,
    /// Metafile blocks read without TopAA.
    pub without_topaa_blocks: u64,
    /// Measured wall time of `mount_with_topaa`, µs.
    pub with_topaa_wall_us: f64,
    /// Measured wall time of `mount_cold`, µs.
    pub without_topaa_wall_us: f64,
}

/// Crash-and-mount runs per path; the wall columns report the fastest.
const WALL_REPS: usize = 5;

/// Crash `agg` and remount it with `mount` [`WALL_REPS`] times. Returns
/// the mount's stats (the same on every run) and its fastest wall time,
/// µs.
fn remount(
    agg: &mut Aggregate,
    mount: impl Fn(&mut Aggregate) -> WaflResult<MountStats>,
) -> WaflResult<(MountStats, f64)> {
    let mut fastest = f64::INFINITY;
    let mut stats = MountStats::default();
    for _ in 0..WALL_REPS {
        mount::crash(agg);
        let t0 = Instant::now();
        stats = mount(agg)?;
        fastest = fastest.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok((stats, fastest))
}

/// Full Figure 10 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig10Result {
    /// (A): volume-size sweep at fixed count.
    pub size_sweep: Vec<MountPoint>,
    /// (B): volume-count sweep at fixed size.
    pub count_sweep: Vec<MountPoint>,
}

fn measure(volumes: u64, volume_blocks: u64, device_blocks: u64) -> WaflResult<MountPoint> {
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks,
        profile: MediaProfile::hdd(),
    };
    let vols: Vec<(FlexVolConfig, u64)> = (0..volumes)
        .map(|_| {
            (
                FlexVolConfig {
                    size_blocks: volume_blocks,
                    aa_cache: true,
                    aa_blocks: None,
                },
                // Logical size is irrelevant to mount cost; keep it tiny.
                1024,
            )
        })
        .collect();
    let mut agg = Aggregate::new(AggregateConfig::single_group(spec), &vols, 1)?;
    let image = mount::save_topaa(&agg);
    let (fast, fast_wall_us) = remount(&mut agg, |a| mount::mount_with_topaa(a, &image))?;
    let (cold, cold_wall_us) = remount(&mut agg, mount::mount_cold)?;
    Ok(MountPoint {
        volumes,
        volume_blocks,
        with_topaa_us: fast.first_cp_ready_us,
        with_topaa_blocks: fast.metafile_blocks_read,
        without_topaa_us: cold.first_cp_ready_us,
        without_topaa_blocks: cold.metafile_blocks_read,
        with_topaa_wall_us: fast_wall_us,
        without_topaa_wall_us: cold_wall_us,
    })
}

/// Run the Figure 10 experiment.
pub fn run(scale: Scale) -> WaflResult<Fig10Result> {
    // Aggregate fixed (the paper's 10 TB, scaled down); the sweeps move
    // the volume dimension.
    let device_blocks = scale.ops(64 * 4096, 256 * 4096);
    let vol_unit = scale.ops(16 * 32768, 64 * 32768); // the "100 GB" unit
    let fixed_count = scale.ops(10, 50);
    let mut size_sweep = Vec::new();
    for mult in [1u64, 2, 4, 8, 16] {
        size_sweep.push(measure(fixed_count, vol_unit * mult, device_blocks)?);
    }
    let mut count_sweep = Vec::new();
    for count in [5u64, 10, 20, 40, 80] {
        count_sweep.push(measure(count, vol_unit, device_blocks)?);
    }
    Ok(Fig10Result {
        size_sweep,
        count_sweep,
    })
}

impl Fig10Result {
    /// Render both panels, modelled times normalized to each panel's
    /// smallest TopAA measurement (the paper plots normalized time), and
    /// the measured wall times in µs.
    pub fn to_markdown(&self) -> String {
        let render = |title: &str, pts: &[MountPoint], x: fn(&MountPoint) -> String| {
            let base = pts
                .first()
                .map(|p| p.with_topaa_us)
                .unwrap_or(1.0)
                .max(1e-9);
            let rows: Vec<Vec<String>> = pts
                .iter()
                .map(|p| {
                    vec![
                        x(p),
                        format!("{:.2}", p.with_topaa_us / base),
                        p.with_topaa_blocks.to_string(),
                        format!("{:.2}", p.without_topaa_us / base),
                        p.without_topaa_blocks.to_string(),
                        format!("{:.1}", p.with_topaa_wall_us),
                        format!("{:.1}", p.without_topaa_wall_us),
                    ]
                })
                .collect();
            format!(
                "### {title}\n\n{}",
                markdown_table(
                    &[
                        "x",
                        "TopAA time (norm)",
                        "TopAA blocks",
                        "walk time (norm)",
                        "walk blocks",
                        "TopAA wall µs",
                        "walk wall µs",
                    ],
                    &rows,
                )
            )
        };
        let mut out = String::from("## Figure 10 — first CP after boot\n\n");
        out += &render("(A) volume-size sweep", &self.size_sweep, |p| {
            format!("{} blk/vol", p.volume_blocks)
        });
        out += "\n";
        out += &render("(B) volume-count sweep", &self.count_sweep, |p| {
            format!("{} volumes", p.volumes)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_shapes_hold() {
        let r = run(Scale::Small).unwrap();

        // (A) TopAA time flat in volume size; walk time grows linearly.
        let first = &r.size_sweep[0];
        let last = r.size_sweep.last().unwrap();
        assert_eq!(first.with_topaa_blocks, last.with_topaa_blocks);
        assert!((first.with_topaa_us - last.with_topaa_us).abs() < 1e-6);
        let size_ratio = last.volume_blocks as f64 / first.volume_blocks as f64;
        let time_ratio = last.without_topaa_us / first.without_topaa_us;
        assert!(
            time_ratio > size_ratio * 0.5,
            "walk time should scale with size: x{time_ratio:.1} for x{size_ratio:.0}"
        );
        // Walk is much slower than TopAA at the largest point.
        assert!(last.without_topaa_us > 10.0 * last.with_topaa_us);

        // (B) TopAA blocks grow as 2 per volume + 1 for the group; walk
        // grows with total volume pages.
        let f = &r.count_sweep[0];
        let l = r.count_sweep.last().unwrap();
        assert_eq!(f.with_topaa_blocks, 1 + 2 * f.volumes);
        assert_eq!(l.with_topaa_blocks, 1 + 2 * l.volumes);
        let count_ratio = l.volumes as f64 / f.volumes as f64;
        let walk_ratio = l.without_topaa_us / f.without_topaa_us;
        assert!(walk_ratio > count_ratio * 0.4);
        // TopAA cost per volume is 2 blocks; the walk's is pages-per-vol.
        assert!(l.without_topaa_us > 5.0 * l.with_topaa_us);
        assert!(r.to_markdown().contains("(B) volume-count sweep"));
    }
}
