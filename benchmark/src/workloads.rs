//! The four workloads: what each builds, how it ages the file system
//! before the clock starts, and the op stream it then measures.
//!
//! Every size here is part of the benchmark's definition — changing one
//! changes what the recorded numbers mean. `--seed` reaches only the
//! generators in this file, never the library.

use crate::stats::{derive_seed, Fnv64};
use wafl_fs::{aging, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, WaflResult};
use wafl_workloads::{FileChurn, OltpMix, Op, RandomOverwrite, SequentialWrite, Workload};

/// HDD AA height: 4 Ki stripes (the library default).
const STRIPES_PER_AA: u64 = 4096;
/// Write/delete ops per half of a mount cycle (the paper's §4.4 "first
/// CP after mount" size).
pub const MOUNT_BATCH: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    AgedOverwrite,
    FreshSequential,
    NearfullChurn,
    MountCycle,
}

pub const ALL: [Kind; 4] = [
    Kind::AgedOverwrite,
    Kind::FreshSequential,
    Kind::NearfullChurn,
    Kind::MountCycle,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::AgedOverwrite => "aged_overwrite",
            Kind::FreshSequential => "fresh_sequential",
            Kind::NearfullChurn => "nearfull_churn",
            Kind::MountCycle => "mount_cycle",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// CPs run after set-up and before the clock starts, so caches,
    /// cursors and the allocator's buffers are in their steady state.
    /// Two workloads go on ageing after set-up, and the window starts
    /// once they have stopped. Every mount leaves the AAs it was filling
    /// half used, so under `mount_cycle` CPs get dearer (1.2 -> 2.4 ms)
    /// for some 300 cycles. `nearfull_churn`'s FTL reaches its steady
    /// write amplification only after ~8 M writes and deletes, its CPs
    /// getting dearer (1.1 -> 1.75 ms) all the while; ageing it that far
    /// in every set-up would cost 6 s each, here it is paid once.
    pub fn warmup_cps(self) -> usize {
        match self {
            Kind::NearfullChurn => 2304,
            Kind::MountCycle => 768,
            _ => 32,
        }
    }

    /// Write/delete ops between consistency points in the timed window.
    pub fn ops_per_cp(self) -> usize {
        match self {
            Kind::AgedOverwrite | Kind::FreshSequential => 8192,
            Kind::NearfullChurn => 4096,
            Kind::MountCycle => MOUNT_BATCH,
        }
    }
}

/// Alternates one `FileChurn` op (round-robin over the volumes) with one
/// `OltpMix` op: deletes and reads beside writes, on every volume.
struct ChurnMix {
    churn: Vec<FileChurn>,
    oltp: OltpMix,
    tick: usize,
}

impl Workload for ChurnMix {
    fn next_op(&mut self) -> Op {
        let tick = self.tick;
        self.tick += 1;
        if tick.is_multiple_of(2) {
            let n = self.churn.len();
            self.churn[(tick / 2) % n].next_op()
        } else {
            self.oltp.next_op()
        }
    }
}

/// The benchmark's own record of which logical blocks are written and
/// not deleted, per volume — what the end-of-run check compares the file
/// system's mappings against.
pub struct Shadow {
    live: Vec<Vec<u64>>,
}

impl Shadow {
    fn new(logical_blocks: &[u64]) -> Shadow {
        Shadow {
            live: logical_blocks
                .iter()
                .map(|&n| vec![0u64; (n as usize).div_ceil(64)])
                .collect(),
        }
    }

    #[inline]
    fn apply(&mut self, op: Op) {
        match op {
            Op::Write { vol, logical } => {
                self.live[vol.index()][(logical / 64) as usize] |= 1 << (logical % 64)
            }
            Op::Delete { vol, logical } => {
                self.live[vol.index()][(logical / 64) as usize] &= !(1 << (logical % 64))
            }
            Op::Read { .. } => {}
        }
    }

    pub fn is_live(&self, vol: usize, logical: u64) -> bool {
        self.live[vol][(logical / 64) as usize] >> (logical % 64) & 1 == 1
    }

    pub fn live_blocks(&self, vol: usize) -> u64 {
        self.live[vol].iter().map(|w| w.count_ones() as u64).sum()
    }

    fn fill(&mut self, vol: usize, logical_blocks: u64) {
        for l in 0..logical_blocks {
            self.apply(Op::Write {
                vol: VolumeId(vol as u32),
                logical: l,
            });
        }
    }
}

/// A seeded op stream plus everything the benchmark derives from it
/// outside the timed spans: the shadow live-set and the stream hash.
pub struct Stream {
    gen: Box<dyn Workload>,
    pub shadow: Shadow,
    pub hash: Fnv64,
    pub generated: u64,
    /// Blocks deleted in the batch being filled (same shape as the
    /// shadow), and the op held over to the next batch because of it.
    deleted: Shadow,
    held: Option<Op>,
}

/// What [`Stream::fill`] put into the buffer.
#[derive(Clone, Copy, Default)]
pub struct Batch {
    pub reads: u64,
    /// Writes and deletes: `mutations` asked for, fewer if cut short.
    pub mutations: u64,
}

impl Stream {
    /// Refill `buf` with the next ops up to and including the
    /// `mutations`-th write/delete (reads ride along uncounted, as in
    /// `wafl_workloads::run`).
    ///
    /// A batch is cut short before a write to a block deleted earlier
    /// in the same batch: `run_cp` binds a CP's writes before it applies
    /// the CP's queued deletes, so that write would be lost (a finding
    /// of this benchmark, see the README). The write opens the next
    /// batch instead and the result is the same under either order.
    pub fn fill(&mut self, buf: &mut Vec<Op>, mutations: usize) -> Batch {
        buf.clear();
        let mut batch = Batch::default();
        while batch.mutations < mutations as u64 {
            let op = self.held.take().unwrap_or_else(|| self.gen.next_op());
            let (tag, vol, logical) = match op {
                Op::Write { vol, logical } => (1, vol, logical),
                Op::Read { vol, logical } => (2, vol, logical),
                Op::Delete { vol, logical } => (3, vol, logical),
            };
            if tag == 1 && self.deleted.is_live(vol.index(), logical) {
                self.held = Some(op);
                break;
            }
            self.hash.mix(tag << 32 | vol.get() as u64);
            self.hash.mix(logical);
            self.shadow.apply(op);
            match tag {
                2 => batch.reads += 1,
                3 => {
                    self.deleted.apply(Op::Write { vol, logical });
                    batch.mutations += 1;
                }
                _ => batch.mutations += 1,
            }
            buf.push(op);
        }
        for &op in buf.iter() {
            if let Op::Delete { vol, logical } = op {
                self.deleted.apply(Op::Delete { vol, logical });
            }
        }
        self.generated += buf.len() as u64;
        batch
    }
}

/// A file system ready for its timed window.
pub struct Ready {
    pub agg: Aggregate,
    pub stream: Stream,
}

/// Geometry of a workload's file system: the aggregate configuration
/// and each volume's configuration and logical (client-visible) size.
struct Shape {
    cfg: AggregateConfig,
    vols: Vec<(FlexVolConfig, u64)>,
}

fn group(device_blocks: u64, profile: MediaProfile) -> RaidGroupSpec {
    RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks,
        profile,
    }
}

fn volume(size_blocks: u64, aa_blocks: Option<u64>) -> FlexVolConfig {
    FlexVolConfig {
        size_blocks,
        aa_cache: true,
        aa_blocks,
    }
}

/// Everything not set here is `AggregateConfig::single_group` defaults
/// — `write_shards` included, so the benchmark measures what users get.
fn shape(kind: Kind) -> Shape {
    let hdd = || group(256 * STRIPES_PER_AA, MediaProfile::hdd());
    match kind {
        Kind::AgedOverwrite => {
            // §4.1: one volume filling 55 % of the aggregate. 2 048
            // virtual AAs exceed the 1 000-entry HBPS list page.
            let cfg = AggregateConfig::single_group(hdd());
            let pvbns = cfg.total_data_blocks();
            let vols = vec![(volume(pvbns, Some(2048)), pvbns * 55 / 100)];
            Shape { cfg, vols }
        }
        Kind::FreshSequential => {
            let cfg = AggregateConfig::single_group(hdd());
            let vols = vec![(volume(cfg.total_data_blocks(), None), 1 << 20)];
            Shape { cfg, vols }
        }
        Kind::NearfullChurn => {
            let ssd = group(64 * STRIPES_PER_AA, MediaProfile::ssd());
            let mut cfg = AggregateConfig::single_group(ssd.clone());
            cfg.raid_groups.push(ssd);
            cfg.batched_frees = true;
            let logical = cfg.total_data_blocks() * 90 / 100 / 4;
            let vols = vec![(volume(1 << 20, Some(2048)), logical); 4];
            Shape { cfg, vols }
        }
        Kind::MountCycle => {
            // §4.4: many volumes, so the TopAA image, the per-volume
            // cache rebuilds and the 32-way CP fan-out dominate.
            let mut cfg = AggregateConfig::single_group(hdd());
            cfg.raid_groups.push(hdd());
            let vols = vec![(volume(64 * 32768, None), 40_000); 32];
            Shape { cfg, vols }
        }
    }
}

/// The workload's op stream, from `seed` alone (no file system).
pub fn stream(kind: Kind, seed: u64) -> Stream {
    let vols = shape(kind).vols;
    let working_sets: Vec<(VolumeId, u64)> = vols
        .iter()
        .enumerate()
        .map(|(v, &(_, logical))| (VolumeId(v as u32), logical))
        .collect();
    let (vol0, logical0) = working_sets[0];
    let gen: Box<dyn Workload> = match kind {
        Kind::AgedOverwrite => Box::new(RandomOverwrite::new(vol0, logical0, derive_seed(seed, 2))),
        Kind::FreshSequential => {
            // The only seed-dependent input a sequential stream has is
            // where it starts.
            let mut gen = SequentialWrite::new(vol0, logical0);
            for _ in 0..derive_seed(seed, 2) % logical0 {
                gen.next_op();
            }
            Box::new(gen)
        }
        Kind::NearfullChurn => {
            const FILE_BLOCKS: u64 = 64;
            let churn = working_sets
                .iter()
                .map(|&(vol, logical)| {
                    let slots = logical / FILE_BLOCKS;
                    let max_live = (slots * 95 / 100) as usize;
                    let seed = derive_seed(derive_seed(seed, 1), vol.get() as u64);
                    FileChurn::new(vol, FILE_BLOCKS, slots, max_live, seed)
                })
                .collect();
            Box::new(ChurnMix {
                churn,
                oltp: OltpMix::new(working_sets, 0.8, derive_seed(seed, 2)),
                tick: 0,
            })
        }
        Kind::MountCycle => Box::new(OltpMix::new(working_sets, 0.0, derive_seed(seed, 2))),
    };
    let logical: Vec<u64> = vols.iter().map(|&(_, logical)| logical).collect();
    Stream {
        gen,
        shadow: Shadow::new(&logical),
        hash: Fnv64::default(),
        generated: 0,
        deleted: Shadow::new(&logical),
        held: None,
    }
}

/// Issue one client op.
#[inline]
pub fn apply(agg: &mut Aggregate, op: Op) -> WaflResult<()> {
    match op {
        Op::Write { vol, logical } => agg.client_overwrite(vol, logical),
        Op::Delete { vol, logical } => agg.client_delete(vol, logical),
        Op::Read { vol, logical } => agg.client_read(vol, logical).map(|cost_us| {
            std::hint::black_box(cost_us);
        }),
    }
}

/// Push ops through the file system outside any timed span (aging).
fn drive(
    agg: &mut Aggregate,
    stream: &mut Stream,
    mutations: u64,
    ops_per_cp: usize,
) -> WaflResult<()> {
    let mut buf = Vec::new();
    let mut done = 0u64;
    while done < mutations {
        stream.fill(&mut buf, ops_per_cp);
        buf.iter().try_for_each(|&op| apply(agg, op))?;
        agg.run_cp()?;
        done += ops_per_cp as u64;
    }
    Ok(())
}

/// Build the workload's file system and age it; the set-up seeds derive
/// from `seed`, so an unseen seed re-ages the file system too.
pub fn set_up(kind: Kind, seed: u64) -> WaflResult<Ready> {
    let Shape { cfg, vols } = shape(kind);
    let mut agg = Aggregate::new(cfg, &vols, 0)?;
    let mut stream = stream(kind, seed);
    let ops_per_cp = kind.ops_per_cp();
    let total_logical: u64 = vols.iter().map(|&(_, logical)| logical).sum();
    if kind == Kind::NearfullChurn {
        // Age with the window's own mix until every volume churns at
        // its live-file cap (≈ 13 % of the aggregate left free).
        drive(&mut agg, &mut stream, total_logical * 12 / 10, ops_per_cp)?;
        agg.reset_media_stats();
    } else {
        // One sequential pass over every volume. On `fresh_sequential`
        // this is all the aging there is: the window then measures the
        // steady state (sequential *over*write) from its first CP,
        // however many ops the host fits into `--seconds`.
        for (v, &(_, logical)) in vols.iter().enumerate() {
            aging::fill_volume(&mut agg, VolumeId(v as u32), 8192)?;
            stream.shadow.fill(v, logical);
        }
    }
    match kind {
        // §4.1: "thoroughly fragmented by applying heavy random write
        // traffic".
        Kind::AgedOverwrite => {
            let aging_seed = derive_seed(seed, 1);
            aging::random_overwrite_churn(
                &mut agg,
                VolumeId(0),
                2 * total_logical,
                ops_per_cp,
                aging_seed,
            )?;
        }
        // The same for all 32 volumes, with the window's own stream:
        // the window's length is the host's, so its file system must
        // not still be ageing while it is measured.
        Kind::MountCycle => drive(&mut agg, &mut stream, 2 * total_logical, 8192)?,
        _ => {}
    }
    Ok(Ready { agg, stream })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash of the first CPs' worth of a workload's stream — generators
    /// only, no file system.
    fn ops_hash(kind: Kind, seed: u64) -> u64 {
        let mut stream = stream(kind, seed);
        let mut buf = Vec::new();
        for _ in 0..4 {
            stream.fill(&mut buf, 512);
        }
        stream.hash.0
    }

    #[test]
    fn same_seed_same_ops_hash_different_seed_different_hash() {
        for kind in ALL {
            assert_eq!(ops_hash(kind, 7), ops_hash(kind, 7), "{}", kind.name());
            assert_ne!(ops_hash(kind, 7), ops_hash(kind, 8), "{}", kind.name());
        }
    }

    #[test]
    fn fill_counts_mutations_and_tracks_the_live_set() {
        let mut stream = stream(Kind::NearfullChurn, 3);
        let mut buf = Vec::new();
        let batch = stream.fill(&mut buf, 1000);
        assert_eq!(batch.mutations, 1000);
        assert_eq!(buf.len() as u64, 1000 + batch.reads);
        assert_eq!(stream.generated, buf.len() as u64);
        assert!(batch.reads > 500, "reads {}", batch.reads);
        let mut replay = Shadow::new(&[1 << 19; 4]);
        buf.iter().for_each(|&op| replay.apply(op));
        let live: u64 = (0..4).map(|v| stream.shadow.live_blocks(v)).sum();
        assert!(live > 0);
        assert_eq!(live, (0..4).map(|v| replay.live_blocks(v)).sum::<u64>());
    }

    #[test]
    fn names_round_trip() {
        for kind in ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }
}
