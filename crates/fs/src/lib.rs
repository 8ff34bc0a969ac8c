//! A copy-on-write file-system simulator reproducing the WAFL structures
//! the paper's evaluation exercises.
//!
//! ONTAP nests two WAFL layers: FlexVol volumes (virtual VBNs) inside an
//! aggregate (physical VBNs); write allocation assigns both numbers for
//! every dirtied block (§2.1). This crate simulates that machinery at the
//! block-number level:
//!
//! * [`Aggregate`] — the physical layer: RAID groups with per-device media
//!   models, the physical activemap, RAID-aware AA caches, and hosted
//!   [`FlexVol`]s with their virtual activemaps and HBPS caches.
//! * [`CpStats`] / [`Aggregate::run_cp`] — the consistency point: take
//!   each volume's queued blocks, allocate virtual + physical VBNs from the
//!   emptiest AAs, apply the delayed frees of overwritten blocks, dirty
//!   bitmap-metafile pages, cost the resulting RAID tetrises against the
//!   media models, and batch-update every AA cache (§3.3).
//! * [`mount`] — unmount/mount with and without TopAA metafiles (§3.4),
//!   measuring the metafile I/O each path needs before the first CP.
//! * [`aging`] — fill/fragment recipes that reproduce the paper's aged
//!   file systems (§4.1's "thoroughly fragmented by applying heavy random
//!   write traffic").
//! * [`cleaning`] — just-in-time segment cleaning of top-of-heap AAs
//!   (§3.3.1), the paper's defragmentation hook.
//!
//! Client operations arrive via [`Aggregate::client_overwrite`] /
//! [`Aggregate::client_delete`] / [`Aggregate::client_read`]; each volume
//! queues its writes and deletes, the client's last op on a block wins, and
//! a CP flushes the queues, like WAFL's delayed batched flushing (§2.1).

#![warn(missing_docs)]

mod aggregate;
pub mod aging;
mod allocator;
mod bitset;
pub mod cleaning;
mod config;
mod cp;
pub mod delayed_free;
pub mod iron;
pub mod mount;
pub mod obs;
mod paged_map;
pub mod scrub;
pub mod snapshot;
mod volume;

pub use aggregate::{Aggregate, RaidGroupState};
pub use allocator::AllocatorMode;
pub use config::{AggregateConfig, CpuModel, FlexVolConfig, RaidGroupSpec};
pub use cp::{CpOutcome, CpStats, CpWallClock, PhaseDrift, RgCpStats, WallClockOverlay};
pub use scrub::{HealthState, ScrubStatus};
pub use volume::FlexVol;
