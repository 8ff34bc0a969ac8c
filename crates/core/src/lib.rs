//! Allocation areas and AA caches — the contribution of "Efficient Search
//! for Free Blocks in the WAFL File System" (ICPP 2018).
//!
//! WAFL defines fixed-size regions of each block-number space, called
//! *allocation areas* (AAs), scores each by its free-block count, and
//! always directs the write allocator to the emptiest region (§3). This
//! crate implements that machinery:
//!
//! * [`AaTopology`] — how AAs tile a block-number space: consecutive
//!   stripes across a RAID group (RAID-aware, §3.1 Figure 2/3) or
//!   consecutive VBNs (RAID-agnostic, used for FlexVols and natively
//!   redundant storage). Built from the §3.2 sizing policies in
//!   `wafl-types`.
//! * [`RaidAwareCache`] — an indexed max-heap over *all* AAs of a RAID
//!   group (§3.3.1), with batched CP-boundary score updates and a
//!   fragmentation back-off threshold.
//! * [`Hbps`] — the novel *histogram-based partial sort* (§3.3.2): a 4 KiB
//!   histogram page of 1 Ki-wide score bins plus a 4 KiB list page of up
//!   to 1,000 AAs from the best bins, unsorted within a bin. Constant
//!   memory, O(bins) updates, best-score error ≤ 3.125 %.
//! * [`RaidAgnosticCache`] — the HBPS wrapped with replenish-scan plumbing
//!   (§3.3.2's "background scan replenishes the list").
//! * [`topaa`] — the TopAA metafile (§3.4): exact 4 KiB block images that
//!   persist each cache across unmounts so the first CP after boot does
//!   not wait for a full bitmap walk.
//! * [`ScoreDeltaBatch`] — the CP-boundary batching of score increments
//!   (frees) and decrements (allocations).

#![warn(missing_docs)]

mod batch;
mod hbps;
mod heap_cache;
mod raid_agnostic;
pub mod topaa;
mod topology;

pub use batch::ScoreDeltaBatch;
pub use hbps::{Hbps, HbpsConfig};
pub use heap_cache::RaidAwareCache;
pub use raid_agnostic::RaidAgnosticCache;
pub use topology::{book_spans, AaSpan, AaSpanFinder, AaTopology};
