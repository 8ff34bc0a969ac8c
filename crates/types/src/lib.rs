//! Core identifiers, constants, and configuration types shared by every
//! crate in the WAFL free-block-search reproduction.
//!
//! The paper ("Efficient Search for Free Blocks in the WAFL File System",
//! ICPP 2018) describes block-number-space algorithms; this crate pins down
//! the vocabulary those algorithms are written in:
//!
//! * [`Vbn`] — a *volume block number*, the index of a 4 KiB block within
//!   some block-number space (an aggregate's physical space or a FlexVol's
//!   virtual space).
//! * [`AaId`] — the index of an *allocation area* within its space.
//! * Constants such as [`BLOCK_SIZE`] and [`BITS_PER_BITMAP_BLOCK`] that
//!   the paper's sizing arguments depend on (a 4 KiB bitmap-metafile block
//!   holds 32 Ki bits, hence the 32 Ki-VBN RAID-agnostic AA).
//! * [`Reciprocal`] — division by a divisor fixed for a loop, as a shift
//!   or a multiply, for the batch paths that map blocks to AAs.
//!
//! Everything here is `Copy`, cheap, and deliberately free of behaviour —
//! the behaviour lives in `wafl-bitmap`, `wafl-raid`, `wafl-core`, and
//! `wafl-fs`.

#![warn(missing_docs)]

mod config;
mod consts;
pub mod crc64;
mod error;
mod ids;
mod recip;
mod retry;
mod score;

pub use config::{AaSizingPolicy, ChecksumStyle, MediaType};
pub use consts::*;
pub use error::{WaflError, WaflResult};
pub use ids::{AaId, Dbn, DeviceId, RaidGroupId, StripeId, TetrisId, Vbn, VolumeId};
pub use recip::Reciprocal;
pub use retry::RetryPolicy;
pub use score::{AaScore, ScoreDelta};
