//! Bitmap metafiles (the WAFL *activemap*).
//!
//! WAFL stores free-space information in flat internal files indexed by
//! VBN; the *i*-th bit tracks the state of the *i*-th block (paper §2.5).
//! This crate reproduces that structure:
//!
//! * [`BitmapPage`] — one 4 KiB metafile block holding 32 Ki bits.
//! * [`Bitmap`] — a whole activemap: allocate/free with consistency checks,
//!   free-count queries over arbitrary VBN ranges, free-run iteration, and
//!   **dirty-page accounting**. Dirty pages are the currency of §2.5: every
//!   metafile block touched during a consistency point is a block that must
//!   be read, updated, and written back, so the experiments count them.
//!   A **free-count summary**, one `u16` counter per summary unit (a
//!   page, or a volume's AA), is maintained incrementally by every
//!   mutation, so range free-counts, AA scores, and first-free skip-scans
//!   no longer popcount raw bits on hot paths; debug builds verify the
//!   counters against popcount ground truth on every mutation and every
//!   CP.
//! * [`scan`] — whole-bitmap scans used to (re)build AA caches (§3.4's
//!   "background work can rebuild the entire cache"): one counter load
//!   per AA when the AA is the summary unit, unit-accelerated range
//!   counts otherwise.
//!
//! A bit value of `1` means **allocated**; `0` means free. A fresh bitmap
//! is entirely free.

#![warn(missing_docs)]

mod bitmap;
mod page;
pub mod scan;
mod sort;

pub use bitmap::{Bitmap, Claim, DirtyStats};
pub use page::BitmapPage;
pub use sort::sort_vbns;
