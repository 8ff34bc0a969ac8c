//! Linear-time ordering of VBN batches.
//!
//! Its one caller in the file system is the delayed-free log
//! (`wafl_fs::delayed_free::DelayedFreeLog::process`), which sorts a
//! bitmap page's pending frees so that `dedup` can drop repeated
//! entries. A CP's own frees are not sorted: [`Bitmap::free_batch`]
//! takes them in the order they arrive. A comparison sort pays `log n`
//! per block; the keys are block numbers bounded by the space they index,
//! so an LSD radix sort over only the bits that differ between them
//! orders a batch in two linear passes for any space this simulator
//! builds.
//!
//! [`Bitmap::free_batch`]: crate::Bitmap::free_batch

use wafl_types::Vbn;

/// Widest radix digit: 4 Ki `u32` counters are 16 KiB, half an L1 cache.
const MAX_DIGIT_BITS: u32 = 12;

/// Sort `vbns` ascending. Duplicates are kept (the caller drops them,
/// or the batch free rejects them). Already-ascending input —
/// sequential overwrites free blocks in the order they were written —
/// returns after one read pass. Anything else takes a counting pass and
/// a scatter pass per digit, the digits sized to cover just the span of
/// bits that vary across the batch and no wider than the batch is long
/// (a 128-block batch must not pay for 4 Ki buckets).
pub fn sort_vbns(vbns: &mut [Vbn]) {
    let mut sorted = true;
    let (mut prev, mut any_set, mut all_set) = (0u64, 0u64, u64::MAX);
    for v in vbns.iter() {
        let k = v.get();
        sorted &= prev <= k;
        prev = k;
        any_set |= k;
        all_set &= k;
    }
    if sorted {
        return;
    }
    assert!(vbns.len() <= u32::MAX as usize, "bucket counters are u32");
    // Bits that are 1 in some key and 0 in another: unsorted input has
    // at least one, and only the span from the lowest to the highest
    // needs ordering.
    let varying = any_set & !all_set;
    let low = varying.trailing_zeros();
    let span = 64 - varying.leading_zeros() - low;
    let passes = span.div_ceil((vbns.len().ilog2() + 1).clamp(4, MAX_DIGIT_BITS));
    let bits = span.div_ceil(passes);
    let mut counters = [0u32; 1 << MAX_DIGIT_BITS];
    let next = &mut counters[..1 << bits];
    let mut scratch = vec![Vbn(0); vbns.len()];
    let (mut src, mut dst) = (&mut *vbns, &mut scratch[..]);
    for pass in 0..passes {
        let digit = |v: Vbn| (v.get() >> (low + pass * bits)) as usize & ((1 << bits) - 1);
        next.fill(0);
        for &v in src.iter() {
            next[digit(v)] += 1;
        }
        let mut offset = 0;
        for slot in next.iter_mut() {
            offset += std::mem::replace(slot, offset);
        }
        for &v in src.iter() {
            let slot = &mut next[digit(v)];
            dst[*slot as usize] = v;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}
