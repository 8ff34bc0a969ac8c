//! Division by a divisor fixed for a whole loop, as a shift or one
//! multiply.
//!
//! A batch of frees maps each block to its AA (`vbn / aa_blocks`) and
//! each RAID-group offset to its device (`offset / device_blocks`). A
//! `u64` division is the slowest integer instruction, and the divisors
//! do not change within a batch. Every block number space is below 2³²
//! blocks, and for numerators below 2³² the quotient is exactly the high
//! 64 bits of `n · ⌈2⁶⁴ / d⌉` (Lemire, Kaser and Kurz, "Faster
//! remainder by direct computation", 2019).

/// `n / d` for a fixed `d`, by multiplication, or by a shift when `d` is
/// a power of two.
#[derive(Clone, Copy, Debug)]
pub struct Reciprocal {
    d: u64,
    /// `log2 d` when `d` is a power of two, else 64.
    shift: u32,
    /// `⌈2⁶⁴ / d⌉` modulo 2⁶⁴: the whole of it for `d > 1` (1, a power
    /// of two, never reads it).
    m: u64,
}

impl Reciprocal {
    /// The reciprocal of `d`. Panics if `d` is 0.
    pub fn new(d: u64) -> Reciprocal {
        assert!(d > 0, "division by zero");
        Reciprocal {
            d,
            shift: if d.is_power_of_two() {
                d.trailing_zeros()
            } else {
                64
            },
            // ⌊(2⁶⁴ − 1) / d⌋ + 1 is ⌈2⁶⁴ / d⌉: one u64 division.
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    /// `n / d`: a shift or one multiply. Exact for every `n`: numerators
    /// of 2³² and more, which no block space here reaches, take the
    /// hardware division when `d` is not a power of two.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        if self.shift < 64 {
            n >> self.shift
        } else if n <= u64::from(u32::MAX) {
            ((u128::from(n) * u128::from(self.m)) >> 64) as u64
        } else {
            n / self.d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_division_at_the_edges() {
        let top = (1u64 << 32) - 2;
        for d in [
            1,
            2,
            3,
            7,
            63,
            64,
            1000,
            2048,
            3000,
            7008,
            32_768,
            top,
            top + 1,
            1 << 32,
        ] {
            let r = Reciprocal::new(d);
            for n in [0, d - 1, d, d + 1, top, top + 1, 1 << 32, u64::MAX] {
                assert_eq!(r.quotient(n), n / d, "{n} / {d}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_division_on_random_input(d in 1u64..=u64::from(u32::MAX), n in 0u64..1 << 32) {
            prop_assert_eq!(Reciprocal::new(d).quotient(n), n / d);
        }
    }
}
