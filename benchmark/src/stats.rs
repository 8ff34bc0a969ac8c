//! Small numeric and output helpers: order statistics, the FNV-64 op-stream
//! hash, seed derivation, and the JSON the command prints.

use std::fmt::Write as _;

/// FNV-1a over 64-bit words (one multiply per word, not per byte: the
/// hash runs once per generated op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    #[inline]
    pub fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// SplitMix64 step: derives the independent generator seeds (set-up
/// aging, window stream, probes) from the one `--seed`.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Linear-interpolated percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Median of unsorted samples; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 0.5)
}

/// Slices a window's samples are cut into for [`sliced_quantile`], as
/// long as each slice gets `MIN_PER_SLICE` of them.
pub const SLICES: usize = 32;
const MIN_PER_SLICE: usize = 8;

/// The `q`-quantile over equal, contiguous slices of `0..n` of what `f`
/// makes of each slice.
///
/// The host this runs on is shared: its slow spells last from
/// milliseconds to minutes and only ever add time. The end-to-end
/// timings are therefore read off the window's best slices (the upper
/// decile of a rate, the lower one of a latency) — what the program does
/// when the host lets it — and not off the middle, which moves with the
/// neighbours' load. A change to the program moves every slice alike.
pub fn sliced_quantile(n: usize, q: f64, f: impl Fn(std::ops::Range<usize>) -> f64) -> f64 {
    let slices = (n / MIN_PER_SLICE).clamp(1, SLICES);
    let mut values: Vec<f64> = (0..slices)
        .map(|i| f(i * n / slices..(i + 1) * n / slices))
        .collect();
    sort(&mut values);
    percentile(&values, q)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported measurement.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values (a metric whose
/// denominator was empty) print as 0 so the line always parses.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"key": value, ...}` from values that are JSON already.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}: {value}", json_string(key)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            let value = [
                ("value", json_number(m.value)),
                ("unit", json_string(m.unit)),
            ];
            (m.name, json_object(&value))
        })
        .collect();
    json_object(&fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(median(vec![4.0, 1.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn sliced_quantile_reads_the_quiet_slices() {
        // 320 samples of 1.0; slow spells cover more than half of them.
        let mut v = vec![1.0; 320];
        v[20..150].fill(9.0);
        v[250..300].fill(3.0);
        let mean = |r: std::ops::Range<usize>| v[r.clone()].iter().sum::<f64>() / r.len() as f64;
        assert_eq!(sliced_quantile(v.len(), 0.1, mean), 1.0);
        assert_eq!(sliced_quantile(v.len(), 0.5, mean), 3.0);
        // Few samples make few slices: 20 make 2, 5 (or none) make 1.
        assert_eq!(sliced_quantile(20, 0.5, |r| r.start as f64), 5.0);
        assert_eq!(sliced_quantile(5, 0.5, |r| r.len() as f64), 5.0);
        assert_eq!(sliced_quantile(0, 0.1, |r| r.len() as f64), 0.0);
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(
            metrics_json(&[metric("x", "ms", 0.5)]),
            "{\"x\": {\"value\": 0.5, \"unit\": \"ms\"}}"
        );
    }
}
