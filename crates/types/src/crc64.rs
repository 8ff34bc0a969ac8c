//! CRC-64 used to seal persisted metafile pages.
//!
//! The paper's TopAA block is headerless — 512 raw (AA, score) pairs —
//! which makes corruption *detectable only by luck* (the deserializer's
//! sort/sentinel checks). This reproduction reserves the trailing 8 bytes
//! of each persisted 4 KiB page for the CRC-64/XZ of the preceding bytes
//! so that damage is detected deterministically and the mount path can
//! degrade that one structure instead of trusting garbage. See
//! `docs/recovery.md` for the format deviation write-up.

/// Reflected CRC-64/XZ generator polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `a · x mod P` in the reflected representation, where bit 63 holds
/// the x⁰ coefficient: the step every table below is built from.
const fn times_x(a: u64) -> u64 {
    if a & 1 == 1 {
        (a >> 1) ^ POLY
    } else {
        a >> 1
    }
}

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes fold into
/// the state with eight independent lookups instead of a chain of eight
/// dependent ones.
static TABLES: [[u64; 256]; 8] = {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The longest run of zero words [`ZEROS`] covers with one multiply: a
/// page's worth.
const MAX_ZERO_WORDS: usize = crate::BLOCK_SIZE / 8;

/// `ZEROS[k]` is x^(64k) mod P, reflected. Feeding `k` zero words to the
/// CRC register multiplies it by exactly this: a zero byte only shifts
/// the register through the polynomial, so a run of them is a linear map.
static ZEROS: [u64; MAX_ZERO_WORDS + 1] = {
    let mut zeros = [0u64; MAX_ZERO_WORDS + 1];
    let mut x = 1u64 << 63; // x⁰
    let mut k = 0;
    while k <= MAX_ZERO_WORDS {
        zeros[k] = x;
        let mut bit = 0;
        while bit < 64 {
            x = times_x(x);
            bit += 1;
        }
        k += 1;
    }
    zeros
};

/// `a · b mod P`, both reflected (zlib's `multmodp`, 64 bits wide): for
/// each term x^i of `a`, add `b · x^i`.
fn multmodp(a: u64, mut b: u64) -> u64 {
    let mut p = 0;
    for i in (0..64).rev() {
        p ^= b & 0u64.wrapping_sub((a >> i) & 1);
        b = times_x(b);
    }
    p
}

/// Fold `data` into a running (pre-inverted) CRC state one byte at a
/// time: the reference loop, and the tail of [`crc64`].
fn update_bytewise(mut crc: u64, data: &[u8]) -> u64 {
    for &byte in data {
        let idx = ((crc ^ byte as u64) & 0xFF) as usize;
        crc = TABLES[0][idx] ^ (crc >> 8);
    }
    crc
}

/// The little-endian word in an 8-byte chunk.
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Fold whole 8-byte words into a running CRC state, eight bytes per
/// step.
fn update_sliced(mut crc: u64, words: &[u8]) -> u64 {
    for chunk in words.chunks_exact(8) {
        let x = crc ^ word(chunk);
        crc = TABLES[7][(x & 0xFF) as usize]
            ^ TABLES[6][((x >> 8) & 0xFF) as usize]
            ^ TABLES[5][((x >> 16) & 0xFF) as usize]
            ^ TABLES[4][((x >> 24) & 0xFF) as usize]
            ^ TABLES[3][((x >> 32) & 0xFF) as usize]
            ^ TABLES[2][((x >> 40) & 0xFF) as usize]
            ^ TABLES[1][((x >> 48) & 0xFF) as usize]
            ^ TABLES[0][(x >> 56) as usize];
    }
    crc
}

/// Advance a running CRC state over `n` zero words: one multiply per
/// page's worth of them.
fn update_zero_words(mut crc: u64, mut n: usize) -> u64 {
    while n > 0 {
        let k = n.min(MAX_ZERO_WORDS);
        crc = multmodp(ZEROS[k], crc);
        n -= k;
    }
    crc
}

/// Bytes of `words` (whole 8-byte words) up to and including the last
/// non-zero word, found from the end 32 bytes at a time.
fn used_len(words: &[u8]) -> usize {
    let mut used = words.len();
    for block in words.rchunks_exact(32) {
        if block.chunks_exact(8).fold(0, |acc, w| acc | word(w)) != 0 {
            break;
        }
        used -= 32;
    }
    while used >= 8 && word(&words[used - 8..used]) == 0 {
        used -= 8;
    }
    used
}

/// CRC-64/XZ of `data` (init and xorout all-ones, reflected). The words
/// up to the last non-zero one go eight bytes per step; the zero words
/// after it cost one GF(2) multiply, so a mostly-empty page costs what
/// it holds. Same value as feeding every byte through the table.
pub fn crc64(data: &[u8]) -> u64 {
    let (words, tail) = data.split_at(data.len() & !7);
    let used = used_len(words);
    let crc = update_sliced(u64::MAX, &words[..used]);
    let crc = update_zero_words(crc, (words.len() - used) / 8);
    !update_bytewise(crc, tail)
}

/// Append the CRC of `page[..len-8]` into the trailing 8 bytes of `page`
/// (little-endian).
pub fn seal_page(page: &mut [u8]) {
    let split = page.len() - crate::TOPAA_CRC_BYTES;
    let crc = crc64(&page[..split]);
    page[split..].copy_from_slice(&crc.to_le_bytes());
}

/// Check a page sealed by [`seal_page`]. Returns `true` when the stored
/// CRC matches the payload.
pub fn verify_page(page: &[u8]) -> bool {
    let split = page.len() - crate::TOPAA_CRC_BYTES;
    let stored = u64::from_le_bytes(page[split..].try_into().expect("8-byte CRC tail"));
    crc64(&page[..split]) == stored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    /// `len` pseudo-random bytes, none of them zero.
    fn non_zero_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 56) as u8).max(1)
            })
            .collect()
    }

    /// The reference: every byte through the byte-at-a-time table.
    fn reference(data: &[u8]) -> u64 {
        !update_bytewise(u64::MAX, data)
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        // Every length up to one page plus a word, each ending in every
        // zero tail up to two words: each tail length 0..8 after the
        // words is hit at many alignments of the chunked body and of the
        // zero run before it.
        let data = non_zero_bytes(4104);
        // prefix[n]: the bytewise state after data[..n].
        let prefix: Vec<u64> = std::iter::once(u64::MAX)
            .chain(data.iter().scan(u64::MAX, |crc, &b| {
                *crc = update_bytewise(*crc, &[b]);
                Some(*crc)
            }))
            .collect();
        let mut buf = data.clone();
        for len in 0..=data.len() {
            for zeros in 0..=len.min(16) {
                let used = len - zeros;
                buf[used..len].fill(0);
                let want = !update_bytewise(prefix[used], &buf[used..len]);
                assert_eq!(crc64(&buf[..len]), want, "length {len}, {zeros} zeros");
                buf[used..len].copy_from_slice(&data[used..len]);
            }
        }
    }

    #[test]
    fn a_zero_tail_of_every_length_behind_a_short_prefix() {
        // The other corner of the sweep above: every zero tail up to
        // 4 104 bytes, behind every prefix up to two words.
        for used in 0..=16 {
            let mut buf = non_zero_bytes(used);
            let mut want = update_bytewise(u64::MAX, &buf);
            for zeros in 0..=4104 - used {
                assert_eq!(crc64(&buf), !want, "{used} bytes, {zeros} zeros");
                buf.push(0);
                want = update_bytewise(want, &[0]);
            }
        }
    }

    #[test]
    fn every_last_non_zero_position_in_a_page() {
        let payload = crate::BLOCK_SIZE - crate::TOPAA_CRC_BYTES;
        let data = non_zero_bytes(payload);
        for used in 0..=payload {
            let mut page = vec![0u8; payload];
            page[..used].copy_from_slice(&data[..used]);
            assert_eq!(crc64(&page), reference(&page), "{used} bytes used");
        }
    }

    #[test]
    fn a_zero_island_inside_the_prefix_is_not_skipped() {
        let data = non_zero_bytes(4088);
        for (start, len) in [(0, 64), (5, 3), (8, 8), (100, 257), (1000, 2000), (7, 4080)] {
            for tail in [0, 1, 8, 300] {
                let mut buf = data.clone();
                buf[start..start + len].fill(0);
                let n = buf.len();
                buf[n - tail..].fill(0);
                assert_eq!(
                    crc64(&buf),
                    reference(&buf),
                    "island {start}+{len}, tail {tail}"
                );
            }
        }
    }

    #[test]
    fn an_all_zero_input_of_any_size() {
        // One page, and runs longer than one multiply covers.
        for len in [4088, 4096, 4097, 3 * 4096 + 5] {
            let buf = vec![0u8; len];
            assert_eq!(crc64(&buf), reference(&buf), "{len} zeros");
        }
        let mut page = vec![0u8; crate::BLOCK_SIZE];
        seal_page(&mut page);
        assert!(verify_page(&page));
    }

    #[test]
    fn each_zeros_entry_is_that_many_zero_words_fed_bytewise() {
        let mut x = 1u64 << 63; // x⁰
        for (k, &want) in ZEROS.iter().enumerate() {
            assert_eq!(x, want, "{k} zero words");
            x = update_bytewise(x, &[0; 8]);
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn seal_then_verify_round_trips() {
        let mut page = vec![0u8; crate::BLOCK_SIZE];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        seal_page(&mut page);
        assert!(verify_page(&page));
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let mut page = vec![0xABu8; 512];
        seal_page(&mut page);
        for i in 0..page.len() {
            let mut damaged = page.clone();
            damaged[i] ^= 0x01;
            assert!(!verify_page(&damaged), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn any_single_byte_flip_of_a_mostly_zero_page_is_detected() {
        // 256 bytes used, like a small volume's HBPS list page: flips in
        // the zero tail and in the trailer must fail as well.
        let mut page = vec![0u8; crate::BLOCK_SIZE];
        page[..256].copy_from_slice(&non_zero_bytes(256));
        seal_page(&mut page);
        assert!(verify_page(&page));
        for i in 0..page.len() {
            let mut damaged = page.clone();
            damaged[i] ^= 0x01;
            assert!(!verify_page(&damaged), "flip at byte {i} undetected");
        }
    }
}
