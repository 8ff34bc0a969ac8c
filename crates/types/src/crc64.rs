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
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
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

/// Fold `data` into a running (pre-inverted) CRC state one byte at a
/// time: the reference loop, and the tail of [`crc64`].
fn update_bytewise(mut crc: u64, data: &[u8]) -> u64 {
    for &byte in data {
        let idx = ((crc ^ byte as u64) & 0xFF) as usize;
        crc = TABLES[0][idx] ^ (crc >> 8);
    }
    crc
}

/// CRC-64/XZ of `data` (init and xorout all-ones, reflected), eight
/// bytes per step.
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = u64::MAX;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let x = crc ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        crc = TABLES[7][(x & 0xFF) as usize]
            ^ TABLES[6][((x >> 8) & 0xFF) as usize]
            ^ TABLES[5][((x >> 16) & 0xFF) as usize]
            ^ TABLES[4][((x >> 24) & 0xFF) as usize]
            ^ TABLES[3][((x >> 32) & 0xFF) as usize]
            ^ TABLES[2][((x >> 40) & 0xFF) as usize]
            ^ TABLES[1][((x >> 48) & 0xFF) as usize]
            ^ TABLES[0][(x >> 56) as usize];
    }
    !update_bytewise(crc, chunks.remainder())
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

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        // Every length up to one page plus a word, so each tail length
        // 0..8 is hit at many alignments of the chunked body.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4104)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..=data.len() {
            let want = !update_bytewise(u64::MAX, &data[..len]);
            assert_eq!(crc64(&data[..len]), want, "length {len}");
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
}
