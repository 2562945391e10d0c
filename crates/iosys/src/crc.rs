//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one
//! checksum kernel of the workspace. Restart records and files, output
//! frames and the SDC quiescence digests (`esm_core::sdc::crc_f64`) all
//! hash through [`Crc32::update`].
//!
//! Slice-by-16: sixteen bytes per step through sixteen 256-entry tables,
//! bytewise only for the tail; the digest is the byte-at-a-time one. The
//! checksum is not negligible beside the file system: on a 2-vCPU host
//! with a ≈10 GB/s STREAM triad the byte loop ran at 285 MB/s and made
//! up most of a 16.4 MB checkpoint write (0.15 s) and read (0.13 s);
//! slice-by-16 runs at ~1.5 GB/s there. [`combine`] joins the CRCs of
//! two parts without rehashing, so the writer hashes each payload byte
//! once for both its record CRC and its file CRC (write 0.05 s).
//!
//! The `.esmr` v2 format stores one CRC per variable record (over the
//! encoded record bytes) and one trailer CRC per file (over every byte
//! that precedes the trailer), so corruption is localised to a variable
//! when possible and always detected at file granularity.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is `TABLES[0][b]`
/// advanced over `k` more zero bytes, so one step folds byte `i` of a
/// 16-byte block through `TABLES[15 - i]`. Built at compile time.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// `a · b mod P` for polynomials over GF(2) in reflected bit order
/// (bit 31 is x⁰).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X_POW_2K[k]` = x^(2^k) mod P, built at compile time: x^(8·n) for
/// any 64-bit byte count `n` needs `k` up to 3 + 63.
const X_POW_2K: [u32; 67] = {
    let mut t = [0u32; 67];
    t[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < t.len() {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// The CRC-32 of `a ++ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)`
/// and `len_b = b.len()`, without touching the bytes: `crc_a` is
/// advanced over `len_b` zero bytes (multiplied by x^(8·len_b) mod P).
/// Lets a writer that already hashed each part get the whole's CRC for
/// free.
pub fn combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1u32 << 31; // x⁰
    let mut n = len_b as u64;
    let mut k = 3; // x^(2^3) = x^8: one byte
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(X_POW_2K[k], shift);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_p(shift, crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"incremental hashing must match one-shot hashing";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn combine_matches_hashing_the_concatenation() {
        let data: Vec<u8> = (0..3000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for split in [0usize, 1, 15, 16, 17, 1000, 2999, 3000] {
            let (a, b) = data.split_at(split);
            assert_eq!(combine(crc32(a), crc32(b), b.len()), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 4096];
        data[17] = 0x5A;
        let base = crc32(&data);
        for bit in [0usize, 100 * 8 + 3, 4095 * 8 + 7] {
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), base, "bit {bit} undetected");
        }
    }
}
