//! Checksum oracle: every CRC-32 in the workspace — `iosys::crc` (and
//! its `combine`), the SDC digest `esm_core::sdc::crc_f64` and the
//! `.esmr` record and file CRCs — equals a plain bytewise CRC-32 kept
//! privately here. The slice kernel in `iosys::crc` must produce the
//! byte-at-a-time digest for every length, split and alignment, and the
//! checkpoint format stays byte-for-byte what the bytewise kernel wrote.

use esm_core::sdc::crc_f64;
use iosys::crc::{combine, crc32, Crc32};
use iosys::restart::scratch_dir;
use iosys::{write_checkpoint, Snapshot};

/// Bytewise CRC-32 (IEEE 802.3, reflected), one bit at a time: the
/// reference every fast path is held to.
fn reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

/// Deterministic bytes from a splitmix64 stream.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed;
    let mut next = || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len).map(|_| next() as u8).collect()
}

#[test]
fn reference_meets_the_standard_check_values() {
    assert_eq!(reference(b""), 0);
    assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_length_and_split_point_matches_the_reference() {
    let data = seeded_bytes(1, 256);
    for len in 0..=data.len() {
        let bytes = &data[..len];
        let want = reference(bytes);
        assert_eq!(crc32(bytes), want, "one-shot, length {len}");
        for split in 0..=len {
            let mut h = Crc32::new();
            h.update(&bytes[..split]);
            h.update(&bytes[split..]);
            assert_eq!(h.finalize(), want, "length {len} split at {split}");
            let (a, b) = bytes.split_at(split);
            assert_eq!(combine(crc32(a), crc32(b), b.len()), want, "combined at {split}");
        }
    }
}

#[test]
fn large_buffers_at_odd_offsets_match_the_reference() {
    let data = seeded_bytes(2, (1 << 20) + 64);
    for (k, len) in [1000usize, 4099, 65_537, 1 << 20].into_iter().enumerate() {
        for offset in [1usize, 3, 7, 13] {
            let bytes = &data[offset..offset + len];
            let want = reference(bytes);
            assert_eq!(crc32(bytes), want, "length {len} at offset {offset}");
            // Uneven update sizes straddle the 16-byte blocks.
            let mut h = Crc32::new();
            for chunk in bytes.chunks(4093 + 2 * k) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), want, "chunked, length {len} at offset {offset}");
        }
    }
}

#[test]
fn crc_f64_is_the_reference_over_little_endian_bytes() {
    let raw = seeded_bytes(3, 8 * 1000);
    let mut values: Vec<f64> = (raw.chunks_exact(8))
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
        .collect();
    values.extend([f64::NAN, -0.0, f64::INFINITY, 1.0]);
    // Lengths around the hasher's 64-value staging block.
    for len in [0usize, 1, 63, 64, 65, 128, 129, values.len()] {
        let bytes: Vec<u8> = values[..len].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(crc_f64(&values[..len]), reference(&bytes), "{len} values");
    }
}

/// Walks one `.esmr` v2 shard and checks each record CRC and the file
/// CRC with the reference; returns the decoded variables.
fn verify_shard(bytes: &[u8]) -> Vec<(String, Vec<f64>)> {
    let u32_at = |p: usize| u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
    let u64_at = |p: usize| u64::from_le_bytes(bytes[p..p + 8].try_into().unwrap());
    assert_eq!(&bytes[..4], b"ESMR");
    assert_eq!(u32_at(4), 2, "format version");
    assert_eq!(&bytes[bytes.len() - 4..], b"RMSE");
    let body_end = bytes.len() - 8;
    assert_eq!(u32_at(body_end), reference(&bytes[..body_end]), "file CRC");

    let mut pos = 20;
    let mut vars = Vec::new();
    for _ in 0..u32_at(16) {
        let start = pos;
        let name_len = u32_at(pos) as usize;
        let name = String::from_utf8(bytes[pos + 4..pos + 4 + name_len].to_vec()).unwrap();
        pos += 4 + name_len;
        let count = u64_at(pos) as usize;
        pos += 8;
        let data = (bytes[pos..pos + 8 * count].chunks_exact(8))
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        pos += 8 * count;
        assert_eq!(u32_at(pos), reference(&bytes[start..pos]), "record CRC of '{name}'");
        pos += 4;
        vars.push((name, data));
    }
    assert_eq!(pos, body_end, "records fill the body");
    vars
}

#[test]
fn checkpoint_shards_carry_reference_crcs() {
    let mut snap = Snapshot::new();
    for (i, len) in [0usize, 1, 7, 16, 333, 4096].into_iter().enumerate() {
        let data = (0..len).map(|j| (j as f64 * 0.37 + i as f64).sin() * 1e3).collect();
        snap.push(format!("var{i}"), data).unwrap();
    }
    snap.push("special", vec![f64::NAN, -0.0, f64::MIN_POSITIVE, f64::MAX]).unwrap();

    let dir = scratch_dir("checksum_oracle");
    let n_files = 3;
    let paths = write_checkpoint(&dir, "oracle", &snap, n_files).unwrap();
    assert_eq!(paths.len(), n_files);
    for (f, path) in paths.iter().enumerate() {
        let vars = verify_shard(&std::fs::read(path).unwrap());
        // Round-robin assignment: shard f holds variables f, f + n, ...
        let mine: Vec<_> = snap.vars.iter().skip(f).step_by(n_files).collect();
        assert_eq!(vars.len(), mine.len(), "shard {f}");
        for ((name, data), (want_name, want)) in vars.iter().zip(mine) {
            assert_eq!(name, want_name);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(data), bits(want), "payload of '{name}'");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
