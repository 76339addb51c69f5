//! The toy codec: deterministic encoded payloads whose *decode* performs
//! real CPU work proportional to the decoded size.
//!
//! JPEG decoding dominates image pre-processing cost in the paper's
//! pipelines ("costly work, such as image decoding", §5). We cannot ship
//! ImageNet, but the property that matters to every experiment is: decode
//! burns CPU ∝ output pixels and is identical for the same input. The
//! xorshift-based expander below has exactly that profile, and decode
//! output depends on every encoded byte, so correctness tests can detect
//! corruption or misordering.

use bytes::Bytes;

/// Deterministically generates `len` encoded bytes for `(seed, index)`.
///
/// This stands in for reading the JPEG/FLAC/… file from disk; it is cheap
/// relative to [`decode_bytes`], mirroring fetch-vs-decode cost on real
/// pipelines.
pub fn encode_stub(seed: u64, index: u64, len: usize) -> Bytes {
    let mut state = splitmix(seed ^ index.wrapping_mul(0x9E3779B97F4A7C15));
    let mut out = Vec::with_capacity(len);
    // Generate 8 bytes per PRNG step.
    while out.len() < len {
        state = xorshift64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// Absorbs the encoded input into the squeeze state.
fn absorb(encoded: &[u8]) -> u64 {
    let mut state: u64 = 0x6C62272E07BB0142;
    for &b in encoded {
        state ^= b as u64;
        state = state.wrapping_mul(0x100000001B3);
    }
    state.max(1)
}

/// Expands encoded bytes into `out`, writing every byte of it — the
/// decoder for a caller that already owns the memory the sample will live
/// in (a row of a batch under construction).
///
/// Work is Θ(`out.len()`) with a small constant (one xorshift round and
/// one multiply per output byte, plus one absorption round per input
/// byte), deterministic, and dependent on every input byte.
pub fn decode_bytes_into(encoded: &[u8], out: &mut [u8]) {
    let mut state = absorb(encoded);
    for slot in out.iter_mut() {
        state = xorshift64(state);
        *slot = (state >> 24) as u8;
    }
}

/// [`decode_bytes_into`] a fresh vector of `out_len` bytes.
pub fn decode_bytes(encoded: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; out_len];
    decode_bytes_into(encoded, &mut out);
    out
}

/// Like [`decode_bytes_into`] but producing little-endian `f32` values in
/// `[-1, 1]` (audio waveforms), four bytes of `out` each.
pub fn decode_f32_into(encoded: &[u8], out: &mut [u8]) {
    let mut state = absorb(encoded);
    for value in out.chunks_exact_mut(4) {
        state = xorshift64(state);
        let byte = (state >> 24) as u8;
        value.copy_from_slice(&((byte as f32 / 127.5) - 1.0).to_le_bytes());
    }
}

#[inline]
fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_deterministic_and_distinct() {
        assert_eq!(encode_stub(1, 0, 64), encode_stub(1, 0, 64));
        assert_ne!(encode_stub(1, 0, 64), encode_stub(1, 1, 64));
        assert_ne!(encode_stub(2, 0, 64), encode_stub(1, 0, 64));
        assert_eq!(encode_stub(1, 0, 37).len(), 37);
    }

    #[test]
    fn decode_depends_on_every_input_byte() {
        let enc = encode_stub(3, 7, 128).to_vec();
        let base = decode_bytes(&enc, 256);
        for flip in [0usize, 64, 127] {
            let mut tweaked = enc.clone();
            tweaked[flip] ^= 0x80;
            assert_ne!(decode_bytes(&tweaked, 256), base, "byte {flip} ignored");
        }
    }

    #[test]
    fn decode_len_exact() {
        let enc = encode_stub(0, 0, 16);
        assert_eq!(decode_bytes(&enc, 1000).len(), 1000);
        assert_eq!(decode_bytes(&enc, 0).len(), 0);
    }

    fn decode_f32(encoded: &[u8], out_len: usize) -> Vec<f32> {
        let mut bytes = vec![0xAAu8; out_len * 4];
        decode_f32_into(encoded, &mut bytes);
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    #[test]
    fn decode_f32_range() {
        let enc = encode_stub(5, 5, 32);
        let v = decode_f32(&enc, 512);
        assert_eq!(v.len(), 512);
        assert!(v.iter().all(|x| (-1.0..=1.0).contains(x)));
        // not all identical
        assert!(v.iter().any(|x| (*x - v[0]).abs() > 1e-6));
    }

    #[test]
    fn decoding_into_a_row_matches_decoding_a_vector() {
        let enc = encode_stub(9, 4, 48);
        let mut row = [0xAAu8; 300];
        decode_bytes_into(&enc, &mut row);
        assert_eq!(&row[..], &decode_bytes(&enc, 300)[..]);
        // The f32 decoder: the same bytes mapped to [-1, 1].
        let expect: Vec<f32> = decode_bytes(&enc, 75)
            .iter()
            .map(|&b| (b as f32 / 127.5) - 1.0)
            .collect();
        assert_eq!(decode_f32(&enc, 75), expect);
    }

    #[test]
    fn empty_input_still_decodes() {
        assert_eq!(decode_bytes(&[], 8).len(), 8);
    }
}
