//! CRC-32 (IEEE 802.3, reflected polynomial `0xedb88320`) — the frame
//! check of segment records.
//!
//! The check runs over every byte the log stores or hands out: once per
//! append (on the spiller thread), once per read (on the producer's pump
//! thread, once per replayed frame — a late group's whole catch-up is
//! bounded by it) and once per record of a reopened segment. It has to
//! run at memory speed for those paths to cost what their bytes cost.
//!
//! Two loops compute the same value:
//!
//! * **the carry-less-multiply fold** (x86-64 with `pclmulqdq` and
//!   SSE4.1, detected at run time): four 128-bit accumulators fold 64
//!   bytes per step, one accumulator then folds 16 bytes per step, and a
//!   Barrett reduction brings the 128-bit remainder back to 32 bits. It
//!   takes every chunk of [`FOLD_MIN`] bytes or more, up to its last
//!   multiple of 16 bytes;
//! * **slicing-by-8**: eight table lookups fold eight input bytes per
//!   step. It takes what the fold leaves (the tail under 16 bytes, every
//!   chunk shorter than [`FOLD_MIN`]) and everything on a CPU without the
//!   instructions, and it is what the property tests hold the fold to.
//!
//! Neither is a format: the polynomial, the stored values and the segment
//! layout are the same whichever loop a process runs ([`crc_loop`] names
//! it), and a segment written by one opens under the other.
//!
//! The state is incremental ([`Crc32::update`]), so a record gathered
//! from several chunks ([`crate::BatchLog::append_chunks`]) is checksummed
//! while it is copied, chunk by chunk, and stores the value the joined
//! bytes would have.

/// Chunks shorter than this go to the table loop even where the fold
/// runs: below two 64-byte steps the fold's setup and reduction cost more
/// than they save.
pub(crate) const FOLD_MIN: usize = 128;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xedb8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Slicing-by-8 over `bytes`, from register value `crc` (not inverted).
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// The loop this process folds long chunks with: `"pclmulqdq"` where the
/// CPU has the carry-less multiply (and SSE4.1), `"slicing-by-8"`
/// elsewhere. The value is the same either way.
pub fn crc_loop() -> &'static str {
    if clmul::detected() {
        "pclmulqdq"
    } else {
        "slicing-by-8"
    }
}

/// A CRC-32 in progress: feed it the bytes in order, in pieces of any
/// size, and [`Crc32::finish`] is the checksum of their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any byte.
    pub const fn new() -> Self {
        Crc32(!0)
    }

    /// Folds `chunk` into the state.
    pub fn update(&mut self, chunk: &[u8]) {
        let mut rest = chunk;
        if rest.len() >= FOLD_MIN && clmul::detected() {
            let (crc, tail) = clmul::fold(self.0, rest);
            self.0 = crc;
            rest = tail;
        }
        self.0 = table_update(self.0, rest);
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The carry-less-multiply fold. Its constants are powers of `x` modulo
/// the polynomial, bit-reflected like the CRC itself (the tests derive
/// each one from the polynomial):
///
/// | constant | value | role |
/// |---|---|---|
/// | `K1`, `K2` | `x^(512+32)`, `x^(512-32)` mod P | fold an accumulator 512 bits ahead |
/// | `K3`, `K4` | `x^(128+32)`, `x^(128-32)` mod P | fold one 128-bit step ahead |
/// | `K5` | `x^64` mod P | 96 → 64 bits |
/// | `P_X`, `MU` | `P` and `floor(x^64 / P)` | Barrett reduction, 64 → 32 bits |
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    pub(super) const K5: i64 = 0x1_63cd_6124;
    pub(super) const P_X: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs the fold. `is_x86_feature_detected!` caches
    /// its answer, so this is a load and a test after the first call.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Folds the longest multiple of 16 bytes of `bytes` (at least 64
    /// long) into register value `crc`; returns the new register value
    /// and the bytes left for the table loop. Callers check
    /// [`detected`] first.
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        assert!(bytes.len() >= 64 && detected());
        // Safety: `detected()` just confirmed the CPU has every feature
        // `fold_simd` is compiled for (its only precondition).
        unsafe { fold_simd(crc, bytes) }
    }

    /// The first 16 bytes of `chunk`, unaligned.
    #[inline]
    fn load(chunk: &[u8]) -> __m128i {
        assert!(chunk.len() >= 16);
        // Safety: the assert keeps the 16-byte read inside `chunk`, and
        // `loadu` has no alignment requirement (SSE2 is part of x86-64).
        unsafe { _mm_loadu_si128(chunk.as_ptr() as *const __m128i) }
    }

    /// `acc` carried 128 bits (`k` = `K3`/`K4`) or 512 bits (`K1`/`K2`)
    /// further and added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`fold`] itself.
    ///
    /// # Safety
    ///
    /// Callable only where the CPU has `pclmulqdq` and SSE4.1 (the
    /// compiler makes every call outside such a function `unsafe`).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_simd(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (head, rest) = bytes.split_at(64);
        let mut x0 = _mm_xor_si128(load(head), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&head[16..]);
        let mut x2 = load(&head[32..]);
        let mut x3 = load(&head[48..]);
        // Four accumulators, each carried 512 bits ahead per step.
        let k12 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            x0 = fold_into(x0, load(block), k12);
            x1 = fold_into(x1, load(&block[16..]), k12);
            x2 = fold_into(x2, load(&block[32..]), k12);
            x3 = fold_into(x3, load(&block[48..]), k12);
        }
        // Into one, then 16 bytes per step.
        let k34 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, k34);
        x = fold_into(x, x2, k34);
        x = fold_into(x, x3, k34);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in &mut lanes {
            x = fold_into(x, load(lane), k34);
        }
        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k34, 0x10), _mm_srli_si128(x, 8));
        let k5 = _mm_set_epi64x(0, K5);
        let folded = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00);
        x = _mm_xor_si128(folded, _mm_srli_si128(x, 4));
        // Barrett: q = low32(x) * MU, r = x ^ low32(q) * P; the
        // reflected remainder sits in the second 32-bit lane.
        let pmu = _mm_set_epi64x(MU, P_X);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32;
        (crc, lanes.remainder())
    }
}

/// Every other architecture: the table loop alone.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn detected() -> bool {
        false
    }

    pub(super) fn fold(_crc: u32, _bytes: &[u8]) -> (u32, &[u8]) {
        unreachable!("`detected()` is false: the fold never runs here")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit per step: what every faster loop must
    /// equal, and what the segments already on disk were written with.
    pub(crate) fn reference(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |crc, &b| reference_step(crc, b))
    }

    fn reference_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xedb8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
        crc
    }

    /// One pseudo-random buffer, the same in every test.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The table loop alone, as a one-shot checksum.
    fn table_crc(bytes: &[u8]) -> u32 {
        !table_update(!0, bytes)
    }

    /// The fold over as much of `bytes` as it takes, then the table loop
    /// over the rest — `None` on a CPU without the fold.
    fn fold_crc(bytes: &[u8]) -> Option<u32> {
        if !clmul::detected() || bytes.len() < 64 {
            return None;
        }
        let (crc, tail) = clmul::fold(!0, bytes);
        Some(!table_update(crc, tail))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the IEEE 802.3 polynomial.
        for (bytes, crc) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xcbf4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
        ] {
            assert_eq!(crc32(bytes), crc);
            assert_eq!(table_crc(bytes), crc);
            assert_eq!(reference(bytes), crc);
        }
    }

    #[test]
    fn every_length_and_alignment_equals_the_bitwise_reference() {
        // Every (start alignment, length) window of one buffer, so the
        // fold's 64- and 16-byte steps, the table loop's eight-byte loop,
        // their remainders and every split between them are exercised at
        // every offset into a word — through `crc32` (whatever this CPU
        // runs), the fold called directly where it exists, and the table
        // loop called directly everywhere, so neither can rot unseen.
        let buf = noise(4_099 + 8);
        let folds = clmul::detected();
        for align in 0..8 {
            let mut state = !0u32; // the reference, one byte further per length
            for len in 0..=4_099 {
                let window = &buf[align..align + len];
                assert_eq!(crc32(window), !state, "align {align}, len {len}");
                assert_eq!(table_crc(window), !state, "table: align {align}, len {len}");
                if let Some(folded) = fold_crc(window) {
                    assert_eq!(folded, !state, "fold: align {align}, len {len}");
                }
                state = reference_step(state, buf[align + len]);
            }
        }
        eprintln!("crc loop under test: {} (fold: {folds})", crc_loop());
    }

    #[test]
    fn lengths_on_both_sides_of_every_threshold_equal_the_reference() {
        let buf = noise(384 << 10);
        let lengths = [
            63,
            64,
            65,
            127,
            128,
            129,
            191,
            192,
            193,
            255,
            256,
            257,
            4_095,
            4_096,
            4_097,
            (384 << 10) - 1,
            384 << 10,
        ];
        for len in lengths {
            let bytes = &buf[..len];
            let want = reference(bytes);
            assert_eq!(crc32(bytes), want, "len {len}");
            assert_eq!(table_crc(bytes), want, "table: len {len}");
            if let Some(folded) = fold_crc(bytes) {
                assert_eq!(folded, want, "fold: len {len}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_fold_constants_are_powers_of_x_modulo_the_polynomial() {
        const P: u64 = 0x1_04c1_1db7;
        // x^n mod P in normal bit order, then reflected to the fold's
        // order and shifted by one (the carry-less product of two
        // reflected 32-bit values lands one bit low).
        let x_pow = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P;
                }
            }
            ((r as u32).reverse_bits() as i64) << 1
        };
        assert_eq!(clmul::K1, x_pow(4 * 128 + 32));
        assert_eq!(clmul::K2, x_pow(4 * 128 - 32));
        assert_eq!(clmul::K3, x_pow(128 + 32));
        assert_eq!(clmul::K4, x_pow(128 - 32));
        assert_eq!(clmul::K5, x_pow(64));
        // P and floor(x^64 / P), 33 bits each, reflected.
        let mut quotient = 0u64;
        let mut rem: u128 = 1 << 64;
        for shift in (0..=32).rev() {
            if rem & (1u128 << (shift + 32)) != 0 {
                rem ^= (P as u128) << shift;
                quotient |= 1 << shift;
            }
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(clmul::P_X, reflect33(P));
        assert_eq!(clmul::MU, reflect33(quotient));
    }

    proptest! {
        #[test]
        fn random_contents_equal_the_bitwise_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..4_100),
            align in 0usize..8,
        ) {
            let align = align.min(bytes.len());
            prop_assert_eq!(crc32(&bytes[align..]), reference(&bytes[align..]));
        }

        /// What `append_chunks` relies on: however a buffer is cut up, the
        /// folded state ends at the one-shot value.
        #[test]
        fn folding_any_split_equals_the_one_shot_value(
            bytes in prop::collection::vec(any::<u8>(), 0..4_100),
            cuts in prop::collection::vec(0usize..4_100, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                crc.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), crc32(&bytes));
            prop_assert_eq!(crc.finish(), reference(&bytes));
        }

        /// Pieces just under, at and over the fold's threshold, in every
        /// order: some chunks go through the fold and some through the
        /// table loop, and the state carries across each hand-over.
        #[test]
        fn splits_straddling_the_fold_threshold_equal_the_one_shot_value(
            bytes in prop::collection::vec(any::<u8>(), 0..1_200),
            pieces in prop::collection::vec(FOLD_MIN - 8..FOLD_MIN + 8, 1..8),
        ) {
            let mut crc = Crc32::new();
            let mut from = 0;
            for piece in pieces {
                let to = (from + piece).min(bytes.len());
                crc.update(&bytes[from..to]);
                from = to;
            }
            crc.update(&bytes[from..]);
            prop_assert_eq!(crc.finish(), reference(&bytes));
        }
    }
}
