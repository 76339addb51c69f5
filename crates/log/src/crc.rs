//! CRC-32 (IEEE 802.3, reflected polynomial `0xedb88320`) — the frame
//! check of segment records — as slicing-by-8: eight table lookups fold
//! eight input bytes per step, against the sixteen dependent lookups a
//! nibble table needs for the same bytes.
//!
//! The check runs over every byte the log stores or hands out: once per
//! append (on the spiller thread), once per read (on the producer's pump
//! thread, once per replayed frame — a late group's whole catch-up is
//! bounded by it) and once per record of a reopened segment. It has to
//! run at memory speed for those paths to cost what their bytes cost.
//!
//! The state is incremental ([`Crc32::update`]), so a record gathered
//! from several chunks ([`crate::BatchLog::append_chunks`]) is checksummed
//! while it is copied, chunk by chunk, and stores the value the joined
//! bytes would have.

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
        let t = &TABLES;
        let mut crc = self.0;
        let mut words = chunk.chunks_exact(8);
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
        self.0 = crc;
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

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the IEEE 802.3 polynomial.
        for (bytes, crc) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xcbf4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
        ] {
            assert_eq!(crc32(bytes), crc);
            assert_eq!(reference(bytes), crc);
        }
    }

    #[test]
    fn every_length_and_alignment_equals_the_bitwise_reference() {
        // One pseudo-random buffer; every (start alignment, length) window
        // of it, so the eight-byte loop, its remainder and every split
        // between them are all exercised at every offset into a word.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..4_099 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for align in 0..8 {
            let mut state = !0u32; // the reference, one byte further per length
            for len in 0..=4_099 {
                let window = &buf[align..align + len];
                assert_eq!(crc32(window), !state, "align {align}, len {len}");
                state = reference_step(state, buf[align + len]);
            }
        }
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
    }
}
