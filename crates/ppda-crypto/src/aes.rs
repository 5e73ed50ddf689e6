//! AES-128 block cipher (FIPS-197).
//!
//! Three encryption paths share one byte-oriented key schedule:
//!
//! * **AES-NI** — the hardware round instructions. [`Aes128::new`] checks
//!   once, at run time, whether the CPU executes them (std caches the CPUID
//!   probe) and, if so, every block this context encrypts runs on them.
//! * **T-table** — the portable fallback off x86-64 or on CPUs without
//!   AES-NI: a word-oriented round function (SubBytes, ShiftRows and
//!   MixColumns folded into one 256-entry table, built at compile time).
//! * [`Aes128::encrypt_block_reference`] — the original byte-oriented
//!   implementation (S-box lookups plus `xtime` doubling), kept as the
//!   auditable test oracle both fast paths are checked against.
//!
//! Each fast path has three kernels: one block ([`Aes128::encrypt_block`],
//! for the DRBG's key derivation and the transcript hash), a CBC-MAC chain
//! over a run of whole blocks (`mac_blocks`, behind [`crate::CbcMac`]) and
//! a CTR keystream XOR over a whole message (`xor_keystream`, behind
//! [`crate::ctr`], CCM's payload and tag and the DRBG's refills). On AES-NI
//! the message kernels hold the 11 round keys in registers for the whole
//! message, and CTR interleaves four counter blocks' rounds; the T-table
//! bodies run the same loops one block at a time. Every CCM seal and open
//! and every DRBG output block in a simulated round goes through them, so
//! they *are* a campaign bottleneck at scale. No build flag or option picks
//! the path.

/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// One 16-byte AES block.
pub type Block = [u8; BLOCK_LEN];
/// One 16-byte AES-128 key.
pub type Key = [u8; KEY_LEN];

/// The AES S-box (FIPS-197 Fig. 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2⁸) modulo x⁸+x⁴+x³+x+1.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// T-table for the word-oriented round function, built at compile time.
///
/// Entry `x` is the MixColumns contribution of a *row-0* state byte `x`
/// (SubBytes folded in), packed little-endian: bytes `[2·S, S, S, 3·S]`.
/// The contributions of rows 1..3 are byte rotations of the same word
/// (`T0.rotate_left(8·r)`), so a single 1 KiB table serves all four rows —
/// a deliberately small cache footprint for the simulator's many
/// interleaved AES contexts.
const T0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = (s2 as u32) | ((s as u32) << 8) | ((s as u32) << 16) | ((s3 as u32) << 24);
        i += 1;
    }
    t
};

#[inline(always)]
fn t0(b: u32) -> u32 {
    T0[(b & 0xff) as usize]
}

/// AES-128 with a precomputed key schedule.
///
/// The state layout follows FIPS-197: byte `i` of a block maps to state row
/// `i % 4`, column `i / 4`.
///
/// # Example
///
/// ```
/// use ppda_crypto::Aes128;
/// let aes = Aes128::new(&[0u8; 16]);
/// let block = [1u8; 16];
/// assert_eq!(aes.encrypt_block(&block), aes.encrypt_block_reference(&block));
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    /// `Some` iff the CPU executes AES-NI; every kernel then runs on it.
    ni: Option<ni::AesNi>,
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128(<key schedule redacted>)")
    }
}

/// Round key `rk`'s state column `c` as a little-endian word.
#[inline(always)]
fn column(rk: &[u8; 16], c: usize) -> u32 {
    u32::from_le_bytes([rk[4 * c], rk[4 * c + 1], rk[4 * c + 2], rk[4 * c + 3]])
}

impl Aes128 {
    /// Expand `key` into the 11 round keys, and run on AES-NI from here on
    /// if the CPU has it.
    pub fn new(key: &Key) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (round, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * round + c]);
            }
        }
        Aes128 {
            round_keys,
            ni: ni::AesNi::detect(),
        }
    }

    /// This context pinned to the T-table path, whatever the CPU.
    #[cfg(test)]
    pub(crate) fn table_only(mut self) -> Self {
        self.ni = None;
        self
    }

    /// Whether this context runs on AES-NI.
    #[cfg(test)]
    pub(crate) fn uses_ni(&self) -> bool {
        self.ni.is_some()
    }

    fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut Block) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// Row r (bytes r, r+4, r+8, r+12) rotates left by r positions.
    fn shift_rows(state: &mut Block) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn mix_columns(state: &mut Block) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    /// Encrypt one block.
    #[inline]
    pub fn encrypt_block(&self, block: &Block) -> Block {
        match self.ni {
            Some(ni) => ni.encrypt_block(&self.round_keys, block),
            None => self.encrypt_block_table(block),
        }
    }

    /// CBC-MAC over whole blocks: `state = E(state ⊕ block)` for each
    /// block in turn.
    #[inline]
    pub(crate) fn mac_blocks(&self, state: &mut Block, blocks: &[Block]) {
        match self.ni {
            Some(ni) => ni.mac_blocks(&self.round_keys, state, blocks),
            None => {
                for block in blocks {
                    for (s, b) in state.iter_mut().zip(block) {
                        *s ^= b;
                    }
                    *state = self.encrypt_block_table(state);
                }
            }
        }
    }

    /// XOR `data` with the CTR keystream that starts at the big-endian
    /// 128-bit `counter`, which advances (wrapping at 2¹²⁸) once per block
    /// of `data`, a partial last block included.
    #[inline]
    pub(crate) fn xor_keystream(&self, counter: &mut Block, data: &mut [u8]) {
        match self.ni {
            Some(ni) => ni.xor_keystream(&self.round_keys, counter, data),
            None => {
                let mut c = u128::from_be_bytes(*counter);
                for chunk in data.chunks_mut(BLOCK_LEN) {
                    let keystream = self.encrypt_block_table(&c.to_be_bytes());
                    for (d, k) in chunk.iter_mut().zip(&keystream) {
                        *d ^= k;
                    }
                    c = c.wrapping_add(1);
                }
                *counter = c.to_be_bytes();
            }
        }
    }

    /// Encrypt one block on the word-oriented T-table path.
    fn encrypt_block_table(&self, block: &Block) -> Block {
        let rk = &self.round_keys;
        // State column c lives in word c: bytes [row0, row1, row2, row3],
        // little-endian. ShiftRows means output column c pulls row r from
        // input column (c + r) mod 4.
        let mut w0 = column(block, 0) ^ column(&rk[0], 0);
        let mut w1 = column(block, 1) ^ column(&rk[0], 1);
        let mut w2 = column(block, 2) ^ column(&rk[0], 2);
        let mut w3 = column(block, 3) ^ column(&rk[0], 3);
        for round in rk[1..10].iter() {
            let n0 = t0(w0)
                ^ t0(w1 >> 8).rotate_left(8)
                ^ t0(w2 >> 16).rotate_left(16)
                ^ t0(w3 >> 24).rotate_left(24)
                ^ column(round, 0);
            let n1 = t0(w1)
                ^ t0(w2 >> 8).rotate_left(8)
                ^ t0(w3 >> 16).rotate_left(16)
                ^ t0(w0 >> 24).rotate_left(24)
                ^ column(round, 1);
            let n2 = t0(w2)
                ^ t0(w3 >> 8).rotate_left(8)
                ^ t0(w0 >> 16).rotate_left(16)
                ^ t0(w1 >> 24).rotate_left(24)
                ^ column(round, 2);
            let n3 = t0(w3)
                ^ t0(w0 >> 8).rotate_left(8)
                ^ t0(w1 >> 16).rotate_left(16)
                ^ t0(w2 >> 24).rotate_left(24)
                ^ column(round, 3);
            (w0, w1, w2, w3) = (n0, n1, n2, n3);
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let rk10 = &rk[10];
        let mut out = [0u8; 16];
        let words = [w0, w1, w2, w3];
        for c in 0..4 {
            out[4 * c] = SBOX[(words[c] & 0xff) as usize] ^ rk10[4 * c];
            out[4 * c + 1] = SBOX[((words[(c + 1) % 4] >> 8) & 0xff) as usize] ^ rk10[4 * c + 1];
            out[4 * c + 2] = SBOX[((words[(c + 2) % 4] >> 16) & 0xff) as usize] ^ rk10[4 * c + 2];
            out[4 * c + 3] = SBOX[((words[(c + 3) % 4] >> 24) & 0xff) as usize] ^ rk10[4 * c + 3];
        }
        out
    }

    /// Encrypt one block with the byte-oriented FIPS-197 transcription.
    ///
    /// This is the test oracle for [`Aes128::encrypt_block`] on both of its
    /// paths: slower but a line-by-line match with the standard's
    /// pseudocode. Equivalence over the full input space is enforced by
    /// known-answer tests and the property suites.
    pub fn encrypt_block_reference(&self, block: &Block) -> Block {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[10]);
        state
    }
}

/// The AES-NI kernels, behind a token only CPU detection can mint.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    use super::{Block, BLOCK_LEN};

    /// Blocks per CTR batch: four independent counter blocks keep the
    /// AES unit busy while each one's rounds wait on the last.
    const CTR_BATCH: usize = 4;

    /// Proof that the running CPU executes the AES-NI instructions: the
    /// field is private, so [`AesNi::detect`] is the only constructor.
    #[derive(Clone, Copy)]
    pub(super) struct AesNi(());

    impl AesNi {
        /// `Some` iff the CPU reports AES-NI (std caches the CPUID probe).
        pub(super) fn detect() -> Option<Self> {
            std::arch::is_x86_feature_detected!("aes").then_some(AesNi(()))
        }

        /// Encrypt one block under the expanded `round_keys`.
        #[inline]
        pub(super) fn encrypt_block(self, round_keys: &[Block; 11], block: &Block) -> Block {
            // SAFETY: `self` exists only if `detect` found AES-NI on this CPU,
            // which is all `encrypt1`'s target feature requires.
            unsafe { encrypt1(round_keys, block) }
        }

        /// CBC-MAC `blocks` into `state` (see `Aes128::mac_blocks`).
        #[inline]
        pub(super) fn mac_blocks(
            self,
            round_keys: &[Block; 11],
            state: &mut Block,
            blocks: &[Block],
        ) {
            // SAFETY: as in `encrypt_block`.
            unsafe { mac(round_keys, state, blocks) }
        }

        /// XOR the CTR keystream into `data` (see `Aes128::xor_keystream`).
        #[inline]
        pub(super) fn xor_keystream(
            self,
            round_keys: &[Block; 11],
            counter: &mut Block,
            data: &mut [u8],
        ) {
            // SAFETY: as in `encrypt_block`.
            unsafe { ctr(round_keys, counter, data) }
        }
    }

    #[inline(always)]
    fn load(bytes: &Block) -> __m128i {
        // SAFETY: an unaligned load of exactly the 16 bytes `bytes` borrows;
        // SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(state: __m128i, out: &mut Block) {
        // SAFETY: an unaligned store of exactly the 16 bytes `out` borrows;
        // SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), state) }
    }

    /// The round keys as registers, loaded once per message.
    #[inline(always)]
    fn schedule(round_keys: &[Block; 11]) -> [__m128i; 11] {
        round_keys.each_ref().map(load)
    }

    /// One block through all ten rounds.
    #[inline]
    #[target_feature(enable = "aes")]
    fn rounds(rk: &[__m128i; 11], block: __m128i) -> __m128i {
        let mut state = _mm_xor_si128(block, rk[0]);
        for &k in &rk[1..10] {
            state = _mm_aesenc_si128(state, k);
        }
        _mm_aesenclast_si128(state, rk[10])
    }

    /// One block through the AES-NI rounds. Outside code compiled for
    /// AES-NI, calling it needs an `AesNi` token as proof the CPU has it.
    #[target_feature(enable = "aes")]
    fn encrypt1(round_keys: &[Block; 11], block: &Block) -> Block {
        let mut out = [0u8; BLOCK_LEN];
        store(rounds(&schedule(round_keys), load(block)), &mut out);
        out
    }

    /// The CBC-MAC chain over `blocks`, round keys in registers. Same
    /// calling condition as `encrypt1`.
    #[target_feature(enable = "aes")]
    fn mac(round_keys: &[Block; 11], state: &mut Block, blocks: &[Block]) {
        let rk = schedule(round_keys);
        let mut s = load(state);
        for block in blocks {
            s = rounds(&rk, _mm_xor_si128(s, load(block)));
        }
        store(s, state);
    }

    /// The keystream of the `CTR_BATCH` counter blocks from `counter`,
    /// their rounds interleaved.
    #[inline]
    #[target_feature(enable = "aes")]
    fn keystream(rk: &[__m128i; 11], counter: u128) -> [__m128i; CTR_BATCH] {
        let mut s: [__m128i; CTR_BATCH] = core::array::from_fn(|i| {
            let block = counter.wrapping_add(i as u128).to_be_bytes();
            _mm_xor_si128(load(&block), rk[0])
        });
        for &k in &rk[1..10] {
            for s in &mut s {
                *s = _mm_aesenc_si128(*s, k);
            }
        }
        s.map(|s| _mm_aesenclast_si128(s, rk[10]))
    }

    /// CTR over `data`: whole batches XOR in place, and the blocks of a
    /// shorter tail (a partial last one included) one by one, which the
    /// CPU overlaps as they are independent. The counter is a big-endian
    /// `u128`, so it carries exactly as `ctr::increment_block` does. Same
    /// calling condition as `encrypt1`.
    #[target_feature(enable = "aes")]
    fn ctr(round_keys: &[Block; 11], counter: &mut Block, data: &mut [u8]) {
        let rk = schedule(round_keys);
        let mut c = u128::from_be_bytes(*counter);
        let (batches, tail) = data.as_chunks_mut::<{ CTR_BATCH * BLOCK_LEN }>();
        for batch in batches {
            let (blocks, _) = batch.as_chunks_mut::<BLOCK_LEN>();
            for (block, ks) in blocks.iter_mut().zip(keystream(&rk, c)) {
                store(_mm_xor_si128(load(block), ks), block);
            }
            c = c.wrapping_add(CTR_BATCH as u128);
        }
        for chunk in tail.chunks_mut(BLOCK_LEN) {
            let mut ks = [0u8; BLOCK_LEN];
            store(rounds(&rk, load(&c.to_be_bytes())), &mut ks);
            for (d, k) in chunk.iter_mut().zip(&ks) {
                *d ^= k;
            }
            c = c.wrapping_add(1);
        }
        *counter = c.to_be_bytes();
    }
}

/// Off x86-64 there is no AES-NI: the token cannot exist, and every
/// context runs the T-table path.
#[cfg(not(target_arch = "x86_64"))]
mod ni {
    use super::Block;

    #[derive(Clone, Copy)]
    pub(super) enum AesNi {}

    impl AesNi {
        pub(super) fn detect() -> Option<Self> {
            None
        }

        pub(super) fn encrypt_block(self, _: &[Block; 11], _: &Block) -> Block {
            match self {}
        }

        pub(super) fn mac_blocks(self, _: &[Block; 11], _: &mut Block, _: &[Block]) {
            match self {}
        }

        pub(super) fn xor_keystream(self, _: &[Block; 11], _: &mut Block, _: &mut [u8]) {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    /// Encrypt four blocks on every path this build can run: the byte
    /// oracle, then each backend's three kernels (one block, a one-block
    /// CBC-MAC from the zero state, and one block of CTR keystream from
    /// the block as counter), on the T-table path and on AES-NI when the
    /// CPU has it. Returns each path's name and output.
    fn every_path(key: &Key, blocks: &[Block; 4]) -> Vec<(String, [Block; 4])> {
        let native = Aes128::new(key);
        let mut backends = vec![("T-table", native.clone().table_only())];
        if native.uses_ni() {
            backends.push(("AES-NI", native.clone()));
        }
        let mut paths = vec![(
            "reference".to_string(),
            blocks.map(|b| native.encrypt_block_reference(&b)),
        )];
        for (name, aes) in backends {
            let mac = blocks.map(|b| {
                let mut state = [0u8; BLOCK_LEN];
                aes.mac_blocks(&mut state, &[b]);
                state
            });
            let ctr = blocks.map(|b| {
                let (mut counter, mut keystream) = (b, [0u8; BLOCK_LEN]);
                aes.xor_keystream(&mut counter, &mut keystream);
                keystream
            });
            paths.push((
                format!("{name} block"),
                blocks.map(|b| aes.encrypt_block(&b)),
            ));
            paths.push((format!("{name} CBC-MAC"), mac));
            paths.push((format!("{name} CTR"), ctr));
        }
        paths
    }

    fn assert_every_path(key: &Key, blocks: &[Block; 4], want: &[Block; 4]) {
        for (path, got) in every_path(key, blocks) {
            assert_eq!(&got, want, "{path} path");
        }
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B worked example.
        let key: Key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = block("3243f6a8885a308d313198a2e0370734");
        let ct = block("3925841d02dc09fbdc118597196a0b32");
        assert_every_path(&key, &[pt; 4], &[ct; 4]);
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS-197 Appendix C.1 example vectors.
        let key: Key = block("000102030405060708090a0b0c0d0e0f");
        let pt = block("00112233445566778899aabbccddeeff");
        let ct = block("69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_every_path(&key, &[pt; 4], &[ct; 4]);
    }

    #[test]
    fn sp800_38a_ecb_vectors() {
        // NIST SP 800-38A F.1.1 (AES-128 ECB), checked on every path.
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let pts = [
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ]
        .map(block);
        let cts = [
            "3ad77bb40d7a3660a89ecaf32466ef97",
            "f5d3d58503b9699de785895a96fdbaaf",
            "43b1cd7f598ece23881b00e3ed030688",
            "7b0c785e27e8ad3f8223207104725dd4",
        ]
        .map(block);
        assert_every_path(&key, &pts, &cts);
    }

    #[test]
    fn sp800_38a_cbc_vectors_through_the_mac_kernel() {
        // NIST SP 800-38A F.2.1 (CBC-AES128 encrypt): the CBC-MAC state
        // after each block is that block's ciphertext, whether the blocks
        // go through the kernel one call each or in one call.
        let key = block("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = block("000102030405060708090a0b0c0d0e0f");
        let pts = [
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ]
        .map(block);
        let cts = [
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ]
        .map(block);
        let native = Aes128::new(&key);
        for aes in [native.clone().table_only(), native] {
            let mut state = iv;
            for (pt, ct) in pts.iter().zip(&cts) {
                aes.mac_blocks(&mut state, core::slice::from_ref(pt));
                assert_eq!(&state, ct);
            }
            let mut state = iv;
            aes.mac_blocks(&mut state, &pts);
            assert_eq!(state, cts[3]);
        }
    }

    #[test]
    fn ttable_matches_reference_exhaustive_bytes() {
        // Single-active-byte inputs hit every T0 entry in every position;
        // every path must agree with the byte oracle on each of them.
        let key = [0x5A; 16];
        for pos in 0..16 {
            for v in (0..=255u8).step_by(4) {
                let blocks: [Block; 4] = core::array::from_fn(|i| {
                    let mut pt = [0u8; 16];
                    pt[pos] = v + i as u8;
                    pt
                });
                let paths = every_path(&key, &blocks);
                for (path, got) in &paths[1..] {
                    assert_eq!(
                        got, &paths[0].1,
                        "{path} diverged at byte {pos} = {v:#04x}.."
                    );
                }
            }
        }
    }

    #[test]
    fn random_blocks_match_the_reference() {
        let aes = Aes128::new(&[0xAB; 16]);
        let mut state = 1u64;
        for _ in 0..256 {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            assert_eq!(aes.encrypt_block(&pt), aes.encrypt_block_reference(&pt));
        }
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [0x42; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn context_holds_one_key_schedule() {
        // 11 round keys as bytes plus the one-byte AES-NI token; plans hold
        // one context per pairwise CCM key, so a second copy of the
        // schedule would double their size.
        assert!(core::mem::size_of::<Aes128>() <= 11 * 16 + 1);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0x55; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("55"));
        assert!(dbg.contains("redacted"));
    }

    #[test]
    fn t0_entries_pack_mix_column_constants() {
        for i in 0..256 {
            let s = SBOX[i];
            let [b0, b1, b2, b3] = T0[i].to_le_bytes();
            assert_eq!(b0, xtime(s));
            assert_eq!(b1, s);
            assert_eq!(b2, s);
            assert_eq!(b3, xtime(s) ^ s);
        }
    }
}
