//! A deterministic byte-oriented transcript over the repo's own AES-128.
//!
//! A transcript absorbs labeled byte strings into a running hash;
//! challenges squeezed from it bind everything absorbed before them. The
//! compression function is a single-permutation Davies–Meyer over
//! [`Aes128`] under one fixed, public key
//! (`x = H_{i-1} ⊕ m_i; H_i = π(x) ⊕ x`, the Even–Mansour shape), which
//! turns the block cipher we already trust for CCM into a one-way
//! 128-bit hash without pulling in a dedicated hash dependency. Keying
//! AES once — instead of re-running the key schedule per message block as
//! classic Davies–Meyer would — keeps a digest over a whole share slab
//! cheap (perfbench's traced `wide_b64_audit` replay still times one per
//! source per round as its commit span, which rounds no longer run).
//!
//! Raw Merkle–Damgård over zero-padded input would be ambiguous (the
//! `CbcMac` tests pin exactly that pitfall), so every absorb is *framed*:
//! a one-byte opcode, then the length-prefixed label, then the
//! length-prefixed payload. Two different absorb sequences therefore feed
//! different byte streams into the compression function — reordering,
//! re-splitting or re-labeling absorbs always changes every later
//! challenge. The total framed length is compressed into the final block
//! before squeezing, which disambiguates the zero padding of the last
//! partial block.

use std::sync::OnceLock;

use ppda_crypto::{Aes128, Block, BLOCK_LEN};

/// Frame opcodes separating the transcript's operation kinds.
const OP_DOMAIN: u8 = 0x00;
const OP_ABSORB: u8 = 0x01;
const OP_CHALLENGE: u8 = 0x02;

/// Trailing marker mixed into the finalization block alongside the total
/// framed length.
const FINAL_MARKER: &[u8; 8] = b"ppda-fin";

/// The fixed, public permutation key. Its only job is to pick one AES
/// permutation π out of the family; secrecy is not required and the key
/// schedule runs once per process.
const PERM_KEY: &[u8; BLOCK_LEN] = b"ppda/transcript1";

/// The fixed permutation π = AES-128 under [`PERM_KEY`].
fn perm(block: &Block) -> Block {
    static PERM: OnceLock<Aes128> = OnceLock::new();
    PERM.get_or_init(|| Aes128::new(PERM_KEY))
        .encrypt_block(block)
}

/// A domain-separated absorb/challenge transcript (128-bit state).
///
/// # Example
///
/// ```
/// use ppda_integrity::Transcript;
/// let mut a = Transcript::new(b"example");
/// a.absorb(b"reading", &[1, 2, 3]);
/// let mut b = Transcript::new(b"example");
/// b.absorb(b"reading", &[1, 2, 3]);
/// assert_eq!(a.challenge_u64(b"tag"), b.challenge_u64(b"tag"));
///
/// // Framing defeats splitting: the same bytes as two absorbs is a
/// // different transcript.
/// let mut c = Transcript::new(b"example");
/// c.absorb(b"reading", &[1, 2]);
/// c.absorb(b"reading", &[3]);
/// assert_ne!(a.challenge_u64(b"tag"), c.challenge_u64(b"tag"));
/// ```
#[derive(Debug, Clone)]
pub struct Transcript {
    state: Block,
    buffer: Block,
    buffered: usize,
    total: u64,
}

impl Transcript {
    /// Start a transcript under a protocol domain label.
    pub fn new(domain: &[u8]) -> Self {
        let mut t = Transcript {
            state: [0u8; BLOCK_LEN],
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total: 0,
        };
        t.frame(OP_DOMAIN, domain, &[]);
        t
    }

    /// Absorb a labeled byte string.
    pub fn absorb(&mut self, label: &[u8], data: &[u8]) {
        self.frame(OP_ABSORB, label, data);
    }

    /// Absorb a labeled `u64` (little-endian).
    pub fn absorb_u64(&mut self, label: &[u8], value: u64) {
        self.absorb(label, &value.to_le_bytes());
    }

    /// Squeeze `out.len()` challenge bytes bound to everything absorbed so
    /// far, then ratchet the state so later absorbs diverge.
    pub fn challenge_bytes(&mut self, label: &[u8], out: &mut [u8]) {
        self.frame(OP_CHALLENGE, label, &(out.len() as u64).to_le_bytes());
        self.flush();
        let mut fin = [0u8; BLOCK_LEN];
        fin[..8].copy_from_slice(&self.total.to_le_bytes());
        fin[8..].copy_from_slice(FINAL_MARKER);
        self.compress(&fin);

        // Squeeze in counter mode from the finalized state, then ratchet.
        // Each output block is `π(state ⊕ ctr_i) ⊕ state` (one-way in the
        // state); the ratchet reserves counter zero.
        let state = self.state;
        for (i, chunk) in out.chunks_mut(BLOCK_LEN).enumerate() {
            let mut ctr = state;
            for (c, b) in ctr.iter_mut().zip((1 + i as u64).to_le_bytes()) {
                *c ^= b;
            }
            let mut block = perm(&ctr);
            for (b, s) in block.iter_mut().zip(state.iter()) {
                *b ^= s;
            }
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
        let mut next = perm(&state);
        for (n, s) in next.iter_mut().zip(state.iter()) {
            *n ^= s;
        }
        self.state = next;
        self.total = 0;
    }

    /// Squeeze a 16-byte challenge block — the natural digest width.
    pub fn challenge_block(&mut self, label: &[u8]) -> Block {
        let mut out = [0u8; BLOCK_LEN];
        self.challenge_bytes(label, &mut out);
        out
    }

    /// Squeeze a `u64` challenge (little-endian).
    pub fn challenge_u64(&mut self, label: &[u8]) -> u64 {
        let mut out = [0u8; 8];
        self.challenge_bytes(label, &mut out);
        u64::from_le_bytes(out)
    }

    /// Feed one framed operation: opcode, length-prefixed label,
    /// length-prefixed payload.
    fn frame(&mut self, op: u8, label: &[u8], data: &[u8]) {
        self.feed(&[op]);
        self.feed(&(label.len() as u64).to_le_bytes());
        self.feed(label);
        self.feed(&(data.len() as u64).to_le_bytes());
        self.feed(data);
    }

    /// Buffer bytes, compressing each full block as it fills.
    fn feed(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        while !data.is_empty() {
            let space = BLOCK_LEN - self.buffered;
            let take = space.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
    }

    /// Zero-pad and compress any partial block (the total-length block
    /// compressed afterwards disambiguates the padding).
    fn flush(&mut self) {
        if self.buffered > 0 {
            for b in &mut self.buffer[self.buffered..] {
                *b = 0;
            }
            let block = self.buffer;
            self.compress(&block);
            self.buffered = 0;
        }
    }

    /// Single-permutation Davies–Meyer: `x = state ⊕ block;
    /// state ← π(x) ⊕ x`. One AES call per block, no per-block key
    /// schedule.
    fn compress(&mut self, block: &Block) {
        let mut x = self.state;
        for (x, b) in x.iter_mut().zip(block.iter()) {
            *x ^= b;
        }
        let e = perm(&x);
        for ((s, e), x) in self.state.iter_mut().zip(e.iter()).zip(x.iter()) {
            *s = e ^ x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(block: &[u8]) -> String {
        block.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known-answer tests: these digests are frozen. Any change to the
    /// framing, compression, or squeeze breaks every stored digest.
    #[test]
    fn kat_empty_transcript() {
        let mut t = Transcript::new(b"ppda/kat");
        assert_eq!(
            hex(&t.challenge_block(b"out")),
            "5850dfcfeb1b851eed3dd8d0f78df6e9"
        );
    }

    #[test]
    fn kat_single_absorb() {
        let mut t = Transcript::new(b"ppda/kat");
        t.absorb(b"msg", b"hello world");
        assert_eq!(
            hex(&t.challenge_block(b"out")),
            "2e0cb233b7c0221ace1f9ba5de011264"
        );
    }

    #[test]
    fn kat_structured_round() {
        let mut t = Transcript::new(b"ppda/round");
        t.absorb_u64(b"round", 7);
        t.absorb_u64(b"src", 3);
        t.absorb(b"shares", &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(
            hex(&t.challenge_u64(b"tag").to_le_bytes()),
            "2460225e4207b58c"
        );
    }

    #[test]
    fn challenges_ratchet() {
        let mut t = Transcript::new(b"ratchet");
        let a = t.challenge_u64(b"c");
        let b = t.challenge_u64(b"c");
        assert_ne!(a, b, "identical challenges must ratchet apart");
    }

    #[test]
    fn challenge_length_is_bound() {
        let mut a = Transcript::new(b"len");
        let mut b = Transcript::new(b"len");
        let mut out8 = [0u8; 8];
        let mut out16 = [0u8; 16];
        a.challenge_bytes(b"c", &mut out8);
        b.challenge_bytes(b"c", &mut out16);
        assert_ne!(out8, out16[..8], "output length is part of the frame");
    }

    #[test]
    fn long_squeeze_extends_prefix_free() {
        let mut a = Transcript::new(b"sq");
        let mut b = Transcript::new(b"sq");
        let mut out40 = [0u8; 40];
        let mut out40b = [0u8; 40];
        a.challenge_bytes(b"c", &mut out40);
        b.challenge_bytes(b"c", &mut out40b);
        assert_eq!(out40, out40b);
        assert_ne!(out40[16..32], out40[..16], "counter blocks differ");
    }

    #[test]
    fn domain_separates() {
        let mut a = Transcript::new(b"domain-a");
        let mut b = Transcript::new(b"domain-b");
        a.absorb(b"m", b"x");
        b.absorb(b"m", b"x");
        assert_ne!(a.challenge_u64(b"c"), b.challenge_u64(b"c"));
    }

    #[test]
    fn label_separates() {
        let mut a = Transcript::new(b"d");
        let mut b = Transcript::new(b"d");
        a.absorb(b"label-a", b"x");
        b.absorb(b"label-b", b"x");
        assert_ne!(a.challenge_u64(b"c"), b.challenge_u64(b"c"));
    }

    #[test]
    fn label_data_boundary_is_framed() {
        // "ab" | "c" vs "a" | "bc" — same concatenation, different frames.
        let mut a = Transcript::new(b"d");
        let mut b = Transcript::new(b"d");
        a.absorb(b"ab", b"c");
        b.absorb(b"a", b"bc");
        assert_ne!(a.challenge_u64(b"c"), b.challenge_u64(b"c"));
    }

    proptest! {
        /// Determinism: the same absorb sequence always squeezes the same
        /// challenge.
        #[test]
        fn replay_is_exact(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut a = Transcript::new(b"prop");
            let mut b = Transcript::new(b"prop");
            a.absorb(b"m", &data);
            b.absorb(b"m", &data);
            prop_assert_eq!(a.challenge_u64(b"c"), b.challenge_u64(b"c"));
        }

        /// Split invariance (negative): re-splitting one absorb into two
        /// changes the challenge — the framing is not concatenation.
        #[test]
        fn splitting_an_absorb_changes_the_challenge(
            data in proptest::collection::vec(any::<u8>(), 2..120),
            cut in 1usize..100,
        ) {
            let cut = cut % (data.len() - 1) + 1;
            let mut whole = Transcript::new(b"prop");
            whole.absorb(b"m", &data);
            let mut split = Transcript::new(b"prop");
            split.absorb(b"m", &data[..cut]);
            split.absorb(b"m", &data[cut..]);
            prop_assert_ne!(whole.challenge_u64(b"c"), split.challenge_u64(b"c"));
        }

        /// Permutation invariance (negative): swapping two distinct
        /// absorbs changes the challenge.
        #[test]
        fn permuting_absorbs_changes_the_challenge(
            x in proptest::collection::vec(any::<u8>(), 1..60),
            y in proptest::collection::vec(any::<u8>(), 1..60),
        ) {
            let mut y = y;
            if x == y {
                y.push(0x5a); // force the two absorbs apart
            }
            let mut ab = Transcript::new(b"prop");
            ab.absorb(b"m", &x);
            ab.absorb(b"m", &y);
            let mut ba = Transcript::new(b"prop");
            ba.absorb(b"m", &y);
            ba.absorb(b"m", &x);
            prop_assert_ne!(ab.challenge_u64(b"c"), ba.challenge_u64(b"c"));
        }

        /// Any single-byte perturbation of the absorbed data changes the
        /// challenge (collision stability for the digest use-case).
        #[test]
        fn flipping_a_byte_changes_the_challenge(
            data in proptest::collection::vec(any::<u8>(), 1..120),
            at in 0usize..120,
            flip in 1u8..=255,
        ) {
            let at = at % data.len();
            let mut tampered = data.clone();
            tampered[at] ^= flip;
            let mut a = Transcript::new(b"prop");
            a.absorb(b"m", &data);
            let mut b = Transcript::new(b"prop");
            b.absorb(b"m", &tampered);
            prop_assert_ne!(a.challenge_u64(b"c"), b.challenge_u64(b"c"));
        }
    }
}
