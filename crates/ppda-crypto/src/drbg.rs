//! Deterministic AES-CTR random bit generator.
//!
//! A simplified CTR_DRBG (in the spirit of NIST SP 800-90A, without the
//! personalization/derivation-function and reseed machinery): the
//! generator holds an AES-128 key and a 128-bit big-endian counter, and
//! output block `i` (from 1) is `AES_K(i)`. Blocks are produced four at a
//! time, one run of the cipher's CTR kernel over a zeroed buffer, and
//! handed out in order.
//!
//! Each node in the simulated deployment instantiates its DRBG from the
//! network master secret and its node id, giving reproducible yet
//! node-independent share randomness.

use rand::{Error, RngCore, SeedableRng};

use crate::aes::{Aes128, Block, Key, BLOCK_LEN};

/// Counter blocks per refill.
const RUN_BLOCKS: usize = 4;
/// Bytes in one keystream run.
const RUN_LEN: usize = RUN_BLOCKS * BLOCK_LEN;

/// A deterministic AES-CTR random bit generator implementing [`RngCore`].
///
/// # Example
///
/// ```
/// use rand::RngCore;
/// use ppda_crypto::CtrDrbg;
/// let mut a = CtrDrbg::new([3u8; 16], b"node-7");
/// let mut b = CtrDrbg::new([3u8; 16], b"node-7");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = CtrDrbg::new([3u8; 16], b"node-8");
/// assert_ne!(a.next_u64(), c.next_u64());
/// ```
#[derive(Clone)]
pub struct CtrDrbg {
    aes: Aes128,
    /// The counter block of the next run's first block.
    counter: Block,
    /// The current run of keystream blocks; bytes `used..` are unread.
    run: [Block; RUN_BLOCKS],
    used: usize,
}

impl core::fmt::Debug for CtrDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("CtrDrbg(<state redacted>)")
    }
}

impl CtrDrbg {
    /// Instantiate from a master key and a domain-separation string
    /// (e.g. the node id). Identical inputs give identical streams.
    pub fn new(master: Key, domain: &[u8]) -> Self {
        Self::with_master_cipher(&Aes128::new(&master), domain)
    }

    /// [`CtrDrbg::new`] with a pre-expanded master cipher. A deployment
    /// instantiates many DRBGs from the *same* master secret (one per
    /// source per round); expanding the master key schedule once and
    /// reusing it here produces the identical stream as [`CtrDrbg::new`].
    pub fn with_master_cipher(master_aes: &Aes128, domain: &[u8]) -> Self {
        // Derive the working key: K = AES_master(pad(domain)) xor-folded over
        // domain chunks — a simple PRF application, sufficient for the
        // deterministic-simulation threat model.
        let mut derived: Block = [0u8; 16];
        for (i, chunk) in domain.chunks(16).enumerate() {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            block[15] ^= i as u8;
            let enc = master_aes.encrypt_block(&block);
            for (d, e) in derived.iter_mut().zip(enc.iter()) {
                *d ^= e;
            }
        }
        if domain.is_empty() {
            derived = master_aes.encrypt_block(&[0u8; 16]);
        }
        CtrDrbg {
            aes: Aes128::new(&derived),
            counter: 1u128.to_be_bytes(),
            run: [[0u8; BLOCK_LEN]; RUN_BLOCKS],
            used: RUN_LEN,
        }
    }

    /// This generator pinned to the T-table path, whatever the CPU.
    #[cfg(test)]
    pub(crate) fn table_only(mut self) -> Self {
        self.aes = self.aes.table_only();
        self
    }

    /// The next `N` bytes of the stream, read straight from the current
    /// run when it holds them.
    #[inline]
    fn next_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        match self.run.as_flattened().get(self.used..self.used + N) {
            Some(bytes) => {
                out.copy_from_slice(bytes);
                self.used += N;
            }
            None => self.fill_bytes(&mut out),
        }
        out
    }
}

impl RngCore for CtrDrbg {
    fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.next_array())
    }

    fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.next_array())
    }

    fn fill_bytes(&mut self, mut dest: &mut [u8]) {
        loop {
            let unread = &self.run.as_flattened()[self.used..];
            let take = unread.len().min(dest.len());
            dest[..take].copy_from_slice(&unread[..take]);
            self.used += take;
            dest = &mut dest[take..];
            if dest.is_empty() {
                return;
            }
            self.run = [[0u8; BLOCK_LEN]; RUN_BLOCKS];
            self.aes
                .xor_keystream(&mut self.counter, self.run.as_flattened_mut());
            self.used = 0;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for CtrDrbg {
    type Seed = [u8; 16];

    fn from_seed(seed: Self::Seed) -> Self {
        CtrDrbg::new(seed, b"seedable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_cipher_constructor_matches_new() {
        let master = [0x3Cu8; 16];
        let cipher = Aes128::new(&master);
        let mut a = CtrDrbg::new(master, b"node-4");
        let mut b = CtrDrbg::with_master_cipher(&cipher, b"node-4");
        let mut buf_a = [0u8; 48];
        let mut buf_b = [0u8; 48];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn deterministic_replay() {
        let mut a = CtrDrbg::new([1u8; 16], b"x");
        let mut b = CtrDrbg::new([1u8; 16], b"x");
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn domain_separation() {
        let mut a = CtrDrbg::new([1u8; 16], b"node-0");
        let mut b = CtrDrbg::new([1u8; 16], b"node-1");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn long_domain_strings_work() {
        let long = vec![0xAAu8; 100];
        let mut a = CtrDrbg::new([1u8; 16], &long);
        let mut b = CtrDrbg::new([1u8; 16], &long[..99]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn empty_domain_works() {
        let mut a = CtrDrbg::new([1u8; 16], b"");
        let x = a.next_u64();
        let y = a.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn output_distribution_rough_sanity() {
        // Bit-balance check: ~50% ones over 64k bits.
        let mut rng = CtrDrbg::new([7u8; 16], b"balance");
        let mut ones = 0u32;
        let mut buf = [0u8; 8192];
        rng.fill_bytes(&mut buf);
        for b in buf {
            ones += b.count_ones();
        }
        let total = 8192 * 8;
        let ratio = ones as f64 / total as f64;
        assert!((0.48..0.52).contains(&ratio), "bit ratio {ratio}");
    }

    #[test]
    fn partial_reads_consistent_with_bulk() {
        let mut a = CtrDrbg::new([9u8; 16], b"chunk");
        let mut b = CtrDrbg::new([9u8; 16], b"chunk");
        let mut bulk = [0u8; 48];
        a.fill_bytes(&mut bulk);
        let mut pieces = [0u8; 48];
        for chunk in pieces.chunks_mut(5) {
            b.fill_bytes(chunk);
        }
        assert_eq!(bulk, pieces);
    }

    /// The first `len` bytes of the stream, from an independent oracle:
    /// block i (from 0) is the byte-oriented reference encryption of
    /// counter i + 1 under the generator's derived key.
    fn reference_stream(rng: &CtrDrbg, len: usize) -> Vec<u8> {
        (1..=len.div_ceil(16) as u128)
            .flat_map(|i| rng.aes.encrypt_block_reference(&i.to_be_bytes()))
            .take(len)
            .collect()
    }

    #[test]
    fn fast_path_emits_identical_stream() {
        // Every request length from 0..64, issued twice back-to-back so the
        // second request starts at every possible offset within a block and
        // a run; a word read of each width then checks that nothing was
        // skipped or read twice.
        for len in 0..64usize {
            let mut rng = CtrDrbg::new([4u8; 16], b"stream");
            let oracle = reference_stream(&rng, 2 * len + 12);
            for i in 0..2 {
                let mut got = vec![0u8; len];
                rng.fill_bytes(&mut got);
                assert_eq!(
                    got,
                    oracle[i * len..(i + 1) * len],
                    "diverged at request length {len}"
                );
            }
            let tail = &oracle[2 * len..];
            assert_eq!(rng.next_u64().to_le_bytes(), tail[..8], "length {len}");
            assert_eq!(rng.next_u32().to_le_bytes(), tail[8..], "length {len}");
        }
    }

    #[test]
    fn debug_redacts_state() {
        let rng = CtrDrbg::new([1u8; 16], b"x");
        assert_eq!(format!("{rng:?}"), "CtrDrbg(<state redacted>)");
    }
}
