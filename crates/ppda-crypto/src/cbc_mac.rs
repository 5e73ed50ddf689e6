//! CBC-MAC over AES-128, the authentication core of CCM.
//!
//! Raw CBC-MAC is only secure for fixed-length (or length-prefixed)
//! messages; CCM's B₀ block encodes the message length, which is exactly the
//! discipline this type is used under. It is exposed publicly because the
//! key-derivation in [`crate::PairwiseKeys`] also uses it as a PRF on
//! fixed-size inputs.

use crate::aes::{Aes128, Block, BLOCK_LEN};

/// Incremental CBC-MAC computation.
///
/// # Example
///
/// ```
/// use ppda_crypto::{Aes128, CbcMac};
/// let aes = Aes128::new(&[1u8; 16]);
/// let mut mac = CbcMac::new(&aes);
/// mac.update(&[0u8; 16]);
/// mac.update(&[1u8; 16]);
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct CbcMac<'a> {
    aes: &'a Aes128,
    state: Block,
    /// Absorbed bytes the kernel has not run over yet: whole blocks, then
    /// at most one partial block. Short absorbs (CCM's B₀, its AAD and a
    /// one-lane payload) collect here and go through one kernel call.
    buffer: [Block; BUFFER_BLOCKS],
    buffered: usize,
}

/// Blocks [`CbcMac`] collects before it runs the kernel.
const BUFFER_BLOCKS: usize = 4;

impl<'a> CbcMac<'a> {
    /// Start a new MAC with a zero IV (as CCM requires).
    pub fn new(aes: &'a Aes128) -> Self {
        CbcMac {
            aes,
            state: [0u8; BLOCK_LEN],
            buffer: [[0u8; BLOCK_LEN]; BUFFER_BLOCKS],
            buffered: 0,
        }
    }

    /// Absorb bytes. Data may arrive in arbitrary-sized chunks: short ones
    /// collect in the buffer, and a long one runs through the cipher's
    /// CBC-MAC kernel straight from `data`, all its whole blocks in one
    /// call.
    pub fn update(&mut self, mut data: &[u8]) {
        let buffer = self.buffer.as_flattened_mut();
        if data.len() <= buffer.len() - self.buffered {
            buffer[self.buffered..self.buffered + data.len()].copy_from_slice(data);
            self.buffered += data.len();
            return;
        }
        // Complete the partial block, run the buffer, then `data`'s whole
        // blocks; keep its partial tail.
        let fill = self.buffered.next_multiple_of(BLOCK_LEN) - self.buffered;
        buffer[self.buffered..self.buffered + fill].copy_from_slice(&data[..fill]);
        self.buffered += fill;
        data = &data[fill..];
        self.flush();
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        self.aes.mac_blocks(&mut self.state, blocks);
        self.buffer.as_flattened_mut()[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pad the final partial block with zeros (CCM convention) and absorb it.
    pub fn pad_zero(&mut self) {
        let end = self.buffered.next_multiple_of(BLOCK_LEN);
        self.buffer.as_flattened_mut()[self.buffered..end].fill(0);
        self.buffered = end;
    }

    /// Run the kernel over the buffered whole blocks.
    fn flush(&mut self) {
        let blocks = self.buffered / BLOCK_LEN;
        if blocks > 0 {
            self.aes.mac_blocks(&mut self.state, &self.buffer[..blocks]);
        }
        self.buffered = 0;
    }

    /// Zero-pad any remaining partial block and return the 16-byte tag.
    pub fn finalize(mut self) -> Block {
        self.pad_zero();
        self.flush();
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_manual_cbc() {
        let aes = Aes128::new(&[7u8; 16]);
        let m1 = [0x11u8; 16];
        let m2 = [0x22u8; 16];

        let mut mac = CbcMac::new(&aes);
        mac.update(&m1);
        mac.update(&m2);
        let tag = mac.finalize();

        // Manual two-block CBC with zero IV.
        let c1 = aes.encrypt_block(&m1);
        let mut x = [0u8; 16];
        for i in 0..16 {
            x[i] = c1[i] ^ m2[i];
        }
        let expect = aes.encrypt_block(&x);
        assert_eq!(tag, expect);
    }

    #[test]
    fn chunking_is_invariant() {
        let aes = Aes128::new(&[9u8; 16]);
        let data: Vec<u8> = (0..53).collect();

        let mut whole = CbcMac::new(&aes);
        whole.update(&data);
        let tag_whole = whole.finalize();

        let mut parts = CbcMac::new(&aes);
        for chunk in data.chunks(7) {
            parts.update(chunk);
        }
        let tag_parts = parts.finalize();
        assert_eq!(tag_whole, tag_parts);
    }

    #[test]
    fn zero_padding_distinguishes_from_explicit_zeros_only_by_length_discipline() {
        // CBC-MAC with zero padding maps "ab" and "ab\0" to the same tag —
        // documenting why CCM length-prefixes. This test pins that behavior.
        let aes = Aes128::new(&[5u8; 16]);
        let mut a = CbcMac::new(&aes);
        a.update(b"ab");
        let mut b = CbcMac::new(&aes);
        b.update(b"ab\0");
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn empty_message_tag_is_stable_zero_state_encrypt_free() {
        let aes = Aes128::new(&[1u8; 16]);
        let mac = CbcMac::new(&aes);
        // No data, no padding -> state never processed: all-zero tag.
        assert_eq!(mac.finalize(), [0u8; 16]);
    }

    #[test]
    fn different_keys_different_tags() {
        let a = Aes128::new(&[1u8; 16]);
        let b = Aes128::new(&[2u8; 16]);
        let mut ma = CbcMac::new(&a);
        ma.update(&[0x33; 32]);
        let mut mb = CbcMac::new(&b);
        mb.update(&[0x33; 32]);
        assert_ne!(ma.finalize(), mb.finalize());
    }
}
