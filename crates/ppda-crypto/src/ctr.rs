//! CTR mode keystream (NIST SP 800-38A §6.5).
//!
//! CTR is used standalone for the DRBG and as the confidentiality half of
//! [`crate::Ccm`]. The counter block layout is caller-defined; helpers below
//! implement the big-endian 128-bit increment used by both.

use crate::aes::{Aes128, Block, BLOCK_LEN};

/// Increment a 128-bit big-endian counter block in place (wraps at 2¹²⁸).
pub fn increment_block(block: &mut Block) {
    for byte in block.iter_mut().rev() {
        let (v, carry) = byte.overflowing_add(1);
        *byte = v;
        if !carry {
            break;
        }
    }
}

/// XOR `data` with the AES-CTR keystream that starts at `counter_block`.
///
/// Encryption and decryption are the same operation. The caller's counter
/// block is advanced once per consumed keystream block, so consecutive calls
/// continue the stream seamlessly.
///
/// # Example
///
/// ```
/// use ppda_crypto::{Aes128, ctr};
/// let aes = Aes128::new(&[9u8; 16]);
/// let mut counter = [0u8; 16];
/// let mut msg = *b"attack at dawn!!";
/// ctr::xor_keystream(&aes, &mut counter, &mut msg);
/// let mut counter = [0u8; 16];
/// ctr::xor_keystream(&aes, &mut counter, &mut msg);
/// assert_eq!(&msg, b"attack at dawn!!");
/// ```
pub fn xor_keystream(aes: &Aes128, counter_block: &mut Block, data: &mut [u8]) {
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let keystream = aes.encrypt_block(counter_block);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        increment_block(counter_block);
    }
}

/// Number of counter blocks in one keystream run.
pub(crate) const RUN_BLOCKS: usize = 4;

/// The keystream of the [`RUN_BLOCKS`] counter blocks starting at
/// `counter_block`, which advances past them. The four encryptions are
/// independent, so they go through the cipher's 4-block kernel.
#[inline]
pub(crate) fn keystream_run(aes: &Aes128, counter_block: &mut Block) -> [Block; RUN_BLOCKS] {
    let mut run = [[0u8; BLOCK_LEN]; RUN_BLOCKS];
    for block in run.iter_mut() {
        *block = *counter_block;
        increment_block(counter_block);
    }
    aes.encrypt4(&mut run);
    run
}

/// XOR one whole block of keystream into `chunk` using 64-bit lanes.
#[inline(always)]
fn xor_block(chunk: &mut [u8], keystream: &Block) {
    let lo = u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes"))
        ^ u64::from_le_bytes(keystream[0..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"))
        ^ u64::from_le_bytes(keystream[8..16].try_into().expect("8 bytes"));
    chunk[0..8].copy_from_slice(&lo.to_le_bytes());
    chunk[8..16].copy_from_slice(&hi.to_le_bytes());
}

/// XOR `data` with the AES-CTR keystream that starts at `counter_block`,
/// producing keystream in multi-block runs.
///
/// Byte-for-byte identical to [`xor_keystream`] (same counter layout, same
/// per-block advance), but every whole 64-byte stretch of `data` takes its
/// keystream from one run of four counter blocks. Their encryptions are
/// data-independent, so they go through the cipher's 4-block kernel: on
/// AES-NI the four blocks' rounds interleave, on the T-table path they
/// run one after another. The remaining whole blocks and the partial tail
/// are encrypted one block at a time, and the XOR runs on 64-bit lanes
/// instead of bytes. Use this on bulk paths (batched CCM payloads); the
/// equivalence is enforced by the property suites.
pub fn xor_keystream_bulk(aes: &Aes128, counter_block: &mut Block, data: &mut [u8]) {
    let mut wide = data.chunks_exact_mut(RUN_BLOCKS * BLOCK_LEN);
    for run in &mut wide {
        let keystream = keystream_run(aes, counter_block);
        for (chunk, ks) in run.chunks_exact_mut(BLOCK_LEN).zip(&keystream) {
            xor_block(chunk, ks);
        }
    }
    let tail = wide.into_remainder();
    let mut blocks = tail.chunks_exact_mut(BLOCK_LEN);
    for chunk in &mut blocks {
        let keystream = aes.encrypt_block(counter_block);
        xor_block(chunk, &keystream);
        increment_block(counter_block);
    }
    let rest = blocks.into_remainder();
    if !rest.is_empty() {
        let keystream = aes.encrypt_block(counter_block);
        for (d, k) in rest.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        increment_block(counter_block);
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

    #[test]
    fn sp800_38a_f5_ctr_vectors() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four segments.
        let aes = Aes128::new(&hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap());
        let mut counter: Block = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        xor_keystream(&aes, &mut counter, &mut data);
        assert_eq!(
            data,
            hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee",
            ))
        );
    }

    #[test]
    fn increment_carries() {
        let mut b = [0xffu8; 16];
        increment_block(&mut b);
        assert_eq!(b, [0u8; 16]);

        let mut b = [0u8; 16];
        b[15] = 0xff;
        increment_block(&mut b);
        assert_eq!(b[15], 0);
        assert_eq!(b[14], 1);
    }

    #[test]
    fn partial_block_tail() {
        let aes = Aes128::new(&[3u8; 16]);
        let mut counter = [0u8; 16];
        let mut data = vec![0u8; 21]; // 1 full block + 5 bytes
        xor_keystream(&aes, &mut counter, &mut data);
        // Counter advanced twice (one per consumed block).
        assert_eq!(counter[15], 2);
        // Round trip.
        let mut counter = [0u8; 16];
        xor_keystream(&aes, &mut counter, &mut data);
        assert_eq!(data, vec![0u8; 21]);
    }

    #[test]
    fn empty_data_is_noop() {
        let aes = Aes128::new(&[3u8; 16]);
        let mut counter = [7u8; 16];
        let before = counter;
        xor_keystream(&aes, &mut counter, &mut []);
        assert_eq!(counter, before);
    }

    #[test]
    fn bulk_matches_blockwise_for_all_lengths() {
        // Cover empty, sub-block, exact-block, wide-run and ragged sizes
        // around the 4-block bulk boundary.
        let aes = Aes128::new(&[0x61u8; 16]);
        for len in 0..=200usize {
            let msg: Vec<u8> = (0..len as u32).map(|i| (i * 7) as u8).collect();

            let mut blockwise = msg.clone();
            let mut c1 = [0xF0u8; 16];
            xor_keystream(&aes, &mut c1, &mut blockwise);

            let mut bulk = msg;
            let mut c2 = [0xF0u8; 16];
            xor_keystream_bulk(&aes, &mut c2, &mut bulk);

            assert_eq!(blockwise, bulk, "payload length {len}");
            assert_eq!(c1, c2, "counter advance at length {len}");
        }
    }

    #[test]
    fn bulk_carries_counter_across_wide_runs() {
        // A counter about to wrap its low byte mid-run must still match.
        let aes = Aes128::new(&[9u8; 16]);
        let mut near_wrap = [0u8; 16];
        near_wrap[15] = 0xFE;
        let mut data_a = vec![0x11u8; 7 * 16];
        let mut data_b = data_a.clone();
        let mut c1 = near_wrap;
        let mut c2 = near_wrap;
        xor_keystream(&aes, &mut c1, &mut data_a);
        xor_keystream_bulk(&aes, &mut c2, &mut data_b);
        assert_eq!(data_a, data_b);
        assert_eq!(c1, c2);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let aes = Aes128::new(&[8u8; 16]);
        let msg: Vec<u8> = (0..80).collect();

        let mut one_shot = msg.clone();
        let mut counter = [0u8; 16];
        xor_keystream(&aes, &mut counter, &mut one_shot);

        let mut streamed = msg;
        let mut counter = [0u8; 16];
        let (a, b) = streamed.split_at_mut(32);
        xor_keystream(&aes, &mut counter, a);
        xor_keystream(&aes, &mut counter, b);
        assert_eq!(one_shot, streamed);
    }
}
