//! CTR mode keystream (NIST SP 800-38A §6.5).
//!
//! CTR is used standalone for the DRBG and as the confidentiality half of
//! [`crate::Ccm`]. The counter block layout is caller-defined; helpers below
//! implement the big-endian 128-bit increment used by both.

use crate::aes::{Aes128, Block};

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
/// The whole message runs through the cipher's CTR kernel: on AES-NI it
/// keeps the round keys in registers and interleaves four counter blocks'
/// rounds, and the counter is a big-endian `u128` that carries exactly as
/// [`increment_block`] does. The T-table path encrypts one counter block
/// at a time.
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
    aes.xor_keystream(counter_block, data);
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
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four segments, on
        // both backends.
        let native = Aes128::new(&hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap());
        for aes in [native.clone().table_only(), native] {
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

    /// The keystream oracle: the byte-oriented reference cipher on each
    /// counter block, advanced by [`increment_block`].
    fn reference_xor(aes: &Aes128, counter: &mut Block, data: &mut [u8]) {
        for chunk in data.chunks_mut(16) {
            let keystream = aes.encrypt_block_reference(counter);
            for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                *d ^= k;
            }
            increment_block(counter);
        }
    }

    #[test]
    fn bulk_matches_blockwise_for_all_lengths() {
        // Cover empty, sub-block, exact-block, wide-batch and ragged sizes
        // around the kernel's 4-block batches, on both backends.
        let native = Aes128::new(&[0x61u8; 16]);
        for aes in [native.clone().table_only(), native] {
            for len in 0..=200usize {
                let msg: Vec<u8> = (0..len as u32).map(|i| (i * 7) as u8).collect();

                let mut blockwise = msg.clone();
                let mut c1 = [0xF0u8; 16];
                reference_xor(&aes, &mut c1, &mut blockwise);

                let mut bulk = msg;
                let mut c2 = [0xF0u8; 16];
                xor_keystream(&aes, &mut c2, &mut bulk);

                assert_eq!(blockwise, bulk, "payload length {len}");
                assert_eq!(c1, c2, "counter advance at length {len}");
            }
        }
    }

    #[test]
    fn bulk_carries_counter_across_wide_runs() {
        // Counters about to carry out of their low byte, out of the low
        // two bytes (past byte 14) and out of all 128 bits, mid-batch.
        let native = Aes128::new(&[9u8; 16]);
        for aes in [native.clone().table_only(), native] {
            for low_ff in [1usize, 2, 5, 16] {
                let mut start = [0x3Cu8; 16];
                start[16 - low_ff..].fill(0xFF);
                start[15] = 0xFE;
                let mut data_a = vec![0x11u8; 7 * 16 + 3];
                let mut data_b = data_a.clone();
                let mut c1 = start;
                let mut c2 = start;
                reference_xor(&aes, &mut c1, &mut data_a);
                xor_keystream(&aes, &mut c2, &mut data_b);
                assert_eq!(data_a, data_b, "{low_ff} low 0xFF bytes");
                assert_eq!(c1, c2, "{low_ff} low 0xFF bytes");
            }
        }
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
