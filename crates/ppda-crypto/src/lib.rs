//! Symmetric cryptography for the PPDA protocols, implemented from scratch.
//!
//! The paper encrypts every sharing-phase packet with **AES-128** using keys
//! pre-shared during bootstrapping ("each packet is encrypted using AES-128
//! … assumed to be already shared with the destination node during the
//! bootstrapping phase"). This crate provides:
//!
//! * [`Aes128`] — the FIPS-197 block cipher, forward direction only (CTR
//!   and CBC-MAC never run the inverse), verified against the official
//!   test vectors. It runs on the CPU's AES-NI instructions when
//!   [`Aes128::new`] finds them at run time, and on a portable T-table
//!   implementation otherwise (off x86-64, or on CPUs without AES-NI);
//!   both produce the same bytes, and no build flag or option is
//!   involved. A byte-oriented transcription of the standard,
//!   [`Aes128::encrypt_block_reference`], is the oracle the tests check
//!   both against.
//! * [`ctr`] — CTR keystream mode (NIST SP 800-38A), one kernel call per
//!   message: on AES-NI the round keys stay in registers and four counter
//!   blocks' rounds interleave.
//! * [`CbcMac`] — CBC-MAC over whole blocks, the authentication core of CCM;
//!   every run of whole blocks is one kernel call.
//! * [`Ccm`] — CCM authenticated encryption as used by IEEE 802.15.4
//!   security (L = 2, 13-byte nonce, 4/8/16-byte tag), verified against
//!   RFC 3610 vectors.
//! * [`CtrDrbg`] — a deterministic AES-CTR random bit generator implementing
//!   [`rand::RngCore`], used for protocol share randomness.
//! * [`PairwiseKeys`] — the bootstrap-phase pairwise key store: every
//!   unordered node pair {i, j} owns a distinct AES key derived from a
//!   network master secret.
//!
//! # Example
//!
//! ```
//! use ppda_crypto::{Ccm, PairwiseKeys};
//!
//! # fn main() -> Result<(), ppda_crypto::CryptoError> {
//! let keys = PairwiseKeys::derive(&[7u8; 16], 8);
//! let ccm = Ccm::new(keys.key(2, 5)?, 4)?;
//! let nonce = Ccm::nonce(2, 5, 0, 42);
//! let ct = ccm.seal(&nonce, b"round-42", b"secret share")?;
//! assert_eq!(ccm.open(&nonce, b"round-42", &ct)?, b"secret share");
//! # Ok(())
//! # }
//! ```

// The only `unsafe` is the AES-NI kernel module in `aes.rs`, which allows
// it for itself; every block there states why it is sound.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod aes;
mod cbc_mac;
mod ccm;
pub mod ctr;
mod drbg;
mod error;
mod keys;

pub use aes::{Aes128, Block, Key, BLOCK_LEN, KEY_LEN};
pub use cbc_mac::CbcMac;
pub use ccm::{Ccm, NONCE_LEN};
pub use drbg::CtrDrbg;
pub use error::CryptoError;
pub use keys::PairwiseKeys;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::RngCore;

    use crate::{ctr, Aes128, Block, CbcMac, Ccm, CtrDrbg};

    /// One DRBG read picked by `pick`: a word of either width, or a byte
    /// request of up to 99 bytes.
    fn read(rng: &mut CtrDrbg, pick: usize) -> Vec<u8> {
        match pick % 3 {
            0 => rng.next_u64().to_le_bytes().to_vec(),
            1 => rng.next_u32().to_le_bytes().to_vec(),
            _ => {
                let mut buf = vec![0u8; pick / 3];
                rng.fill_bytes(&mut buf);
                buf
            }
        }
    }

    /// `ccm` (AES-NI when the CPU has it) and the T-table path agree on
    /// seal and open, and each opens the other's packet.
    fn ccm_paths_agree(
        ccm: &Ccm,
        nonce: &[u8; 13],
        aad: &[u8],
        payload: &[u8],
    ) -> Result<(), TestCaseError> {
        let table = ccm.clone().table_only();
        let sealed = ccm.seal(nonce, aad, payload).unwrap();
        prop_assert_eq!(&sealed, &table.seal(nonce, aad, payload).unwrap());
        prop_assert_eq!(table.open(nonce, aad, &sealed).unwrap(), payload);
        prop_assert_eq!(ccm.open(nonce, aad, &sealed).unwrap(), payload);
        Ok(())
    }

    proptest! {
        /// Every backend this build can run agrees, block by block and
        /// through every mode above the cipher: the T-table path with the
        /// byte-oriented reference, and AES-NI (skipped when the CPU lacks
        /// it) with both — the one-block kernel, the CBC-MAC and CTR
        /// message kernels, CCM at every tag length, and the DRBG.
        #[test]
        fn backends_agree_through_every_mode(
            key in any::<[u8; 16]>(),
            blocks in prop::collection::vec(any::<[u8; 16]>(), 4),
            counter in any::<[u8; 16]>(),
            low_ff in 2usize..=16,
            data in prop::collection::vec(any::<u8>(), 300),
            chunk in 1usize..40,
            nonce in any::<[u8; 13]>(),
            aad in prop::collection::vec(any::<u8>(), 0..41),
            payload_len in 0usize..=300,
            tag_len in (2usize..=8).prop_map(|half| 2 * half),
            reads in prop::collection::vec(0usize..300, 1..12),
        ) {
            let blocks: [Block; 4] = blocks.try_into().unwrap();
            let table = Aes128::new(&key).table_only();
            let reference = blocks.map(|b| table.encrypt_block_reference(&b));
            prop_assert_eq!(blocks.map(|b| table.encrypt_block(&b)), reference);

            let native = Aes128::new(&key);
            if !native.uses_ni() {
                return Ok(());
            }
            prop_assert_eq!(blocks.map(|b| native.encrypt_block(&b)), reference);

            // CTR over every length 0..=300, from the random counter and
            // from one whose low `low_ff` bytes are 0xFF, so the run
            // carries past byte 14 (all 128 bits at 16).
            let mut carrying = counter;
            carrying[16 - low_ff..].fill(0xFF);
            for start in [counter, carrying] {
                for len in 0..=data.len() {
                    let (mut c_ni, mut c_table) = (start, start);
                    let mut d_ni = data[..len].to_vec();
                    let mut d_table = d_ni.clone();
                    ctr::xor_keystream(&native, &mut c_ni, &mut d_ni);
                    ctr::xor_keystream(&table, &mut c_table, &mut d_table);
                    prop_assert_eq!(d_ni, d_table);
                    prop_assert_eq!(c_ni, c_table);
                }
            }

            // CBC-MAC tags over the payload fed in `chunk`-byte pieces,
            // so whole and partial blocks meet the kernel at every offset.
            let payload = &data[..payload_len];
            let tags = [&native, &table].map(|aes| {
                let mut mac = CbcMac::new(aes);
                for piece in payload.chunks(chunk) {
                    mac.update(piece);
                }
                mac.finalize()
            });
            prop_assert_eq!(tags[0], tags[1]);

            // CCM seal and open at the drawn tag length (the RFC 3610
            // vectors run on both paths in `ccm`'s tests).
            ccm_paths_agree(&Ccm::new(key, tag_len).unwrap(), &nonce, &aad, payload)?;

            // DRBG streams under the same mixed read sequence.
            let mut rng_ni = CtrDrbg::with_master_cipher(&native, &aad);
            let mut rng_table = CtrDrbg::with_master_cipher(&native, &aad).table_only();
            for &pick in &reads {
                prop_assert_eq!(read(&mut rng_ni, pick), read(&mut rng_table, pick));
            }
        }
    }

    /// An AAD of 0xFF00 bytes takes CCM's six-byte length encoding; both
    /// backends seal and open it alike, at every tag length.
    #[test]
    fn long_aad_agrees_on_both_paths() {
        let aad: Vec<u8> = (0..0xFF00u32).map(|i| (i * 31) as u8).collect();
        let payload: Vec<u8> = (0..77u8).collect();
        for tag_len in (4..=16).step_by(2) {
            let ccm = Ccm::new([0xA5; 16], tag_len).unwrap();
            ccm_paths_agree(&ccm, &[7; 13], &aad, &payload).unwrap();
        }
    }
}
