//! CCM authenticated encryption (RFC 3610 / NIST SP 800-38C) with the
//! IEEE 802.15.4 parameterization: L = 2 (payload length < 2¹⁶ bytes) and a
//! 13-byte nonce.

use crate::aes::{Aes128, Block, Key, BLOCK_LEN};
use crate::cbc_mac::CbcMac;
use crate::ctr;
use crate::error::CryptoError;

/// CCM nonce length for L = 2 (15 − L bytes).
pub const NONCE_LEN: usize = 13;

/// An AES-128-CCM sealing/opening context.
///
/// The tag length is fixed per context and must be one of 4, 6, 8, 10, 12,
/// 14 or 16 bytes (802.15.4 uses 4, 8 or 16; the PPDA protocols default
/// to 4 to keep share packets small).
///
/// # Example
///
/// ```
/// use ppda_crypto::Ccm;
/// # fn main() -> Result<(), ppda_crypto::CryptoError> {
/// let ccm = Ccm::new([1u8; 16], 8)?;
/// let nonce = [2u8; 13];
/// let sealed = ccm.seal(&nonce, b"header", b"payload")?;
/// assert_eq!(ccm.open(&nonce, b"header", &sealed)?, b"payload");
/// assert!(ccm.open(&nonce, b"tampered", &sealed).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Ccm {
    aes: Aes128,
    tag_len: usize,
}

impl Ccm {
    /// Create a CCM context with the given key and tag length.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidTagLen`] if `tag_len` is not an even value in
    /// `4..=16`.
    pub fn new(key: Key, tag_len: usize) -> Result<Self, CryptoError> {
        if !(4..=16).contains(&tag_len) || !tag_len.is_multiple_of(2) {
            return Err(CryptoError::InvalidTagLen { got: tag_len });
        }
        Ok(Ccm {
            aes: Aes128::new(&key),
            tag_len,
        })
    }

    /// The configured tag length in bytes.
    pub fn tag_len(&self) -> usize {
        self.tag_len
    }

    /// This context pinned to the T-table path, whatever the CPU.
    #[cfg(test)]
    pub(crate) fn table_only(mut self) -> Self {
        self.aes = self.aes.table_only();
        self
    }

    /// Deterministic 13-byte nonce for a protocol packet, built from the
    /// (source, destination, round, sequence) coordinates that make every
    /// packet unique within a deployment.
    pub fn nonce(src: u16, dst: u16, round: u32, seq: u32) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[0..2].copy_from_slice(&src.to_be_bytes());
        nonce[2..4].copy_from_slice(&dst.to_be_bytes());
        nonce[4..8].copy_from_slice(&round.to_be_bytes());
        nonce[8..12].copy_from_slice(&seq.to_be_bytes());
        nonce[12] = 0x15; // domain separator for PPDA share packets
        nonce
    }

    /// B₀: flags ‖ nonce ‖ 2-byte payload length.
    fn b0(&self, nonce: &[u8; NONCE_LEN], aad_len: usize, payload_len: usize) -> Block {
        let mut b0 = [0u8; BLOCK_LEN];
        let adata = if aad_len > 0 { 0x40 } else { 0 };
        let m_enc = ((self.tag_len - 2) / 2) as u8;
        let l_enc = 1u8; // L - 1 with L = 2
        b0[0] = adata | (m_enc << 3) | l_enc;
        b0[1..14].copy_from_slice(nonce);
        b0[14..16].copy_from_slice(&(payload_len as u16).to_be_bytes());
        b0
    }

    /// Aᵢ counter block: flags ‖ nonce ‖ 2-byte counter.
    fn counter_block(nonce: &[u8; NONCE_LEN], counter: u16) -> Block {
        let mut a = [0u8; BLOCK_LEN];
        a[0] = 0x01; // L - 1
        a[1..14].copy_from_slice(nonce);
        a[14..16].copy_from_slice(&counter.to_be_bytes());
        a
    }

    /// CBC-MAC over B₀, the encoded AAD and the (plaintext) payload.
    fn raw_tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], payload: &[u8]) -> Block {
        let mut mac = CbcMac::new(&self.aes);
        mac.update(&self.b0(nonce, aad.len(), payload.len()));
        if !aad.is_empty() {
            // RFC 3610 §2.2 length encoding: 2 bytes below 0xFF00,
            // 0xFF 0xFE ‖ u32 below 2³², 0xFF 0xFF ‖ u64 beyond.
            let len = aad.len();
            if len < 0xFF00 {
                mac.update(&(len as u16).to_be_bytes());
            } else if let Ok(len) = u32::try_from(len) {
                mac.update(&[0xFF, 0xFE]);
                mac.update(&len.to_be_bytes());
            } else {
                mac.update(&[0xFF, 0xFF]);
                mac.update(&(len as u64).to_be_bytes());
            }
            mac.update(aad);
            mac.pad_zero();
        }
        if !payload.is_empty() {
            mac.update(payload);
            mac.pad_zero();
        }
        mac.finalize()
    }

    /// Encrypt and authenticate. Returns `ciphertext ‖ tag`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::PayloadTooLong`] if `payload` exceeds 2¹⁶ − 1 bytes
    /// (the L = 2 length field).
    pub fn seal(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        payload: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(payload.len() + self.tag_len);
        self.seal_into(nonce, aad, payload, &mut out)?;
        Ok(out)
    }

    /// [`Ccm::seal`] into a caller-supplied buffer (cleared first), so hot
    /// paths sealing many packets per round can reuse one allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ccm::seal`]; `out` is left empty on error.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        out.clear();
        out.reserve(payload.len() + self.tag_len);
        out.extend_from_slice(payload);
        self.seal_in_place(nonce, aad, out)
    }

    /// [`Ccm::seal`] with the plaintext read from `buf`, which receives
    /// `ciphertext ‖ tag` in its place. Callers that encode a payload can
    /// encode it straight into the buffer the sealed packet goes out in.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ccm::seal`]; `buf` is left empty on error.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if buf.len() > u16::MAX as usize {
            let got = buf.len();
            buf.clear();
            return Err(CryptoError::PayloadTooLong { got });
        }
        let mut tag = self.raw_tag(nonce, aad, buf);
        ctr::xor_keystream(&self.aes, &mut Self::counter_block(nonce, 1), buf);
        // The tag is encrypted with S₀ (counter 0).
        ctr::xor_keystream(&self.aes, &mut Self::counter_block(nonce, 0), &mut tag);
        buf.extend_from_slice(&tag[..self.tag_len]);
        Ok(())
    }

    /// Verify and decrypt `ciphertext ‖ tag` produced by [`Ccm::seal`].
    ///
    /// # Errors
    ///
    /// * [`CryptoError::CiphertextTooShort`] if the input cannot contain a tag.
    /// * [`CryptoError::AuthenticationFailed`] if the tag does not verify
    ///   (wrong key, nonce, AAD, or tampered ciphertext). No plaintext is
    ///   released in that case.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut payload = Vec::new();
        self.open_into(nonce, aad, sealed, &mut payload)?;
        Ok(payload)
    }

    /// [`Ccm::open`] into a caller-supplied buffer (cleared first).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ccm::open`]. On authentication failure the
    /// buffer is emptied, so no unverified plaintext is released.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        payload: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        payload.clear();
        if sealed.len() < self.tag_len {
            return Err(CryptoError::CiphertextTooShort {
                got: sealed.len(),
                need: self.tag_len,
            });
        }
        let (ct, recv_tag) = sealed.split_at(sealed.len() - self.tag_len);

        payload.extend_from_slice(ct);
        ctr::xor_keystream(&self.aes, &mut Self::counter_block(nonce, 1), payload);
        let mut enc_tag = self.raw_tag(nonce, aad, payload);
        ctr::xor_keystream(&self.aes, &mut Self::counter_block(nonce, 0), &mut enc_tag);

        // Constant-time-ish comparison (length is public).
        let mut diff = 0u8;
        for (a, b) in enc_tag[..self.tag_len].iter().zip(recv_tag) {
            diff |= a ^ b;
        }
        if diff != 0 {
            payload.clear();
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `Ccm::new`'s context (AES-NI when the CPU has it) and the same key
    /// pinned to the T-table path.
    fn both_paths(key: Key, tag_len: usize) -> [Ccm; 2] {
        let ccm = Ccm::new(key, tag_len).unwrap();
        [ccm.clone().table_only(), ccm]
    }

    /// RFC 3610 Packet Vector #1: M = 8, L = 2.
    #[test]
    fn rfc3610_vector_1() {
        let key: Key = hex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF").try_into().unwrap();
        let nonce: [u8; 13] = hex("00000003020100A0A1A2A3A4A5").try_into().unwrap();
        let aad = hex("0001020304050607");
        let payload = hex("08090A0B0C0D0E0F101112131415161718191A1B1C1D1E");
        for ccm in both_paths(key, 8) {
            let sealed = ccm.seal(&nonce, &aad, &payload).unwrap();
            assert_eq!(
                sealed,
                hex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC38417E8D12CFDF926E0")
            );
            assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), payload);
        }
    }

    /// RFC 3610 Packet Vector #2: M = 8, L = 2, 16-byte payload.
    #[test]
    fn rfc3610_vector_2() {
        let key: Key = hex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF").try_into().unwrap();
        let nonce: [u8; 13] = hex("00000004030201A0A1A2A3A4A5").try_into().unwrap();
        let aad = hex("0001020304050607");
        let payload = hex("08090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F");
        for ccm in both_paths(key, 8) {
            let sealed = ccm.seal(&nonce, &aad, &payload).unwrap();
            assert_eq!(
                sealed,
                hex("72C91A36E135F8CF291CA894085C87E3CC15C439C9E43A3BA091D56E10400916")
            );
            assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), payload);
        }
    }

    /// RFC 3610 Packet Vector #3: M = 8, L = 2, payload not block-aligned.
    #[test]
    fn rfc3610_vector_3() {
        let key: Key = hex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF").try_into().unwrap();
        let nonce: [u8; 13] = hex("00000005040302A0A1A2A3A4A5").try_into().unwrap();
        let aad = hex("0001020304050607");
        let payload = hex("08090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F20");
        for ccm in both_paths(key, 8) {
            let sealed = ccm.seal(&nonce, &aad, &payload).unwrap();
            assert_eq!(
                sealed,
                hex("51B1E5F44A197D1DA46B0F8E2D282AE871E838BB64DA8596574ADAA76FBD9FB0C5")
            );
            assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), payload);
        }
    }

    /// NIST SP 800-38C Example 4: 2¹⁶ bytes of AAD take the six-byte
    /// length encoding (0xFF 0xFE ‖ u32).
    #[test]
    fn sp800_38c_example_4_long_aad() {
        let key: Key = core::array::from_fn(|i| 0x40 + i as u8);
        let nonce: [u8; 13] = core::array::from_fn(|i| 0x10 + i as u8);
        let aad: Vec<u8> = (0..65_536u32).map(|i| i as u8).collect();
        let payload: Vec<u8> = (0x20..0x40).collect();
        for ccm in both_paths(key, 14) {
            let sealed = ccm.seal(&nonce, &aad, &payload).unwrap();
            assert_eq!(
                sealed,
                hex(
                    "69915dad1e84c6376a68c2967e4dab615ae0fd1faec44cc484828529463ccf72
                     b4ac6bec93e8598e7f0dadbcea5b"
                )
            );
            assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), payload);
        }
    }

    #[test]
    fn round_trip_various_sizes_and_tags() {
        for tag_len in [4usize, 8, 16] {
            let ccm = Ccm::new([0x11; 16], tag_len).unwrap();
            for payload_len in [0usize, 1, 4, 15, 16, 17, 32, 100] {
                let payload: Vec<u8> = (0..payload_len as u8).collect();
                let nonce = Ccm::nonce(1, 2, 3, payload_len as u32);
                let sealed = ccm.seal(&nonce, b"aad", &payload).unwrap();
                assert_eq!(sealed.len(), payload_len + tag_len);
                assert_eq!(ccm.open(&nonce, b"aad", &sealed).unwrap(), payload);
            }
        }
    }

    #[test]
    fn empty_aad_round_trip() {
        let ccm = Ccm::new([0x22; 16], 4).unwrap();
        let nonce = [9u8; 13];
        let sealed = ccm.seal(&nonce, b"", b"data").unwrap();
        assert_eq!(ccm.open(&nonce, b"", &sealed).unwrap(), b"data");
    }

    #[test]
    fn tamper_detection() {
        let ccm = Ccm::new([0x33; 16], 8).unwrap();
        let nonce = [1u8; 13];
        let mut sealed = ccm.seal(&nonce, b"hdr", b"payload").unwrap();

        // Flip a ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(
            ccm.open(&nonce, b"hdr", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
        sealed[0] ^= 1;

        // Flip a tag bit.
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(
            ccm.open(&nonce, b"hdr", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
        sealed[last] ^= 1;

        // Wrong AAD.
        assert_eq!(
            ccm.open(&nonce, b"HDR", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );

        // Wrong nonce.
        assert_eq!(
            ccm.open(&[2u8; 13], b"hdr", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );

        // Wrong key.
        let other = Ccm::new([0x34; 16], 8).unwrap();
        assert_eq!(
            other.open(&nonce, b"hdr", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );

        // Untampered still opens.
        assert_eq!(ccm.open(&nonce, b"hdr", &sealed).unwrap(), b"payload");
    }

    #[test]
    fn rejects_bad_tag_len() {
        assert!(matches!(
            Ccm::new([0u8; 16], 3),
            Err(CryptoError::InvalidTagLen { got: 3 })
        ));
        assert!(matches!(
            Ccm::new([0u8; 16], 18),
            Err(CryptoError::InvalidTagLen { got: 18 })
        ));
        assert!(matches!(
            Ccm::new([0u8; 16], 5),
            Err(CryptoError::InvalidTagLen { got: 5 })
        ));
    }

    #[test]
    fn rejects_short_ciphertext() {
        let ccm = Ccm::new([0u8; 16], 8).unwrap();
        assert!(matches!(
            ccm.open(&[0u8; 13], b"", &[1, 2, 3]),
            Err(CryptoError::CiphertextTooShort { got: 3, need: 8 })
        ));
    }

    #[test]
    fn nonce_uniqueness_over_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for src in 0..4u16 {
            for dst in 0..4u16 {
                for round in 0..4u32 {
                    for seq in 0..4u32 {
                        assert!(seen.insert(Ccm::nonce(src, dst, round, seq)));
                    }
                }
            }
        }
    }
}
