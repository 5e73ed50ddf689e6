//! Frame layout and airtime computation.

use core::fmt;

use ppda_sim::SimDuration;

use crate::phy;

/// Maximum PSDU (MAC-level frame) length in bytes for 802.15.4.
pub const MAX_PSDU_LEN: usize = 127;

/// The wire layout of one protocol packet.
///
/// `payload_len` is the application payload (a share ciphertext, a sum
/// value…); `mic_len` the CCM authentication tag (0 for plaintext
/// reconstruction-phase packets). MAC header and CRC are added
/// automatically.
///
/// # Example
///
/// ```
/// use ppda_radio::FrameSpec;
/// // A 4-byte share + 4-byte CCM tag.
/// let spec = FrameSpec::new(4, 4).unwrap();
/// assert_eq!(spec.psdu_len(), 9 + 4 + 4 + 2);
/// assert_eq!(spec.airtime().as_micros(), (6 + 19) as u64 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameSpec {
    payload_len: usize,
    mic_len: usize,
}

/// Error: the frame would exceed the 127-byte PSDU limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The PSDU length that was requested.
    pub psdu_len: usize,
}

impl fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame PSDU of {} bytes exceeds the 802.15.4 limit of {} bytes",
            self.psdu_len, MAX_PSDU_LEN
        )
    }
}

impl std::error::Error for FrameTooLong {}

impl FrameSpec {
    /// Describe a frame carrying `payload_len` bytes of payload and a
    /// `mic_len`-byte authentication tag.
    ///
    /// # Errors
    ///
    /// [`FrameTooLong`] if the resulting PSDU would exceed 127 bytes; its
    /// `psdu_len` saturates at `usize::MAX` when the lengths' sum does
    /// not fit a `usize`.
    pub fn new(payload_len: usize, mic_len: usize) -> Result<Self, FrameTooLong> {
        let psdu_len = phy::MHR_LEN
            .saturating_add(payload_len)
            .saturating_add(mic_len)
            .saturating_add(phy::MFR_LEN);
        if psdu_len > MAX_PSDU_LEN {
            Err(FrameTooLong { psdu_len })
        } else {
            Ok(FrameSpec {
                payload_len,
                mic_len,
            })
        }
    }

    /// Application payload length in bytes.
    pub fn payload_len(self) -> usize {
        self.payload_len
    }

    /// Authentication tag length in bytes.
    pub fn mic_len(self) -> usize {
        self.mic_len
    }

    /// MAC-level frame length: MHR + payload + MIC + FCS.
    pub fn psdu_len(self) -> usize {
        phy::MHR_LEN + self.payload_len + self.mic_len + phy::MFR_LEN
    }

    /// Total on-air length: SHR + PHR + PSDU.
    pub fn on_air_len(self) -> usize {
        phy::SHR_LEN + phy::PHR_LEN + self.psdu_len()
    }

    /// Time to transmit this frame at 250 kbit/s.
    pub fn airtime(self) -> SimDuration {
        phy::airtime_for_bytes(self.on_air_len())
    }

    /// The TDMA sub-slot duration the CT engine allocates for this frame:
    /// airtime plus turnaround plus the software processing gap.
    pub fn slot_duration(self) -> SimDuration {
        self.airtime() + phy::TURNAROUND + phy::PROCESSING_GAP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_add_up() {
        let spec = FrameSpec::new(16, 4).unwrap();
        assert_eq!(spec.psdu_len(), 9 + 16 + 4 + 2);
        assert_eq!(spec.on_air_len(), 6 + 31);
        assert_eq!(spec.airtime().as_micros(), 37 * 32);
        assert_eq!(spec.payload_len(), 16);
        assert_eq!(spec.mic_len(), 4);
    }

    #[test]
    fn slot_is_airtime_plus_overheads() {
        let spec = FrameSpec::new(8, 0).unwrap();
        assert_eq!(
            spec.slot_duration().as_micros(),
            spec.airtime().as_micros() + 192 + 108
        );
    }

    #[test]
    fn limit_is_enforced() {
        // MHR(9) + FCS(2) = 11; payload + mic must fit in 116.
        assert!(FrameSpec::new(116, 0).is_ok());
        let err = FrameSpec::new(117, 0).unwrap_err();
        assert_eq!(err.psdu_len, 128);
        assert!(err.to_string().contains("128"));
        assert!(FrameSpec::new(112, 4).is_ok());
        assert!(FrameSpec::new(113, 4).is_err());
    }

    #[test]
    fn overflowing_lengths_are_too_long_not_wrapped() {
        // Each sum overflows a usize: it must be refused with a saturated
        // length, not wrap to a small frame that passes the limit.
        for (payload, mic) in [
            (usize::MAX, 0),
            (0, usize::MAX),
            (usize::MAX, usize::MAX),
            (usize::MAX - phy::MHR_LEN, 4),
            (4, usize::MAX - phy::MHR_LEN - phy::MFR_LEN + 1),
        ] {
            let err = FrameSpec::new(payload, mic).unwrap_err();
            assert_eq!(err.psdu_len, usize::MAX, "({payload}, {mic})");
        }
        // The largest sum that fits is refused with its exact length.
        let fits = usize::MAX - phy::MHR_LEN - phy::MFR_LEN;
        assert_eq!(FrameSpec::new(fits, 0).unwrap_err().psdu_len, usize::MAX);
        assert_eq!(
            FrameSpec::new(fits - 1, 0).unwrap_err().psdu_len,
            usize::MAX - 1
        );
    }

    #[test]
    fn empty_payload_is_legal() {
        // Sync/beacon-style frame.
        let spec = FrameSpec::new(0, 0).unwrap();
        assert_eq!(spec.psdu_len(), 11);
    }
}
