//! The MiniCast TDMA chain: a fixed schedule of sub-slots, one per packet.

use core::fmt;

use ppda_radio::FrameSpec;
use ppda_sim::SimDuration;

/// A MiniCast chain schedule.
///
/// Sub-slot `j` of every chain cycle is reserved for packet `j`, whose
/// *owner* (`owners[j]`) is the only node that can originate it; other
/// nodes fill the sub-slot only after they have received the packet.
///
/// All packets share one [`FrameSpec`] — the protocols of this workspace
/// put fixed-size share material in every sub-slot, which keeps the TDMA
/// schedule trivial to compute on-device.
///
/// A packet wider than one 802.15.4 frame is carried as `fragments`
/// consecutive frames per sub-slot (see [`ppda_radio::fragment`]): the
/// sub-slot duration scales by the fragment count, and the transport
/// tracks per-fragment receipt so a sub-slot counts as received only when
/// *every* fragment of its packet arrived. [`ChainSpec::new`] builds the
/// ordinary single-frame chain.
///
/// # Example
///
/// ```
/// use ppda_ct::ChainSpec;
/// use ppda_radio::FrameSpec;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chain = ChainSpec::new(FrameSpec::new(4, 4)?, vec![0, 0, 1, 2])?;
/// assert_eq!(chain.len(), 4);
/// assert_eq!(chain.owner(1), 0);
/// assert!(chain.cycle_duration().as_micros() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    frame: FrameSpec,
    owners: Vec<u16>,
    fragments: u32,
}

/// Errors constructing a [`ChainSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// A chain must contain at least one sub-slot.
    Empty,
    /// A packet must span at least one fragment.
    ZeroFragments,
    /// The per-packet fragment count exceeds the transport's 64-fragment
    /// receipt bitmap ([`ppda_radio::MAX_FRAGMENTS`]).
    TooManyFragments {
        /// The requested fragment count.
        fragments: u32,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Empty => write!(f, "a chain needs at least one sub-slot"),
            ChainError::ZeroFragments => write!(f, "a packet must span at least one fragment"),
            ChainError::TooManyFragments { fragments } => write!(
                f,
                "{fragments} fragments per packet exceeds the transport limit of {}",
                ppda_radio::MAX_FRAGMENTS
            ),
        }
    }
}

impl std::error::Error for ChainError {}

impl ChainSpec {
    /// Build a chain whose sub-slot `j` is originated by `owners[j]`.
    ///
    /// # Errors
    ///
    /// [`ChainError::Empty`] if `owners` is empty.
    pub fn new(frame: FrameSpec, owners: Vec<u16>) -> Result<Self, ChainError> {
        Self::with_fragments(frame, owners, 1)
    }

    /// Build a chain whose packets each span `fragments` consecutive
    /// frames of layout `frame` (`fragments == 1` is [`ChainSpec::new`]).
    ///
    /// # Errors
    ///
    /// [`ChainError::Empty`] if `owners` is empty,
    /// [`ChainError::ZeroFragments`] / [`ChainError::TooManyFragments`]
    /// if `fragments` is outside `1..=`[`ppda_radio::MAX_FRAGMENTS`].
    pub fn with_fragments(
        frame: FrameSpec,
        owners: Vec<u16>,
        fragments: u32,
    ) -> Result<Self, ChainError> {
        if owners.is_empty() {
            return Err(ChainError::Empty);
        }
        if fragments == 0 {
            return Err(ChainError::ZeroFragments);
        }
        if fragments as usize > ppda_radio::MAX_FRAGMENTS {
            return Err(ChainError::TooManyFragments { fragments });
        }
        Ok(ChainSpec {
            frame,
            owners,
            fragments,
        })
    }

    /// Number of sub-slots (packets) in the chain.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// `true` if the chain has no sub-slots (unconstructible; for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// The frame layout shared by all sub-slots.
    pub fn frame(&self) -> FrameSpec {
        self.frame
    }

    /// Frames per packet: 1 for single-frame packets, more when packets
    /// are fragmented across consecutive frames.
    pub fn fragments(&self) -> u32 {
        self.fragments
    }

    /// The originator of packet `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn owner(&self, j: usize) -> u16 {
        self.owners[j]
    }

    /// All owners, indexed by sub-slot.
    pub fn owners(&self) -> &[u16] {
        &self.owners
    }

    /// Duration of one sub-slot: one frame slot (airtime + turnaround +
    /// processing) per fragment of the packet.
    pub fn slot_duration(&self) -> SimDuration {
        self.frame.slot_duration() * u64::from(self.fragments)
    }

    /// Duration of one full chain cycle.
    pub fn cycle_duration(&self) -> SimDuration {
        self.slot_duration() * self.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> FrameSpec {
        FrameSpec::new(8, 4).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let chain = ChainSpec::new(frame(), vec![2, 0, 2, 1]).unwrap();
        assert_eq!(chain.len(), 4);
        assert!(!chain.is_empty());
        assert_eq!(chain.owner(0), 2);
        assert_eq!(chain.owners(), &[2, 0, 2, 1]);
    }

    #[test]
    fn empty_chain_rejected() {
        assert_eq!(ChainSpec::new(frame(), vec![]), Err(ChainError::Empty));
        assert!(ChainError::Empty.to_string().contains("at least one"));
    }

    #[test]
    fn durations_scale_with_length() {
        let short = ChainSpec::new(frame(), vec![0; 3]).unwrap();
        let long = ChainSpec::new(frame(), vec![0; 12]).unwrap();
        assert_eq!(short.cycle_duration() * 4, long.cycle_duration());
        assert_eq!(
            short.cycle_duration().as_micros(),
            short.slot_duration().as_micros() * 3
        );
    }

    #[test]
    fn slot_duration_matches_frame() {
        let chain = ChainSpec::new(frame(), vec![0]).unwrap();
        assert_eq!(chain.slot_duration(), frame().slot_duration());
        assert_eq!(chain.fragments(), 1);
    }

    #[test]
    fn fragmented_slots_scale_durations() {
        let plain = ChainSpec::new(frame(), vec![0, 1]).unwrap();
        let frag = ChainSpec::with_fragments(frame(), vec![0, 1], 3).unwrap();
        assert_eq!(frag.fragments(), 3);
        assert_eq!(frag.slot_duration(), plain.slot_duration() * 3);
        assert_eq!(frag.cycle_duration(), plain.cycle_duration() * 3);
        // One fragment is exactly the plain chain.
        assert_eq!(
            ChainSpec::with_fragments(frame(), vec![0, 1], 1).unwrap(),
            plain
        );
    }

    #[test]
    fn fragment_counts_validated() {
        assert_eq!(
            ChainSpec::with_fragments(frame(), vec![0], 0),
            Err(ChainError::ZeroFragments)
        );
        assert!(ChainSpec::with_fragments(frame(), vec![0], 64).is_ok());
        let err = ChainSpec::with_fragments(frame(), vec![0], 65).unwrap_err();
        assert_eq!(err, ChainError::TooManyFragments { fragments: 65 });
        assert!(err.to_string().contains("65"));
        assert!(ChainError::ZeroFragments
            .to_string()
            .contains("at least one fragment"));
    }
}
