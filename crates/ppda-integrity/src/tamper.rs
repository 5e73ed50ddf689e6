//! Deterministic tamper injection for active-adversary rounds.
//!
//! `FaultPlan`'s sibling for Byzantine behavior:
//! where a fault plan breaks *delivery*, a `TamperPlan` corrupts *content*
//! — an aggregator forging the sums it reports, swapping batch lanes, or
//! flipping bits in a reported value. It exists so the sum audit is
//! testable end to end: inject a seeded forgery, assert the verdict turns
//! [`Tampered`](crate::IntegrityVerdict::Tampered).
//!
//! The determinism discipline is identical to `FaultPlan`: every decision
//! is a pure function of `(tamper seed, round id, round seed, aggregator)`
//! — no shared RNG stream, so tampering never perturbs the transport or
//! sharing DRBGs, and a zero plan is byte-identical to no injection.

use ppda_sim::derive_stream;

/// One aggregator's corruption of its reported sums for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperAction {
    /// Add a nonzero field offset to the reported sum share on one lane.
    ForgeSum {
        /// Batch lane to forge.
        lane: u16,
        /// Offset in `1..2^31-1`, nonzero in any field of ≥ 31 bits.
        delta: u32,
    },
    /// Exchange the reported sum shares of two distinct lanes.
    LaneSwap {
        /// First lane.
        a: u16,
        /// Second lane (always distinct from `a`).
        b: u16,
    },
    /// Flip one low bit of the reported sum share on one lane.
    BitFlip {
        /// Batch lane to corrupt.
        lane: u16,
        /// Bit index in `0..31`.
        bit: u8,
    },
}

/// A deterministic, seeded model of a cheating aggregator.
///
/// Deployment-scoped like `ppda-ct`'s `FaultPlan`: build it once,
/// [`realize`](TamperPlan::realize) it per round, then ask the
/// realization what each aggregator does to the sums it reports.
/// [`TamperPlan::none`] (also `Default`) injects nothing. Each rate is a
/// probability in `[0, 1]`; building a deployment under a plan with a
/// NaN or out-of-range rate fails with an invalid-config error.
///
/// # Example
///
/// ```
/// use ppda_integrity::TamperPlan;
/// let tamper = TamperPlan::forging(7, 1.0);
/// let round = tamper.realize(1, 42);
/// // Same coordinates, same answer — decisions are pure functions.
/// assert_eq!(round.action(3, 16), tamper.realize(1, 42).action(3, 16));
/// assert!(round.action(3, 16).is_some());
/// assert!(TamperPlan::none().is_zero());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TamperPlan {
    /// Tamper stream seed, independent of the round and fault seeds.
    pub seed: u64,
    /// Per-aggregator per-round probability of forging a lane sum.
    pub forge_sum: f64,
    /// Per-aggregator per-round probability of swapping two lanes.
    pub lane_swap: f64,
    /// Per-aggregator per-round probability of flipping a bit.
    pub bit_flip: f64,
}

impl TamperPlan {
    /// The zero plan: every aggregator is honest.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan where each aggregator forges a lane sum with probability
    /// `forge_sum` per round.
    pub fn forging(seed: u64, forge_sum: f64) -> Self {
        TamperPlan {
            seed,
            forge_sum,
            ..Self::default()
        }
    }

    /// Set the per-aggregator lane-swap probability.
    #[must_use]
    pub fn with_lane_swap(mut self, lane_swap: f64) -> Self {
        self.lane_swap = lane_swap;
        self
    }

    /// Set the per-aggregator bit-flip probability.
    #[must_use]
    pub fn with_bit_flip(mut self, bit_flip: f64) -> Self {
        self.bit_flip = bit_flip;
        self
    }

    /// `true` when the plan injects nothing: realizing it changes no
    /// outcome byte.
    pub fn is_zero(&self) -> bool {
        self.forge_sum == 0.0 && self.lane_swap == 0.0 && self.bit_flip == 0.0
    }

    /// Realize the plan for one round, identified by its round id and
    /// per-round seed.
    pub fn realize(&self, round_id: u32, round_seed: u64) -> RoundTampering<'_> {
        RoundTampering {
            plan: self,
            stream: derive_stream(derive_stream(self.seed, round_seed), round_id as u64),
        }
    }
}

/// Decision tags separating the per-round tamper sub-streams.
const TAG_ACTION: u64 = 0xF0;
const TAG_LANE: u64 = 0xF1;
const TAG_VALUE: u64 = 0xF2;

/// One round's realized tamper draws: a stateless decision oracle over
/// aggregator ids.
#[derive(Debug, Clone, Copy)]
pub struct RoundTampering<'p> {
    plan: &'p TamperPlan,
    stream: u64,
}

impl RoundTampering<'_> {
    /// The plan this realization draws from.
    pub fn plan(&self) -> &TamperPlan {
        self.plan
    }

    /// What does `aggregator` do to the sums it reports over `lanes`
    /// batch lanes? `None` means it stays honest this round. With a
    /// single lane a drawn swap degrades to a bit flip (a one-lane swap
    /// would be a silent no-op).
    pub fn action(&self, aggregator: usize, lanes: usize) -> Option<TamperAction> {
        if self.plan.is_zero() || lanes == 0 {
            return None;
        }
        let key = derive_stream(derive_stream(self.stream, TAG_ACTION), aggregator as u64);
        let draw = coin(key);
        let lane_key = derive_stream(derive_stream(self.stream, TAG_LANE), aggregator as u64);
        let value_key = derive_stream(derive_stream(self.stream, TAG_VALUE), aggregator as u64);
        let lane = (lane_key % lanes as u64) as u16;
        if draw < self.plan.forge_sum {
            // Nonzero in any field with a ≥ 31-bit modulus.
            let delta = 1 + (value_key % 0x7FFF_FFFE) as u32;
            Some(TamperAction::ForgeSum { lane, delta })
        } else if draw < self.plan.forge_sum + self.plan.lane_swap {
            if lanes >= 2 {
                let b = (lane as usize + 1 + (value_key % (lanes as u64 - 1)) as usize) % lanes;
                Some(TamperAction::LaneSwap {
                    a: lane,
                    b: b as u16,
                })
            } else {
                Some(TamperAction::BitFlip {
                    lane,
                    bit: (value_key % 31) as u8,
                })
            }
        } else if draw < self.plan.forge_sum + self.plan.lane_swap + self.plan.bit_flip {
            Some(TamperAction::BitFlip {
                lane,
                bit: (value_key % 31) as u8,
            })
        } else {
            None
        }
    }
}

/// Map a mixed 64-bit key to a uniform draw in `[0, 1)` (53-bit
/// precision, same construction as `Xoshiro256::next_f64`).
fn coin(key: u64) -> f64 {
    (key >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let plan = TamperPlan::none();
        assert!(plan.is_zero());
        let round = plan.realize(1, 42);
        for agg in 0..64 {
            assert_eq!(round.action(agg, 16), None);
        }
    }

    #[test]
    fn decisions_are_pure_and_replayable() {
        let plan = TamperPlan::forging(9, 0.4)
            .with_lane_swap(0.3)
            .with_bit_flip(0.2);
        let a = plan.realize(7, 1234);
        let b = plan.realize(7, 1234);
        for agg in 0..32 {
            assert_eq!(a.action(agg, 8), b.action(agg, 8));
        }
    }

    #[test]
    fn rounds_draw_independent_actions() {
        let plan = TamperPlan::forging(1, 0.5);
        let a: Vec<_> = (0..64).map(|v| plan.realize(1, 10).action(v, 4)).collect();
        let b: Vec<_> = (0..64).map(|v| plan.realize(1, 11).action(v, 4)).collect();
        let c: Vec<_> = (0..64).map(|v| plan.realize(2, 10).action(v, 4)).collect();
        assert_ne!(a, b, "round seed must matter");
        assert_ne!(a, c, "round id must matter");
    }

    #[test]
    fn action_frequency_matches_probability() {
        let plan = TamperPlan::forging(5, 0.25);
        let mut forged = 0usize;
        let total = 20_000;
        for round in 0..total / 20 {
            let rt = plan.realize(round as u32, 0xABCD);
            forged += (0..20).filter(|&v| rt.action(v, 4).is_some()).count();
        }
        let rate = forged as f64 / total as f64;
        assert!((0.23..0.27).contains(&rate), "forge rate {rate}");
    }

    #[test]
    fn action_partition_matches_probabilities() {
        let plan = TamperPlan::forging(3, 0.3)
            .with_lane_swap(0.2)
            .with_bit_flip(0.1);
        let mut forge = 0usize;
        let mut swap = 0usize;
        let mut flip = 0usize;
        let total = 30_000;
        for round in 0..total / 30 {
            let rt = plan.realize(round as u32, 99);
            for agg in 0..30 {
                match rt.action(agg, 8) {
                    Some(TamperAction::ForgeSum { .. }) => forge += 1,
                    Some(TamperAction::LaneSwap { .. }) => swap += 1,
                    Some(TamperAction::BitFlip { .. }) => flip += 1,
                    None => {}
                }
            }
        }
        let f = forge as f64 / total as f64;
        let s = swap as f64 / total as f64;
        let b = flip as f64 / total as f64;
        assert!((0.28..0.32).contains(&f), "forge rate {f}");
        assert!((0.18..0.22).contains(&s), "swap rate {s}");
        assert!((0.08..0.12).contains(&b), "flip rate {b}");
    }

    #[test]
    fn drawn_actions_are_well_formed() {
        let plan = TamperPlan::forging(11, 0.4)
            .with_lane_swap(0.4)
            .with_bit_flip(0.2);
        for round in 0..200 {
            let rt = plan.realize(round, 0xF00D);
            for agg in 0..16 {
                for lanes in [1usize, 2, 7, 64] {
                    match rt.action(agg, lanes) {
                        Some(TamperAction::ForgeSum { lane, delta }) => {
                            assert!((lane as usize) < lanes);
                            assert!((1..0x7FFF_FFFF).contains(&delta));
                        }
                        Some(TamperAction::LaneSwap { a, b }) => {
                            assert!(lanes >= 2);
                            assert!((a as usize) < lanes && (b as usize) < lanes);
                            assert_ne!(a, b, "swap lanes must differ");
                        }
                        Some(TamperAction::BitFlip { lane, bit }) => {
                            assert!((lane as usize) < lanes);
                            assert!(bit < 31);
                        }
                        None => {}
                    }
                }
            }
        }
    }

    #[test]
    fn single_lane_swap_degrades_to_flip() {
        let plan = TamperPlan::none().with_lane_swap(1.0);
        let rt = plan.realize(1, 7);
        for agg in 0..16 {
            match rt.action(agg, 1) {
                Some(TamperAction::BitFlip { lane: 0, .. }) => {}
                other => panic!("expected a bit flip on lane 0, got {other:?}"),
            }
        }
    }

    #[test]
    fn builders_compose() {
        let plan = TamperPlan::forging(1, 0.1)
            .with_lane_swap(0.2)
            .with_bit_flip(0.3);
        assert_eq!(plan.forge_sum, 0.1);
        assert_eq!(plan.lane_swap, 0.2);
        assert_eq!(plan.bit_flip, 0.3);
        assert!(!plan.is_zero());
    }
}
