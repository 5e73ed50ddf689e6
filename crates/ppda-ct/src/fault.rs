//! Deterministic fault injection for degraded-network rounds.
//!
//! The transport layer's [`LinkConditions`](crate::LinkConditions) models
//! the *physics* of one round — path loss plus a round-scale fading draw.
//! A [`FaultPlan`] layers the *operational* failure modes of a real
//! deployment under it:
//!
//! * **per-link share loss** — every link's PRR is scaled by `1 - loss`
//!   for the whole round (interference bursts, co-channel traffic), via
//!   [`LinkConditions::new`](crate::LinkConditions::new);
//! * **extra attenuation** — a flat dB penalty on every link;
//! * **node dropout** — each node independently misses a round with
//!   probability `dropout` (duty-cycle misalignment, brown-outs);
//! * **churn** — scheduled multi-round outages from a
//!   [`ChurnSchedule`](ppda_sim::ChurnSchedule);
//! * **delivery faults** — a flooded packet can still miss its decode
//!   deadline (`delay`) or arrive more than once (`duplicate`); duplicates
//!   are idempotent at the SSS layer and only show up in fault reports.
//!
//! Every decision is a pure function of `(fault seed, round id, round
//! seed, decision coordinates)` — no shared RNG stream, so fault draws
//! never perturb the transport RNG and a zero plan is *byte-identical* to
//! running without fault injection (the `fault_tolerance` differential
//! suite enforces this). Replays are exact for any iteration order.

use ppda_sim::{derive_stream, ChurnSchedule};

/// What happened to one successfully flooded delivery once the fault
/// layer has had its say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered and decoded in time (the only outcome of a zero plan).
    OnTime,
    /// Delivered more than once; idempotent for set-style receivers, so
    /// protocol layers count it and move on.
    Duplicated,
    /// Arrived after the round's decode deadline: unusable this round.
    /// (Outright *loss* is modeled at the link layer — see
    /// [`FaultPlan::loss`] — so it never appears as a delivery outcome.)
    Delayed,
}

/// A deterministic, seeded fault model for degraded rounds.
///
/// The plan is deployment-scoped (like a
/// [`MiniCastSchedule`](crate::MiniCastSchedule)): build it once, then
/// [`realize`](FaultPlan::realize) it per round to draw that round's
/// faults. [`FaultPlan::none`] (also `Default`) injects nothing.
///
/// `loss`, `dropout`, `delay` and `duplicate` are probabilities in
/// `[0, 1]` and `extra_attenuation_db` is finite; building a deployment
/// under a plan that breaks either rule fails with an invalid-config
/// error.
///
/// # Example
///
/// ```
/// use ppda_ct::FaultPlan;
/// let faults = FaultPlan::lossy(7, 0.2).with_dropout(0.05);
/// let round = faults.realize(1, 42);
/// // Same coordinates, same answer — decisions are pure functions.
/// assert_eq!(round.node_down(3), faults.realize(1, 42).node_down(3));
/// assert!(FaultPlan::none().is_zero());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fault stream seed, independent of the round seed.
    pub seed: u64,
    /// Per-link erasure probability: every link PRR is scaled by
    /// `1 - loss` for the round (layered under `LinkConditions`).
    pub loss: f64,
    /// Flat extra attenuation (dB) added to the round's fading draw.
    pub extra_attenuation_db: f64,
    /// Per-node per-round dropout probability.
    pub dropout: f64,
    /// Per-delivery decode-deadline miss probability.
    pub delay: f64,
    /// Per-delivery duplication probability (reported, never harmful).
    pub duplicate: f64,
    /// Scheduled multi-round outages on the round-id axis.
    pub churn: ChurnSchedule,
}

impl FaultPlan {
    /// The zero plan: no faults of any kind.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan injecting only per-link share loss `loss`.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultPlan {
            seed,
            loss,
            ..Self::default()
        }
    }

    /// Set the per-node per-round dropout probability.
    #[must_use]
    pub fn with_dropout(mut self, dropout: f64) -> Self {
        self.dropout = dropout;
        self
    }

    /// Set the per-delivery decode-deadline miss probability.
    #[must_use]
    pub fn with_delay(mut self, delay: f64) -> Self {
        self.delay = delay;
        self
    }

    /// Set the per-delivery duplication probability.
    #[must_use]
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate;
        self
    }

    /// Set the flat extra attenuation (dB).
    #[must_use]
    pub fn with_attenuation(mut self, db: f64) -> Self {
        self.extra_attenuation_db = db;
        self
    }

    /// Attach a churn schedule.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        self.churn = churn;
        self
    }

    /// `true` when the plan injects nothing: realizing it changes no
    /// outcome byte.
    pub fn is_zero(&self) -> bool {
        self.loss == 0.0
            && self.extra_attenuation_db == 0.0
            && self.dropout == 0.0
            && self.delay == 0.0
            && self.duplicate == 0.0
            && self.churn.is_empty()
    }

    /// `true` when any per-delivery fault (delay/duplicate) can occur —
    /// protocol layers skip the per-delivery classification otherwise.
    pub fn has_delivery_faults(&self) -> bool {
        self.delay > 0.0 || self.duplicate > 0.0
    }

    /// Realize the plan for one round, identified by its round id and
    /// per-round seed. All of the round's fault decisions derive from the
    /// returned handle.
    pub fn realize(&self, round_id: u32, round_seed: u64) -> RoundFaults<'_> {
        RoundFaults {
            plan: self,
            round_id,
            stream: derive_stream(derive_stream(self.seed, round_seed), round_id as u64),
            // One pass over the windows up front; per-node churn checks in
            // the round hot loop become a bit test instead of a scan.
            churn_mask: self.churn.down_mask(round_id),
        }
    }
}

/// Decision tags separating the per-round fault sub-streams.
const TAG_DROPOUT: u64 = 0xD0;
const TAG_DELIVERY_BASE: u64 = 0xDE;

/// One round's realized fault draws: a stateless decision oracle over
/// `(node)` and `(phase, slot, node)` coordinates.
#[derive(Debug, Clone, Copy)]
pub struct RoundFaults<'p> {
    plan: &'p FaultPlan,
    round_id: u32,
    stream: u64,
    /// Precomputed churn bits for this round (node ids < 128).
    churn_mask: u128,
}

impl RoundFaults<'_> {
    /// The plan this realization draws from.
    pub fn plan(&self) -> &FaultPlan {
        self.plan
    }

    /// Extra attenuation (dB) this round adds on every link.
    pub fn extra_attenuation_db(&self) -> f64 {
        self.plan.extra_attenuation_db
    }

    /// Per-link PRR erasure factor this round.
    pub fn loss(&self) -> f64 {
        self.plan.loss
    }

    /// Scheduled churn bits for this round: bit `v` set ⇔ node `v` is in
    /// a down window (node ids < 128).
    pub fn churn_mask(&self) -> u128 {
        self.churn_mask
    }

    /// Is `node` out for this round (dropout draw or scheduled churn)?
    pub fn node_down(&self, node: usize) -> bool {
        if node < 128 {
            if self.churn_mask >> node & 1 == 1 {
                return true;
            }
        } else if self.plan.churn.is_down(node, self.round_id) {
            return true;
        }
        self.plan.dropout > 0.0
            && coin(derive_stream(
                derive_stream(self.stream, TAG_DROPOUT),
                node as u64,
            )) < self.plan.dropout
    }

    /// Classify one delivered packet: `phase` separates the protocol's
    /// flooding phases, `slot` is the chain sub-slot, `node` the receiver.
    /// With `delay = duplicate = 0` this always returns
    /// [`Delivery::OnTime`] without drawing.
    pub fn delivery(&self, phase: u32, slot: usize, node: usize) -> Delivery {
        if !self.plan.has_delivery_faults() {
            return Delivery::OnTime;
        }
        let key = derive_stream(
            derive_stream(self.stream, TAG_DELIVERY_BASE + phase as u64),
            ((slot as u64) << 32) | node as u64,
        );
        let draw = coin(key);
        if draw < self.plan.delay {
            Delivery::Delayed
        } else if draw < self.plan.delay + self.plan.duplicate {
            Delivery::Duplicated
        } else {
            Delivery::OnTime
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
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        assert!(!plan.has_delivery_faults());
        let round = plan.realize(1, 42);
        for node in 0..64 {
            assert!(!round.node_down(node));
            assert_eq!(round.delivery(0, node, node), Delivery::OnTime);
        }
    }

    #[test]
    fn decisions_are_pure_and_replayable() {
        let plan = FaultPlan::lossy(9, 0.3)
            .with_dropout(0.4)
            .with_delay(0.2)
            .with_duplicate(0.2);
        let a = plan.realize(7, 1234);
        let b = plan.realize(7, 1234);
        for node in 0..32 {
            assert_eq!(a.node_down(node), b.node_down(node));
            for slot in 0..8 {
                assert_eq!(a.delivery(1, slot, node), b.delivery(1, slot, node));
            }
        }
    }

    #[test]
    fn rounds_draw_independent_faults() {
        let plan = FaultPlan::none().with_dropout(0.5);
        let a: Vec<bool> = (0..64).map(|v| plan.realize(1, 10).node_down(v)).collect();
        let b: Vec<bool> = (0..64).map(|v| plan.realize(1, 11).node_down(v)).collect();
        let c: Vec<bool> = (0..64).map(|v| plan.realize(2, 10).node_down(v)).collect();
        assert_ne!(a, b, "round seed must matter");
        assert_ne!(a, c, "round id must matter");
    }

    #[test]
    fn dropout_frequency_matches_probability() {
        let plan = FaultPlan::none().with_dropout(0.25);
        let mut down = 0usize;
        let total = 20_000;
        for round in 0..total / 20 {
            let rf = plan.realize(round as u32, 0xABCD);
            down += (0..20).filter(|&v| rf.node_down(v)).count();
        }
        let rate = down as f64 / total as f64;
        assert!((0.23..0.27).contains(&rate), "dropout rate {rate}");
    }

    #[test]
    fn delivery_partition_matches_probabilities() {
        let plan = FaultPlan::none().with_delay(0.3).with_duplicate(0.2);
        let mut delayed = 0usize;
        let mut duplicated = 0usize;
        let total = 30_000;
        let rf = plan.realize(3, 99);
        for slot in 0..total / 30 {
            for node in 0..30 {
                match rf.delivery(0, slot, node) {
                    Delivery::Delayed => delayed += 1,
                    Delivery::Duplicated => duplicated += 1,
                    Delivery::OnTime => {}
                }
            }
        }
        let d = delayed as f64 / total as f64;
        let u = duplicated as f64 / total as f64;
        assert!((0.28..0.32).contains(&d), "delay rate {d}");
        assert!((0.18..0.22).contains(&u), "duplicate rate {u}");
    }

    #[test]
    fn churn_overrides_per_round_draws() {
        let churn = ChurnSchedule::new().window(5, 10, 20);
        let plan = FaultPlan::none().with_churn(churn);
        assert!(!plan.is_zero());
        assert!(plan.realize(15, 1).node_down(5));
        assert!(!plan.realize(9, 1).node_down(5));
        assert!(!plan.realize(15, 1).node_down(4));
    }

    #[test]
    fn churn_mask_matches_node_down() {
        let churn = ChurnSchedule::from_windows([(5, 10, 20), (7, 12, 14), (0, 0, 1)]);
        let plan = FaultPlan::none().with_churn(churn.clone());
        for round in 0..24 {
            let rf = plan.realize(round, 1);
            assert_eq!(rf.churn_mask(), churn.down_mask(round));
            for node in 0..16 {
                assert_eq!(rf.node_down(node), churn.is_down(node, round));
            }
        }
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::lossy(1, 0.1)
            .with_dropout(0.2)
            .with_delay(0.3)
            .with_duplicate(0.05)
            .with_attenuation(2.5);
        assert_eq!(plan.loss, 0.1);
        assert_eq!(plan.dropout, 0.2);
        assert_eq!(plan.delay, 0.3);
        assert_eq!(plan.duplicate, 0.05);
        assert_eq!(plan.extra_attenuation_db, 2.5);
        assert!(!plan.is_zero());
        assert!(plan.has_delivery_faults());
    }
}
