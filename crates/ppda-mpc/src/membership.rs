//! Online membership: event timelines and incremental plan patching.
//!
//! A [`RoundPlan`](crate::RoundPlan) compiles the deployment-scoped
//! artifacts once; churn (nodes joining, leaving, crashing, rejoining —
//! including aggregator deaths) invalidates a *slice* of them. This
//! module turns a raw [`MembershipEvent`] stream into the protocol
//! layer's view of it:
//!
//! * [`MembershipTimeline`] — the compiled schedule: each event is
//!   delayed by its Trickle dissemination time (and, for crashes, the
//!   silence-detection lag) and merged into per-round
//!   [`MembershipDelta`]s, so the whole network switches views on the
//!   same round boundary — the protocol's TDMA schedules require a
//!   consistent view, and Trickle is what real deployments use to get
//!   one.
//! * [`MembershipDelta`] — the per-round net change, the unit
//!   [`RoundPlan::apply`](crate::RoundPlan::apply) consumes.
//! * [`PlanPatch`] — what one incremental patch actually did (slots
//!   rebuilt, AES-CCM contexts reused vs created, whether the
//!   destination set changed), surfaced through
//!   [`RoundReport`](crate::RoundReport) and
//!   [`DriverStats`](crate::DriverStats).

use ppda_sim::{derive_stream, disseminate, MembershipEvent, TrickleConfig};

use crate::bootstrap::Bootstrap;
use crate::config::ProtocolConfig;
use crate::error::MpcError;

/// Sub-stream tag separating membership dissemination draws from every
/// other consumer of the deployment seed.
const TAG_MEMBERSHIP: u64 = 0x4D454D42; // "MEMB"

/// The net membership change taking effect at one round boundary.
///
/// `round` is the first round id executed under the new view. Deltas are
/// produced by [`MembershipTimeline::compile`], which folds propagation
/// delay into `round`; they can also be built by hand to drive
/// [`RoundPlan::apply`](crate::RoundPlan::apply) directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipDelta {
    /// First round id executed under the new view.
    pub round: u32,
    /// Nodes entering the membership at `round`.
    pub joins: Vec<u16>,
    /// Nodes exiting the membership at `round`.
    pub leaves: Vec<u16>,
}

impl MembershipDelta {
    /// An empty delta at `round`.
    pub fn at(round: u32) -> Self {
        MembershipDelta {
            round,
            ..Self::default()
        }
    }

    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }
}

/// What one incremental plan patch did (or would have to do).
///
/// Returned by [`RoundPlan::apply`](crate::RoundPlan::apply) and carried
/// in [`RoundReport`](crate::RoundReport) for rounds that patched the
/// plan; [`DriverStats`](crate::DriverStats) accumulates the counters
/// over a driver's lifetime.
///
/// # Example
///
/// ```
/// use ppda_mpc::PlanPatch;
/// let mut acc = PlanPatch { round: 5, left: 1, ccm_reused: 40, ..Default::default() };
/// let next = PlanPatch {
///     round: 6,
///     joined: 1,
///     destinations_changed: true,
///     ccm_created: 2,
///     ..Default::default()
/// };
/// acc.absorb(&next);
/// assert_eq!((acc.round, acc.joined, acc.left), (6, 1, 1));
/// assert!(acc.destinations_changed);
/// assert_eq!((acc.ccm_reused, acc.ccm_created), (40, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanPatch {
    /// Round id the patch took effect at.
    pub round: u32,
    /// Nodes that entered the membership.
    pub joined: u32,
    /// Nodes that exited the membership.
    pub left: u32,
    /// Did the destination (aggregator) set change? When `false`, the
    /// patch only updated the membership mask — no structure rebuilt.
    pub destinations_changed: bool,
    /// Destination-set size after the patch.
    pub destinations: u32,
    /// Sharing-chain sub-slots after the patch (0 when nothing rebuilt).
    pub slots_rebuilt: u32,
    /// AES-CCM slot contexts carried over from the previous plan (their
    /// `(src, dst)` pair survived the destination change).
    pub ccm_reused: u32,
    /// AES-CCM slot contexts keyed fresh for new `(src, dst)` pairs.
    pub ccm_created: u32,
}

impl PlanPatch {
    /// Fold another patch into this one (driver-side accumulation when
    /// several deltas apply before a single round).
    pub fn absorb(&mut self, other: &PlanPatch) {
        self.round = other.round;
        self.joined += other.joined;
        self.left += other.left;
        self.destinations_changed |= other.destinations_changed;
        self.destinations = other.destinations;
        self.slots_rebuilt = other.slots_rebuilt;
        self.ccm_reused += other.ccm_reused;
        self.ccm_created += other.ccm_created;
    }
}

/// A compiled membership schedule: initial view plus per-round deltas on
/// the round-id axis, all propagation delay already folded in.
///
/// Compiled by [`MembershipTimeline::compile`] from a raw event stream:
///
/// * nodes whose **first** event is a [`Join`] start outside the
///   membership (they are provisioned later);
/// * a graceful [`Leave`]/[`Join`]/[`Rejoin`] announces itself and takes
///   effect once Trickle dissemination has converged network-wide;
/// * a [`Crash`] is silent: neighbors detect it only after
///   [`TrickleConfig::crash_detection`] rounds, then the announcement
///   propagates like any other;
/// * events whose effective round lands at or before the deployment's
///   first round fold into the initial view;
/// * transitions are idempotent (joining a live node or dropping an
///   absent one changes nothing), and deltas that end up empty are
///   dropped.
///
/// [`Join`]: ppda_sim::MembershipEventKind::Join
/// [`Rejoin`]: ppda_sim::MembershipEventKind::Rejoin
/// [`Leave`]: ppda_sim::MembershipEventKind::Leave
/// [`Crash`]: ppda_sim::MembershipEventKind::Crash
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipTimeline {
    /// Membership in force at the deployment's first round.
    initial: Vec<bool>,
    /// Net changes, strictly ascending in `round`, all after the first
    /// round.
    deltas: Vec<MembershipDelta>,
}

impl MembershipTimeline {
    /// Compile an event stream against a bootstrapped deployment.
    ///
    /// `seed` scopes the Trickle timer draws (normally the deployment
    /// seed); dissemination delays depend only on
    /// `(topology, trickle, seed)`, never on readings or keys.
    ///
    /// # Errors
    ///
    /// [`MpcError::InputMismatch`] if an event names a node outside the
    /// configured deployment.
    pub fn compile(
        bootstrap: &Bootstrap,
        config: &ProtocolConfig,
        events: &[MembershipEvent],
        trickle: &TrickleConfig,
        seed: u64,
    ) -> Result<Self, MpcError> {
        let n = config.n_nodes;
        let start_round = config.round_id;
        let mut initial = vec![true; n];

        // Nodes provisioned mid-campaign: first event is a join.
        let mut first_event: Vec<Option<&MembershipEvent>> = vec![None; n];
        for ev in events {
            if ev.node as usize >= n {
                return Err(MpcError::InputMismatch {
                    what: format!(
                        "membership event names node {} in a {n}-node deployment",
                        ev.node
                    ),
                });
            }
            let slot = &mut first_event[ev.node as usize];
            if slot.is_none() {
                *slot = Some(ev);
            }
        }
        for (v, first) in first_event.iter().enumerate() {
            if let Some(ev) = first {
                if ev.kind == ppda_sim::MembershipEventKind::Join {
                    initial[v] = false;
                }
            }
        }

        // Effective round per event: origin round + crash-detection lag
        // (silent failures only) + Trickle convergence delay. The new
        // view is first *executed* one round after convergence.
        let stream = derive_stream(seed, TAG_MEMBERSHIP);
        let mut timed: Vec<(u32, usize)> = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let lag = if ev.kind == ppda_sim::MembershipEventKind::Crash {
                trickle.crash_detection
            } else {
                0
            };
            // Bootstrapped topologies are connected, so convergence is
            // guaranteed; saturate defensively anyway.
            let converged = disseminate(
                bootstrap.hops_from(ev.node as usize),
                trickle,
                derive_stream(stream, i as u64),
            )
            .unwrap_or(u32::MAX);
            let effective = ev
                .round
                .saturating_add(lag)
                .saturating_add(converged)
                .saturating_add(1);
            timed.push((effective, i));
        }
        // Stable order: effective round, then event order.
        timed.sort_by_key(|&(r, i)| (r, i));

        let mut live = initial.clone();
        let mut deltas: Vec<MembershipDelta> = Vec::new();
        for (effective, i) in timed {
            let ev = &events[i];
            let v = ev.node as usize;
            let arrives = ev.kind.is_arrival();
            if live[v] == arrives {
                continue; // idempotent transition
            }
            live[v] = arrives;
            if effective <= start_round {
                // In force before the campaign starts: fold into the
                // initial view (later events may still flip it back).
                initial[v] = arrives;
                continue;
            }
            if deltas.last().map(|d| d.round) != Some(effective) {
                deltas.push(MembershipDelta::at(effective));
            }
            let delta = deltas.last_mut().expect("just pushed");
            if arrives {
                delta.joins.push(ev.node);
            } else {
                delta.leaves.push(ev.node);
            }
        }
        // An early-folded event can leave `initial` differing from the
        // pre-scan state; deltas computed against `live` already account
        // for that. Drop deltas that net out empty.
        deltas.retain(|d| !d.is_empty());

        Ok(MembershipTimeline { initial, deltas })
    }

    /// Membership in force at the deployment's first round.
    pub fn initial(&self) -> &[bool] {
        &self.initial
    }

    /// The compiled per-round deltas, ascending in round.
    pub fn deltas(&self) -> &[MembershipDelta] {
        &self.deltas
    }

    /// The membership view in force when round `round` executes.
    pub fn view_at(&self, round: u32) -> Vec<bool> {
        let mut live = self.initial.clone();
        for delta in &self.deltas {
            if delta.round > round {
                break;
            }
            for &v in &delta.joins {
                live[v as usize] = true;
            }
            for &v in &delta.leaves {
                live[v as usize] = false;
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppda_topology::Topology;

    fn setup() -> (Topology, ProtocolConfig) {
        let t = Topology::flocklab();
        let config = ProtocolConfig::builder(t.len()).sources(4).build().unwrap();
        (t, config)
    }

    #[test]
    fn empty_event_stream_is_static() {
        let (t, config) = setup();
        let b = Bootstrap::run(&t, &config).unwrap();
        let tl =
            MembershipTimeline::compile(&b, &config, &[], &TrickleConfig::default(), 1).unwrap();
        assert!(tl.deltas().is_empty());
        assert_eq!(tl.initial(), &vec![true; 26][..]);
        assert_eq!(tl.view_at(100), vec![true; 26]);
    }

    #[test]
    fn join_first_nodes_start_absent() {
        let (t, config) = setup();
        let b = Bootstrap::run(&t, &config).unwrap();
        let events = [MembershipEvent::join(10, 7)];
        let tl = MembershipTimeline::compile(&b, &config, &events, &TrickleConfig::default(), 1)
            .unwrap();
        assert!(!tl.initial()[7]);
        assert_eq!(tl.deltas().len(), 1);
        let d = &tl.deltas()[0];
        assert!(d.round > 10, "propagation delays the join");
        assert_eq!(d.joins, vec![7]);
        assert!(tl.view_at(d.round - 1).iter().filter(|&&l| l).count() == 25);
        assert!(tl.view_at(d.round)[7]);
    }

    #[test]
    fn crash_detection_lag_delays_crashes_beyond_leaves() {
        let (t, config) = setup();
        let b = Bootstrap::run(&t, &config).unwrap();
        let trickle = TrickleConfig::default();
        let leave =
            MembershipTimeline::compile(&b, &config, &[MembershipEvent::leave(10, 3)], &trickle, 1)
                .unwrap();
        let crash =
            MembershipTimeline::compile(&b, &config, &[MembershipEvent::crash(10, 3)], &trickle, 1)
                .unwrap();
        let lr = leave.deltas()[0].round;
        let cr = crash.deltas()[0].round;
        assert_eq!(cr, lr + trickle.crash_detection);
    }

    #[test]
    fn idempotent_transitions_and_empty_deltas_drop() {
        let (t, config) = setup();
        let b = Bootstrap::run(&t, &config).unwrap();
        // Leaving twice nets a single departure; rejoin of a live node
        // (node 5 starts live) is a no-op.
        let events = [
            MembershipEvent::rejoin(5, 5),
            MembershipEvent::leave(20, 3),
            MembershipEvent::leave(21, 3),
        ];
        let tl = MembershipTimeline::compile(&b, &config, &events, &TrickleConfig::default(), 1)
            .unwrap();
        assert_eq!(tl.deltas().len(), 1);
        assert_eq!(tl.deltas()[0].leaves, vec![3]);
    }

    #[test]
    fn pre_start_events_fold_into_initial() {
        let (t, mut config) = setup();
        config.round_id = 500;
        let b = Bootstrap::run(&t, &config).unwrap();
        let events = [
            MembershipEvent::leave(2, 9),
            MembershipEvent::rejoin(400, 9),
            MembershipEvent::leave(490, 6),
        ];
        let tl = MembershipTimeline::compile(&b, &config, &events, &TrickleConfig::default(), 1)
            .unwrap();
        // Node 9 left and rejoined before the campaign window.
        assert!(tl.initial()[9]);
        // Node 6's leave converged before round 500.
        assert!(!tl.initial()[6]);
        assert!(tl.deltas().is_empty());
    }

    #[test]
    fn deltas_ascend_and_merge_per_round() {
        let (t, config) = setup();
        let b = Bootstrap::run(&t, &config).unwrap();
        // Same origin round and same hop profile can merge; regardless,
        // rounds must ascend strictly.
        let events = [
            MembershipEvent::leave(10, 1),
            MembershipEvent::leave(10, 2),
            MembershipEvent::leave(30, 4),
        ];
        let tl = MembershipTimeline::compile(&b, &config, &events, &TrickleConfig::default(), 1)
            .unwrap();
        let rounds: Vec<u32> = tl.deltas().iter().map(|d| d.round).collect();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(rounds, sorted, "strictly ascending rounds");
        let total_leaves: usize = tl.deltas().iter().map(|d| d.leaves.len()).sum();
        assert_eq!(total_leaves, 3);
    }

    #[test]
    fn dissemination_is_secret_independent() {
        let (t, config) = setup();
        // Same topology and seed, different master keys: the compiled
        // timelines must be identical — membership metadata never
        // depends on secrets.
        let mut other = config.clone();
        other.master_key = [0xA5; 16];
        let b1 = Bootstrap::run(&t, &config).unwrap();
        let b2 = Bootstrap::run(&t, &other).unwrap();
        let events = [
            MembershipEvent::crash(5, 11),
            MembershipEvent::join(9, 2),
            MembershipEvent::rejoin(40, 11),
        ];
        let trickle = TrickleConfig::default();
        let a = MembershipTimeline::compile(&b1, &config, &events, &trickle, 77).unwrap();
        let b = MembershipTimeline::compile(&b2, &other, &events, &trickle, 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_node_is_rejected() {
        let (t, config) = setup();
        let b = Bootstrap::run(&t, &config).unwrap();
        let events = [MembershipEvent::leave(1, 26)];
        assert!(matches!(
            MembershipTimeline::compile(&b, &config, &events, &TrickleConfig::default(), 1),
            Err(MpcError::InputMismatch { .. })
        ));
    }

    #[test]
    fn patch_absorb_accumulates() {
        let mut a = PlanPatch {
            round: 5,
            joined: 1,
            left: 0,
            destinations_changed: false,
            destinations: 11,
            slots_rebuilt: 0,
            ccm_reused: 0,
            ccm_created: 0,
        };
        let b = PlanPatch {
            round: 9,
            joined: 0,
            left: 2,
            destinations_changed: true,
            destinations: 10,
            slots_rebuilt: 40,
            ccm_reused: 30,
            ccm_created: 10,
        };
        a.absorb(&b);
        assert_eq!(a.round, 9);
        assert_eq!(a.joined, 1);
        assert_eq!(a.left, 2);
        assert!(a.destinations_changed);
        assert_eq!(a.destinations, 10);
        assert_eq!(a.slots_rebuilt, 40);
        assert_eq!(a.ccm_reused, 30);
    }
}
