//! Online membership events and Trickle-governed dissemination.
//!
//! Long-lived IoT deployments are not static: nodes join after
//! provisioning, leave for maintenance, crash without warning and rejoin
//! after a battery swap. A [`MembershipEvent`] records one such change on
//! the round-id axis. Events do not take effect instantly — the network
//! learns about them through a Trickle-style dissemination protocol
//! (RFC 6206), so a membership change becomes *effective* only once the
//! whole network has converged on the new view. [`disseminate`] models
//! that propagation deterministically: given the hop distances from the
//! announcing node, it draws each hop ring's Trickle transmit points and
//! returns the convergence delay, the rounds until every node holds the
//! announcement (`None` when some node never hears it).
//!
//! The protocol layers above (ppda-mpc) consume this to turn an event
//! stream into per-round membership views with realistic propagation
//! delay; everything here is pure and seed-deterministic, like the rest
//! of the simulation core.

use crate::rng::{derive_stream, Xoshiro256};

/// What kind of membership change a [`MembershipEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MembershipEventKind {
    /// A newly provisioned node enters the deployment. Nodes whose first
    /// event is a join are absent from the initial membership.
    Join,
    /// A node leaves gracefully (announces its own departure).
    Leave,
    /// A node dies silently; neighbors detect the silence after a
    /// detection lag before the departure can be announced.
    Crash,
    /// A previously departed or crashed node comes back.
    Rejoin,
}

impl MembershipEventKind {
    /// `true` for events that add the node to the membership.
    pub fn is_arrival(self) -> bool {
        matches!(
            self,
            MembershipEventKind::Join | MembershipEventKind::Rejoin
        )
    }

    /// `true` for events that remove the node from the membership.
    pub fn is_departure(self) -> bool {
        !self.is_arrival()
    }

    /// Display name of the event kind.
    pub fn name(self) -> &'static str {
        match self {
            MembershipEventKind::Join => "join",
            MembershipEventKind::Leave => "leave",
            MembershipEventKind::Crash => "crash",
            MembershipEventKind::Rejoin => "rejoin",
        }
    }
}

/// One membership change at a point on the round-id axis.
///
/// # Example
///
/// ```
/// use ppda_sim::{MembershipEvent, MembershipEventKind};
/// let ev = MembershipEvent::crash(12, 5);
/// assert_eq!(ev.round, 12);
/// assert_eq!(ev.node, 5);
/// assert!(ev.kind.is_departure());
/// assert_eq!(ev.kind, MembershipEventKind::Crash);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MembershipEvent {
    /// Round id at which the change occurs at the node itself.
    pub round: u32,
    /// The affected node.
    pub node: u16,
    /// What happened.
    pub kind: MembershipEventKind,
}

impl MembershipEvent {
    /// A new node joins the deployment in `round`.
    pub fn join(round: u32, node: u16) -> Self {
        MembershipEvent {
            round,
            node,
            kind: MembershipEventKind::Join,
        }
    }

    /// `node` leaves gracefully in `round`.
    pub fn leave(round: u32, node: u16) -> Self {
        MembershipEvent {
            round,
            node,
            kind: MembershipEventKind::Leave,
        }
    }

    /// `node` crashes silently in `round`.
    pub fn crash(round: u32, node: u16) -> Self {
        MembershipEvent {
            round,
            node,
            kind: MembershipEventKind::Crash,
        }
    }

    /// `node` rejoins in `round`.
    pub fn rejoin(round: u32, node: u16) -> Self {
        MembershipEvent {
            round,
            node,
            kind: MembershipEventKind::Rejoin,
        }
    }
}

/// Trickle timer parameters (RFC 6206), on a round-granular clock.
///
/// Rounds are the time unit: control traffic piggybacks on the per-round
/// TDMA schedule, so sub-round timing is invisible to the protocol layer.
/// The two parameters are the ones a convergence delay depends on.
///
/// # Example
///
/// ```
/// use ppda_sim::TrickleConfig;
/// let cfg = TrickleConfig::default();
/// assert_eq!((cfg.i_min, cfg.crash_detection), (1, 2));
/// let slow = TrickleConfig { i_min: 8, ..cfg };
/// assert_eq!(slow.crash_detection, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrickleConfig {
    /// Minimum interval `I_min`, in rounds (0 counts as 1). A node that
    /// first hears an announcement resets its interval to this and
    /// transmits at a point drawn from `[I_min/2, I_min)`.
    pub i_min: u32,
    /// Rounds of silence before neighbors detect a crashed node (graceful
    /// departures announce themselves and skip this lag).
    pub crash_detection: u32,
}

impl Default for TrickleConfig {
    fn default() -> Self {
        TrickleConfig {
            i_min: 1,
            crash_detection: 2,
        }
    }
}

/// Draw a transmit point uniformly from `[i/2, i)`.
fn draw_t(i: u32, rng: &mut Xoshiro256) -> u32 {
    let lo = i / 2;
    let span = i - lo;
    if span <= 1 {
        lo
    } else {
        lo + rng.below(span as u64) as u32
    }
}

/// Model the Trickle-governed spread of one announcement: the rounds
/// after it until every node holds the update, or `None` when some node
/// is unreachable from the origin.
///
/// `hops_from_origin[v]` is the hop distance from the announcing node to
/// `v` (`Some(0)` at the origin, `None` if unreachable). The update
/// crosses one hop ring per Trickle transmit: every node in a ring resets
/// its timer to `I_min` on first hearing the update and draws a transmit
/// point from `[I/2, I)`. The ring's earliest point fires, since no
/// earlier transmission can suppress it, and the next ring hears the
/// update one round later. The delay sums these ring delays up to the
/// farthest ring, saturating at `u32::MAX`. A hop ring left empty below
/// the farthest one relays nothing, so the nodes past it count as
/// unreachable.
///
/// Deterministic in `(hops, cfg, seed)`; per-ring draws come from
/// [`derive_stream`] sub-streams of `seed`.
///
/// # Example
///
/// ```
/// use ppda_sim::{disseminate, TrickleConfig};
/// // A 4-node line: origin at one end.
/// let hops = vec![Some(0), Some(1), Some(2), Some(3)];
/// let cfg = TrickleConfig::default(); // i_min = 1: one round per hop
/// assert_eq!(disseminate(&hops, &cfg, 42), Some(3));
/// assert_eq!(disseminate(&[Some(0), Some(1), None], &cfg, 42), None);
/// ```
pub fn disseminate(
    hops_from_origin: &[Option<u32>],
    cfg: &TrickleConfig,
    seed: u64,
) -> Option<u32> {
    if hops_from_origin.contains(&None) {
        return None;
    }
    let farthest = hops_from_origin.iter().flatten().copied().max()?;
    let mut delay = 0u32;
    for h in 0..farthest {
        // Ring members draw their transmit points in id order.
        let mut rng = Xoshiro256::seed_from(derive_stream(seed, h as u64));
        let fire = hops_from_origin
            .iter()
            .filter(|&&hop| hop == Some(h))
            .map(|_| draw_t(cfg.i_min.max(1), &mut rng))
            .min()?;
        // One round for the beacon to cross into the next ring.
        delay = delay.saturating_add(fire + 1);
    }
    Some(delay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_constructors_carry_coordinates() {
        let cases = [
            (MembershipEvent::join(1, 2), MembershipEventKind::Join),
            (MembershipEvent::leave(3, 4), MembershipEventKind::Leave),
            (MembershipEvent::crash(5, 6), MembershipEventKind::Crash),
            (MembershipEvent::rejoin(7, 8), MembershipEventKind::Rejoin),
        ];
        for (ev, kind) in cases {
            assert_eq!(ev.kind, kind);
            assert_eq!(ev.kind.is_arrival(), !ev.kind.is_departure());
        }
        assert!(MembershipEventKind::Join.is_arrival());
        assert!(MembershipEventKind::Rejoin.is_arrival());
        assert!(MembershipEventKind::Leave.is_departure());
        assert!(MembershipEventKind::Crash.is_departure());
        assert_eq!(MembershipEventKind::Crash.name(), "crash");
    }

    #[test]
    fn dissemination_is_deterministic_and_hop_monotone() {
        let hops: Vec<Option<u32>> = vec![Some(2), Some(1), Some(0), Some(1), Some(2), Some(3)];
        // Without the farthest ring (node 5): rings 0–2 keep their draws.
        let nearer = &hops[..5];
        for i_min in [1, 2, 5, 16] {
            let cfg = TrickleConfig {
                i_min,
                ..TrickleConfig::default()
            };
            let delay = disseminate(&hops, &cfg, 99).expect("every node is reachable");
            assert_eq!(disseminate(&hops, &cfg, 99), Some(delay));
            assert!(disseminate(nearer, &cfg, 99).expect("reachable") < delay);
        }
    }

    #[test]
    fn unit_i_min_crosses_one_hop_per_round() {
        // I = 1 pins the transmit point to t = 0: the update crosses
        // exactly one hop ring per round, whatever the seed.
        let hops: Vec<Option<u32>> = (0..7).map(Some).collect();
        let cfg = TrickleConfig {
            i_min: 1,
            ..TrickleConfig::default()
        };
        for seed in [0u64, 1, 0xABCD] {
            for farthest in 0..7 {
                assert_eq!(
                    disseminate(&hops[..=farthest as usize], &cfg, seed),
                    Some(farthest)
                );
            }
        }
    }

    #[test]
    fn wide_intervals_saturate_the_delay() {
        // Every ring draws a transmit point of at least u32::MAX / 2, so
        // the ring delays of a 4-node line sum past u32::MAX: the delay
        // saturates instead of wrapping to a too-early round.
        let hops = [Some(0), Some(1), Some(2), Some(3)];
        let cfg = TrickleConfig {
            i_min: u32::MAX,
            ..TrickleConfig::default()
        };
        assert_eq!(disseminate(&hops, &cfg, 1), Some(u32::MAX));
    }

    #[test]
    fn unreachable_nodes_never_converge() {
        let cfg = TrickleConfig::default();
        assert_eq!(disseminate(&[Some(0), Some(1), None], &cfg, 7), None);
        // Fully empty hop map: nothing to do.
        assert_eq!(disseminate(&[None, None], &cfg, 7), None);
        // No node at hop 1 relays the update to the node at hop 2.
        assert_eq!(disseminate(&[Some(0), Some(2)], &cfg, 7), None);
    }
}
