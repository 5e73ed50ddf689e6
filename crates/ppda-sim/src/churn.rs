//! Deterministic node-churn schedules.
//!
//! IoT deployments lose nodes for whole stretches of epochs — battery
//! swaps, reboots, maintenance windows — not just for single rounds. A
//! [`ChurnSchedule`] captures that as a list of per-node down *windows*
//! over the round-id axis (the protocol layer's epoch counter), so a
//! multi-round session replays exactly the same availability pattern on
//! every run. Being plain data with no randomness, the schedule composes
//! with probabilistic per-round fault draws layered on top of it.

/// One node's planned outage: down for rounds in `[from_round, until_round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWindow {
    /// The node that goes down.
    pub node: u16,
    /// First round id of the outage (inclusive).
    pub from_round: u32,
    /// First round id after the outage (exclusive).
    pub until_round: u32,
}

/// A deterministic per-round node availability plan: the union of down
/// windows of all scheduled outages.
///
/// # Example
///
/// ```
/// use ppda_sim::ChurnSchedule;
/// let churn = ChurnSchedule::new().window(3, 10, 12).window(7, 11, 14);
/// assert!(!churn.is_down(3, 9));
/// assert!(churn.is_down(3, 10));
/// assert!(churn.is_down(3, 11));
/// assert!(!churn.is_down(3, 12));
/// assert!(churn.is_down(7, 13));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    windows: Vec<ChurnWindow>,
}

impl ChurnSchedule {
    /// An empty schedule: every node is up in every round.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a schedule from `(node, from_round, until_round)` triples.
    pub fn from_windows(windows: impl IntoIterator<Item = (u16, u32, u32)>) -> Self {
        ChurnSchedule {
            windows: windows
                .into_iter()
                .map(|(node, from_round, until_round)| ChurnWindow {
                    node,
                    from_round,
                    until_round,
                })
                .collect(),
        }
    }

    /// Add one outage window: `node` is down for rounds in `[from, until)`.
    #[must_use]
    pub fn window(mut self, node: u16, from: u32, until: u32) -> Self {
        self.windows.push(ChurnWindow {
            node,
            from_round: from,
            until_round: until,
        });
        self
    }

    /// The scheduled outage windows.
    pub fn windows(&self) -> &[ChurnWindow] {
        &self.windows
    }

    /// Number of scheduled outage windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when no outages are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Is `node` scheduled down in `round`?
    pub fn is_down(&self, node: usize, round: u32) -> bool {
        self.windows
            .iter()
            .any(|w| w.node as usize == node && round >= w.from_round && round < w.until_round)
    }

    /// Nodes scheduled down in `round` as a bit mask (bit `v` set ⇔ node
    /// `v` is down), covering node ids 0..128 — the workspace-wide node
    /// cap. Allocation-free; one pass over the windows.
    pub fn down_mask(&self, round: u32) -> u128 {
        let mut mask = 0u128;
        for w in &self.windows {
            if round >= w.from_round && round < w.until_round && w.node < 128 {
                mask |= 1u128 << w.node;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_never_downs() {
        let churn = ChurnSchedule::new();
        assert!(churn.is_empty());
        assert_eq!(churn.len(), 0);
        for round in 0..10 {
            assert!(!churn.is_down(0, round));
            assert_eq!(churn.down_mask(round), 0);
        }
    }

    #[test]
    fn window_bounds_are_half_open() {
        let churn = ChurnSchedule::new().window(4, 2, 5);
        assert!(!churn.is_down(4, 1));
        assert!(churn.is_down(4, 2));
        assert!(churn.is_down(4, 4));
        assert!(!churn.is_down(4, 5));
        assert!(!churn.is_down(3, 3), "other nodes unaffected");
    }

    #[test]
    fn overlapping_windows_union_and_dedup() {
        let churn = ChurnSchedule::from_windows([(2, 0, 4), (2, 2, 6), (9, 3, 4)]);
        assert_eq!(churn.len(), 3);
        assert!(churn.is_down(2, 5));
        assert_eq!(churn.down_mask(3), 1 << 2 | 1 << 9);
        assert_eq!(churn.down_mask(5), 1 << 2);
    }

    #[test]
    fn mask_matches_is_down_per_node() {
        let churn = ChurnSchedule::from_windows([(0, 1, 3), (5, 2, 9), (5, 0, 1)]);
        for round in 0..10 {
            let mask = churn.down_mask(round);
            for node in 0..16usize {
                assert_eq!(mask >> node & 1 == 1, churn.is_down(node, round));
            }
        }
    }

    #[test]
    fn builder_and_from_windows_agree() {
        let a = ChurnSchedule::new().window(1, 5, 7).window(2, 0, 1);
        let b = ChurnSchedule::from_windows([(1, 5, 7), (2, 0, 1)]);
        assert_eq!(a, b);
    }
}
