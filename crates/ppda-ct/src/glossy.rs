//! Glossy: one-to-all flooding with constructive interference.
//!
//! One initiator injects a packet; every node that receives it retransmits
//! in the immediately following slots, NTX times. The flood sweeps the
//! network one hop per slot, and the slot index at first reception gives
//! each node both the packet *and* sub-microsecond time synchronization —
//! which is how the PPDA bootstrapping phase aligns the MiniCast TDMA
//! schedules.

use ppda_radio::{EnergyLedger, FrameSpec};
use ppda_sim::{SimDuration, SimTime, Xoshiro256};
use ppda_topology::Topology;

use crate::engine::LinkTable;

/// Glossy flood parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlossyConfig {
    /// Transmissions per node.
    pub ntx: u32,
    /// Flood initiator. `None` selects the topology center.
    pub initiator: Option<u16>,
    /// PRR threshold for the automatic schedule length.
    pub link_threshold: f64,
}

impl Default for GlossyConfig {
    fn default() -> Self {
        GlossyConfig {
            ntx: 3,
            initiator: None,
            link_threshold: 0.5,
        }
    }
}

/// Outcome of one Glossy flood.
#[derive(Debug, Clone)]
pub struct GlossyResult {
    /// First-reception instant per node (`Some(ZERO)` for the initiator).
    pub first_rx: Vec<Option<SimTime>>,
    /// Radio ledgers per node.
    pub ledgers: Vec<EnergyLedger>,
    /// Transmissions performed per node.
    pub tx_count: Vec<u32>,
    /// Slots simulated.
    pub slots_run: u32,
    /// Slot duration used.
    pub slot_duration: SimDuration,
}

impl GlossyResult {
    /// Fraction of nodes that received the flood.
    pub fn reliability(&self) -> f64 {
        let got = self.first_rx.iter().filter(|r| r.is_some()).count();
        got as f64 / self.first_rx.len() as f64
    }

    /// Latest first-reception instant, or `None` if some node missed the
    /// flood.
    pub fn flood_latency(&self) -> Option<SimDuration> {
        let mut worst = SimTime::ZERO;
        for rx in &self.first_rx {
            worst = worst.max((*rx)?);
        }
        Some(worst - SimTime::ZERO)
    }
}

/// A configured Glossy flood over a fixed topology.
#[derive(Debug, Clone)]
pub struct Glossy<'a> {
    topology: &'a Topology,
    frame: FrameSpec,
    config: GlossyConfig,
    links: LinkTable,
    initiator: usize,
    max_slots: u32,
}

impl<'a> Glossy<'a> {
    /// Extra slots beyond `eccentricity + ntx` kept in the schedule.
    const SLACK_SLOTS: u32 = 4;

    /// Bind a flood to a topology. Links are evaluated at their nominal
    /// PRR (no extra attenuation).
    ///
    /// # Panics
    ///
    /// Panics if the configured initiator is outside the topology.
    pub fn new(topology: &'a Topology, frame: FrameSpec, config: GlossyConfig) -> Self {
        let n = topology.len();
        let initiator = match config.initiator {
            Some(i) => {
                assert!((i as usize) < n, "initiator {i} outside topology");
                i as usize
            }
            None => topology.center_node(config.link_threshold),
        };
        let ecc = topology
            .eccentricity(initiator, config.link_threshold)
            .unwrap_or(n as u32);
        let max_slots = ecc + config.ntx + Self::SLACK_SLOTS;
        Glossy {
            topology,
            frame,
            config,
            links: LinkTable::new(topology, 0.0, 0.0),
            initiator,
            max_slots,
        }
    }

    /// The flood initiator.
    pub fn initiator(&self) -> usize {
        self.initiator
    }

    /// Scheduled flood length in slots.
    pub fn max_slots(&self) -> u32 {
        self.max_slots
    }

    /// Run one flood.
    pub fn run(&self, rng: &mut Xoshiro256) -> GlossyResult {
        self.run_with(rng, &vec![false; self.topology.len()])
    }

    /// Run one flood with failure injection.
    ///
    /// # Panics
    ///
    /// Panics if `failed.len()` differs from the topology size.
    pub fn run_with(&self, rng: &mut Xoshiro256, failed: &[bool]) -> GlossyResult {
        let n = self.topology.len();
        assert_eq!(failed.len(), n, "failure mask size mismatch");
        let slot = self.frame.slot_duration();
        let airtime = self.frame.airtime();

        let mut first_rx: Vec<Option<SimTime>> = vec![None; n];
        let mut tx_count = vec![0u32; n];
        let mut tx_remaining = vec![0u32; n];
        let mut ledgers = vec![EnergyLedger::new(); n];
        let mut off: Vec<bool> = failed.to_vec();
        if !failed[self.initiator] {
            first_rx[self.initiator] = Some(SimTime::ZERO);
            tx_remaining[self.initiator] = self.config.ntx;
        }

        let mut is_tx = vec![false; n];
        let mut slots_run = 0u32;
        for s in 0..self.max_slots {
            slots_run = s + 1;
            let slot_start = SimTime::ZERO + slot * s as u64;
            let mut any_tx = false;
            for v in 0..n {
                let tx = !off[v] && tx_remaining[v] > 0;
                is_tx[v] = tx;
                any_tx |= tx;
            }
            if !any_tx {
                slots_run = s;
                break;
            }
            for v in 0..n {
                if is_tx[v] {
                    tx_remaining[v] -= 1;
                    tx_count[v] += 1;
                    ledgers[v].add_tx(airtime);
                    ledgers[v].add_listen(slot.saturating_sub(airtime));
                    // After its last transmission a node turns off.
                    if tx_remaining[v] == 0 {
                        off[v] = true;
                    }
                }
            }
            for v in 0..n {
                if off[v] || is_tx[v] {
                    continue;
                }
                if first_rx[v].is_none() {
                    let p = self.links.reception_prob(v, &is_tx);
                    if p > 0.0 && rng.chance(p) {
                        first_rx[v] = Some(slot_start + slot);
                        tx_remaining[v] = self.config.ntx;
                        ledgers[v].add_rx(airtime);
                        ledgers[v].add_listen(slot.saturating_sub(airtime));
                        continue;
                    }
                }
                ledgers[v].add_listen(slot);
            }
        }

        GlossyResult {
            first_rx,
            ledgers,
            tx_count,
            slots_run,
            slot_duration: slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> FrameSpec {
        FrameSpec::new(10, 0).unwrap()
    }

    #[test]
    fn flood_reaches_everyone_on_flocklab() {
        let t = Topology::flocklab();
        let g = Glossy::new(&t, frame(), GlossyConfig::default());
        let r = g.run(&mut Xoshiro256::seed_from(1));
        assert_eq!(r.reliability(), 1.0, "flood must cover the testbed");
        assert!(r.flood_latency().is_some());
    }

    #[test]
    fn initiator_receives_at_zero() {
        let t = Topology::flocklab();
        let g = Glossy::new(&t, frame(), GlossyConfig::default());
        let r = g.run(&mut Xoshiro256::seed_from(2));
        assert_eq!(r.first_rx[g.initiator()], Some(SimTime::ZERO));
    }

    #[test]
    fn latency_grows_with_hops_on_line() {
        let t = Topology::line(6, 30.0, 1);
        let g = Glossy::new(
            &t,
            frame(),
            GlossyConfig {
                initiator: Some(0),
                ntx: 3,
                ..Default::default()
            },
        );
        let r = g.run(&mut Xoshiro256::seed_from(3));
        // Far nodes receive strictly later than near ones.
        let t1 = r.first_rx[1].expect("1 hop");
        let t5 = r.first_rx[5].expect("5 hops");
        assert!(t5 > t1);
    }

    #[test]
    fn each_node_transmits_at_most_ntx() {
        let t = Topology::flocklab();
        let g = Glossy::new(
            &t,
            frame(),
            GlossyConfig {
                ntx: 2,
                ..Default::default()
            },
        );
        let r = g.run(&mut Xoshiro256::seed_from(4));
        for &c in &r.tx_count {
            assert!(c <= 2);
        }
    }

    #[test]
    fn failed_initiator_means_dead_flood() {
        let t = Topology::flocklab();
        let g = Glossy::new(&t, frame(), GlossyConfig::default());
        let mut failed = vec![false; t.len()];
        failed[g.initiator()] = true;
        let r = g.run_with(&mut Xoshiro256::seed_from(5), &failed);
        assert_eq!(r.reliability(), 0.0);
        // Nothing transmitted at all; the engine stops immediately.
        assert!(r.tx_count.iter().all(|&c| c == 0));
    }

    #[test]
    fn failed_relay_does_not_block_dense_network() {
        let t = Topology::flocklab();
        let g = Glossy::new(&t, frame(), GlossyConfig::default());
        let mut failed = vec![false; t.len()];
        // Kill two non-initiator nodes.
        let mut killed = 0;
        for (v, f) in failed.iter_mut().enumerate() {
            if v != g.initiator() && killed < 2 {
                *f = true;
                killed += 1;
            }
        }
        let r = g.run_with(&mut Xoshiro256::seed_from(6), &failed);
        let live_got = r
            .first_rx
            .iter()
            .enumerate()
            .filter(|&(v, rx)| !failed[v] && rx.is_some())
            .count();
        assert_eq!(live_got, t.len() - 2, "dense graph routes around failures");
    }

    #[test]
    fn deterministic_replay() {
        let t = Topology::dcube();
        let g = Glossy::new(&t, frame(), GlossyConfig::default());
        let a = g.run(&mut Xoshiro256::seed_from(9));
        let b = g.run(&mut Xoshiro256::seed_from(9));
        assert_eq!(a.first_rx, b.first_rx);
        assert_eq!(a.tx_count, b.tx_count);
    }

    #[test]
    fn radio_on_bounded_by_schedule() {
        let t = Topology::flocklab();
        let g = Glossy::new(&t, frame(), GlossyConfig::default());
        let r = g.run(&mut Xoshiro256::seed_from(10));
        let budget = r.slot_duration * g.max_slots() as u64;
        for l in &r.ledgers {
            assert!(l.radio_on() <= budget);
        }
    }
}
