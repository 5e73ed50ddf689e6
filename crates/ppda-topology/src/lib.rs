//! Network topologies: the two public testbeds the paper evaluates on, plus
//! synthetic generators for ablations and tests.
//!
//! A [`Topology`] is a set of node positions together with a *static* link
//! quality matrix (PRR and mean RSSI per directed pair), produced by pushing
//! the geometry through the [`ppda_radio::PathLossModel`] with per-link
//! shadowing drawn from a fixed per-testbed seed. This mirrors a physical
//! testbed: the deployment (walls, distances) is fixed across experiments,
//! while per-packet fading varies per run.
//!
//! * [`Topology::flocklab`] — 26 nodes, office-building geometry,
//!   ≈4-hop diameter (FlockLab 2, ETH Zürich).
//! * [`Topology::dcube`] — 45 nodes, denser but wider institute geometry,
//!   ≈6-hop diameter (D-Cube, TU Graz).
//! * [`Topology::grid`], [`Topology::line`], [`Topology::random_geometric`]
//!   — synthetic families.
//!
//! # Example
//!
//! ```
//! use ppda_topology::Topology;
//! let t = Topology::flocklab();
//! assert_eq!(t.len(), 26);
//! assert!(t.is_connected(0.5));
//! let hops = t.hops_from(0, 0.5);
//! assert!(hops.iter().all(|h| h.is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod generators;

#[cfg(feature = "serde")]
mod serde_impl;

use ppda_radio::PathLossModel;
use ppda_sim::{derive_stream, Xoshiro256};

/// Links with PRR below this floor are treated as non-existent.
pub const LINK_PRR_FLOOR: f64 = 0.01;

/// A fixed deployment: node positions plus static link-quality matrices.
///
/// Link metrics are symmetric (channel reciprocity) and exclude self-links.
///
/// # Example
///
/// ```
/// use ppda_topology::Topology;
/// let flocklab = Topology::flocklab();
/// assert_eq!(flocklab.len(), 26);
/// assert_eq!(flocklab.name(), "flocklab");
/// let grid = Topology::grid(3, 3, 18.0, 5);
/// assert_eq!(grid.len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    positions: Vec<(f64, f64)>,
    /// Flattened n×n PRR matrix; diagonal is 0.
    prr: Vec<f64>,
    /// Flattened n×n mean RSSI matrix (dBm); diagonal is 0 (unused).
    rssi: Vec<f64>,
    /// RSSI→PRR curve parameters, kept so link quality can be re-evaluated
    /// under round-scale attenuation (see [`Topology::prr_at`]).
    curve: PrrCurve,
}

/// The RSSI→PRR mapping a topology was built with.
#[derive(Debug, Clone, Copy)]
struct PrrCurve {
    sensitivity_dbm: f64,
    transition_db: f64,
    tx_power_dbm: f64,
    pl0_db: f64,
    d0_m: f64,
    exponent: f64,
    shadowing_sigma_db: f64,
}

impl PrrCurve {
    fn to_model(self) -> PathLossModel {
        PathLossModel {
            pl0_db: self.pl0_db,
            d0_m: self.d0_m,
            exponent: self.exponent,
            shadowing_sigma_db: self.shadowing_sigma_db,
            tx_power_dbm: self.tx_power_dbm,
            sensitivity_dbm: self.sensitivity_dbm,
            transition_db: self.transition_db,
        }
    }
}

impl Topology {
    /// Build a topology from explicit positions under a channel model.
    ///
    /// `seed` drives the static per-link shadowing draw; a given
    /// `(positions, model, seed)` triple always yields the same deployment.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 positions are supplied or more than
    /// `u16::MAX` nodes are requested.
    pub fn from_positions(
        name: impl Into<String>,
        positions: Vec<(f64, f64)>,
        model: &PathLossModel,
        seed: u64,
    ) -> Self {
        assert!(positions.len() >= 2, "a network needs at least two nodes");
        assert!(
            positions.len() <= u16::MAX as usize,
            "node ids are u16; got {} nodes",
            positions.len()
        );
        let n = positions.len();
        let mut prr = vec![0.0; n * n];
        let mut rssi = vec![0.0; n * n];
        for i in 0..n {
            for j in i + 1..n {
                // One shadowing draw per unordered pair keeps reciprocity.
                let mut link_rng = Xoshiro256::seed_from(derive_stream(seed, (i * n + j) as u64));
                let shadow = model.draw_shadowing(&mut link_rng);
                let (xi, yi) = positions[i];
                let (xj, yj) = positions[j];
                let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt().max(0.1);
                let r = model.rssi_dbm(dist, shadow);
                let mut p = model.prr_from_rssi(r);
                if p < LINK_PRR_FLOOR {
                    p = 0.0;
                }
                prr[i * n + j] = p;
                prr[j * n + i] = p;
                rssi[i * n + j] = r;
                rssi[j * n + i] = r;
            }
        }
        Topology {
            name: name.into(),
            positions,
            prr,
            rssi,
            curve: PrrCurve {
                sensitivity_dbm: model.sensitivity_dbm,
                transition_db: model.transition_db,
                tx_power_dbm: model.tx_power_dbm,
                pl0_db: model.pl0_db,
                d0_m: model.d0_m,
                exponent: model.exponent,
                shadowing_sigma_db: model.shadowing_sigma_db,
            },
        }
    }

    /// The FlockLab 2 testbed model: 26 nRF52840 nodes across an office
    /// building wing (~130 m × 55 m), multi-hop with diameter ≈ 4 at a
    /// 50% PRR link threshold.
    pub fn flocklab() -> Self {
        generators::flocklab()
    }

    /// The D-Cube testbed model: 45 nRF52840 nodes across a wider institute
    /// area (~170 m × 75 m), denser neighborhoods, diameter ≈ 6.
    pub fn dcube() -> Self {
        generators::dcube()
    }

    /// A jittered rectangular grid of `nx × ny` nodes with `spacing` meters
    /// between grid points.
    pub fn grid(nx: usize, ny: usize, spacing: f64, seed: u64) -> Self {
        generators::grid(nx, ny, spacing, seed)
    }

    /// A line of `n` nodes, `spacing` meters apart — the extreme multi-hop
    /// case used in tests and NTX ablations.
    pub fn line(n: usize, spacing: f64, seed: u64) -> Self {
        generators::line(n, spacing, seed)
    }

    /// `n` nodes placed uniformly at random in a `width × height` area.
    pub fn random_geometric(n: usize, width: f64, height: f64, seed: u64) -> Self {
        generators::random_geometric(n, width, height, seed)
    }

    /// Human-readable deployment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the topology has no nodes (never constructible — kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Node positions in meters.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Euclidean distance between two nodes in meters.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        let (xi, yi) = self.positions[i];
        let (xj, yj) = self.positions[j];
        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
    }

    /// Static PRR of the link `i → j` (0 when no usable link).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn prr(&self, i: usize, j: usize) -> f64 {
        self.prr[i * self.len() + j]
    }

    /// Mean RSSI (dBm) of the link `i → j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn rssi(&self, i: usize, j: usize) -> f64 {
        self.rssi[i * self.len() + j]
    }

    /// PRR of `i → j` under an extra `attenuation_db` of round-scale
    /// fading/interference (0 dB reproduces [`Topology::prr`], modulo the
    /// link floor).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn prr_at(&self, i: usize, j: usize, attenuation_db: f64) -> f64 {
        if i == j {
            return 0.0;
        }
        let model = self.curve.to_model();
        let p = model.prr_from_rssi(self.rssi(i, j) - attenuation_db);
        if p < LINK_PRR_FLOOR {
            0.0
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flocklab_shape() {
        let t = Topology::flocklab();
        assert_eq!(t.len(), 26);
        assert_eq!(t.name(), "flocklab");
        assert!(t.is_connected(0.5), "testbed graph must be connected");
        let d = t.diameter(0.5).unwrap();
        assert!((3..=6).contains(&d), "flocklab diameter {d} out of range");
    }

    #[test]
    fn dcube_shape() {
        let t = Topology::dcube();
        assert_eq!(t.len(), 45);
        assert_eq!(t.name(), "dcube");
        assert!(t.is_connected(0.5));
        let d = t.diameter(0.5).unwrap();
        assert!((4..=9).contains(&d), "dcube diameter {d} out of range");
    }

    #[test]
    fn deterministic_construction() {
        let a = Topology::flocklab();
        let b = Topology::flocklab();
        assert_eq!(a.prr, b.prr);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn symmetry_and_diagonal() {
        let t = Topology::flocklab();
        for i in 0..t.len() {
            assert_eq!(t.prr(i, i), 0.0);
            for j in 0..t.len() {
                assert_eq!(t.prr(i, j), t.prr(j, i));
                assert!((0.0..=1.0).contains(&t.prr(i, j)));
            }
        }
    }

    #[test]
    fn prr_floor_applied() {
        let t = Topology::flocklab();
        for i in 0..t.len() {
            for j in 0..t.len() {
                let p = t.prr(i, j);
                assert!(p == 0.0 || p >= LINK_PRR_FLOOR);
            }
        }
    }

    #[test]
    fn nearby_nodes_have_good_links() {
        let t = Topology::grid(3, 3, 10.0, 7);
        // Adjacent grid nodes at ~10 m must be solid links.
        let p = t.prr(0, 1);
        assert!(p > 0.85, "10 m link prr = {p}");
    }

    #[test]
    fn distance_is_metric_like() {
        let t = Topology::flocklab();
        assert_eq!(t.distance(3, 3), 0.0);
        assert!((t.distance(0, 1) - t.distance(1, 0)).abs() < 1e-12);
        assert!(t.distance(0, 25) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_node() {
        let model = PathLossModel::indoor_office();
        let _ = Topology::from_positions("bad", vec![(0.0, 0.0)], &model, 1);
    }
}
