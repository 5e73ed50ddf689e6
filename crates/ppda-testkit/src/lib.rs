//! Deterministic scenario builders shared by the workspace test suites.
//!
//! The integration suites (`end_to_end`, `properties`, `privacy`) all need
//! the same few ingredients — a testbed or synthetic topology, a protocol
//! config at its default operating point, a seeded RNG — and repeating
//! that setup in every test both obscures what each test actually varies
//! and invites drift. This crate is the single source of those fixtures.
//!
//! Everything here is deterministic: the same builder call always returns
//! the same scenario, so test failures reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ppda_ct::FaultPlan;
use ppda_mpc::{
    Bootstrap, Deployment, MpcError, ProtocolConfig, ProtocolConfigBuilder, ProtocolKind,
    RoundReport,
};
use ppda_sim::{ChurnSchedule, Xoshiro256};
use ppda_topology::Topology;

/// The canonical small synthetic scenario: a 3×3 jittered grid, 18 m
/// spacing, construction seed 5 — large enough for multi-hop behaviour,
/// small enough that debug-build protocol rounds stay fast.
pub fn grid9() -> Topology {
    Topology::grid(3, 3, 18.0, 5)
}

/// A config builder for [`grid9`] at its standard operating point:
/// degree 2, NTX 6 for both phases. Callers chain further overrides
/// before `.build()`.
pub fn grid9_config() -> ProtocolConfigBuilder {
    ProtocolConfig::builder(9)
        .degree(2)
        .ntx_sharing(6)
        .ntx_reconstruction(6)
}

/// The FlockLab testbed with its default full-network config.
pub fn flocklab_scenario() -> (Topology, ProtocolConfig) {
    let topology = Topology::flocklab();
    let config = ProtocolConfig::builder(topology.len())
        .build()
        .expect("flocklab default config is valid");
    (topology, config)
}

/// Run the bootstrap phase on `topology` at the default config and return
/// the config together with the discovered aggregator set — the setup the
/// privacy suite needs before constructing collusions.
pub fn aggregator_setup(topology: &Topology) -> (ProtocolConfig, Vec<u16>) {
    let config = ProtocolConfig::builder(topology.len())
        .build()
        .expect("default config is valid");
    let bootstrap = Bootstrap::run(topology, &config).expect("bootstrap succeeds");
    let aggregators = bootstrap.aggregators().to_vec();
    (config, aggregators)
}

/// Compare `actual` against the committed fixture `tests/golden/<name>`
/// at the workspace root, or rewrite the fixture when `GOLDEN_REGEN` is
/// set (then review the diff). Regenerating an unchanged format leaves
/// the fixture byte-identical.
///
/// # Panics
///
/// When the fixture is missing or differs from `actual`.
pub fn assert_golden(name: &str, actual: &str) {
    let path =
        std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("create the golden directory");
        std::fs::write(&path, actual).expect("write the golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "output drifted from {}; if intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
}

/// The workspace's deterministic RNG at a named seed.
pub fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from(seed)
}

/// The canonical seed of the fault-injection suites.
pub const FAULT_SEED: u64 = 0xFA17;

/// A lossy testbed's fault plan: every link PRR scaled by `1 - loss`,
/// drawn from the canonical fault seed. The standard ingredient of the
/// degraded-network suites — pair it with [`flocklab_scenario`] (or any
/// other topology/config) and the degraded execution paths.
pub fn lossy(loss: f64) -> FaultPlan {
    FaultPlan::lossy(FAULT_SEED, loss)
}

/// A lossy testbed that also drops whole nodes: link loss `loss` plus
/// per-round per-node dropout `dropout`.
pub fn lossy_dropout(loss: f64, dropout: f64) -> FaultPlan {
    lossy(loss).with_dropout(dropout)
}

/// A churning testbed's fault plan: deterministic multi-round outages
/// from `(node, from_round, until_round)` windows, no probabilistic
/// faults — drivers walk the windows as their round ids advance.
pub fn churn(windows: &[(u16, u32, u32)]) -> FaultPlan {
    FaultPlan::none().with_churn(ChurnSchedule::from_windows(windows.iter().copied()))
}

/// The lossy FlockLab scenario at one call: the testbed topology, a
/// config with `sources` evenly spread sources, and the [`lossy`] fault
/// plan at `loss` — the setup the degraded campaign suites sweep.
pub fn lossy_flocklab(sources: usize, loss: f64) -> (Topology, ProtocolConfig, FaultPlan) {
    let topology = Topology::flocklab();
    let config = ProtocolConfig::builder(topology.len())
        .sources(sources)
        .build()
        .expect("flocklab source sweep configs are valid");
    (topology, config, lossy(loss))
}

/// A compiled [`grid9`] deployment at the standard operating point
/// (degree 2, NTX 6, seed 0xD00D) — the façade-level twin of
/// [`grid9_config`] for suites that drive rounds through
/// [`RoundDriver`](ppda_mpc::RoundDriver).
pub fn grid9_deployment(kind: ProtocolKind) -> Deployment<'static> {
    Deployment::builder()
        .topology(grid9())
        .config(grid9_config().build().expect("grid9 config is valid"))
        .protocol(kind)
        .seed(0xD00D)
        .build()
        .expect("grid9 deployment compiles")
}

/// One driven round of a fresh `kind` deployment over `topology`, at the
/// config's round id and `seed` — the single-shot round the protocol
/// suites assert on. `inputs` pins the readings (lane-major per source)
/// and the failure mask; `None` draws the readings from the seed, with
/// no failures.
///
/// # Errors
///
/// Deployment compilation errors (size mismatch, disconnected topology)
/// and the round's own input errors.
pub fn drive_round(
    topology: &Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
    seed: u64,
    inputs: Option<(&[u64], &[bool])>,
) -> Result<RoundReport, MpcError> {
    let deployment = Deployment::builder()
        .topology_ref(topology)
        .config(config.clone())
        .protocol(kind)
        .build()?;
    let mut driver = deployment.driver();
    match inputs {
        Some((readings, failed)) => driver.round_at_with(config.round_id, seed, readings, failed),
        None => driver.round_at(config.round_id, seed),
    }
}

/// The [`lossy_flocklab`] scenario compiled into a deployment: the fault
/// plan is fused at build time, so every driven round runs degraded.
pub fn lossy_flocklab_deployment(sources: usize, loss: f64) -> Deployment<'static> {
    let (topology, config, faults) = lossy_flocklab(sources, loss);
    Deployment::builder()
        .topology(topology)
        .config(config)
        .protocol(ProtocolKind::S4)
        .faults(faults)
        .seed(FAULT_SEED)
        .build()
        .expect("lossy flocklab deployment compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid9_is_nine_nodes_and_stable() {
        let a = grid9();
        let b = grid9();
        assert_eq!(a.len(), 9);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn scenarios_match_testbed_sizes() {
        assert_eq!(flocklab_scenario().0.len(), 26);
    }

    #[test]
    fn aggregator_setup_is_deterministic() {
        let t = grid9();
        let (_, a) = aggregator_setup(&t);
        let (_, b) = aggregator_setup(&t);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fault_builders_are_deterministic() {
        assert_eq!(lossy(0.2), lossy(0.2));
        assert_eq!(lossy(0.2).loss, 0.2);
        assert_eq!(lossy(0.2).seed, FAULT_SEED);
        let ld = lossy_dropout(0.1, 0.05);
        assert_eq!(ld.loss, 0.1);
        assert_eq!(ld.dropout, 0.05);
        assert!(lossy(0.0).is_zero());
    }

    #[test]
    fn churn_builder_schedules_windows() {
        let plan = churn(&[(3, 5, 8), (7, 6, 7)]);
        assert!(plan.churn.is_down(3, 6));
        assert!(!plan.churn.is_down(3, 8));
        assert!(plan.churn.is_down(7, 6));
        assert_eq!(plan.loss, 0.0);
    }

    #[test]
    fn lossy_flocklab_matches_paper_sweep_point() {
        let (topology, config, faults) = lossy_flocklab(24, 0.2);
        assert_eq!(topology.len(), 26);
        assert_eq!(config.sources.len(), 24);
        assert_eq!(faults.loss, 0.2);
    }

    #[test]
    fn deployment_builders_compile_once_and_drive() {
        let deployment = grid9_deployment(ProtocolKind::S4);
        assert_eq!(deployment.topology().len(), 9);
        assert!(deployment.faults().is_zero());
        assert!(deployment.driver().step().unwrap().correct());

        let lossy = lossy_flocklab_deployment(6, 0.2);
        assert_eq!(lossy.faults().loss, 0.2);
        assert_eq!(lossy.config().sources.len(), 6);
    }
}
