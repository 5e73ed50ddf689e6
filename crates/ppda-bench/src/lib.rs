//! Experiment harnesses reproducing the paper's evaluation.
//!
//! The paper's entire evaluation is Fig. 1 — latency and radio-on time for
//! S3 vs S4, swept over source counts on FlockLab (26 nodes) and D-Cube
//! (45 nodes) — plus in-text claims (speed-up ratios, the non-linear
//! NTX-coverage relationship, fault tolerance, degree sensitivity). This
//! crate provides:
//!
//! * [`TestbedSetup`] — the frozen per-testbed operating points (topology,
//!   NTX values, fading profile, source sweep) used by every harness.
//! * [`run_campaign`] — a seed-parallel Monte-Carlo campaign runner that
//!   aggregates per-node metrics into [`CampaignResult`] summaries.
//! * Binaries (`fig1`, `ablation_ntx`, `ablation_degree`,
//!   `ablation_faults`, `chain_sizes`, `wide_batch`) that print the
//!   paper-style tables. Every column they print is simulated, and each
//!   table is pinned in `tests/golden/paper_tables/`; see `EXPERIMENTS.md`
//!   at the repository root for the recorded outputs. Host time is
//!   measured by the criterion benches (one layer each) and by perfbench
//!   (end to end, `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ppda_metrics::Summary;
use ppda_mpc::{
    FaultPlan, FaultReport, MpcError, ProtocolConfig, RecoveryStatus, RoundObserver, RoundReport,
};
use ppda_radio::FadingProfile;
use ppda_service::{CampaignEngine, ClockMode, DeploymentSpec, EngineError};
use ppda_topology::Topology;

/// Which protocol variant a campaign exercises (the plan layer's
/// [`ppda_mpc::ProtocolKind`], re-exported under the harness's
/// historical name).
pub use ppda_mpc::ProtocolKind as Protocol;

/// The frozen operating point of one testbed reproduction.
///
/// The NTX values are the outcome of the calibration recorded in
/// `EXPERIMENTS.md`: S4 uses the smallest NTX that reliably reaches the
/// aggregator set (paper: 6 on FlockLab, 5 on D-Cube; our synthetic D-Cube
/// geometry needs 7), S3 uses a full-coverage NTX with the safety margin a
/// 2000-iteration campaign requires.
#[derive(Debug, Clone)]
pub struct TestbedSetup {
    /// Testbed name (matches `Topology::name` for the built-in testbeds).
    pub name: &'static str,
    /// Builds the testbed topology (see [`TestbedSetup::topology`]).
    pub make_topology: fn() -> Topology,
    /// S4 sharing/reconstruction NTX.
    pub s4_ntx: u32,
    /// S3 full-coverage NTX.
    pub s3_ntx: u32,
    /// Aggregators beyond k+1.
    pub redundancy: usize,
    /// Round-scale fading profile of the site.
    pub fading: FadingProfile,
    /// The paper's source-count sweep for this testbed.
    pub source_sweep: Vec<usize>,
}

impl TestbedSetup {
    /// FlockLab: 26 nodes, sweep {3, 6, 10, 24}, S4 NTX 6 (as the paper).
    pub fn flocklab() -> Self {
        TestbedSetup {
            name: "flocklab",
            make_topology: Topology::flocklab,
            s4_ntx: 6,
            s3_ntx: 15,
            redundancy: 2,
            fading: FadingProfile::office(),
            source_sweep: vec![3, 6, 10, 24],
        }
    }

    /// D-Cube: 45 nodes, sweep {5, 7, 12, 45}, S4 NTX 7 (paper: 5; our
    /// synthetic geometry is one hop deeper — see EXPERIMENTS.md).
    pub fn dcube() -> Self {
        TestbedSetup {
            name: "dcube",
            make_topology: Topology::dcube,
            s4_ntx: 7,
            s3_ntx: 20,
            redundancy: 2,
            fading: FadingProfile::industrial_interference(),
            source_sweep: vec![5, 7, 12, 45],
        }
    }

    /// Look a setup up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "flocklab" => Some(Self::flocklab()),
            "dcube" => Some(Self::dcube()),
            _ => None,
        }
    }

    /// Instantiate the testbed topology.
    pub fn topology(&self) -> Topology {
        (self.make_topology)()
    }

    /// Build the protocol configuration for a given source count.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn config(&self, sources: usize) -> Result<ProtocolConfig, MpcError> {
        self.config_batched(sources, 1)
    }

    /// Build the configuration for a given source count and lane width B
    /// (each source contributes B readings per round).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn config_batched(&self, sources: usize, batch: usize) -> Result<ProtocolConfig, MpcError> {
        let topology = self.topology();
        ProtocolConfig::builder(topology.len())
            .sources(sources)
            .ntx_sharing(self.s4_ntx)
            .ntx_reconstruction(self.s4_ntx)
            .full_coverage_ntx(self.s3_ntx)
            .aggregator_redundancy(self.redundancy)
            .fading(self.fading)
            .batch(batch)
            .build()
    }

    /// [`config_batched`](Self::config_batched) with fragmentation
    /// enabled, so lane widths past the single-frame cap (B > 23 at the
    /// default tag length) compile into multi-frame chains instead of
    /// failing with [`MpcError::BatchTooWide`](ppda_mpc::MpcError).
    /// Batches that fit one frame are unaffected — the flag only changes
    /// what happens past the cap.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn config_wide(&self, sources: usize, batch: usize) -> Result<ProtocolConfig, MpcError> {
        let topology = self.topology();
        ProtocolConfig::builder(topology.len())
            .sources(sources)
            .ntx_sharing(self.s4_ntx)
            .ntx_reconstruction(self.s4_ntx)
            .full_coverage_ntx(self.s3_ntx)
            .aggregator_redundancy(self.redundancy)
            .fading(self.fading)
            .batch(batch)
            .fragmentation(true)
            .build()
    }
}

/// Aggregated results of a Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Mean per-node latency per round (ms), over nodes that completed.
    pub latency_ms: Summary,
    /// Mean per-node radio-on time per round (ms).
    pub radio_on_ms: Summary,
    /// Fraction of (node, round) pairs that obtained the correct aggregate.
    pub node_success: f64,
    /// Fraction of rounds where *every* live node was correct.
    pub round_success: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// Lane width B: aggregated values per round (1 = the paper's scalar
    /// protocol).
    pub lanes: usize,
    /// Availability: fraction of rounds whose survivor set reached the
    /// reconstruction threshold. Note that the testbed's *own* fading can
    /// push a round below full survivor coverage, so this sits slightly
    /// under 1.0 even with no injected faults (see EXPERIMENTS.md).
    pub recovery_rate: f64,
    /// Rounds that ended below the threshold (aggregation failed).
    pub rounds_failed: usize,
    /// Recovery margins of recovered rounds: spare survivors beyond the
    /// threshold.
    pub margin: Summary,
}

/// Run `iterations` seeded rounds of `protocol` and aggregate the metrics.
///
/// Built on the [`CampaignEngine`]: the
/// [`Deployment`](ppda_mpc::Deployment) (bootstrap, chain schedules,
/// cipher contexts, reconstruction weights) is compiled **once** and
/// shared by every worker thread; each worker takes a
/// [`RoundDriver`](ppda_mpc::RoundDriver) per stolen span — whose
/// scratch buffers (sealed payloads, share/sum slabs) persist across the
/// span's rounds — with a
/// [`CampaignAccumulator`](ppda_metrics::CampaignAccumulator) folding
/// each round into summary state the moment it completes. No
/// per-iteration configuration clones, no buffered outcome structures, no
/// hand-threaded metrics. (The accumulator keeps two scalars per live
/// node-round for the exact percentile summaries; that is the only state
/// growing with `iterations`.)
///
/// With `config.batch > 1` every round aggregates B values per source at
/// one round's transport cost; a node-round counts as successful only if
/// **all** B lanes reconstructed correctly. B = 1 is the paper's scalar
/// round (its driver reports are frozen byte for byte by
/// `tests/golden/driver_rounds.txt`).
///
/// Rounds are distributed over all available cores; results are
/// deterministic for a given `(base_seed, iterations)` regardless of the
/// thread count (counters are order-independent and sample summaries sort).
///
/// # Errors
///
/// * [`MpcError::InvalidConfig`] if `iterations` is zero.
/// * Plan-compilation errors (configuration mismatches, disconnected
///   topology), and the lowest-seed round error otherwise.
pub fn run_campaign(
    protocol: Protocol,
    topology: &Topology,
    config: &ProtocolConfig,
    iterations: u64,
    base_seed: u64,
) -> Result<CampaignResult, MpcError> {
    run_campaign_faulty(
        protocol,
        topology,
        config,
        iterations,
        base_seed,
        &FaultPlan::none(),
    )
}

/// [`run_campaign`] under fault injection: every round runs the driver's
/// round pipeline with `faults` (seeded link loss, dropout, delivery
/// faults) and the result additionally reports availability — recovery
/// rate, the margin distribution and the rounds that ended below the
/// reconstruction threshold.
///
/// Campaign iterations vary the *seed* at one fixed round id, so the
/// probabilistic fault draws are independent per round, but a
/// [`ChurnSchedule`](ppda_sim::ChurnSchedule) — keyed on the round id —
/// is all-or-nothing here: a window either covers `config.round_id` for
/// every iteration or none. Churn belongs to a deployment's own round
/// clock (fuse it with [`FaultPlan::with_churn`] and
/// [`step`](ppda_mpc::RoundDriver::step) a driver), whose rounds advance
/// the round id.
///
/// A zero [`FaultPlan`] is byte-identical to the fault-free campaign
/// (`run_campaign` simply delegates here), and below-threshold rounds are
/// *counted*, never turned into wrong aggregates or panics.
///
/// The campaign is a one-deployment [`CampaignEngine`] fleet in
/// [`ClockMode::SeedStripe`]: the deployment compiles once, workers
/// execute stolen spans of the seed stripe, and a round failure stops
/// the remaining workers early instead of letting them finish their
/// stripes — while the *reported* error stays the lowest-seed one, for
/// any worker count (the engine's scheduling floor guarantees every
/// round below the first failure still runs).
///
/// # Errors
///
/// Same conditions as [`run_campaign`].
pub fn run_campaign_faulty(
    protocol: Protocol,
    topology: &Topology,
    config: &ProtocolConfig,
    iterations: u64,
    base_seed: u64,
    faults: &FaultPlan,
) -> Result<CampaignResult, MpcError> {
    if iterations == 0 {
        return Err(MpcError::InvalidConfig {
            what: "campaign needs at least one iteration".into(),
        });
    }
    let spec = DeploymentSpec {
        name: format!("campaign-{}", topology.name()),
        topology: topology.clone(),
        config: config.clone(),
        protocol,
        faults: faults.clone(),
        seed: base_seed,
        // Campaign iterations vary the *seed* at one fixed round id:
        // engine round index i runs at (config.round_id, base_seed + i).
        clock: ClockMode::SeedStripe {
            round_id: config.round_id,
        },
        membership: Vec::new(),
        trickle: Default::default(),
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(iterations as usize);
    let engine = CampaignEngine::builder()
        .workers(workers)
        .deployments([spec])
        .build()?;
    engine.advance(iterations).map_err(|e| match e {
        EngineError::Round { source, .. } => source,
        other => MpcError::InvalidConfig {
            what: other.to_string(),
        },
    })?;
    let acc = engine.snapshot().merged();

    Ok(CampaignResult {
        latency_ms: acc.latency(),
        radio_on_ms: acc.radio_on(),
        node_success: acc.node_success(),
        round_success: acc.round_success(),
        rounds: acc.rounds() as usize,
        lanes: config.batch,
        recovery_rate: acc.recovery_rate(),
        rounds_failed: acc.rounds_failed() as usize,
        margin: acc.margin(),
    })
}

/// One recorded round of a [`RoundRecorder`] trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// The round id the round ran under.
    pub round_id: u32,
    /// The per-round seed.
    pub seed: u64,
    /// Whether every live node got every lane's correct aggregate.
    pub correct: bool,
    /// The round's threshold verdict.
    pub recovery: RecoveryStatus,
    /// Survivor-set size (destinations covering every live source).
    pub survivors: usize,
    /// Observed fault events.
    pub faults: FaultReport,
}

/// A per-round trace recorder: the benchmark-side [`RoundObserver`] sink.
///
/// Where [`CampaignAccumulator`](ppda_metrics::CampaignAccumulator)
/// folds rounds into summary statistics,
/// the recorder keeps one compact [`RoundRecord`] per round, in execution
/// order — the raw material for availability timelines, debugging a
/// specific seed, or printing per-round campaign traces. Both sinks can
/// be attached to the same [`RoundDriver`](ppda_mpc::RoundDriver).
///
/// # Example
///
/// ```
/// use ppda_bench::{RoundRecorder, TestbedSetup};
/// use ppda_mpc::Deployment;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let setup = TestbedSetup::flocklab();
/// let deployment = Deployment::builder()
///     .topology(setup.topology())
///     .config(setup.config(3)?)
///     .build()?;
/// let mut trace = RoundRecorder::new();
/// let mut driver = deployment.driver();
/// driver.attach(&mut trace);
/// driver.run_epoch(4)?;
/// drop(driver);
/// assert_eq!(trace.len(), 4);
/// assert_eq!(trace.recovery_rate(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundRecorder {
    rows: Vec<RoundRecord>,
}

impl RoundRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded rounds, in execution order.
    pub fn rows(&self) -> &[RoundRecord] {
        &self.rows
    }

    /// Rounds recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fraction of recorded rounds whose survivor set reached the
    /// threshold (0 when none were recorded).
    pub fn recovery_rate(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let ok = self
            .rows
            .iter()
            .filter(|r| matches!(r.recovery, RecoveryStatus::Recovered { .. }))
            .count();
        ok as f64 / self.rows.len() as f64
    }
}

impl RoundObserver for RoundRecorder {
    fn on_round(&mut self, report: &RoundReport) {
        self.rows.push(RoundRecord {
            round_id: report.round_id,
            seed: report.seed,
            correct: report.correct(),
            recovery: report.recovery(),
            survivors: report.survivors().len(),
            faults: report.degraded.faults,
        });
    }
}

/// Parse `--key value`-style arguments; returns the value following `key`.
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppda_mpc::Deployment;

    #[test]
    fn setups_resolve() {
        assert_eq!(TestbedSetup::flocklab().topology().len(), 26);
        assert_eq!(TestbedSetup::dcube().topology().len(), 45);
        assert!(TestbedSetup::by_name("flocklab").is_some());
        assert!(TestbedSetup::by_name("dcube").is_some());
        assert!(TestbedSetup::by_name("nope").is_none());
    }

    #[test]
    fn caller_built_setups_do_not_panic() {
        // Renaming a built-in setup keeps its topology.
        let lab = TestbedSetup {
            name: "lab",
            ..TestbedSetup::flocklab()
        };
        assert_eq!(lab.topology().len(), 26);
        assert_eq!(lab.config(3).unwrap().sources.len(), 3);
        // A custom network brings its own constructor.
        let grid = TestbedSetup {
            name: "grid",
            make_topology: || Topology::grid(3, 3, 18.0, 5),
            ..TestbedSetup::flocklab()
        };
        assert_eq!(grid.topology().len(), 9);
        assert_eq!(grid.config(2).unwrap().sources.len(), 2);
    }

    #[test]
    fn config_builds_for_sweep_points() {
        for setup in [TestbedSetup::flocklab(), TestbedSetup::dcube()] {
            for &s in &setup.source_sweep {
                let cfg = setup.config(s).unwrap();
                assert_eq!(cfg.sources.len(), s);
            }
        }
    }

    #[test]
    fn campaign_runs_and_is_deterministic() {
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config(3).unwrap();
        let a = run_campaign(Protocol::S4, &topology, &config, 4, 42).unwrap();
        let b = run_campaign(Protocol::S4, &topology, &config, 4, 42).unwrap();
        assert_eq!(a.latency_ms.mean(), b.latency_ms.mean());
        assert_eq!(a.rounds, 4);
        assert!(a.node_success > 0.9);
    }

    #[test]
    fn s3_slower_than_s4_on_flocklab() {
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config(24).unwrap();
        let s3 = run_campaign(Protocol::S3, &topology, &config, 3, 7).unwrap();
        let s4 = run_campaign(Protocol::S4, &topology, &config, 3, 7).unwrap();
        assert!(
            s3.latency_ms.mean() > 3.0 * s4.latency_ms.mean(),
            "S3 {} vs S4 {}",
            s3.latency_ms.mean(),
            s4.latency_ms.mean()
        );
    }

    #[test]
    fn batched_campaign_runs_and_is_deterministic() {
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config_batched(3, 8).unwrap();
        let a = run_campaign(Protocol::S4, &topology, &config, 4, 42).unwrap();
        let b = run_campaign(Protocol::S4, &topology, &config, 4, 42).unwrap();
        assert_eq!(a.latency_ms.mean(), b.latency_ms.mean());
        assert_eq!(a.lanes, 8);
        assert!(a.node_success > 0.9, "success {}", a.node_success);
    }

    #[test]
    fn scalar_campaign_reports_one_lane() {
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config(3).unwrap();
        let r = run_campaign(Protocol::S4, &topology, &config, 2, 7).unwrap();
        assert_eq!(r.lanes, 1);
    }

    #[test]
    fn faulty_campaign_reports_availability() {
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config(6).unwrap();
        let faults = FaultPlan::lossy(0xFA, 0.2);
        let a = run_campaign_faulty(Protocol::S4, &topology, &config, 6, 42, &faults).unwrap();
        let b = run_campaign_faulty(Protocol::S4, &topology, &config, 6, 42, &faults).unwrap();
        assert_eq!(a.recovery_rate, b.recovery_rate, "deterministic");
        assert_eq!(a.rounds, 6);
        assert!(a.recovery_rate > 0.0, "20% loss must not kill every round");
        assert_eq!(
            a.margin.len() + a.rounds_failed,
            6,
            "every round is either recovered (with a margin) or failed"
        );
    }

    #[test]
    fn fault_free_campaign_reports_availability_baseline() {
        // run_campaign delegates to the faulty campaign with a zero plan
        // (zero-plan rounds are frozen byte for byte by
        // tests/golden/driver_rounds.txt); here we pin the availability fields
        // a clean small campaign must report. At this operating point the
        // transport delivers every share, so recovery is exactly full —
        // larger/lossier points may dip below 1.0 from fading alone.
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config(3).unwrap();
        let result = run_campaign(Protocol::S4, &topology, &config, 4, 7).unwrap();
        assert_eq!(result.rounds_failed, 0);
        assert_eq!(result.recovery_rate, 1.0);
        assert_eq!(
            result.margin.len(),
            4,
            "every round recovered with a margin"
        );
    }

    #[test]
    fn recorder_traces_match_the_accumulator() {
        // Both sinks on one driver: the recorder's per-round rows must
        // aggregate to exactly the accumulator's counters.
        let setup = TestbedSetup::flocklab();
        let deployment = Deployment::builder()
            .topology(setup.topology())
            .config(setup.config(3).unwrap())
            .seed(0xBEE)
            .build()
            .unwrap();
        let mut trace = RoundRecorder::new();
        let mut acc = ppda_metrics::CampaignAccumulator::new();
        let mut driver = deployment.driver();
        driver.attach(&mut trace);
        driver.attach(&mut acc);
        driver.run_epoch(5).unwrap();
        drop(driver);
        assert_eq!(trace.len(), 5);
        assert_eq!(acc.rounds(), 5);
        assert_eq!(trace.recovery_rate(), acc.recovery_rate());
        let perfect = trace.rows().iter().filter(|r| r.correct).count();
        assert_eq!(perfect as f64 / 5.0, acc.round_success());
        // Rows carry the driver's advancing clock.
        let base = deployment.config().round_id;
        for (i, row) in trace.rows().iter().enumerate() {
            assert_eq!(row.round_id, base + i as u32);
        }
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--testbed", "dcube", "--iterations", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--testbed").as_deref(), Some("dcube"));
        assert_eq!(arg_value(&args, "--iterations").as_deref(), Some("5"));
        assert_eq!(arg_value(&args, "--metric"), None);
    }

    #[test]
    fn zero_iterations_is_an_error() {
        let setup = TestbedSetup::flocklab();
        let topology = setup.topology();
        let config = setup.config(3).unwrap();
        let err = run_campaign(Protocol::S4, &topology, &config, 0, 1).unwrap_err();
        assert!(matches!(err, MpcError::InvalidConfig { .. }));
        assert!(err.to_string().contains("at least one iteration"));
    }
}
