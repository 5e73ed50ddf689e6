//! The campaign engine: a fleet of independent deployments multiplexed
//! over a fixed worker pool.
//!
//! Each deployment is compiled **once** into a [`Deployment`] (plan,
//! chains, schedules, cipher contexts) and then shared read-only by every
//! worker; what gets scheduled are [`Span`]s of round indices, executed
//! by [`RoundDriver`]s that own all mutable scratch. Any driver runs any
//! round of its deployment with the bytes a fresh one gives, so a span
//! that ends cleanly parks its driver in the deployment's slot and
//! whichever span of that deployment begins next resumes it, with its
//! caches and patched plan; a span that finds the slot empty (the first,
//! the first after a restore, or one running beside another span of the
//! same deployment) builds a fresh driver. Each slot also holds the
//! deployment's one metrics accumulator, which a span locks once, at its
//! end, to merge its rounds, so [`CampaignEngine::snapshot`] can read a
//! live fleet-wide view at any time without stopping the workers.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use ppda_metrics::CampaignAccumulator;
use ppda_mpc::{
    Deployment, FaultPlan, MembershipEvent, MpcError, ParkedDriver, ProtocolConfig, ProtocolKind,
    RoundDriver, RoundObserver, RoundReport, TrickleConfig,
};
use ppda_topology::Topology;

use crate::scheduler::{list_spans, run_spans, SpanRunner};

/// How a deployment's round index maps to `(round_id, seed)` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// The sequential epoch clock: round `i` runs exactly the coordinates
    /// a fresh [`RoundDriver`]'s `i`-th step would use (advancing round
    /// id, per-round seed derived from the deployment seed). The engine's
    /// out-of-order execution is byte-identical to driving the deployment
    /// single-threaded.
    Epoch,
    /// A fixed round id with seeds striped `seed + i` — the classic
    /// Monte-Carlo campaign layout of `ppda-bench`'s `run_campaign`.
    SeedStripe {
        /// The round id every iteration runs under.
        round_id: u32,
    },
}

/// Everything needed to (re)compile and clock one deployment of the
/// fleet. Plain data: checkpoints serialize exactly this (plus the round
/// clock and accumulated metrics).
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Human-readable label, surfaced in snapshots and errors.
    pub name: String,
    /// The network the deployment runs on.
    pub topology: Topology,
    /// Per-round protocol configuration.
    pub config: ProtocolConfig,
    /// Protocol variant to compile.
    pub protocol: ProtocolKind,
    /// Fault model applied to every round.
    pub faults: FaultPlan,
    /// Base seed of the deployment's round clock.
    pub seed: u64,
    /// Round-index → coordinate mapping.
    pub clock: ClockMode,
    /// Live membership events (joins, leaves, crashes, rejoins) the
    /// deployment experiences; empty for a static membership. Non-empty
    /// streams make the deployment's driver membership-driven: it patches
    /// its own plan as the compiled deltas come due, and keeps that plan
    /// from span to span (see
    /// [`DeploymentBuilder::membership`](ppda_mpc::DeploymentBuilder::membership)).
    pub membership: Vec<MembershipEvent>,
    /// Trickle timer parameters governing membership dissemination.
    pub trickle: TrickleConfig,
}

impl DeploymentSpec {
    /// A spec with the same defaults as [`Deployment::builder`]: S4, no
    /// faults, seed 0, and the sequential [`ClockMode::Epoch`] clock.
    pub fn new(name: impl Into<String>, topology: Topology, config: ProtocolConfig) -> Self {
        DeploymentSpec {
            name: name.into(),
            topology,
            config,
            protocol: ProtocolKind::S4,
            faults: FaultPlan::none(),
            seed: 0,
            clock: ClockMode::Epoch,
            membership: Vec::new(),
            trickle: TrickleConfig::default(),
        }
    }

    /// The `(round_id, seed)` coordinates of round `index` under this
    /// spec's clock.
    pub fn coordinates(&self, index: u64) -> (u32, u64) {
        match self.clock {
            ClockMode::Epoch => {
                let round_id = self.config.round_id.wrapping_add(index as u32);
                (round_id, ppda_sim::derive_stream(self.seed, index))
            }
            ClockMode::SeedStripe { round_id } => (round_id, self.seed.wrapping_add(index)),
        }
    }
}

/// A compiled deployment slot: the shared read-only plan plus its live
/// round-clock position, parked driver and metrics.
struct Slot {
    spec: DeploymentSpec,
    deployment: Deployment<'static>,
    /// Rounds completed across all advances (the next round index while
    /// the engine is healthy; see [`CampaignEngine::advance`] on errors).
    completed: AtomicU64,
    /// The driver the latest clean span left, for the next span to take.
    parked: Mutex<Option<ParkedDriver>>,
    /// Every completed round's metrics, merged once per span.
    metrics: Mutex<CampaignAccumulator>,
}

/// A round of one deployment failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A deployment's round returned an error. With concurrent workers
    /// the reported round is deterministic: the failing round with the
    /// lowest round index (ties broken by lowest deployment id),
    /// regardless of worker count or of which worker ran which span.
    Round {
        /// Slot index of the deployment.
        deployment: usize,
        /// The deployment's name.
        name: String,
        /// The failing round's index on the deployment's clock.
        round_index: u64,
        /// The underlying round error.
        source: MpcError,
    },
    /// A previous `advance` errored part-way: per-deployment round
    /// streams may have holes, so the engine refuses further work (and
    /// checkpoints). Snapshots remain available for post-mortem.
    Tainted,
    /// An advance would push a deployment's round index past `u32::MAX`,
    /// the scheduler's per-round key budget.
    RoundIndexOverflow {
        /// Slot index of the deployment.
        deployment: usize,
        /// The index that would have been exceeded.
        index: u64,
    },
    /// Worker code panicked while running a round. The panic was caught
    /// at the span boundary — the rest of the fleet's spans kept running,
    /// and the pool shut down cleanly — and it fails its round like a
    /// round error: of all failing rounds, errors and panics alike, the
    /// one with the lowest `(round index, deployment)` key is reported,
    /// deterministically for any worker count. The engine is tainted
    /// afterwards.
    WorkerPanicked {
        /// Slot index of the deployment whose round panicked.
        deployment: usize,
        /// The deployment's name.
        name: String,
        /// The round index being attempted when the panic unwound.
        round_index: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Round {
                deployment,
                name,
                round_index,
                source,
            } => write!(
                f,
                "deployment {deployment} ({name}) failed at round index {round_index}: {source}"
            ),
            EngineError::Tainted => {
                write!(f, "engine is tainted by an earlier failed advance")
            }
            EngineError::RoundIndexOverflow { deployment, index } => write!(
                f,
                "deployment {deployment} round index {index} exceeds the scheduler budget"
            ),
            EngineError::WorkerPanicked {
                deployment,
                name,
                round_index,
                message,
            } => write!(
                f,
                "worker panicked running deployment {deployment} ({name}) at round index \
                 {round_index}: {message}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Round { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Tallies of one [`CampaignEngine::advance`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct AdvanceStats {
    /// Rounds executed in this advance (across all deployments).
    pub rounds: u64,
    /// Always 0: workers take spans from one shared list, so no span is
    /// stolen. It stays only because perfbench's traced fleet still reads
    /// it.
    pub steals: u64,
    /// Rounds executed per worker, indexed by worker.
    pub per_worker: Vec<u64>,
    /// Spans that resumed the driver an earlier span of their deployment
    /// parked, instead of building a fresh one: every span but the
    /// deployment's first, the first after a restore and one that starts
    /// while another span of the deployment is running.
    pub resumed: u64,
}

/// Frozen per-deployment view of the fleet's progress and metrics.
#[derive(Debug, Clone)]
pub struct DeploymentSnapshot {
    /// The deployment's name.
    pub name: String,
    /// Rounds completed so far.
    pub completed: u64,
    /// All metrics accumulated so far.
    pub metrics: CampaignAccumulator,
}

/// A point-in-time copy of every deployment's metrics. Taken without
/// stopping the workers: progress made while the snapshot walks the
/// slots may or may not be included, but never double-counted.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    deployments: Vec<DeploymentSnapshot>,
}

impl FleetSnapshot {
    /// Per-deployment snapshots, in slot order.
    pub fn deployments(&self) -> &[DeploymentSnapshot] {
        &self.deployments
    }

    /// Total rounds completed across the fleet.
    pub fn total_rounds(&self) -> u64 {
        self.deployments.iter().map(|d| d.completed).sum()
    }

    /// One accumulator over the whole fleet.
    pub fn merged(&self) -> CampaignAccumulator {
        let mut all = CampaignAccumulator::new();
        for d in &self.deployments {
            all.absorb(&d.metrics);
        }
        all
    }
}

/// The largest worker pool an engine runs. Each worker is one OS thread
/// per advance (workers hold no state between advances), so
/// [`CampaignEngineBuilder::workers`] clamps to this ceiling, and a
/// checkpoint naming more workers does not restore.
pub const MAX_WORKERS: usize = 1024;

/// Builds a [`CampaignEngine`], compiling every spec once.
#[derive(Debug, Default)]
pub struct CampaignEngineBuilder {
    workers: Option<usize>,
    chunk: u64,
    specs: Vec<DeploymentSpec>,
    panic_probe: Option<(u32, u64)>,
}

impl CampaignEngineBuilder {
    /// Fixed worker-pool size (default: the host's available
    /// parallelism). Clamped to `1..=`[`MAX_WORKERS`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.clamp(1, MAX_WORKERS));
        self
    }

    /// Rounds per scheduled span (default 32). Smaller spans balance the
    /// workers at finer grain; larger spans lock the deployment's parked
    /// driver and metrics fewer times per round. A deployment's next span
    /// is taken only after every other deployment's span of the same
    /// rank, so in a fleet it usually resumes the driver its previous span
    /// parked; a lone deployment's spans run side by side on several
    /// workers, and each that finds no parked driver builds one. Results
    /// do not depend on it. Clamped to at least 1.
    pub fn chunk(mut self, rounds: u64) -> Self {
        self.chunk = rounds.max(1);
        self
    }

    /// Add one deployment to the fleet.
    pub fn deployment(mut self, spec: DeploymentSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Add a batch of deployments to the fleet.
    pub fn deployments(mut self, specs: impl IntoIterator<Item = DeploymentSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Test hook: panic inside the worker pool when round `index` of
    /// deployment `dep` is executed. The panic-containment regression
    /// suite uses this to prove a panicking round surfaces as
    /// [`EngineError::WorkerPanicked`] instead of tearing the pool down.
    #[doc(hidden)]
    pub fn panic_probe(mut self, dep: u32, index: u64) -> Self {
        self.panic_probe = Some((dep, index));
        self
    }

    /// Compile every spec and assemble the engine.
    ///
    /// # Errors
    ///
    /// The first spec whose configuration fails to compile
    /// (see [`Deployment::builder`]).
    pub fn build(self) -> Result<CampaignEngine, MpcError> {
        assert!(
            self.specs.len() <= u32::MAX as usize,
            "the scheduler keys deployments as u32"
        );
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_WORKERS))
                .unwrap_or(1)
        });
        let chunk = if self.chunk == 0 { 32 } else { self.chunk };
        let mut slots = Vec::with_capacity(self.specs.len());
        for spec in self.specs {
            let mut builder = Deployment::builder()
                .topology(spec.topology.clone())
                .config(spec.config.clone())
                .protocol(spec.protocol)
                .faults(spec.faults.clone())
                .seed(spec.seed);
            if !spec.membership.is_empty() {
                builder = builder
                    .membership(spec.membership.clone())
                    .trickle(spec.trickle);
            }
            let deployment = builder.build()?;
            slots.push(Slot {
                spec,
                deployment,
                completed: AtomicU64::new(0),
                parked: Mutex::new(None),
                metrics: Mutex::new(CampaignAccumulator::new()),
            });
        }
        Ok(CampaignEngine {
            slots,
            workers,
            chunk,
            gate: Mutex::new(()),
            tainted: AtomicBool::new(false),
            panic_probe: self.panic_probe,
        })
    }
}

/// A long-running multi-deployment campaign engine.
///
/// See the [crate docs](crate) for the execution model and a full
/// example; the short version:
///
/// 1. describe each deployment as a [`DeploymentSpec`];
/// 2. [`builder`](CampaignEngine::builder) → [`CampaignEngineBuilder::build`]
///    compiles every spec once;
/// 3. [`advance`](CampaignEngine::advance) runs `n` more rounds of
///    *every* deployment over the worker pool;
/// 4. [`snapshot`](CampaignEngine::snapshot) merges fleet-wide metrics at
///    any time, even mid-advance.
pub struct CampaignEngine {
    slots: Vec<Slot>,
    workers: usize,
    chunk: u64,
    /// Serializes advances (the round clocks move once per advance).
    gate: Mutex<()>,
    tainted: AtomicBool,
    /// Test hook: `(dep, index)` whose round panics inside the pool.
    panic_probe: Option<(u32, u64)>,
}

impl fmt::Debug for CampaignEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignEngine")
            .field("deployments", &self.slots.len())
            .field("workers", &self.workers)
            .field("chunk", &self.chunk)
            .field("tainted", &self.tainted.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CampaignEngine {
    /// Start building an engine.
    pub fn builder() -> CampaignEngineBuilder {
        CampaignEngineBuilder::default()
    }

    /// Number of deployments in the fleet.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The fixed worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Rounds per scheduled span.
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// The spec of deployment `dep`.
    pub fn spec(&self, dep: usize) -> &DeploymentSpec {
        &self.slots[dep].spec
    }

    /// Rounds deployment `dep` has completed so far (live gauge).
    pub fn completed(&self, dep: usize) -> u64 {
        self.slots[dep].completed.load(Ordering::Relaxed)
    }

    /// Whether an earlier advance errored part-way (the engine then
    /// refuses further advances and checkpoints).
    pub fn is_tainted(&self) -> bool {
        self.tainted.load(Ordering::Relaxed)
    }

    /// Run `rounds` more rounds of **every** deployment over the worker
    /// pool. The rounds are cut into spans of [`chunk`](Self::chunk)
    /// rounds and listed once, span index major: every deployment's first
    /// span, then every deployment's second, and so on. Each worker takes
    /// the next listed span whenever it finishes one; one worker runs
    /// them in list order.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Round`] or [`EngineError::WorkerPanicked`] — a
    ///   deployment's round returned an error or panicked. The scheduler
    ///   stops scheduling rounds past the failure and surfaces the failing
    ///   round with the lowest `(round index, deployment)` key —
    ///   deterministic for any worker count. The engine is tainted
    ///   afterwards.
    /// * [`EngineError::Tainted`] — a previous advance failed.
    /// * [`EngineError::RoundIndexOverflow`] — a deployment's clock would
    ///   pass `u32::MAX` rounds.
    pub fn advance(&self, rounds: u64) -> Result<AdvanceStats, EngineError> {
        self.advance_inner(rounds, None)
    }

    /// [`advance`](CampaignEngine::advance), additionally returning every
    /// executed round's [`RoundReport`] grouped by deployment and ordered
    /// by round index. Differential suites use this to prove the engine's
    /// streams byte-identical to single-threaded drivers; it buffers
    /// every report, so prefer `advance` for real campaigns.
    ///
    /// # Errors
    ///
    /// See [`advance`](CampaignEngine::advance).
    pub fn advance_recorded(&self, rounds: u64) -> Result<Vec<Vec<RoundReport>>, EngineError> {
        let recorder = Mutex::new(Vec::new());
        self.advance_inner(rounds, Some(&recorder))?;
        let mut recorded = recorder.into_inner().expect("recorder poisoned");
        recorded.sort_by_key(|&(dep, index, _)| (dep, index));
        let mut per_dep: Vec<Vec<RoundReport>> =
            (0..self.slots.len()).map(|_| Vec::new()).collect();
        for (dep, _, report) in recorded {
            per_dep[dep as usize].push(report);
        }
        Ok(per_dep)
    }

    fn advance_inner(
        &self,
        rounds: u64,
        recorder: Option<&RoundRecorder>,
    ) -> Result<AdvanceStats, EngineError> {
        let _gate = self.gate.lock().expect("advance gate poisoned");
        if self.is_tainted() {
            return Err(EngineError::Tainted);
        }

        let bases: Vec<u64> = self
            .slots
            .iter()
            .map(|slot| slot.completed.load(Ordering::Relaxed))
            .collect();
        let end = |dep: usize| bases[dep].saturating_add(rounds);
        if let Some(dep) = (0..bases.len()).find(|&dep| end(dep) > u32::MAX as u64) {
            return Err(EngineError::RoundIndexOverflow {
                deployment: dep,
                index: end(dep),
            });
        }

        let runner = EngineRunner {
            engine: self,
            recorder,
            resumed: AtomicU64::new(0),
        };
        let spans = list_spans(&bases, rounds, self.chunk);
        let outcome = run_spans(&spans, self.workers, &runner);
        if let Some(error) = outcome.error {
            self.tainted.store(true, Ordering::Relaxed);
            return Err(error);
        }
        Ok(AdvanceStats {
            rounds: outcome.per_worker.iter().sum(),
            steals: 0,
            per_worker: outcome.per_worker,
            resumed: runner.resumed.into_inner(),
        })
    }

    /// Copy a point-in-time fleet-wide view of progress and metrics.
    /// Never blocks the round loop: workers only hold a slot's metrics
    /// lock for the brief per-span merge, and this walks the slots one at
    /// a time.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            deployments: self
                .slots
                .iter()
                .map(|slot| DeploymentSnapshot {
                    name: slot.spec.name.clone(),
                    completed: slot.completed.load(Ordering::Relaxed),
                    metrics: slot.metrics.lock().expect("metrics poisoned").clone(),
                })
                .collect(),
        }
    }

    /// Internal: quiesced views for checkpointing (spec, completed,
    /// metrics per deployment). Takes the advance gate so the counters
    /// and metrics are stable while encoding.
    #[cfg(feature = "serde")]
    pub(crate) fn quiesced_state(
        &self,
    ) -> Result<Vec<(DeploymentSpec, u64, CampaignAccumulator)>, EngineError> {
        let _gate = self.gate.lock().expect("advance gate poisoned");
        if self.is_tainted() {
            return Err(EngineError::Tainted);
        }
        let snapshot = self.snapshot();
        Ok(self
            .slots
            .iter()
            .zip(snapshot.deployments)
            .map(|(slot, d)| (slot.spec.clone(), d.completed, d.metrics))
            .collect())
    }

    /// Internal: seed a freshly-built engine with restored state.
    #[cfg(feature = "serde")]
    pub(crate) fn restore_progress(
        &mut self,
        progress: impl IntoIterator<Item = (u64, CampaignAccumulator)>,
    ) {
        for (slot, (completed, metrics)) in self.slots.iter_mut().zip(progress) {
            *slot.completed.get_mut() = completed;
            *slot.metrics.get_mut().expect("metrics poisoned") = metrics;
        }
    }
}

/// Shared sink for recorded rounds: `(deployment, round index, report)`
/// triples, sorted after the run.
type RoundRecorder = Mutex<Vec<(u32, u64, RoundReport)>>;

/// The [`SpanRunner`] that executes engine spans: the deployment's
/// parked driver when there is one (else a fresh one) and a span-local
/// accumulator per span, merged into the deployment's metrics once at
/// span end, where the driver is parked again.
struct EngineRunner<'e> {
    engine: &'e CampaignEngine,
    recorder: Option<&'e RoundRecorder>,
    /// Spans that resumed a parked driver.
    resumed: AtomicU64,
}

struct SpanState<'d> {
    driver: RoundDriver<'d>,
    /// Whether a round of the span failed, so the driver is not parked.
    failed: bool,
    acc: CampaignAccumulator,
    recorded: Vec<(u32, u64, RoundReport)>,
}

impl<'e> SpanRunner for EngineRunner<'e> {
    type State = SpanState<'e>;
    type Error = EngineError;

    fn begin(&self, dep: u32) -> SpanState<'e> {
        let slot = &self.engine.slots[dep as usize];
        let parked = slot
            .parked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let driver = match parked {
            Some(parked) => {
                self.resumed.fetch_add(1, Ordering::Relaxed);
                slot.deployment.resume(parked)
            }
            None => slot.deployment.driver(),
        };
        SpanState {
            driver,
            failed: false,
            acc: CampaignAccumulator::new(),
            recorded: Vec::new(),
        }
    }

    fn round(&self, state: &mut SpanState<'e>, dep: u32, index: u64) -> Result<(), EngineError> {
        if self.engine.panic_probe == Some((dep, index)) {
            panic!("synthetic worker panic (probe at deployment {dep}, round index {index})");
        }
        let slot = &self.engine.slots[dep as usize];
        let (round_id, seed) = slot.spec.coordinates(index);
        let report = state.driver.round_at(round_id, seed).map_err(|source| {
            state.failed = true;
            EngineError::Round {
                deployment: dep as usize,
                name: slot.spec.name.clone(),
                round_index: index,
                source,
            }
        })?;
        state.acc.on_round(&report);
        slot.completed.fetch_add(1, Ordering::Relaxed);
        if self.recorder.is_some() {
            state.recorded.push((dep, index, report));
        }
        Ok(())
    }

    fn finish(&self, dep: u32, state: SpanState<'e>) {
        let slot = &self.engine.slots[dep as usize];
        slot.metrics
            .lock()
            .expect("metrics poisoned")
            .merge(state.acc);
        if let Some(recorder) = self.recorder {
            if !state.recorded.is_empty() {
                recorder
                    .lock()
                    .expect("recorder poisoned")
                    .extend(state.recorded);
            }
        }
        if !state.failed {
            *slot.parked.lock().unwrap_or_else(PoisonError::into_inner) = Some(state.driver.park());
        }
    }

    fn panicked(&self, dep: u32, index: u64, message: String) -> EngineError {
        EngineError::WorkerPanicked {
            deployment: dep as usize,
            name: self.engine.slots[dep as usize].spec.name.clone(),
            round_index: index,
            message,
        }
    }
}
