//! The execution façade: [`Deployment`] + [`RoundDriver`], the only way
//! an aggregation round runs.
//!
//! * [`Deployment`] fuses everything deployment-scoped — a
//!   [`Topology`], a [`ProtocolConfig`], a [`ProtocolKind`], a
//!   [`FaultPlan`] (with its [`ChurnSchedule`](ppda_sim::ChurnSchedule)), a
//!   [`TamperPlan`] and an optional membership event stream — and
//!   compiles the [`RoundPlan`] exactly once at
//!   [`build`](DeploymentBuilder::build) time.
//! * [`RoundDriver`] streams rounds over the compiled plan:
//!   [`step`](RoundDriver::step) advances the deployment's epoch clock one
//!   round, [`run_epoch`](RoundDriver::run_epoch) drives `n` rounds, and
//!   the `Iterator` impl yields rounds forever (`driver.take(n)`).
//!   Every round runs the **same** internal path — the zero fault and
//!   tamper plans are simply the defaults — so plain vs degraded and
//!   scalar vs batched are not different APIs: each round yields one
//!   [`RoundReport`] carrying the lane aggregates, the survivor set, the
//!   [`RecoveryStatus`](crate::RecoveryStatus) verdict and the round's
//!   transport statistics.
//! * [`RoundObserver`] is the metrics sink contract: observers
//!   [`attach`](RoundDriver::attach) to a driver and see every completed
//!   round, so accumulators (e.g.
//!   `ppda_metrics::CampaignAccumulator`) subscribe instead of being
//!   hand-threaded through every harness.
//!
//! Campaign fan-out works by sharing one `Deployment` across worker
//! threads: the deployment is immutable (`Sync`), and each worker takes
//! its own driver (owning the per-round scratch buffers) via
//! [`Deployment::driver`].
//!
//! # Determinism
//!
//! A driver's automatic clock replays exactly: round r runs at
//! `config.round_id + r` with per-round seed `derive_stream(base_seed, r)`,
//! so CCM nonces and share randomness never repeat across epochs. The
//! explicit [`round_at`](RoundDriver::round_at) escape hatch pins both
//! coordinates; `tests/golden/driver_rounds.txt` freezes the driver's
//! reports at the coordinates the paper's single-shot rounds used.

use std::borrow::Cow;
use std::fmt;

use ppda_ct::FaultPlan;
use ppda_integrity::TamperPlan;
use ppda_sim::{derive_stream, MembershipEvent, TrickleConfig};
use ppda_topology::Topology;

use crate::config::ProtocolConfig;
use crate::error::MpcError;
use crate::execute::{readings_into, ExecState};
use crate::membership::{MembershipDelta, MembershipTimeline, PlanPatch};
use crate::outcome::RoundReport;
use crate::plan::{ProtocolKind, RoundPlan};

/// A sink for completed rounds: attach one (or several) to a
/// [`RoundDriver`] and it sees every [`RoundReport`] the moment the round
/// finishes — the subscription contract metrics accumulators implement so
/// harnesses stop hand-threading outcome fields.
///
/// `&mut T` implements the trait whenever `T` does, so an observer can be
/// attached by mutable borrow and read back after the driver is dropped.
///
/// # Example
///
/// ```
/// use ppda_mpc::{Deployment, ProtocolConfig, RoundObserver, RoundReport};
/// use ppda_topology::Topology;
///
/// #[derive(Default)]
/// struct Recovered(u64);
/// impl RoundObserver for Recovered {
///     fn on_round(&mut self, report: &RoundReport) {
///         self.0 += u64::from(report.recovered());
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::flocklab();
/// let config = ProtocolConfig::builder(topology.len()).sources(6).build()?;
/// let deployment = Deployment::builder()
///     .topology(topology)
///     .config(config)
///     .build()?;
/// let mut counter = Recovered::default();
/// let mut driver = deployment.driver();
/// driver.attach(&mut counter);
/// driver.run_epoch(3)?;
/// drop(driver);
/// assert_eq!(counter.0, 3);
/// # Ok(())
/// # }
/// ```
pub trait RoundObserver {
    /// Called once per completed round, in execution order.
    fn on_round(&mut self, report: &RoundReport);
}

impl<T: RoundObserver + ?Sized> RoundObserver for &mut T {
    fn on_round(&mut self, report: &RoundReport) {
        (**self).on_round(report);
    }
}

/// Cumulative statistics of a [`RoundDriver`].
///
/// Every round counts toward the recovery tally — a fault-free round is
/// simply one that recovered with full margin — so availability is always
/// observable.
///
/// # Example
///
/// ```
/// use ppda_mpc::{Deployment, DriverStats, ProtocolConfig};
/// use ppda_topology::Topology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::flocklab();
/// let config = ProtocolConfig::builder(topology.len()).sources(6).build()?;
/// let deployment = Deployment::builder().topology(topology).config(config).build()?;
/// let mut driver = deployment.driver();
/// let epoch: DriverStats = driver.run_epoch(2)?;
/// assert_eq!(epoch.rounds, 2);
/// assert_eq!(driver.stats(), epoch);
/// assert_eq!(epoch.recovery_rate(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverStats {
    /// Rounds executed so far.
    pub rounds: u64,
    /// Rounds where every live node got every lane's correct aggregate.
    pub perfect_rounds: u64,
    /// Rounds whose survivor set reached the reconstruction threshold.
    pub recovered_rounds: u64,
    /// Rounds that ended below the threshold (aggregation failed).
    pub failed_rounds: u64,
    /// Total scheduled air-time across rounds (ms).
    pub total_schedule_ms: f64,
    /// Mean per-node radio energy accumulated across rounds (mJ).
    pub total_energy_mj: f64,
    /// Gauge: distinct survivor masks memoized in the driver's Lagrange
    /// weight cache after the last recorded round (bounded by the cache's
    /// capacity; see [`ppda_sss::WeightCache`]).
    pub weight_cache_masks: usize,
    /// Cumulative entries evicted from that cache to stay within its
    /// capacity — nonzero means the campaign churned through more survivor
    /// patterns than the cache retains.
    pub weight_cache_evictions: u64,
    /// Rounds that began by patching the plan for a membership change
    /// (one per patched round, however many deltas the round absorbed;
    /// see [`RoundReport::membership_patch`]). Always 0 for deployments
    /// without a membership event stream.
    pub plan_patches: u64,
    /// Rounds whose sum audit actually ran (the config enabled integrity
    /// and at least `t+1` usable sum shares survived). Always 0 with
    /// integrity off.
    pub audited_rounds: u64,
    /// Audited rounds whose verdict was
    /// [`IntegrityVerdict::Tampered`](crate::IntegrityVerdict::Tampered):
    /// some aggregator's reported sums disagreed with the audit's
    /// recomputation.
    pub tampered_rounds: u64,
}

impl DriverStats {
    fn record(&mut self, report: &RoundReport) {
        self.rounds += 1;
        if report.correct() {
            self.perfect_rounds += 1;
        }
        if report.recovered() {
            self.recovered_rounds += 1;
        } else {
            self.failed_rounds += 1;
        }
        self.total_schedule_ms += report.outcome.scheduled_round_ms();
        self.total_energy_mj += report.outcome.mean_energy_mj();
        if report.patch.is_some() {
            self.plan_patches += 1;
        }
        match report.integrity() {
            crate::IntegrityVerdict::Unchecked => {}
            crate::IntegrityVerdict::Verified => self.audited_rounds += 1,
            crate::IntegrityVerdict::Tampered { .. } => {
                self.audited_rounds += 1;
                self.tampered_rounds += 1;
            }
        }
    }

    /// Fraction of rounds whose survivor set reached the threshold
    /// (0 when no rounds ran).
    pub fn recovery_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.recovered_rounds as f64 / self.rounds as f64
        }
    }
}

/// How a membership-driven [`RoundDriver`] keeps its plan current as
/// compiled [`MembershipDelta`]s come due.
///
/// # Example
///
/// ```
/// use ppda_mpc::MembershipMode;
/// // Patching is the production default; the recompile oracle exists
/// // for differential testing.
/// assert_eq!(MembershipMode::default(), MembershipMode::Patch);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MembershipMode {
    /// Incrementally patch the compiled plan ([`RoundPlan::apply`]):
    /// destinations are re-elected from the retained centrality ranking,
    /// the sharing chain is re-spliced and surviving AES-CCM contexts are
    /// reused — the `n²` pairwise keys and hop sweeps never re-run. The
    /// production path.
    #[default]
    Patch,
    /// Recompile the entire plan from scratch for every delta
    /// ([`RoundPlan::new_with_membership`]), full bootstrap included.
    /// This is the reference oracle the differential suite drives against
    /// [`MembershipMode::Patch`]: both modes must produce byte-identical
    /// round reports.
    Recompile,
}

/// Where a driver's plan lives: borrowed from the deployment (static
/// membership — the common case, zero-copy fan-out) or owned together
/// with the walk along the membership timeline, so deltas can patch it
/// in place.
#[derive(Debug)]
enum DriverPlan<'d> {
    Shared(&'d RoundPlan<'d>),
    Owned {
        plan: Box<RoundPlan<'static>>,
        cursor: MembershipCursor,
    },
}

impl DriverPlan<'_> {
    fn get(&self) -> &RoundPlan<'_> {
        match self {
            DriverPlan::Shared(plan) => plan,
            DriverPlan::Owned { plan, .. } => plan,
        }
    }
}

/// A driver's walk along its deployment's compiled membership timeline.
#[derive(Debug)]
struct MembershipCursor {
    timeline: MembershipTimeline,
    /// Index of the next unapplied delta.
    next: usize,
    /// Highest round id this driver has executed (or tried to): once the
    /// plan is patched past a round, earlier rounds are unreachable.
    floor: Option<u32>,
}

/// Builder for a [`Deployment`] (see [`Deployment::builder`]).
///
/// # Example
///
/// ```
/// use ppda_mpc::{DeploymentBuilder, Deployment, FaultPlan, ProtocolConfig, ProtocolKind};
/// use ppda_topology::Topology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::dcube();
/// let config = ProtocolConfig::builder(topology.len())
///     .sources(7)
///     .ntx_sharing(7)
///     .ntx_reconstruction(7)
///     .build()?;
/// let deployment: Deployment = Deployment::builder()
///     .topology(topology)
///     .config(config)
///     .protocol(ProtocolKind::S4)
///     .faults(FaultPlan::lossy(0xFA, 0.1))
///     .seed(0xD0)
///     .build()?;
/// assert!(deployment.driver().step()?.recovered());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeploymentBuilder<'t> {
    topology: Option<Cow<'t, Topology>>,
    config: Option<ProtocolConfig>,
    protocol: ProtocolKind,
    faults: FaultPlan,
    tamper: TamperPlan,
    seed: u64,
    membership: Option<Vec<MembershipEvent>>,
    trickle: TrickleConfig,
    mode: MembershipMode,
}

impl<'t> DeploymentBuilder<'t> {
    /// Deployment topology, owned (long-lived deployments).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(Cow::Owned(topology));
        self
    }

    /// Deployment topology by reference (zero-copy campaign fan-out; the
    /// deployment then borrows it for its lifetime).
    #[must_use]
    pub fn topology_ref(mut self, topology: &'t Topology) -> Self {
        self.topology = Some(Cow::Borrowed(topology));
        self
    }

    /// The per-round protocol configuration.
    #[must_use]
    pub fn config(mut self, config: ProtocolConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Protocol variant to compile (default: [`ProtocolKind::S4`]).
    #[must_use]
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Fault model every driven round runs under (default:
    /// [`FaultPlan::none`], which is byte-identical to fault-free
    /// execution). Scheduled multi-round outages ride in the plan
    /// ([`FaultPlan::with_churn`]): drivers walk the windows as their
    /// round ids advance.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Cheating-aggregator model every driven round runs under (default:
    /// [`TamperPlan::none`], which is byte-identical to honest
    /// execution). Combine with
    /// [`ProtocolConfigBuilder::integrity`](crate::ProtocolConfigBuilder::integrity)
    /// so the sum audit catches the injected forgeries; with integrity
    /// off, tampering silently corrupts aggregates.
    #[must_use]
    pub fn tamper(mut self, tamper: TamperPlan) -> Self {
        self.tamper = tamper;
        self
    }

    /// Base seed of the deployment's automatic round clock (round r draws
    /// per-round seed `derive_stream(seed, r)`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Live membership events the deployment experiences (joins, leaves,
    /// crashes, rejoins). Setting this — even to an empty stream — turns
    /// every driver into a membership-driven one: at
    /// [`build`](DeploymentBuilder::build) time the events are compiled
    /// into a [`MembershipTimeline`] (Trickle dissemination delay and
    /// crash-detection lag folded in), and drivers patch their plan
    /// incrementally as the compiled deltas come due.
    #[must_use]
    pub fn membership(mut self, events: Vec<MembershipEvent>) -> Self {
        self.membership = Some(events);
        self
    }

    /// Trickle timer parameters governing how fast membership events
    /// disseminate (default: [`TrickleConfig::default`]). Only meaningful
    /// together with [`membership`](DeploymentBuilder::membership).
    #[must_use]
    pub fn trickle(mut self, trickle: TrickleConfig) -> Self {
        self.trickle = trickle;
        self
    }

    /// How membership-driven drivers keep their plan current (default:
    /// [`MembershipMode::Patch`]). [`MembershipMode::Recompile`] is the
    /// slow reference oracle for differential testing.
    #[must_use]
    pub fn membership_mode(mut self, mode: MembershipMode) -> Self {
        self.mode = mode;
        self
    }

    /// Compile the deployment: run the bootstrap and build the
    /// [`RoundPlan`] once, for arbitrarily many rounds and drivers.
    ///
    /// # Errors
    ///
    /// * [`MpcError::InvalidConfig`] if no topology or configuration was
    ///   supplied, a chain constraint is violated, a fault or tamper
    ///   probability is NaN or outside `[0, 1]`, or the fault plan's extra
    ///   attenuation is not finite.
    /// * [`MpcError::InputMismatch`] if the topology size differs from the
    ///   configured one.
    /// * [`MpcError::TopologyDisconnected`] if the network is not
    ///   connected at the configured link threshold.
    /// * [`MpcError::MembershipExhausted`] if the membership events leave
    ///   no live destination at the deployment's first round, and
    ///   [`MpcError::InputMismatch`] if one names a node outside the
    ///   deployment.
    pub fn build(self) -> Result<Deployment<'t>, MpcError> {
        let topology = self.topology.ok_or_else(|| MpcError::InvalidConfig {
            what: "deployment needs a topology (DeploymentBuilder::topology)".into(),
        })?;
        let config = self.config.ok_or_else(|| MpcError::InvalidConfig {
            what: "deployment needs a configuration (DeploymentBuilder::config)".into(),
        })?;
        validate_plans(&self.faults, &self.tamper)?;
        let plan = match topology {
            Cow::Borrowed(t) => RoundPlan::new(t, &config, self.protocol)?,
            Cow::Owned(t) => RoundPlan::new_owned(t, config, self.protocol)?,
        };
        let (timeline, churn_plan) = match &self.membership {
            None => (None, None),
            Some(events) => {
                let timeline = MembershipTimeline::compile(
                    plan.bootstrap(),
                    plan.config(),
                    events,
                    &self.trickle,
                    self.seed,
                )?;
                // Bring the plan to the timeline's *initial* view once,
                // here, so Deployment::driver stays infallible. Each mode
                // gets there through its own machinery — the differential
                // suite covers the initial view for free.
                let initial = timeline.initial().to_vec();
                let owned = match self.mode {
                    MembershipMode::Patch => {
                        let mut patched = plan.clone().into_owned();
                        let absent: Vec<u16> = initial
                            .iter()
                            .enumerate()
                            .filter(|&(_, &live)| !live)
                            .map(|(v, _)| v as u16)
                            .collect();
                        if !absent.is_empty() {
                            patched.apply(&MembershipDelta {
                                round: patched.config().round_id,
                                joins: Vec::new(),
                                leaves: absent,
                            })?;
                        }
                        patched
                    }
                    MembershipMode::Recompile => RoundPlan::new_with_membership(
                        plan.topology(),
                        plan.config(),
                        self.protocol,
                        &initial,
                    )?,
                };
                (Some(timeline), Some(Box::new(owned)))
            }
        };
        Ok(Deployment {
            plan,
            timeline,
            churn_plan,
            mode: self.mode,
            faults: self.faults,
            tamper: self.tamper,
            seed: self.seed,
        })
    }
}

/// Reject fault and tamper plans no round can run under: every
/// probability must lie in `[0, 1]` (NaN does not) and the extra
/// attenuation must be finite. Out-of-range values would otherwise
/// reach the link tables and fault draws, where a NaN attenuation reads
/// as a perfect channel and a loss above 1 silences every link.
fn validate_plans(faults: &FaultPlan, tamper: &TamperPlan) -> Result<(), MpcError> {
    let probabilities = [
        ("FaultPlan::loss", faults.loss),
        ("FaultPlan::dropout", faults.dropout),
        ("FaultPlan::delay", faults.delay),
        ("FaultPlan::duplicate", faults.duplicate),
        ("TamperPlan::forge_sum", tamper.forge_sum),
        ("TamperPlan::lane_swap", tamper.lane_swap),
        ("TamperPlan::bit_flip", tamper.bit_flip),
    ];
    for (field, p) in probabilities {
        if !(0.0..=1.0).contains(&p) {
            return Err(MpcError::InvalidConfig {
                what: format!("{field} must be a probability in [0, 1], got {p}"),
            });
        }
    }
    if !faults.extra_attenuation_db.is_finite() {
        return Err(MpcError::InvalidConfig {
            what: format!(
                "FaultPlan::extra_attenuation_db must be finite, got {}",
                faults.extra_attenuation_db
            ),
        });
    }
    Ok(())
}

/// A compiled PPDA deployment: the single entry point for running
/// aggregation rounds, whatever the scenario.
///
/// One deployment fuses the topology, the protocol configuration, the
/// protocol variant and the (possibly zero) fault model, and compiles the
/// [`RoundPlan`] — bootstrap, chain schedules, cipher contexts,
/// reconstruction weights — exactly once. Rounds are then driven through
/// [`RoundDriver`]s; every future scenario (churn, faults, batching, new
/// protocol variants) plugs into this same pipeline instead of forking
/// another `run_*` entry point.
///
/// The deployment itself is immutable and `Sync`: campaign harnesses
/// share one deployment across worker threads, each worker owning its own
/// driver (and thus its own per-round scratch buffers).
///
/// # Example
///
/// ```
/// use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind};
/// use ppda_topology::Topology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::flocklab();
/// let config = ProtocolConfig::builder(topology.len()).sources(6).build()?;
/// let deployment = Deployment::builder()
///     .topology(topology)
///     .config(config)
///     .protocol(ProtocolKind::S4)
///     .build()?;
/// for report in deployment.driver().take(3) {
///     let report = report?;
///     assert!(report.correct() && report.recovered());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Deployment<'t> {
    plan: RoundPlan<'t>,
    /// Compiled membership schedule, when the deployment was built with a
    /// live event stream.
    timeline: Option<MembershipTimeline>,
    /// The plan already brought to the timeline's initial view — what
    /// membership-driven drivers clone and then patch forward.
    churn_plan: Option<Box<RoundPlan<'static>>>,
    mode: MembershipMode,
    faults: FaultPlan,
    tamper: TamperPlan,
    seed: u64,
}

impl<'t> Deployment<'t> {
    /// Start building a deployment. A topology and a configuration are
    /// required; the protocol defaults to [`ProtocolKind::S4`], the fault
    /// plan to [`FaultPlan::none`], the seed to 0.
    pub fn builder() -> DeploymentBuilder<'t> {
        DeploymentBuilder {
            topology: None,
            config: None,
            protocol: ProtocolKind::S4,
            faults: FaultPlan::none(),
            tamper: TamperPlan::none(),
            seed: 0,
            membership: None,
            trickle: TrickleConfig::default(),
            mode: MembershipMode::default(),
        }
    }

    /// A fresh round driver over this deployment's compiled plan. Each
    /// driver owns its per-round scratch buffers, so concurrent drivers
    /// (one per campaign worker) never contend.
    ///
    /// Membership-driven deployments hand the driver its own *owned* copy
    /// of the plan (already at the timeline's initial view) plus a cursor
    /// over the compiled deltas; the driver fast-forwards the cursor
    /// deterministically as its rounds advance, so a fresh driver started
    /// at any round index reproduces the sequential stream byte-for-byte.
    pub fn driver(&self) -> RoundDriver<'_> {
        let config = self.plan.config();
        let plan = match (&self.churn_plan, &self.timeline) {
            (Some(patched), Some(timeline)) => DriverPlan::Owned {
                plan: patched.clone(),
                cursor: MembershipCursor {
                    timeline: timeline.clone(),
                    next: 0,
                    floor: None,
                },
            },
            _ => DriverPlan::Shared(&self.plan),
        };
        let exec = ExecState::new(plan.get());
        RoundDriver {
            plan,
            exec,
            mode: self.mode,
            faults: self.faults.clone(),
            tamper: self.tamper.clone(),
            base_seed: self.seed,
            stats: DriverStats::default(),
            observers: Vec::new(),
            readings_scratch: Vec::with_capacity(config.sources.len() * config.batch),
            all_live: vec![false; config.n_nodes],
        }
    }

    /// The compiled round plan (the full-membership compile; drivers of a
    /// membership-driven deployment patch their own copies forward).
    pub fn plan(&self) -> &RoundPlan<'t> {
        &self.plan
    }

    /// The compiled membership timeline, when the deployment was built
    /// with a live event stream ([`DeploymentBuilder::membership`]);
    /// `None` for static deployments.
    pub fn membership(&self) -> Option<&MembershipTimeline> {
        self.timeline.as_ref()
    }

    /// How membership-driven drivers keep their plan current.
    pub fn membership_mode(&self) -> MembershipMode {
        self.mode
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        self.plan.topology()
    }

    /// The per-round configuration template.
    pub fn config(&self) -> &ProtocolConfig {
        self.plan.config()
    }

    /// The compiled protocol variant.
    pub fn protocol(&self) -> ProtocolKind {
        self.plan.protocol()
    }

    /// The fault model driven rounds run under.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The cheating-aggregator model driven rounds run under
    /// ([`TamperPlan::none`] unless [`DeploymentBuilder::tamper`] set
    /// one).
    pub fn tamper(&self) -> &TamperPlan {
        &self.tamper
    }

    /// The base seed of the automatic round clock.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `(round_id, seed)` coordinates of the deployment's round
    /// `index` — exactly what a fresh [`driver`](Deployment::driver)
    /// would use for its `index`-th [`step`](RoundDriver::step). Schedulers
    /// that execute a deployment's round stream out of order (or split it
    /// across workers) use this to reproduce the sequential stream
    /// byte-for-byte.
    pub fn round_coordinates(&self, index: u64) -> (u32, u64) {
        let round_id = self.plan.config().round_id.wrapping_add(index as u32);
        (round_id, derive_stream(self.seed, index))
    }
}

/// Streams aggregation rounds over a [`Deployment`]'s compiled plan.
///
/// One driver = one independent round stream: it owns the round
/// pipeline's reusable scratch plus its own input buffers (generated
/// readings and the all-live failure mask are reused round to round), an
/// epoch clock (round id + per-round seed, advancing once per executed
/// round), the cumulative [`DriverStats`], and the attached
/// [`RoundObserver`] sinks.
///
/// All execution surfaces converge here:
///
/// * [`step`](RoundDriver::step) — one round at the clock, generated
///   readings, no explicit failures;
/// * [`step_with`](RoundDriver::step_with) — one round at the clock with
///   explicit readings and failure mask;
/// * [`run_epoch`](RoundDriver::run_epoch) — `n` rounds, returning the
///   epoch's stats;
/// * the `Iterator` impl — an endless stream of `Result<RoundReport, _>`
///   (combine with `take(n)`);
/// * [`round_at`](RoundDriver::round_at) /
///   [`round_at_with`](RoundDriver::round_at_with) — explicit round id
///   and seed, for differential testing and seed-striped campaigns.
///
/// # Example
///
/// ```
/// use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind};
/// use ppda_topology::Topology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::flocklab();
/// let config = ProtocolConfig::builder(topology.len())
///     .sources(6)
///     .batch(4) // 4 readings per source per round, same API
///     .build()?;
/// let deployment = Deployment::builder().topology(topology).config(config).build()?;
/// let mut driver = deployment.driver();
/// let report = driver.step()?;
/// assert_eq!(report.lanes(), 4);
/// assert!(report.correct());
/// let epoch = driver.run_epoch(5)?;
/// assert_eq!(epoch.rounds, 5);
/// assert_eq!(driver.stats().rounds, 6);
/// # Ok(())
/// # }
/// ```
pub struct RoundDriver<'d> {
    /// The driver's plan; membership-driven drivers own it together with
    /// their walk along the deployment's membership timeline.
    plan: DriverPlan<'d>,
    exec: ExecState,
    mode: MembershipMode,
    faults: FaultPlan,
    tamper: TamperPlan,
    base_seed: u64,
    stats: DriverStats,
    observers: Vec<Box<dyn RoundObserver + 'd>>,
    /// Reusable buffer for generated readings (the `step`/`round_at`
    /// common case draws fresh values without reallocating).
    readings_scratch: Vec<u64>,
    /// The no-explicit-failures mask, allocated once per driver.
    all_live: Vec<bool>,
}

impl fmt::Debug for RoundDriver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundDriver")
            .field("protocol", &self.plan.get().protocol())
            .field("lanes", &self.lanes())
            .field("base_seed", &self.base_seed)
            .field("stats", &self.stats)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl<'d> RoundDriver<'d> {
    /// The plan this driver executes over — *its* plan, which for a
    /// membership-driven driver reflects every delta patched in so far
    /// (the deployment's [`plan`](Deployment::plan) stays the
    /// full-membership compile).
    pub fn plan(&self) -> &RoundPlan<'_> {
        self.plan.get()
    }

    /// Lane width B of every round this driver runs.
    pub fn lanes(&self) -> usize {
        self.plan.get().config().batch
    }

    /// Cumulative statistics over every round this driver ran.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// The round id the *next* [`step`](RoundDriver::step) will run under.
    /// Fresh per round, so CCM nonces and share randomness never repeat.
    pub fn round_id(&self) -> u32 {
        self.plan
            .get()
            .config()
            .round_id
            .wrapping_add(self.stats.rounds as u32)
    }

    /// Subscribe an observer: it sees every round this driver completes
    /// from now on. Attach `&mut observer` to read it back after the
    /// driver is dropped.
    pub fn attach(&mut self, observer: impl RoundObserver + 'd) {
        self.observers.push(Box::new(observer));
    }

    fn next_seed(&self) -> u64 {
        derive_stream(self.base_seed, self.stats.rounds)
    }

    /// Run the next round of the deployment: generated readings (B per
    /// source), no explicit failures, fault plan applied, clock advanced.
    ///
    /// # Errors
    ///
    /// See [`RoundDriver::round_at_with`]. The clock only advances on
    /// success.
    pub fn step(&mut self) -> Result<RoundReport, MpcError> {
        let (round_id, seed) = (self.round_id(), self.next_seed());
        self.run_round(round_id, seed, None, None)
    }

    /// Run the next round with explicit readings (lane-major per source:
    /// `readings[si * B + lane]`) and failure mask.
    ///
    /// # Errors
    ///
    /// See [`RoundDriver::round_at_with`]. The clock only advances on
    /// success.
    pub fn step_with(
        &mut self,
        readings: &[u64],
        failed: &[bool],
    ) -> Result<RoundReport, MpcError> {
        let (round_id, seed) = (self.round_id(), self.next_seed());
        self.run_round(round_id, seed, Some(readings), Some(failed))
    }

    /// Run `rounds` rounds and return the epoch's cumulative stats
    /// (observers see every round; the driver's own stats advance too).
    ///
    /// # Errors
    ///
    /// Stops at (and propagates) the first round error.
    pub fn run_epoch(&mut self, rounds: u64) -> Result<DriverStats, MpcError> {
        let mut epoch = DriverStats::default();
        for _ in 0..rounds {
            let report = self.step()?;
            epoch.record(&report);
        }
        // The cache gauges are driver-lifetime state, not per-epoch sums.
        epoch.weight_cache_masks = self.stats.weight_cache_masks;
        epoch.weight_cache_evictions = self.stats.weight_cache_evictions;
        Ok(epoch)
    }

    /// Run one round at an explicit round id and seed with generated
    /// readings — the pinned-coordinate form differential suites and
    /// seed-striped campaigns use. Advances the clock like any round.
    ///
    /// # Errors
    ///
    /// See [`RoundDriver::round_at_with`].
    pub fn round_at(&mut self, round_id: u32, seed: u64) -> Result<RoundReport, MpcError> {
        self.run_round(round_id, seed, None, None)
    }

    /// Run the deployment's round `index` — the round a fresh driver would
    /// reach as its `index`-th [`step`](RoundDriver::step) — regardless of
    /// how many rounds *this* driver has run. Campaign schedulers use this
    /// to execute disjoint index spans on different workers while
    /// reproducing the sequential stream byte-for-byte.
    ///
    /// # Errors
    ///
    /// See [`RoundDriver::round_at_with`].
    pub fn step_at(&mut self, index: u64) -> Result<RoundReport, MpcError> {
        let round_id = self.plan.get().config().round_id.wrapping_add(index as u32);
        let seed = derive_stream(self.base_seed, index);
        self.run_round(round_id, seed, None, None)
    }

    /// Run one round with every coordinate pinned: round id, seed,
    /// readings and failure mask.
    ///
    /// # Errors
    ///
    /// * [`MpcError::InputMismatch`] on wrong-sized inputs.
    /// * [`MpcError::ReadingTooLarge`] if a reading exceeds the field.
    pub fn round_at_with(
        &mut self,
        round_id: u32,
        seed: u64,
        readings: &[u64],
        failed: &[bool],
    ) -> Result<RoundReport, MpcError> {
        self.run_round(round_id, seed, Some(readings), Some(failed))
    }

    /// Bring the plan up to date with every membership delta due at or
    /// before `round_id`, returning the absorbed patch record (if any
    /// delta applied). Incremental patching only moves forward: a round
    /// before one the plan was already patched for is a typed error.
    fn advance_membership(&mut self, round_id: u32) -> Result<Option<PlanPatch>, MpcError> {
        let DriverPlan::Owned { plan, cursor } = &mut self.plan else {
            return Ok(None);
        };
        if let Some(floor) = cursor.floor {
            if round_id < floor {
                return Err(MpcError::MembershipRegression {
                    patched_to: floor,
                    requested: round_id,
                });
            }
        }
        cursor.floor = Some(round_id);
        let mut absorbed: Option<PlanPatch> = None;
        while let Some(delta) = cursor.timeline.deltas().get(cursor.next) {
            if delta.round > round_id {
                break;
            }
            let patch = match self.mode {
                MembershipMode::Patch => plan.apply(delta)?,
                MembershipMode::Recompile => {
                    // The oracle path: rebuild everything from scratch for
                    // the view in force at the delta's round. The patch
                    // record is synthesized (a full rebuild reuses
                    // nothing), but the resulting plan must be
                    // byte-identical to the patched one.
                    let live = cursor.timeline.view_at(delta.round);
                    let rebuilt = RoundPlan::new_with_membership(
                        plan.topology(),
                        plan.config(),
                        plan.protocol(),
                        &live,
                    )?;
                    let patch = PlanPatch {
                        round: delta.round,
                        joined: delta.joins.len() as u32,
                        left: delta.leaves.len() as u32,
                        destinations_changed: rebuilt.destinations() != plan.destinations(),
                        destinations: rebuilt.destinations().len() as u32,
                        slots_rebuilt: rebuilt.sharing_chain_len() as u32,
                        ccm_reused: 0,
                        ccm_created: rebuilt.sharing_chain_len() as u32,
                    };
                    **plan = rebuilt;
                    patch
                }
            };
            if patch.destinations_changed {
                self.exec.sync(plan);
            }
            // Only deltas effective at exactly this round are reported;
            // older ones (a fresh driver fast-forwarding to mid-stream,
            // or a caller that skipped rounds) apply silently. This
            // keeps a driver resumed at any round byte-identical to one
            // that streamed every round — the basis of the campaign
            // engine's span-parallel execution.
            if delta.round == round_id {
                match absorbed.as_mut() {
                    Some(acc) => acc.absorb(&patch),
                    None => absorbed = Some(patch),
                }
            }
            cursor.next += 1;
        }
        Ok(absorbed)
    }

    /// The single internal path every public surface funnels into.
    fn run_round(
        &mut self,
        round_id: u32,
        seed: u64,
        readings: Option<&[u64]>,
        failed: Option<&[bool]>,
    ) -> Result<RoundReport, MpcError> {
        let patch = self.advance_membership(round_id)?;
        let plan = self.plan.get();
        let config = plan.config();
        let readings = match readings {
            Some(r) => r,
            None => {
                readings_into(
                    &plan.master_cipher,
                    config,
                    round_id,
                    seed,
                    config.batch,
                    &mut self.readings_scratch,
                );
                &self.readings_scratch
            }
        };
        let failed = match failed {
            Some(f) => f,
            None => &self.all_live,
        };
        let (outcome, degraded) = self.exec.run_round(
            plan,
            round_id,
            seed,
            readings,
            failed,
            &self.faults,
            &self.tamper,
        )?;
        let report = RoundReport {
            round_id,
            seed,
            outcome,
            degraded,
            patch,
        };
        self.stats.record(&report);
        if let Some(cache) = self.exec.weight_cache() {
            self.stats.weight_cache_masks = cache.cached();
            self.stats.weight_cache_evictions = cache.evictions();
        }
        for observer in &mut self.observers {
            observer.on_round(&report);
        }
        Ok(report)
    }
}

impl Iterator for RoundDriver<'_> {
    type Item = Result<RoundReport, MpcError>;

    /// An endless round stream (bound it with `take(n)`). Every yielded
    /// item is a [`step`](RoundDriver::step); errors are yielded, not
    /// terminal, matching the driver's only-advance-on-success clock.
    fn next(&mut self) -> Option<Self::Item> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppda_sim::ChurnSchedule;

    fn grid_deployment(kind: ProtocolKind) -> Deployment<'static> {
        let topology = Topology::grid(3, 3, 18.0, 5);
        let config = ProtocolConfig::builder(9)
            .degree(2)
            .build()
            .expect("grid config is valid");
        Deployment::builder()
            .topology(topology)
            .config(config)
            .protocol(kind)
            .seed(7)
            .build()
            .expect("grid deployment compiles")
    }

    #[test]
    fn builder_requires_topology_and_config() {
        let err = Deployment::builder().build().unwrap_err();
        assert!(err.to_string().contains("topology"));
        let err = Deployment::builder()
            .topology(Topology::grid(3, 3, 18.0, 5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("configuration"));
    }

    #[test]
    fn builder_rejects_bad_deployments_at_compile_time() {
        let topology = Topology::line(9, 400.0, 1);
        let config = ProtocolConfig::builder(9).degree(2).build().unwrap();
        assert!(matches!(
            Deployment::builder()
                .topology(topology)
                .config(config)
                .build(),
            Err(MpcError::TopologyDisconnected)
        ));
    }

    /// Compile a FlockLab S4 deployment with 3 sources whose builder-made
    /// configuration was then edited through its public fields, and
    /// return the error.
    fn compile_edited(edit: impl FnOnce(&mut ProtocolConfig)) -> MpcError {
        let topology = Topology::flocklab();
        let mut config = ProtocolConfig::builder(topology.len())
            .sources(3)
            .build()
            .unwrap();
        edit(&mut config);
        match Deployment::builder()
            .topology(topology)
            .config(config)
            .build()
        {
            Err(err) => err,
            Ok(_) => panic!("an edited configuration that breaks a builder check compiled"),
        }
    }

    /// Expect `compile_edited` to fail with an `InvalidConfig` mentioning
    /// `what`.
    fn assert_edit_rejected(edit: impl FnOnce(&mut ProtocolConfig), what: &str) {
        match compile_edited(edit) {
            MpcError::InvalidConfig { what: msg } => {
                assert!(msg.contains(what), "error must mention {what}: {msg}")
            }
            other => panic!("expected InvalidConfig mentioning {what}, got {other}"),
        }
    }

    #[test]
    fn compile_rejects_a_zero_reading_bound() {
        // The first round would divide by zero drawing its readings.
        assert_edit_rejected(|c| c.max_reading = 0, "max reading 0");
    }

    #[test]
    fn compile_rejects_degree_zero() {
        // A degree-0 share equals the reading it should hide, so every
        // aggregator would decrypt each source's raw value.
        assert_edit_rejected(|c| c.degree = 0, "degree 0");
    }

    #[test]
    fn compile_rejects_a_zero_lane_width() {
        // A round of zero lanes would aggregate nothing.
        assert_edit_rejected(|c| c.batch = 0, "lane width");
    }

    #[test]
    fn compile_rejects_an_unfragmented_batch_past_one_frame() {
        // The builder's typed error, not a frame error from the layout.
        assert!(matches!(
            compile_edited(|c| c.batch = 24),
            MpcError::BatchTooWide {
                lanes: 24,
                max_lanes: 23
            }
        ));
    }

    /// Build the grid deployment under `faults` and `tamper`.
    fn build_under(faults: FaultPlan, tamper: TamperPlan) -> Result<Deployment<'static>, MpcError> {
        let config = ProtocolConfig::builder(9).degree(2).build().unwrap();
        Deployment::builder()
            .topology(Topology::grid(3, 3, 18.0, 5))
            .config(config)
            .faults(faults)
            .tamper(tamper)
            .build()
    }

    /// Expect `build_under` to fail with an `InvalidConfig` naming `field`.
    fn assert_rejected(faults: FaultPlan, tamper: TamperPlan, field: &str) {
        match build_under(faults, tamper) {
            Err(MpcError::InvalidConfig { what }) => {
                assert!(what.contains(field), "error must name {field}: {what}")
            }
            Err(other) => panic!("expected InvalidConfig naming {field}, got {other}"),
            Ok(_) => panic!("a plan with a bad {field} must not build"),
        }
    }

    #[test]
    fn builder_rejects_bad_fault_loss() {
        let plan = |p| FaultPlan::lossy(1, p);
        assert_rejected(plan(f64::NAN), TamperPlan::none(), "FaultPlan::loss");
        assert_rejected(plan(2.0), TamperPlan::none(), "FaultPlan::loss");
        assert_rejected(plan(-0.1), TamperPlan::none(), "FaultPlan::loss");
    }

    #[test]
    fn builder_rejects_bad_fault_dropout() {
        let plan = |p| FaultPlan::none().with_dropout(p);
        assert_rejected(plan(f64::NAN), TamperPlan::none(), "FaultPlan::dropout");
        assert_rejected(plan(1.5), TamperPlan::none(), "FaultPlan::dropout");
    }

    #[test]
    fn builder_rejects_bad_fault_delay() {
        let plan = |p| FaultPlan::none().with_delay(p);
        assert_rejected(plan(f64::NAN), TamperPlan::none(), "FaultPlan::delay");
        assert_rejected(plan(-1.0), TamperPlan::none(), "FaultPlan::delay");
    }

    #[test]
    fn builder_rejects_bad_fault_duplicate() {
        let plan = |p| FaultPlan::none().with_duplicate(p);
        assert_rejected(plan(f64::NAN), TamperPlan::none(), "FaultPlan::duplicate");
        assert_rejected(
            plan(f64::INFINITY),
            TamperPlan::none(),
            "FaultPlan::duplicate",
        );
    }

    #[test]
    fn builder_rejects_non_finite_attenuation() {
        let field = "FaultPlan::extra_attenuation_db";
        for db in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let plan = FaultPlan::none().with_attenuation(db);
            assert_rejected(plan, TamperPlan::none(), field);
        }
    }

    #[test]
    fn builder_rejects_bad_tamper_forge_sum() {
        let field = "TamperPlan::forge_sum";
        assert_rejected(FaultPlan::none(), TamperPlan::forging(1, f64::NAN), field);
        assert_rejected(FaultPlan::none(), TamperPlan::forging(1, 1.01), field);
    }

    #[test]
    fn builder_rejects_bad_tamper_lane_swap() {
        let plan = |p| TamperPlan::none().with_lane_swap(p);
        assert_rejected(FaultPlan::none(), plan(f64::NAN), "TamperPlan::lane_swap");
        assert_rejected(FaultPlan::none(), plan(-0.5), "TamperPlan::lane_swap");
    }

    #[test]
    fn builder_rejects_bad_tamper_bit_flip() {
        let plan = |p| TamperPlan::none().with_bit_flip(p);
        assert_rejected(FaultPlan::none(), plan(f64::NAN), "TamperPlan::bit_flip");
        assert_rejected(FaultPlan::none(), plan(3.0), "TamperPlan::bit_flip");
    }

    #[test]
    fn builder_accepts_boundary_plans() {
        let faults = FaultPlan::lossy(1, 1.0)
            .with_dropout(0.0)
            .with_delay(1.0)
            .with_duplicate(0.0)
            .with_attenuation(-3.0);
        let tamper = TamperPlan::forging(1, 1.0)
            .with_lane_swap(0.0)
            .with_bit_flip(1.0);
        assert!(build_under(faults, tamper).is_ok());
    }

    #[test]
    fn drivers_replay_deterministically() {
        let deployment = grid_deployment(ProtocolKind::S4);
        let run = || {
            let mut driver = deployment.driver();
            (0..3)
                .map(|_| driver.step().unwrap())
                .collect::<Vec<RoundReport>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clock_advances_round_ids_and_seeds() {
        let deployment = grid_deployment(ProtocolKind::S4);
        let base = deployment.config().round_id;
        let mut driver = deployment.driver();
        assert_eq!(driver.round_id(), base);
        let a = driver.step().unwrap();
        let b = driver.step().unwrap();
        assert_eq!(a.round_id, base);
        assert_eq!(b.round_id, base + 1);
        assert_eq!(a.seed, derive_stream(7, 0));
        assert_eq!(b.seed, derive_stream(7, 1));
        assert_ne!(
            a.expected_sums(),
            b.expected_sums(),
            "fresh readings per round"
        );
        assert_eq!(driver.stats().rounds, 2);
    }

    #[test]
    fn iterator_streams_the_same_rounds_as_stepping() {
        let deployment = grid_deployment(ProtocolKind::S4);
        let stepped: Vec<RoundReport> = {
            let mut driver = deployment.driver();
            (0..4).map(|_| driver.step().unwrap()).collect()
        };
        let iterated: Vec<RoundReport> = deployment
            .driver()
            .take(4)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(stepped, iterated);
    }

    #[test]
    fn run_epoch_returns_the_epoch_slice_of_stats() {
        let deployment = grid_deployment(ProtocolKind::S4);
        let mut driver = deployment.driver();
        driver.step().unwrap();
        let epoch = driver.run_epoch(3).unwrap();
        assert_eq!(epoch.rounds, 3);
        assert_eq!(driver.stats().rounds, 4);
        assert!(driver.stats().total_schedule_ms > epoch.total_schedule_ms);
        assert_eq!(epoch.recovery_rate(), 1.0);
        assert_eq!(DriverStats::default().recovery_rate(), 0.0);
    }

    #[test]
    fn stats_expose_a_bounded_weight_cache_under_churn() {
        // Lossy links + dropout churn the survivor mask round over round;
        // the stats gauge must track the cache and the cache must respect
        // its bound for the campaign's whole lifetime.
        let topology = Topology::grid(3, 3, 18.0, 5);
        let config = ProtocolConfig::builder(9).degree(2).build().unwrap();
        let deployment = Deployment::builder()
            .topology(topology)
            .config(config)
            .protocol(ProtocolKind::S4)
            .faults(FaultPlan::lossy(0xC0, 0.35).with_dropout(0.15))
            .seed(11)
            .build()
            .unwrap();
        let mut driver = deployment.driver();
        let capacity = ppda_sss::DEFAULT_WEIGHT_CAPACITY;
        for _ in 0..64 {
            driver.step().unwrap();
            let stats = driver.stats();
            assert!(stats.weight_cache_masks <= capacity);
        }
        let epoch = driver.run_epoch(2).unwrap();
        assert_eq!(epoch.weight_cache_masks, driver.stats().weight_cache_masks);
        assert_eq!(
            epoch.weight_cache_evictions,
            driver.stats().weight_cache_evictions
        );
    }

    #[test]
    fn observers_see_every_round_and_fan_out() {
        struct Count(u64);
        impl RoundObserver for Count {
            fn on_round(&mut self, report: &RoundReport) {
                assert!(report.recovered());
                self.0 += 1;
            }
        }
        let deployment = grid_deployment(ProtocolKind::S4);
        let mut first = Count(0);
        let mut second = Count(0);
        let mut driver = deployment.driver();
        driver.attach(&mut first);
        driver.attach(&mut second);
        driver.run_epoch(3).unwrap();
        drop(driver);
        assert_eq!(first.0, 3);
        assert_eq!(second.0, 3);
    }

    #[test]
    fn explicit_inputs_flow_through_reports() {
        let deployment = grid_deployment(ProtocolKind::S4);
        let mut driver = deployment.driver();
        let report = driver
            .step_with(&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[false; 9])
            .unwrap();
        assert_eq!(report.expected_sums(), &[45]);
        assert_eq!(report.aggregates(), Some(&[45u64][..]));
        // Bad inputs are typed errors and do not advance the clock.
        let before = driver.round_id();
        assert!(matches!(
            driver.step_with(&[1, 2], &[false; 9]),
            Err(MpcError::InputMismatch { .. })
        ));
        assert_eq!(driver.round_id(), before);
    }

    #[test]
    fn deployment_faults_apply_to_every_round() {
        // Churn one aggregator down for the second round only: the driver
        // walks the schedule as its round ids advance.
        let base_deployment = grid_deployment(ProtocolKind::S4);
        let victim = base_deployment.plan().destinations()[0];
        let base = base_deployment.config().round_id;
        let topology = base_deployment.topology().clone();
        let config = base_deployment.config().clone();
        let deployment = Deployment::builder()
            .topology(topology)
            .config(config)
            .faults(FaultPlan::none().with_churn(ChurnSchedule::new().window(
                victim,
                base + 1,
                base + 2,
            )))
            .seed(7)
            .build()
            .unwrap();
        let mut driver = deployment.driver();
        let up = driver.step().unwrap();
        let down = driver.step().unwrap();
        assert!(up.survivors().contains(&victim));
        assert!(!down.survivors().contains(&victim));
        assert!(down.outcome.nodes[victim as usize].failed);
    }

    #[test]
    fn s3_and_s4_both_drive() {
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            let deployment = grid_deployment(kind);
            assert_eq!(deployment.protocol(), kind);
            let report = deployment.driver().step().unwrap();
            assert_eq!(report.outcome.protocol, kind.name());
            assert!(report.correct());
        }
    }

    #[test]
    fn shared_deployment_drives_concurrent_workers() {
        // The campaign fan-out shape: one deployment, one driver per
        // worker thread, identical per-seed results regardless of which
        // worker ran a seed.
        let deployment = grid_deployment(ProtocolKind::S4);
        let round_id = deployment.config().round_id;
        let serial: Vec<RoundReport> = {
            let mut driver = deployment.driver();
            (0..4)
                .map(|seed| driver.round_at(round_id, seed).unwrap())
                .collect()
        };
        let parallel: Vec<RoundReport> = std::thread::scope(|scope| {
            let deployment = &deployment;
            let handles: Vec<_> = (0..4u64)
                .map(|seed| {
                    scope.spawn(move || deployment.driver().round_at(round_id, seed).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel);
    }
}
