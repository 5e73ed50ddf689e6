//! The benchmark's workloads, generated from the run's seed.
//!
//! Every workload is a set of [`DeploymentSpec`]s: the program under test
//! only ever sees these specs. The seed picks each deployment's round-clock
//! seed, its fault stream and its membership events; the operating points
//! (testbed, protocol, sources, lane width, NTX) are fixed here so the
//! workloads stay put when the repository's own harness defaults move.

use ppda_mpc::{
    FaultPlan, IntegrityMode, MembershipEvent, MpcError, ProtocolConfig, ProtocolKind,
    TrickleConfig,
};
use ppda_radio::FadingProfile;
use ppda_service::{ClockMode, DeploymentSpec};
use ppda_sim::{derive_stream, Xoshiro256};
use ppda_topology::Topology;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_b1", "wide_b64_audit", "fleet_churn_lossy"];

/// Rounds of the fleet's clock during which membership events happen.
/// Bounded so every tick after it fast-forwards the same number of
/// membership deltas: the timed part of a run is then stationary.
pub const CHURN_HORIZON: u32 = 120;

/// How a workload's loop drives its deployments.
pub enum Shape {
    /// One `RoundDriver`, one `step()` per loop iteration.
    Driver,
    /// One `CampaignEngine`, one `advance(1)` tick per loop iteration.
    Fleet {
        /// Worker-pool size.
        workers: usize,
    },
}

/// A named workload: its loop shape and the deployments it drives.
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub specs: Vec<DeploymentSpec>,
}

/// A testbed operating point (the values the paper-reproduction harness
/// froze for Fig. 1).
#[derive(Clone, Copy)]
struct Testbed {
    name: &'static str,
    topology: fn() -> Topology,
    s4_ntx: u32,
    s3_ntx: u32,
    fading: fn() -> FadingProfile,
}

const FLOCKLAB: Testbed = Testbed {
    name: "flocklab",
    topology: Topology::flocklab,
    s4_ntx: 6,
    s3_ntx: 15,
    fading: FadingProfile::office,
};

const DCUBE: Testbed = Testbed {
    name: "dcube",
    topology: Topology::dcube,
    s4_ntx: 7,
    s3_ntx: 20,
    fading: FadingProfile::industrial_interference,
};

struct Point {
    testbed: Testbed,
    protocol: ProtocolKind,
    sources: usize,
    batch: usize,
    integrity: IntegrityMode,
}

impl Point {
    fn spec(&self, name: String, seed: u64) -> Result<DeploymentSpec, MpcError> {
        let topology = (self.testbed.topology)();
        let config = ProtocolConfig::builder(topology.len())
            .sources(self.sources)
            .ntx_sharing(self.testbed.s4_ntx)
            .ntx_reconstruction(self.testbed.s4_ntx)
            .full_coverage_ntx(self.testbed.s3_ntx)
            .aggregator_redundancy(2)
            .fading((self.testbed.fading)())
            .batch(self.batch)
            .fragmentation(self.batch > 1)
            .integrity(self.integrity)
            .build()?;
        let mut spec = DeploymentSpec::new(name, topology, config);
        spec.protocol = self.protocol;
        spec.seed = seed;
        spec.clock = ClockMode::Epoch;
        Ok(spec)
    }

    fn label(&self) -> String {
        format!(
            "{}-{}-{}",
            self.testbed.name,
            self.protocol.name(),
            self.sources
        )
    }
}

/// Build workload `name` from `seed`; `None` for an unknown name.
///
/// # Errors
///
/// A spec that does not compile into a valid configuration.
pub fn build(name: &str, seed: u64) -> Option<Result<Workload, MpcError>> {
    let built = match name {
        "paper_b1" => driver(
            "paper_b1",
            Point {
                testbed: DCUBE,
                protocol: ProtocolKind::S4,
                sources: 45,
                batch: 1,
                integrity: IntegrityMode::Off,
            },
            seed,
        ),
        "wide_b64_audit" => driver(
            "wide_b64_audit",
            Point {
                testbed: FLOCKLAB,
                protocol: ProtocolKind::S4,
                sources: 6,
                batch: 64,
                integrity: IntegrityMode::On,
            },
            seed,
        ),
        "fleet_churn_lossy" => fleet(seed),
        _ => return None,
    };
    Some(built)
}

fn driver(name: &'static str, point: Point, seed: u64) -> Result<Workload, MpcError> {
    Ok(Workload {
        name,
        shape: Shape::Driver,
        specs: vec![point.spec(point.label(), derive_stream(seed, 0))?],
    })
}

/// Sixteen mixed deployments: four copies of four operating points, each
/// under link loss, node dropout and delivery faults; the even copies also
/// see crash/rejoin churn.
fn fleet(seed: u64) -> Result<Workload, MpcError> {
    let points = [
        (FLOCKLAB, ProtocolKind::S4, 6),
        (FLOCKLAB, ProtocolKind::S4, 24),
        (FLOCKLAB, ProtocolKind::S3, 10),
        (DCUBE, ProtocolKind::S4, 12),
    ];
    let mut specs = Vec::new();
    for copy in 0..4u64 {
        for (testbed, protocol, sources) in points {
            let i = specs.len() as u64;
            let point = Point {
                testbed,
                protocol,
                sources,
                batch: 1,
                integrity: IntegrityMode::Off,
            };
            let mut spec =
                point.spec(format!("{}#{copy}", point.label()), derive_stream(seed, i))?;
            spec.faults = FaultPlan::lossy(derive_stream(seed, 0xFA00 + i), 0.15)
                .with_dropout(0.05)
                .with_delay(0.02)
                .with_duplicate(0.02);
            if copy % 2 == 0 {
                spec.membership = churn(
                    spec.config.round_id,
                    spec.topology.len(),
                    derive_stream(seed, 0xC400 + i),
                );
                spec.trickle = TrickleConfig::default();
            }
            specs.push(spec);
        }
    }
    Ok(Workload {
        name: "fleet_churn_lossy",
        // One worker: the engine then runs each tick on the calling thread,
        // the one whose host speed the reference kernel in `run.rs` measures.
        shape: Shape::Fleet { workers: 1 },
        specs,
    })
}

/// Crash/rejoin pairs every few dozen rounds within [`CHURN_HORIZON`]:
/// one random node crashes, and rejoins 8–23 rounds later.
fn churn(start: u32, nodes: usize, seed: u64) -> Vec<MembershipEvent> {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut events = Vec::new();
    let mut round = start + 8 + rng.below(16) as u32;
    while round + 24 < start + CHURN_HORIZON {
        let node = rng.below(nodes as u64) as u16;
        events.push(MembershipEvent::crash(round, node));
        events.push(MembershipEvent::rejoin(
            round + 8 + rng.below(16) as u32,
            node,
        ));
        round += 24 + rng.below(24) as u32;
    }
    events
}
