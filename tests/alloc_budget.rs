//! Allocation budget of a steady-state round.
//!
//! A counting global allocator pins how many heap allocations one
//! `RoundDriver::step()` makes at the benchmark's operating points (see
//! `perfbench/src/workloads.rs`), and how many one steady-state
//! `CampaignEngine::advance(1)` tick makes over a small lossy fleet with
//! membership churn. This binary holds a single test, so no parallel test
//! can allocate while a window is being counted.
//!
//! The bounds only ever tighten: a change that allocates less per round
//! lowers them to what the tree then meets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ppda::mpc::{
    Deployment, FaultPlan, IntegrityMode, MembershipEvent, ProtocolConfig, ProtocolKind,
};
use ppda::radio::FadingProfile;
use ppda::service::{CampaignEngine, DeploymentSpec};
use ppda::sim::derive_stream;
use ppda::topology::Topology;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP_STEPS: u32 = 20;
const COUNTED_STEPS: u32 = 50;

/// Fleet ticks before counting: past the last membership change (the
/// churn below ends by round 100, and its dissemination takes a few
/// rounds more), as perfbench's fleet warm-up is.
const WARMUP_TICKS: u32 = 160;
const COUNTED_TICKS: u32 = 50;
/// Allocation bound of one fleet tick.
const FLEET_TICK_BOUND: u64 = 92;

/// A benchmark operating point and its allocation bound per step.
struct Point {
    name: &'static str,
    topology: Topology,
    protocol: ProtocolKind,
    sources: usize,
    batch: usize,
    integrity: IntegrityMode,
    ntx: u32,
    full_coverage_ntx: u32,
    fading: FadingProfile,
    bound: u64,
}

impl Point {
    /// Mean allocations per `step()` over the counted window, rounded
    /// down, after the warm-up steps have grown every reusable buffer.
    fn mean_allocations(&self) -> u64 {
        let config = ProtocolConfig::builder(self.topology.len())
            .sources(self.sources)
            .ntx_sharing(self.ntx)
            .ntx_reconstruction(self.ntx)
            .full_coverage_ntx(self.full_coverage_ntx)
            .aggregator_redundancy(2)
            .fading(self.fading)
            .batch(self.batch)
            .fragmentation(self.batch > 1)
            .integrity(self.integrity)
            .build()
            .unwrap();
        let deployment = Deployment::builder()
            .topology_ref(&self.topology)
            .config(config)
            .protocol(self.protocol)
            .seed(derive_stream(1, 0))
            .build()
            .unwrap();
        let mut driver = deployment.driver();
        for _ in 0..WARMUP_STEPS {
            driver.step().unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..COUNTED_STEPS {
            driver.step().unwrap();
        }
        (ALLOCATIONS.load(Ordering::Relaxed) - before) / u64::from(COUNTED_STEPS)
    }
}

/// Mean allocations per one-worker `advance(1)` tick, rounded down, over
/// perfbench's four fleet operating points (FlockLab S4 with 6 and 24
/// sources, FlockLab S3 with 10, D-Cube S4 with 12), each under link loss,
/// dropout and delivery faults; the first and third also crash and rejoin
/// two nodes.
fn fleet_tick_allocations() -> u64 {
    let points = [
        (
            Topology::flocklab(),
            FadingProfile::office(),
            ProtocolKind::S4,
            6,
            6,
            15,
        ),
        (
            Topology::flocklab(),
            FadingProfile::office(),
            ProtocolKind::S4,
            24,
            6,
            15,
        ),
        (
            Topology::flocklab(),
            FadingProfile::office(),
            ProtocolKind::S3,
            10,
            6,
            15,
        ),
        (
            Topology::dcube(),
            FadingProfile::industrial_interference(),
            ProtocolKind::S4,
            12,
            7,
            20,
        ),
    ];
    let specs = points.into_iter().enumerate().map(
        |(i, (topology, fading, protocol, sources, ntx, full_ntx))| {
            let config = ProtocolConfig::builder(topology.len())
                .sources(sources)
                .ntx_sharing(ntx)
                .ntx_reconstruction(ntx)
                .full_coverage_ntx(full_ntx)
                .aggregator_redundancy(2)
                .fading(fading)
                .build()
                .unwrap();
            let start = config.round_id;
            let mut spec = DeploymentSpec::new(format!("fleet-{i}"), topology, config);
            spec.protocol = protocol;
            spec.seed = derive_stream(1, i as u64);
            spec.faults = FaultPlan::lossy(derive_stream(1, 0xFA00 + i as u64), 0.15)
                .with_dropout(0.05)
                .with_delay(0.02)
                .with_duplicate(0.02);
            if i % 2 == 0 {
                spec.membership = vec![
                    MembershipEvent::crash(start + 12, 3),
                    MembershipEvent::rejoin(start + 30, 3),
                    MembershipEvent::crash(start + 60, 11),
                    MembershipEvent::rejoin(start + 80, 11),
                ];
            }
            spec
        },
    );
    let engine = CampaignEngine::builder()
        .workers(1)
        .deployments(specs)
        .build()
        .unwrap();
    for _ in 0..WARMUP_TICKS {
        engine.advance(1).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..COUNTED_TICKS {
        engine.advance(1).unwrap();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) / u64::from(COUNTED_TICKS)
}

#[test]
fn steady_state_rounds_stay_within_their_allocation_budget() {
    let points = [
        // perfbench's `paper_b1`: D-Cube S4, 45 sources, B = 1.
        Point {
            name: "paper_b1",
            topology: Topology::dcube(),
            protocol: ProtocolKind::S4,
            sources: 45,
            batch: 1,
            integrity: IntegrityMode::Off,
            ntx: 7,
            full_coverage_ntx: 20,
            fading: FadingProfile::industrial_interference(),
            bound: 46,
        },
        // perfbench's `wide_b64_audit`: FlockLab S4, 6 sources, B = 64,
        // fragmented, integrity on.
        Point {
            name: "wide_b64_audit",
            topology: Topology::flocklab(),
            protocol: ProtocolKind::S4,
            sources: 6,
            batch: 64,
            integrity: IntegrityMode::On,
            ntx: 6,
            full_coverage_ntx: 15,
            fading: FadingProfile::office(),
            bound: 35,
        },
        // FlockLab S3, 10 sources, B = 1: the strict all-to-all predicate.
        Point {
            name: "flocklab_s3_10",
            topology: Topology::flocklab(),
            protocol: ProtocolKind::S3,
            sources: 10,
            batch: 1,
            integrity: IntegrityMode::Off,
            ntx: 6,
            full_coverage_ntx: 15,
            fading: FadingProfile::office(),
            bound: 36,
        },
    ];
    let mut measured: Vec<(&str, u64, u64)> = points
        .iter()
        .map(|p| (p.name, p.mean_allocations(), p.bound))
        .collect();
    // A steady-state fleet tick: four deployment-rounds plus scheduling.
    measured.push(("fleet_tick", fleet_tick_allocations(), FLEET_TICK_BOUND));
    for &(name, mean, bound) in &measured {
        eprintln!("{name}: {mean} allocations per step (bound {bound})");
    }
    for (name, mean, bound) in measured {
        assert!(
            mean <= bound,
            "{name}: {mean} allocations per step exceed the budget of {bound}"
        );
    }
}
