//! The untraced closed loops that produce the end-to-end metrics.

use std::time::{Duration, Instant};

use ppda_mpc::{Deployment, MpcError, RoundReport};
use ppda_service::{CampaignEngine, DeploymentSpec};

use crate::check::{percentile, summarize, Digest, RoundChecker, SimStats};
use crate::workloads::{Shape, Workload, CHURN_HORIZON};

/// Driver rounds excluded from host timing while caches fill.
const DRIVER_WARMUP: u64 = 20;
/// Fleet ticks excluded from host timing: every timed tick runs after the
/// last membership change.
const FLEET_WARMUP: u64 = CHURN_HORIZON as u64 + 40;
/// Driver rounds and fleet ticks in the deterministic window (digest and
/// the simulated metrics), run whatever the host speed.
const DRIVER_WINDOW: u64 = 1000;
const FLEET_WINDOW: u64 = 400;
/// One set-up repetition runs every this many loop steps (and once before
/// the loop): other tenants of the shared host slow it for seconds to
/// minutes at a time, so `setup_s`, their median, samples the whole run.
const DRIVER_SETUP_EVERY: u64 = 64;
const FLEET_SETUP_EVERY: u64 = 32;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run prints: the attempt tally, the metrics and the context
/// lines that tell hosts and operating points apart.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub context: Vec<(&'static str, String)>,
}

/// Compile one spec exactly as the campaign engine does.
pub fn build_deployment(spec: &DeploymentSpec) -> Result<Deployment<'static>, MpcError> {
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
    builder.build()
}

pub fn build_engine(specs: &[DeploymentSpec], workers: usize) -> Result<CampaignEngine, MpcError> {
    CampaignEngine::builder()
        .workers(workers)
        .deployments(specs.iter().cloned())
        .build()
}

/// Entries of the reference kernel's two tables: 32 KB, the size of the
/// first-level cache, and 256 KB, within the second.
const REF_TABLES: [usize; 2] = [1 << 13, 1 << 16];
/// Updates of each table per reference sample: about 150 us on a quiet host.
const REF_ITERS: [u32; 2] = [8_000, 6_000];
/// Entries of the buffer swept before each reference sample: 4 MB, twice
/// the second-level cache of the baseline host.
const SWEEP_LEN: usize = 1 << 20;
/// The reference time every host figure is scaled to: the kernel's time on
/// a quiet core of the 2-vCPU Xeon host of the baseline reading.
const REF_NOMINAL_S: f64 = 150e-6;

/// A run's host-time samples.
///
/// Other tenants of the shared host slow it by up to half, for a second or
/// so at a time. So every loop step and set-up repetition is followed by a
/// fixed CPU kernel owned by the benchmark, and each timed sample is kept
/// divided by that kernel's time: the work of the sample in units of host
/// speed at that moment, which the slowdowns cancel out of.
struct HostTime {
    /// Timed loop steps ÷ reference time.
    steps: Vec<f64>,
    /// Set-up repetitions ÷ reference time.
    setups: Vec<f64>,
    /// Timed loop steps, in seconds.
    raw_steps: Vec<f64>,
    /// Reference-kernel times, in seconds.
    refs: Vec<f64>,
    tables: [Vec<u32>; 2],
    sweep: Vec<u32>,
}

impl HostTime {
    fn new() -> Self {
        HostTime {
            steps: Vec::new(),
            setups: Vec::new(),
            raw_steps: Vec::new(),
            refs: Vec::new(),
            tables: REF_TABLES.map(|len| vec![0; len]),
            sweep: vec![0; SWEEP_LEN],
        }
    }

    /// Run and time the reference kernel: random read-modify-writes of
    /// each table with a data-dependent branch. An untimed sweep first
    /// pushes the tables out of the core's private caches, so the kernel
    /// refills them from the shared cache as a round refills its own data,
    /// and meets the same contention, whatever the step left behind.
    fn reference(&mut self) -> f64 {
        for (i, v) in self.sweep.iter_mut().enumerate() {
            *v = v.wrapping_add(i as u32);
        }
        std::hint::black_box(&self.sweep);
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for (table, iters) in self.tables.iter_mut().zip(REF_ITERS) {
            let mask = table.len() - 1;
            for _ in 0..iters {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = x as usize & mask;
                table[i] = table[i].wrapping_add(x as u32);
                if table[i] & 1 == 0 {
                    x = x.wrapping_add(u64::from(table[(x >> 20) as usize & mask]));
                }
            }
        }
        std::hint::black_box(&self.tables);
        let dt = t.elapsed().as_secs_f64();
        self.refs.push(dt);
        dt
    }

    /// Time one set-up repetition, keeping the built value.
    fn setup<T>(&mut self, build: impl FnOnce() -> Result<T, MpcError>) -> Result<T, MpcError> {
        let t = Instant::now();
        let built = build()?;
        let dt = t.elapsed().as_secs_f64();
        let r = self.reference();
        self.setups.push(dt / r);
        Ok(built)
    }

    /// Record loop step `index` (timed after `warmup`); every `every`
    /// steps run one set-up repetition. The step after it runs on caches
    /// the set-up evicted, so it stays untimed.
    fn after_step<T>(
        &mut self,
        index: u64,
        dt: Duration,
        (warmup, every): (u64, u64),
        build: impl FnOnce() -> Result<T, MpcError>,
    ) -> Result<(), MpcError> {
        // Every step, timed or not, is followed by the reference, so every
        // step starts after the same sweep.
        let r = self.reference();
        if index >= warmup && index % every != 1 {
            let dt = dt.as_secs_f64();
            self.raw_steps.push(dt);
            self.steps.push(dt / r);
        }
        if index.is_multiple_of(every) {
            self.setup(build)?;
        }
        Ok(())
    }
}

/// Per-run bookkeeping of the outputs: failures, the digest over the
/// deterministic window and the simulated statistics.
struct Outputs {
    names: Vec<String>,
    checkers: Vec<RoundChecker>,
    digest: Digest,
    sim: Vec<SimStats>,
    attempted: u64,
    failed: u64,
}

impl Outputs {
    fn new(workload: &Workload) -> Self {
        Outputs {
            names: workload.specs.iter().map(|s| s.name.clone()).collect(),
            checkers: workload
                .specs
                .iter()
                .map(|s| RoundChecker::new(&s.config))
                .collect(),
            digest: Digest::new(),
            sim: workload.specs.iter().map(|_| SimStats::default()).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    fn observe(&mut self, dep: usize, report: &RoundReport, in_window: bool) {
        self.attempted += 1;
        if let Err(why) = self.checkers[dep].check(report) {
            if self.failed < 5 {
                eprintln!("wrong output of {}: {why}", self.names[dep]);
            }
            self.failed += 1;
        }
        if in_window {
            self.digest.add(report);
            self.sim[dep].add(report);
        }
    }

    fn error(&mut self, rounds: u64, err: &dyn std::fmt::Display) {
        eprintln!("round error: {err}");
        self.attempted += rounds;
        self.failed += rounds;
    }
}

pub fn run(workload: &Workload, seconds: f64) -> Result<RunResult, MpcError> {
    let budget = Duration::from_secs_f64(seconds);
    let mut out = Outputs::new(workload);
    let mut host = HostTime::new();
    let rounds_per_step;
    let workers;
    match workload.shape {
        Shape::Driver => {
            let spec = &workload.specs[0];
            let deployment = host.setup(|| build_deployment(spec))?;
            workers = 1;
            rounds_per_step = 1.0;
            let mut driver = deployment.driver();
            let start = Instant::now();
            for index in 0.. {
                let t = Instant::now();
                let step = driver.step();
                let dt = t.elapsed();
                match step {
                    Ok(report) => out.observe(0, &report, index < DRIVER_WINDOW),
                    Err(e) => {
                        out.error(1, &e);
                        break;
                    }
                }
                host.after_step(index, dt, (DRIVER_WARMUP, DRIVER_SETUP_EVERY), || {
                    build_deployment(spec)
                })?;
                if index + 1 >= DRIVER_WINDOW && start.elapsed() >= budget {
                    break;
                }
            }
        }
        Shape::Fleet { workers: w } => {
            let engine = host.setup(|| build_engine(&workload.specs, w))?;
            workers = w;
            rounds_per_step = workload.specs.len() as f64;
            let start = Instant::now();
            for tick in 0.. {
                let t = Instant::now();
                let advanced = engine.advance_recorded(1);
                let dt = t.elapsed();
                match advanced {
                    Ok(per_dep) => {
                        for (dep, reports) in per_dep.iter().enumerate() {
                            for report in reports {
                                out.observe(dep, report, tick < FLEET_WINDOW);
                            }
                        }
                    }
                    Err(e) => {
                        out.error(workload.specs.len() as u64, &e);
                        break;
                    }
                }
                host.after_step(tick, dt, (FLEET_WARMUP, FLEET_SETUP_EVERY), || {
                    build_engine(&workload.specs, w)
                })?;
                if tick + 1 >= FLEET_WINDOW && start.elapsed() >= budget {
                    break;
                }
            }
        }
    }

    let lanes: f64 = workload
        .specs
        .iter()
        .map(|s| s.config.batch as f64)
        .sum::<f64>()
        / workload.specs.len() as f64;
    // Host figures: each sample's ratio to its reference time, in seconds
    // of a host on which the reference kernel takes REF_NOMINAL_S.
    let scaled =
        |ratios: &[f64]| -> Vec<f64> { ratios.iter().map(|r| r * REF_NOMINAL_S).collect() };
    let step_s = scaled(&host.steps);
    let rounds_per_s =
        step_s.len() as f64 * rounds_per_step / step_s.iter().sum::<f64>().max(1e-12);
    let step_ms: Vec<f64> = step_s.iter().map(|s| s * 1e3).collect();
    let sim = summarize(&out.sim);
    let metrics = vec![
        Metric::new("setup_s", percentile(&scaled(&host.setups), 0.5), "s"),
        Metric::new("rounds_per_s", rounds_per_s, "1/s"),
        Metric::new("values_per_s", rounds_per_s * lanes, "1/s"),
        Metric::new("step_ms_p50", percentile(&step_ms, 0.5), "ms"),
        Metric::new("step_ms_p99", percentile(&step_ms, 0.99), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("sim_latency_ms_p50", sim.latency_ms_p50, "ms"),
        Metric::new("sim_radio_on_ms_mean", sim.radio_on_ms_mean, "ms"),
        Metric::new("node_success", sim.node_success, "ratio"),
        Metric::new("recovery_rate", sim.recovery_rate, "ratio"),
    ];
    let unscaled_rounds_per_s = host.raw_steps.len() as f64 * rounds_per_step
        / host.raw_steps.iter().sum::<f64>().max(1e-12);
    let mut context = host_context(workload, workers);
    context.push(("step_samples", step_ms.len().to_string()));
    context.push(("setup_samples", host.setups.len().to_string()));
    context.push((
        "ref_us_p50",
        format!("{}", percentile(&host.refs, 0.5) * 1e6),
    ));
    context.push(("unscaled_rounds_per_s", format!("{unscaled_rounds_per_s}")));
    context.push((
        "unscaled_step_ms_p50",
        format!("{}", percentile(&host.raw_steps, 0.5) * 1e3),
    ));
    context.push((
        "error_rate",
        format!("{}", crate::check::ratio(out.failed, out.attempted)),
    ));
    context.push(("report_digest", out.digest.hex()));
    Ok(RunResult {
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        context,
    })
}

/// Peak resident set of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and operating-point facts every result carries.
pub fn host_context(workload: &Workload, workers: usize) -> Vec<(&'static str, String)> {
    let list = |f: &dyn Fn(&DeploymentSpec) -> String| {
        let mut items: Vec<String> = workload.specs.iter().map(f).collect();
        items.sort();
        items.dedup();
        items.join(",")
    };
    vec![
        ("workload", workload.name.to_string()),
        (
            "backend",
            ppda_field::packed::backend_name::<ppda_mpc::Field>().to_string(),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("workers", workers.to_string()),
        ("deployments", workload.specs.len().to_string()),
        ("lanes", list(&|s| s.config.batch.to_string())),
        ("protocol", list(&|s| s.protocol.name().to_string())),
        (
            "integrity",
            list(&|s| {
                if s.config.integrity.is_on() {
                    "on"
                } else {
                    "off"
                }
                .to_string()
            }),
        ),
    ]
}
