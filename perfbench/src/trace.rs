//! The traced run: the workload's real loop, each round replayed layer by
//! layer and checked against the program's report, with the per-layer
//! metrics taken from the replay's spans.

use std::time::{Duration, Instant};

use ppda_metrics::CampaignAccumulator;
use ppda_mpc::{Deployment, MembershipTimeline, MpcError, RoundObserver, RoundPlan, RoundReport};
use ppda_service::DeploymentSpec;

use crate::check::percentile;
use crate::replay::{Exec, Layers, Shadow};
use crate::run::{build_deployment, build_engine, host_context, Metric, RunResult};
use crate::workloads::{Shape, Workload};

/// Rounds (driver) or ticks (fleet) replayed before the spans count.
const WARMUP: u64 = 5;
const COMPILE_REPS: usize = 5;

/// Host time of every timed program step and replay, plus the layer spans.
#[derive(Default)]
struct Tally {
    layers: Layers,
    /// Untraced program step time per replayed round, summed.
    step_ns: u64,
    /// Wall time of the replay calls themselves, summed.
    replay_ns: u64,
    observe_ns: u64,
    weight_masks: u64,
    weight_evictions: u64,
    ticks: u64,
    tick_ns: u64,
    steals: u64,
    imbalance: f64,
    overhead_ns: f64,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Replay one round and check it against the program's report.
fn replay_checked(
    shadow: &mut Shadow,
    exec: &mut Exec,
    tally: &mut Tally,
    acc: &mut CampaignAccumulator,
    report: &RoundReport,
    (round_id, seed): (u32, u64),
) -> Result<(), String> {
    if (report.round_id, report.seed) != (round_id, seed) {
        return Err(format!(
            "round {round_id}: the program ran coordinates ({}, {})",
            report.round_id, report.seed
        ));
    }
    let t = Instant::now();
    let replayed = shadow.round(exec, &mut tally.layers, round_id, seed)?;
    tally.replay_ns += ns(t);
    replayed
        .compare(report)
        .map_err(|e| format!("round {round_id}: replay mismatch in {e}"))?;
    let t = Instant::now();
    acc.on_round(report);
    tally.observe_ns += ns(t);
    Ok(())
}

/// Median time to compile the workload's plans (and membership timelines).
fn compile_us(specs: &[DeploymentSpec]) -> Result<f64, MpcError> {
    let mut times = Vec::with_capacity(COMPILE_REPS);
    for _ in 0..COMPILE_REPS {
        let t = Instant::now();
        for spec in specs {
            let plan = RoundPlan::new(&spec.topology, &spec.config, spec.protocol)?;
            if !spec.membership.is_empty() {
                MembershipTimeline::compile(
                    plan.bootstrap(),
                    plan.config(),
                    &spec.membership,
                    &spec.trickle,
                    spec.seed,
                )?;
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(percentile(&times, 0.5))
}

pub fn run(workload: &Workload, seconds: f64) -> Result<RunResult, String> {
    let budget = Duration::from_secs_f64(seconds);
    let compile = compile_us(&workload.specs).map_err(|e| e.to_string())?;
    let mut shadows = workload
        .specs
        .iter()
        .map(Shadow::new)
        .collect::<Result<Vec<_>, _>>()?;
    let mut tally = Tally::default();
    let mut acc = CampaignAccumulator::new();
    let mut attempted = 0u64;
    let workers;
    let start = Instant::now();
    match workload.shape {
        Shape::Driver => {
            workers = 1;
            let spec = &workload.specs[0];
            let deployment = build_deployment(spec).map_err(|e| e.to_string())?;
            let mut driver = deployment.driver();
            let mut exec = Exec::new(&spec.config);
            let mut warm = (0, 0);
            for index in 0.. {
                if index == WARMUP {
                    tally = Tally::default();
                    warm = exec.weight_work();
                }
                let t = Instant::now();
                let report = driver.step().map_err(|e| e.to_string())?;
                tally.step_ns += ns(t);
                attempted += 1;
                replay_checked(
                    &mut shadows[0],
                    &mut exec,
                    &mut tally,
                    &mut acc,
                    &report,
                    deployment.round_coordinates(index),
                )?;
                if start.elapsed() >= budget && index >= WARMUP {
                    break;
                }
            }
            let (masks, evictions) = exec.weight_work();
            tally.weight_masks = masks - warm.0;
            tally.weight_evictions = evictions - warm.1;
        }
        Shape::Fleet { workers: w } => {
            workers = w;
            let engine = build_engine(&workload.specs, w).map_err(|e| e.to_string())?;
            let deployments = workload
                .specs
                .iter()
                .map(build_deployment)
                .collect::<Result<Vec<Deployment>, _>>()
                .map_err(|e| e.to_string())?;
            for tick in 0.. {
                if tick == WARMUP {
                    tally = Tally::default();
                }
                let t = Instant::now();
                let stats = engine.advance(1).map_err(|e| e.to_string())?;
                let tick_ns = ns(t);
                let mut single_ns = 0u64;
                for (dep, spec) in workload.specs.iter().enumerate() {
                    attempted += 1;
                    // The tick's round of this deployment on a fresh
                    // single-threaded driver, as each engine span runs it:
                    // its time is the untraced step the spans must cover.
                    let t = Instant::now();
                    let report = deployments[dep]
                        .driver()
                        .step_at(tick)
                        .map_err(|e| e.to_string())?;
                    let step = ns(t);
                    single_ns += step;
                    tally.step_ns += step;
                    let mut exec = Exec::new(&spec.config);
                    replay_checked(
                        &mut shadows[dep],
                        &mut exec,
                        &mut tally,
                        &mut acc,
                        &report,
                        spec.coordinates(tick),
                    )?;
                    let (masks, evictions) = exec.weight_work();
                    tally.weight_masks += masks;
                    tally.weight_evictions += evictions;
                }
                tally.ticks += 1;
                tally.tick_ns += tick_ns;
                tally.steals += stats.steals;
                let max = stats.per_worker.iter().copied().max().unwrap_or(0) as f64;
                let mean = stats.per_worker.iter().sum::<u64>() as f64
                    / stats.per_worker.len().max(1) as f64;
                tally.imbalance += if mean > 0.0 { max / mean } else { 1.0 };
                tally.overhead_ns += tick_ns as f64 - single_ns as f64 / w as f64;
                if start.elapsed() >= budget && tick >= WARMUP {
                    break;
                }
            }
        }
    }

    let mut context = host_context(workload, workers);
    context.push(("replayed_rounds", tally.layers.rounds.to_string()));
    Ok(RunResult {
        attempted,
        failed: 0,
        metrics: per_layer(&tally, compile),
        context,
    })
}

fn per_layer(t: &Tally, compile_us: f64) -> Vec<Metric> {
    let l = &t.layers;
    let rounds = l.rounds.max(1) as f64;
    let ticks = t.ticks.max(1) as f64;
    let per_round_us = |ns: u64| ns as f64 / 1e3 / rounds;
    let per_round = |count: u64| count as f64 / rounds;
    let per_tick_us = |ns: f64| ns / 1e3 / ticks;
    let us = "us/round";
    let count = "count/round";
    let rate = |ns: u64| {
        if ns == 0 {
            0.0
        } else {
            rounds * 1e9 / ns as f64
        }
    };
    let m = Metric::new;
    vec![
        m("ct.sharing_flood_us", per_round_us(l.sharing_flood_ns), us),
        m("ct.recon_flood_us", per_round_us(l.recon_flood_ns), us),
        m("ct.sharing_cycles_run", per_round(l.sharing_cycles), count),
        m("ct.receptions", per_round(l.receptions), count),
        m(
            "ct.useful_reception_ratio",
            crate::check::ratio(l.useful_receptions, l.receptions),
            "ratio",
        ),
        m("ct.link_conditions_us", per_round_us(l.link_ns), us),
        m("ct.link_cache_hits", per_round(l.link_hits), count),
        m("ct.link_cache_builds", per_round(l.link_builds), count),
        m("ct.faults_us", per_round_us(l.faults_ns), us),
        m("crypto.readings_us", per_round_us(l.readings_ns), us),
        m("crypto.aes_blocks", per_round(l.aes_blocks), count),
        m("sss.split_us", per_round_us(l.split_ns), us),
        m("sss.seal_us", per_round_us(l.seal_ns), us),
        m("sss.sealed_packets", per_round(l.sealed_packets), count),
        m("sss.sealed_bytes", per_round(l.sealed_bytes), "bytes/round"),
        m("sss.open_us", per_round_us(l.open_self_ns()), us),
        m("sss.opened_packets", per_round(l.opened_packets), count),
        m("sss.reconstruct_us", per_round_us(l.reconstruct_ns), us),
        m("sss.weight_cache_masks", per_round(t.weight_masks), count),
        m(
            "sss.weight_cache_evictions",
            per_round(t.weight_evictions),
            count,
        ),
        m("integrity.commit_us", per_round_us(l.commit_ns), us),
        m("integrity.audit_us", per_round_us(l.audit_ns), us),
        m("radio.fragment_us", per_round_us(l.fragment_ns), us),
        m("radio.fragments", per_round(l.fragments), count),
        m("mpc.compile_us", compile_us, "us"),
        m("mpc.patch_us", per_round_us(l.patch_ns), us),
        m("mpc.patches", per_round(l.patches), count),
        m("service.tick_us", per_tick_us(t.tick_ns as f64), "us/tick"),
        m("service.steals", t.steals as f64 / ticks, "count/tick"),
        m("service.worker_imbalance", t.imbalance / ticks, "ratio"),
        m("service.overhead_us", per_tick_us(t.overhead_ns), "us/tick"),
        m("metrics.observe_us", per_round_us(t.observe_ns), us),
        m(
            "trace.coverage",
            l.span_ns() as f64 / t.step_ns.max(1) as f64,
            "ratio",
        ),
        m(
            "trace.rounds_per_s_gap",
            rate(t.step_ns) - rate(t.replay_ns),
            "1/s",
        ),
    ]
}
