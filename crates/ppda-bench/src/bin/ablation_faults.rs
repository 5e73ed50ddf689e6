//! Ablation: fault tolerance (paper §III).
//!
//! ```text
//! cargo run -p ppda-bench --release --bin ablation_faults -- [--iterations N]
//! ```
//!
//! "When a degree k polynomial is used … the final polynomial can be formed
//! by combining any k + 1 sum values. This alleviates the need for strict
//! all-to-all sharing … also making the protocol fault-tolerant."
//!
//! We kill f random non-source relay/aggregator nodes per round and check
//! whether the surviving nodes still aggregate correctly. S4 tolerates
//! aggregator failures up to its redundancy; S3's strict all-to-all
//! discipline collapses as soon as any sum-share holder dies.
//!
//! A third table sweeps seeded link loss, then node dropout at 20% loss,
//! on FlockLab S4 with 24 sources (campaign seed 0xBA7C, fault seed
//! 0xFA17) and reports node success and the recovery rate: the fraction
//! of rounds whose surviving sum shares still reached the reconstruction
//! threshold.

use ppda_bench::{arg_value, run_campaign_faulty, Protocol, TestbedSetup};
use ppda_metrics::Table;
use ppda_mpc::{Deployment, FaultPlan, ProtocolConfig, ProtocolKind};
use ppda_radio::FadingProfile;
use ppda_sim::{derive_stream, Xoshiro256};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iterations: u64 = arg_value(&args, "--iterations")
        .map(|v| v.parse().expect("--iterations must be a number"))
        .unwrap_or(40);

    for setup in [TestbedSetup::flocklab(), TestbedSetup::dcube()] {
        let n = setup.topology().len();
        // Half the nodes are sources; the rest are fault candidates, so a
        // failure removes an aggregator/relay but never a reading. The
        // channel is kept calm (no round fading) to isolate the effect of
        // the injected crashes.
        let sources = n / 2;
        let config = ProtocolConfig::builder(n)
            .sources(sources)
            .ntx_sharing(setup.s4_ntx)
            .ntx_reconstruction(setup.s4_ntx)
            .full_coverage_ntx(setup.s3_ntx)
            .aggregator_redundancy(setup.redundancy)
            .fading(FadingProfile::none())
            .build()
            .expect("valid config");
        let source_set: Vec<u16> = config.sources.clone();
        let round_id = config.round_id;
        // One compiled deployment per variant, shared by every sweep point.
        let deploy = |kind| {
            Deployment::builder()
                .topology(setup.topology())
                .config(config.clone())
                .protocol(kind)
                .build()
                .expect("deployment compiles")
        };
        let s3_deployment = deploy(ProtocolKind::S3);
        let s4_deployment = deploy(ProtocolKind::S4);
        let mut s3_driver = s3_deployment.driver();
        let mut s4_driver = s4_deployment.driver();

        let mut table = Table::new(vec![
            "failed nodes",
            "S3 surviving-node success",
            "S4 surviving-node success",
            "S3 completes round",
        ]);
        for f in [0usize, 1, 2, 3, 5] {
            let mut s3_ok = 0usize;
            let mut s4_ok = 0usize;
            let mut total = 0usize;
            let mut s3_complete = 0usize;
            for it in 0..iterations {
                let seed = derive_stream(0xFA17, it);
                // Choose f failed nodes among non-sources, deterministically.
                let mut rng = Xoshiro256::seed_from(derive_stream(seed, 99));
                let mut failed = vec![false; n];
                let candidates: Vec<usize> = (0..n)
                    .filter(|v| !source_set.contains(&(*v as u16)))
                    .collect();
                let mut killed = 0;
                while killed < f {
                    let pick = candidates[rng.below(candidates.len() as u64) as usize];
                    if !failed[pick] {
                        failed[pick] = true;
                        killed += 1;
                    }
                }
                let secrets: Vec<u64> = (0..sources as u64).map(|i| 100 + i).collect();
                let s3 = s3_driver
                    .round_at_with(round_id, seed, &secrets, &failed)
                    .expect("S3 round")
                    .outcome;
                let s4 = s4_driver
                    .round_at_with(round_id, seed, &secrets, &failed)
                    .expect("S4 round")
                    .outcome;
                if s3.max_latency_ms().is_some() {
                    s3_complete += 1;
                }
                for node in s3.live_nodes() {
                    total += 1;
                    if node.aggregates.as_deref() == Some(&s3.expected_sums[..]) {
                        s3_ok += 1;
                    }
                }
                for node in s4.live_nodes() {
                    if node.aggregates.as_deref() == Some(&s4.expected_sums[..]) {
                        s4_ok += 1;
                    }
                }
            }
            table.row(vec![
                f.to_string(),
                format!("{:.3}", s3_ok as f64 / total as f64),
                format!("{:.3}", s4_ok as f64 / total as f64),
                format!("{:.3}", s3_complete as f64 / iterations as f64),
            ]);
        }
        println!(
            "\n=== {} — node-failure injection ({} sources, {} iterations/point) ===",
            setup.name, sources, iterations
        );
        print!("{table}");
    }
    recovery_vs_link_loss(iterations);
}

/// Recovery rate under seeded link loss and node dropout (FlockLab S4,
/// 24 sources): every link PRR is scaled by `1 - loss`, and every node
/// independently misses a round with probability `dropout`.
fn recovery_vs_link_loss(iterations: u64) {
    let setup = TestbedSetup::flocklab();
    let sources = 24;
    let topology = setup.topology();
    let config = setup.config(sources).expect("valid config");
    let points = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        .map(|loss| (loss, 0.0))
        .into_iter()
        .chain([0.05, 0.10, 0.20].map(|dropout| (0.2, dropout)));
    let mut table = Table::new(vec!["loss", "dropout", "node ok", "recovery"]);
    for (loss, dropout) in points {
        let faults = FaultPlan::lossy(0xFA17, loss).with_dropout(dropout);
        let result = run_campaign_faulty(
            Protocol::S4,
            &topology,
            &config,
            iterations,
            0xBA7C,
            &faults,
        )
        .expect("campaign runs");
        table.row(vec![
            format!("{loss:.2}"),
            format!("{dropout:.2}"),
            format!("{:.2}", result.node_success),
            format!("{:.2}", result.recovery_rate),
        ]);
    }
    println!(
        "\n=== {} S4 — recovery vs link loss and dropout ({} sources, {} iterations/point) ===",
        setup.name, sources, iterations
    );
    print!("{table}");
}
