//! Ablation: the non-linear coverage-vs-NTX behaviour of MiniCast (paper
//! §III) and its consequence for S4's operating point.
//!
//! ```text
//! cargo run -p ppda-bench --release --bin ablation_ntx -- [--iterations N]
//! ```
//!
//! Part 1 reproduces the observation S4 is built on: "with a short increase
//! in NTX, a large amount of data becomes available in a node, while it
//! takes a comparatively higher time (NTX) to have the full network
//! coverage". Part 2 sweeps S4's NTX directly, showing the
//! reliability/cost knee at the values the deployments use.

use ppda_bench::{arg_value, run_campaign, Protocol, TestbedSetup};
use ppda_ct::MiniCastSchedule;
use ppda_metrics::Table;
use ppda_radio::FrameSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iterations: u64 = arg_value(&args, "--iterations")
        .map(|v| v.parse().expect("--iterations must be a number"))
        .unwrap_or(40);

    println!("=== Part 1: MiniCast all-to-all coverage vs NTX ===");
    let frame = FrameSpec::new(8, 0).expect("probe frame fits");
    let ntx_values: Vec<u32> = (1..=16).collect();
    let mut table = Table::new(vec!["NTX", "flocklab coverage", "dcube coverage"]);
    let fl = MiniCastSchedule::coverage_vs_ntx(
        &TestbedSetup::flocklab().topology(),
        frame,
        &ntx_values,
        iterations as u32,
        0xC0FE,
    );
    let dc = MiniCastSchedule::coverage_vs_ntx(
        &TestbedSetup::dcube().topology(),
        frame,
        &ntx_values,
        iterations as u32,
        0xC0FE,
    );
    for ((ntx, cfl), (_, cdc)) in fl.iter().zip(&dc) {
        table.row(vec![
            ntx.to_string(),
            format!("{:.4}", cfl),
            format!("{:.4}", cdc),
        ]);
    }
    print!("{table}");
    println!(
        "\nNote the knee: coverage exceeds 90% within a handful of NTX, while\n\
         the last few percent (full coverage, which naive S3 must have) cost\n\
         several more — exactly the asymmetry S4 exploits.\n"
    );

    println!("=== Part 2: S4 reliability and cost vs NTX ===");
    for setup in [TestbedSetup::flocklab(), TestbedSetup::dcube()] {
        let topology = setup.topology();
        let mut table = Table::new(vec![
            "NTX",
            "node success",
            "round success",
            "latency ms",
            "radio-on ms",
        ]);
        for ntx in 3..=10u32 {
            let mut probe = setup.clone();
            probe.s4_ntx = ntx;
            let config = probe.config(topology.len()).expect("valid config");
            let r = run_campaign(Protocol::S4, &topology, &config, iterations, 0xAB1A)
                .expect("S4 campaign");
            table.row(vec![
                ntx.to_string(),
                format!("{:.3}", r.node_success),
                format!("{:.3}", r.round_success),
                format!("{:.0}", r.latency_ms.mean()),
                format!("{:.0}", r.radio_on_ms.mean()),
            ]);
        }
        println!("\n{} (operating point: NTX {}):", setup.name, setup.s4_ntx);
        print!("{table}");
    }
}
