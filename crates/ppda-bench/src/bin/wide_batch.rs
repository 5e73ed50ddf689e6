//! Wide-batch sweep: the simulated on-air cost of lane width B, across
//! the single-frame cap (B ≤ 23 at the default tag length) and into
//! fragmented territory (B > 23: share and sum packets span multiple
//! 802.15.4 frames).
//!
//! ```text
//! cargo run -p ppda-bench --release --bin wide_batch -- \
//!     [--testbed flocklab|dcube|both] [--sources K] [--iterations N] \
//!     [--seed S] [--batches 1,8,23,64,256]
//! ```
//!
//! Each sweep point runs a fault-free S4 campaign at lane width B and
//! reports the fragment count of both phases, the per-round latency and
//! radio-on time (which grow with the fragment count, because every
//! chain slot now carries `fragments` frames) and node success (which
//! falls with it, because losing one fragment loses the packet). Every
//! column is simulated, so the table is a pure function of the seed;
//! host-side cost per lane width is the `campaign_throughput` criterion
//! bench's job.

use ppda_bench::{arg_value, run_campaign, Protocol, TestbedSetup};
use ppda_metrics::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let testbed = arg_value(&args, "--testbed").unwrap_or_else(|| "both".into());
    let sources_override: Option<usize> =
        arg_value(&args, "--sources").map(|v| v.parse().expect("--sources must be a number"));
    let iterations: u64 = arg_value(&args, "--iterations")
        .map(|v| v.parse().expect("--iterations must be a number"))
        .unwrap_or(40);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed must be a number"))
        .unwrap_or(7);
    let batches: Vec<usize> = arg_value(&args, "--batches")
        .map(|v| {
            v.split(',')
                .map(|b| b.trim().parse().expect("--batches must be numbers"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 8, 16, 23, 32, 64, 128, 256]);

    let setups: Vec<TestbedSetup> = match testbed.as_str() {
        "both" => vec![TestbedSetup::flocklab(), TestbedSetup::dcube()],
        name => vec![TestbedSetup::by_name(name)
            .unwrap_or_else(|| panic!("unknown testbed {name} (flocklab|dcube)"))],
    };

    let mut table = Table::new(vec![
        "testbed",
        "B",
        "frags (share/sum)",
        "latency ms",
        "radio-on ms",
        "success",
    ]);
    for setup in &setups {
        let topology = setup.topology();
        let sources = sources_override.unwrap_or(6);
        for &batch in &batches {
            let config = setup
                .config_wide(sources, batch)
                .unwrap_or_else(|e| panic!("B={batch} on {}: {e}", setup.name));
            let result = run_campaign(Protocol::S4, &topology, &config, iterations, seed)
                .unwrap_or_else(|e| panic!("campaign B={batch} on {}: {e}", setup.name));
            table.row(vec![
                setup.name.to_string(),
                batch.to_string(),
                format!("{}/{}", config.share_fragments(), config.sum_fragments()),
                format!("{:.1}", result.latency_ms.mean()),
                format!("{:.2}", result.radio_on_ms.mean()),
                format!("{:.3}", result.node_success),
            ]);
        }
    }
    println!("\n=== wide batch — on-air cost vs lane width ===");
    print!("{table}");
}
