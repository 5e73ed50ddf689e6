//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_b1|wide_b64_audit|fleet_churn_lossy \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload's closed loop untraced and prints the
//! end-to-end metrics; `--trace 1` runs the layer replay and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and every metric.

mod check;
mod replay;
mod run;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::RunResult;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    let seed = match value("--seed")? {
        Some(v) => v.parse().map_err(|_| format!("--seed {v}: not a number"))?,
        None => 1,
    };
    let seconds: f64 = match value("--seconds")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seconds {v}: not a number"))?,
        None => 10.0,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match workloads::build(&args.workload, args.seed) {
        Some(Ok(w)) => w,
        Some(Err(e)) => {
            eprintln!(
                "perfbench: workload {} does not compile: {e}",
                args.workload
            );
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!(
                "perfbench: unknown workload {} (one of {})",
                args.workload,
                workloads::NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        trace::run(&workload, args.seconds)
    } else {
        run::run(&workload, args.seconds).map_err(|e| e.to_string())
    };
    match result {
        Ok(result) => report(&args, &result),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the human-readable lines, then the JSON result as the last line.
fn report(args: &Args, result: &RunResult) -> ExitCode {
    println!("seed {}", args.seed);
    for (key, value) in &result.context {
        println!("{key} {value}");
    }
    for m in &result.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let correct = result.failed == 0 && result.attempted > 0;
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
