//! End-to-end and per-layer benchmark of the ContinuStreaming simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload lossy_churn --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: whole-workload runs with
//! tracing off for about `--seconds` seconds, plus five separate
//! set-ups. `--trace 1` reports the per-layer metrics from an untraced
//! and a traced run of the simulator and of the twin, and the simulated
//! outcome on `--seed`. Every measured run uses the workload's pinned
//! seed (see `METRICS.md`). Both modes check that the outputs are
//! correct and end with one JSON line: `{"correct", "attempted",
//! "failed", "metrics"}`. `attempted` counts simulated rounds; `failed`
//! counts the rounds of runs that failed a correctness check.

mod metrics;
mod runner;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metrics;
use runner::{run_sim, run_twin, setup, Run, SetupTimes, Workload, PINNED_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-ups timed per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {}, twin workers {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        runner::TWIN_WORKERS,
    );
    let setups: Vec<SetupTimes> = (0..SETUP_REPS)
        .map(|_| setup(args.workload, PINNED_SEED).0)
        .collect();
    let out = if args.trace {
        per_layer(&args, &setups)
    } else {
        end_to_end(&args, &setups)
    };
    match out {
        Ok(m) => {
            println!("{}", m.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Untraced whole-workload runs for `--seconds`, plus the checks.
fn end_to_end(args: &Args, setups: &[SetupTimes]) -> Result<Metrics, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    // Read after the first run: later runs reuse freed memory unevenly,
    // and their number depends on the host's speed.
    let mut peak_rss_mb = None;
    // Whole runs only, at least two (so that the check below compares
    // repeated runs); another starts while it is expected (at the mean
    // run time so far) to end within the budget.
    loop {
        runs.push(if w.is_twin() {
            run_twin(w, PINNED_SEED, false)
        } else {
            run_sim(w, PINNED_SEED, false)
        });
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(metrics::peak_rss_mb()?);
        }
        let per_run = start.elapsed() / runs.len() as u32;
        if runs.len() >= 2 && start.elapsed() + per_run > budget {
            break;
        }
    }
    println!(
        "{} timed runs in {:.3} s; round loop seconds: {:?}",
        runs.len(),
        start.elapsed().as_secs_f64(),
        runs.iter()
            .map(|r| r.loop_ns() as f64 / 1e9)
            .collect::<Vec<_>>()
    );
    // The twin's reference: the simulator on the same inputs, which is
    // also where the per-node continuity distribution is collected.
    let reference = w.is_twin().then(|| run_sim(w, PINNED_SEED, false));
    let checked: Vec<&Run> = runs.iter().chain(&reference).collect();
    let mut checks = metrics::Checks::default();
    checks.same_outcome("repeated runs", &checked);
    checks.twin_wire(&checked);
    let mut m = Metrics::new(checks);
    m.end_to_end(
        setups,
        &runs,
        peak_rss_mb.expect("at least one run"),
        reference.as_ref().unwrap_or(&runs[0]),
    )?;
    Ok(m)
}

/// The per-layer runs, all on the workload's pinned inputs: an untraced
/// and a traced simulator run interleaved round by round, an untraced
/// twin run interleaved with an untraced simulator run, and a traced
/// twin run. Plus one simulator run on `--seed` for the `outcome.*`
/// metrics.
fn per_layer(args: &Args, setups: &[SetupTimes]) -> Result<Metrics, String> {
    let w = args.workload;
    let (sim_plain, sim_traced) = runner::run_sim_pair(w, PINNED_SEED);
    let (twin_plain, sim_beside_twin) = runner::run_twin_pair(w, PINNED_SEED);
    let twin_traced = run_twin(w, PINNED_SEED, true);
    let seeded = run_sim(w, args.seed, false);
    let runs = metrics::LayerRuns {
        sim_beside_twin,
        sim_plain,
        sim_traced,
        twin_plain,
        twin_traced,
    };
    let mut checks = metrics::Checks::default();
    checks.same_outcome("pinned-seed runs", &runs.all());
    checks.twin_wire(&runs.all());
    checks.same_outcome(&format!("seed {}", args.seed), &[&seeded]);
    let spans_path = metrics::write_spans(w, &runs)?;
    println!("spans written to {spans_path}");
    let mut m = Metrics::new(checks);
    m.per_layer(setups, &runs, w.is_twin())?;
    m.outcomes(&seeded, "outcome.")?;
    Ok(m)
}
