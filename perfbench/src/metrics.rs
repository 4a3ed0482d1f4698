//! Correctness checks, metric derivation and the result line.

use std::fmt::Write as _;

use continustreaming::core::{FaultRoundRecord, RoundRecord};
use continustreaming::net::{TrafficClass, TrafficCounter};
use continustreaming::obs::Phase;

use crate::runner::{Run, SetupTimes, Workload, ROUNDS};

/// Failed correctness checks of one invocation.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    /// Every run must reproduce the first one: same `RunReport`
    /// fingerprint, same per-round records, telemetry, fault trace and
    /// engine counters, and the full number of rounds.
    pub fn same_outcome(&mut self, what: &str, runs: &[&Run]) {
        let first = runs[0];
        println!(
            "{what}: {} runs, fingerprint {:#018x}",
            runs.len(),
            first.fingerprint()
        );
        for (i, r) in runs.iter().enumerate() {
            if r.report.rounds.len() != ROUNDS as usize {
                self.failures.push(format!(
                    "{what}: run {i} stopped after {} of {ROUNDS} rounds",
                    r.report.rounds.len()
                ));
            }
            if r.fingerprint() != first.fingerprint()
                || r.report.rounds != first.report.rounds
                || r.telemetry != first.telemetry
                || r.faults != first.faults
                || r.engine != first.engine
            {
                self.failures.push(format!(
                    "{what}: run {i} differs from run 0 (fingerprint {:#018x} vs {:#018x})",
                    r.fingerprint(),
                    first.fingerprint()
                ));
            }
        }
    }

    /// Every twin run must deliver each announcement unchanged and on
    /// time (its outcome is compared by `same_outcome`).
    pub fn twin_wire(&mut self, runs: &[&Run]) {
        for wire in runs.iter().filter_map(|r| r.twin) {
            if wire.divergences != 0 || wire.late != 0 {
                self.failures.push(format!(
                    "twin: {} divergences, {} late envelopes",
                    wire.divergences, wire.late
                ));
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The runs of a `--trace 1` invocation, all on the pinned inputs.
pub struct LayerRuns {
    /// Untraced simulator run interleaved with `twin_plain`.
    pub sim_beside_twin: Run,
    /// Untraced and traced simulator runs, interleaved round by round.
    pub sim_plain: Run,
    pub sim_traced: Run,
    pub twin_plain: Run,
    pub twin_traced: Run,
}

impl LayerRuns {
    pub fn all(&self) -> [&Run; 5] {
        [
            &self.sim_beside_twin,
            &self.sim_plain,
            &self.sim_traced,
            &self.twin_plain,
            &self.twin_traced,
        ]
    }
}

/// The metrics of one invocation, in print order.
pub struct Metrics {
    checks: Checks,
    attempted: u64,
    values: Vec<(String, f64, &'static str)>,
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when nothing was done (`den == 0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn medians(setups: &[SetupTimes]) -> (f64, f64, f64, f64) {
    let pick = |f: &dyn Fn(&SetupTimes) -> u64| {
        median(&mut setups.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    (
        pick(&|s| s.total_ns()),
        pick(&|s| s.spec_ns),
        pick(&|s| s.engine_ns),
        pick(&|s| s.sim_ns),
    )
}

fn alive_node_rounds(run: &Run) -> u64 {
    run.report.rounds.iter().map(|r| r.alive as u64).sum()
}

impl Metrics {
    pub fn new(checks: Checks) -> Self {
        for f in &checks.failures {
            println!("CHECK FAILED: {f}");
        }
        Metrics {
            checks,
            attempted: 0,
            values: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<36} {value:>16.6} {unit}");
        self.values.push((name.to_string(), value, unit));
    }

    /// A ratio, printed with its numerator and base.
    fn put_ratio(
        &mut self,
        name: &str,
        num: f64,
        num_what: &str,
        den: f64,
        den_what: &str,
        unit: &'static str,
    ) {
        self.put(name, ratio(num, den), unit);
        println!("{:<36} = {num:.1} {num_what} / {den:.1} {den_what}", "");
    }

    /// The extra host time of `run` over `base` on the same inputs: the
    /// median over rounds of the per-round time ratio, minus 1. Both
    /// runs do identical work round by round, and the median keeps a
    /// burst of host noise in either run out of the ratio.
    fn put_overhead(&mut self, name: &str, run: &Run, what: &str, base: &Run, base_what: &str) {
        let mut ratios: Vec<f64> = run
            .round_ns
            .iter()
            .zip(&base.round_ns)
            .map(|(&a, &b)| a as f64 / b as f64)
            .collect();
        let n = ratios.len();
        self.put(name, median(&mut ratios) - 1.0, "frac");
        println!(
            "{:<36} = median over {n} rounds of {what} / {base_what} round time; loops {:.3} s / {:.3} s",
            "",
            run.loop_ns() as f64 / 1e9,
            base.loop_ns() as f64 / 1e9
        );
    }

    pub fn end_to_end(
        &mut self,
        setups: &[SetupTimes],
        runs: &[Run],
        peak_rss_mb: f64,
        outcome: &Run,
    ) -> Result<(), String> {
        self.attempted = runs.iter().map(|r| r.report.rounds.len() as u64).sum();
        let (setup_ns, _, _, _) = medians(setups);
        self.put("setup_s", setup_ns / 1e9, "s");

        // Pooled over the runs: every run does the same work (checked), so
        // each is another sample of the same rounds, whatever their count.
        let loop_ns: u64 = runs.iter().map(Run::loop_ns).sum();
        let node_rounds: u64 = runs.iter().map(alive_node_rounds).sum();
        self.put_ratio(
            "node_rounds_per_s",
            node_rounds as f64,
            "alive node-rounds",
            loop_ns as f64 / 1e9,
            "s in the round loops",
            "node-rounds/s",
        );
        let mut samples: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.round_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        self.put("round_ms_p50", median(&mut samples), "ms");
        self.put("round_ms_p95", percentile(&samples, 0.95), "ms");
        let n = samples.len();
        let beyond = n - ((0.95 * n as f64).ceil() as usize).clamp(1, n);
        println!(
            "{:<36} = {n} round samples from {} runs; {beyond} beyond p95",
            "",
            runs.len()
        );
        self.put("peak_rss_mb", peak_rss_mb, "MB");

        self.outcomes(outcome, "")
    }

    /// The simulated outcomes of one run. Deterministic: every run of
    /// the same spec reproduces them exactly.
    pub fn outcomes(&mut self, first: &Run, prefix: &str) -> Result<(), String> {
        let s = &first.report.summary;
        self.put(
            &format!("{prefix}mean_continuity"),
            s.mean_continuity,
            "frac",
        );
        self.put(
            &format!("{prefix}stable_continuity"),
            s.stable_continuity,
            "frac",
        );
        let dist = first
            .report
            .summary
            .dist
            .as_ref()
            .ok_or("the run carries no per-node continuity distribution")?;
        self.put(
            &format!("{prefix}p99_node_continuity"),
            dist.continuity.p99,
            "frac",
        );
        println!(
            "{:<36} = over {} nodes (p50 {}, p95 {}, min {})",
            "",
            dist.continuity.count,
            dist.continuity.p50,
            dist.continuity.p95,
            dist.continuity.min
        );
        let due: u64 = first.report.rounds.iter().map(|r| r.playing as u64).sum();
        let missed: u64 = first
            .report
            .rounds
            .iter()
            .map(|r| (r.playing - r.continuous) as u64)
            .sum();
        if self.checks.passed() {
            self.put_ratio(
                &format!("{prefix}deadline_miss_frac"),
                missed as f64,
                "missed",
                due as f64,
                "deadlines due",
                "frac",
            );
        } else {
            // A run that fails a check counts every deadline as missed.
            self.put(&format!("{prefix}deadline_miss_frac"), 1.0, "frac");
        }
        let startup = first
            .telemetry
            .mean_startup_delay()
            .ok_or("no node started playback")?;
        self.put(&format!("{prefix}startup_delay_rounds"), startup, "rounds");
        println!(
            "{:<36} = over {} startups",
            "",
            first.telemetry.startups.len()
        );
        self.put(
            &format!("{prefix}prefetch_overhead"),
            s.prefetch_overhead,
            "frac",
        );
        self.put(
            &format!("{prefix}control_overhead"),
            s.control_overhead,
            "frac",
        );
        Ok(())
    }

    /// Per-layer metrics from the traced run of the workload's own kind
    /// (the twin when `twin`).
    pub fn per_layer(
        &mut self,
        setups: &[SetupTimes],
        runs: &LayerRuns,
        twin: bool,
    ) -> Result<(), String> {
        self.attempted = runs
            .all()
            .iter()
            .map(|r| r.report.rounds.len() as u64)
            .sum();
        let traced = if twin {
            &runs.twin_traced
        } else {
            &runs.sim_traced
        };
        let rounds = traced.report.rounds.len() as f64;
        let records = &traced.report.rounds;
        let sum =
            |f: &dyn Fn(&RoundRecord) -> u64| -> f64 { records.iter().map(f).sum::<u64>() as f64 };
        let node_rounds = alive_node_rounds(traced) as f64;

        // core: the profiler's phase spans and their coverage of the
        // externally timed round work.
        let obs = traced
            .obs
            .as_ref()
            .ok_or("the traced run carries no obs report")?;
        let phase_ns = |p: Phase| -> f64 {
            obs.phases
                .iter()
                .find(|r| r.name == p.name())
                .map_or(0.0, |r| r.mean_ns * r.count as f64)
        };
        let mut phases_total = 0.0;
        for p in Phase::ALL {
            let ns = phase_ns(p);
            phases_total += ns;
            self.put(
                &format!("phase.{}.ms_per_round", p.name()),
                ns / rounds / 1e6,
                "ms/round",
            );
        }
        // The simulator's step, or the whole twin round (the twin does
        // the exchange itself and exposes no step boundary).
        let stepped_ns = if traced.step_ns.is_empty() {
            traced.loop_ns()
        } else {
            traced.step_ns.iter().sum()
        } as f64;
        self.put_ratio(
            "phase.coverage",
            phases_total,
            "ns in phases",
            stepped_ns,
            "ns stepped",
            "frac",
        );
        self.put("core.node_rounds", node_rounds, "count");

        let requests = sum(&|r| r.requests_issued);
        let dropped = sum(&|r| r.requests_dropped);
        self.put("sched.requests", requests, "count");
        self.put_ratio(
            "sched.accept_frac",
            requests - dropped,
            "accepted",
            requests,
            "requests",
            "frac",
        );
        self.put_ratio(
            "sched.ns_per_request",
            phase_ns(Phase::Schedule),
            "ns in schedule",
            requests,
            "requests",
            "ns/request",
        );
        self.put_ratio(
            "overlay.maintain_us_per_node",
            phase_ns(Phase::Maintain) / 1e3,
            "us in maintain",
            node_rounds,
            "alive node-rounds",
            "us/node",
        );
        // Membership changes: the simulator's own churn model, the
        // scenario engine's joins and departures, and crashes.
        let e = traced.engine;
        let crashes: u64 = traced.faults.rounds.iter().map(|r| r.crashes as u64).sum();
        self.put(
            "overlay.joins",
            sum(&|r| r.joins as u64) + e.joins as f64,
            "count",
        );
        self.put(
            "overlay.leaves",
            sum(&|r| r.leaves as u64) + (e.leaves + crashes) as f64,
            "count",
        );

        // dht: the rescue path.
        let attempts = sum(&|r| r.prefetch_attempts as u64);
        let successes = sum(&|r| r.prefetch_successes as u64);
        let routing: f64 = traced
            .telemetry
            .rounds
            .iter()
            .map(|t| t.dht_routing_msgs)
            .sum::<u64>() as f64;
        self.put("prefetch.attempts", attempts, "count");
        self.put_ratio(
            "prefetch.success_frac",
            successes,
            "successes",
            attempts,
            "attempts",
            "frac",
        );
        self.put(
            "prefetch.overdue",
            sum(&|r| r.prefetch_overdue as u64),
            "count",
        );
        self.put(
            "prefetch.repeated",
            sum(&|r| r.prefetch_repeated as u64),
            "count",
        );
        self.put(
            "prefetch.suppressed",
            sum(&|r| r.prefetch_suppressed as u64),
            "count",
        );
        self.put_ratio(
            "prefetch.us_per_attempt",
            phase_ns(Phase::PrefetchExec) / 1e3,
            "us in prefetch_exec",
            attempts,
            "attempts",
            "us/attempt",
        );
        self.put("dht.routing_msgs", routing, "count");
        self.put_ratio(
            "dht.msgs_per_rescued_segment",
            routing,
            "routing msgs",
            successes,
            "rescued segments",
            "msgs/segment",
        );

        // faults: the fault and recovery plane.
        let f = &traced.faults.rounds;
        let fsum = |g: &dyn Fn(&FaultRoundRecord) -> u32| -> f64 {
            f.iter().map(|r| g(r) as u64).sum::<u64>() as f64
        };
        self.put("faults.injected", fsum(&|r| r.injected()), "count");
        self.put("recovery.timeouts", fsum(&|r| r.timeouts), "count");
        self.put("recovery.retries", fsum(&|r| r.retries), "count");
        self.put("recovery.failovers", fsum(&|r| r.failovers), "count");
        self.put(
            "recovery.stale_repairs",
            fsum(&|r| r.stale_repairs),
            "count",
        );

        // scenario: `drive_round` self time from the traced simulator
        // run (the twin drives the engine inside `drive_twin_over`; its
        // inputs and therefore its events are the same).
        let self_ns = runs.sim_traced.spans.self_ns_by_name();
        let drive_ns = *self_ns.get("drive_round").unwrap_or(&0) as f64;
        self.put(
            "scenario.drive_ms_per_round",
            drive_ns / rounds / 1e6,
            "ms/round",
        );
        let events =
            e.joins + e.leaves + e.seeks + e.pauses + e.resumes + e.capacity_changes + e.crashes;
        self.put("scenario.events", events as f64, "count");

        // active_set: the share of nodes the skip proofs could not skip.
        let t = &traced.telemetry.rounds;
        let active_sched: u64 = t.iter().map(|r| r.active_sched).sum();
        let active_prefetch: u64 = t.iter().map(|r| r.active_prefetch).sum();
        self.put_ratio(
            "active_set.sched_frac",
            active_sched as f64,
            "planned",
            node_rounds,
            "alive node-rounds",
            "frac",
        );
        // The pre-fetch phase also visits the source.
        self.put_ratio(
            "active_set.prefetch_frac",
            active_prefetch as f64,
            "planned",
            node_rounds + rounds,
            "node-rounds incl. source",
            "frac",
        );

        // setup
        let (_, spec_ns, engine_ns, sim_ns) = medians(setups);
        self.put("setup.spec_ms", spec_ns / 1e6, "ms");
        self.put("setup.engine_new_ms", engine_ns / 1e6, "ms");
        self.put("setup.sim_new_ms", sim_ns / 1e6, "ms");

        // net: the bases of the two overhead metrics.
        let mut traffic = TrafficCounter::new();
        for r in records {
            traffic.merge(&r.traffic);
        }
        self.put(
            "net.data_mbit",
            traffic.bits(TrafficClass::Data) as f64 / 1e6,
            "Mbit",
        );
        self.put(
            "net.control_mbit",
            traffic.bits(TrafficClass::Control) as f64 / 1e6,
            "Mbit",
        );
        let prefetch_bits =
            traffic.bits(TrafficClass::PrefetchRouting) + traffic.bits(TrafficClass::PrefetchData);
        self.put("net.prefetch_mbit", prefetch_bits as f64 / 1e6, "Mbit");

        // twin: measured on every workload's inputs.
        let wire = runs
            .twin_traced
            .twin
            .expect("a twin run carries wire results");
        let transport_ns = *runs
            .twin_traced
            .spans
            .self_ns_by_name()
            .get("transport")
            .unwrap_or(&0) as f64;
        self.put_ratio(
            "twin.transport_us_per_msg",
            transport_ns / 1e3,
            "us in send/poll",
            wire.transport.sent as f64,
            "msgs sent",
            "us/msg",
        );
        println!("{:<36} = {} send/poll calls", "", wire.calls);
        self.put("twin.msgs_sent", wire.transport.sent as f64, "count");
        self.put("twin.msgs_late", wire.late as f64, "count");
        self.put("twin.divergences", wire.divergences as f64, "count");
        self.put_overhead(
            "twin.overhead_frac",
            &runs.twin_plain,
            "twin",
            &runs.sim_beside_twin,
            "simulator",
        );

        // obs: what the profiler costs the simulator, from the
        // interleaved pair (the twin's two runs cannot be interleaved).
        self.put_overhead(
            "obs.overhead_frac",
            &runs.sim_traced,
            "traced",
            &runs.sim_plain,
            "untraced",
        );

        for (name, ns) in traced.spans.self_ns_by_name() {
            println!(
                "self time {name:<24} {:>12.3} ms/round",
                ns as f64 / rounds / 1e6
            );
        }
        Ok(())
    }

    /// The last line of the output.
    pub fn result_json(&self) -> String {
        let correct = self.checks.passed();
        let failed = if correct { 0 } else { self.attempted };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.attempted
        );
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and always writes a decimal point.
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Write the traced runs' spans as JSON lines under the build
/// directory; returns the directory.
pub fn write_spans(w: Workload, runs: &LayerRuns) -> Result<String, String> {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::path::Path::new(&root).join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (kind, run) in [("sim", &runs.sim_traced), ("twin", &runs.twin_traced)] {
        let path = dir.join(format!("{}-{kind}.jsonl", w.name()));
        std::fs::write(&path, run.spans.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(dir.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_rounds_leaves_ten_beyond() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 100.5);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v[..1], 0.95), 1.0);
    }
}
