//! The named workloads and the two loops that run them: the
//! simulator loop (`ScenarioEngine::drive_round` + `SystemSim::step`)
//! and the twin (`cs_twin::drive_twin_over` over a timing transport).
//!
//! Every host time is read here, around the benchmark's own calls into
//! the program; the program itself is not instrumented beyond arming
//! the `cs-obs` phase profiler on traced runs.

use std::time::Instant;

use continustreaming::prelude::*;
use continustreaming::scenario::{EngineStats, ScenarioEngine};
use continustreaming::twin::TransportStats;
use continustreaming::twin::{drive_twin_over, Envelope, InProcTransport, Transport, WireMsg};

use crate::spans::Spans;

/// The benchmark's workloads. `why` is repeated in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Static5k,
    LossyChurn,
    Vcr1k,
    LossyChurnTwin,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Static5k,
        Workload::LossyChurn,
        Workload::Vcr1k,
        Workload::LossyChurnTwin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Static5k => "static_5k",
            Workload::LossyChurn => "lossy_churn",
            Workload::Vcr1k => "vcr_1k",
            Workload::LossyChurnTwin => "lossy_churn_twin",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the end-to-end runs go through the twin runtime.
    pub fn is_twin(self) -> bool {
        self == Workload::LossyChurnTwin
    }

    /// Build the workload's spec for `seed`. Part of the timed set-up.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let mut spec = match self {
            // The paper's static environment (fig 7) under the
            // paper-faithful Legacy policy: no scenario events at all.
            Workload::Static5k => ScenarioSpec::null(
                "static-5k",
                SystemConfig {
                    rounds: ROUNDS,
                    ..SystemConfig::continustreaming(5000, seed)
                },
            ),
            Workload::LossyChurn | Workload::LossyChurnTwin => {
                parse_scenario(include_str!("../workloads/lossy_churn.scn"))
                    .expect("the committed lossy_churn spec parses")
            }
            Workload::Vcr1k => parse_scenario(include_str!("../workloads/vcr_1k.scn"))
                .expect("the vcr_1k spec parses"),
        };
        spec.config.seed = seed;
        spec
    }
}

/// The seed of every measured run: the repository's canonical seed
/// (`SystemConfig::default().seed`). The simulated outcomes are chaotic
/// in the seed (see `METRICS.md`), so runs on `--seed` only feed the
/// `outcome.*` per-layer metrics.
pub const PINNED_SEED: u64 = 20080414;

/// Rounds of every workload: p95 of the per-round times then has ten
/// samples beyond it in a single run.
pub const ROUNDS: u32 = 200;

/// Host times of one set-up, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub spec_ns: u64,
    pub engine_ns: u64,
    pub sim_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.spec_ns + self.engine_ns + self.sim_ns
    }
}

/// Wire-level results of a twin run.
#[derive(Debug, Clone, Copy)]
pub struct TwinWire {
    pub transport: TransportStats,
    pub late: u64,
    pub divergences: u64,
    /// `send` + `poll` calls (traced runs only; zero otherwise).
    pub calls: u64,
}

/// Everything one run of a workload produces.
pub struct Run {
    pub report: RunReport,
    pub telemetry: Telemetry,
    pub faults: FaultTrace,
    pub engine: EngineStats,
    pub obs: Option<ObsRunReport>,
    /// Host time of each round (`drive_round` + `step`, or one twin
    /// round), in nanoseconds.
    pub round_ns: Vec<u64>,
    /// Host time of each `step` call (simulator runs).
    pub step_ns: Vec<u64>,
    pub twin: Option<TwinWire>,
    pub spans: Spans,
}

impl Run {
    pub fn loop_ns(&self) -> u64 {
        self.round_ns.iter().sum()
    }

    pub fn fingerprint(&self) -> u64 {
        cs_bench::fingerprint::fingerprint(&self.report)
    }
}

fn obs_config(traced: bool) -> ObsConfig {
    // The per-node distribution is always armed: it is the source of
    // `p99_node_continuity`. Tracing adds the phase profiler.
    ObsConfig {
        profile: traced,
        dist: true,
        trace: false,
        dist_start_round: Some(0),
        dist_min_rounds: Some(20),
        ..ObsConfig::default()
    }
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// One timed set-up: spec build, `ScenarioEngine::new`, `SystemSim::new`.
pub fn setup(w: Workload, seed: u64) -> (SetupTimes, ScenarioSpec, ScenarioEngine, SystemSim) {
    let t0 = Instant::now();
    let spec = std::hint::black_box(w.spec(seed));
    let t1 = Instant::now();
    let engine = ScenarioEngine::new(spec.clone());
    let t2 = Instant::now();
    let sim = SystemSim::new(spec.config.clone());
    let t3 = Instant::now();
    let times = SetupTimes {
        spec_ns: (t1 - t0).as_nanos() as u64,
        engine_ns: (t2 - t1).as_nanos() as u64,
        sim_ns: (t3 - t2).as_nanos() as u64,
    };
    (times, spec, engine, std::hint::black_box(sim))
}

/// A simulator run in progress, advanced one round at a time so two
/// runs can be interleaved round by round.
struct SimRun {
    base: Instant,
    traced: bool,
    setup_times: SetupTimes,
    rounds: u32,
    engine: ScenarioEngine,
    sim: SystemSim,
    /// Boundaries of each round: start, after `drive_round`, after `step`.
    marks: Vec<[u64; 3]>,
    done: bool,
}

impl SimRun {
    fn start(w: Workload, seed: u64, traced: bool) -> Self {
        let base = Instant::now();
        let (setup_times, spec, engine, mut sim) = setup(w, seed);
        sim.enable_telemetry();
        sim.enable_obs(obs_config(traced));
        let rounds = spec.config.rounds;
        SimRun {
            base,
            traced,
            setup_times,
            rounds,
            engine,
            sim,
            marks: Vec::with_capacity(rounds as usize),
            done: false,
        }
    }

    /// Run one round; false once the run is over.
    fn round(&mut self) -> bool {
        if self.done || self.sim.rounds_run() >= self.rounds {
            self.done = true;
            return false;
        }
        let a = ns_since(self.base);
        self.engine.drive_round(&mut self.sim);
        let b = ns_since(self.base);
        let stepped = self.sim.step();
        let c = ns_since(self.base);
        self.marks.push([a, b, c]);
        self.done = !stepped;
        stepped
    }

    fn finish(mut self) -> Run {
        let telemetry = self.sim.take_telemetry().unwrap_or_default();
        let faults = self.sim.fault_trace().clone();
        let obs = self.sim.take_obs_report();
        let report = self.sim.finish();
        let marks = self.marks;
        let mut spans = Spans::default();
        if self.traced {
            let st = self.setup_times;
            let root = spans.push("run", None, None, 0, ns_since(self.base));
            let s = spans.push("setup", Some(root), None, 0, st.total_ns());
            let e1 = st.spec_ns;
            let e2 = e1 + st.engine_ns;
            spans.push("spec", Some(s), None, 0, e1);
            spans.push("engine_new", Some(s), None, e1, e2);
            spans.push("sim_new", Some(s), None, e2, st.total_ns());
            for (r, &[a, b, c]) in marks.iter().enumerate() {
                let round = Some(r as u32);
                let id = spans.push("round", Some(root), round, a, c);
                spans.push("drive_round", Some(id), round, a, b);
                spans.push("step", Some(id), round, b, c);
            }
        }
        Run {
            report,
            telemetry,
            faults,
            engine: self.engine.stats(),
            obs,
            round_ns: marks.iter().map(|m| m[2] - m[0]).collect(),
            step_ns: marks.iter().map(|m| m[2] - m[1]).collect(),
            twin: None,
            spans,
        }
    }
}

/// Run the workload's spec through the simulator loop.
pub fn run_sim(w: Workload, seed: u64, traced: bool) -> Run {
    let mut run = SimRun::start(w, seed, traced);
    while run.round() {}
    run.finish()
}

/// An untraced and a traced run of the same spec, interleaved round by
/// round so that both see the same host conditions: the per-round
/// ratio of their times is then the cost of tracing, not host noise.
pub fn run_sim_pair(w: Workload, seed: u64) -> (Run, Run) {
    let mut plain = SimRun::start(w, seed, false);
    let mut traced = SimRun::start(w, seed, true);
    while plain.round() | traced.round() {}
    (plain.finish(), traced.finish())
}

/// Per-round record of the timing transport.
#[derive(Debug, Clone, Copy, Default)]
struct WireRound {
    /// When the round's first message reached the transport.
    boundary_ns: u64,
    /// When the twin resumed after the companion's round.
    first_ns: u64,
    last_ns: u64,
    calls: u64,
    busy_ns: u64,
}

/// Wraps the in-process transport. It notes when each round's first
/// message is sent (the round boundary the twin exposes) and there runs
/// one round of the companion simulator, if any; when traced it also
/// times every `send` and `poll`.
struct TimingTransport<'a> {
    inner: InProcTransport,
    base: Instant,
    traced: bool,
    rounds: &'a mut Vec<WireRound>,
    companion: Option<&'a mut SimRun>,
}

impl TimingTransport<'_> {
    fn account(&mut self, start: u64) {
        let end = ns_since(self.base);
        if let Some(r) = self.rounds.last_mut() {
            r.last_ns = end;
            r.calls += 1;
            r.busy_ns += end - start;
        }
    }
}

impl Transport for TimingTransport<'_> {
    fn send(&mut self, now: SimTime, msg: WireMsg) {
        if self.rounds.len() <= msg.round as usize {
            let boundary_ns = ns_since(self.base);
            if let Some(sim) = self.companion.as_deref_mut() {
                sim.round();
            }
            let t = ns_since(self.base);
            self.rounds.push(WireRound {
                boundary_ns,
                first_ns: t,
                last_ns: t,
                ..WireRound::default()
            });
        }
        if self.traced {
            let start = ns_since(self.base);
            self.inner.send(now, msg);
            self.account(start);
        } else {
            self.inner.send(now, msg);
        }
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
    }

    fn poll(&mut self, deadline: SimTime) -> Option<Envelope> {
        if self.traced {
            let start = ns_since(self.base);
            let env = self.inner.poll(deadline);
            self.account(start);
            env
        } else {
            self.inner.poll(deadline)
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Executor workers of the twin. One keeps the host times of the twin
/// comparable with the single-threaded simulator loop; results are
/// bit-identical at any worker count.
pub const TWIN_WORKERS: usize = 1;

/// Run the workload's spec through the twin runtime.
pub fn run_twin(w: Workload, seed: u64, traced: bool) -> Run {
    twin_with(w, seed, traced, None)
}

/// An untraced twin run and an untraced simulator run of the same spec,
/// interleaved round by round (the simulator's round runs at each twin
/// round boundary), so that the per-round ratio of their times is the
/// twin's cost, not host noise. Returns `(twin, simulator)`.
pub fn run_twin_pair(w: Workload, seed: u64) -> (Run, Run) {
    let mut sim = SimRun::start(w, seed, false);
    let twin = twin_with(w, seed, false, Some(&mut sim));
    while sim.round() {}
    (twin, sim.finish())
}

fn twin_with(w: Workload, seed: u64, traced: bool, companion: Option<&mut SimRun>) -> Run {
    let spec = w.spec(seed);
    let cfg = TwinConfig {
        workers: TWIN_WORKERS,
        ..TwinConfig::default()
    };
    let mut wire: Vec<WireRound> = Vec::with_capacity(spec.config.rounds as usize);
    let base = Instant::now();
    let transport = TimingTransport {
        inner: InProcTransport::new(cfg.links, spec.config.seed),
        base,
        traced,
        rounds: &mut wire,
        companion,
    };
    // Untraced twin runs arm no obs at all: with obs armed the twin
    // builds a per-round stats snapshot for its callback.
    let obs_cfg = traced.then(|| obs_config(true));
    let out = drive_twin_over(&spec, &cfg, transport, obs_cfg, &mut |_, _| {});
    let end = ns_since(base);

    // A twin round runs from the first send of one round to the first
    // send of the next (less the companion's round); the last round ends
    // when `drive_twin_over` returns.
    let round_ns: Vec<u64> = (0..wire.len())
        .map(|k| wire.get(k + 1).map_or(end, |n| n.boundary_ns) - wire[k].first_ns)
        .collect();
    let mut spans = Spans::default();
    if traced {
        let root = spans.push("run", None, None, 0, end);
        let setup_end = wire.first().map_or(end, |r| r.first_ns);
        spans.push("setup", Some(root), None, 0, setup_end);
        for (k, r) in wire.iter().enumerate() {
            let round = Some(k as u32);
            let id = spans.push(
                "round",
                Some(root),
                round,
                r.first_ns,
                r.first_ns + round_ns[k],
            );
            spans.push_folded(
                "transport",
                Some(id),
                round,
                r.first_ns,
                r.last_ns,
                r.calls,
                r.busy_ns,
            );
        }
    }
    let twin = TwinWire {
        transport: out.transport,
        late: out.late,
        divergences: out.divergences,
        calls: wire.iter().map(|r| r.calls).sum(),
    };
    let o = out.outcome;
    Run {
        report: o.report,
        telemetry: o.telemetry,
        faults: o.fault_trace,
        engine: o.log.engine,
        obs: o.obs,
        round_ns,
        step_ns: Vec::new(),
        twin: Some(twin),
        spans,
    }
}
