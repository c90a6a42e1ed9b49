//! The three in-process workloads over the campaign engine.
//!
//! A *job* is one campaign of fixed shape, run through
//! `trials::run_campaign_streamed`. A run repeats the same job for its
//! measured seconds, so every job's exact aggregates can be checked
//! against the first job's and, at the default seed, against pinned
//! values. Untraced jobs use the plain apps and the engine's own sinks;
//! traced jobs swap in the wrappers of [`probe`].

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use enerj_apps::harness::{self, Workspace, FAULT_SEED_BASE};
use enerj_apps::meta::AppMeta;
use enerj_apps::qos::{output_error, Output, QosMetric};
use enerj_apps::recovery::{chaos_config, Policy};
use enerj_apps::trials::{
    run_campaign_streamed, CampaignOptions, CampaignSummary, NdjsonSink, SpecFn, TrialSpec,
};
use enerj_apps::{no_check, App};
use enerj_core::{endorse, Approx};
use enerj_hw::config::{HwConfig, Level, StrategyMask};

use crate::gate::{self, DEFAULT_SEED};
use crate::probe::{
    self, median, percentile, FirstSink, FirstWrite, HostSpeed, SinkTotals, TracedSink,
    HOST_SAMPLE_S,
};
use crate::Outcome;

/// Fault-injection runs per (app, level) in one `fig5-apps` job: the Fig. 5
/// protocol at a fifth of its 20 runs, so a 10 s run holds about a hundred
/// jobs and the latency percentiles rest on enough samples.
const FIG5_RUNS: usize = 4;
/// Chaos runs per app in one `chaos-recovery` job.
const CHAOS_RUNS: usize = 4;
/// The `recovery` bench's default chaos amplification.
const CHAOS_AMPLIFY: f64 = 40.0;
/// Trials in one `dispatch-ndjson` job (about 9 MB of NDJSON).
const DISPATCH_TRIALS: usize = 8192;
/// Campaign workers. One: the development host's real parallelism swings
/// between one and two CPUs from minute to minute, and a two-worker
/// throughput swings with it (see NOTES.md).
const WORKERS: usize = 1;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nine apps × Mild/Medium/Aggressive × seeded runs, 1 worker, no sink.
    Fig5,
    /// Nine apps at 40x Aggressive under the standard recovery policy.
    Chaos,
    /// Tiny synthetic trials streamed to NDJSON.
    Dispatch,
}

impl Kind {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig5 => "fig5-apps",
            Kind::Chaos => "chaos-recovery",
            Kind::Dispatch => "dispatch-ndjson",
        }
    }

    /// Indices (into [`probe::plain_apps`]) of the apps the workload runs.
    fn apps(self) -> Vec<usize> {
        match self {
            Kind::Fig5 | Kind::Chaos => (0..probe::TINY).collect(),
            Kind::Dispatch => vec![probe::TINY],
        }
    }

    fn len(self) -> usize {
        match self {
            Kind::Fig5 => probe::TINY * Level::ALL.len() * FIG5_RUNS,
            Kind::Chaos => probe::TINY * CHAOS_RUNS,
            Kind::Dispatch => DISPATCH_TRIALS,
        }
    }
}

/// The synthetic dispatch body, shaped like `campaign_bench`'s
/// TinyDispatch: one generated input and 16 approximate operations, so the
/// engine, serialization and the sink dominate a trial.
fn tiny_run() -> Output {
    let signal = enerj_apps::workload::complex_signal(512);
    let mut acc = Approx::new(0.0f64);
    for i in 0..16 {
        acc += Approx::new(signal.0[i]) * 0.5;
    }
    Output::Values(vec![endorse(acc)])
}

/// The synthetic dispatch app.
pub fn tiny_app() -> App {
    App {
        meta: AppMeta {
            name: "TinyDispatch",
            description: "synthetic campaign body: generated input, few approximate ops",
            metric: QosMetric::MeanEntryDiff,
            source: "",
        },
        run: tiny_run,
        check: no_check,
    }
}

/// The fault-seed base for workload seed `seed`: `FAULT_SEED_BASE` at the
/// default seed, so the default reproduces the committed captures. Other
/// seeds move it by a SplitMix64 mix of the seed placed in bits 24..62:
/// with run indices below 2^24 the seed sets never overlap, and bits 62–63
/// stay clear, keeping them in the evaluation stream, apart from the tuner
/// and recovery-retry streams.
pub fn fault_seed_base(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        return FAULT_SEED_BASE;
    }
    let shift = (splitmix64(seed) << 24) & ((1 << 62) - 1);
    FAULT_SEED_BASE ^ if shift == 0 { 1 << 24 } else { shift }
}

/// SplitMix64: the output for state `x` of the generator that adds the
/// golden gamma per step.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A campaign workload with its references computed.
pub struct Campaign {
    kind: Kind,
    seed_base: u64,
    refs: Vec<Option<Arc<Output>>>,
    chaos: HwConfig,
}

/// One finished job.
pub struct Round {
    /// Whether the job ran traced.
    pub traced: bool,
    /// The engine's aggregates.
    pub summary: CampaignSummary,
    /// Call to return of `run_campaign_streamed`.
    pub wall: Duration,
    /// Call to the first trial reaching the sink.
    pub ttft: Duration,
    /// What the traced sink counted (zero when untraced).
    pub sink: SinkTotals,
}

impl Campaign {
    /// Computes the fault-free reference output of every app the workload
    /// runs.
    pub fn setup(kind: Kind, seed: u64) -> Campaign {
        let mut refs = vec![None; probe::N_APPS];
        for i in kind.apps() {
            refs[i] = Some(Arc::new(harness::reference(&probe::plain_apps()[i]).output));
        }
        Campaign {
            kind,
            seed_base: fault_seed_base(seed),
            refs,
            chaos: chaos_config(CHAOS_AMPLIFY),
        }
    }

    /// Trials per job.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    fn reference(&self, app: usize) -> Arc<Output> {
        Arc::clone(self.refs[app].as_ref().expect("reference computed at set-up"))
    }

    /// The spec of trial `i`, over `apps` (plain or traced).
    fn spec(&self, apps: &[App], i: usize) -> TrialSpec {
        match self.kind {
            Kind::Fig5 => {
                // App-major, then level, then run: the order of
                // `trials::run_level_campaign`.
                let per_app = Level::ALL.len() * FIG5_RUNS;
                let (a, rem) = (i / per_app, i % per_app);
                let (level, run) = (Level::ALL[rem / FIG5_RUNS], rem % FIG5_RUNS);
                TrialSpec::scored(
                    &apps[a],
                    level.to_string(),
                    HwConfig::for_level(level),
                    self.seed_base ^ run as u64,
                    self.reference(a),
                )
            }
            Kind::Chaos => {
                let (a, run) = (i / CHAOS_RUNS, i % CHAOS_RUNS);
                TrialSpec::scored(
                    &apps[a],
                    "guarded",
                    self.chaos,
                    self.seed_base ^ run as u64,
                    self.reference(a),
                )
                .with_recovery(Policy::standard())
            }
            Kind::Dispatch => TrialSpec::scored(
                &apps[probe::TINY],
                "perf",
                HwConfig::for_level(Level::Medium),
                self.seed_base ^ i as u64,
                self.reference(probe::TINY),
            ),
        }
    }

    /// Runs one job. `ndjson` is the file a `dispatch-ndjson` job streams
    /// to (truncated first); other workloads pass `None`.
    pub fn run_round(&self, traced: bool, ndjson: Option<&Path>) -> io::Result<Round> {
        let opts = CampaignOptions::with_threads(WORKERS);
        let out = match ndjson {
            Some(path) => Some(BufWriter::new(File::create(path)?)),
            None => None,
        };
        let (summary, wall, first, sink) = if traced {
            let apps = probe::traced_apps();
            let source = probe::TracedSource(SpecFn::new(self.len(), |i| self.spec(apps, i)));
            let mut sink = TracedSink::new(out);
            let start = Instant::now();
            let summary = run_campaign_streamed(&source, &opts, &mut sink)?;
            let wall = start.elapsed();
            (summary, wall, sink.first.map(|f| f - start), sink.totals)
        } else {
            let apps = probe::plain_apps();
            let source = SpecFn::new(self.len(), |i| self.spec(apps, i));
            let start = Instant::now();
            let (summary, first) = match out {
                Some(out) => {
                    let mut sink = NdjsonSink::new(FirstWrite::new(out));
                    let summary = run_campaign_streamed(&source, &opts, &mut sink)?;
                    (summary, sink.into_inner().first)
                }
                None => {
                    let mut sink = FirstSink::default();
                    let summary = run_campaign_streamed(&source, &opts, &mut sink)?;
                    (summary, sink.first)
                }
            };
            let wall = start.elapsed();
            (summary, wall, first.map(|f| f - start), SinkTotals::default())
        };
        Ok(Round { traced, summary, wall, ttft: first.unwrap_or(wall), sink })
    }
}

/// Runs workload `kind` for `seconds` and returns its metrics: end-to-end
/// ones untraced, per-layer ones when `trace` is set (untraced and traced
/// jobs then alternate, which also gives the tracing overhead).
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: &Path,
) -> Result<Outcome, String> {
    let name = kind.name();
    let files: [PathBuf; 2] = [tmp.join("untraced.ndjson"), tmp.join("traced.ndjson")];
    let ndjson = |traced: bool| (kind == Kind::Dispatch).then(|| files[traced as usize].as_path());
    let io_err = |e: io::Error| format!("{name}: {e}");
    let mut first = None;

    // Set-up: references, then one untraced warm-up job, checked. The
    // first comes before the measured phase; the rest are interleaved with
    // its jobs, so that their median samples the same stretch of the
    // host's time as the throughput, and their time is left out of it.
    let set_up = |first: &mut Option<String>| -> Result<(Campaign, f64, f64), String> {
        let cpu = probe::cpu_seconds(None).map_err(io_err)?;
        let start = Instant::now();
        let c = Campaign::setup(kind, seed);
        let warm = c.run_round(false, ndjson(false)).map_err(io_err)?;
        let took = start.elapsed().as_secs_f64();
        gate::check_summary(name, seed, c.len(), &warm.summary, first, "warm-up job")?;
        Ok((c, took, probe::cpu_seconds(None).map_err(io_err)? - cpu))
    };
    let (c, took, _) = set_up(&mut first)?;
    let mut setups = vec![took];
    // Host-speed samples follow every job, a sixteenth of its length each,
    // and are left out of the measured phase like the set-ups.
    let mut host = HostSpeed::default();
    host.sample(HOST_SAMPLE_S);

    probe::reset();
    let cpu_start = probe::cpu_seconds(None).map_err(io_err)?;
    let start = Instant::now();
    let (mut paused, mut paused_cpu) = (0.0, 0.0);
    let (mut rounds, mut attempted, mut failed) = (Vec::new(), 0usize, 0usize);
    loop {
        let measured = start.elapsed().as_secs_f64() - paused;
        if attempted >= 2 * c.len() && measured >= seconds {
            break;
        }
        if probe::setup_due(&setups, measured) {
            let t = Instant::now();
            let (_, took, cpu) = set_up(&mut first)?;
            setups.push(took);
            paused += t.elapsed().as_secs_f64();
            paused_cpu += cpu;
            continue;
        }
        let traced = trace && attempted / c.len() % 2 == 1;
        attempted += c.len();
        match c.run_round(traced, ndjson(traced)) {
            Ok(r) => {
                let what = if traced { "traced job" } else { "job" };
                gate::check_summary(name, seed, c.len(), &r.summary, &mut first, what)?;
                let (t, cpu) = (Instant::now(), probe::cpu_seconds(None).map_err(io_err)?);
                host.sample(r.wall.as_secs_f64() / 16.0);
                paused += t.elapsed().as_secs_f64();
                paused_cpu += probe::cpu_seconds(None).map_err(io_err)? - cpu;
                rounds.push(r);
            }
            Err(e) => {
                eprintln!("{name}: job failed: {e}");
                failed += c.len();
                if failed == attempted {
                    return Err(format!("{name}: every job failed, the last with: {e}"));
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64() - paused;
    let cpu = probe::cpu_seconds(None).map_err(io_err)? - cpu_start - paused_cpu;
    // Before the checks below, whose buffers are the benchmark's own.
    let rss = probe::peak_rss_mb(None).map_err(io_err)?;

    if !rounds.iter().any(|r| r.traced) {
        // The traced run must reproduce the untraced one bit for bit.
        let r = c.run_round(true, ndjson(true)).map_err(io_err)?;
        gate::check_summary(name, seed, c.len(), &r.summary, &mut first, "traced job")?;
        rounds.push(r);
    }
    if kind == Kind::Dispatch {
        let read = |p: &Path| std::fs::read(p).map_err(io_err);
        gate::check_ndjson(seed, c.len(), &read(&files[0])?, Some(&read(&files[1])?))?;
    }

    let mut metrics = BTreeMap::new();
    let mut unscaled = BTreeMap::new();
    if trace {
        layer_metrics(&c, &rounds, &mut metrics);
    } else {
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let trials = (untraced.len() * c.len()) as f64;
        let ttft: Vec<f64> = untraced.iter().map(|r| r.ttft.as_secs_f64() * 1e3).collect();
        unscaled.insert("trials_per_s".into(), trials / wall);
        unscaled.insert("cpu_us_per_trial".into(), cpu / trials * 1e6);
        unscaled.insert("setup_s".into(), median(&setups));
        unscaled.insert("ttft_ms_p50".into(), percentile(&ttft, 50.0));
        // Every one is CPU-bound work, so each is scaled to the reference
        // host.
        metrics.extend(probe::scale(&unscaled, host.slowdown()));
        metrics.insert("peak_rss_mb".into(), rss);
    }
    Ok(Outcome { metrics, attempted, failed, host, unscaled })
}

/// The per-layer split of the traced jobs.
fn layer_metrics(c: &Campaign, rounds: &[Round], m: &mut BTreeMap<String, f64>) {
    let snap = probe::snapshot();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let jobs = traced.len() as f64;
    let trials = jobs * c.len() as f64;
    let mut sink = SinkTotals::default();
    traced.iter().for_each(|r| sink.add(&r.sink));
    probe::trial_layers(&snap, &sink, traced.iter().map(|r| &r.summary), m);
    let run_ns = snap.run_ns() as f64;
    let panics: usize = traced.iter().map(|r| r.summary.panics).sum();
    m.insert("trials.panics_per_job".into(), panics as f64 / jobs);

    // `output_error` on the outputs the run wrappers sampled, charged to
    // every run that returned an output.
    let mut qos_ns: Vec<Vec<f64>> = vec![Vec::new(); probe::N_APPS];
    for (app, out) in probe::take_samples() {
        let reference = c.reference(app);
        let metric = probe::plain_apps()[app].meta.metric;
        const REPS: u32 = 20;
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(output_error(metric, &reference, std::hint::black_box(&out)));
        }
        qos_ns[app].push(start.elapsed().as_nanos() as f64 / f64::from(REPS));
    }
    let (mut qos_total_ns, mut qos_calls) = (0.0, 0.0);
    for (a, samples) in snap.apps.iter().zip(&qos_ns) {
        if !samples.is_empty() {
            qos_total_ns += a.returned as f64 * median(samples);
            qos_calls += a.returned as f64;
        }
    }
    m.insert("qos.us_per_call".into(), qos_total_ns / qos_calls / 1e3);

    if c.kind == Kind::Chaos {
        let retry_ns: u64 = snap.apps.iter().map(|a| a.retry_ns).sum();
        m.insert("recovery.attempts_per_trial".into(), sink.attempts as f64 / trials);
        m.insert("recovery.useful_ratio".into(), sink.accepted as f64 / sink.attempts as f64);
        m.insert("recovery.retry_sim_share".into(), retry_ns as f64 / run_ns);
        m.insert("recovery.watchdog_trips".into(), sink.watchdog_trips as f64 / jobs);
    }
    // Job time the layers above do not account for: the engine's own share
    // (claims, catch_unwind, runtime set-up, folds).
    let job_ns: f64 = traced.iter().map(|r| r.wall.as_nanos() as f64).sum::<f64>();
    let layers_ns = run_ns
        + snap.spec_ns as f64
        + qos_total_ns
        + snap.check_ns() as f64
        + sink.serialize_ns as f64
        + sink.write_ns as f64;
    m.insert("trials.other_us_per_trial".into(), (job_ns - layers_ns) / trials / 1e3);

    for i in c.kind.apps() {
        m.insert(
            format!("workload.cold_us.{}", probe::app_key(i)),
            cold_us(&probe::plain_apps()[i]),
        );
    }

    let rate = |t: bool| {
        let rs: Vec<&Round> = rounds.iter().filter(|r| r.traced == t).collect();
        (rs.len() * c.len()) as f64 / rs.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>()
    };
    m.insert("trace.untraced_trials_per_s".into(), rate(false));
    m.insert("trace.traced_trials_per_s".into(), rate(true));
}

/// Extra host time one reference run of `app` takes with a fresh
/// `Workspace` (inputs generated) over one with a warmed one (inputs
/// reused), in µs: the median over back-to-back cold/warm pairs.
pub fn cold_us(app: &App) -> f64 {
    let cfg = HwConfig::for_level(Level::Medium).with_mask(StrategyMask::NONE);
    let reps = if app.meta.name == "TinyDispatch" { 201 } else { 21 };
    let diffs: Vec<f64> = (0..reps)
        .map(|_| {
            let mut ws = Workspace::new();
            let start = Instant::now();
            std::hint::black_box(harness::measure_in(app, cfg, 0, false, &mut ws));
            let cold = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::hint::black_box(harness::measure_in(app, cfg, 0, false, &mut ws));
            cold - start.elapsed().as_secs_f64()
        })
        .collect();
    median(&diffs) * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_apps::all_apps;
    use enerj_apps::trials::run_level_campaign;

    #[test]
    fn default_seed_reproduces_the_level_campaign() {
        let c = Campaign::setup(Kind::Fig5, DEFAULT_SEED);
        let ours = c.run_round(false, None).expect("a null-sink job cannot fail").summary;
        let theirs = run_level_campaign(&all_apps(), &Level::ALL, FIG5_RUNS as u64, 1);
        assert_eq!(ours.merged_stats, theirs.merged_stats);
        assert_eq!(ours.mean_error.to_bits(), theirs.mean_error().to_bits());
        assert_eq!(ours.panics, theirs.panic_count());
    }

    #[test]
    fn seeds_stay_in_the_evaluation_stream() {
        assert_eq!(fault_seed_base(DEFAULT_SEED), FAULT_SEED_BASE);
        for seed in 1..200u64 {
            let base = fault_seed_base(seed);
            assert_eq!(base >> 62, 0, "seed {seed}: top bits belong to other streams");
            assert_ne!(base >> 24, FAULT_SEED_BASE >> 24, "seed {seed} overlaps the default runs");
        }
    }
}
