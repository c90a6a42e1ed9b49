//! Timing from outside the program.
//!
//! Every per-layer number comes from here: wrappers around the public
//! calls each layer exposes (the `App::run`/`App::check` fn pointers, the
//! `SpecSource` a campaign reads, the `TrialSink` it writes to), plus the
//! process clocks and host facts printed with every result. Nothing inside
//! the program is instrumented.
//!
//! Counters are process-wide relaxed atomics: campaign workers are scoped
//! threads that end with each campaign, so per-thread state would die with
//! them. Only traced rounds call the wrappers, so untraced rounds pay
//! nothing.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use enerj_apps::qos::Output;
use enerj_apps::trials::{
    trial_json, CampaignSummary, SpecSource, TrialResult, TrialSink, TrialSpec,
};
use enerj_apps::{all_apps, App};

/// Apps the wrappers know: the nine registry apps in Table 3 order, then
/// the synthetic dispatch body.
pub const N_APPS: usize = 10;

/// Index of the synthetic dispatch body in [`plain_apps`].
pub const TINY: usize = 9;

/// The metric-key name of app `i` (the registry name; `Tiny` for the
/// synthetic body).
pub fn app_key(i: usize) -> &'static str {
    if i == TINY {
        "Tiny"
    } else {
        plain_apps()[i].meta.name
    }
}

/// The unwrapped apps, indexed as [`N_APPS`] describes.
pub fn plain_apps() -> &'static [App] {
    static PLAIN: OnceLock<Vec<App>> = OnceLock::new();
    PLAIN.get_or_init(|| {
        let mut apps = all_apps();
        apps.push(crate::campaign::tiny_app());
        assert_eq!(apps.len(), N_APPS, "the app registry changed size");
        apps
    })
}

/// The same apps with `run` and `check` replaced by timing wrappers.
pub fn traced_apps() -> &'static [App] {
    static TRACED: OnceLock<Vec<App>> = OnceLock::new();
    TRACED.get_or_init(|| {
        plain_apps()
            .iter()
            .enumerate()
            .map(|(i, app)| App { meta: app.meta.clone(), run: RUNS[i], check: CHECKS[i] })
            .collect()
    })
}

/// Index of the app named `name` in [`plain_apps`].
pub fn app_index(name: &str) -> usize {
    plain_apps().iter().position(|a| a.meta.name == name).expect("a known app")
}

struct AppCounters {
    runs: AtomicU64,
    run_ns: AtomicU64,
    retry_ns: AtomicU64,
    returned: AtomicU64,
    checks: AtomicU64,
    check_ns: AtomicU64,
    sampled: AtomicU64,
}

impl AppCounters {
    const fn new() -> Self {
        AppCounters {
            runs: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            retry_ns: AtomicU64::new(0),
            returned: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            check_ns: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
        }
    }
}

static COUNTERS: [AppCounters; N_APPS] = [const { AppCounters::new() }; N_APPS];
static SPEC_CALLS: AtomicU64 = AtomicU64::new(0);
static SPEC_NS: AtomicU64 = AtomicU64::new(0);

/// Outputs kept per app for timing `qos::output_error` afterwards.
const SAMPLES_PER_APP: u64 = 4;
static SAMPLES: Mutex<Vec<(usize, Output)>> = Mutex::new(Vec::new());

thread_local! {
    /// Runs of the current trial on this thread so far: reset when the
    /// engine asks the source for the next spec, which it does on the
    /// worker thread right before running that trial. A second run within
    /// one trial is a recovery retry.
    static ATTEMPT: Cell<u32> = const { Cell::new(0) };
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Charges one `App::run` call when dropped, so a run that unwinds (a
/// fault-induced panic or a watchdog trip) is charged too.
struct RunSpan {
    app: usize,
    attempt: u32,
    start: Instant,
}

impl Drop for RunSpan {
    fn drop(&mut self) {
        let ns = nanos_since(self.start);
        let c = &COUNTERS[self.app];
        c.runs.fetch_add(1, Relaxed);
        c.run_ns.fetch_add(ns, Relaxed);
        if self.attempt > 1 {
            c.retry_ns.fetch_add(ns, Relaxed);
        }
    }
}

fn traced_run<const I: usize>() -> Output {
    let attempt = ATTEMPT.with(|a| {
        a.set(a.get() + 1);
        a.get()
    });
    let span = RunSpan { app: I, attempt, start: Instant::now() };
    let out = (plain_apps()[I].run)();
    drop(span);
    let c = &COUNTERS[I];
    c.returned.fetch_add(1, Relaxed);
    if c.sampled.load(Relaxed) < SAMPLES_PER_APP
        && c.sampled.fetch_add(1, Relaxed) < SAMPLES_PER_APP
    {
        SAMPLES.lock().expect("sample store poisoned by a panic").push((I, out.clone()));
    }
    out
}

fn traced_check<const I: usize>(output: &Output) -> Result<(), String> {
    let start = Instant::now();
    let verdict = (plain_apps()[I].check)(output);
    let c = &COUNTERS[I];
    c.checks.fetch_add(1, Relaxed);
    c.check_ns.fetch_add(nanos_since(start), Relaxed);
    verdict
}

const RUNS: [fn() -> Output; N_APPS] = [
    traced_run::<0>,
    traced_run::<1>,
    traced_run::<2>,
    traced_run::<3>,
    traced_run::<4>,
    traced_run::<5>,
    traced_run::<6>,
    traced_run::<7>,
    traced_run::<8>,
    traced_run::<9>,
];

/// An `App::check` entry point.
type CheckFn = fn(&Output) -> Result<(), String>;

const CHECKS: [CheckFn; N_APPS] = [
    traced_check::<0>,
    traced_check::<1>,
    traced_check::<2>,
    traced_check::<3>,
    traced_check::<4>,
    traced_check::<5>,
    traced_check::<6>,
    traced_check::<7>,
    traced_check::<8>,
    traced_check::<9>,
];

/// Per-app totals of the wrapped calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppTotals {
    /// `App::run` calls, including ones that unwound.
    pub runs: u64,
    /// Host nanoseconds inside `App::run`.
    pub run_ns: u64,
    /// The part of `run_ns` spent in second and later attempts of a trial.
    pub retry_ns: u64,
    /// Runs that returned an output.
    pub returned: u64,
    /// `App::check` calls.
    pub checks: u64,
    /// Host nanoseconds inside `App::check`.
    pub check_ns: u64,
}

/// Everything the wrappers counted so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per app, indexed as [`plain_apps`].
    pub apps: [AppTotals; N_APPS],
    /// `SpecSource::spec` calls.
    pub spec_calls: u64,
    /// Host nanoseconds inside `SpecSource::spec`.
    pub spec_ns: u64,
}

impl Snapshot {
    /// Sum of `run_ns` over every app.
    pub fn run_ns(&self) -> u64 {
        self.apps.iter().map(|a| a.run_ns).sum()
    }

    /// Sum of `check_ns` over every app.
    pub fn check_ns(&self) -> u64 {
        self.apps.iter().map(|a| a.check_ns).sum()
    }
}

/// Reads every counter.
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot {
        spec_calls: SPEC_CALLS.load(Relaxed),
        spec_ns: SPEC_NS.load(Relaxed),
        ..Snapshot::default()
    };
    for (t, c) in s.apps.iter_mut().zip(&COUNTERS) {
        *t = AppTotals {
            runs: c.runs.load(Relaxed),
            run_ns: c.run_ns.load(Relaxed),
            retry_ns: c.retry_ns.load(Relaxed),
            returned: c.returned.load(Relaxed),
            checks: c.checks.load(Relaxed),
            check_ns: c.check_ns.load(Relaxed),
        };
    }
    s
}

/// Zeroes every counter and drops the sampled outputs.
pub fn reset() {
    for c in &COUNTERS {
        for a in [&c.runs, &c.run_ns, &c.retry_ns, &c.returned, &c.checks, &c.check_ns, &c.sampled]
        {
            a.store(0, Relaxed);
        }
    }
    SPEC_CALLS.store(0, Relaxed);
    SPEC_NS.store(0, Relaxed);
    SAMPLES.lock().expect("sample store poisoned by a panic").clear();
}

/// Takes the outputs sampled by the run wrappers, tagged with app index.
pub fn take_samples() -> Vec<(usize, Output)> {
    std::mem::take(&mut *SAMPLES.lock().expect("sample store poisoned by a panic"))
}

/// Times `SpecSource::spec` and marks the start of each trial for the
/// attempt count.
pub struct TracedSource<S>(pub S);

impl<S: SpecSource> SpecSource for TracedSource<S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn spec(&self, index: usize) -> Cow<'_, TrialSpec> {
        ATTEMPT.with(|a| a.set(0));
        let start = Instant::now();
        let spec = self.0.spec(index);
        SPEC_NS.fetch_add(nanos_since(start), Relaxed);
        SPEC_CALLS.fetch_add(1, Relaxed);
        spec
    }
}

/// The trial-layer metrics every traced run shares — `sim`,
/// `trials.spec`, `recovery.check`, `serialize` and `sink` — from the
/// wrapper counters, the traced sink and the engine's summaries of the
/// traced jobs. Layers the run never called are left out.
pub fn trial_layers<'a>(
    snap: &Snapshot,
    sink: &SinkTotals,
    summaries: impl Iterator<Item = &'a CampaignSummary>,
    m: &mut BTreeMap<String, f64>,
) {
    let trials = sink.trials as f64;
    for (i, a) in snap.apps.iter().enumerate().filter(|(_, a)| a.runs > 0) {
        let us = a.run_ns as f64 / a.runs as f64 / 1e3;
        m.insert(format!("sim.us_per_run.{}", app_key(i)), us);
    }
    let (mut ops, mut faults) = (0u64, 0u64);
    for s in summaries {
        let st = &s.merged_stats;
        ops += st.int_approx_ops + st.int_precise_ops + st.fp_approx_ops + st.fp_precise_ops;
        faults += s.fault_totals.total_injections();
    }
    m.insert("sim.ns_per_op".into(), snap.run_ns() as f64 / ops as f64);
    m.insert("sim.faults_per_trial".into(), faults as f64 / trials);
    m.insert("trials.spec_us_per_trial".into(), snap.spec_ns as f64 / snap.spec_calls as f64 / 1e3);
    let checks: u64 = snap.apps.iter().map(|a| a.checks).sum();
    if checks > 0 {
        m.insert("recovery.check_us_per_call".into(), snap.check_ns() as f64 / checks as f64 / 1e3);
    }
    if sink.bytes > 0 {
        m.insert("serialize.us_per_trial".into(), sink.serialize_ns as f64 / trials / 1e3);
        m.insert("serialize.bytes_per_trial".into(), sink.bytes as f64 / trials);
        m.insert("sink.write_us_per_trial".into(), sink.write_ns as f64 / trials / 1e3);
    }
}

/// What a [`TracedSink`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkTotals {
    /// Trials delivered.
    pub trials: u64,
    /// Attempts summed over trials (1 per trial without recovery).
    pub attempts: u64,
    /// Attempts whose output was accepted.
    pub accepted: u64,
    /// Attempts the watchdog ended.
    pub watchdog_trips: u64,
    /// Trials that panicked.
    pub panics: u64,
    /// Host nanoseconds in `trials::trial_json`.
    pub serialize_ns: u64,
    /// NDJSON bytes produced, newlines included.
    pub bytes: u64,
    /// Host nanoseconds writing and flushing those bytes.
    pub write_ns: u64,
}

impl SinkTotals {
    /// Adds another round's totals.
    pub fn add(&mut self, o: &SinkTotals) {
        self.trials += o.trials;
        self.attempts += o.attempts;
        self.accepted += o.accepted;
        self.watchdog_trips += o.watchdog_trips;
        self.panics += o.panics;
        self.serialize_ns += o.serialize_ns;
        self.bytes += o.bytes;
        self.write_ns += o.write_ns;
    }
}

/// The benchmark's own sink for traced rounds: counts what each trial
/// carries and, when given a writer, renders each trial with
/// `trials::trial_json` and writes it as one NDJSON line — the bytes the
/// engine's `NdjsonSink` writes — timing the two steps apart.
pub struct TracedSink<W: Write + Send> {
    out: Option<W>,
    /// When the first trial arrived.
    pub first: Option<Instant>,
    /// Counts and times so far.
    pub totals: SinkTotals,
}

impl<W: Write + Send> TracedSink<W> {
    /// A sink that writes NDJSON to `out`, or only counts when `None`.
    pub fn new(out: Option<W>) -> Self {
        TracedSink { out, first: None, totals: SinkTotals::default() }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> Option<W> {
        self.out
    }
}

impl<W: Write + Send> TrialSink for TracedSink<W> {
    fn accept(&mut self, trial: TrialResult) -> io::Result<()> {
        self.first.get_or_insert_with(Instant::now);
        let t = &mut self.totals;
        t.trials += 1;
        t.attempts += u64::from(trial.attempts);
        t.accepted += u64::from(trial.attempts).saturating_sub(trial.failure_causes.len() as u64);
        t.watchdog_trips +=
            trial.failure_causes.iter().filter(|c| c.starts_with("op-budget")).count() as u64;
        t.panics += u64::from(trial.panicked());
        if let Some(out) = &mut self.out {
            let start = Instant::now();
            let line = trial_json(&trial);
            t.serialize_ns += nanos_since(start);
            t.bytes += line.len() as u64 + 1;
            let start = Instant::now();
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
            t.write_ns += nanos_since(start);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(out) = &mut self.out {
            let start = Instant::now();
            out.flush()?;
            self.totals.write_ns += nanos_since(start);
        }
        Ok(())
    }
}

/// The untraced stand-in for `NullSink`: drops every trial, noting only
/// when the first arrived (one branch per trial).
#[derive(Debug, Default)]
pub struct FirstSink {
    /// When the first trial arrived.
    pub first: Option<Instant>,
}

impl TrialSink for FirstSink {
    fn accept(&mut self, _trial: TrialResult) -> io::Result<()> {
        self.first.get_or_insert_with(Instant::now);
        Ok(())
    }
}

/// A writer that notes when its first byte arrived, so an untraced
/// `NdjsonSink` round still yields its time to first trial.
pub struct FirstWrite<W> {
    inner: W,
    /// When the first write happened.
    pub first: Option<Instant>,
}

impl<W: Write> FirstWrite<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        FirstWrite { inner, first: None }
    }
}

impl<W: Write> Write for FirstWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.first.get_or_insert_with(Instant::now);
        self.inner.write(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.first.get_or_insert_with(Instant::now);
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// User plus system CPU seconds of process `pid` (this process when
/// `None`), all threads, living and exited, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: Option<u32>) -> io::Result<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_owned(),
    };
    let stat = std::fs::read_to_string(path)?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> io::Result<u64> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc stat"))
    };
    // utime and stime are fields 14 and 15, in USER_HZ (100/s on Linux).
    Ok((field(14)? + field(15)?) as f64 / 100.0)
}

/// Resident-set high-water mark (`VmHWM`) of process `pid` (this process
/// when `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between closest ranks; 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Whether a set-up is due, given the set-up times so far and the seconds
/// measured since the first. Set-ups are interleaved with the measured work
/// and take about a tenth of a run, at most `MAX_SETUPS`: one set-up is too
/// short to outlast the host's noise, and the host's speed drifts over a
/// run, so `setup_s` is the median of many taken across it.
pub fn setup_due(setups: &[f64], measured: f64) -> bool {
    const MAX_SETUPS: usize = 2000;
    setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < measured / 9.0
}

/// The calibration pass time, in seconds, that defines the reference
/// host: one on which [`calibrate`] takes exactly this long. Scaled
/// metrics are in that host's seconds.
pub const REFERENCE_CALIBRATION_S: f64 = 0.5e-3;

/// Seconds of calibration in the host-speed sample a run takes before its
/// measured phase; the samples within it take a sixteenth of the work
/// they follow.
pub const HOST_SAMPLE_S: f64 = 0.02;

/// Times one pass of a fixed CPU-bound kernel: relaxation sweeps over a
/// small grid, with a xorshift draw, a rare branch and a table update per
/// cell, about 0.5–0.7 ms a pass on a 2-vCPU Intel Xeon VM. It is the
/// benchmark's own code, so no change to the program moves it; only the
/// host's speed does.
pub fn calibrate() -> f64 {
    const N: usize = 48;
    let start = Instant::now();
    let mut grid = [[0.0f64; N]; N];
    for (i, row) in grid.iter_mut().enumerate() {
        for (j, c) in row.iter_mut().enumerate() {
            *c = (i * j) as f64 / (N * N) as f64;
        }
    }
    let mut table = [0u32; 1 << 14];
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..std::hint::black_box(60) {
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut v =
                    0.25 * (grid[i - 1][j] + grid[i + 1][j] + grid[i][j - 1] + grid[i][j + 1]);
                if x & 0xff == 0 {
                    v += 1e-3;
                }
                grid[i][j] = 0.9 * v + 0.1 * grid[i][j];
                let k = (x >> 50) as usize;
                table[k] = table[k].wrapping_add(1);
            }
        }
    }
    std::hint::black_box((&grid, &table));
    start.elapsed().as_secs_f64()
}

/// The host's speed over a run, sampled with [`calibrate`] between slices
/// of the run's work. On a shared machine other tenants can slow the host
/// by 20–60% for minutes at a time, and CPU-bound times swing with it;
/// dividing them by [`HostSpeed::slowdown`] takes most of that out (see
/// NOTES.md).
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Runs calibration passes for about `budget` seconds, at least three,
    /// and records their median.
    pub fn sample(&mut self, budget: f64) {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < 3 || start.elapsed().as_secs_f64() < budget {
            passes.push(calibrate());
        }
        self.samples.push(median(&passes));
    }

    /// The median calibration pass of the run, in µs.
    pub fn calibration_us(&self) -> f64 {
        median(&self.samples) * 1e6
    }

    /// How many times slower than the reference host this one ran: a
    /// CPU-bound time divided by it is in reference seconds.
    pub fn slowdown(&self) -> f64 {
        assert!(!self.samples.is_empty(), "host speed sampled before use");
        median(&self.samples) / REFERENCE_CALIBRATION_S
    }

    /// The stdout line that records the scaling: the calibration, the
    /// slowdown, and the end-to-end metrics before scaling.
    pub fn json(&self, unscaled: &BTreeMap<String, f64>) -> String {
        let fields: Vec<String> = unscaled.iter().map(|(k, v)| format!("\"{k}\":{v:?}")).collect();
        format!(
            "{{\"host_speed\":{{\"calibration_us\":{:?},\"slowdown\":{:?},\"unscaled\":{{{}}}}}}}",
            self.calibration_us(),
            self.slowdown(),
            fields.join(",")
        )
    }
}

/// End-to-end metrics scaled to the reference host: `trials_per_s`, a
/// rate, multiplied by `slowdown`, every other one, a time, divided by it.
pub fn scale(unscaled: &BTreeMap<String, f64>, slowdown: f64) -> BTreeMap<String, f64> {
    unscaled
        .iter()
        .map(|(name, v)| {
            let scaled = if name == "trials_per_s" { v * slowdown } else { v / slowdown };
            (name.clone(), scaled)
        })
        .collect()
}

/// Facts about the machine a result was taken on.
pub fn host_json(traced: bool) -> String {
    let git = git_revision();
    let digest = source_digest();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let spin = spin_ratio();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"host\":{{\"git_revision\":{},\"source_fnv1a\":\"{digest:016x}\",\
         \"nproc\":{nproc},\"spin_ratio_2v1\":{spin},\"effective_parallelism\":{},\
         \"cpu_model\":{},\"traced\":{traced}}}}}",
        json_str(&git),
        2.0 / spin,
        json_str(&cpu),
    )
}

/// A JSON string literal (the host facts hold no control characters
/// beyond what this escapes).
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a 64 over the path and bytes of every manifest and Rust source
/// under `crates/` and `perfbench/`, in path order: names the code version
/// where no git metadata exists (the benchmark may run from a plain copy).
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("perfbench".as_ref(), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    enerj_serve::journal::fnv1a(&bytes)
}

/// Wall time of two threads spinning the same ALU loop at once over one
/// thread spinning it alone: 1.0 with two real CPUs, 2.0 with one.
/// Median of three tries.
fn spin_ratio() -> f64 {
    fn spin(n: u64) -> u64 {
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..n {
            x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        std::hint::black_box(x)
    }
    const N: u64 = 20_000_000;
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            spin(N);
            let one = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(N));
                let b = s.spawn(|| spin(N));
                a.join().expect("spin thread");
                b.join().expect("spin thread");
            });
            start.elapsed().as_secs_f64() / one
        })
        .collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_is_the_median_calibration_over_the_reference_and_scales_metrics() {
        let mut host = HostSpeed::default();
        host.sample(0.0);
        assert!(host.slowdown() > 0.0);
        host.samples = vec![1e-3, 2e-3, 0.5e-3];
        assert_eq!(host.slowdown(), 2.0);
        let unscaled = BTreeMap::from([("setup_s".to_owned(), 0.25)]);
        let rate = BTreeMap::from([("trials_per_s".to_owned(), 10.0)]);
        assert_eq!(scale(&unscaled, 2.0)["setup_s"], 0.125);
        assert_eq!(scale(&rate, 2.0)["trials_per_s"], 20.0);
        assert_eq!(
            host.json(&unscaled),
            "{\"host_speed\":{\"calibration_us\":1000.0,\"slowdown\":2.0,\"unscaled\":{\"setup_s\":0.25}}}"
        );
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn process_clocks_read() {
        assert!(cpu_seconds(None).expect("cpu clock") >= 0.0);
        assert!(peak_rss_mb(None).expect("VmHWM") > 0.0);
    }
}
