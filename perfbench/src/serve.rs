//! `serve-closed`: a `campaignd` child driven by a closed loop of two
//! clients.
//!
//! The child is this binary re-run with `--daemon`, which calls
//! `enerj_serve::server::Server::run` exactly as `campaignd`'s `main`
//! does, so one build serves both. Each client (tenant `a` or `b`) repeats:
//! submit the `servebench` spec, stream the job to its end, fetch the
//! summary. Every streamed job must equal an offline replay of the same
//! `JobSpec` byte for byte. A set-up is a daemon restarted on a state
//! directory of finished jobs, timed to its listening line; set-ups run in
//! pauses between slices of the loop. The spec has no seed field, so this workload
//! does not depend on `--seed`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use enerj_apps::trials::{
    run_campaign_streamed, CampaignOptions, CampaignSummary, NdjsonSink, SpecFn, TrialResult,
    TrialSink,
};
use enerj_hw::quanta::EnergyQuanta;
use enerj_serve::client::{Client, Submitted};
use enerj_serve::journal::{self, fnv1a, ChunkRecord, Journal};
use enerj_serve::spec::JobSpec;

use crate::campaign::splitmix64;
use crate::gate;
use crate::probe::{self, median, percentile, HostSpeed, SinkTotals, TracedSink};
use crate::Outcome;

/// Jobs whose chunks are replayed through `Journal::append_chunk`.
const JOURNAL_JOBS: usize = 20;
/// Finished jobs a set-up's daemon recovers before it listens.
const RECOVERED_JOBS: usize = 16;
/// Slices of the closed loop; set-ups run in the pauses between them.
const SLICES: f64 = 10.0;
/// Offline replays of the job, each untraced and traced, for the trial
/// layers and the tracing overhead.
const REPLAYS: u32 = 5;

/// The `servebench` spec for `tenant`: MonteCarlo and FFT × Mild and
/// Aggressive × 6 runs, 2 trials per chunk — 24 trials, 12 commits.
pub fn spec_text(tenant: &str) -> String {
    format!(
        "{{\"schema\":\"enerj-serve/1\",\"tenant\":\"{tenant}\",\
         \"apps\":[\"MonteCarlo\",\"FFT\"],\"levels\":[\"Mild\",\"Aggressive\"],\
         \"runs\":6,\"chunk\":2}}"
    )
}

/// A `campaignd` child on its own state directory.
struct Daemon {
    child: Child,
    addr: String,
    // Held open so the child never writes to a closed pipe.
    _stdout: Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Starts the child and waits for its `listening` line.
    fn start(state_dir: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--daemon")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let banner = lines.next().transpose()?.unwrap_or_default();
        let addr = banner.rsplit(' ').next().unwrap_or_default().to_owned();
        if !banner.starts_with("campaignd listening on ") || !addr.contains(':') {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("unexpected daemon banner `{banner}`")));
        }
        Ok(Daemon { child, addr, _stdout: lines })
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_timeout(Duration::from_secs(30))
    }

    /// Kills the daemon and waits for it to exit. A graceful drain would
    /// wait out the supervisor's lease/4 sleep (7.5 s at the default
    /// lease); every job is committed by the time this is called, and the
    /// journal is built to survive `kill -9` anyway.
    fn stop(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The per-chunk ledger the daemon journals with each commit.
#[derive(Default)]
struct Ledger {
    quanta_total: EnergyQuanta,
    quanta_baseline: EnergyQuanta,
    error_sum: f64,
    panics: usize,
}

/// The daemon side of one chunk, replayed offline.
struct Chunk {
    bytes: Vec<u8>,
    summary: CampaignSummary,
    ledger: Ledger,
}

/// Remaps chunk-local trial indices to global ones, zeroes `wall` and
/// folds the chunk ledger — what the daemon's chunk sink does — before
/// handing each trial on.
struct ChunkSink<S> {
    lo: usize,
    inner: S,
    ledger: Ledger,
}

impl<S: TrialSink> TrialSink for ChunkSink<S> {
    fn accept(&mut self, mut t: TrialResult) -> io::Result<()> {
        t.index += self.lo;
        t.wall = Duration::ZERO;
        let l = &mut self.ledger;
        l.error_sum += t.error;
        l.panics += usize::from(t.panicked());
        l.quanta_total += t.energy_quanta.total;
        l.quanta_baseline += t.energy_quanta.baseline_total;
        self.inner.accept(t)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Replays chunk `c` of `spec` through `JobSpec::trial_spec` and
/// `run_campaign_streamed`, serially, as a daemon worker does. Traced
/// replays use the wrapped apps and the benchmark's own sink, adding what
/// that sink saw to `totals`.
fn replay_chunk(spec: &JobSpec, c: usize, traced: bool, totals: &mut SinkTotals) -> Chunk {
    let (lo, hi) = spec.chunk_range(c);
    let opts = CampaignOptions { threads: 1, chunk: hi - lo, ..CampaignOptions::default() };
    let run = |sink: &mut dyn TrialSink| {
        let trial = |i: usize| {
            let mut t = spec.trial_spec(lo + i, 0);
            if traced {
                t.app = probe::traced_apps()[probe::app_index(t.app.meta.name)].clone();
            }
            t
        };
        let source = SpecFn::new(hi - lo, trial);
        if traced {
            run_campaign_streamed(&probe::TracedSource(source), &opts, sink)
        } else {
            run_campaign_streamed(&source, &opts, sink)
        }
        .expect("an in-memory sink cannot fail")
    };
    if traced {
        let mut sink =
            ChunkSink { lo, inner: TracedSink::new(Some(Vec::new())), ledger: Ledger::default() };
        let summary = run(&mut sink);
        totals.add(&sink.inner.totals);
        let bytes = sink.inner.into_inner().unwrap_or_default();
        Chunk { bytes, summary, ledger: sink.ledger }
    } else {
        let mut sink =
            ChunkSink { lo, inner: NdjsonSink::new(Vec::new()), ledger: Ledger::default() };
        let summary = run(&mut sink);
        Chunk { bytes: sink.inner.into_inner(), summary, ledger: sink.ledger }
    }
}

fn replay_job(spec: &JobSpec, traced: bool, totals: &mut SinkTotals) -> Vec<Chunk> {
    (0..spec.total_chunks()).map(|c| replay_chunk(spec, c, traced, totals)).collect()
}

/// A client's pause between jobs, uniform in 0..25 ms from a SplitMix64
/// stream of the workload seed and the tenant. Without it the two clients
/// phase-lock to the daemon's 10 and 15 ms poll periods, and the run's
/// time-to-first-trial median lands in one of two modes (about 22 or 35
/// ms) depending on how the run happened to start.
struct ThinkTime(u64);

impl ThinkTime {
    fn new(seed: u64, tenant: &str) -> ThinkTime {
        ThinkTime(seed ^ fnv1a(tenant.as_bytes()))
    }

    fn next(&mut self) -> Duration {
        self.0 = self.0.wrapping_add(1);
        Duration::from_micros(splitmix64(self.0) % 25_000)
    }
}

/// What one client saw of one job.
struct JobRecord {
    job_id: String,
    submit_ms: f64,
    ttft_ms: f64,
    /// A failed operation: a rejected submit, an HTTP or stream error, or
    /// a verdict other than `complete`.
    failure: Option<String>,
    /// A correctness violation: bytes or quanta differ from the replay.
    wrong: Option<String>,
}

/// What every job must produce.
struct Expected {
    bytes: Vec<u8>,
    quanta_total: u128,
    quanta_baseline: u128,
}

impl Expected {
    fn from_replay(chunks: &[Chunk]) -> Expected {
        Expected {
            bytes: chunks.iter().flat_map(|c| c.bytes.iter().copied()).collect(),
            quanta_total: chunks.iter().map(|c| c.ledger.quanta_total).sum::<EnergyQuanta>().get(),
            quanta_baseline: chunks
                .iter()
                .map(|c| c.ledger.quanta_baseline)
                .sum::<EnergyQuanta>()
                .get(),
        }
    }
}

/// Checks one streamed job against the offline replay: the stream byte
/// for byte, the summary's quanta exactly.
fn verify_job(
    expected: &Expected,
    bytes: &[u8],
    quanta_total: Option<u128>,
    quanta_baseline: Option<u128>,
) -> Result<(), String> {
    gate::same_bytes(&expected.bytes, bytes, "stream")?;
    if (quanta_total, quanta_baseline)
        != (Some(expected.quanta_total), Some(expected.quanta_baseline))
    {
        return Err(format!(
            "summary quanta {quanta_total:?}/{quanta_baseline:?}, replay {}/{}",
            expected.quanta_total, expected.quanta_baseline
        ));
    }
    Ok(())
}

/// Runs one job as a client of `daemon`.
fn one_job(client: &Client, spec: &str, expected: &Expected) -> JobRecord {
    let mut rec = JobRecord {
        job_id: String::new(),
        submit_ms: 0.0,
        ttft_ms: 0.0,
        failure: None,
        wrong: None,
    };
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let job = match client.submit(spec) {
        Ok(Submitted::Accepted { job_id, .. }) => job_id,
        Ok(Submitted::Rejected { error, backoff_ms, .. }) => {
            std::thread::sleep(Duration::from_millis(backoff_ms.unwrap_or(10)));
            rec.failure = Some(format!("submit rejected: {error}"));
            return rec;
        }
        Err(e) => {
            rec.failure = Some(format!("submit: {e}"));
            return rec;
        }
    };
    rec.submit_ms = ms(start);
    rec.job_id.clone_from(&job);
    let mut bytes = Vec::with_capacity(expected.bytes.len());
    let mut first = None;
    let streamed = client.stream_lines(&job, 0, |line| {
        first.get_or_insert_with(|| ms(start));
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    });
    rec.ttft_ms = first.unwrap_or_else(|| ms(start));
    if let Err(e) = streamed {
        rec.failure = Some(format!("stream {job}: {e}"));
        return rec;
    }
    let doc = match client.summary(&job).map(|r| r.json()) {
        Ok(Ok(doc)) => doc,
        Ok(Err(e)) => {
            rec.failure = Some(format!("summary {job}: {e}"));
            return rec;
        }
        Err(e) => {
            rec.failure = Some(format!("summary {job}: {e}"));
            return rec;
        }
    };
    let verdict = doc.get("verdict").and_then(|v| v.as_str()).unwrap_or("none");
    if verdict != "complete" {
        rec.failure = Some(format!("job {job} ended `{verdict}`"));
        return rec;
    }
    let quanta = |k: &str| doc.get(k).and_then(|q| q.as_u128());
    rec.wrong = verify_job(expected, &bytes, quanta("quanta_total"), quanta("quanta_baseline"))
        .map_err(|e| format!("job {job}: {e}"))
        .err();
    rec
}

/// One slice of the closed loop: each client (a tenant and its think
/// times) submits, streams and checks jobs until `seconds` have passed,
/// pausing for a think time after each job.
fn closed_loop(
    daemon: &Daemon,
    clients: &mut [(&str, ThinkTime)],
    seconds: f64,
    expected: &Expected,
) -> Vec<JobRecord> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .map(|(tenant, think)| {
                let (client, spec) = (daemon.client(), spec_text(tenant));
                s.spawn(move || {
                    let mut records = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        records.push(one_job(&client, &spec, expected));
                        std::thread::sleep(think.next());
                    }
                    records
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("client thread")).collect()
    })
}

/// Runs `serve-closed` for `seconds`. The loop is the same with `trace`:
/// it carries no timers beyond the ones time to first trial needs anyway,
/// and the per-layer probes run after it.
pub fn run(seed: u64, seconds: f64, trace: bool, tmp: &Path) -> Result<Outcome, String> {
    let io_err = |e: io::Error| format!("serve-closed: {e}");
    let spec_a = spec_text("a");

    // The expected stream, replayed offline; the check's, not the daemon's.
    let spec = JobSpec::parse(&spec_a).map_err(|e| format!("serve-closed: spec: {e}"))?;
    let expected = Expected::from_replay(&replay_job(&spec, false, &mut SinkTotals::default()));

    // Warm-up: a daemon runs `RECOVERED_JOBS` jobs, checked, and stops.
    let recovered = tmp.join("recovered");
    let warm = Daemon::start(&recovered).map_err(io_err)?;
    let client = warm.client();
    for _ in 0..RECOVERED_JOBS {
        let rec = one_job(&client, &spec_a, &expected);
        if let Some(e) = rec.wrong.or(rec.failure) {
            return Err(format!("serve-closed: warm-up {e}"));
        }
    }
    warm.stop().map_err(io_err)?;

    // Set-up: a daemon restarted on that state directory, timed from the
    // spawn to its listening line, which it prints once it has recovered
    // every finished job; then stopped. The first comes before the loop,
    // the rest in pauses between the loop's slices.
    let set_up = || -> io::Result<f64> {
        let start = Instant::now();
        let daemon = Daemon::start(&recovered)?;
        let took = start.elapsed().as_secs_f64();
        daemon.stop()?;
        Ok(took)
    };
    let mut setups = vec![set_up().map_err(io_err)?];
    let mut host = HostSpeed::default();
    host.sample(probe::HOST_SAMPLE_S);

    // The loop's daemon, on a state directory of its own.
    let state = tmp.join("state");
    let daemon = Daemon::start(&state).map_err(io_err)?;
    let pid = daemon.child.id();
    let cpu_now =
        || -> io::Result<f64> { Ok(probe::cpu_seconds(None)? + probe::cpu_seconds(Some(pid))?) };

    let mut clients = ["a", "b"].map(|tenant| (tenant, ThinkTime::new(seed, tenant)));
    let mut records = Vec::new();
    let cpu_start = cpu_now().map_err(io_err)?;
    let start = Instant::now();
    let (mut paused, mut paused_cpu) = (0.0, 0.0);
    loop {
        let measured = start.elapsed().as_secs_f64() - paused;
        if measured >= seconds {
            break;
        }
        if probe::setup_due(&setups, measured) {
            let (t, cpu) = (Instant::now(), cpu_now().map_err(io_err)?);
            setups.push(set_up().map_err(io_err)?);
            paused += t.elapsed().as_secs_f64();
            paused_cpu += cpu_now().map_err(io_err)? - cpu;
            continue;
        }
        let slice = (seconds - measured).min(seconds / SLICES);
        let t = Instant::now();
        records.extend(closed_loop(&daemon, &mut clients, slice, &expected));
        let (t, cpu, took) = (Instant::now(), cpu_now().map_err(io_err)?, t.elapsed());
        host.sample(took.as_secs_f64() / 16.0);
        paused += t.elapsed().as_secs_f64();
        paused_cpu += cpu_now().map_err(io_err)? - cpu;
    }
    let wall = start.elapsed().as_secs_f64() - paused;
    let cpu = cpu_now().map_err(io_err)? - cpu_start - paused_cpu;
    let rss = probe::peak_rss_mb(Some(pid)).map_err(io_err)?;
    let status_ms =
        if trace { status_probe(&daemon, &records).map_err(io_err)? } else { Vec::new() };
    daemon.stop().map_err(io_err)?;

    if let Some(wrong) = records.iter().find_map(|r| r.wrong.clone()) {
        return Err(wrong);
    }
    let failed = records.iter().filter(|r| r.failure.is_some()).count();
    if let Some(f) = records.iter().find_map(|r| r.failure.as_ref()) {
        eprintln!("serve-closed: {failed} failed job(s), the first: {f}");
    }
    let ok: Vec<&JobRecord> = records.iter().filter(|r| r.failure.is_none()).collect();
    if ok.is_empty() {
        return Err("serve-closed: no job completed".to_owned());
    }
    let trials_per_job = expected.bytes.iter().filter(|&&b| b == b'\n').count() as f64;

    let mut m = BTreeMap::new();
    let mut unscaled = BTreeMap::new();
    if trace {
        m.insert("http.status_ms_p50".into(), percentile(&status_ms, 50.0));
        layer_metrics(&ok, &expected, &state, tmp, &mut m)?;
    } else {
        let ttft: Vec<f64> = ok.iter().map(|r| r.ttft_ms).collect();
        let trials = ok.len() as f64 * trials_per_job;
        m.insert("peak_rss_mb".into(), rss);
        // Time to first trial is mostly the daemon's sleep-polls and stays
        // as measured; the rest is CPU-bound and scaled to the reference
        // host (see NOTES.md).
        m.insert("ttft_ms_p50".into(), percentile(&ttft, 50.0));
        unscaled.insert("trials_per_s".into(), trials / wall);
        unscaled.insert("cpu_us_per_trial".into(), cpu / trials * 1e6);
        unscaled.insert("setup_s".into(), median(&setups));
        m.extend(probe::scale(&unscaled, host.slowdown()));
    }
    Ok(Outcome { metrics: m, attempted: records.len(), failed, host, unscaled })
}

/// Times `Client::status` on up to 40 finished jobs, once the loop is
/// over and while the daemon is still up.
fn status_probe(daemon: &Daemon, records: &[JobRecord]) -> io::Result<Vec<f64>> {
    let client = daemon.client();
    let mut times = Vec::new();
    for r in records.iter().filter(|r| !r.job_id.is_empty()).take(40) {
        let start = Instant::now();
        let resp = client.status(&r.job_id)?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(io::Error::other(format!("status {}: HTTP {}", r.job_id, resp.status)));
        }
    }
    Ok(times)
}

/// The per-layer split: client-call timings from the loop, and offline
/// probes of the spec parser, one chunk's compute, the journal
/// and the trial layers.
fn layer_metrics(
    ok: &[&JobRecord],
    expected: &Expected,
    state: &Path,
    tmp: &Path,
    m: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let io_err = |e: io::Error| format!("serve-closed: {e}");
    let spec_text = spec_text("a");
    let spec = JobSpec::parse(&spec_text).map_err(|e| format!("serve-closed: spec: {e}"))?;

    const PARSES: u32 = 200;
    let start = Instant::now();
    for _ in 0..PARSES {
        std::hint::black_box(JobSpec::parse(std::hint::black_box(&spec_text)).is_ok());
    }
    m.insert("spec.parse_us".into(), start.elapsed().as_secs_f64() * 1e6 / f64::from(PARSES));

    let chunk_ms: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(replay_chunk(&spec, 0, false, &mut SinkTotals::default()));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let chunk_compute_ms = median(&chunk_ms);
    m.insert("server.chunk_compute_ms".into(), chunk_compute_ms);

    // Each job's chunks, appended afresh in a temp dir: two fsyncs each.
    let chunks = replay_job(&spec, false, &mut SinkTotals::default());
    let mut append_ms = Vec::new();
    for j in 0..JOURNAL_JOBS {
        let mut journal =
            Journal::create(&tmp.join(format!("journal/j{j}")), &spec.to_json()).map_err(io_err)?;
        for (c, chunk) in chunks.iter().enumerate() {
            let (lo, hi) = spec.chunk_range(c);
            let rec = ChunkRecord {
                chunk: c,
                lo,
                hi,
                bytes: chunk.bytes.len() as u64,
                hash: fnv1a(&chunk.bytes),
                quanta_total: chunk.ledger.quanta_total,
                quanta_baseline: chunk.ledger.quanta_baseline,
                error_sum_bits: chunk.ledger.error_sum.to_bits(),
                panics: chunk.ledger.panics,
                degrade_after: 0,
            };
            let start = Instant::now();
            journal.append_chunk(&chunk.bytes, &rec).map_err(io_err)?;
            append_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let append_p50 = percentile(&append_ms, 50.0);
    m.insert("journal.append_ms_p50".into(), append_p50);
    m.insert("journal.append_ms_p90".into(), percentile(&append_ms, 90.0));

    // Recovery over the daemon's finished jobs, which must each read back
    // as the whole replayed stream.
    let mut recover_ms = Vec::new();
    for entry in std::fs::read_dir(state.join("jobs")).map_err(io_err)? {
        let dir: PathBuf = entry.map_err(io_err)?.path();
        let start = Instant::now();
        let rec = journal::recover(&dir).map_err(io_err)?;
        recover_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if rec.committed_bytes != expected.bytes.len() as u64
            || rec.verdict.map(|v| v.verdict).as_deref() != Some("complete")
        {
            return Err(format!("serve-closed: {} did not recover complete", dir.display()));
        }
    }
    m.insert(
        "journal.recover_ms".into(),
        recover_ms.iter().sum::<f64>() / recover_ms.len().max(1) as f64,
    );

    let submit: Vec<f64> = ok.iter().map(|r| r.submit_ms).collect();
    m.insert("http.submit_ms_p50".into(), percentile(&submit, 50.0));
    let wait: Vec<f64> =
        ok.iter().map(|r| r.ttft_ms - r.submit_ms - chunk_compute_ms - append_p50).collect();
    m.insert("server.ttft_wait_ms_p50".into(), percentile(&wait, 50.0));

    // The trial layers inside a chunk, from traced offline replays; the
    // tracing overhead from untraced and traced replays alternated.
    probe::reset();
    let mut sink = SinkTotals::default();
    let mut summaries = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..REPLAYS {
        let start = Instant::now();
        std::hint::black_box(replay_job(&spec, false, &mut SinkTotals::default()));
        untraced_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let chunks = replay_job(&spec, true, &mut sink);
        traced_s += start.elapsed().as_secs_f64();
        summaries.extend(chunks.into_iter().map(|c| c.summary));
    }
    let trials = f64::from(REPLAYS) * expected.bytes.iter().filter(|&&b| b == b'\n').count() as f64;
    m.insert("trace.untraced_trials_per_s".into(), trials / untraced_s);
    m.insert("trace.traced_trials_per_s".into(), trials / traced_s);
    let snap = probe::snapshot();
    probe::trial_layers(&snap, &sink, summaries.iter(), m);
    for (i, _) in snap.apps.iter().enumerate().filter(|(_, a)| a.runs > 0) {
        let cold = crate::campaign::cold_us(&probe::plain_apps()[i]);
        m.insert(format!("workload.cold_us.{}", probe::app_key(i)), cold);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        let spec = JobSpec::parse(&spec_text("a")).expect("the servebench spec parses");
        Expected::from_replay(&replay_job(&spec, false, &mut SinkTotals::default()))
    }

    #[test]
    fn replays_agree_traced_or_not() {
        let spec = JobSpec::parse(&spec_text("b")).expect("the servebench spec parses");
        let plain = Expected::from_replay(&replay_job(&spec, false, &mut SinkTotals::default()));
        let mut totals = SinkTotals::default();
        let traced = Expected::from_replay(&replay_job(&spec, true, &mut totals));
        assert_eq!(totals.trials, 24);
        assert_eq!(plain.bytes.iter().filter(|&&b| b == b'\n').count(), 24);
        verify_job(&plain, &traced.bytes, Some(traced.quanta_total), Some(traced.quanta_baseline))
            .expect("a traced replay is byte-identical");
    }

    #[test]
    fn one_streamed_byte_or_quantum_off_is_refused() {
        let e = expected();
        let (total, baseline) = (Some(e.quanta_total), Some(e.quanta_baseline));
        assert_eq!(verify_job(&e, &e.bytes, total, baseline), Ok(()));
        for at in [0, e.bytes.len() / 2, e.bytes.len() - 2] {
            let mut bytes = e.bytes.clone();
            bytes[at] ^= 1;
            assert!(verify_job(&e, &bytes, total, baseline).is_err(), "byte {at} flipped");
        }
        assert!(verify_job(&e, &e.bytes[..e.bytes.len() - 1], total, baseline).is_err());
        assert!(verify_job(&e, &e.bytes, Some(e.quanta_total + 1), baseline).is_err());
        assert!(verify_job(&e, &e.bytes, total, Some(e.quanta_baseline - 1)).is_err());
        assert!(verify_job(&e, &e.bytes, None, baseline).is_err());
    }
}
