//! `servebench` — throughput and latency for the campaign service, gated
//! on crash-recovery correctness.
//!
//! ```text
//! servebench [--runs N] [--jobs N] [--workers N] [--quick]
//!            [--state-root DIR] [--out PATH]
//! ```
//!
//! Three phases:
//!
//! 1. **Identity gate.** Runs one campaign uninterrupted, then the same
//!    campaign on a second server that is `kill -9`ed at a randomized
//!    committed-chunk boundary and restarted to resume from its journal.
//!    The two collected NDJSON streams must be **byte-identical** and the
//!    exact quanta totals `==`-equal; otherwise servebench prints the
//!    divergence and exits 1 *without writing a report* — a throughput
//!    number for a service that loses bytes is not a number worth having.
//! 2. **Jobs/s.** Submits a batch of jobs and measures completion rate.
//! 3. **Time-to-first-trial.** Submits one job and measures submit → first
//!    streamed NDJSON line.
//!
//! Writes `results/BENCH_serveperf.json` (schema `enerj-serveperf/1`,
//! [`ServePerfReport`]).

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use enerj_serve::client::{Client, Submitted};
use enerj_serve::serveperf::{BenchConfig, Identity, ServePerfReport, Throughput};

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns a sibling `campaignd` on `state_dir` and waits for its
    /// listening line.
    fn start(state_dir: &Path, extra: &[&str]) -> Daemon {
        let exe = std::env::current_exe().expect("current_exe");
        let campaignd = exe.parent().expect("bin dir").join("campaignd");
        let mut child = Command::new(&campaignd)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", campaignd.display()));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .and_then(|l| l.ok())
            .unwrap_or_else(|| panic!("campaignd exited before announcing its address"));
        let addr = first.rsplit(' ').next().unwrap_or_default().to_owned();
        assert!(addr.contains(':'), "unexpected campaignd banner: {first}");
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_timeout(Duration::from_secs(120))
    }

    /// `kill -9`: the crash the journal must survive.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful drain via the API, then reap.
    fn shutdown(&mut self) {
        let _ = self.client().shutdown();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spec_json(tenant: &str, runs: u64, chunk: usize) -> String {
    format!(
        "{{\"schema\":\"enerj-serve/1\",\"tenant\":\"{tenant}\",\
         \"apps\":[\"MonteCarlo\",\"FFT\"],\"levels\":[\"Mild\",\"Aggressive\"],\
         \"runs\":{runs},\"chunk\":{chunk}}}"
    )
}

fn submit_ok(client: &Client, spec: &str) -> String {
    match client.submit(spec).expect("submit") {
        Submitted::Accepted { job_id, .. } => job_id,
        Submitted::Rejected { error, detail, .. } => {
            panic!("benchmark job rejected ({error}): {detail}")
        }
    }
}

fn collect_stream(client: &Client, job: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    client
        .stream_lines(job, 0, |line| {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        })
        .expect("stream");
    bytes
}

fn summary_quanta(client: &Client, job: &str) -> (u128, u128) {
    let doc = client.summary(job).expect("summary").json().expect("summary json");
    (
        doc.get("quanta_total").and_then(|q| q.as_u128()).expect("quanta_total"),
        doc.get("quanta_baseline").and_then(|q| q.as_u128()).expect("quanta_baseline"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let quick = args.iter().any(|a| a == "--quick");
    let runs: u64 =
        flag("--runs").map(|v| v.parse().expect("--runs")).unwrap_or(if quick { 3 } else { 6 });
    let jobs: usize =
        flag("--jobs").map(|v| v.parse().expect("--jobs")).unwrap_or(if quick { 4 } else { 8 });
    let workers: usize = flag("--workers")
        .map(|v| v.parse().expect("--workers"))
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2));
    let state_root =
        PathBuf::from(flag("--state-root").unwrap_or_else(|| "results/serve/bench".to_owned()));
    let out =
        PathBuf::from(flag("--out").unwrap_or_else(|| "results/BENCH_serveperf.json".to_owned()));
    let _ = fs::remove_dir_all(&state_root);
    fs::create_dir_all(&state_root).expect("state root");

    let chunk = 2usize;
    let spec = spec_json("bench", runs, chunk);
    let trials_per_job = 2 * 2 * runs as usize;

    // ---------------------------------------------------------------
    // Phase 1: kill-resume identity gate
    // ---------------------------------------------------------------
    eprintln!("servebench: phase 1 — kill -9 / resume identity gate");
    let worker_args = format!("{workers}");

    let mut clean = Daemon::start(&state_root.join("clean"), &["--workers", &worker_args]);
    let clean_client = clean.client();
    let clean_job = submit_ok(&clean_client, &spec);
    clean_client.wait(&clean_job, Duration::from_secs(600)).expect("clean run");
    let clean_bytes = collect_stream(&clean_client, &clean_job);
    let clean_quanta = summary_quanta(&clean_client, &clean_job);
    clean.shutdown();

    // Kill at a randomized committed boundary strictly inside the run.
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos() as usize;
    let kill_after = 1 + nanos % (trials_per_job - chunk).max(1);
    let crash_dir = state_root.join("crash");
    let mut crash = Daemon::start(&crash_dir, &["--workers", &worker_args]);
    let crash_client = crash.client();
    let crash_job = submit_ok(&crash_client, &spec);
    loop {
        let doc = crash_client.status(&crash_job).expect("status").json().expect("status json");
        let committed = doc.get("trials_committed").and_then(|t| t.as_i128()).unwrap_or(0) as usize;
        if committed >= kill_after || doc.get("verdict").and_then(|v| v.as_str()).is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    crash.kill9();
    eprintln!("servebench: killed campaignd after >= {kill_after} committed trials; restarting");
    let mut resumed = Daemon::start(&crash_dir, &["--workers", &worker_args]);
    let resumed_client = resumed.client();
    resumed_client.wait(&crash_job, Duration::from_secs(600)).expect("resumed run");
    let crash_bytes = collect_stream(&resumed_client, &crash_job);
    let crash_quanta = summary_quanta(&resumed_client, &crash_job);
    resumed.shutdown();

    if clean_bytes != crash_bytes || clean_quanta != crash_quanta {
        eprintln!(
            "servebench: IDENTITY GATE FAILED: uninterrupted {} bytes / quanta {:?}, \
             kill-resume {} bytes / quanta {:?} — refusing to write a report",
            clean_bytes.len(),
            clean_quanta,
            crash_bytes.len(),
            crash_quanta,
        );
        std::process::exit(1);
    }
    eprintln!(
        "servebench: identity gate passed ({} trials, {} bytes, kill after {kill_after})",
        trials_per_job,
        clean_bytes.len(),
    );

    // ---------------------------------------------------------------
    // Phase 2: jobs/s
    // ---------------------------------------------------------------
    eprintln!("servebench: phase 2 — {jobs} jobs x {trials_per_job} trials on {workers} workers");
    let mut thr = Daemon::start(
        &state_root.join("throughput"),
        &["--workers", &worker_args, "--queue-cap", "64", "--max-jobs-per-tenant", "64"],
    );
    let thr_client = thr.client();
    let t0 = Instant::now();
    let ids: Vec<String> = (0..jobs).map(|_| submit_ok(&thr_client, &spec)).collect();
    for id in &ids {
        thr_client.wait(id, Duration::from_secs(600)).expect("throughput job");
    }
    let thr_wall = t0.elapsed();
    let jobs_per_sec = jobs as f64 / thr_wall.as_secs_f64();
    let trials_per_sec = (jobs * trials_per_job) as f64 / thr_wall.as_secs_f64();

    // ---------------------------------------------------------------
    // Phase 3: time to first trial
    // ---------------------------------------------------------------
    let t0 = Instant::now();
    let ttft_job = submit_ok(&thr_client, &spec);
    let mut first_line_at: Option<Duration> = None;
    thr_client
        .stream_lines(&ttft_job, 0, |_| {
            if first_line_at.is_none() {
                first_line_at = Some(t0.elapsed());
            }
        })
        .expect("ttft stream");
    let ttft = first_line_at.expect("at least one trial line");
    thr.shutdown();

    // ---------------------------------------------------------------
    // Report
    // ---------------------------------------------------------------
    let report = ServePerfReport {
        kill_resume_identical: true,
        identity: Identity {
            trials: trials_per_job,
            bytes: clean_bytes.len(),
            kill_after_trials: kill_after,
            quanta_total: clean_quanta.0,
            quanta_baseline: clean_quanta.1,
        },
        throughput: Throughput {
            jobs,
            trials_per_job,
            wall_seconds: thr_wall.as_secs_f64(),
            jobs_per_sec,
            trials_per_sec,
        },
        time_to_first_trial_ms: ttft.as_secs_f64() * 1e3,
        config: BenchConfig { workers, chunk, runs },
    };
    if let Some(parent) = out.parent() {
        fs::create_dir_all(parent).expect("results dir");
    }
    fs::write(&out, report.to_json().to_string() + "\n").expect("write report");
    println!(
        "servebench: {jobs_per_sec:.2} jobs/s, {trials_per_sec:.1} trials/s, \
         first trial in {:.1} ms (report: {})",
        ttft.as_secs_f64() * 1e3,
        out.display(),
    );
    let _ = fs::remove_dir_all(&state_root);
}
