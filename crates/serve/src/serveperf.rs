//! The `enerj-serveperf/1` report: what `servebench` writes to
//! `results/BENCH_serveperf.json`. [`ServePerfReport`] is the schema's one
//! definition: `servebench` serializes it with [`ServePerfReport::to_json`],
//! and the validator reads it back with [`ServePerfReport::from_json`] and
//! checks it with [`ServePerfReport::check`]. The check does not gate on
//! absolute throughput, which depends on the host.

use enerj_apps::json::{Fields, Json};

/// The schema tag.
pub const SCHEMA: &str = "enerj-serveperf/1";

/// Phase 1: one campaign run uninterrupted and once more across a
/// `kill -9` and restart.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    /// Trials in the campaign.
    pub trials: usize,
    /// Bytes of its NDJSON stream.
    pub bytes: usize,
    /// Committed trials the second server had when it was killed.
    pub kill_after_trials: usize,
    /// The campaign's exact scaled energy.
    pub quanta_total: u128,
    /// The campaign's exact as-if-precise energy.
    pub quanta_baseline: u128,
}

/// Phase 2: a batch of jobs run to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Jobs submitted.
    pub jobs: usize,
    /// Trials in each job.
    pub trials_per_job: usize,
    /// Wall time from the first submit to the last verdict.
    pub wall_seconds: f64,
    /// `jobs / wall_seconds`.
    pub jobs_per_sec: f64,
    /// `jobs * trials_per_job / wall_seconds`.
    pub trials_per_sec: f64,
}

/// The daemon settings the benchmark ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Worker threads.
    pub workers: usize,
    /// Trials per journal chunk.
    pub chunk: usize,
    /// Runs per app × level in the benchmark spec.
    pub runs: u64,
}

/// A complete `enerj-serveperf/1` report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePerfReport {
    /// Whether the kill-resume stream was byte-identical to the
    /// uninterrupted one. `servebench` writes no report when it is not, so
    /// a stored `false` is corrupt by construction.
    pub kill_resume_identical: bool,
    /// The identity gate.
    pub identity: Identity,
    /// Jobs per second.
    pub throughput: Throughput,
    /// Phase 3: submit to first streamed trial line, in milliseconds.
    pub time_to_first_trial_ms: f64,
    /// The daemon settings.
    pub config: BenchConfig,
}

impl ServePerfReport {
    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        let (id, thr, cfg) = (&self.identity, &self.throughput, &self.config);
        Json::object([
            ("schema", SCHEMA.into()),
            ("kill_resume_identical", self.kill_resume_identical.into()),
            (
                "identity",
                Json::object([
                    ("trials", id.trials.into()),
                    ("bytes", id.bytes.into()),
                    ("kill_after_trials", id.kill_after_trials.into()),
                    ("quanta_total", id.quanta_total.into()),
                    ("quanta_baseline", id.quanta_baseline.into()),
                ]),
            ),
            (
                "throughput",
                Json::object([
                    ("jobs", thr.jobs.into()),
                    ("trials_per_job", thr.trials_per_job.into()),
                    ("wall_seconds", thr.wall_seconds.into()),
                    ("jobs_per_sec", thr.jobs_per_sec.into()),
                    ("trials_per_sec", thr.trials_per_sec.into()),
                ]),
            ),
            (
                "first_trial",
                Json::object([("time_to_first_trial_ms", self.time_to_first_trial_ms.into())]),
            ),
            (
                "config",
                Json::object([
                    ("workers", cfg.workers.into()),
                    ("chunk", cfg.chunk.into()),
                    ("runs", cfg.runs.into()),
                ]),
            ),
        ])
    }

    /// Reads a parsed report: counts positive integers, quanta exact
    /// integers, rates and durations finite and positive.
    pub fn from_json(v: &Json) -> Result<ServePerfReport, String> {
        let f = Fields::root(v)?;
        f.schema(SCHEMA)?;
        let id = f.object("identity")?;
        let thr = f.object("throughput")?;
        let cfg = f.object("config")?;
        Ok(ServePerfReport {
            kill_resume_identical: f.bool("kill_resume_identical")?,
            identity: Identity {
                trials: id.count("trials")?,
                bytes: id.count("bytes")?,
                kill_after_trials: id.count("kill_after_trials")?,
                quanta_total: id.uint("quanta_total")?,
                quanta_baseline: id.uint("quanta_baseline")?,
            },
            throughput: Throughput {
                jobs: thr.count("jobs")?,
                trials_per_job: thr.count("trials_per_job")?,
                wall_seconds: thr.positive("wall_seconds")?,
                jobs_per_sec: thr.positive("jobs_per_sec")?,
                trials_per_sec: thr.positive("trials_per_sec")?,
            },
            time_to_first_trial_ms: f.object("first_trial")?.positive("time_to_first_trial_ms")?,
            config: BenchConfig {
                workers: cfg.count("workers")?,
                chunk: cfg.count("chunk")?,
                runs: cfg.count("runs")?,
            },
        })
    }

    /// The identity verdict holds, the kill landed inside the campaign,
    /// trials metered energy, and both rates agree with the counts and
    /// wall time they summarize (within 1%).
    pub fn check(&self) -> Result<(), String> {
        if !self.kill_resume_identical {
            return Err("`kill_resume_identical` is false — the kill-resume stream diverged \
                        from the uninterrupted run"
                .into());
        }
        let id = &self.identity;
        if id.kill_after_trials >= id.trials {
            return Err(format!(
                "identity: kill_after_trials {} >= trials {} — the kill landed after the \
                 campaign finished, so nothing was resumed",
                id.kill_after_trials, id.trials
            ));
        }
        if id.quanta_total == 0 || id.quanta_baseline == 0 {
            return Err(format!(
                "identity: zero quanta (total {}, baseline {}) — no trials ran",
                id.quanta_total, id.quanta_baseline
            ));
        }
        let t = &self.throughput;
        let (jobs, per_job, wall) = (t.jobs as f64, t.trials_per_job as f64, t.wall_seconds);
        for (name, rate, implied) in [
            ("jobs_per_sec", t.jobs_per_sec, jobs / wall),
            ("trials_per_sec", t.trials_per_sec, jobs * per_job / wall),
        ] {
            if (rate - implied).abs() > 0.01 * implied.max(rate) {
                return Err(format!(
                    "throughput: {name} {rate} inconsistent with {} jobs x {} trials in {wall} s \
                     ({implied:.3})",
                    t.jobs, t.trials_per_job
                ));
            }
        }
        Ok(())
    }
}
