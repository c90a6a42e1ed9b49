//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds and prints, as its last stdout line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer split, timed from outside around the
//! public calls of each layer ([`probe`]). The first line records the
//! host, and the line before the result its speed over the run
//! ([`probe::HostSpeed`]): the CPU-bound end-to-end metrics are scaled to
//! a reference host, and that line keeps their values as measured. A run
//! whose correctness gate ([`gate`]) fails prints `"correct": false` with
//! no metrics and exits 1.
//!
//! Workloads: `fig5-apps`, `chaos-recovery`, `dispatch-ndjson`
//! ([`campaign`]) and `serve-closed` ([`serve`]). See `NOTES.md` for why
//! each exists and what each metric should move.

mod campaign;
mod gate;
mod probe;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use enerj_serve::server::{Server, ServerConfig};

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("trials_per_s", "1/s"),
    ("cpu_us_per_trial", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ttft_ms_p50", "ms"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`. A workload
/// that never calls into a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    let apps: Vec<&str> = (0..probe::N_APPS).map(probe::app_key).collect();
    v.extend(apps.iter().map(|a| (format!("sim.us_per_run.{a}"), "us")));
    v.push(("sim.ns_per_op".into(), "ns"));
    v.push(("sim.faults_per_trial".into(), "count"));
    v.extend(apps.iter().map(|a| (format!("workload.cold_us.{a}"), "us")));
    for (name, unit) in [
        ("qos.us_per_call", "us"),
        ("recovery.attempts_per_trial", "count"),
        ("recovery.useful_ratio", "ratio"),
        ("recovery.retry_sim_share", "ratio"),
        ("recovery.check_us_per_call", "us"),
        ("recovery.watchdog_trips", "count"),
        ("trials.spec_us_per_trial", "us"),
        ("trials.other_us_per_trial", "us"),
        ("trials.panics_per_job", "count"),
        ("serialize.us_per_trial", "us"),
        ("serialize.bytes_per_trial", "bytes"),
        ("sink.write_us_per_trial", "us"),
        ("http.submit_ms_p50", "ms"),
        ("http.status_ms_p50", "ms"),
        ("spec.parse_us", "us"),
        ("server.chunk_compute_ms", "ms"),
        ("server.ttft_wait_ms_p50", "ms"),
        ("journal.append_ms_p50", "ms"),
        ("journal.append_ms_p90", "ms"),
        ("journal.recover_ms", "ms"),
        ("trace.untraced_trials_per_s", "1/s"),
        ("trace.traced_trials_per_s", "1/s"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

/// The workloads, as in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["fig5-apps", "chaos-recovery", "dispatch-ndjson", "serve-closed"];

/// What a workload run measured.
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: trials for campaign workloads, jobs for
    /// `serve-closed`.
    pub attempted: usize,
    /// Operations that failed (see `NOTES.md`).
    pub failed: usize,
    /// The host's speed over the run.
    pub host: probe::HostSpeed,
    /// The scaled end-to-end metrics before scaling (empty when traced).
    pub unscaled: BTreeMap<String, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seed = value("--seed")?.parse().map_err(|_| "--seed needs an integer".to_owned())?;
    let seconds: f64 =
        value("--seconds")?.parse().map_err(|_| "--seconds needs a number".to_owned())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Scratch space inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".bench_tmp").join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The `campaignd` child of `serve-closed`: `Server::run` on a state
/// directory with one worker, as `campaignd --workers 1` runs it.
fn daemon(state_dir: &str) -> ExitCode {
    let cfg = ServerConfig { state_dir: state_dir.into(), workers: 1, ..ServerConfig::default() };
    match Server::run(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        return match args.get(1) {
            Some(dir) => daemon(dir),
            None => ExitCode::from(2),
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch space: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", probe::host_json(args.trace));

    let tmp = scratch.0.as_path();
    let outcome = match args.workload.as_str() {
        "fig5-apps" => {
            campaign::run(campaign::Kind::Fig5, args.seed, args.seconds, args.trace, tmp)
        }
        "chaos-recovery" => {
            campaign::run(campaign::Kind::Chaos, args.seed, args.seconds, args.trace, tmp)
        }
        "dispatch-ndjson" => {
            campaign::run(campaign::Kind::Dispatch, args.seed, args.seconds, args.trace, tmp)
        }
        _ => serve::run(args.seed, args.seconds, args.trace, tmp),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {}: correctness gate failed, no numbers reported:\n{e}",
                args.workload
            );
            println!("{}", result_line(false, 1, 0, ""));
            return ExitCode::FAILURE;
        }
    };

    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    if let Some(extra) = outcome.metrics.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        eprintln!("perfbench: internal error: unlisted metric `{extra}`");
        return ExitCode::FAILURE;
    }
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("perfbench: internal error: metric `{name}` is {v}");
                return ExitCode::FAILURE;
            }
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: internal error: end-to-end metric `{name}` missing");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("  {name:<32} {value:>14.4} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!("{}", outcome.host.json(&outcome.unscaled));
    println!("{}", result_line(true, outcome.attempted, outcome.failed, &fields.join(", ")));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_bench::json::Json;

    fn listed(doc: &Json, key: &str, field: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| m.get(field).and_then(Json::as_str).expect("a string field").to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(listed(&doc, "workloads", "name"), WORKLOADS);
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        for (key, want) in [("end_to_end", e2e), ("per_layer", layers)] {
            let got: Vec<(String, String)> =
                listed(&doc, key, "name").into_iter().zip(listed(&doc, key, "unit")).collect();
            assert_eq!(got, want, "{key}");
        }
    }
}
