//! `campaign_bench` — throughput and memory benchmarks for the streaming
//! campaign engine ([`trials::run_campaign_streamed`]: lazy specs, chunked
//! work stealing, bounded reorder window, per-worker scratch). The
//! workload is a tiny synthetic app (a generated input plus a few
//! approximate ops) so runner dispatch and input handling — not app
//! compute — dominate, which is the regime million-trial campaigns live in.
//!
//! ```text
//! campaign_bench [--quick] [--threads N] [--chunk N] [--json]
//! ```
//!
//! Two sections, in run order:
//!
//! 1. **memory** — an N-trial campaign streamed to an NDJSON sink (a temp
//!    file, deleted afterwards), run *first* so the process high-water mark
//!    (`VmHWM`) reflects the streaming engine alone: peak RSS stays bounded
//!    by the reorder window, not the campaign length.
//! 2. **engine** — trials/sec at several thread counts and chunk sizes,
//!    with the reorder window's high-water mark against its bound.
//!
//! That the engine's trials are bit-identical to a serial loop is checked
//! by the test suite (`crates/apps/tests/streaming.rs`), not here.
//!
//! Results land in `results/BENCH_campaignperf.json` (schema
//! `enerj-campaignperf/2`, [`CampaignPerfReport`]); check with
//! `validate_schema --campaignperf`.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::meta::AppMeta;
use enerj_apps::qos::{Output, QosMetric};
use enerj_apps::trials::{self, CampaignOptions, NdjsonSink, NullSink, SpecFn, TrialSpec};
use enerj_apps::{no_check, App};
use enerj_bench::cli::Options;
use enerj_bench::perf::{CampaignPerfReport, EngineRow, MemoryRow};
use enerj_bench::{bench_report_path, render_table};
use enerj_core::{endorse, Approx};
use enerj_hw::config::{HwConfig, Level};

/// The synthetic benchmark body: generate a workload input (as every real
/// app does at the top of `run()`), fold a handful of approximate FP ops
/// over it, endorse once. Small enough that per-trial runner overhead —
/// spec generation, claiming, reordering, aggregation, and input
/// regeneration where scratch is not reused — dominates wall-clock.
fn tiny_run() -> Output {
    let signal = enerj_apps::workload::complex_signal(512);
    let mut acc = Approx::new(0.0f64);
    for i in 0..16 {
        acc += Approx::new(signal.0[i]) * 0.5;
    }
    Output::Values(vec![endorse(acc)])
}

/// The synthetic app under test.
fn tiny_app() -> App {
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

/// The spec of trial `i`: Medium-level fault injection on the eval seed
/// stream, scored against the fault-free reference.
fn tiny_spec(app: &App, reference: &Arc<Output>, i: usize) -> TrialSpec {
    TrialSpec::scored(
        app,
        "perf",
        HwConfig::for_level(Level::Medium),
        FAULT_SEED_BASE ^ i as u64,
        Arc::clone(reference),
    )
}

/// The process's resident-set high-water mark (`VmHWM`, kB) from
/// `/proc/self/status`; 0 where the proc filesystem is unavailable.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Trials/sec with the denominator clamped away from zero, so a fast
/// `--quick` run can never serialize `inf`/`NaN`.
fn rate(trials: usize, wall: f64) -> f64 {
    trials as f64 / wall.max(1e-9)
}

fn main() {
    let opts = Options::parse(std::env::args(), 0);
    let quick = opts.has_flag("--quick");
    let app = tiny_app();
    let reference = Arc::new(harness::reference(&app).output);

    // -- memory: stream N trials to NDJSON, first so VmHWM is the engine's.
    let mem_trials: usize = if quick { 50_000 } else { 1_000_000 };
    let mem_threads = if opts.threads == 0 { trials::default_threads() } else { opts.threads };
    let source = SpecFn::new(mem_trials, |i| tiny_spec(&app, &reference, i));
    let ndjson_path =
        std::env::temp_dir().join(format!("campaign_bench_{}.ndjson", std::process::id()));
    let file = std::fs::File::create(&ndjson_path).expect("create NDJSON temp file");
    let mut sink = NdjsonSink::new(std::io::BufWriter::new(file));
    let mem_opts =
        CampaignOptions { threads: mem_threads, chunk: opts.chunk, ..CampaignOptions::default() };
    let start = Instant::now();
    let mem = trials::run_campaign_streamed(&source, &mem_opts, &mut sink)
        .expect("NDJSON sink write failed");
    let mem_wall = start.elapsed().as_secs_f64();
    sink.into_inner().flush().expect("flush NDJSON");
    let ndjson_bytes = std::fs::metadata(&ndjson_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&ndjson_path);
    let mem_hwm_kb = vm_hwm_kb();

    // -- engine grid: trials/sec per thread count, across chunk sizes.
    let perf_trials: usize = if quick { 2_000 } else { 100_000 };
    let thread_counts: &[usize] = if opts.threads != 0 { &[opts.threads] } else { &[1, 2, 4] };
    let chunks: &[usize] = if opts.chunk != 0 { &[opts.chunk] } else { &[1, 16, 64] };
    let mut rows: Vec<EngineRow> = Vec::new();
    for &threads in thread_counts {
        for &chunk in chunks {
            let source = SpecFn::new(perf_trials, |i| tiny_spec(&app, &reference, i));
            let run_opts = CampaignOptions { threads, chunk, ..CampaignOptions::default() };
            let start = Instant::now();
            let summary = trials::run_campaign_streamed(&source, &run_opts, &mut NullSink)
                .expect("the null sink cannot fail");
            let streamed_trials_per_sec = rate(summary.trials, start.elapsed().as_secs_f64());
            rows.push(EngineRow {
                threads,
                chunk: summary.chunk,
                trials: perf_trials,
                streamed_trials_per_sec,
                peak_buffered: summary.peak_buffered,
                buffer_capacity: summary.buffer_capacity,
            });
        }
    }

    // -- render.
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                r.chunk.to_string(),
                format!("{:.0}", r.streamed_trials_per_sec),
                format!("{}/{}", r.peak_buffered, r.buffer_capacity),
            ]
        })
        .collect();
    println!("Campaign engine throughput ({perf_trials} trials, synthetic generator-backed app)");
    println!();
    println!("{}", render_table(&["threads", "chunk", "streamed/s", "window"], &table_rows));
    println!(
        "memory: {} trials -> NDJSON ({:.1} MB) at {:.0} trials/s on {} threads; \
         peak reorder window {}/{} results, VmHWM {:.1} MB",
        mem.trials,
        ndjson_bytes as f64 / 1e6,
        rate(mem.trials, mem_wall),
        mem.threads,
        mem.peak_buffered,
        mem.buffer_capacity,
        mem_hwm_kb as f64 / 1e3,
    );

    let report = CampaignPerfReport {
        quick,
        memory: MemoryRow {
            trials: mem.trials,
            threads: mem.threads,
            chunk: mem.chunk,
            trials_per_sec: rate(mem.trials, mem_wall),
            ndjson_bytes,
            peak_buffered: mem.peak_buffered,
            buffer_capacity: mem.buffer_capacity,
            vm_hwm_kb: mem_hwm_kb,
        },
        engine: rows,
    };
    let json = report.to_json().to_string() + "\n";
    let path = bench_report_path("campaignperf");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("campaign perf report -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    if opts.json {
        print!("{json}");
    }
}
