//! Integration tests for the streaming campaign engine: every campaign —
//! lazily sourced, any thread count, chunk size, sink and telemetry
//! setting, recovery ladders and crashing apps included — must match the
//! serial reference loop (`reference/mod.rs`) trial by trial and in every
//! aggregate. The engine is a throughput optimization; it is allowed to
//! change nothing else.

mod reference;

use std::io;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::meta::AppMeta;
use enerj_apps::qos::{Output, QosMetric};
use enerj_apps::recovery::{chaos_config, Policy};
use enerj_apps::trials::{
    run_campaign, run_campaign_streamed, trial_json, CampaignOptions, CampaignReport, NdjsonSink,
    NullSink, SpecFn, TrialResult, TrialSink, TrialSpec, VecSink,
};
use enerj_apps::{all_apps, no_check, App};
use enerj_core::{endorse, Approx};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::EnergyQuantaBreakdown;
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use proptest::prelude::*;

fn app(name: &str) -> App {
    all_apps().into_iter().find(|a| a.meta.name == name).expect("registered")
}

/// A small mixed campaign: two apps, two fault levels, an odd trial count
/// so no chunk size divides it evenly.
fn mixed_specs() -> Vec<TrialSpec> {
    let mut specs = Vec::new();
    for name in ["FFT", "MonteCarlo"] {
        let app = app(name);
        let reference = Arc::new(harness::reference(&app).output);
        for level in [Level::Mild, Level::Aggressive] {
            for i in 0..3u64 {
                specs.push(TrialSpec::scored(
                    &app,
                    level.to_string(),
                    HwConfig::for_level(level),
                    FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                ));
            }
        }
    }
    specs.truncate(11);
    specs
}

fn panicking_run() -> Output {
    panic!("endorsed index perturbed out of bounds");
}

/// `n` MonteCarlo trials under 50x chaos with a recovery ladder at QoS
/// threshold 0, so faulted trials escalate.
fn recovery_specs(n: u64) -> Vec<TrialSpec> {
    let app = app("MonteCarlo");
    let reference = Arc::new(harness::reference(&app).output);
    let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
    (0..n)
        .map(|i| {
            TrialSpec::scored(
                &app,
                "chaos",
                chaos_config(50.0),
                FAULT_SEED_BASE ^ i,
                Arc::clone(&reference),
            )
            .with_recovery(policy.clone())
        })
        .collect()
}

/// Plain specs, recovery specs and a crashing app, interleaved so every
/// kind lands in different chunks and on different workers; the crashing
/// app is also the first and the last trial.
fn all_kinds_specs() -> Vec<TrialSpec> {
    let panicker = App {
        meta: AppMeta {
            name: "Panicker",
            description: "test-only app whose every run crashes",
            metric: QosMetric::MeanEntryDiff,
            source: "",
        },
        run: panicking_run,
        check: no_check,
    };
    let bad_reference = Arc::new(Output::Values(vec![0.0]));
    let mut specs = mixed_specs();
    for (k, r) in recovery_specs(2).into_iter().enumerate() {
        specs.insert(5 * k + 1, r);
    }
    for at in [0, 7, specs.len() + 2] {
        specs.insert(
            at,
            TrialSpec::scored(
                &panicker,
                "Medium",
                HwConfig::for_level(Level::Medium),
                FAULT_SEED_BASE ^ at as u64,
                Arc::clone(&bad_reference),
            ),
        );
    }
    assert!(specs.last().is_some_and(|s| s.app.meta.name == "Panicker"));
    specs
}

/// The engine against the serial reference at threads {1, 2, 4, 8} ×
/// chunk {1, 3, 256, auto} × every sink: `VecSink` with and without the
/// fault log, the in-memory report (post-hoc totals included), the NDJSON
/// stream (wall-clock masked) and the null sink's summary.
#[test]
fn engine_matches_the_serial_reference_at_every_thread_count_chunk_and_sink() {
    let specs = all_kinds_specs();
    let plain = reference::run(specs.as_slice(), false);
    let logged = reference::run(specs.as_slice(), true);
    assert!(plain.totals.panics >= 3, "the crashing app must be in the campaign");
    assert!(plain.totals.recovered > 0, "threshold 0 under chaos must escalate");
    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 3, 256, 0] {
            let what = format!("{threads} threads, chunk {chunk}");
            let source = SpecFn::new(specs.len(), |i| specs[i].clone());
            for (log_events, want) in [(false, &plain), (true, &logged)] {
                let opts =
                    CampaignOptions { threads, chunk, log_events, ..CampaignOptions::default() };
                let mut sink = VecSink::default();
                let summary = run_campaign_streamed(&source, &opts, &mut sink)
                    .expect("the in-memory sink cannot fail");
                let what = format!("{what}, fault log {log_events}");
                reference::assert_trials_match(&sink.trials, want, &what);
                reference::assert_summary_matches(&summary, want, &what);
            }

            let opts = CampaignOptions { threads, chunk, ..CampaignOptions::default() };
            let report = run_campaign(&source, &opts);
            reference::assert_report_matches(&report, &plain, &format!("{what}, report"));

            let mut sink = NdjsonSink::new(Vec::<u8>::new());
            let summary = run_campaign_streamed(&source, &opts, &mut sink)
                .expect("Vec<u8> writes cannot fail");
            reference::assert_summary_matches(&summary, &plain, &format!("{what}, NDJSON"));
            let text = String::from_utf8(sink.into_inner()).expect("NDJSON is UTF-8");
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), plain.trials.len(), "{what}: NDJSON line count");
            for (line, want) in lines.iter().zip(&plain.trials) {
                assert_eq!(
                    reference::mask_wall(line),
                    reference::mask_wall(&trial_json(want)),
                    "{what}: NDJSON line {}",
                    want.index
                );
            }

            let summary = run_campaign_streamed(&source, &opts, &mut NullSink)
                .expect("the null sink cannot fail");
            reference::assert_summary_matches(&summary, &plain, &format!("{what}, null sink"));
        }
    }
}

/// The synthetic dispatch body: a generated input and a few approximate
/// ops, so hundreds of trials cost milliseconds.
fn tiny_run() -> Output {
    let signal = enerj_apps::workload::complex_signal(512);
    let mut acc = Approx::new(0.0f64);
    for i in 0..16 {
        acc += Approx::new(signal.0[i]) * 0.5;
    }
    Output::Values(vec![endorse(acc)])
}

/// Hundreds of tiny trials keep the reorder window full, so workers block
/// on backpressure and drain each other's slots: the engine must still
/// deliver exactly the reference, with the window inside its bound.
#[test]
fn many_small_trials_match_the_serial_reference() {
    let tiny = App {
        meta: AppMeta {
            name: "TinyDispatch",
            description: "synthetic campaign body: generated input, few approximate ops",
            metric: QosMetric::MeanEntryDiff,
            source: "",
        },
        run: tiny_run,
        check: no_check,
    };
    let reference_output = Arc::new(harness::reference(&tiny).output);
    let source = SpecFn::new(400, |i| {
        TrialSpec::scored(
            &tiny,
            "perf",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE ^ i as u64,
            Arc::clone(&reference_output),
        )
    });
    let want = reference::run(&source, false);
    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 16, 64] {
            let what = format!("tiny, {threads} threads, chunk {chunk}");
            let opts = CampaignOptions { threads, chunk, ..CampaignOptions::default() };
            let mut sink = VecSink::default();
            let summary = run_campaign_streamed(&source, &opts, &mut sink)
                .expect("the in-memory sink cannot fail");
            reference::assert_trials_match(&sink.trials, &want, &what);
            reference::assert_summary_matches(&summary, &want, &what);
            assert_eq!(summary.buffer_capacity, (2 * threads * chunk).max(chunk + 1), "{what}");
            if threads == 1 {
                assert_eq!(summary.peak_buffered, 1, "{what}: one thread drains every push");
            }
        }
    }
}

/// Deadline truncation lands exactly on a chunk boundary, flies the
/// `deadline_exceeded` flag, and the committed prefix is bit-identical to
/// the same prefix of an undeadlined run — a deadline changes how *many*
/// chunks run, never what any trial computes.
#[test]
fn deadline_truncates_at_a_chunk_boundary_bit_identically() {
    let specs = mixed_specs();
    let want = reference::run(specs.as_slice(), false);
    let chunk = 4usize;

    // spec(0) stalls well past the deadline. The deadline is checked at
    // claim time and claimed chunks always run to completion, so exactly
    // the first chunk commits — deterministically, however slow the box.
    let source = SpecFn::new(specs.len(), |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(300));
        }
        specs[i].clone()
    });
    let opts = CampaignOptions {
        threads: 1,
        chunk,
        deadline: Some(Duration::from_millis(100)),
        ..CampaignOptions::default()
    };
    let mut sink = VecSink::default();
    let summary =
        run_campaign_streamed(&source, &opts, &mut sink).expect("the in-memory sink cannot fail");
    assert!(summary.deadline_exceeded, "the stalled first chunk must overrun the deadline");
    assert_eq!(sink.trials.len(), chunk, "truncation lands on a chunk boundary");
    assert_eq!(summary.trials, chunk);
    for (got, want) in sink.trials.iter().zip(&want.trials) {
        reference::assert_trial_eq(got, want, "deadline prefix");
    }

    // An already-expired deadline truncates before the first claim.
    let source = SpecFn::new(specs.len(), |i| specs[i].clone());
    let opts = CampaignOptions {
        threads: 1,
        chunk,
        deadline: Some(Duration::ZERO),
        ..CampaignOptions::default()
    };
    let mut sink = VecSink::default();
    let summary =
        run_campaign_streamed(&source, &opts, &mut sink).expect("the in-memory sink cannot fail");
    assert!(summary.deadline_exceeded);
    assert_eq!(sink.trials.len(), 0, "no chunk may be claimed after expiry");

    // A deadline with hours of slack changes nothing at all.
    let source = SpecFn::new(specs.len(), |i| specs[i].clone());
    let opts = CampaignOptions {
        threads: 2,
        chunk,
        deadline: Some(Duration::from_secs(3600)),
        ..CampaignOptions::default()
    };
    let mut sink = VecSink::default();
    let summary =
        run_campaign_streamed(&source, &opts, &mut sink).expect("the in-memory sink cannot fail");
    reference::assert_trials_match(&sink.trials, &want, "slack deadline");
    reference::assert_summary_matches(&summary, &want, "slack deadline");
}

/// A worker that dies mid-chunk (a panicking [`SpecFn`] — a harness bug,
/// not an app fault; app panics are contained per trial) must poison the
/// reorder window so the campaign panics promptly. Before the poison flag
/// existed this deadlocked: the other workers blocked forever in `push`,
/// waiting for window slots the dead worker would never fill.
#[test]
fn dying_worker_poisons_the_reorder_window_instead_of_hanging() {
    let specs = mixed_specs();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // 64 trials, chunk 1, 4 workers: the window holds 8, so with
        // index 5 never delivered the survivors *will* block at index 13
        // and beyond — the exact shape that used to hang.
        let source = SpecFn::new(64, |i| {
            assert!(i != 5, "synthetic SpecSource failure");
            specs[i % specs.len()].clone()
        });
        let opts = CampaignOptions { threads: 4, chunk: 1, ..CampaignOptions::default() };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = VecSink::default();
            let _ = run_campaign_streamed(&source, &opts, &mut sink);
        }));
        let _ = tx.send(outcome.is_err());
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("campaign hung: the reorder window was never poisoned");
    assert!(panicked, "a dying worker must propagate as a campaign panic, not a clean return");
}

/// A sink that can fail on `accept` (after `fail_accept_at` successes) or
/// on the final `flush`.
struct FailingSink {
    accepted: usize,
    fail_accept_at: Option<usize>,
    fail_flush: bool,
}

impl TrialSink for FailingSink {
    fn accept(&mut self, _trial: TrialResult) -> io::Result<()> {
        if Some(self.accepted) == self.fail_accept_at {
            return Err(io::Error::other("disk full"));
        }
        self.accepted += 1;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.fail_flush {
            return Err(io::Error::other("flush failed"));
        }
        Ok(())
    }
}

/// Sink failures — on a mid-campaign `accept` or on the final `flush` —
/// surface as the campaign's `io::Result` at one thread and at several. The engine never swallows a sink error, and an accept
/// error stops deliveries without stopping the campaign.
#[test]
fn sink_errors_surface_as_the_campaign_result() {
    let specs = mixed_specs();
    for threads in [1usize, 4] {
        let opts = CampaignOptions { threads, chunk: 2, ..CampaignOptions::default() };

        let source = SpecFn::new(specs.len(), |i| specs[i].clone());
        let mut sink = FailingSink { accepted: 0, fail_accept_at: Some(3), fail_flush: false };
        let err = run_campaign_streamed(&source, &opts, &mut sink)
            .expect_err("accept failure must surface");
        assert_eq!(err.to_string(), "disk full", "{threads} threads");
        assert_eq!(sink.accepted, 3, "{threads} threads: the first failure stops deliveries");

        let source = SpecFn::new(specs.len(), |i| specs[i].clone());
        let mut sink = FailingSink { accepted: 0, fail_accept_at: None, fail_flush: true };
        let err = run_campaign_streamed(&source, &opts, &mut sink)
            .expect_err("flush failure must surface");
        assert_eq!(err.to_string(), "flush failed", "{threads} threads");
        assert_eq!(
            sink.accepted,
            specs.len(),
            "{threads} threads: every trial was delivered before the flush failed"
        );
    }
}

/// A writer that buffers fine but cannot flush — the tail-loss shape
/// `NdjsonSink::flush` exists to catch.
struct FlushlessWriter(Vec<u8>);

impl io::Write for FlushlessWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Err(io::Error::other("device gone at flush"))
    }
}

/// [`NdjsonSink`] forwards its writer's flush failure as the campaign
/// result: a buffered stream that cannot flush its tail fails loudly
/// instead of reporting success over silently truncated output.
#[test]
fn ndjson_sink_flush_failure_fails_the_campaign() {
    let specs = mixed_specs();
    let source = SpecFn::new(specs.len(), |i| specs[i].clone());
    let opts = CampaignOptions { threads: 2, chunk: 2, ..CampaignOptions::default() };
    let mut sink = NdjsonSink::new(FlushlessWriter(Vec::new()));
    let err =
        run_campaign_streamed(&source, &opts, &mut sink).expect_err("flush error must surface");
    assert_eq!(err.to_string(), "device gone at flush");
    // Every line was still written before the flush failed.
    let text = String::from_utf8(sink.into_inner().0).expect("NDJSON is UTF-8");
    assert_eq!(text.lines().count(), specs.len());
}

/// Splits `0..len` into the chunked claim order `workers` round-robin
/// workers would produce, then folds each worker's subtotal first — the
/// per-worker reduction shape — and finally merges worker subtotals in a
/// seed-shuffled order.
fn chunked_shuffled_sum(
    values: &[u128],
    chunk: usize,
    workers: usize,
    mut seed: u64,
) -> EnergyQuanta {
    let mut per_worker = vec![EnergyQuanta::ZERO; workers];
    for (c, slice) in values.chunks(chunk).enumerate() {
        for &v in slice {
            per_worker[c % workers] += EnergyQuanta::new(v);
        }
    }
    // Fisher–Yates on the worker subtotals with a tiny LCG: the merge
    // order the condvar wakeups happen to produce is arbitrary.
    for i in (1..per_worker.len()).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        per_worker.swap(i, j);
    }
    let mut total = EnergyQuanta::ZERO;
    for sub in per_worker {
        total += sub;
    }
    total
}

proptest! {
    /// Energy quanta totals are order-independent by construction: any
    /// per-worker chunked reduction, merged in any order, equals the
    /// strict index-order fold the drain point performs. (This is the
    /// property that lets the engine fold totals at the drain without
    /// waiting for stragglers; the f64 error mean is order-sensitive and
    /// is therefore *only* ever folded in index order.)
    #[test]
    fn shuffled_per_worker_quanta_reduction_matches_index_order(
        raw in prop::collection::vec(any::<u64>(), 1..80),
        chunk in 1usize..20,
        workers in 1usize..9,
        seed: u64,
    ) {
        let values: Vec<u128> = raw.iter().map(|&v| u128::from(v)).collect();
        let mut index_order = EnergyQuanta::ZERO;
        for &v in &values {
            index_order += EnergyQuanta::new(v);
        }
        let shuffled = chunked_shuffled_sum(&values, chunk, workers, seed);
        prop_assert_eq!(index_order, shuffled);
    }
}

/// The serial reference and one engine report per thread count in
/// {1, 2, 4, 8} over a chaos-recovery campaign, computed once and shared
/// across proptest cases.
fn shared_recovery_reports() -> &'static (reference::Reference, Vec<(usize, CampaignReport)>) {
    static REPORTS: OnceLock<(reference::Reference, Vec<(usize, CampaignReport)>)> =
        OnceLock::new();
    REPORTS.get_or_init(|| {
        let specs = recovery_specs(4);
        let want = reference::run(specs.as_slice(), false);
        let reports = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| (t, run_campaign(specs.as_slice(), &CampaignOptions::with_threads(t))))
            .collect();
        (want, reports)
    })
}

/// Deterministic Fisher–Yates driven by a SplitMix64 stream.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

proptest! {
    /// Shuffle the trial merge order *and* the thread count: every
    /// campaign energy total (per-pool stats quanta, the energy breakdown,
    /// and the recovery overhead) equals the serial reference's, asserted
    /// with `==` on the integers.
    #[test]
    fn campaign_energy_totals_are_order_and_thread_independent(
        seed: u64,
        threads in proptest::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let (want, reports) = shared_recovery_reports();
        let want = &want.totals;
        let report = &reports.iter().find(|(t, _)| *t == threads).expect("precomputed").1;

        // Thread count cannot perturb any total.
        prop_assert_eq!(report.energy_quanta_totals(), want.energy_quanta);
        prop_assert_eq!(report.recovery_energy_overhead(), want.recovery_energy_overhead_quanta);
        prop_assert_eq!(report.merged_stats, want.merged_stats);

        // Neither can merge order: fold the trials in a shuffled order
        // and compare whole-struct equality against the in-order totals.
        let mut order: Vec<usize> = (0..report.trials.len()).collect();
        shuffle(&mut order, seed);
        let mut energy = EnergyQuantaBreakdown::ZERO;
        let mut overhead = EnergyQuanta::ZERO;
        let mut stats = Stats::new();
        for &i in &order {
            energy.merge(&report.trials[i].energy_quanta);
            overhead += report.trials[i].recovery_energy_overhead_quanta;
            stats.merge(&report.trials[i].stats);
        }
        prop_assert_eq!(energy, want.energy_quanta);
        prop_assert_eq!(overhead, want.recovery_energy_overhead_quanta);
        prop_assert_eq!(stats, want.merged_stats);
    }
}
