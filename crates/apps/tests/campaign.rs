//! Integration tests for the trial-campaign subsystem: the engine must
//! be bit-identical to the serial reference loop (`reference/mod.rs`), the
//! Figure 5 grid must reproduce the paper's serial protocol, and a
//! panicking trial must be contained instead of killing the campaign.

mod reference;

use std::sync::Arc;

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::meta::AppMeta;
use enerj_apps::qos::{output_error, Output, QosMetric};
use enerj_apps::trials::{run_campaign, run_level_campaign, CampaignOptions, LevelGrid, TrialSpec};
use enerj_apps::{all_apps, App};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::stats::Stats;

fn app(name: &str) -> App {
    all_apps().into_iter().find(|a| a.meta.name == name).expect("registered")
}

/// The specs of the Figure 5 protocol for one app: `runs` seeds per level.
fn level_specs(app: &App, levels: &[Level], runs: u64) -> Vec<TrialSpec> {
    let reference = Arc::new(harness::reference(app).output);
    let mut specs = Vec::new();
    for level in levels {
        for i in 0..runs {
            specs.push(TrialSpec::scored(
                app,
                level.to_string(),
                HwConfig::for_level(*level),
                FAULT_SEED_BASE ^ i,
                Arc::clone(&reference),
            ));
        }
    }
    specs
}

#[test]
fn campaign_is_bit_identical_to_the_serial_reference() {
    for name in ["FFT", "MonteCarlo", "jMonkeyEngine"] {
        let specs = level_specs(&app(name), &[Level::Mild, Level::Aggressive], 3);
        let want = reference::run(specs.as_slice(), false);
        for threads in [1, 2, 4, 8] {
            let report = run_campaign(specs.as_slice(), &CampaignOptions::with_threads(threads));
            reference::assert_report_matches(&report, &want, &format!("{name}, {threads} threads"));
        }
    }
}

/// The SciMark kernels now run their inner loops on the batched
/// whole-slice API (see DESIGN.md "Batched kernels"); a campaign over them
/// must stay a deterministic function of `(config, seed, program)` — the
/// serial reference's trial-by-trial bits at every thread count and with
/// fault telemetry on or off, energy quanta included.
#[test]
fn batched_app_campaigns_are_bit_identical_across_threads_and_telemetry() {
    let mut specs = Vec::new();
    for name in ["FFT", "SOR", "LU"] {
        specs.extend(level_specs(&app(name), &[Level::Mild, Level::Aggressive], 2));
    }
    for log_events in [false, true] {
        let want = reference::run(specs.as_slice(), log_events);
        for threads in [1, 2, 4, 8] {
            let opts = CampaignOptions { threads, log_events, ..CampaignOptions::default() };
            let report = run_campaign(specs.as_slice(), &opts);
            let what = format!("{threads} threads, telemetry {log_events}");
            reference::assert_report_matches(&report, &want, &what);
        }
    }
}

#[test]
fn level_campaign_matches_per_level_serial_means() {
    let apps = [app("SOR"), app("MonteCarlo")];
    let report = run_level_campaign(&apps, &Level::ALL, 2, 4);
    let grid = LevelGrid::new(&apps, &Level::ALL, 2, 1);
    reference::assert_report_matches(&report, &reference::run(&grid, false), "Figure 5 grid");
    for a in &apps {
        let reference = harness::reference(a).output;
        for level in Level::ALL {
            // The pre-campaign serial protocol, summed in run order.
            let mut total = 0.0;
            for i in 0..2u64 {
                let m = harness::approximate(a, level, FAULT_SEED_BASE ^ i);
                total += output_error(a.meta.metric, &reference, &m.output);
            }
            let serial = total / 2.0;
            let parallel = report.mean_error_for(a.meta.name, &level.to_string());
            assert_eq!(serial.to_bits(), parallel.to_bits(), "{} at {level}", a.meta.name);
        }
    }
}

fn panicking_run() -> Output {
    panic!("endorsed index perturbed out of bounds");
}

fn panicking_app() -> App {
    App {
        meta: AppMeta {
            name: "Panicker",
            description: "test-only app whose every run crashes",
            metric: QosMetric::MeanEntryDiff,
            source: "",
        },
        run: panicking_run,
        check: enerj_apps::no_check,
    }
}

#[test]
fn panicking_trial_is_contained_and_scored_worst_case() {
    let good = app("MonteCarlo");
    let reference = Arc::new(harness::reference(&good).output);
    let bad_reference = Arc::new(Output::Values(vec![0.0]));
    let mut specs = vec![
        TrialSpec::scored(
            &good,
            "Medium",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE,
            Arc::clone(&reference),
        ),
        TrialSpec::scored(
            &panicking_app(),
            "Medium",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE ^ 1,
            Arc::clone(&bad_reference),
        ),
        TrialSpec::scored(
            &good,
            "Medium",
            HwConfig::for_level(Level::Medium),
            FAULT_SEED_BASE ^ 2,
            Arc::clone(&reference),
        ),
    ];
    // The campaign must complete at every thread count, one included.
    for threads in [1, 3] {
        let report = run_campaign(specs.as_slice(), &CampaignOptions::with_threads(threads));
        assert_eq!(report.trials.len(), 3);
        assert_eq!(report.panic_count(), 1);
        let crashed = &report.trials[1];
        assert!(crashed.panicked());
        assert_eq!(crashed.error, 1.0, "crash scores worst-case QoS");
        assert_eq!(crashed.app, "Panicker");
        assert!(
            crashed.panic.as_deref().unwrap().contains("out of bounds"),
            "panic message recorded: {:?}",
            crashed.panic
        );
        // Crashed trials claim no savings and contribute no stats.
        assert_eq!(crashed.energy.total, 1.0);
        assert_eq!(crashed.stats, Stats::new());
        let good_stats = {
            let mut merged = Stats::new();
            merged.merge(&report.trials[0].stats);
            merged.merge(&report.trials[2].stats);
            merged
        };
        assert_eq!(report.merged_stats, good_stats);
        // The healthy trials are unaffected by their crashed neighbor.
        assert!(!report.trials[0].panicked());
        assert!(!report.trials[2].panicked());
        // JSON report records the panic.
        let json = report.to_json();
        assert!(json.contains("\"panics\":1"));
        assert!(json.contains("out of bounds"));
    }
    // Also contained when the panicking trial is last (a worker's final
    // pull) and when every trial panics.
    specs.rotate_left(1);
    let report = run_campaign(specs.as_slice(), &CampaignOptions::with_threads(2));
    assert_eq!(report.panic_count(), 1);
    let all_bad: Vec<TrialSpec> = (0..4)
        .map(|i| {
            TrialSpec::scored(
                &panicking_app(),
                "Medium",
                HwConfig::for_level(Level::Medium),
                FAULT_SEED_BASE ^ i,
                Arc::clone(&bad_reference),
            )
        })
        .collect();
    let report = run_campaign(all_bad.as_slice(), &CampaignOptions::with_threads(2));
    assert_eq!(report.panic_count(), 4);
    assert_eq!(report.mean_error(), 1.0);
    assert_eq!(report.merged_stats, Stats::new());
}

#[test]
fn mean_output_error_vs_survives_a_panicking_app() {
    // The ported harness entry point inherits the campaign's isolation: a
    // run that panics scores 1.0 instead of aborting the measurement.
    let bad = panicking_app();
    let reference = Output::Values(vec![0.0]);
    let err = harness::mean_output_error_vs(&bad, &reference, Level::Medium, 3);
    assert_eq!(err, 1.0);
}
