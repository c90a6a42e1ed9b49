//! Schema validation for the telemetry artifacts.
//!
//! Checks `results/BENCH_*.json` campaign reports against the
//! `enerj-campaign/5` schema, and NDJSON fault logs and the perf, sched
//! and serve reports against their typed definitions, all as documented
//! in DESIGN.md. Used by the `validate_schema` binary (and the CI smoke
//! jobs) to catch emitter drift.
//!
//! Every schema but `enerj-campaign/5` is one Rust type whose writer and
//! reader share a definition, so its validator is `T::from_json(v)?` plus
//! `check()`. The campaign report's writer is the NDJSON hot path
//! (`enerj_apps::trials::trial_json`), so it is checked here field by
//! field, through the same [`Fields`] reader.

use enerj_apps::json::{Fields, Json};
use enerj_apps::trials::FaultLogLine;
use enerj_hw::trace::FaultKind;
use enerj_serve::serveperf::ServePerfReport;

use crate::perf::{CampaignPerfReport, HwPerfReport};
use crate::sched::SchedReport;

/// Top-level keys every `enerj-campaign/5` report must carry.
const REPORT_KEYS: [&str; 12] = [
    "schema",
    "threads",
    "wall_seconds",
    "mean_error",
    "panics",
    "recovered",
    "budget_quanta",
    "budget_met",
    "recovery_energy_overhead_quanta",
    "energy_quanta",
    "merged_stats",
    "fault_totals",
];

/// Keys every trial object must carry.
const TRIAL_KEYS: [&str; 16] = [
    "index",
    "app",
    "label",
    "seed",
    "error",
    "wall_seconds",
    "panic",
    "attempts",
    "recovered_at_level",
    "scheduled_level",
    "failure_causes",
    "recovery_energy_overhead",
    "recovery_energy_overhead_quanta",
    "stats",
    "energy",
    "energy_quanta",
];

/// Integer-quanta pool keys inside every `stats`/`merged_stats` object.
const STATS_QUANTA_KEYS: [&str; 4] =
    ["sram_approx_quanta", "sram_precise_quanta", "dram_approx_quanta", "dram_precise_quanta"];

/// The scheduler's precision-level vocabulary: the only strings a
/// `scheduled_level` field may carry.
const SCHED_LEVELS: [&str; 4] = ["Precise", "Mild", "Medium", "Aggressive"];

/// Checks the four per-(memory × precision) quanta pools of a stats object.
fn validate_stats_quanta(stats: &Fields) -> Result<(), String> {
    for key in STATS_QUANTA_KEYS {
        stats.uint::<u128>(key)?;
    }
    Ok(())
}

/// Checks an `energy_quanta` breakdown: all eight fields exact
/// non-negative integers, scaled never exceeding its baseline. The
/// comparison is exact 128-bit integer arithmetic.
fn validate_energy_quanta(quanta: &Fields) -> Result<(), String> {
    for (scaled, baseline) in [
        ("instructions", "baseline_instructions"),
        ("sram", "baseline_sram"),
        ("dram", "baseline_dram"),
        ("total", "baseline_total"),
    ] {
        let s: u128 = quanta.uint(scaled)?;
        let b: u128 = quanta.uint(baseline)?;
        if s > b {
            return Err(format!("{}: `{scaled}` {s} exceeds `{baseline}` {b}", quanta.path()));
        }
    }
    Ok(())
}

/// Checks that `counters` is a per-kind counter object: one entry per
/// [`FaultKind`], each with non-negative integer `injections` and
/// `bits_flipped`.
fn validate_counters(counters: &Fields) -> Result<(), String> {
    if counters.field_count() != FaultKind::ALL.len() {
        return Err(format!(
            "{}: expected {} fault kinds, found {}",
            counters.path(),
            FaultKind::ALL.len(),
            counters.field_count()
        ));
    }
    for kind in FaultKind::ALL {
        let entry = counters.object(&kind.to_string())?;
        entry.uint::<u64>("injections")?;
        entry.uint::<u64>("bits_flipped")?;
    }
    Ok(())
}

/// The attempt ledger of a recovery trial: every failed attempt records
/// exactly one cause, so a recovered trial ran one attempt more than it
/// has causes, a degraded one (causes, no recovery) exactly as many, and
/// a trial with no causes exactly one.
pub fn check_attempt_ledger(attempts: u64, causes: usize, recovered: bool) -> Result<(), String> {
    let expected = (causes as u64 + u64::from(recovered)).max(1);
    if attempts != expected {
        return Err(format!(
            "{causes} failure causes and recovered_at_level {} are inconsistent with \
             {attempts} attempts",
            if recovered { "set" } else { "null" },
        ));
    }
    Ok(())
}

/// Validates a parsed `enerj-campaign/5` report. Returns the trial count.
pub fn validate_campaign_report(report: &Json) -> Result<usize, String> {
    let r = Fields::root(report)?;
    r.schema("enerj-campaign/5")?;
    for key in REPORT_KEYS {
        if report.get(key).is_none() {
            return Err(format!("report: missing top-level `{key}`"));
        }
    }
    validate_counters(&r.object("fault_totals")?)?;
    r.uint::<u128>("recovery_energy_overhead_quanta")?;
    let budget = r.nullable("budget_quanta", Fields::uint::<u128>)?;
    let verdict = r.nullable("budget_met", Fields::bool)?;
    // A budget verdict without a budget (or vice versa) is emitter drift.
    if budget.is_some() != verdict.is_some() {
        return Err("`budget_quanta` and `budget_met` must be null together".to_owned());
    }
    validate_stats_quanta(&r.object("merged_stats")?)?;
    validate_energy_quanta(&r.object("energy_quanta")?)?;
    let trials = r.objects("trials")?;
    for trial in &trials {
        let what = trial.path();
        for key in TRIAL_KEYS {
            trial.value(key)?;
        }
        validate_counters(&trial.object("fault_counts")?)?;
        let err = trial.number("error")?;
        if !(0.0..=1.0).contains(&err) {
            return Err(format!("{what}: error {err} outside [0, 1]"));
        }
        let causes = trial
            .value("failure_causes")?
            .as_array()
            .ok_or_else(|| format!("{what}: `failure_causes` must be an array"))?;
        for (j, cause) in causes.iter().enumerate() {
            if cause.as_str().is_none() {
                return Err(format!("{what}: failure_causes[{j}] must be a string"));
            }
        }
        let recovered = trial.nullable("recovered_at_level", Fields::str)?.is_some();
        check_attempt_ledger(trial.uint("attempts")?, causes.len(), recovered)
            .map_err(|e| format!("{what}: {e}"))?;
        trial.nullable("scheduled_level", |t, key| {
            t.name(key, |level| SCHED_LEVELS.contains(&level).then_some(()))
        })?;
        let overhead = trial.number("recovery_energy_overhead")?;
        if overhead < 0.0 {
            return Err(format!("{what}: negative recovery_energy_overhead {overhead}"));
        }
        trial.uint::<u128>("recovery_energy_overhead_quanta")?;
        validate_stats_quanta(&trial.object("stats")?)?;
        validate_energy_quanta(&trial.object("energy_quanta")?)?;
    }
    Ok(trials.len())
}

/// Validates a parsed `enerj-hwperf/3` throughput report (the `hwbench`
/// binary's output). Returns the batched-row count.
pub fn validate_hwperf_report(report: &Json) -> Result<usize, String> {
    let report = HwPerfReport::from_json(report)?;
    report.check()?;
    Ok(report.batched.len())
}

/// Validates a parsed `enerj-campaignperf/2` throughput report (the
/// `campaign_bench` binary's output). Returns the engine-grid row count.
pub fn validate_campaignperf_report(report: &Json) -> Result<usize, String> {
    let report = CampaignPerfReport::from_json(report)?;
    report.check()?;
    Ok(report.engine.len())
}

/// Validates a parsed `enerj-sched/1` budget-scheduling report (the
/// `schedbench` binary's output). Returns the baseline-row count.
pub fn validate_sched_report(report: &Json) -> Result<usize, String> {
    let report = SchedReport::from_json(report)?;
    report.check()?;
    Ok(report.baselines.len())
}

/// Validates a parsed `enerj-serveperf/1` campaign-service report (the
/// `servebench` binary's output). Returns the throughput-phase job count.
pub fn validate_serveperf_report(report: &Json) -> Result<usize, String> {
    let report = ServePerfReport::from_json(report)?;
    report.check()?;
    Ok(report.throughput.jobs)
}

/// Validates a whole NDJSON fault log. Returns the event count. An empty
/// log (no lines) is valid — campaigns that inject no faults emit one.
pub fn validate_fault_log(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        Json::parse(line)
            .and_then(|event| FaultLogLine::from_json(&event))
            .and_then(|event| event.check())
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_apps::trials::{run_campaign, CampaignOptions, TrialSpec};
    use enerj_hw::config::{HwConfig, Level};
    use std::sync::Arc;

    fn aggressive_campaign() -> enerj_apps::trials::CampaignReport {
        let app = enerj_apps::all_apps().remove(2); // MonteCarlo
        let reference = Arc::new(enerj_apps::harness::reference(&app).output);
        let specs: Vec<TrialSpec> = (0..3)
            .map(|i| {
                TrialSpec::scored(
                    &app,
                    "Aggressive",
                    HwConfig::for_level(Level::Aggressive),
                    enerj_apps::harness::FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
            })
            .collect();
        let opts = CampaignOptions { threads: 1, log_events: true, ..CampaignOptions::default() };
        run_campaign(specs.as_slice(), &opts)
    }

    #[test]
    fn real_report_and_log_validate() {
        let report = aggressive_campaign();
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(validate_campaign_report(&parsed), Ok(3));
        let events = validate_fault_log(&report.fault_log_ndjson()).unwrap();
        assert_eq!(events as u64, report.fault_totals().total_injections());
    }

    #[test]
    fn rejects_wrong_schema_and_missing_keys() {
        for old in ["enerj-campaign/1", "enerj-campaign/2", "enerj-campaign/3", "enerj-campaign/4"]
        {
            let v = Json::parse(&format!(r#"{{"schema":"{old}"}}"#)).unwrap();
            assert!(validate_campaign_report(&v).unwrap_err().contains("schema"));
        }
        let v = Json::parse(r#"{"schema":"enerj-campaign/5","threads":1}"#).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("missing top-level"));
    }

    #[test]
    fn rejects_malformed_scheduler_fields() {
        let good = aggressive_campaign().to_json();
        // Unscheduled campaigns carry null budget fields; a verdict without
        // a budget is drift.
        let verdict_only = good.replacen("\"budget_met\":null", "\"budget_met\":true", 1);
        let v = Json::parse(&verdict_only).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("null together"));
        // Fractional budgets are not integer quanta.
        let fractional = good.replacen("\"budget_quanta\":null", "\"budget_quanta\":0.5", 1);
        let v = Json::parse(&fractional).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("budget_quanta"));
        // The per-trial rung vocabulary is closed.
        let bad_level =
            good.replacen("\"scheduled_level\":null", "\"scheduled_level\":\"Chaos\"", 1);
        let v = Json::parse(&bad_level).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("scheduled_level"));
        // A scheduled campaign with consistent fields passes.
        let scheduled = good
            .replacen("\"budget_quanta\":null", "\"budget_quanta\":999999999999", 1)
            .replacen("\"budget_met\":null", "\"budget_met\":true", 1)
            .replace("\"scheduled_level\":null", "\"scheduled_level\":\"Mild\"");
        let v = Json::parse(&scheduled).unwrap();
        assert_eq!(validate_campaign_report(&v), Ok(3));
    }

    #[test]
    fn rejects_malformed_recovery_fields() {
        let good = aggressive_campaign().to_json();
        let zero_attempts = good.replace("\"attempts\":1", "\"attempts\":0");
        let v = Json::parse(&zero_attempts).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("attempts"));
        let too_many_causes =
            good.replace("\"failure_causes\":[]", "\"failure_causes\":[\"qos: a\",\"qos: b\"]");
        let v = Json::parse(&too_many_causes).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("failure causes"));
        let negative_overhead =
            good.replace("\"recovery_energy_overhead\":0,", "\"recovery_energy_overhead\":-0.5,");
        let v = Json::parse(&negative_overhead).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("recovery_energy_overhead"));
    }

    #[test]
    fn rejects_malformed_quanta_fields() {
        let good = aggressive_campaign().to_json();
        // Fractional quanta: energy is an integer count, not a float.
        let fractional = good.replacen("\"baseline_total\":", "\"baseline_total\":0.5,\"_x\":", 1);
        let v = Json::parse(&fractional).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("non-negative integer"));
        // Negative overhead quanta.
        let negative = good.replacen(
            "\"recovery_energy_overhead_quanta\":",
            "\"recovery_energy_overhead_quanta\":-1,\"_x\":",
            1,
        );
        let v = Json::parse(&negative).unwrap();
        assert!(validate_campaign_report(&v)
            .unwrap_err()
            .contains("recovery_energy_overhead_quanta"));
        // Scaled energy above its own baseline is an accounting bug.
        let inverted =
            good.replacen("\"baseline_instructions\":", "\"baseline_instructions\":0,\"_x\":", 1);
        let v = Json::parse(&inverted).unwrap();
        assert!(validate_campaign_report(&v).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn recovery_campaign_report_validates() {
        use enerj_apps::recovery::{chaos_config, Policy};
        let app = enerj_apps::all_apps().remove(2); // MonteCarlo
        let reference = Arc::new(enerj_apps::harness::reference(&app).output);
        let policy = Policy { qos_threshold: Some(0.0), ..Policy::standard() };
        let specs: Vec<TrialSpec> = (0..3)
            .map(|i| {
                TrialSpec::scored(
                    &app,
                    "chaos",
                    chaos_config(50.0),
                    enerj_apps::harness::FAULT_SEED_BASE ^ i,
                    Arc::clone(&reference),
                )
                .with_recovery(policy.clone())
            })
            .collect();
        let report = run_campaign(specs.as_slice(), &CampaignOptions::with_threads(1));
        assert!(report.recovered_count() > 0, "threshold 0 under chaos must escalate");
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(validate_campaign_report(&parsed), Ok(3));
    }

    const HWPERF_OK: &str = r#"{
        "schema": "enerj-hwperf/3",
        "quick": true,
        "batched": [
            {"kernel": "sram", "level": "Mild", "ops": 393216,
             "scalar_ops_per_sec": 50000000.0,
             "batched_ops_per_sec": 1500000000.0, "speedup": 30.0},
            {"kernel": "alu", "level": "Mild", "ops": 397312,
             "scalar_ops_per_sec": 100000000.0,
             "batched_ops_per_sec": 600000000.0, "speedup": 6.0}
        ],
        "macro": [
            {"app": "FFT", "level": "Aggressive", "ops": 24576,
             "ops_per_sec": 40000000.0}
        ]
    }"#;

    #[test]
    fn hwperf_report_validates() {
        let v = Json::parse(HWPERF_OK).unwrap();
        assert_eq!(validate_hwperf_report(&v), Ok(2));
    }

    #[test]
    fn hwperf_rejects_drifted_reports() {
        // `/2` reports (with the retired per-access `kernels` grid) are
        // superseded.
        let wrong_schema = HWPERF_OK.replace("enerj-hwperf/3", "enerj-hwperf/2");
        let v = Json::parse(&wrong_schema).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("schema"));

        let no_kernels = HWPERF_OK.replace("\"kernel\": \"sram\"", "\"unit\": \"sram\"");
        let v = Json::parse(&no_kernels).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("kernel"));

        let bad_kernel = HWPERF_OK.replace("\"kernel\": \"sram\"", "\"kernel\": \"tlb\"");
        let v = Json::parse(&bad_kernel).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("unknown kernel"));

        let bad_level = HWPERF_OK.replacen("\"Mild\"", "\"Extreme\"", 1);
        let v = Json::parse(&bad_level).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("unknown level"));

        let zero_rate =
            HWPERF_OK.replace("\"scalar_ops_per_sec\": 50000000.0", "\"scalar_ops_per_sec\": 0.0");
        let v = Json::parse(&zero_rate).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("positive"));

        let wrong_speedup = HWPERF_OK.replace("\"speedup\": 30.0", "\"speedup\": 2.0");
        let v = Json::parse(&wrong_speedup).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("inconsistent"));

        let bad_macro = HWPERF_OK.replace("\"ops_per_sec\": 40000000.0", "\"ops_per_sec\": 0");
        let v = Json::parse(&bad_macro).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("positive"));
    }

    #[test]
    fn hwperf_rejects_bad_batched_rows() {
        let missing = HWPERF_OK.replace("\"batched\"", "\"sliced\"");
        let v = Json::parse(&missing).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("batched"));

        let empty = Json::parse(
            r#"{"schema": "enerj-hwperf/3", "quick": true, "batched": [], "macro": []}"#,
        )
        .unwrap();
        assert!(validate_hwperf_report(&empty).unwrap_err().contains("batched"));

        // A serialized `inf` (the unclamped `--quick` denominator bug)
        // parses as a malformed number and must be rejected, as must a
        // literal non-finite-looking huge value drifting in.
        let inf_rate = HWPERF_OK
            .replace("\"batched_ops_per_sec\": 600000000.0", "\"batched_ops_per_sec\": -1.0");
        let v = Json::parse(&inf_rate).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("positive"));

        let wrong_speedup = HWPERF_OK.replace("\"speedup\": 6.0", "\"speedup\": 60.0");
        let v = Json::parse(&wrong_speedup).unwrap();
        assert!(validate_hwperf_report(&v).unwrap_err().contains("inconsistent"));
    }

    const CAMPAIGNPERF_OK: &str = r#"{
        "schema": "enerj-campaignperf/2",
        "quick": true,
        "memory": {
            "trials": 50000, "threads": 2, "chunk": 64,
            "trials_per_sec": 120000.0, "ndjson_bytes": 48000000,
            "peak_buffered": 250, "buffer_capacity": 256, "vm_hwm_kb": 2900
        },
        "engine": [
            {"threads": 2, "chunk": 16, "trials": 2000,
             "streamed_trials_per_sec": 600000.0, "peak_buffered": 64,
             "buffer_capacity": 64}
        ]
    }"#;

    #[test]
    fn campaignperf_report_validates() {
        let v = Json::parse(CAMPAIGNPERF_OK).unwrap();
        assert_eq!(validate_campaignperf_report(&v), Ok(1));
    }

    #[test]
    fn campaignperf_rejects_drifted_reports() {
        // `/1` reports (slot-replica columns, identity verdict) are
        // superseded.
        let wrong_schema = CAMPAIGNPERF_OK.replace("campaignperf/2", "campaignperf/1");
        let v = Json::parse(&wrong_schema).unwrap();
        assert!(validate_campaignperf_report(&v).unwrap_err().contains("schema"));

        let zero_rate = CAMPAIGNPERF_OK
            .replace("\"streamed_trials_per_sec\": 600000.0", "\"streamed_trials_per_sec\": 0.0");
        let v = Json::parse(&zero_rate).unwrap();
        assert!(validate_campaignperf_report(&v).unwrap_err().contains("positive"));

        let no_engine = CAMPAIGNPERF_OK.replace("\"engine\"", "\"grid\"");
        let v = Json::parse(&no_engine).unwrap();
        assert!(validate_campaignperf_report(&v).unwrap_err().contains("engine"));
    }

    #[test]
    fn campaignperf_rejects_unbounded_windows() {
        // A peak above capacity means the reorder window leaked — the
        // bounded-memory claim would be false.
        let overflow = CAMPAIGNPERF_OK.replace("\"peak_buffered\": 250", "\"peak_buffered\": 300");
        let v = Json::parse(&overflow).unwrap();
        assert!(validate_campaignperf_report(&v).unwrap_err().contains("not bounded"));
    }

    const SCHED_OK: &str = r#"{
        "schema": "enerj-sched/1", "quick": true, "meter": "sram",
        "budget_pct": 60, "trials": 24, "epoch_len": 3,
        "precise_cost_quanta": 1000000000000,
        "budget_quanta": 600000000000,
        "identical": true,
        "scheduled": {
            "spent_quanta": 587500000000, "budget_met": true,
            "mean_error": 0.03125, "qos": 0.96875, "implausible": 1,
            "level_counts": {"Precise": 6, "Mild": 9, "Medium": 6, "Aggressive": 3}
        },
        "baselines": [
            {"level": "Precise", "spent_quanta": 1000000000000,
             "mean_error": 0.0, "qos": 1.0, "fits_budget": false},
            {"level": "Mild", "spent_quanta": 489000000000,
             "mean_error": 0.0625, "qos": 0.9375, "fits_budget": true}
        ]
    }"#;

    #[test]
    fn sched_report_validates() {
        let v = Json::parse(SCHED_OK).unwrap();
        assert_eq!(validate_sched_report(&v), Ok(2));
    }

    #[test]
    fn sched_validator_matches_the_real_serializer() {
        // The synthetic SCHED_OK above mirrors `sched::SchedReport`; make
        // sure the actual serializer round-trips through the validator too.
        use crate::sched::{BaselineRow, SchedReport, ScheduledRow};
        use enerj_apps::scheduler::SchedLevel;
        use enerj_hw::energy::QuantaMeter;
        use enerj_hw::quanta::EnergyQuanta;
        let report = SchedReport {
            quick: false,
            meter: QuantaMeter::Sram,
            budget_pct: 60,
            trials: 10,
            epoch_len: 1,
            precise_cost_quanta: EnergyQuanta::new(500),
            budget_quanta: EnergyQuanta::new(300),
            identical: true,
            scheduled: ScheduledRow {
                spent_quanta: EnergyQuanta::new(299),
                budget_met: true,
                mean_error: 0.25,
                qos: 0.75,
                implausible: 0,
                level_counts: [1, 2, 3, 4],
            },
            baselines: vec![BaselineRow {
                level: SchedLevel::Aggressive,
                spent_quanta: EnergyQuanta::new(200),
                mean_error: 0.5,
                qos: 0.5,
                fits_budget: true,
            }],
        };
        let v = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(validate_sched_report(&v), Ok(1));
    }

    #[test]
    fn sched_rejects_drifted_reports() {
        let wrong_schema = SCHED_OK.replace("enerj-sched/1", "enerj-sched/0");
        let v = Json::parse(&wrong_schema).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("schema"));

        let diverged = SCHED_OK.replace("\"identical\": true", "\"identical\": false");
        let v = Json::parse(&diverged).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("diverged"));

        // A dishonest verdict: claims met while spent > budget.
        let dishonest =
            SCHED_OK.replace("\"spent_quanta\": 587500000000", "\"spent_quanta\": 600000000001");
        let v = Json::parse(&dishonest).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("inconsistent"));

        // The budget must be exactly pct% of the precise cost.
        let wrong_budget =
            SCHED_OK.replace("\"budget_quanta\": 600000000000", "\"budget_quanta\": 600000000001");
        let v = Json::parse(&wrong_budget).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("not 60%"));

        // The level census must cover every trial.
        let short_census = SCHED_OK.replace("\"Mild\": 9", "\"Mild\": 8");
        let v = Json::parse(&short_census).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("sum to"));

        let bad_meter = SCHED_OK.replace("\"meter\": \"sram\"", "\"meter\": \"joules\"");
        let v = Json::parse(&bad_meter).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("unknown meter"));

        let bad_level = SCHED_OK.replace("\"level\": \"Mild\"", "\"level\": \"Extreme\"");
        let v = Json::parse(&bad_level).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("unknown level"));

        // A baseline's fits_budget must match its own spend.
        let wrong_fit = SCHED_OK
            .replace("\"qos\": 1.0, \"fits_budget\": false", "\"qos\": 1.0, \"fits_budget\": true");
        let v = Json::parse(&wrong_fit).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("fits_budget"));

        // QoS must be 1 - mean_error.
        let wrong_qos = SCHED_OK.replace("\"qos\": 0.96875", "\"qos\": 0.9");
        let v = Json::parse(&wrong_qos).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("inconsistent"));

        // Hostile quanta are an error, not an overflow panic (debug) or a
        // silent wrap (release): the budget product overflows u128 ...
        let huge_cost = SCHED_OK.replace(
            "\"precise_cost_quanta\": 1000000000000",
            "\"precise_cost_quanta\": 170141183460469231731687303715884105727",
        );
        let v = Json::parse(&huge_cost).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("overflows"));
        // ... and so does the level census.
        let huge_census = SCHED_OK
            .replace("\"Precise\": 6", "\"Precise\": 18446744073709551615")
            .replace("\"Mild\": 9", "\"Mild\": 18446744073709551615");
        let v = Json::parse(&huge_census).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("overflow"));
        // A count beyond u64 is no count at all.
        let wide_count = SCHED_OK
            .replace("\"Precise\": 6", "\"Precise\": 170141183460469231731687303715884105727");
        let v = Json::parse(&wide_count).unwrap();
        assert!(validate_sched_report(&v).unwrap_err().contains("level_counts.Precise"));
    }

    /// A structurally valid `enerj-serveperf/1` report (matches the
    /// `servebench` serializer, with quanta above 2^53 to exercise the
    /// lossless integer path).
    const SERVEPERF_OK: &str = r#"{
      "schema": "enerj-serveperf/1",
      "kill_resume_identical": true,
      "identity": {"trials": 24, "bytes": 26715, "kill_after_trials": 2,
                   "quanta_total": 9007199254740995, "quanta_baseline": 9007199254741997},
      "throughput": {"jobs": 8, "trials_per_job": 24,
                     "wall_seconds": 0.25, "jobs_per_sec": 32.0, "trials_per_sec": 768.0},
      "first_trial": {"time_to_first_trial_ms": 20.7},
      "config": {"workers": 2, "chunk": 2, "runs": 6}
    }"#;

    #[test]
    fn serveperf_report_validates() {
        let v = Json::parse(SERVEPERF_OK).unwrap();
        assert_eq!(validate_serveperf_report(&v), Ok(8));
    }

    #[test]
    fn serveperf_rejects_drifted_reports() {
        let wrong_schema = SERVEPERF_OK.replace("serveperf/1", "serveperf/0");
        let v = Json::parse(&wrong_schema).unwrap();
        assert!(validate_serveperf_report(&v).unwrap_err().contains("schema"));

        // servebench exits without writing a report when the identity gate
        // fails, so `false` here can only mean a hand-edited or corrupt file.
        let diverged = SERVEPERF_OK
            .replace("\"kill_resume_identical\": true", "\"kill_resume_identical\": false");
        let v = Json::parse(&diverged).unwrap();
        assert!(validate_serveperf_report(&v).unwrap_err().contains("diverged"));

        // A kill after the last trial means nothing was actually resumed.
        let late_kill =
            SERVEPERF_OK.replace("\"kill_after_trials\": 2", "\"kill_after_trials\": 24");
        let v = Json::parse(&late_kill).unwrap();
        assert!(validate_serveperf_report(&v).unwrap_err().contains("nothing was resumed"));

        let wrong_rate = SERVEPERF_OK.replace("\"jobs_per_sec\": 32.0", "\"jobs_per_sec\": 99.0");
        let v = Json::parse(&wrong_rate).unwrap();
        assert!(validate_serveperf_report(&v).unwrap_err().contains("inconsistent"));

        let fractional_quanta = SERVEPERF_OK
            .replace("\"quanta_total\": 9007199254740995", "\"quanta_total\": 9007199254740995.5");
        let v = Json::parse(&fractional_quanta).unwrap();
        assert!(validate_serveperf_report(&v).unwrap_err().contains("quanta_total"));

        let no_config = SERVEPERF_OK.replace("\"config\"", "\"settings\"");
        let v = Json::parse(&no_config).unwrap();
        assert!(validate_serveperf_report(&v).unwrap_err().contains("config"));
    }

    #[test]
    fn rejects_bad_fault_log_lines() {
        assert!(validate_fault_log("not json\n").is_err());
        let missing = r#"{"trial":0,"app":"X","label":"L","seed":1,"time":0.0,"unit":"int-timing","width":64}"#;
        assert!(validate_fault_log(missing).unwrap_err().contains("bits_flipped"));
        let bad_unit = r#"{"trial":0,"app":"X","label":"L","seed":1,"time":0.0,"unit":"warp-core","width":64,"bits_flipped":1}"#;
        assert!(validate_fault_log(bad_unit).unwrap_err().contains("unknown unit"));
        let bits_over_width = r#"{"trial":0,"app":"X","label":"L","seed":1,"time":0.0,"unit":"int-timing","width":8,"bits_flipped":9}"#;
        assert!(validate_fault_log(bits_over_width).unwrap_err().contains("exceeds width"));
        let zero_width = bits_over_width.replace("\"width\":8", "\"width\":0");
        assert!(validate_fault_log(&zero_width).unwrap_err().contains("width"));
        let wide = bits_over_width.replace("\"width\":8", "\"width\":65");
        assert!(validate_fault_log(&wide).unwrap_err().contains("width"));
        let past = bad_unit.replace("warp-core", "int-timing").replace("0.0", "-1.5");
        assert!(validate_fault_log(&past).unwrap_err().contains("negative time"));
        assert_eq!(validate_fault_log(""), Ok(0));
    }

    #[test]
    fn attempt_ledger_is_exact() {
        // Clean: no causes, one attempt. Recovered: one more attempt than
        // causes. Degraded: as many attempts as causes.
        assert!(check_attempt_ledger(1, 0, false).is_ok());
        assert!(check_attempt_ledger(3, 2, true).is_ok());
        assert!(check_attempt_ledger(2, 2, false).is_ok());
        for (attempts, causes, recovered) in
            [(0, 0, false), (2, 0, false), (2, 2, true), (3, 2, false), (1, 1, true)]
        {
            let err = check_attempt_ledger(attempts, causes, recovered).unwrap_err();
            assert!(err.contains(&format!("inconsistent with {attempts} attempts")), "{err}");
        }
    }
}
