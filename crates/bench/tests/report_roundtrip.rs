//! Round trips of the typed reports: for each schema's one type,
//! `from_json(to_json(r))` gives `r` back, `to_json` of that is the same
//! tree, and the text form `validate_schema` reads survives too.
//! (`SchedReport` is pinned against its byte golden in `sched_golden.rs`,
//! the fault-log line in `crates/apps/tests/telemetry.rs`.)

use enerj_apps::json::Json;
use enerj_bench::perf::{
    BatchedRow, CampaignPerfReport, EngineRow, HwPerfReport, MacroRow, MemoryRow,
};
use enerj_hw::config::Level;
use enerj_serve::serveperf::{BenchConfig, Identity, ServePerfReport, Throughput};

/// Checks the round trip through the tree and through the text the
/// binaries write, and that the value passes its own `check`.
macro_rules! assert_round_trips {
    ($ty:ty, $report:expr) => {{
        let report = $report;
        let json = report.to_json();
        let back = <$ty>::from_json(&json).unwrap();
        back.check().unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
        let text = json.to_string();
        assert_eq!(
            <$ty>::from_json(&Json::parse(&text).unwrap()).unwrap().to_json().to_string(),
            text
        );
    }};
}

#[test]
fn hwperf_round_trips() {
    assert_round_trips!(
        HwPerfReport,
        HwPerfReport {
            quick: true,
            batched: vec![BatchedRow::new("alu", Level::Mild, 397_312, 1.0e8, 6.123_456_7e8)],
            macros: vec![MacroRow {
                app: "FFT".to_owned(),
                level: Level::Aggressive,
                ops: 24_576,
                ops_per_sec: 4.0e7,
            }],
        }
    );
}

#[test]
fn campaignperf_round_trips() {
    assert_round_trips!(
        CampaignPerfReport,
        CampaignPerfReport {
            quick: false,
            memory: MemoryRow {
                trials: 1_000_000,
                threads: 2,
                chunk: 64,
                trials_per_sec: 98_546.122,
                ndjson_bytes: 1_008_821_244,
                peak_buffered: 256,
                buffer_capacity: 256,
                vm_hwm_kb: 0,
            },
            engine: vec![EngineRow {
                threads: 4,
                chunk: 1,
                trials: 100_000,
                streamed_trials_per_sec: 404_406.007,
                peak_buffered: 0,
                buffer_capacity: 8,
            }],
        }
    );
}

#[test]
fn serveperf_round_trips() {
    assert_round_trips!(
        ServePerfReport,
        ServePerfReport {
            kill_resume_identical: true,
            identity: Identity {
                trials: 24,
                bytes: 26_715,
                kill_after_trials: 2,
                // Above 2^53: the lossless integer path.
                quanta_total: 9_007_199_254_740_995,
                quanta_baseline: 9_007_199_254_741_997,
            },
            throughput: Throughput {
                jobs: 8,
                trials_per_job: 24,
                wall_seconds: 0.25,
                jobs_per_sec: 32.0,
                trials_per_sec: 768.0,
            },
            time_to_first_trial_ms: 20.7,
            config: BenchConfig { workers: 2, chunk: 2, runs: 6 },
        }
    );
}
