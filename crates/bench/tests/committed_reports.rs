//! Every report committed under `results/` validates against the schema
//! its own `schema` field names. A capture that goes missing, or carries a
//! schema no validator knows, fails the test rather than skipping it.

use enerj_apps::json::Json;
use enerj_bench::bench_report_path;
use enerj_bench::validate::{
    validate_campaign_report, validate_campaignperf_report, validate_hwperf_report,
    validate_sched_report, validate_serveperf_report,
};

/// The committed `results/BENCH_<name>.json` captures, by name.
const COMMITTED_REPORTS: [&str; 11] = [
    "ablation",
    "ablation_error_modes",
    "campaignperf",
    "fig3",
    "fig4",
    "fig5",
    "hwperf",
    "recovery",
    "sched",
    "serveperf",
    "table3",
];

#[test]
fn every_committed_bench_report_validates_by_its_schema() {
    for name in COMMITTED_REPORTS {
        let path = bench_report_path(name);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let v = Json::parse(text.trim()).unwrap();
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or("(none)");
        let rows = match schema {
            "enerj-campaign/5" => validate_campaign_report(&v),
            enerj_bench::perf::HWPERF_SCHEMA => validate_hwperf_report(&v),
            enerj_bench::perf::CAMPAIGNPERF_SCHEMA => validate_campaignperf_report(&v),
            enerj_bench::sched::SCHEMA => validate_sched_report(&v),
            enerj_serve::serveperf::SCHEMA => validate_serveperf_report(&v),
            other => panic!("{}: unknown schema `{other}`", path.display()),
        };
        let rows = rows.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(rows >= 1, "{}: no rows", path.display());
    }
}
