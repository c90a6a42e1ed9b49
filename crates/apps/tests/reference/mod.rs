//! The serial reference loop every engine identity test is checked
//! against.
//!
//! [`run`] is the campaign protocol written as plainly as it can be: each
//! spec in index order, measured on a fresh workspace with
//! [`harness::measure_in`] (or [`recovery::run_with_recovery_in`] when the
//! spec carries a policy), scored with [`output_error`], all under
//! `catch_unwind`, and folded into the totals in index order. It shares no
//! code with the engine's worker loop, reorder window or drain-point fold,
//! so an engine bug cannot hide in both. The comparison helpers check
//! every seeded field of every trial and every total; wall-clock times are
//! the only thing they skip.

#![allow(dead_code)] // each test binary uses its own subset

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use enerj_apps::harness::{self, Workspace};
use enerj_apps::qos::output_error;
use enerj_apps::recovery;
use enerj_apps::trials::{CampaignReport, CampaignSummary, SpecSource, TrialResult, TrialSpec};
use enerj_hw::energy::{EnergyBreakdown, EnergyQuantaBreakdown};
use enerj_hw::quanta::EnergyQuanta;
use enerj_hw::stats::Stats;
use enerj_hw::FaultCounters;

/// A campaign computed by the serial reference loop.
pub struct Reference {
    /// Every trial, in index order (wall-clock times are zero).
    pub trials: Vec<TrialResult>,
    /// Totals folded in index order. Only the aggregate fields are
    /// meaningful; the engine-shape fields (wall, threads, chunk, window)
    /// are zero.
    pub totals: CampaignSummary,
}

/// Runs every spec of `source` serially, in index order.
pub fn run<S: SpecSource + ?Sized>(source: &S, log_events: bool) -> Reference {
    let mut trials = Vec::with_capacity(source.len());
    let mut error_sum = 0.0;
    let mut totals = CampaignSummary {
        trials: 0,
        mean_error: 0.0,
        panics: 0,
        recovered: 0,
        merged_stats: Stats::new(),
        energy_quanta: EnergyQuantaBreakdown::ZERO,
        fault_totals: FaultCounters::new(),
        recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
        wall: Duration::ZERO,
        threads: 0,
        chunk: 0,
        peak_buffered: 0,
        buffer_capacity: 0,
        deadline_exceeded: false,
    };
    for index in 0..source.len() {
        let t = run_one(index, &source.spec(index), log_events);
        error_sum += t.error;
        totals.trials += 1;
        if t.panic.is_some() {
            totals.panics += 1;
        } else {
            totals.merged_stats.merge(&t.stats);
        }
        if t.recovered_at_level.is_some() {
            totals.recovered += 1;
        }
        totals.energy_quanta.merge(&t.energy_quanta);
        totals.fault_totals.merge(&t.fault_counts);
        totals.recovery_energy_overhead_quanta += t.recovery_energy_overhead_quanta;
        trials.push(t);
    }
    if totals.trials > 0 {
        totals.mean_error = error_sum / totals.trials as f64;
    }
    Reference { trials, totals }
}

/// One trial under the paper's protocol: a crash scores error 1.0, claims
/// no savings and contributes no statistics.
fn run_one(index: usize, spec: &TrialSpec, log_events: bool) -> TrialResult {
    let mut ws = Workspace::new();
    let mut result = TrialResult {
        index,
        app: spec.app.meta.name,
        label: spec.label.clone(),
        seed: spec.seed,
        error: 1.0,
        output: None,
        stats: Stats::new(),
        energy: EnergyBreakdown { instructions: 1.0, sram: 1.0, dram: 1.0, total: 1.0 },
        energy_quanta: EnergyQuantaBreakdown::ZERO,
        wall: Duration::ZERO,
        panic: None,
        fault_counts: FaultCounters::new(),
        events: Vec::new(),
        attempts: 1,
        recovered_at_level: None,
        failure_causes: Vec::new(),
        recovery_energy_overhead: 0.0,
        recovery_energy_overhead_quanta: EnergyQuanta::ZERO,
        scheduled_level: spec.scheduled_level.clone(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| match &spec.recovery {
        None => {
            let m = harness::measure_in(&spec.app, spec.cfg, spec.seed, log_events, &mut ws);
            let error = match &spec.reference {
                Some(reference) => output_error(spec.app.meta.metric, reference, &m.output),
                None => 0.0,
            };
            (Some(m.output), error, m.stats, m.energy, m.energy_quanta, m.fault_counts, m.events)
        }
        Some(policy) => {
            let r = recovery::run_with_recovery_in(
                &spec.app,
                spec.cfg,
                spec.seed,
                policy,
                spec.reference.as_deref(),
                log_events,
                &mut ws,
            );
            if r.output.is_none() {
                if let Some(recovery::FailureCause::Panic(msg)) = r.failure_causes.last() {
                    result.panic = Some(msg.clone());
                }
            }
            result.attempts = r.attempts;
            result.recovered_at_level = r.recovered_at.map(|rung| rung.to_string());
            result.failure_causes = r.failure_causes.iter().map(ToString::to_string).collect();
            result.recovery_energy_overhead = r.recovery_energy_overhead;
            result.recovery_energy_overhead_quanta = r.recovery_energy_overhead_quanta;
            (r.output, r.error, r.stats, r.energy, r.energy_quanta, r.fault_counts, r.events)
        }
    }));
    match outcome {
        Ok((output, error, stats, energy, energy_quanta, fault_counts, events)) => {
            result.output = if spec.keep_output { output } else { None };
            result.error = error;
            result.stats = stats;
            result.energy = energy;
            result.energy_quanta = energy_quanta;
            result.fault_counts = fault_counts;
            result.events = events;
        }
        Err(payload) => {
            let msg = enerj_core::panic_message(payload.as_ref());
            result.failure_causes = vec![format!("panic: {msg}")];
            result.panic = Some(msg);
        }
    }
    result
}

/// Asserts two trials agree on every field except wall-clock time. Floats
/// compare by bit pattern; outputs by their `Debug` rendering, so a NaN
/// entry matches itself.
pub fn assert_trial_eq(got: &TrialResult, want: &TrialResult, what: &str) {
    let at = format!("{what}: trial {}", want.index);
    assert_eq!(got.index, want.index, "{at}: index");
    assert_eq!(got.app, want.app, "{at}: app");
    assert_eq!(got.label, want.label, "{at}: label");
    assert_eq!(got.seed, want.seed, "{at}: seed");
    assert_eq!(got.error.to_bits(), want.error.to_bits(), "{at}: error");
    assert_eq!(format!("{:?}", got.output), format!("{:?}", want.output), "{at}: output");
    assert_eq!(got.stats, want.stats, "{at}: stats");
    let bits = |e: &EnergyBreakdown| {
        [e.instructions.to_bits(), e.sram.to_bits(), e.dram.to_bits(), e.total.to_bits()]
    };
    assert_eq!(bits(&got.energy), bits(&want.energy), "{at}: energy");
    assert_eq!(got.energy_quanta, want.energy_quanta, "{at}: energy quanta");
    assert_eq!(got.panic, want.panic, "{at}: panic");
    assert_eq!(got.fault_counts, want.fault_counts, "{at}: fault counts");
    assert_eq!(format!("{:?}", got.events), format!("{:?}", want.events), "{at}: events");
    assert_eq!(got.attempts, want.attempts, "{at}: attempts");
    assert_eq!(got.recovered_at_level, want.recovered_at_level, "{at}: recovery rung");
    assert_eq!(got.failure_causes, want.failure_causes, "{at}: failure causes");
    assert_eq!(
        got.recovery_energy_overhead.to_bits(),
        want.recovery_energy_overhead.to_bits(),
        "{at}: recovery overhead"
    );
    assert_eq!(
        got.recovery_energy_overhead_quanta, want.recovery_energy_overhead_quanta,
        "{at}: recovery overhead quanta"
    );
    assert_eq!(got.scheduled_level, want.scheduled_level, "{at}: scheduled level");
}

/// Asserts `got` holds exactly the reference's trials, in order.
pub fn assert_trials_match(got: &[TrialResult], reference: &Reference, what: &str) {
    assert_eq!(got.len(), reference.trials.len(), "{what}: trial count");
    for (g, w) in got.iter().zip(&reference.trials) {
        assert_trial_eq(g, w, what);
    }
}

/// Asserts a drain-point summary folded exactly the reference's totals.
pub fn assert_summary_matches(got: &CampaignSummary, reference: &Reference, what: &str) {
    let want = &reference.totals;
    assert_eq!(got.trials, want.trials, "{what}: trial count");
    assert_eq!(got.mean_error.to_bits(), want.mean_error.to_bits(), "{what}: mean error");
    assert_eq!(got.panics, want.panics, "{what}: panics");
    assert_eq!(got.recovered, want.recovered, "{what}: recovered");
    assert_eq!(got.merged_stats, want.merged_stats, "{what}: merged stats");
    assert_eq!(got.energy_quanta, want.energy_quanta, "{what}: energy quanta");
    assert_eq!(got.fault_totals, want.fault_totals, "{what}: fault totals");
    assert_eq!(
        got.recovery_energy_overhead_quanta, want.recovery_energy_overhead_quanta,
        "{what}: recovery overhead"
    );
    assert!(!got.deadline_exceeded, "{what}: no deadline was set");
    assert!(
        got.peak_buffered <= got.buffer_capacity,
        "{what}: window {}/{} leaked past its bound",
        got.peak_buffered,
        got.buffer_capacity
    );
}

/// Asserts an in-memory report holds exactly the reference's trials, and
/// that its post-hoc totals — a second computation, over the trial vector
/// rather than at the drain point — equal the reference's.
pub fn assert_report_matches(got: &CampaignReport, reference: &Reference, what: &str) {
    assert_trials_match(&got.trials, reference, what);
    let want = &reference.totals;
    assert_eq!(got.mean_error().to_bits(), want.mean_error.to_bits(), "{what}: mean error");
    assert_eq!(got.panic_count(), want.panics, "{what}: panics");
    assert_eq!(got.recovered_count(), want.recovered, "{what}: recovered");
    assert_eq!(got.merged_stats, want.merged_stats, "{what}: merged stats");
    assert_eq!(got.energy_quanta_totals(), want.energy_quanta, "{what}: energy quanta");
    assert_eq!(got.fault_totals(), want.fault_totals, "{what}: fault totals");
    assert_eq!(
        got.recovery_energy_overhead(),
        want.recovery_energy_overhead_quanta,
        "{what}: recovery overhead"
    );
}

/// Blanks the one field of a trial's JSON line that is not a function of
/// its spec: the wall-clock measurement.
pub fn mask_wall(line: &str) -> String {
    let start = line.find("\"wall_seconds\":").expect("trial JSON carries wall_seconds");
    let rest = &line[start..];
    let end = start + rest.find(',').expect("wall_seconds is not the last field");
    format!("{}\"wall_seconds\":W{}", &line[..start], &line[end..])
}
