//! The `enerj-sched/1` budget-scheduling report: what the `schedbench`
//! binary writes to `results/BENCH_sched.json`.
//!
//! One report captures a whole budget experiment: the exact all-Precise
//! metered cost, the budget derived from it, the scheduled campaign's
//! spend/QoS/level census, every static single-level baseline on the same
//! workload and seeds, and the binary's own threads-1-vs-2 bit-identity
//! verification verdict. [`SchedReport`] is the schema's one definition:
//! `schedbench` serializes it with [`SchedReport::to_json`], and the
//! validator reads it back with [`SchedReport::from_json`] and checks it
//! with [`SchedReport::check`]. The serialization is byte-stable
//! (golden-file locked).

use enerj_apps::json::{Fields, Json};
use enerj_apps::scheduler::SchedLevel;
use enerj_hw::energy::QuantaMeter;
use enerj_hw::quanta::EnergyQuanta;

/// The schema tag.
pub const SCHEMA: &str = "enerj-sched/1";

/// The scheduled campaign's half of the comparison.
#[derive(Debug, Clone)]
pub struct ScheduledRow {
    /// Exact metered spend over the whole campaign.
    pub spent_quanta: EnergyQuanta,
    /// Whether the spend ended at or under the budget.
    pub budget_met: bool,
    /// Mean output error over all trials.
    pub mean_error: f64,
    /// Aggregate QoS (`1 − mean_error`).
    pub qos: f64,
    /// Scalar outputs the plausibility estimator flagged.
    pub implausible: u64,
    /// Trials per rung, summed over apps (index order of
    /// [`SchedLevel::ALL`]).
    pub level_counts: [u64; 4],
}

/// One static single-level baseline on the same workload and seeds.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// The rung every trial was pinned to.
    pub level: SchedLevel,
    /// Exact metered spend of the whole static campaign.
    pub spent_quanta: EnergyQuanta,
    /// Mean output error over all trials.
    pub mean_error: f64,
    /// Aggregate QoS (`1 − mean_error`).
    pub qos: f64,
    /// Whether this baseline's spend fits the scheduled budget.
    pub fits_budget: bool,
}

/// A complete `enerj-sched/1` report.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Whether this was a reduced (`--quick`) run.
    pub quick: bool,
    /// What the budget meters.
    pub meter: QuantaMeter,
    /// The budget as a percentage of the all-Precise metered cost.
    pub budget_pct: u32,
    /// Trials in the evaluation campaign.
    pub trials: usize,
    /// Controller epoch length used.
    pub epoch_len: usize,
    /// The exact all-Precise metered cost the budget is derived from.
    pub precise_cost_quanta: EnergyQuanta,
    /// The budget held: `precise_cost_quanta * budget_pct / 100`.
    pub budget_quanta: EnergyQuanta,
    /// The binary's threads-1-vs-2 bit-identity verification verdict.
    pub identical: bool,
    /// The scheduled campaign.
    pub scheduled: ScheduledRow,
    /// Every static single-level baseline, in rung order.
    pub baselines: Vec<BaselineRow>,
}

impl SchedReport {
    /// The report as JSON; its compact display is the byte-stable
    /// `enerj-sched/1` document.
    pub fn to_json(&self) -> Json {
        let s = &self.scheduled;
        let counts = SchedLevel::ALL.iter().zip(s.level_counts).map(|(l, n)| (l.name(), n.into()));
        Json::object([
            ("schema", SCHEMA.into()),
            ("quick", self.quick.into()),
            ("meter", self.meter.name().into()),
            ("budget_pct", self.budget_pct.into()),
            ("trials", self.trials.into()),
            ("epoch_len", self.epoch_len.into()),
            ("precise_cost_quanta", self.precise_cost_quanta.into()),
            ("budget_quanta", self.budget_quanta.into()),
            ("identical", self.identical.into()),
            (
                "scheduled",
                Json::object([
                    ("spent_quanta", s.spent_quanta.into()),
                    ("budget_met", s.budget_met.into()),
                    ("mean_error", s.mean_error.into()),
                    ("qos", s.qos.into()),
                    ("implausible", s.implausible.into()),
                    ("level_counts", Json::object(counts)),
                ]),
            ),
            ("baselines", Json::Arr(self.baselines.iter().map(BaselineRow::to_json).collect())),
        ])
    }

    /// Reads a parsed report: every field present and typed, the meter and
    /// levels from their vocabularies, one count per rung.
    pub fn from_json(v: &Json) -> Result<SchedReport, String> {
        let f = Fields::root(v)?;
        f.schema(SCHEMA)?;
        let s = f.object("scheduled")?;
        let counts = s.object("level_counts")?;
        if counts.field_count() != SchedLevel::ALL.len() {
            return Err(format!(
                "{}: expected {} level counts, found {}",
                counts.path(),
                SchedLevel::ALL.len(),
                counts.field_count()
            ));
        }
        let mut level_counts = [0; 4];
        for (n, level) in level_counts.iter_mut().zip(SchedLevel::ALL) {
            *n = counts.uint(level.name())?;
        }
        Ok(SchedReport {
            quick: f.bool("quick")?,
            meter: f.name("meter", QuantaMeter::parse)?,
            budget_pct: f.uint("budget_pct")?,
            trials: f.count("trials")?,
            epoch_len: f.uint("epoch_len")?,
            precise_cost_quanta: EnergyQuanta::new(f.uint("precise_cost_quanta")?),
            budget_quanta: EnergyQuanta::new(f.uint("budget_quanta")?),
            identical: f.bool("identical")?,
            scheduled: ScheduledRow {
                spent_quanta: EnergyQuanta::new(s.uint("spent_quanta")?),
                budget_met: s.bool("budget_met")?,
                mean_error: s.number("mean_error")?,
                qos: s.number("qos")?,
                implausible: s.uint("implausible")?,
                level_counts,
            },
            baselines: f
                .objects("baselines")?
                .iter()
                .map(BaselineRow::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The report's invariants: the identity verdict holds, the budget is
    /// exactly `budget_pct`% of the precise cost, every budget verdict
    /// equals `spent <= budget`, the level census covers every trial, and
    /// each QoS is `1 - mean_error`. Integer arithmetic is checked, so a
    /// hostile report is an error, not an overflow.
    pub fn check(&self) -> Result<(), String> {
        if !self.identical {
            return Err(
                "`identical` is false — scheduled campaigns diverged across thread counts".into()
            );
        }
        let (cost, pct, budget) =
            (self.precise_cost_quanta, self.budget_pct, self.budget_quanta.get());
        let expected = cost.get().checked_mul(u128::from(pct)).ok_or_else(|| {
            format!("precise_cost_quanta {cost} times budget_pct {pct} overflows")
        })? / 100;
        if budget != expected {
            return Err(format!(
                "budget_quanta {budget} is not {pct}% of precise_cost_quanta {cost}"
            ));
        }
        let s = &self.scheduled;
        check_verdict("scheduled: budget_met", s.budget_met, s.spent_quanta, self.budget_quanta)?;
        check_error_and_qos("scheduled", s.mean_error, s.qos)?;
        let census = s
            .level_counts
            .iter()
            .try_fold(0u64, |sum, &n| sum.checked_add(n))
            .ok_or("scheduled: level counts overflow")?;
        if census != self.trials as u64 {
            return Err(format!(
                "scheduled: level counts sum to {census}, expected {} trials",
                self.trials
            ));
        }
        if self.baselines.is_empty() {
            return Err("`baselines` is empty".into());
        }
        for (i, b) in self.baselines.iter().enumerate() {
            let what = format!("baselines[{i}]");
            check_verdict(
                &format!("{what}: fits_budget"),
                b.fits_budget,
                b.spent_quanta,
                self.budget_quanta,
            )?;
            check_error_and_qos(&what, b.mean_error, b.qos)?;
        }
        Ok(())
    }
}

impl BaselineRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("level", self.level.name().into()),
            ("spent_quanta", self.spent_quanta.into()),
            ("mean_error", self.mean_error.into()),
            ("qos", self.qos.into()),
            ("fits_budget", self.fits_budget.into()),
        ])
    }

    fn from_json(f: &Fields) -> Result<BaselineRow, String> {
        Ok(BaselineRow {
            level: f.name("level", SchedLevel::from_name)?,
            spent_quanta: EnergyQuanta::new(f.uint("spent_quanta")?),
            mean_error: f.number("mean_error")?,
            qos: f.number("qos")?,
            fits_budget: f.bool("fits_budget")?,
        })
    }
}

/// A recorded budget verdict must be exactly `spent <= budget`.
fn check_verdict(
    what: &str,
    verdict: bool,
    spent: EnergyQuanta,
    budget: EnergyQuanta,
) -> Result<(), String> {
    if verdict != (spent <= budget) {
        return Err(format!("{what} {verdict} inconsistent with spent {spent} vs budget {budget}"));
    }
    Ok(())
}

fn check_error_and_qos(what: &str, err: f64, qos: f64) -> Result<(), String> {
    if !(0.0..=1.0).contains(&err) {
        return Err(format!("{what}: mean_error {err} outside [0, 1]"));
    }
    if !(0.0..=1.0).contains(&qos) {
        return Err(format!("{what}: qos {qos} outside [0, 1]"));
    }
    if (qos - (1.0 - err)).abs() > 1e-9 {
        return Err(format!("{what}: qos {qos} inconsistent with mean_error {err}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully synthetic report with fixed values, exercising every branch
    /// of the serializer.
    fn synthetic_sched_report() -> SchedReport {
        SchedReport {
            quick: true,
            meter: QuantaMeter::Sram,
            budget_pct: 60,
            trials: 24,
            epoch_len: 3,
            precise_cost_quanta: EnergyQuanta::new(1_000_000_000_000),
            budget_quanta: EnergyQuanta::new(600_000_000_000),
            identical: true,
            scheduled: ScheduledRow {
                spent_quanta: EnergyQuanta::new(587_500_000_000),
                budget_met: true,
                mean_error: 0.03125,
                qos: 0.96875,
                implausible: 1,
                level_counts: [6, 9, 6, 3],
            },
            baselines: vec![
                BaselineRow {
                    level: SchedLevel::Precise,
                    spent_quanta: EnergyQuanta::new(1_000_000_000_000),
                    mean_error: 0.0,
                    qos: 1.0,
                    fits_budget: false,
                },
                BaselineRow {
                    level: SchedLevel::Mild,
                    spent_quanta: EnergyQuanta::new(489_000_000_000),
                    mean_error: 0.0625,
                    qos: 0.9375,
                    fits_budget: true,
                },
            ],
        }
    }

    #[test]
    fn serializes_every_section() {
        let json = synthetic_sched_report().to_json().to_string();
        assert!(json.starts_with("{\"schema\":\"enerj-sched/1\""));
        assert!(json.contains("\"meter\":\"sram\""));
        assert!(json.contains("\"budget_met\":true"));
        assert!(json
            .contains("\"level_counts\":{\"Precise\":6,\"Mild\":9,\"Medium\":6,\"Aggressive\":3}"));
        assert!(json.contains("\"level\":\"Mild\""));
        assert!(json.ends_with("]}"));
    }
}
