//! The throughput reports of the two perf binaries, one type per schema:
//! [`HwPerfReport`] (`enerj-hwperf/3`, written by `hwbench` to
//! `results/BENCH_hwperf.json`) and [`CampaignPerfReport`]
//! (`enerj-campaignperf/2`, written by `campaign_bench` to
//! `results/BENCH_campaignperf.json`).
//!
//! Each binary fills in its report and serializes it with `to_json`; the
//! validator reads it back with `from_json` and checks it with `check`.
//! Neither check gates on absolute speed, which depends on the host: they
//! catch drift in shape and self-consistency.

use enerj_apps::json::{Fields, Json};
use enerj_hw::config::Level;

/// Schema tag of [`HwPerfReport`].
pub const HWPERF_SCHEMA: &str = "enerj-hwperf/3";

/// Schema tag of [`CampaignPerfReport`].
pub const CAMPAIGNPERF_SCHEMA: &str = "enerj-campaignperf/2";

/// The substrate microkernels a batched row may time.
const KERNELS: [&str; 4] = ["sram", "dram", "alu", "fpu"];

fn level(name: &str) -> Option<Level> {
    Level::ALL.into_iter().find(|l| l.to_string() == name)
}

fn rows<T>(
    f: &Fields,
    key: &str,
    read: fn(&Fields) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    f.objects(key)?.iter().map(read).collect()
}

/// One batched-API row: a unit driven one op at a time versus through the
/// whole-slice entry points, both on the amortized substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedRow {
    /// Which unit: `sram`, `dram`, `alu` or `fpu`.
    pub kernel: &'static str,
    /// The Table 2 level.
    pub level: Level,
    /// Operations timed per arm.
    pub ops: u64,
    /// Ops/sec one op at a time.
    pub scalar_ops_per_sec: f64,
    /// Ops/sec through the slice entry points.
    pub batched_ops_per_sec: f64,
    /// `batched_ops_per_sec / scalar_ops_per_sec`.
    pub speedup: f64,
}

impl BatchedRow {
    /// A row whose speedup is the ratio of its two rates.
    pub fn new(kernel: &'static str, level: Level, ops: u64, scalar: f64, batched: f64) -> Self {
        BatchedRow {
            kernel,
            level,
            ops,
            scalar_ops_per_sec: scalar,
            batched_ops_per_sec: batched,
            speedup: batched / scalar,
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("kernel", self.kernel.into()),
            ("level", self.level.to_string().into()),
            ("ops", self.ops.into()),
            ("scalar_ops_per_sec", self.scalar_ops_per_sec.into()),
            ("batched_ops_per_sec", self.batched_ops_per_sec.into()),
            ("speedup", self.speedup.into()),
        ])
    }

    fn from_json(f: &Fields) -> Result<BatchedRow, String> {
        Ok(BatchedRow {
            kernel: f.name("kernel", |k| KERNELS.into_iter().find(|&known| known == k))?,
            level: f.name("level", level)?,
            ops: f.count("ops")?,
            scalar_ops_per_sec: f.positive("scalar_ops_per_sec")?,
            batched_ops_per_sec: f.positive("batched_ops_per_sec")?,
            speedup: f.positive("speedup")?,
        })
    }
}

/// One macro row: whole-application throughput on the current substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroRow {
    /// The application.
    pub app: String,
    /// The Table 2 level.
    pub level: Level,
    /// Integer plus floating-point operations the run executed.
    pub ops: u64,
    /// Those operations per second of wall time.
    pub ops_per_sec: f64,
}

impl MacroRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("app", self.app.as_str().into()),
            ("level", self.level.to_string().into()),
            ("ops", self.ops.into()),
            ("ops_per_sec", self.ops_per_sec.into()),
        ])
    }

    fn from_json(f: &Fields) -> Result<MacroRow, String> {
        Ok(MacroRow {
            app: f.str("app")?.to_owned(),
            level: f.name("level", level)?,
            ops: f.count("ops")?,
            ops_per_sec: f.positive("ops_per_sec")?,
        })
    }
}

/// The `enerj-hwperf/3` report: the batched grid (every kernel at every
/// level) plus the fig5-shaped macro loop.
#[derive(Debug, Clone, PartialEq)]
pub struct HwPerfReport {
    /// Whether this was a reduced (`--quick`) run.
    pub quick: bool,
    /// The batched-versus-scalar grid.
    pub batched: Vec<BatchedRow>,
    /// Whole-application throughput.
    pub macros: Vec<MacroRow>,
}

impl HwPerfReport {
    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", HWPERF_SCHEMA.into()),
            ("quick", self.quick.into()),
            ("batched", Json::Arr(self.batched.iter().map(BatchedRow::to_json).collect())),
            ("macro", Json::Arr(self.macros.iter().map(MacroRow::to_json).collect())),
        ])
    }

    /// Reads a parsed report: every field typed, every rate finite and
    /// positive, kernels and levels from their vocabularies.
    pub fn from_json(v: &Json) -> Result<HwPerfReport, String> {
        let f = Fields::root(v)?;
        f.schema(HWPERF_SCHEMA)?;
        Ok(HwPerfReport {
            quick: f.bool("quick")?,
            batched: rows(&f, "batched", BatchedRow::from_json)?,
            macros: rows(&f, "macro", MacroRow::from_json)?,
        })
    }

    /// The batched grid is non-empty and every recorded speedup agrees
    /// with the two rates it summarizes (within 1%).
    pub fn check(&self) -> Result<(), String> {
        if self.batched.is_empty() {
            return Err("`batched` is empty".into());
        }
        for (i, r) in self.batched.iter().enumerate() {
            let (num, base, speedup) = (r.batched_ops_per_sec, r.scalar_ops_per_sec, r.speedup);
            let implied = num / base;
            if (speedup - implied).abs() > 0.01 * implied.max(speedup) {
                return Err(format!(
                    "batched[{i}]: speedup {speedup} inconsistent with {num}/{base} = {implied:.3}"
                ));
            }
        }
        Ok(())
    }
}

/// A reorder window's high-water mark must stay within its capacity.
fn check_window(what: &str, peak: usize, capacity: usize) -> Result<(), String> {
    if peak > capacity {
        return Err(format!(
            "{what}: peak_buffered {peak} exceeds buffer_capacity {capacity} — \
             the reorder window is not bounded"
        ));
    }
    Ok(())
}

/// The memory section: one long campaign streamed to an NDJSON sink, run
/// first so the process high-water mark reflects the engine alone.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRow {
    /// Trials streamed.
    pub trials: usize,
    /// Worker threads.
    pub threads: usize,
    /// Trials per claimed chunk.
    pub chunk: usize,
    /// Trials per second of wall time.
    pub trials_per_sec: f64,
    /// Size of the NDJSON stream written.
    pub ndjson_bytes: u64,
    /// The reorder window's high-water mark, in results.
    pub peak_buffered: usize,
    /// The reorder window's bound.
    pub buffer_capacity: usize,
    /// The process's resident-set high-water mark (kB; 0 where unknown).
    pub vm_hwm_kb: u64,
}

impl MemoryRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("trials", self.trials.into()),
            ("threads", self.threads.into()),
            ("chunk", self.chunk.into()),
            ("trials_per_sec", self.trials_per_sec.into()),
            ("ndjson_bytes", self.ndjson_bytes.into()),
            ("peak_buffered", self.peak_buffered.into()),
            ("buffer_capacity", self.buffer_capacity.into()),
            ("vm_hwm_kb", self.vm_hwm_kb.into()),
        ])
    }

    fn from_json(f: &Fields) -> Result<MemoryRow, String> {
        Ok(MemoryRow {
            trials: f.count("trials")?,
            threads: f.count("threads")?,
            chunk: f.count("chunk")?,
            trials_per_sec: f.positive("trials_per_sec")?,
            ndjson_bytes: f.count("ndjson_bytes")?,
            peak_buffered: f.uint("peak_buffered")?,
            buffer_capacity: f.count("buffer_capacity")?,
            vm_hwm_kb: f.uint("vm_hwm_kb")?,
        })
    }
}

/// One engine-grid row: streamed trials/sec at one thread count and chunk
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRow {
    /// Worker threads.
    pub threads: usize,
    /// Trials per claimed chunk.
    pub chunk: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials per second of wall time.
    pub streamed_trials_per_sec: f64,
    /// The reorder window's high-water mark, in results.
    pub peak_buffered: usize,
    /// The reorder window's bound.
    pub buffer_capacity: usize,
}

impl EngineRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("threads", self.threads.into()),
            ("chunk", self.chunk.into()),
            ("trials", self.trials.into()),
            ("streamed_trials_per_sec", self.streamed_trials_per_sec.into()),
            ("peak_buffered", self.peak_buffered.into()),
            ("buffer_capacity", self.buffer_capacity.into()),
        ])
    }

    fn from_json(f: &Fields) -> Result<EngineRow, String> {
        Ok(EngineRow {
            threads: f.count("threads")?,
            chunk: f.count("chunk")?,
            trials: f.count("trials")?,
            streamed_trials_per_sec: f.positive("streamed_trials_per_sec")?,
            peak_buffered: f.uint("peak_buffered")?,
            buffer_capacity: f.count("buffer_capacity")?,
        })
    }
}

/// The `enerj-campaignperf/2` report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPerfReport {
    /// Whether this was a reduced (`--quick`) run.
    pub quick: bool,
    /// The bounded-memory streaming run.
    pub memory: MemoryRow,
    /// Trials/sec across thread counts and chunk sizes.
    pub engine: Vec<EngineRow>,
}

impl CampaignPerfReport {
    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", CAMPAIGNPERF_SCHEMA.into()),
            ("quick", self.quick.into()),
            ("memory", self.memory.to_json()),
            ("engine", Json::Arr(self.engine.iter().map(EngineRow::to_json).collect())),
        ])
    }

    /// Reads a parsed report: every count a positive integer (the window
    /// peak and `vm_hwm_kb` may be 0), every rate finite and positive.
    pub fn from_json(v: &Json) -> Result<CampaignPerfReport, String> {
        let f = Fields::root(v)?;
        f.schema(CAMPAIGNPERF_SCHEMA)?;
        Ok(CampaignPerfReport {
            quick: f.bool("quick")?,
            memory: MemoryRow::from_json(&f.object("memory")?)?,
            engine: rows(&f, "engine", EngineRow::from_json)?,
        })
    }

    /// The engine grid is non-empty and the reorder window stayed within
    /// its capacity everywhere.
    pub fn check(&self) -> Result<(), String> {
        if self.engine.is_empty() {
            return Err("`engine` is empty".into());
        }
        check_window("memory", self.memory.peak_buffered, self.memory.buffer_capacity)?;
        for (i, r) in self.engine.iter().enumerate() {
            check_window(&format!("engine[{i}]"), r.peak_buffered, r.buffer_capacity)?;
        }
        Ok(())
    }
}
