//! `hwbench` — throughput microbenchmarks for the hardware substrate.
//!
//! Two grids on the amortized fault scheduler (countdowns + bit-quanta
//! accounting, see DESIGN.md "Amortized fault scheduling"): four
//! microkernels (sram/dram/alu/fpu) at each Table 2 level, each driven one
//! op at a time and through the whole-slice batched API (DESIGN.md
//! "Batched kernels"), plus a fig5-shaped macro loop over the real
//! applications. Results land in `results/BENCH_hwperf.json` (schema
//! `enerj-hwperf/3`, [`HwPerfReport`]).
//!
//! ```text
//! hwbench [--quick] [--json]
//! ```
//!
//! `--quick` shrinks the op counts ~10x for the CI perf-smoke job; the
//! committed capture uses the full counts. Wall-clock throughput depends on
//! the host, so the JSON records both arms from the *same* process and
//! build — the speedup column is the meaningful number. Throughput
//! denominators are clamped away from zero so a fast `--quick` run can
//! never serialize `inf`/`NaN` into the report.

use std::time::Instant;

use enerj_bench::cli::Options;
use enerj_bench::perf::{BatchedRow, HwPerfReport, MacroRow};
use enerj_bench::{bench_report_path, render_table};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::stats::OpKind;
use enerj_hw::{DramArray, Hardware};

const SEED: u64 = 0x4877_BE9C; // "hwbe(nch)"
const DRAM_LEN: usize = 1024;
/// Slice length for the batched microkernels: long enough to amortize the
/// per-slice countdown resolution, short enough to stay cache-resident.
const BATCH: usize = 4096;

/// Ops/sec with the denominator clamped away from zero: a sub-nanosecond
/// wall reading (possible under `--quick` on a fast host) must not
/// serialize `inf` or `NaN` into the report.
fn rate(ops: u64, wall: f64) -> f64 {
    ops as f64 / wall.max(1e-9)
}

fn time<F: FnMut() -> u64>(mut f: F) -> (u64, f64) {
    let start = Instant::now();
    let sink = f();
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (sink, wall)
}

/// Batched SRAM: whole-slice read/write passes versus the same accesses
/// one word at a time, both on the amortized substrate.
fn sram_batched(level: Level, accesses: u64) -> BatchedRow {
    let cfg = HwConfig::for_level(level);
    let rounds = accesses / (2 * BATCH as u64);
    let ops = rounds * 2 * BATCH as u64;
    let mut hw = Hardware::new(cfg, SEED);
    let (_, scalar_wall) = time(|| {
        let mut buf: Vec<u64> = (0..BATCH as u64).collect();
        for _ in 0..rounds {
            for x in &mut buf {
                *x = hw.sram_read(*x, 32, true);
            }
            for x in &mut buf {
                *x = hw.sram_write(x.wrapping_add(1), 32, true);
            }
        }
        buf[0]
    });
    let mut hw = Hardware::new(cfg, SEED);
    let (_, batched_wall) = time(|| {
        let mut buf: Vec<u64> = (0..BATCH as u64).collect();
        for _ in 0..rounds {
            hw.sram_read_slice(&mut buf, 32, true);
            for x in &mut buf {
                *x = x.wrapping_add(1);
            }
            hw.sram_write_slice(&mut buf, 32, true);
        }
        buf[0]
    });
    BatchedRow::new("sram", level, ops, rate(ops, scalar_wall), rate(ops, batched_wall))
}

/// Batched DRAM: whole-array slice reads versus per-element reads over the
/// same decaying array.
fn dram_batched(level: Level, accesses: u64) -> BatchedRow {
    let cfg = HwConfig::for_level(level);
    let rounds = accesses / DRAM_LEN as u64;
    let ops = rounds * DRAM_LEN as u64;
    let mut hw = Hardware::new(cfg, SEED);
    let (_, scalar_wall) = time(|| {
        let mut arr = DramArray::new(&mut hw, DRAM_LEN, 32, true);
        let mut sink = 0u64;
        for _ in 0..rounds {
            for j in 0..DRAM_LEN {
                sink = sink.wrapping_add(arr.read(&mut hw, j));
            }
        }
        arr.retire(&mut hw);
        sink
    });
    let mut hw = Hardware::new(cfg, SEED);
    let (_, batched_wall) = time(|| {
        let mut arr = DramArray::new(&mut hw, DRAM_LEN, 32, true);
        let mut out = vec![0u64; DRAM_LEN];
        let mut sink = 0u64;
        for _ in 0..rounds {
            arr.read_slice(&mut hw, 0, &mut out);
            sink = sink.wrapping_add(out[0]);
        }
        arr.retire(&mut hw);
        sink
    });
    BatchedRow::new("dram", level, ops, rate(ops, scalar_wall), rate(ops, batched_wall))
}

/// Batched ALU: whole-slice 64-bit result phases versus one op at a time.
fn alu_batched(level: Level, total_ops: u64) -> BatchedRow {
    let cfg = HwConfig::for_level(level);
    let rounds = total_ops / BATCH as u64;
    let ops = rounds * BATCH as u64;
    let mut hw = Hardware::new(cfg, SEED);
    let (_, scalar_wall) = time(|| {
        let mut buf: Vec<u64> = (0..BATCH as u64).collect();
        for _ in 0..rounds {
            for x in &mut buf {
                *x = hw.approx_int_result(x.wrapping_mul(3).wrapping_add(1), 64);
            }
        }
        buf[0]
    });
    let mut hw = Hardware::new(cfg, SEED);
    let (_, batched_wall) = time(|| {
        let mut buf: Vec<u64> = (0..BATCH as u64).collect();
        for _ in 0..rounds {
            for x in &mut buf {
                *x = x.wrapping_mul(3).wrapping_add(1);
            }
            hw.approx_int_result_slice(&mut buf, 64);
        }
        buf[0]
    });
    assert_eq!(hw.stats().int_approx_ops, ops);
    BatchedRow::new("alu", level, ops, rate(ops, scalar_wall), rate(ops, batched_wall))
}

/// Batched FPU: whole-slice operand truncation plus `f64` result phases
/// versus one op at a time. No overflow guard: multiplying by `1 + 1e-7` for at most `rounds` passes keeps every value
/// near 1.0 by construction, and a rare timing fault producing inf/NaN
/// costs neither arm anything (non-finite arithmetic runs at full speed).
fn fpu_batched(level: Level, total_ops: u64) -> BatchedRow {
    let cfg = HwConfig::for_level(level);
    let rounds = total_ops / BATCH as u64;
    let ops = rounds * BATCH as u64;
    let seed: Vec<f64> = (0..BATCH).map(|i| 1.000_1 + i as f64 * 1e-7).collect();
    let mut hw = Hardware::new(cfg, SEED);
    let (_, scalar_wall) = time(|| {
        let mut buf = seed.clone();
        for _ in 0..rounds {
            for x in &mut buf {
                *x = hw.approx_f64_result(hw.approx_f64_operand(*x) * 1.000_000_1);
            }
        }
        buf[0].to_bits()
    });
    let mut hw = Hardware::new(cfg, SEED);
    let (_, batched_wall) = time(|| {
        let mut buf = seed.clone();
        for _ in 0..rounds {
            hw.approx_f64_operand_slice(&mut buf);
            for x in &mut buf {
                *x *= 1.000_000_1;
            }
            hw.approx_f64_result_slice(&mut buf);
        }
        buf[0].to_bits()
    });
    BatchedRow::new("fpu", level, ops, rate(ops, scalar_wall), rate(ops, batched_wall))
}

/// Fig5-shaped macro loop: every registered application, full fault
/// injection, one seeded run per level on the current substrate.
fn macro_rows(quick: bool) -> Vec<MacroRow> {
    let apps = enerj_apps::all_apps();
    let apps: Vec<_> = if quick { apps.into_iter().take(2).collect() } else { apps };
    let mut rows = Vec::new();
    for app in &apps {
        for level in Level::ALL {
            let start = Instant::now();
            let m =
                enerj_apps::harness::approximate(app, level, enerj_apps::harness::FAULT_SEED_BASE);
            let wall = start.elapsed().as_secs_f64();
            let ops = m.stats.total_ops(OpKind::Int) + m.stats.total_ops(OpKind::Fp);
            rows.push(MacroRow {
                app: app.meta.name.to_owned(),
                level,
                ops,
                ops_per_sec: rate(ops, wall),
            });
        }
    }
    rows
}

fn main() {
    let opts = Options::parse(std::env::args(), 1);
    let quick = opts.has_flag("--quick");
    let micro_ops: u64 = if quick { 400_000 } else { 4_000_000 };

    let mut batched = Vec::new();
    for level in Level::ALL {
        eprintln!("hwbench: {level} batched microkernels ({micro_ops} ops each)...");
        batched.push(sram_batched(level, micro_ops));
        batched.push(dram_batched(level, micro_ops));
        batched.push(alu_batched(level, micro_ops));
        batched.push(fpu_batched(level, micro_ops));
    }
    eprintln!("hwbench: fig5-shaped macro loop...");
    let report = HwPerfReport { quick, batched, macros: macro_rows(quick) };

    let json = report.to_json().to_string() + "\n";
    if opts.json {
        print!("{json}");
    } else {
        let rows: Vec<Vec<String>> = report
            .batched
            .iter()
            .map(|r| {
                vec![
                    r.kernel.to_owned(),
                    r.level.to_string(),
                    format!("{:.2}M", r.scalar_ops_per_sec / 1e6),
                    format!("{:.2}M", r.batched_ops_per_sec / 1e6),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect();
        println!("Batched whole-slice API vs one-op-at-a-time (same substrate)");
        println!("{}", render_table(&["kernel", "level", "scalar", "batched", "speedup"], &rows));
        let rows: Vec<Vec<String>> = report
            .macros
            .iter()
            .map(|r| {
                vec![
                    r.app.clone(),
                    r.level.to_string(),
                    format!("{}", r.ops),
                    format!("{:.2}M", r.ops_per_sec / 1e6),
                ]
            })
            .collect();
        println!("Application throughput on the amortized substrate");
        println!("{}", render_table(&["app", "level", "ops", "ops/sec"], &rows));
    }

    let path = bench_report_path("hwperf");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("hwperf report -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
