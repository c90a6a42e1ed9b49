//! The correctness gate: a run reports numbers only if every check here
//! passed.
//!
//! Campaign workloads are exact simulations, so their aggregates are
//! compared bit for bit: against values pinned for the default seed, and,
//! for every seed, between all rounds of a run — traced and untraced alike.
//! Streamed bytes are compared byte for byte, with the one field that is
//! wall-clock time (`wall_seconds`) masked.

use enerj_apps::trials::CampaignSummary;
use enerj_serve::journal::fnv1a;

/// The seed whose fault seeds are `FAULT_SEED_BASE ^ run`, as in every
/// committed capture; the pinned values below hold for it.
pub const DEFAULT_SEED: u64 = 0;

/// Every exact aggregate of a campaign, as one comparable line: trial,
/// panic and recovery counts, the bits of the mean error, the exact energy
/// quanta, the merged statistics and the per-kind fault totals.
pub fn digest(s: &CampaignSummary) -> String {
    let q = &s.energy_quanta;
    let st = &s.merged_stats;
    let faults: Vec<String> = s
        .fault_totals
        .per_kind()
        .map(|(kind, c)| format!("{kind}:{}/{}", c.injections, c.bits_flipped))
        .collect();
    format!(
        "trials={} panics={} recovered={} mean_error_bits={:016x} \
         quanta={}/{}/{}/{}/{}/{}/{}/{} overhead={} \
         stats={}/{}/{}/{}/{}/{}/{}/{}/{} faults={}",
        s.trials,
        s.panics,
        s.recovered,
        s.mean_error.to_bits(),
        q.instructions,
        q.baseline_instructions,
        q.sram,
        q.baseline_sram,
        q.dram,
        q.baseline_dram,
        q.total,
        q.baseline_total,
        s.recovery_energy_overhead_quanta,
        st.int_approx_ops,
        st.int_precise_ops,
        st.fp_approx_ops,
        st.fp_precise_ops,
        st.sram_approx_quanta,
        st.sram_precise_quanta,
        st.dram_approx_quanta,
        st.dram_precise_quanta,
        st.faults_injected,
        faults.join(","),
    )
}

/// The digest of one job of each campaign workload at [`DEFAULT_SEED`].
pub fn pinned_digest(workload: &str) -> Option<&'static str> {
    match workload {
        "fig5-apps" => Some(PINNED_FIG5),
        "chaos-recovery" => Some(PINNED_CHAOS),
        "dispatch-ndjson" => Some(PINNED_DISPATCH),
        _ => None,
    }
}

const PINNED_FIG5: &str = "trials=108 \
     panics=0 \
     recovered=0 \
     mean_error_bits=3fc856c466761f24 \
     quanta=900688105400/1139354930000/1688633888000/4051650710000/2339823107225600/2819448138240000/2342412429219000/2824639143880000 \
     overhead=0 \
     stats=45753/841896/2027300/12/295452431/109712640/228336110592/53608703232/102396 \
     faults=sram-read-upset:78694/81000,sram-write-failure:16810/17232,dram-decay:83/83,int-timing:147/1832,fp-timing:6662/169856";
const PINNED_CHAOS: &str = "trials=36 \
     panics=0 \
     recovered=36 \
     mean_error_bits=3ee4a8eb2f7748c4 \
     quanta=617981072800/763908790000/1122369005000/2697324650000/1585941210892800/1903364632320000/1587681560970600/1906825865760000 \
     overhead=778423176813800 \
     stats=24712/556075/1372536/8/197189361/72543104/154574981504/35761481728/1855167 \
     faults=sram-read-upset:1279918/3205385,sram-write-failure:299461/645964,dram-decay:2279/2309,int-timing:3535/45190,fp-timing:269974/6976784";
const PINNED_DISPATCH: &str = "trials=8192 \
     panics=0 \
     recovered=0 \
     mean_error_bits=3f6e4588f4316abe \
     quanta=68052582400/104857600000/102760448000/513802240000/0/0/170813030400/618659840000 \
     overhead=0 \
     stats=0/0/262144/0/51380224/0/0/0/235 \
     faults=sram-read-upset:2/2,sram-write-failure:200/200,dram-decay:0/0,int-timing:0/0,fp-timing:33/1048";

/// FNV-1a 64 and length of one `dispatch-ndjson` job's NDJSON at
/// [`DEFAULT_SEED`], `wall_seconds` masked.
pub const PINNED_DISPATCH_NDJSON: (u64, usize) = (0x192a_95a2_e5d8_ddf1, 8_190_273);

/// Checks one finished job (campaign round) of `len` trials: it ran every
/// trial, and its aggregates equal the pinned ones (default seed) and the
/// first job of the run (`first`, filled in by the first call).
pub fn check_summary(
    workload: &str,
    seed: u64,
    len: usize,
    s: &CampaignSummary,
    first: &mut Option<String>,
    what: &str,
) -> Result<(), String> {
    if s.trials != len || s.deadline_exceeded {
        return Err(format!("{what}: ran {} of {len} trials", s.trials));
    }
    let d = digest(s);
    if seed == DEFAULT_SEED {
        let pinned = pinned_digest(workload).unwrap_or_default();
        if d != pinned {
            return Err(format!(
                "{what}: aggregates differ from the pinned ones\n  got    {d}\n  pinned {pinned}"
            ));
        }
    }
    match first {
        None => *first = Some(d),
        Some(f) if *f != d => {
            return Err(format!(
                "{what}: aggregates differ from this run's first job\n  got   {d}\n  first {f}"
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// `bytes` with the value of every `"wall_seconds":` field replaced by `0`.
pub fn mask_wall(bytes: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"wall_seconds\":";
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i..].starts_with(KEY) {
            out.extend_from_slice(KEY);
            out.push(b'0');
            i += KEY.len();
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b'\n') {
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    out
}

/// Checks `got` against `expected` byte for byte, naming the first
/// difference.
pub fn same_bytes(expected: &[u8], got: &[u8], what: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at =
        expected.iter().zip(got).position(|(a, b)| a != b).unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{what}: {} bytes differ from the {} expected, first at byte {at}",
        got.len(),
        expected.len()
    ))
}

/// Checks a `dispatch-ndjson` job's NDJSON: `len` lines; the traced job's
/// bytes, when given, equal the untraced job's; and at the default seed the
/// bytes hash to the pinned value. `wall_seconds` is masked throughout.
pub fn check_ndjson(
    seed: u64,
    len: usize,
    untraced: &[u8],
    traced: Option<&[u8]>,
) -> Result<(), String> {
    let masked = mask_wall(untraced);
    let lines = masked.iter().filter(|&&b| b == b'\n').count();
    if lines != len {
        return Err(format!("NDJSON: {lines} lines for {len} trials"));
    }
    if let Some(traced) = traced {
        same_bytes(&masked, &mask_wall(traced), "NDJSON of the traced job")?;
    }
    let got = (fnv1a(&masked), masked.len());
    if seed == DEFAULT_SEED && got != PINNED_DISPATCH_NDJSON {
        return Err(format!(
            "NDJSON: hash/length {got:?} differ from the pinned {PINNED_DISPATCH_NDJSON:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Kind};
    use enerj_hw::quanta::EnergyQuanta;

    fn job(kind: Kind, seed: u64) -> (usize, CampaignSummary) {
        let c = Campaign::setup(kind, seed);
        (c.len(), c.run_round(false, None).expect("a null-sink job cannot fail").summary)
    }

    #[test]
    fn pinned_aggregates_hold_and_every_perturbation_is_refused() {
        for kind in [Kind::Fig5, Kind::Chaos, Kind::Dispatch] {
            let (len, s) = job(kind, DEFAULT_SEED);
            let name = kind.name();
            assert_eq!(check_summary(name, DEFAULT_SEED, len, &s, &mut None, "job"), Ok(()));
            let perturbations: [fn(&mut CampaignSummary); 8] = [
                |s| s.merged_stats.int_approx_ops += 1,
                |s| s.merged_stats.dram_precise_quanta += EnergyQuanta::new(1),
                |s| s.energy_quanta.total += EnergyQuanta::new(1),
                |s| {
                    let (kind, _) = s.fault_totals.per_kind().last().expect("fault kinds");
                    s.fault_totals.record(kind, 1)
                },
                |s| s.mean_error = f64::from_bits(s.mean_error.to_bits() + 1),
                |s| s.panics += 1,
                |s| s.recovery_energy_overhead_quanta += EnergyQuanta::new(1),
                |s| s.trials -= 1,
            ];
            for (i, perturb) in perturbations.iter().enumerate() {
                let mut bad = s.clone();
                perturb(&mut bad);
                assert!(
                    check_summary(name, DEFAULT_SEED, len, &bad, &mut None, "job").is_err(),
                    "{name}: perturbation {i} passed the gate"
                );
                // Without pins, a perturbed job still differs from the first.
                let mut first = Some(digest(&s));
                assert!(check_summary(name, 1, len, &bad, &mut first, "job").is_err());
            }
        }
    }

    #[test]
    fn other_seeds_are_checked_against_the_first_job() {
        let (len, s1) = job(Kind::Fig5, 1);
        let (_, s2) = job(Kind::Fig5, 2);
        assert_ne!(digest(&s1), digest(&s2), "seeds must change the faults");
        let mut first = None;
        assert_eq!(check_summary("fig5-apps", 1, len, &s1, &mut first, "job"), Ok(()));
        assert_eq!(check_summary("fig5-apps", 1, len, &s1, &mut first, "job"), Ok(()));
        assert!(check_summary("fig5-apps", 1, len, &s2, &mut first, "job").is_err());
        assert!(check_summary("fig5-apps", DEFAULT_SEED, len, &s1, &mut None, "job").is_err());
    }

    #[test]
    fn masking_hides_wall_time_only() {
        let a = b"{\"index\":0,\"wall_seconds\":0.000123,\"panic\":null}\n";
        let b = b"{\"index\":0,\"wall_seconds\":9.5,\"panic\":null}\n";
        assert_eq!(mask_wall(a), mask_wall(b));
        assert_eq!(mask_wall(a), b"{\"index\":0,\"wall_seconds\":0,\"panic\":null}\n".to_vec());
        assert_ne!(
            mask_wall(a),
            mask_wall(b"{\"index\":1,\"wall_seconds\":0.000123,\"panic\":null}\n")
        );
    }

    /// Streams one `dispatch-ndjson` job untraced and one traced, and
    /// returns both files' bytes.
    fn ndjson_pair(seed: u64, dir: &str) -> (usize, Vec<u8>, Vec<u8>) {
        let dir = std::path::PathBuf::from(".bench_tmp").join(dir);
        std::fs::create_dir_all(&dir).expect("test scratch dir");
        let (u, t) = (dir.join("u.ndjson"), dir.join("t.ndjson"));
        let c = Campaign::setup(Kind::Dispatch, seed);
        c.run_round(false, Some(&u)).expect("untraced job");
        c.run_round(true, Some(&t)).expect("traced job");
        let out = (c.len(), std::fs::read(&u).expect("read"), std::fs::read(&t).expect("read"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".bench_tmp");
        out
    }

    #[test]
    fn one_streamed_byte_off_is_refused() {
        for seed in [DEFAULT_SEED, 5] {
            let (len, u, t) = ndjson_pair(seed, &format!("gate-ndjson-{seed}"));
            assert_eq!(check_ndjson(seed, len, &u, Some(&t)), Ok(()));
            // Flip one byte outside every wall_seconds value.
            let at = u.len() / 3;
            let at = at + u[at..].iter().position(|&b| b == b'"').expect("a quote");
            let mut bad = t.clone();
            bad[at] = b'\'';
            assert!(check_ndjson(seed, len, &u, Some(&bad)).is_err(), "seed {seed}: traced");
            if seed == DEFAULT_SEED {
                let mut bad = u.clone();
                bad[at] = b'\'';
                assert!(check_ndjson(seed, len, &bad, None).is_err(), "pinned hash");
            }
            let dropped = &u[..u.len()
                - 1
                - u[..u.len() - 1].iter().rev().position(|&b| b == b'\n').expect("two lines")];
            assert!(check_ndjson(seed, len, dropped, None).is_err(), "a dropped line");
        }
    }
}
