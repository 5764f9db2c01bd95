//! The CI regression gate: one loop over the baseline's metric rows,
//! where each row's [`GateClass`] decides the check.

use crate::perf::{Better, GateClass, MetricRow, PerfReport};

/// Extra slack for wall-clock rows: they gate at `tolerance ×
/// WALL_TOLERANCE_FACTOR` (20% × 5 = double-or-worse fails). Shared CI
/// hosts show minute-scale contention swings of 30–60% that survive
/// even best-of-batches sampling and the start/end calibration min,
/// while the regressions wall rows exist to catch (an allocator creeping
/// back onto the execute path, an accidentally quadratic loop) cost
/// 2–3× — past the widened gate. Deterministic rows keep the
/// full-strength tolerance; they, not wall clocks, carry the gate's
/// precision.
pub const WALL_TOLERANCE_FACTOR: f64 = 5.0;

/// `ParallelWall` rows arm only when baseline and run report the same
/// `host_cores`, at least this many: a smaller host shows only threading
/// overhead, and a different shape is a different measurement.
const PARALLEL_MIN_CORES: usize = 4;

/// Result of comparing a run against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateOutcome {
    /// Hard failures (CI exits non-zero when non-empty).
    pub failures: Vec<String>,
    /// Informational notes (improvements, new rows, disarmed gates).
    pub notes: Vec<String>,
    /// Wall rows (`workload/metric`) this comparison gated.
    pub armed_wall: Vec<String>,
    /// `ParallelWall` rows (`workload/metric`) left ungated because the
    /// host shapes differ or are too small.
    pub disarmed: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates `current` against `baseline`'s value at relative `tolerance`:
/// "worse" is past `1 + tolerance` in the bad direction, "better" past
/// `1 / (1 + tolerance)` in the good one (reciprocal-symmetric, so the
/// check still trips for higher-is-better rows once a widened tolerance
/// reaches 100%).
fn check_ratio(out: &mut GateOutcome, id: &str, base: f64, cur: f64, better: Better, tol: f64) {
    if base <= 0.0 {
        out.failures.push(format!(
            "{id}: baseline value {base:e} cannot anchor a ratio gate — regenerate the baseline"
        ));
        return;
    }
    let ratio = cur / base;
    let upper = 1.0 + tol;
    let (regressed, improved) = match better {
        Better::Lower => (ratio > upper, ratio * upper < 1.0),
        Better::Higher => (ratio * upper < 1.0, ratio > upper),
    };
    if regressed {
        out.failures.push(format!(
            "{id} regressed {:.1}% past the {:.0}% gate ({base:.4e} -> {cur:.4e})",
            (ratio - 1.0).abs() * 100.0,
            tol * 100.0,
        ));
    } else if improved {
        out.notes.push(format!(
            "{id} improved ({base:.4e} -> {cur:.4e}) — consider refreshing the baseline"
        ));
    }
}

/// Compares `current` against `baseline` at `tolerance` (relative), one
/// baseline row at a time. A baseline row missing from the run, a row
/// whose class or direction drifted, and a measured value that collapsed
/// to zero all fail; a row new in the run is noted as ungated until the
/// baseline is refreshed. Otherwise the row's class decides: `Exact`
/// rows must be equal, `Model` rows gate at `tolerance`, wall rows at
/// `tolerance ×` [`WALL_TOLERANCE_FACTOR`] (`ParallelWall` only on equal
/// host shapes of at least 4 cores), and `Info` rows never gate.
pub fn compare(baseline: &PerfReport, current: &PerfReport, tolerance: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    if baseline.scale != current.scale {
        out.failures.push(format!(
            "scale mismatch: baseline '{}' vs current '{}' — regenerate the baseline at the gate's scale",
            baseline.scale, current.scale
        ));
        return out;
    }
    let parallel_armed =
        baseline.host_cores == current.host_cores && baseline.host_cores >= PARALLEL_MIN_CORES;
    let wall_tolerance = tolerance * WALL_TOLERANCE_FACTOR;
    for base in &baseline.rows {
        let id = base.id();
        let Some(cur) = current.row(&base.workload, &base.metric) else {
            out.failures.push(format!("{id} missing from the current run"));
            continue;
        };
        if (cur.class, cur.better) != (base.class, base.better) {
            out.failures.push(format!(
                "{id} is {:?}/{:?} in this run but {:?}/{:?} in the baseline — regenerate the baseline",
                cur.class, cur.better, base.class, base.better
            ));
            continue;
        }
        if base.class != GateClass::Info && base.value != 0.0 && cur.value == 0.0 {
            out.failures.push(format!("{id} collapsed to zero (baseline {:.4e})", base.value));
            continue;
        }
        let tol = match base.class {
            GateClass::Info => continue,
            GateClass::Exact => {
                if cur.value != base.value {
                    out.failures
                        .push(format!("{id} changed: {} -> {} (exact row)", base.value, cur.value));
                }
                continue;
            }
            GateClass::Model => tolerance,
            GateClass::ParallelWall if !parallel_armed => {
                out.disarmed.push(id);
                continue;
            }
            GateClass::SerialWall | GateClass::ParallelWall => {
                out.armed_wall.push(id.clone());
                wall_tolerance
            }
        };
        check_ratio(&mut out, &id, base.value, cur.value, base.better, tol);
    }
    for cur in &current.rows {
        if baseline.row(&cur.workload, &cur.metric).is_none() {
            out.notes.push(format!(
                "{} is new in this run and ungated until the baseline is refreshed",
                cur.id()
            ));
        }
    }
    if !out.disarmed.is_empty() {
        out.notes.push(format!(
            "ParallelWall rows disarmed: baseline host_cores {}, current host_cores {} (they gate only on equal shapes of >= {PARALLEL_MIN_CORES} cores)",
            baseline.host_cores, current.host_cores
        ));
    }
    out
}

/// One `self-disabled gates:` line naming every disarmed row, or `None`
/// when every row armed — so a CI log scan answers "what was NOT checked
/// on this run?" in one place.
pub fn disabled_summary(outcome: &GateOutcome) -> Option<String> {
    (!outcome.disarmed.is_empty())
        .then(|| format!("self-disabled gates: {}", outcome.disarmed.join(", ")))
}

/// Worsens every wall-clock row by `factor` (lower-is-better values
/// multiply, higher-is-better values divide): the
/// `TA_BENCH_INJECT_SLOWDOWN` self-test that shows the gate trips.
pub fn inject_slowdown(rows: &mut [MetricRow], factor: f64) {
    for row in rows.iter_mut().filter(|r| r.class.is_wall()) {
        match row.better {
            Better::Lower => row.value *= factor,
            Better::Higher => row.value /= factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::test_fixture::sample_report;
    use crate::perf::GATE_TOLERANCE;

    /// `sample_report` with `metric` of `workload` scaled by `factor`.
    fn scaled(workload: &str, metric: &str, factor: f64) -> PerfReport {
        let mut r = sample_report();
        let row = r.rows.iter_mut().find(|x| x.workload == workload && x.metric == metric);
        row.expect("fixture row").value *= factor;
        r
    }

    fn fails_on(outcome: &GateOutcome, needle: &str) -> bool {
        outcome.failures.iter().any(|f| f.contains(needle))
    }

    #[test]
    fn gate_passes_identical_reports() {
        let r = sample_report();
        let outcome = compare(&r, &r, GATE_TOLERANCE);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert!(outcome.notes.is_empty() && disabled_summary(&outcome).is_none());
    }

    #[test]
    fn injected_slowdown_fails_every_armed_wall_row_serial_included() {
        // A 1-core baseline against a 2-core run: ParallelWall disarms,
        // SerialWall still gates.
        let mut base = sample_report();
        base.host_cores = 1;
        let mut slow = sample_report();
        slow.host_cores = 2;
        inject_slowdown(&mut slow.rows, 3.0);
        let outcome = compare(&base, &slow, GATE_TOLERANCE);
        assert_eq!(outcome.armed_wall, ["l7b_qproj_serial/wall_norm"]);
        for id in &outcome.armed_wall {
            assert!(fails_on(&outcome, id), "{id}: {:?}", outcome.failures);
        }
        assert_eq!(outcome.failures.len(), outcome.armed_wall.len(), "{:?}", outcome.failures);
        // On an equal >= 4-core pair every wall row arms and trips,
        // higher-is-better rows included.
        let mut slow = sample_report();
        inject_slowdown(&mut slow.rows, 3.0);
        let outcome = compare(&sample_report(), &slow, GATE_TOLERANCE);
        let walls = sample_report().rows.iter().filter(|r| r.class.is_wall()).count();
        assert_eq!(outcome.armed_wall.len(), walls);
        for id in &outcome.armed_wall {
            assert!(fails_on(&outcome, id), "{id}: {:?}", outcome.failures);
        }
    }

    #[test]
    fn exact_rows_must_match_and_missing_rows_fail() {
        let outcome = compare(
            &sample_report(),
            &scaled("plan_cache_contention_t8", "lookups", 1.0 + 1e-9),
            GATE_TOLERANCE,
        );
        assert!(fails_on(&outcome, "plan_cache_contention_t8/lookups changed"));
        let mut missing = sample_report();
        missing.rows.pop();
        let outcome = compare(&sample_report(), &missing, GATE_TOLERANCE);
        assert!(fails_on(&outcome, "kernel_micro_popcount/wall_norm missing"));
    }

    #[test]
    fn model_rows_gate_at_tolerance_and_note_improvements() {
        let base = sample_report();
        let jitter = scaled("l7b_qproj_serial", "density", 1.1);
        assert!(compare(&base, &jitter, GATE_TOLERANCE).passed());
        let outcome = compare(&base, &scaled("l7b_qproj_serial", "density", 1.3), GATE_TOLERANCE);
        assert!(fails_on(&outcome, "l7b_qproj_serial/density regressed"));
        // Higher-is-better: a 1.5× macs/cycle is an improvement note.
        let faster = scaled("l7b_qproj_serial", "macs_per_cycle", 1.5);
        let outcome = compare(&base, &faster, GATE_TOLERANCE);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert!(outcome.notes.iter().any(|n| n.contains("macs_per_cycle improved")));
    }

    #[test]
    fn wall_rows_gate_at_widened_tolerance_only() {
        let base = sample_report();
        // +60%: a shared-host contention swing inside 20% × 5 = 100%.
        let burst = scaled("l7b_qproj_serial", "wall_norm", 1.6);
        assert!(compare(&base, &burst, GATE_TOLERANCE).passed());
        let slow = scaled("l7b_qproj_serial", "wall_norm", 2.5);
        assert!(fails_on(&compare(&base, &slow, GATE_TOLERANCE), "wall_norm regressed"));
        // Model rows keep the full-strength 20% at the same ratio.
        let model = scaled("l7b_qproj_serial", "macs_per_cycle", 1.0 / 1.6);
        assert!(fails_on(&compare(&base, &model, GATE_TOLERANCE), "macs_per_cycle"));
    }

    #[test]
    fn collapse_to_zero_fails_and_info_rows_never_gate() {
        let base = sample_report();
        let outcome = compare(&base, &scaled("l7b_qproj_serial", "cycles", 0.0), GATE_TOLERANCE);
        assert!(fails_on(&outcome, "l7b_qproj_serial/cycles collapsed to zero"));
        for factor in [0.0, 10.0] {
            let info = scaled("serve_open_loop", "batches", factor);
            assert!(compare(&base, &info, GATE_TOLERANCE).passed());
        }
    }

    #[test]
    fn class_drift_fails_with_regenerate_message() {
        let mut drifted = sample_report();
        drifted.rows[3].class = GateClass::ParallelWall;
        let outcome = compare(&drifted, &sample_report(), GATE_TOLERANCE);
        assert!(fails_on(&outcome, "l7b_qproj_serial/wall_norm is SerialWall/Lower"));
        assert!(fails_on(&outcome, "regenerate the baseline"));
        let mut flipped = sample_report();
        flipped.rows[3].better = Better::Higher;
        assert!(!compare(&flipped, &sample_report(), GATE_TOLERANCE).passed());
    }

    #[test]
    fn new_rows_are_noted_as_ungated() {
        let mut base = sample_report();
        base.rows.retain(|r| r.workload != "kernel_micro_popcount");
        let outcome = compare(&base, &sample_report(), GATE_TOLERANCE);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        let ungated = outcome.notes.iter().filter(|n| n.contains("ungated until")).count();
        assert_eq!(ungated, 2);
    }

    #[test]
    fn disabled_summary_names_exactly_the_disarmed_parallel_wall_rows() {
        let mut base = sample_report();
        base.host_cores = 1;
        let mut cur = sample_report();
        cur.host_cores = 2;
        let outcome = compare(&base, &cur, GATE_TOLERANCE);
        let parallel: Vec<String> = base
            .rows
            .iter()
            .filter(|r| r.class == GateClass::ParallelWall)
            .map(MetricRow::id)
            .collect();
        assert_eq!(outcome.disarmed, parallel);
        let line = disabled_summary(&outcome).expect("a 1-vs-2-core pair disarms rows");
        assert_eq!(line, format!("self-disabled gates: {}", parallel.join(", ")));
        // Equal shapes below 4 cores disarm too; equal >= 4 arms all.
        let small = compare(&base, &base, GATE_TOLERANCE);
        assert_eq!(small.disarmed, parallel);
        assert!(disabled_summary(&compare(&cur, &cur, GATE_TOLERANCE)).is_some());
        assert!(disabled_summary(&compare(&sample_report(), &sample_report(), 0.2)).is_none());
    }

    #[test]
    fn gate_rejects_scale_mismatch() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.scale = "full".into();
        assert!(!compare(&base, &cur, GATE_TOLERANCE).passed());
    }
}
