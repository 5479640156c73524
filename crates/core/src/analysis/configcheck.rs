//! Configuration robustness checks: non-finite or degenerate optimization
//! and supervision parameters that would make a solve meaningless (or
//! never-ending), reported with stable codes instead of failing deep in
//! the encode or solve phases, plus the sparse-window hint.

use crate::config::PlacerConfig;
use ams_netlist::{DiagCode, Diagnostic, LintReport};
use std::time::Duration;

/// Lints the placer configuration itself (E015–E018, H001).
pub(super) fn check(config: &PlacerConfig, report: &mut LintReport) {
    if let Some(pd) = &config.pin_density {
        if pd.stride_x > pd.beta_x || pd.stride_y > pd.beta_y {
            report.push(
                Diagnostic::new(
                    DiagCode::SparseDensityWindows,
                    format!(
                        "pin-density stride ({}, {}) exceeds the window size ({}, {}); \
                         strips between windows go unchecked",
                        pd.stride_x, pd.stride_y, pd.beta_x, pd.beta_y
                    ),
                )
                .suggest("keep stride at or below the window size for full coverage"),
            );
        }
    }
    let o = &config.optimize;
    if !(0.0..=1.0).contains(&o.freeze_fraction) {
        report.push(
            Diagnostic::new(
                DiagCode::FreezeFractionInvalid,
                format!(
                    "freeze_fraction {} is not a finite value in [0, 1]",
                    o.freeze_fraction
                ),
            )
            .suggest("use a fraction like 0.25, or disable freezing with freeze = false"),
        );
    }
    let start_ok = o.zeta_start > 0.0 && o.zeta_start <= 1.0;
    let step_ok = o.zeta_step >= 0.0 && o.zeta_step.is_finite();
    let min_ok = o.zeta_min > 0.0 && o.zeta_min <= 1.0;
    if !(start_ok && step_ok && min_ok) {
        report.push(
            Diagnostic::new(
                DiagCode::ZetaScheduleInvalid,
                format!(
                    "wirelength ζ schedule (start {}, step {}, min {}) is not a finite \
                     decreasing schedule within (0, 1]",
                    o.zeta_start, o.zeta_step, o.zeta_min
                ),
            )
            .suggest("e.g. zeta_start 0.95, zeta_step 0.03, zeta_min 0.70"),
        );
    }
    if o.conflict_budget == Some(0) || o.first_conflict_budget == Some(0) {
        report.push(
            Diagnostic::new(
                DiagCode::ZeroBudget,
                "a conflict budget of 0 stops every solve before its first step",
            )
            .suggest("use None to disable budgeting, or a positive budget"),
        );
    }
    if config.solver.deadline == Some(Duration::ZERO) {
        report.push(
            Diagnostic::new(
                DiagCode::ZeroDeadline,
                "a zero wall-clock deadline expires before solving starts",
            )
            .suggest("use None to disable the deadline, or a positive duration"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_config(config: &PlacerConfig) -> LintReport {
        let mut report = LintReport::new();
        check(config, &mut report);
        report
    }

    #[test]
    fn default_config_is_clean() {
        assert!(lint_config(&PlacerConfig::default()).is_clean());
        assert!(lint_config(&PlacerConfig::fast()).is_clean());
    }

    #[test]
    fn robustness_codes_fire() {
        let mut c = PlacerConfig::default();
        c.optimize.freeze_fraction = f64::NAN;
        assert!(lint_config(&c).has_code(DiagCode::FreezeFractionInvalid));

        let mut c = PlacerConfig::default();
        c.optimize.zeta_min = f64::NEG_INFINITY;
        assert!(lint_config(&c).has_code(DiagCode::ZetaScheduleInvalid));

        let mut c = PlacerConfig::default();
        c.optimize.conflict_budget = Some(0);
        assert!(lint_config(&c).has_code(DiagCode::ZeroBudget));

        let mut c = PlacerConfig::default();
        c.solver.deadline = Some(Duration::ZERO);
        assert!(lint_config(&c).has_code(DiagCode::ZeroDeadline));
    }
}
