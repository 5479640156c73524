//! Placement engine configuration.

use std::time::Duration;

/// Which constraint families to encode.
///
/// The paper's "w/ Cstr." arm enables everything; "w/o Cstr." disables the
/// four AMS families while keeping the *critical* constraints (regions,
/// non-overlap, power abutment, pin density) "to ensure routability".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstraintToggles {
    /// Hierarchical symmetry constraints (Eq. 8).
    pub symmetry: bool,
    /// Array and common-centroid constraints (Eq. 9–10).
    pub arrays: bool,
    /// Cluster constraints (virtual nets).
    pub clusters: bool,
    /// Extension constraints (Eq. 11).
    pub extensions: bool,
    /// Power-abutment constraints (Eq. 12). Always recommended.
    pub power_abutment: bool,
}

impl ConstraintToggles {
    /// All families on — the paper's "w/ Cstr." arm.
    pub fn all() -> ConstraintToggles {
        ConstraintToggles {
            symmetry: true,
            arrays: true,
            clusters: true,
            extensions: true,
            power_abutment: true,
        }
    }

    /// AMS families off, critical constraints on — the "w/o Cstr." arm.
    pub fn critical_only() -> ConstraintToggles {
        ConstraintToggles {
            symmetry: false,
            arrays: false,
            clusters: false,
            extensions: false,
            power_abutment: true,
        }
    }
}

impl Default for ConstraintToggles {
    fn default() -> ConstraintToggles {
        ConstraintToggles::all()
    }
}

/// Window-based pin-density checking parameters (Eq. 13–14).
#[derive(Clone, Debug, PartialEq)]
pub struct PinDensityConfig {
    /// Scaled window width `β_x`.
    pub beta_x: u32,
    /// Scaled window height `β_y`.
    pub beta_y: u32,
    /// Pin-count threshold `λ_th` per window; `None` derives it from the
    /// average density with [`PinDensityConfig::auto_margin`].
    pub lambda: Option<u64>,
    /// Multiplier over the average window pin count when `lambda` is `None`.
    pub auto_margin: f64,
    /// Window step in x; 1 checks every position as in the paper, larger
    /// strides trade coverage for encoding size.
    pub stride_x: u32,
    /// Window step in y.
    pub stride_y: u32,
    /// Per-window thresholds overriding the global `λ_th`, keyed by the
    /// *scaled* window origin — the same `(x, y)` the encoder stamps into
    /// `Provenance::Window`, so routing feedback can tighten exactly the
    /// windows it proved congested. Kept sorted by key; an override only
    /// ever lowers the effective bound (it is clamped to the resolved
    /// global λ), so [`crate::Placement::verify`]'s global check stays
    /// sound.
    pub lambda_overrides: Vec<((u32, u32), u64)>,
}

impl Default for PinDensityConfig {
    fn default() -> PinDensityConfig {
        PinDensityConfig {
            beta_x: 4,
            beta_y: 2,
            lambda: None,
            auto_margin: 1.15,
            stride_x: 2,
            stride_y: 1,
            lambda_overrides: Vec::new(),
        }
    }
}

impl PinDensityConfig {
    /// The override for the window at scaled origin `(x, y)`, if any.
    pub fn override_for(&self, x: u32, y: u32) -> Option<u64> {
        self.lambda_overrides
            .binary_search_by_key(&(x, y), |&(k, _)| k)
            .ok()
            .map(|i| self.lambda_overrides[i].1)
    }

    /// Installs (or tightens) the override for the window at scaled origin
    /// `(x, y)`, keeping the override list sorted. Returns `true` when the
    /// stored bound actually decreased.
    pub fn tighten_window(&mut self, x: u32, y: u32, lambda: u64) -> bool {
        match self
            .lambda_overrides
            .binary_search_by_key(&(x, y), |&(k, _)| k)
        {
            Ok(i) => {
                if lambda < self.lambda_overrides[i].1 {
                    self.lambda_overrides[i].1 = lambda;
                    true
                } else {
                    false
                }
            }
            Err(i) => {
                self.lambda_overrides.insert(i, ((x, y), lambda));
                true
            }
        }
    }
}

/// Incremental-optimization behaviour (Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptimizeConfig {
    /// Maximum optimization iterations `K_iter`.
    pub k_iter: usize,
    /// Initial wirelength shrink factor `ζ` (0, 1].
    pub zeta_start: f64,
    /// Per-iteration decrease of `ζ`.
    pub zeta_step: f64,
    /// Lower bound on `ζ`.
    pub zeta_min: f64,
    /// Freeze low-priority cell/region variables via assumptions (line 9).
    pub freeze: bool,
    /// Fraction of cells frozen per iteration, accumulated over iterations.
    pub freeze_fraction: f64,
    /// Conflict budget per optimization-round SAT call; `None` is unlimited.
    pub conflict_budget: Option<u64>,
    /// Conflict budget for the *first* (feasibility) solve, which must
    /// succeed for any placement to exist; `None` is unlimited.
    pub first_conflict_budget: Option<u64>,
}

impl Default for OptimizeConfig {
    fn default() -> OptimizeConfig {
        OptimizeConfig {
            k_iter: 5,
            zeta_start: 0.95,
            zeta_step: 0.03,
            zeta_min: 0.70,
            freeze: true,
            freeze_fraction: 0.25,
            conflict_budget: Some(100_000),
            first_conflict_budget: Some(3_000_000),
        }
    }
}

/// SAT-core execution settings: sequential or parallel portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverConfig {
    /// Worker threads. `1` (the default) solves sequentially on the
    /// calling thread, bit-for-bit deterministically. More threads run a
    /// diversified portfolio that returns the first verdict; results stay
    /// correct but iteration-level outcomes may vary run to run.
    pub threads: usize,
    /// Learnt clauses with LBD at or below this are shared between
    /// portfolio workers; `0` disables sharing.
    pub share_lbd_max: u32,
    /// Base seed for worker diversification (phase/branching randomness).
    pub seed: u64,
    /// Wall-clock deadline for the whole `place()` call, covering every
    /// SAT round and relaxation rung. When it expires after the first
    /// model, the best placement so far is returned (tagged
    /// `PlaceOutcome::Anytime`); before any model, the solve fails with
    /// `PlaceError::DeadlineExpired`. `None` (the default) never reads
    /// the clock during search, preserving sequential determinism.
    pub deadline: Option<Duration>,
    /// Certified solving: capture a DRAT proof of every SAT-core
    /// derivation, so an infeasibility verdict carries a machine-checkable
    /// certificate (`PlaceError::Infeasible::certificate`, validated with
    /// [`ams_sat::drat::check`]) and a satisfiable run re-verifies its
    /// model (`PlaceStats::certify`). Costs proof-logging time and memory;
    /// off by default.
    pub certify: bool,
    /// Keep the solver reusable after a solve completes: the wirelength
    /// bounds Algorithm 1 tightens per round are installed behind a
    /// retractable per-job selector instead of asserted permanently, so
    /// [`crate::Placer::rebase`] can retire them and re-solve the same
    /// instance (or a content-only variant) on the live solver with every
    /// learnt clause intact. Off by default: one-shot runs keep the exact
    /// historical CNF.
    pub reusable: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            threads: 1,
            share_lbd_max: 4,
            seed: 0x5EED,
            deadline: None,
            certify: false,
            reusable: false,
        }
    }
}

/// Caller-supplied overrides for [`SolverConfig::resolve`] — the one place
/// the explicit > environment > config precedence for thread count and
/// deadline is applied.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverOverrides {
    /// Explicit thread count (e.g. `--threads` or
    /// [`crate::PlacerBuilder::threads`]); beats everything.
    pub threads: Option<usize>,
    /// Explicit wall-clock deadline; beats everything.
    pub deadline: Option<Duration>,
    /// Whether the `AMSPLACE_THREADS` / `AMSPLACE_DEADLINE_MS` environment
    /// variables may fill in values the caller left unset. Interactive
    /// callers (the CLI, the builder default) say `true`; the job server
    /// says `false` so per-job configuration can never be silently
    /// overridden by process-global environment state.
    pub consult_env: bool,
}

impl SolverOverrides {
    /// Overrides that consult the environment for unset values — the
    /// historical [`crate::PlacerBuilder`] behaviour.
    pub fn with_env(threads: Option<usize>, deadline: Option<Duration>) -> SolverOverrides {
        SolverOverrides {
            threads,
            deadline,
            consult_env: true,
        }
    }

    /// Overrides that ignore the environment entirely: the resolved value
    /// is exactly `explicit.or(config)`. Used per job by `amsplace serve`.
    pub fn explicit_only(threads: Option<usize>, deadline: Option<Duration>) -> SolverOverrides {
        SolverOverrides {
            threads,
            deadline,
            consult_env: false,
        }
    }
}

impl SolverConfig {
    /// Applies the documented precedence for the execution knobs that can
    /// come from more than one place:
    ///
    /// 1. an **explicit** caller value ([`SolverOverrides::threads`] /
    ///    [`SolverOverrides::deadline`]) always wins;
    /// 2. otherwise, when [`SolverOverrides::consult_env`] is set, a
    ///    parseable positive `AMSPLACE_THREADS` / `AMSPLACE_DEADLINE_MS`
    ///    environment value applies;
    /// 3. otherwise the value already in this config stands.
    ///
    /// Every other field is returned unchanged. This is the *only* place
    /// the precedence lives; [`crate::PlacerBuilder::build`] delegates
    /// here.
    pub fn resolve(self, overrides: SolverOverrides) -> SolverConfig {
        self.resolve_from(overrides, |key| std::env::var(key).ok())
    }

    /// [`SolverConfig::resolve`] with an injected environment lookup, so
    /// the precedence rules are unit-testable without mutating the
    /// process-global environment.
    pub fn resolve_from(
        self,
        overrides: SolverOverrides,
        lookup: impl Fn(&str) -> Option<String>,
    ) -> SolverConfig {
        let env = |key: &str| -> Option<u64> {
            if !overrides.consult_env {
                return None;
            }
            lookup(key)?.trim().parse::<u64>().ok().filter(|&v| v > 0)
        };
        SolverConfig {
            threads: overrides
                .threads
                .or_else(|| env("AMSPLACE_THREADS").map(|v| v as usize))
                .unwrap_or(self.threads),
            deadline: overrides
                .deadline
                .or_else(|| env("AMSPLACE_DEADLINE_MS").map(Duration::from_millis))
                .or(self.deadline),
            ..self
        }
    }
}

/// Static presolve behaviour (see [`crate::analysis::presolve`]): interval
/// domain analysis, capacity/counting infeasibility proofs, and bit-width
/// pruning of the lowered encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PresolveConfig {
    /// Whether presolve runs at all. With `false`, the placer encodes and
    /// solves exactly as before this analysis existed.
    pub enabled: bool,
    /// Feed the narrowed interval domains into variable allocation so
    /// coordinates get fewer bits. Sound (pruning only removes values no
    /// model can take), but automatically disabled under
    /// [`SolverConfig::certify`] so certified runs prove the un-pruned
    /// encoding.
    pub domain_pruning: bool,
}

impl Default for PresolveConfig {
    fn default() -> PresolveConfig {
        PresolveConfig {
            enabled: true,
            domain_pruning: true,
        }
    }
}

/// Infeasibility-recovery behaviour: when the first solve is UNSAT, the
/// placer consumes the UNSAT explanation and retries with targeted
/// relaxations (a bounded ladder) instead of failing outright.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Whether the relaxation ladder runs at all. With `false`,
    /// `Infeasible` is returned on the first UNSAT as before.
    pub enabled: bool,
    /// Maximum relaxation rungs to attempt before giving up.
    pub max_rungs: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            enabled: true,
            max_rungs: 4,
        }
    }
}

/// Full placement configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacerConfig {
    /// Global utilization ratio `γ^ur` used for die sizing (Eq. 2).
    pub utilization: f64,
    /// Aspect ratio `γ^ar` (width / height).
    pub aspect_ratio: f64,
    /// Extra multiplicative slack on the die, useful when heavy constraints
    /// make tight dies infeasible.
    pub die_slack: f64,
    /// Constraint family toggles.
    pub toggles: ConstraintToggles,
    /// Pin-density checking; `None` disables it (an ablation arm — the
    /// paper argues placements may then be unroutable).
    pub pin_density: Option<PinDensityConfig>,
    /// Incremental wirelength optimization settings.
    pub optimize: OptimizeConfig,
    /// Encode arrays by canonical slot assignment (members pinned to slots
    /// of the chosen shape, with common-centroid A/B partitions computed
    /// statically) instead of the literal Eq. 9–10 packing constraints.
    /// Dramatically easier to solve; `false` reverts to the literal
    /// encoding for ablation.
    pub array_slots: bool,
    /// SAT-core execution: thread count, clause-sharing policy, deadline.
    pub solver: SolverConfig,
    /// Infeasibility-recovery (relaxation ladder) behaviour.
    pub recovery: RecoveryConfig,
    /// Static presolve (domain pruning + capacity proofs) behaviour.
    pub presolve: PresolveConfig,
    /// Scale factor on extension-constraint margins (Eq. 11), in `[0, 1]`.
    /// `1.0` (the default) honors the margins as specified; the recovery
    /// ladder lowers it to relax over-constrained designs, and `0.0`
    /// disables the margins entirely.
    pub extension_scale: f64,
}

impl Default for PlacerConfig {
    fn default() -> PlacerConfig {
        PlacerConfig {
            utilization: 0.92,
            aspect_ratio: 1.0,
            die_slack: 1.04,
            toggles: ConstraintToggles::all(),
            pin_density: Some(PinDensityConfig::default()),
            optimize: OptimizeConfig::default(),
            array_slots: true,
            solver: SolverConfig::default(),
            recovery: RecoveryConfig::default(),
            presolve: PresolveConfig::default(),
            extension_scale: 1.0,
        }
    }
}

impl PlacerConfig {
    /// A fast preset for tests and examples: two optimization rounds, a
    /// modest conflict budget, and roomy die sizing (arbitrary small
    /// designs round harshly against the tight default sizing).
    pub fn fast() -> PlacerConfig {
        PlacerConfig {
            utilization: 0.75,
            die_slack: 1.25,
            optimize: OptimizeConfig {
                k_iter: 2,
                conflict_budget: Some(200_000),
                ..OptimizeConfig::default()
            },
            ..PlacerConfig::default()
        }
    }

    /// The "w/o Cstr." arm of this configuration.
    pub fn without_ams_constraints(&self) -> PlacerConfig {
        PlacerConfig {
            toggles: ConstraintToggles::critical_only(),
            ..self.clone()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(format!("utilization {} outside (0, 1]", self.utilization));
        }
        if self.aspect_ratio.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!(
                "aspect ratio {} must be positive",
                self.aspect_ratio
            ));
        }
        if !(self.die_slack >= 1.0 && self.die_slack.is_finite()) {
            return Err(format!(
                "die slack {} must be finite and >= 1",
                self.die_slack
            ));
        }
        if !(0.0..=1.0).contains(&self.extension_scale) {
            return Err(format!(
                "extension_scale {} outside [0, 1]",
                self.extension_scale
            ));
        }
        let o = &self.optimize;
        if !(o.zeta_start > 0.0 && o.zeta_start <= 1.0) {
            return Err(format!("zeta_start {} outside (0, 1]", o.zeta_start));
        }
        if !(o.zeta_step >= 0.0 && o.zeta_step.is_finite()) {
            return Err(format!("zeta_step {} must be finite and >= 0", o.zeta_step));
        }
        if !(o.zeta_min > 0.0 && o.zeta_min <= 1.0) {
            return Err(format!("zeta_min {} outside (0, 1]", o.zeta_min));
        }
        if !(0.0..=1.0).contains(&o.freeze_fraction) {
            return Err(format!(
                "freeze_fraction {} outside [0, 1]",
                o.freeze_fraction
            ));
        }
        if o.conflict_budget == Some(0) || o.first_conflict_budget == Some(0) {
            return Err("a conflict budget of 0 can never solve; use None to disable".into());
        }
        if self.solver.deadline == Some(Duration::ZERO) {
            return Err("a zero deadline expires before solving; use None to disable".into());
        }
        if self.solver.threads == 0 {
            return Err("solver threads must be at least 1".into());
        }
        if self.solver.threads > 128 {
            return Err(format!(
                "solver threads {} exceeds the cap of 128",
                self.solver.threads
            ));
        }
        if let Some(pd) = &self.pin_density {
            if pd.beta_x == 0 || pd.beta_y == 0 || pd.stride_x == 0 || pd.stride_y == 0 {
                return Err("pin-density window and stride must be nonzero".into());
            }
            if !(pd.auto_margin >= 1.0 && pd.auto_margin.is_finite()) {
                return Err(format!(
                    "pin-density auto margin {} must be finite and >= 1",
                    pd.auto_margin
                ));
            }
            if !pd.lambda_overrides.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(
                    "pin-density λ overrides must be sorted by window origin with \
                     no duplicates (use PinDensityConfig::tighten_window)"
                        .into(),
                );
            }
            if pd.lambda_overrides.iter().any(|&(_, l)| l == 0) {
                return Err(
                    "a per-window λ override of 0 forbids every pin; the minimum \
                     useful bound is 1"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(PlacerConfig::default().validate(), Ok(()));
        assert_eq!(PlacerConfig::fast().validate(), Ok(()));
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let c = PlacerConfig {
            utilization: 0.0,
            ..PlacerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PlacerConfig {
            die_slack: 0.5,
            ..PlacerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PlacerConfig {
            pin_density: Some(PinDensityConfig {
                beta_x: 0,
                ..PinDensityConfig::default()
            }),
            ..PlacerConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn solver_thread_bounds_are_enforced() {
        let mut c = PlacerConfig::default();
        c.solver.threads = 0;
        assert!(c.validate().is_err());
        c.solver.threads = 4;
        assert_eq!(c.validate(), Ok(()));
        c.solver.threads = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_finite_and_zero_robustness_params_are_rejected() {
        let c = PlacerConfig {
            die_slack: f64::NAN,
            ..PlacerConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = PlacerConfig::default();
        c.optimize.freeze_fraction = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = PlacerConfig::default();
        c.optimize.zeta_step = f64::INFINITY;
        assert!(c.validate().is_err());
        let mut c = PlacerConfig::default();
        c.optimize.zeta_min = 0.0;
        assert!(c.validate().is_err());
        let mut c = PlacerConfig::default();
        c.optimize.conflict_budget = Some(0);
        assert!(c.validate().is_err());
        let mut c = PlacerConfig::default();
        c.solver.deadline = Some(Duration::ZERO);
        assert!(c.validate().is_err());
        let c = PlacerConfig {
            extension_scale: -0.5,
            ..PlacerConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = PlacerConfig::default();
        c.solver.deadline = Some(Duration::from_millis(50));
        c.extension_scale = 0.5;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn resolve_explicit_beats_env_beats_config() {
        let base = SolverConfig {
            threads: 2,
            deadline: Some(Duration::from_secs(9)),
            ..SolverConfig::default()
        };
        let env = |key: &str| match key {
            "AMSPLACE_THREADS" => Some("8".to_string()),
            "AMSPLACE_DEADLINE_MS" => Some("500".to_string()),
            _ => None,
        };

        // Explicit wins over both env and config.
        let r = base.resolve_from(
            SolverOverrides::with_env(Some(3), Some(Duration::from_millis(7))),
            env,
        );
        assert_eq!(r.threads, 3);
        assert_eq!(r.deadline, Some(Duration::from_millis(7)));

        // No explicit value: env wins over config.
        let r = base.resolve_from(SolverOverrides::with_env(None, None), env);
        assert_eq!(r.threads, 8);
        assert_eq!(r.deadline, Some(Duration::from_millis(500)));

        // No explicit, no env: config stands.
        let r = base.resolve_from(SolverOverrides::with_env(None, None), |_| None);
        assert_eq!(r.threads, 2);
        assert_eq!(r.deadline, Some(Duration::from_secs(9)));
    }

    #[test]
    fn resolve_explicit_only_never_reads_the_env() {
        let base = SolverConfig::default();
        let env = |_: &str| Some("8".to_string());
        let r = base.resolve_from(SolverOverrides::explicit_only(None, None), env);
        assert_eq!(r.threads, base.threads);
        assert_eq!(r.deadline, None);
        let r = base.resolve_from(SolverOverrides::explicit_only(Some(5), None), env);
        assert_eq!(r.threads, 5);
    }

    #[test]
    fn resolve_ignores_unparseable_and_zero_env_values() {
        let base = SolverConfig::default();
        for bad in ["0", "-3", "many", ""] {
            let r = base.resolve_from(SolverOverrides::with_env(None, None), |_| {
                Some(bad.to_string())
            });
            assert_eq!(r.threads, base.threads, "env value {bad:?}");
            assert_eq!(r.deadline, None, "env value {bad:?}");
        }
    }

    #[test]
    fn resolve_leaves_unrelated_fields_untouched() {
        let base = SolverConfig {
            share_lbd_max: 7,
            seed: 42,
            certify: true,
            ..SolverConfig::default()
        };
        let r = base.resolve_from(SolverOverrides::with_env(Some(4), None), |_| None);
        assert_eq!(r.share_lbd_max, 7);
        assert_eq!(r.seed, 42);
        assert!(r.certify);
    }

    #[test]
    fn without_ams_keeps_critical() {
        let c = PlacerConfig::default().without_ams_constraints();
        assert!(!c.toggles.symmetry);
        assert!(c.toggles.power_abutment);
        assert!(c.pin_density.is_some());
    }
}
