//! The SMT placement engine (Fig. 3): encode → incremental optimization
//! (Algorithm 1) → post-processing.

use crate::analysis::presolve::{self, Domains, PresolveConflict};
use crate::config::{solver_env, PinDensityConfig, PlacerConfig};
use crate::encode;
use crate::ir::{conflict_families, ConstraintFamily, ConstraintStore, FamilyStats};
use crate::placement::{
    CertifyReport, DegradeReason, PinDensityCheck, PlaceOutcome, PlaceStats, Placement,
    PresolveStats, Relaxation, RungStats, WarmStats,
};
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::{CellId, Design, DiagCode, LintReport, Rect, RegionId};
use ams_sat::{PortfolioConfig, Proof, StopCause};
use ams_smt::{Smt, SmtResult, Term};
use std::error::Error;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Placement failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlaceError {
    /// The configuration is invalid.
    Config(String),
    /// The pre-solve linter found error-severity diagnostics; the design
    /// is provably unplaceable or its constraints are broken.
    Lint(LintReport),
    /// The constraint system is unsatisfiable — no legal placement exists
    /// on the sized die (raise `die_slack` or utilization headroom).
    Infeasible {
        /// Minimal-ish set of constraint families the failed selector
        /// assumptions of the final solve blame (see [`crate::ir`]);
        /// non-empty, sorted, deduplicated.
        conflict: Vec<ConstraintFamily>,
        /// One human-readable line per blamed family citing the design
        /// objects (cells, regions, windows, …) whose constraints make up
        /// the family — the IR's provenance records.
        provenance: Vec<String>,
        /// In certify mode ([`crate::SolverConfig::certify`]), the DRAT
        /// certificate of the final infeasibility verdict; validate it
        /// with [`ams_sat::drat::check`]. `None` outside certify mode.
        certificate: Option<Box<Proof>>,
    },
    /// The first solve exhausted its conflict budget without a verdict.
    BudgetExhausted,
    /// The wall-clock deadline ([`PlacerBuilder::deadline`] /
    /// [`crate::SolverConfig::deadline`]) expired before *any* model was
    /// found. Once a model exists the deadline degrades the result to
    /// [`crate::PlaceOutcome::Anytime`] instead of erroring.
    DeadlineExpired,
    /// The run was cancelled through the cancel flag
    /// ([`PlacerBuilder::cancel_flag`]) before completing.
    Cancelled,
    /// An internal invariant failed — e.g. every portfolio worker panicked
    /// before a first model existed. Never caused by the design or the
    /// configuration; the message is diagnostic.
    Internal(String),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            PlaceError::Lint(report) => {
                write!(
                    f,
                    "constraint lint failed with {} error(s)",
                    report.errors().count()
                )?;
                if let Some(first) = report.errors().next() {
                    write!(f, "; first: {}", first.message)?;
                }
                Ok(())
            }
            PlaceError::Infeasible { conflict, .. } => {
                write!(f, "no legal placement exists for the sized die")?;
                if !conflict.is_empty() {
                    let names: Vec<&str> = conflict.iter().map(|fam| fam.name()).collect();
                    write!(f, " (conflicting families: {})", names.join(", "))?;
                }
                Ok(())
            }
            PlaceError::BudgetExhausted => {
                write!(f, "conflict budget exhausted before a first solution")
            }
            PlaceError::DeadlineExpired => {
                write!(f, "wall-clock deadline expired before a first solution")
            }
            PlaceError::Cancelled => {
                write!(f, "placement cancelled before completion")
            }
            PlaceError::Internal(msg) => {
                write!(f, "internal placer failure: {msg}")
            }
        }
    }
}

impl Error for PlaceError {
    /// No variant wraps another error type: lint reports and conflict
    /// families are structured payloads, not error causes. Spelled out so
    /// the chain contract is explicit rather than inherited by default.
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlaceError::Config(_)
            | PlaceError::Lint(_)
            | PlaceError::Infeasible { .. }
            | PlaceError::BudgetExhausted
            | PlaceError::DeadlineExpired
            | PlaceError::Cancelled
            | PlaceError::Internal(_) => None,
        }
    }
}

/// Model snapshot of one SAT iteration.
#[derive(Clone, Debug)]
struct Model {
    xs: Vec<u64>,
    ys: Vec<u64>,
    region_x: Vec<u64>,
    region_y: Vec<u64>,
    region_w: Vec<u64>,
    region_h: Vec<u64>,
}

/// Fluent constructor for [`Placer`] — the primary entry point.
///
/// Obtained from [`Placer::builder`]; encoding happens at
/// [`PlacerBuilder::build`] so every knob is settled first.
///
/// # Examples
///
/// ```no_run
/// use ams_netlist::benchmarks;
/// use ams_place::{Placer, PlacerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = benchmarks::buf();
/// let placement = Placer::builder(&design)
///     .config(PlacerConfig::fast())
///     .threads(4)
///     .build()?
///     .place()?;
/// placement.verify(&design).expect("placement is legal");
/// # Ok(())
/// # }
/// ```
pub struct PlacerBuilder<'a> {
    design: &'a Design,
    config: PlacerConfig,
    threads: Option<usize>,
    deadline: Option<Duration>,
    cancel: Option<Arc<AtomicBool>>,
}

impl<'a> PlacerBuilder<'a> {
    /// Replaces the whole configuration (defaults to
    /// [`PlacerConfig::default`]).
    pub fn config(mut self, config: PlacerConfig) -> PlacerBuilder<'a> {
        self.config = config;
        self
    }

    /// Sets the solver thread count: `1` is sequential and deterministic,
    /// more threads run the diversified portfolio.
    ///
    /// When this is never called, the `AMSPLACE_THREADS` environment
    /// variable (if set to a positive integer) overrides the configured
    /// [`crate::SolverConfig::threads`].
    pub fn threads(mut self, threads: usize) -> PlacerBuilder<'a> {
        self.threads = Some(threads);
        self
    }

    /// Caps SAT conflicts per solve call — both the first feasibility
    /// solve and each optimization round (anytime placement).
    pub fn conflict_budget(mut self, conflicts: u64) -> PlacerBuilder<'a> {
        self.config.optimize.first_conflict_budget = Some(conflicts);
        self.config.optimize.conflict_budget = Some(conflicts);
        self
    }

    /// Caps the whole [`Placer::place`] call — every SAT round and
    /// relaxation rung — at a wall-clock deadline. When it expires after
    /// the first model, the best placement found so far is returned tagged
    /// [`crate::PlaceOutcome::Anytime`]; before any model,
    /// [`PlaceError::DeadlineExpired`].
    ///
    /// When this is never called, the `AMSPLACE_DEADLINE_MS` environment
    /// variable (if set to a positive integer, in milliseconds) overrides
    /// the configured [`crate::SolverConfig::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> PlacerBuilder<'a> {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a cooperative cancel flag: raising it makes the running
    /// [`Placer::place`] return [`PlaceError::Cancelled`] promptly.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> PlacerBuilder<'a> {
        self.cancel = Some(flag);
        self
    }

    /// Enables certified solving ([`crate::SolverConfig::certify`]): the
    /// SAT core logs a DRAT proof, infeasibility verdicts carry a
    /// checkable certificate, and satisfiable runs re-verify their model
    /// (reported in [`crate::PlaceStats::certify`]). Call after
    /// [`PlacerBuilder::config`], which replaces the whole configuration.
    pub fn certify(mut self, on: bool) -> PlacerBuilder<'a> {
        self.config.solver.certify = on;
        self
    }

    /// Validates, lints, and encodes the design into a ready [`Placer`].
    ///
    /// # Errors
    ///
    /// [`PlaceError::Config`] for out-of-range parameters,
    /// [`PlaceError::Lint`] when the pre-solve linter proves the instance
    /// broken (see [`crate::analysis::lint`]).
    pub fn build(self) -> Result<Placer, PlaceError> {
        let config = self.settled_config(solver_env());
        let mut placer = Placer::new(self.design, config)?;
        placer.set_cancel_flag(self.cancel);
        Ok(placer)
    }

    /// The configuration [`PlacerBuilder::build`] encodes, given the
    /// environment's `(threads, deadline_ms)` ([`solver_env`]): an explicit
    /// [`PlacerBuilder::threads`] or [`PlacerBuilder::deadline`] beats the
    /// environment, which beats the configured value.
    fn settled_config(&self, (threads, deadline_ms): (Option<usize>, Option<u64>)) -> PlacerConfig {
        let mut config = self.config.clone();
        let solver = &mut config.solver;
        solver.threads = self.threads.or(threads).unwrap_or(solver.threads);
        solver.deadline = self
            .deadline
            .or(deadline_ms.map(Duration::from_millis))
            .or(solver.deadline);
        config
    }
}

/// The SMT-based AMS placement engine.
///
/// Prefer [`Placer::builder`]; [`Placer::new`] remains for direct
/// construction from a full [`PlacerConfig`].
///
/// # Examples
///
/// ```no_run
/// use ams_netlist::benchmarks;
/// use ams_place::{Placer, PlacerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = benchmarks::buf();
/// let placement = Placer::new(&design, PlacerConfig::fast())?.place()?;
/// placement.verify(&design).expect("placement is legal");
/// println!("HPWL = {} grid units", placement.hpwl(&design));
/// # Ok(())
/// # }
/// ```
pub struct Placer {
    /// The design this placer encodes: copied once by [`Placer::new`] and
    /// shared by the rebuild a structural recovery rung makes.
    design: Arc<Design>,
    config: PlacerConfig,
    scale: ScaleInfo,
    plan: PowerPlan,
    smt: Smt,
    vars: VarMap,
    /// The emitted constraint records (see [`crate::ir`]), kept after
    /// lowering for provenance diagnostics and for diffing against the
    /// next re-encode.
    store: ConstraintStore,
    /// Active `(family, selector)` pairs — the latest generation of every
    /// lowered family. Passed as assumptions on every solve.
    selectors: Vec<(ConstraintFamily, Term)>,
    /// Per-family record/clause counts of the live generations.
    families: Vec<FamilyStats>,
    /// Total wall-clock time spent lowering (initial pass + re-lowerings).
    lowering: Duration,
    /// Lowering generation counter; bumped per re-lowering so selector
    /// names stay unique.
    generation: u32,
    /// One entry per recovery rung taken so far.
    rungs: Vec<RungStats>,
    phi: Term,
    phi_w: u32,
    pd_check: Option<PinDensityCheck>,
    /// Selectors retired by re-lowerings, kept for the lowering
    /// well-formedness validator ([`Placer::validate_lowering`]).
    retired: Vec<Term>,
    /// Presolve summary for [`PlaceStats`]; `None` when presolve is off.
    presolve: Option<PresolveStats>,
    /// Presolve's static infeasibility proof for the current
    /// configuration, returned by `presolve_fast_path`.
    presolve_conflict: Option<PresolveConflict>,
    /// The domains `vars` was narrowed against; with `scale`, `plan` and
    /// `toggles.clusters`, the inputs of [`VarMap::create`].
    domains: Option<Domains>,
    // Kept so recovery-ladder rebuilds can reinstall the caller's flag.
    cancel: Option<Arc<AtomicBool>>,
    /// Live selector guarding the wirelength-tightening bounds of the
    /// current job ([`crate::SolverConfig::reusable`] mode only); retired
    /// by [`Placer::rebase`] so a warm re-solve starts unbounded.
    objective: Option<Term>,
    /// Generation counter for objective selectors, so their names stay
    /// unique across warm re-solves.
    objective_gen: u32,
    /// SAT conflicts already counted by previous jobs on this (warm)
    /// solver; subtracted so [`PlaceStats::conflicts`] stays per-job.
    conflicts_base: u64,
    /// Warm-reuse summary recorded by [`Placer::rebase`], attached to the
    /// next [`Placer::place`] result's stats.
    warm_pending: Option<WarmStats>,
}

/// The families a live placer can retire and re-lower when a new
/// configuration changes their records. A change to any other family
/// rebuilds the placer.
const RELOWERABLE: [ConstraintFamily; 3] = [
    ConstraintFamily::CoreGeometry,
    ConstraintFamily::Arrays,
    ConstraintFamily::PinDensity,
];

/// Everything derived from `(design, config)` before the solver sees a
/// term: the power plan, the scaled geometry, the lint gate and presolve.
/// [`Placer::new`] builds its solver from it, and `Placer::reconfigure`
/// recomputes it whenever a live placer moves to a new configuration.
struct FrontHalf {
    plan: PowerPlan,
    scale: ScaleInfo,
    presolve: Option<PresolveStats>,
    presolve_conflict: Option<PresolveConflict>,
    /// The domains to narrow variable allocation against: present when
    /// presolve ran with pruning, its domain pass succeeded, and certify
    /// did not veto them.
    domains: Option<Domains>,
}

fn front_half(design: &Design, config: &PlacerConfig) -> Result<FrontHalf, PlaceError> {
    // Phase 1: power analysis (Fig. 3).
    let plan = PowerPlan::for_config(design, config);

    // Phase 2: scaling and variable initialization.
    let scale = ScaleInfo::compute(design, config);

    // Phase 2.5: the capacity proofs — the one geometric prover, shared by
    // the lint gate and presolve.
    let proofs = presolve::capacity_proofs(design, config, &scale, &plan);

    // Pre-solve constraint lint. Every error-severity finding is a proof
    // of unsatisfiability (or a broken reference that would panic the
    // encoders), so encoding would be wasted work. Two exceptions let
    // pin-density infeasibility (AMS-E011) through to the solver: the
    // recovery ladder repairs exactly that by raising λ_th, and certify
    // mode wants the *solver's* UNSAT — with its DRAT certificate —
    // rather than the linter's uncheckable verdict. Presolve counts too:
    // its fast path turns the same proof into a provenance-cited
    // Infeasible without a CDCL run.
    let report =
        crate::analysis::lint_report(design, design.constraints(), config, &scale, &proofs);
    if report.has_errors() {
        let solvable =
            config.recovery.max_rungs > 0 || config.solver.certify || config.presolve.enabled;
        let recoverable = solvable
            && report
                .errors()
                .all(|d| d.code == DiagCode::PinDensityInfeasible);
        if !recoverable {
            return Err(PlaceError::Lint(report));
        }
    }

    // Static presolve: the domain pass narrows variable domains, and its
    // verdict (or the first failed capacity proof) feeds the fast path.
    let mut front = FrontHalf {
        plan,
        scale,
        presolve: None,
        presolve_conflict: None,
        domains: None,
    };
    if config.presolve.enabled {
        let report = presolve::presolve_with(design, config, &front.scale, &front.plan, &proofs);
        front.presolve = Some(PresolveStats {
            ran: true,
            verdict: if report.is_infeasible() {
                "infeasible".into()
            } else {
                "feasible".into()
            },
            vars_saved_bits: 0,
            passes: report.passes.clone(),
        });
        front.presolve_conflict = report.conflict().cloned();
        // Certified runs prove the un-pruned encoding: domain pruning is
        // sound, but the certificate should axiomatize exactly the vanilla
        // bit-blast the differential harness and CI smoke expect.
        if config.presolve.domain_pruning && !config.solver.certify {
            front.domains = report.domains;
        }
    }
    Ok(front)
}

/// The portfolio a configuration asks for: every solve fans out across
/// diversified workers when more than one thread is configured.
fn portfolio(config: &PlacerConfig) -> Option<PortfolioConfig> {
    (config.solver.threads > 1).then(|| PortfolioConfig {
        threads: config.solver.threads,
        share_lbd_max: config.solver.share_lbd_max,
        seed: config.solver.seed,
        ..PortfolioConfig::default()
    })
}

/// The window parameters a placement is verified against.
fn pin_density_check(
    info: Option<encode::pin_density::PinDensityInfo>,
    config: &PlacerConfig,
) -> Option<PinDensityCheck> {
    let (info, pd) = (info?, config.pin_density.as_ref()?);
    Some(PinDensityCheck {
        beta_x: info.beta_x,
        beta_y: info.beta_y,
        lambda: info.lambda,
        stride_x: pd.stride_x,
        stride_y: pd.stride_y,
    })
}

/// How [`Placer::rebase`] absorbed a new configuration into a live solver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WarmReuse {
    /// The new configuration encodes to a term-identical constraint store;
    /// nothing was re-lowered and every learnt clause stays in force.
    Identical,
    /// Only the listed families' records differed; their selectors were
    /// retired and replacements lowered on the live solver, carrying
    /// `learnts_carried` learnt clauses across.
    Relowered {
        /// Families retired + re-lowered, in canonical order.
        families: Vec<ConstraintFamily>,
        /// Learnt clauses alive at rebase time.
        learnts_carried: u64,
    },
    /// The delta is structural (die sizing, constraint toggles, variable
    /// widths, …): the live solver cannot absorb it — build a fresh
    /// [`Placer`] instead. The placer's constraints are left unchanged.
    Structural,
}

impl Placer {
    /// Starts a [`PlacerBuilder`] for `design` with default configuration.
    pub fn builder(design: &Design) -> PlacerBuilder<'_> {
        PlacerBuilder {
            design,
            config: PlacerConfig::default(),
            threads: None,
            deadline: None,
            cancel: None,
        }
    }

    /// Builds the full SMT encoding for a design under a configuration,
    /// taken as given: unlike [`PlacerBuilder::build`] it reads no
    /// environment. The placer keeps its own copy of the design.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Config`] for out-of-range parameters and
    /// [`PlaceError::Lint`] when the pre-solve linter proves the instance
    /// broken or unsatisfiable (see [`crate::analysis::lint`]).
    pub fn new(design: &Design, config: PlacerConfig) -> Result<Placer, PlaceError> {
        Placer::with_design(Arc::new(design.clone()), config)
    }

    /// [`Placer::new`] over a design the caller already shares.
    fn with_design(design: Arc<Design>, config: PlacerConfig) -> Result<Placer, PlaceError> {
        config.validate().map_err(PlaceError::Config)?;
        let FrontHalf {
            plan,
            scale,
            mut presolve,
            presolve_conflict,
            domains,
        } = front_half(&design, &config)?;

        let mut smt = Smt::new();
        if config.solver.certify {
            // Before any assertion, so the certificate's CNF is complete.
            smt.enable_proof();
        }
        let vars = VarMap::create(&mut smt, &design, &scale, &plan, &config, domains.as_ref());
        if let Some(stats) = &mut presolve {
            stats.vars_saved_bits = vars.saved_bits;
        }

        // Constraint formulation (Section IV.C, a–g): the encoders emit
        // typed records into the one constraint store, and a single
        // lowering pass installs them with per-family guard selectors.
        let encoding = encode::encode_design(&mut smt, &design, &scale, &plan, &vars, &config);
        let lowering = encoding.store.lower(&mut smt, 0, &ConstraintFamily::ALL);
        smt.set_portfolio(portfolio(&config));

        let placer = Placer {
            design,
            pd_check: pin_density_check(encoding.pd_info, &config),
            config,
            scale,
            plan,
            smt,
            vars,
            store: encoding.store,
            selectors: lowering.selectors,
            families: lowering.families,
            lowering: lowering.elapsed,
            generation: 0,
            rungs: Vec::new(),
            phi: encoding.phi,
            phi_w: encoding.phi_w,
            retired: Vec::new(),
            presolve,
            presolve_conflict,
            domains,
            cancel: None,
            objective: None,
            objective_gen: 0,
            conflicts_base: 0,
            warm_pending: None,
        };
        debug_assert_eq!(placer.validate_lowering(), Ok(()));
        Ok(placer)
    }

    /// Installs (or clears) the cooperative cancel flag on this placer and
    /// its solver. Equivalent to [`PlacerBuilder::cancel_flag`]; exposed as
    /// a method so a warm, cached placer can adopt the *next* job's flag.
    pub fn set_cancel_flag(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.cancel = flag.clone();
        self.smt.set_stop_flag(flag);
    }

    /// Absorbs a new configuration for the *same* design onto this live
    /// solver, so the next [`Placer::place_mut`] re-solves warm instead of
    /// from scratch. Requires [`crate::SolverConfig::reusable`] on both the
    /// current and the incoming configuration, and certify mode on
    /// neither.
    ///
    /// The design is re-encoded under `config` into the live solver and
    /// diffed family by family against the live store, the mechanism the
    /// recovery ladder uses too. Three outcomes:
    ///
    /// - no family differs → [`WarmReuse::Identical`]: only solver knobs
    ///   changed; nothing is re-lowered.
    /// - only re-lowerable families differ (pin density, core geometry,
    ///   arrays) → their selectors are retired and the new records
    ///   lowered on the live solver — [`WarmReuse::Relowered`] with the
    ///   learnt-clause carryover count.
    /// - anything else differs (die sizing, domain pruning, symmetry or
    ///   power structure, …) → [`WarmReuse::Structural`], constraints
    ///   untouched: build a fresh placer.
    ///
    /// Unless structural, the previous job's objective-tightening bounds
    /// are retracted (their selector is retired), the per-job conflict
    /// baseline resets, and the rung history clears.
    ///
    /// # Errors
    ///
    /// [`PlaceError::Config`] / [`PlaceError::Lint`] exactly when a cold
    /// [`Placer::new`] under `config` would fail the same way.
    pub fn rebase(&mut self, config: PlacerConfig) -> Result<WarmReuse, PlaceError> {
        config.validate().map_err(PlaceError::Config)?;
        if !self.config.solver.reusable || !config.solver.reusable {
            return Ok(WarmReuse::Structural);
        }
        // Certified runs need a proof log that axiomatizes the complete
        // CNF from its first clause; a warm core cannot provide that.
        if self.config.solver.certify || config.solver.certify {
            return Ok(WarmReuse::Structural);
        }
        let stats = self.smt.sat_stats();
        let reuse = self.reconfigure(config)?;
        let relowered = match &reuse {
            WarmReuse::Structural => return Ok(reuse),
            WarmReuse::Identical => Vec::new(),
            WarmReuse::Relowered { families, .. } => families.clone(),
        };
        self.conflicts_base = stats.conflicts;
        self.rungs.clear();
        self.warm_pending = Some(WarmStats {
            relowered,
            learnts_carried: stats.learnts,
        });
        Ok(reuse)
    }

    /// Moves this live placer to `config`, the one way a live encoding
    /// changes. It reruns the front half of [`Placer::new`] and returns
    /// [`WarmReuse::Structural`], leaving the constraints untouched, when
    /// an input of [`VarMap::create`] differs or a family outside
    /// [`RELOWERABLE`] changes. Otherwise it re-encodes the design into
    /// the live solver's term pool, retires and re-lowers only the changed
    /// families, retracts the current objective bounds, and adopts the
    /// configuration.
    fn reconfigure(&mut self, config: PlacerConfig) -> Result<WarmReuse, PlaceError> {
        let front = front_half(&self.design, &config)?;
        // A different variable map invalidates every clause.
        if front.scale != self.scale
            || front.plan != self.plan
            || front.domains != self.domains
            || config.toggles.clusters != self.config.toggles.clusters
        {
            return Ok(WarmReuse::Structural);
        }
        let encoding = encode::encode_design(
            &mut self.smt,
            &self.design,
            &self.scale,
            &self.plan,
            &self.vars,
            &config,
        );
        let changed = self.store.diff_families(&encoding.store);
        if changed.iter().any(|fam| !RELOWERABLE.contains(fam)) {
            return Ok(WarmReuse::Structural);
        }

        if let Some(sel) = self.objective.take() {
            self.smt.retire(sel);
        }
        let learnts_carried = self.smt.sat_stats().learnts;
        if !changed.is_empty() {
            self.generation += 1;
            let (dropped, kept): (Vec<_>, Vec<_>) = self
                .selectors
                .drain(..)
                .partition(|(fam, _)| changed.contains(fam));
            self.selectors = kept;
            for (_, sel) in dropped {
                self.retired.push(sel);
                self.smt.retire(sel);
            }
            let lowering = encoding
                .store
                .lower(&mut self.smt, self.generation, &changed);
            self.lowering += lowering.elapsed;
            self.families.retain(|fs| !changed.contains(&fs.family));
            self.families.extend(lowering.families);
            self.families.sort_by_key(|fs| fs.family);
            self.selectors.extend(lowering.selectors);
        }
        self.store = encoding.store;
        self.pd_check = pin_density_check(encoding.pd_info, &config);
        self.presolve = front.presolve.map(|stats| PresolveStats {
            vars_saved_bits: self.vars.saved_bits,
            ..stats
        });
        self.presolve_conflict = front.presolve_conflict;
        self.smt.set_portfolio(portfolio(&config));
        self.config = config;
        debug_assert_eq!(self.validate_lowering(), Ok(()));
        Ok(if changed.is_empty() {
            WarmReuse::Identical
        } else {
            WarmReuse::Relowered {
                families: changed,
                learnts_carried,
            }
        })
    }

    /// The scaled-design geometry of this instance.
    pub fn scale(&self) -> &ScaleInfo {
        &self.scale
    }

    /// Number of SAT variables in the encoding so far.
    pub fn sat_vars(&self) -> usize {
        self.smt.num_sat_vars()
    }

    /// Number of SAT clauses in the encoding so far.
    pub fn sat_clauses(&self) -> usize {
        self.smt.num_sat_clauses()
    }

    /// Presolve summary of this instance (`None` when presolve is off).
    pub fn presolve_stats(&self) -> Option<&PresolveStats> {
        self.presolve.as_ref()
    }

    /// Checks the selector-literal discipline of the live lowering: every
    /// family with records has exactly one live selector, no selector is
    /// shared or doubly guarded, and no retired selector is still passed
    /// as an assumption. Runs under `debug_assertions` after every
    /// lower/retire/re-lower; CI exercises it explicitly.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate_lowering(&self) -> Result<(), String> {
        presolve::validate_lowering(&self.store, &self.selectors, &self.retired)
    }

    /// Returns presolve's infeasibility proof for the current
    /// configuration, if any, as a ready-to-return error. Every
    /// configuration change reruns presolve, so the proof is current on
    /// every recovery rung. Disabled under certify, where the caller wants
    /// the solver's DRAT-backed UNSAT instead.
    fn presolve_fast_path(&self) -> Option<PlaceError> {
        if self.config.solver.certify {
            return None;
        }
        let conflict = self.presolve_conflict.as_ref()?;
        let families = vec![conflict.family];
        let mut provenance = vec![conflict.message()];
        provenance.extend(self.store.provenance_lines(&families));
        Some(PlaceError::Infeasible {
            conflict: families,
            provenance,
            certificate: None,
        })
    }

    /// Runs the incremental placement flow to completion, supervising the
    /// wall-clock deadline and — when the constraints are infeasible and
    /// recovery is enabled ([`crate::RecoveryConfig`]) — a bounded ladder
    /// of targeted relaxations driven by the UNSAT attribution.
    ///
    /// Every rung moves the live placer to the relaxed configuration the
    /// way [`Placer::rebase`] does: rungs that change only constraint
    /// content (raising λ_th, softening extensions) retire and re-lower
    /// just the families whose records changed, so learnt clauses from
    /// earlier rungs carry over ([`crate::RungStats::learnts_carried`]). A
    /// rung that changes no record skips its re-solve, since the formula
    /// is the one just proved infeasible. A structural rung — die
    /// widening, which changes coordinate bit-widths — rebuilds from
    /// scratch.
    ///
    /// # Errors
    ///
    /// [`PlaceError::Infeasible`] if the constraints admit no placement
    /// even after the relaxation ladder;
    /// [`PlaceError::BudgetExhausted`] / [`PlaceError::DeadlineExpired`]
    /// if the conflict budget or wall-clock deadline runs out before a
    /// first model (after one, degradation tags the result
    /// [`PlaceOutcome::Anytime`] instead);
    /// [`PlaceError::Cancelled`] when the cancel flag is raised;
    /// [`PlaceError::Internal`] if the solver infrastructure itself failed
    /// (e.g. every portfolio worker panicked) before a model existed.
    pub fn place(mut self) -> Result<Placement, PlaceError> {
        self.place_mut()
    }

    /// [`Placer::place`] by mutable reference: runs one job to completion
    /// and leaves the placer alive for reuse. With
    /// [`crate::SolverConfig::reusable`] set, a later [`Placer::rebase`]
    /// can absorb a modified request onto this solver so the next
    /// `place_mut` starts from everything learnt here.
    pub fn place_mut(&mut self) -> Result<Placement, PlaceError> {
        let result = self.run_job();
        // The warm-reuse marker describes how *this* job started; the next
        // one (after another `rebase`) reports its own.
        self.warm_pending = None;
        result
    }

    fn run_job(&mut self) -> Result<Placement, PlaceError> {
        let t0 = Instant::now();
        let deadline = self.config.solver.deadline.map(|d| t0 + d);
        self.smt.set_deadline(deadline);

        let max_rungs = self.config.recovery.max_rungs;
        let mut relaxations: Vec<Relaxation> = Vec::new();
        let mut result = self.solve_rounds(t0, deadline);
        while let Err(PlaceError::Infeasible { conflict, .. }) = &result {
            let out_of_time = deadline.is_some_and(|d| Instant::now() >= d);
            if relaxations.len() >= max_rungs || out_of_time {
                break;
            }
            let Some((relax, config)) = self.next_relaxation(conflict, &relaxations) else {
                break;
            };
            relaxations.push(relax.clone());
            let learnts_carried = self.smt.sat_stats().learnts;
            // The job's presolve verdict keeps describing the configuration
            // it was asked to solve; the saved bits describe the solver.
            let presolve = self.presolve.clone();
            let reuse = self.reconfigure(config.clone())?;
            let rebuilt = reuse == WarmReuse::Structural;
            if rebuilt {
                let cancel = self.cancel.take();
                let rungs = std::mem::take(&mut self.rungs);
                let warm = self.warm_pending.take();
                *self = Placer::with_design(Arc::clone(&self.design), config)?;
                self.rungs = rungs;
                self.warm_pending = warm;
                self.set_cancel_flag(cancel);
                self.smt.set_deadline(deadline);
            }
            self.presolve = presolve.map(|stats| PresolveStats {
                vars_saved_bits: self.vars.saved_bits,
                ..stats
            });
            self.rungs.push(RungStats {
                relaxation: relax,
                learnts_carried: if rebuilt { 0 } else { learnts_carried },
                rebuilt,
            });
            if reuse != WarmReuse::Identical {
                result = self.solve_rounds(t0, deadline);
            }
        }
        let mut placement = result?;
        if !relaxations.is_empty() {
            placement.stats.outcome = PlaceOutcome::Recovered { relaxations };
            placement.stats.runtime = t0.elapsed();
        }
        Ok(placement)
    }

    /// The Algorithm 1 incremental loop: a feasibility solve, then
    /// ζ-tightened improvement rounds, returning the best placement found.
    /// Deadline/budget expiry (or losing every portfolio worker) after the
    /// first model degrades the result to [`PlaceOutcome::Anytime`] rather
    /// than failing.
    fn solve_rounds(
        &mut self,
        t0: Instant,
        deadline: Option<Instant>,
    ) -> Result<Placement, PlaceError> {
        let opt = self.config.optimize;
        // Presolve fast path: an interval- or counting-proved infeasibility
        // returns immediately — zero CDCL conflicts — as the same
        // `Infeasible` shape the recovery ladder already consumes.
        if let Some(err) = self.presolve_fast_path() {
            return Err(err);
        }
        // A warm re-solve keeps the previous job's saved phases — they
        // encode a full legal model, a far better start than the greedy
        // packing seed.
        if self.warm_pending.is_none() {
            self.seed_hints();
        }
        self.smt.set_conflict_budget(opt.first_conflict_budget);

        let mut best: Option<Model> = None;
        let mut trace: Vec<u64> = Vec::new();
        let mut freeze: Vec<Term> = Vec::new();
        let mut sat_rounds = 0usize;
        let mut retried_unfrozen = false;
        let mut degraded: Option<DegradeReason> = None;

        loop {
            // Between rounds the deadline is checked precisely (in-search
            // checks are coarsened to every few conflicts): with a model in
            // hand there is no point starting a round we cannot finish.
            if best.is_some() && deadline.is_some_and(|d| Instant::now() >= d) {
                degraded = Some(DegradeReason::Deadline);
                break;
            }
            match self.solve_round(&freeze) {
                SmtResult::Sat => {
                    retried_unfrozen = false;
                    // Optimization rounds run under the (tighter) per-round
                    // budget; only feasibility gets the first-solve budget.
                    self.smt.set_conflict_budget(opt.conflict_budget);
                    let model = self.extract_model();
                    let phi_now = encode::wirelength::measure_weighted_hpwl(
                        &self.design,
                        &self.vars,
                        &model.xs,
                        &model.ys,
                    );
                    trace.push(phi_now);
                    best = Some(model.clone());
                    sat_rounds += 1;
                    if sat_rounds > opt.k_iter || phi_now == 0 {
                        break;
                    }
                    // Line 8: tighten the wirelength bound Φ < ζ·Φ'.
                    let zeta = (opt.zeta_start - opt.zeta_step * (sat_rounds - 1) as f64)
                        .max(opt.zeta_min);
                    let bound = (zeta * phi_now as f64).floor() as u64;
                    if bound == 0 {
                        break;
                    }
                    let c = self.smt.bv_const(self.phi_w, bound);
                    let lt = self.smt.ult(self.phi, c);
                    // In reusable mode the bound goes in behind this job's
                    // objective selector (assumed by `solve_round`), so
                    // `rebase` can retract every tightening at once and a
                    // warm re-solve starts unbounded. One-shot solves
                    // assert it permanently — bit-identical CNF to before
                    // the selector existed.
                    if self.config.solver.reusable {
                        let guard = self.objective_selector();
                        self.smt.set_guard(Some(guard));
                        self.smt.assert(lt);
                        self.smt.set_guard(None);
                    } else {
                        self.smt.assert(lt);
                    }
                    // Warm-start hints toward the current model.
                    self.apply_hints(&model);
                    // Line 9: freeze low-priority cells/regions.
                    freeze = self.freeze_assumptions(&model, sat_rounds);
                }
                SmtResult::Unsat => {
                    if best.is_none() {
                        return Err(self.infeasible());
                    }
                    if !freeze.is_empty() && !retried_unfrozen {
                        // The freeze may be what blocks improvement; retry
                        // this round with everything free.
                        freeze.clear();
                        retried_unfrozen = true;
                        continue;
                    }
                    break;
                }
                SmtResult::Unknown => {
                    let cause = self.smt.stop_cause();
                    if best.is_none() {
                        return Err(match cause {
                            Some(StopCause::Deadline) => PlaceError::DeadlineExpired,
                            Some(StopCause::AllWorkersPanicked) => PlaceError::Internal(
                                "every portfolio worker panicked before a model was found".into(),
                            ),
                            _ => PlaceError::BudgetExhausted,
                        });
                    }
                    degraded = Some(match cause {
                        Some(StopCause::Deadline) => DegradeReason::Deadline,
                        Some(StopCause::AllWorkersPanicked) => DegradeReason::SolverFailure,
                        _ => DegradeReason::ConflictBudget,
                    });
                    break;
                }
                SmtResult::Cancelled => {
                    return Err(PlaceError::Cancelled);
                }
            }
        }

        let Some(model) = best else {
            return Err(PlaceError::Internal(
                "optimization loop ended without a model or an error".into(),
            ));
        };
        let summary = self.smt.portfolio_summary();
        let stats = PlaceStats {
            outcome: match degraded {
                None => PlaceOutcome::Optimal,
                Some(reason) => PlaceOutcome::Anytime {
                    rounds: sat_rounds,
                    reason,
                },
            },
            iterations: sat_rounds,
            runtime: t0.elapsed(),
            // Per-job: a warm solver's counter keeps running across jobs,
            // so subtract what previous jobs already spent.
            conflicts: self
                .smt
                .sat_stats()
                .conflicts
                .saturating_sub(self.conflicts_base),
            hpwl_trace: trace,
            sat_vars: self.smt.num_sat_vars(),
            sat_clauses: self.smt.num_sat_clauses(),
            families: self.families.clone(),
            lowering: self.lowering,
            rungs: self.rungs.clone(),
            threads: self.config.solver.threads.max(1),
            workers: summary.workers.clone(),
            winner: summary.last_winner,
            certify: None,
            presolve: self.presolve.clone(),
            warm: self.warm_pending.clone(),
            closure: None,
        };
        let mut placement = self.finalize(model, stats);
        // Certify mode closes the SAT half of the loop: re-check the model
        // against the independent legality oracle and report the proof-log
        // footprint alongside.
        if let Some(proof) = self.smt.proof_log() {
            let model_violations = match placement.verify(&self.design) {
                Ok(()) => 0,
                Err(v) => v.len(),
            };
            placement.stats.certify = Some(CertifyReport {
                cnf_clauses: proof.num_clauses(),
                proof_steps: proof.num_steps(),
                model_violations,
            });
        }
        Ok(placement)
    }

    /// Picks the next relaxation rung for an infeasible instance blamed on
    /// `conflict` (the failed-selector attribution of the UNSAT solve;
    /// empty only defensively). Order: raise the pin-density threshold λ_th
    /// (Eq. 14), then soften extension margins (Eq. 11) 1.0 → 0.5 → 0.0,
    /// then widen the die (admitting more region dimension candidates,
    /// Eq. 4–5). Purely structural conflicts — symmetry, arrays, power
    /// abutment — are never relaxed away: those constraints are the spec.
    fn next_relaxation(
        &self,
        conflict: &[ConstraintFamily],
        applied: &[Relaxation],
    ) -> Option<(Relaxation, PlacerConfig)> {
        let unattributed = conflict.is_empty();
        let blames = |fam: ConstraintFamily| conflict.contains(&fam);
        let mut config = self.config.clone();
        // Each retry runs under a decayed feasibility budget so an
        // unrecoverable instance cannot burn max_rungs full budgets.
        config.optimize.first_conflict_budget = config
            .optimize
            .first_conflict_budget
            .map(|b| (b / 2).max(10_000));

        // Rung A: raise λ_th. On an unattributed conflict this is tried at
        // most twice before the geometric rungs get their turn.
        let pd_raises = applied
            .iter()
            .filter(|r| matches!(r, Relaxation::RaisePinDensity { .. }))
            .count();
        if let Some(pd) = &self.config.pin_density {
            if blames(ConstraintFamily::PinDensity) || (unattributed && pd_raises < 2) {
                let from = encode::pin_density::resolve_lambda(&self.design, &self.scale, pd);
                let auto = encode::pin_density::resolve_lambda(
                    &self.design,
                    &self.scale,
                    &PinDensityConfig {
                        lambda: None,
                        ..pd.clone()
                    },
                );
                // At least halfway toward the auto-calibrated threshold,
                // and always a strict geometric step up from the current.
                let to = auto.max(from + from / 2 + 1);
                config.pin_density = Some(PinDensityConfig {
                    lambda: Some(to),
                    ..pd.clone()
                });
                return Some((Relaxation::RaisePinDensity { from, to }, config));
            }
        }

        if blames(ConstraintFamily::CoreGeometry) || unattributed {
            // Rung B: soften extension margins, if they are in play.
            if self.config.toggles.extensions && self.config.extension_scale > 0.0 {
                let scale = if self.config.extension_scale > 0.5 {
                    0.5
                } else {
                    0.0
                };
                config.extension_scale = scale;
                return Some((Relaxation::RelaxExtensions { scale }, config));
            }
            // Rung C: widen the die.
            let die_slack = self.config.die_slack * 1.15;
            config.die_slack = die_slack;
            return Some((Relaxation::WidenDie { die_slack }, config));
        }

        None
    }

    /// One solve of the incremental loop: the live family selectors plus
    /// the round's freeze literals (Eq. 15) go in as assumptions. Shared
    /// by the feasibility solve, every ζ-tightening round, and the
    /// unfrozen retry — the assumption plumbing lives in exactly one
    /// place.
    fn solve_round(&mut self, freeze: &[Term]) -> SmtResult {
        let mut assumptions: Vec<Term> = self.selectors.iter().map(|&(_, sel)| sel).collect();
        // Reusable mode: enable this job's objective-tightening bounds.
        assumptions.extend(self.objective);
        assumptions.extend_from_slice(freeze);
        self.smt.solve_with(&assumptions)
    }

    /// The live objective guard selector, created on first use per job
    /// (reusable mode only).
    fn objective_selector(&mut self) -> Term {
        match self.objective {
            Some(sel) => sel,
            None => {
                self.objective_gen += 1;
                let sel = self.smt.bool_var(format!("obj_g{}", self.objective_gen));
                self.objective = Some(sel);
                sel
            }
        }
    }

    /// Shapes a first-solve UNSAT into [`PlaceError::Infeasible`]: the
    /// failed selector assumptions of the solve that just returned name
    /// the blamed families directly — no second encoding, no re-solve —
    /// and the constraint store supplies their provenance lines.
    fn infeasible(&self) -> PlaceError {
        // Certificate target: the negated failed assumptions, which is
        // exactly what `unsat_certificate` derives for an assumption-based
        // verdict.
        let certificate = self.smt.unsat_certificate().map(Box::new);
        let conflict = conflict_families(&self.selectors, self.smt.failed_assumptions());
        let provenance = self.store.provenance_lines(&conflict);
        PlaceError::Infeasible {
            conflict,
            provenance,
            certificate,
        }
    }

    /// Seeds the SAT polarity toward a quick greedy packing: regions
    /// stacked left-to-right at their most-square candidate dimensions,
    /// cells row-packed inside (power bands bottom-up). Hints are soft —
    /// an imperfect seed only biases the first descent.
    fn seed_hints(&mut self) {
        let die_w = u64::from(self.scale.scaled_w);
        let mut cursor_x = 0u64;
        for r in self.design.region_ids() {
            let ri = r.index();
            let (ex, ey) = self.scale.region_edge[ri];
            let min_w = self
                .design
                .cells_in_region(r)
                .map(|c| self.scale.width_of(c))
                .max()
                .unwrap_or(1);
            let min_h = self
                .design
                .cells_in_region(r)
                .map(|c| self.scale.height_of(c))
                .max()
                .unwrap_or(1);
            let cands = encode::region::dimension_candidates(
                self.scale.region_target[ri],
                min_w,
                min_h,
                self.scale.scaled_w,
                self.scale.scaled_h,
            );
            let Some(&(w, h)) = cands
                .iter()
                .min_by_key(|(w, h)| (i64::from(*w) - i64::from(*h)).abs())
            else {
                continue;
            };
            let rx = (cursor_x + u64::from(ex)).min(die_w.saturating_sub(u64::from(w)));
            let ry = u64::from(ey);
            self.smt.hint_bv_value(self.vars.region_x[ri], rx);
            self.smt.hint_bv_value(self.vars.region_y[ri], ry);
            self.smt.hint_bv_value(self.vars.region_w[ri], u64::from(w));
            self.smt.hint_bv_value(self.vars.region_h[ri], u64::from(h));
            cursor_x = rx + u64::from(w) + u64::from(2 * ex) + 1;

            // Row-pack the cells: power bands bottom-up, wide cells first.
            let plan_bands: Vec<ams_netlist::PowerGroupId> = self
                .plan
                .for_region(r)
                .map(|p| p.bands.clone())
                .unwrap_or_default();
            let band_of = |c: CellId| -> usize {
                plan_bands
                    .iter()
                    .position(|&g| g == self.design.cell(c).power_group)
                    .unwrap_or(0)
            };
            let mut cells: Vec<CellId> = self.design.cells_in_region(r).collect();
            cells.sort_by(|&a, &b| {
                band_of(a)
                    .cmp(&band_of(b))
                    .then(self.scale.width_of(b).cmp(&self.scale.width_of(a)))
                    .then(a.cmp(&b))
            });
            let (mut x, mut y) = (0u64, 0u64);
            let mut row_h = 0u64;
            let mut band = cells.first().map(|&c| band_of(c)).unwrap_or(0);
            for c in cells {
                let cw = u64::from(self.scale.width_of(c));
                let ch = u64::from(self.scale.height_of(c));
                if x + cw > u64::from(w) || band_of(c) != band {
                    x = 0;
                    y += row_h.max(1);
                    row_h = 0;
                    band = band_of(c);
                }
                self.smt.hint_bv_value(self.vars.cell_x[c.index()], rx + x);
                self.smt.hint_bv_value(self.vars.cell_y[c.index()], ry + y);
                x += cw;
                row_h = row_h.max(ch);
            }
        }
    }

    fn extract_model(&self) -> Model {
        let xs = self
            .vars
            .cell_x
            .iter()
            .map(|&t| self.smt.bv_value(t))
            .collect();
        let ys = self
            .vars
            .cell_y
            .iter()
            .map(|&t| self.smt.bv_value(t))
            .collect();
        let region_x = self
            .vars
            .region_x
            .iter()
            .map(|&t| self.smt.bv_value(t))
            .collect();
        let region_y = self
            .vars
            .region_y
            .iter()
            .map(|&t| self.smt.bv_value(t))
            .collect();
        let region_w = self
            .vars
            .region_w
            .iter()
            .map(|&t| self.smt.bv_value(t))
            .collect();
        let region_h = self
            .vars
            .region_h
            .iter()
            .map(|&t| self.smt.bv_value(t))
            .collect();
        Model {
            xs,
            ys,
            region_x,
            region_y,
            region_w,
            region_h,
        }
    }

    fn apply_hints(&mut self, model: &Model) {
        for (i, &t) in self.vars.cell_x.iter().enumerate() {
            self.smt.hint_bv_value(t, model.xs[i]);
        }
        for (i, &t) in self.vars.cell_y.iter().enumerate() {
            self.smt.hint_bv_value(t, model.ys[i]);
        }
        for (i, &t) in self.vars.region_x.iter().enumerate() {
            self.smt.hint_bv_value(t, model.region_x[i]);
        }
        for (i, &t) in self.vars.region_y.iter().enumerate() {
            self.smt.hint_bv_value(t, model.region_y[i]);
        }
    }

    /// Builds the Line-9 assumption set: the lowest-priority cells (Eq. 15)
    /// and smallest regions are frozen at their current model positions,
    /// with the frozen share growing each round.
    fn freeze_assumptions(&mut self, model: &Model, round: usize) -> Vec<Term> {
        let frac = (self.config.optimize.freeze_fraction * round as f64).min(0.9);
        let mut out = Vec::new();

        // Cells ascending by PR_v: freeze the least-connected share.
        let mut cells: Vec<CellId> = self.design.cell_ids().collect();
        cells.sort_by_key(|&c| self.design.cell_priority(c));
        let n_freeze = (cells.len() as f64 * frac).floor() as usize;
        for &c in cells.iter().take(n_freeze) {
            let fx = self
                .smt
                .eq_const(self.vars.cell_x[c.index()], model.xs[c.index()]);
            let fy = self
                .smt
                .eq_const(self.vars.cell_y[c.index()], model.ys[c.index()]);
            out.push(fx);
            out.push(fy);
        }

        // Regions ascending by PR_r = A_r: freeze the smallest share.
        let mut regions: Vec<RegionId> = self.design.region_ids().collect();
        regions.sort_by_key(|&r| self.design.region_cell_area(r));
        let r_freeze = (regions.len() as f64 * frac).floor() as usize;
        for &r in regions.iter().take(r_freeze) {
            let i = r.index();
            for (var, val) in [
                (self.vars.region_x[i], model.region_x[i]),
                (self.vars.region_y[i], model.region_y[i]),
                (self.vars.region_w[i], model.region_w[i]),
                (self.vars.region_h[i], model.region_h[i]),
            ] {
                out.push(self.smt.eq_const(var, val));
            }
        }
        out
    }

    fn finalize(&self, model: Model, stats: PlaceStats) -> Placement {
        let (uw, uh) = (self.scale.unit_w, self.scale.unit_h);
        let cells: Vec<Rect> = self
            .design
            .cell_ids()
            .map(|c| {
                Rect::new(
                    model.xs[c.index()] as u32 * uw,
                    model.ys[c.index()] as u32 * uh,
                    self.design.cell(c).width,
                    self.design.cell(c).height,
                )
            })
            .collect();
        let regions: Vec<Rect> = (0..self.design.regions().len())
            .map(|i| {
                Rect::new(
                    model.region_x[i] as u32 * uw,
                    model.region_y[i] as u32 * uh,
                    model.region_w[i] as u32 * uw,
                    model.region_h[i] as u32 * uh,
                )
            })
            .collect();
        let die = Rect::new(0, 0, self.scale.scaled_w * uw, self.scale.scaled_h * uh);
        let edge_cells = crate::post::edge_cells(&self.design, &self.scale, &regions);
        let dummy_cells = crate::post::dummy_cells(&self.design, &self.scale, &regions, &cells);
        let _ = &self.plan;
        Placement {
            cells,
            regions,
            die,
            edge_cells,
            dummy_cells,
            units: (uw, uh),
            pin_density: self.pd_check,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::benchmarks;

    #[test]
    fn builder_explicit_beats_env_beats_config() {
        let d = benchmarks::buf();
        let mut config = PlacerConfig::default();
        config.solver.threads = 2;
        config.solver.deadline = Some(Duration::from_secs(9));
        config.solver.seed = 42;
        let builder = || Placer::builder(&d).config(config.clone());
        let env = (Some(8), Some(500));

        let explicit = builder()
            .threads(3)
            .deadline(Duration::from_millis(7))
            .settled_config(env);
        assert_eq!(explicit.solver.threads, 3);
        assert_eq!(explicit.solver.deadline, Some(Duration::from_millis(7)));

        let from_env = builder().settled_config(env);
        assert_eq!(from_env.solver.threads, 8);
        assert_eq!(from_env.solver.deadline, Some(Duration::from_millis(500)));

        let configured = builder().settled_config((None, None));
        assert_eq!(configured, config);
        assert_eq!(from_env.solver.seed, 42);
    }

    /// White-box check of the per-job conflict accounting: the live SAT
    /// core's conflict counter runs monotonically across jobs, so after a
    /// rebase the baseline must equal the running total and the next
    /// job's report must be the delta past it.
    #[test]
    fn rebase_resets_the_per_job_conflict_baseline() {
        let d = benchmarks::synthetic(benchmarks::SyntheticParams {
            regions: 2,
            cells_per_region: 5,
            nets: 8,
            net_degree: 3,
            symmetry_pairs: 1,
            ..Default::default()
        });
        let mut config = PlacerConfig::fast();
        config.solver.reusable = true;
        config.optimize.k_iter = 1;
        config.optimize.conflict_budget = Some(10_000);
        config.optimize.first_conflict_budget = Some(100_000);
        let mut placer = Placer::new(&d, config.clone()).expect("encode");

        let first = placer.place_mut().expect("cold solve");
        let total_after_first = placer.smt.sat_stats().conflicts;
        assert_eq!(placer.conflicts_base, 0);
        assert_eq!(first.stats.conflicts, total_after_first);

        assert_eq!(placer.rebase(config).expect("rebase"), WarmReuse::Identical);
        assert_eq!(placer.conflicts_base, total_after_first);

        let second = placer.place_mut().expect("warm solve");
        let total_after_second = placer.smt.sat_stats().conflicts;
        assert_eq!(
            second.stats.conflicts,
            total_after_second - total_after_first,
            "warm job must report only its own conflicts"
        );
    }
}
