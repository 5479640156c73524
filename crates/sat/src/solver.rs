//! Incremental CDCL SAT solver.
//!
//! A MiniSat-lineage conflict-driven clause-learning solver:
//!
//! * two-watched-literal propagation with blocker literals,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * exponential VSIDS variable activities with phase saving,
//! * Luby restarts,
//! * learnt-database reduction ordered by (LBD, activity),
//! * incremental solving under assumptions with failed-assumption cores,
//! * conflict budgets for anytime use.

use crate::clause::{ClauseDb, ClauseRef};
use crate::drat::ProofLog;
use crate::heap::VarHeap;
use crate::lit::{Lbool, Lit, Var};
use crate::luby::luby;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; when
    /// assumptions were used, [`Solver::failed_assumptions`] gives a core.
    Unsat,
    /// A budget expired before a verdict was reached.
    Unknown,
    /// The stop flag ([`Solver::set_stop_flag`]) was raised before a
    /// verdict was reached — another portfolio worker won, or the caller
    /// cancelled the solve. The solver stays usable.
    Cancelled,
}

/// Why the last `solve` call stopped without a verdict.
///
/// Set whenever [`Solver::solve_with`] returns [`SolveResult::Unknown`]
/// (and by the portfolio driver when every worker dies); read it with
/// [`Solver::stop_cause`] to distinguish a budget expiry from a
/// wall-clock deadline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopCause {
    /// The conflict budget ([`Solver::set_conflict_budget`]) ran out.
    ConflictBudget,
    /// The wall-clock deadline ([`Solver::set_deadline`]) passed.
    Deadline,
    /// Every portfolio worker panicked; reported by
    /// [`crate::Portfolio::solve`], never by a lone solver.
    AllWorkersPanicked,
}

/// Learnt-clause exchange between cooperating solvers.
///
/// A portfolio driver installs one endpoint per worker with
/// [`Solver::set_exchange`]; the solver offers every learnt clause through
/// [`ClauseExchange::export`] and drains peer clauses at quiescent points
/// (decision level zero, between restarts) through
/// [`ClauseExchange::import`]. Imported clauses must be logical
/// consequences of the shared formula — learnt clauses always are,
/// regardless of the assumptions in effect when they were derived.
pub trait ClauseExchange: Send {
    /// Offers a freshly learnt clause with its literal-block distance;
    /// returns whether the endpoint shared it with peers.
    fn export(&mut self, lits: &[Lit], lbd: u32) -> bool;

    /// Drains clauses received from peers since the last call.
    fn import(&mut self) -> Vec<Vec<Lit>>;
}

/// Search statistics, cumulative across `solve` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently retained.
    pub learnts: u64,
    /// Number of `solve` calls.
    pub solves: u64,
    /// Learnt clauses exported through the [`ClauseExchange`] endpoint.
    pub shared_exported: u64,
    /// Peer clauses imported through the [`ClauseExchange`] endpoint.
    pub shared_imported: u64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use ams_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a, b]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert!(solver.value(b.var()));
/// // The same solver can be re-solved under assumptions:
/// assert_eq!(solver.solve_with(&[!b]), SolveResult::Unsat);
/// assert_eq!(solver.failed_assumptions(), &[!b]);
/// ```
pub struct Solver {
    db: ClauseDb,
    clauses: Vec<ClauseRef>,
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,

    assigns: Vec<Lbool>,
    polarity: Vec<bool>,
    user_polarity: Vec<Option<bool>>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    cla_inc: f32,

    ok: bool,
    model: Vec<Lbool>,
    conflict_core: Vec<Lit>,
    assumptions: Vec<Lit>,

    seen: Vec<bool>,
    analyze_stack: Vec<(Lit, usize)>,
    analyze_toclear: Vec<Lit>,

    conflict_budget: Option<u64>,
    /// Wall-clock deadline; checked precisely at quiescent points and
    /// coarsely (every [`DEADLINE_CHECK_INTERVAL`] conflicts/decisions)
    /// inside the search to stay off the hot path.
    deadline: Option<Instant>,
    /// Countdown until the next coarse deadline check.
    deadline_check_in: u32,
    /// Why the last solve returned [`SolveResult::Unknown`], if it did.
    last_stop_cause: Option<StopCause>,

    max_learnts: f64,
    /// Root-trail length at the last `simplify`, so simplification only
    /// reruns when new top-level facts exist.
    simplified_at: usize,
    stats: Stats,

    // Diversification knobs (portfolio workers vary these; the defaults
    // reproduce the historical single-thread behaviour bit-for-bit).
    var_decay: f64,
    restart_base: u64,
    /// Xorshift state for random branching; branching is deterministic
    /// when `rand_freq == 0.0` (the default).
    rand_state: u64,
    rand_freq: f64,

    /// Cooperative cancellation, polled at quiescent points of the search.
    stop: Option<Arc<AtomicBool>>,
    /// Learnt-clause exchange endpoint (portfolio mode).
    exchange: Option<Box<dyn ClauseExchange>>,
    /// DRAT proof sink; `None` (the default) makes logging zero-cost.
    /// Cloning the solver shares the sink, so a portfolio of clones
    /// produces one interleaved proof.
    proof: Option<ProofLog>,
}

const VAR_DECAY: f64 = 0.95;
/// Conflicts/decisions between coarse wall-clock reads during search.
/// Small enough that a deadline overshoot stays in the sub-millisecond
/// range, large enough that `Instant::now` never shows up in profiles.
const DEADLINE_CHECK_INTERVAL: u32 = 64;
const CLAUSE_DECAY: f32 = 0.999;
const RESTART_BASE: u64 = 256;
const LEARNT_FRACTION: f64 = 1.0;
const LEARNT_GROWTH: f64 = 1.3;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.num_vars())
            .field("clauses", &self.clauses.len())
            .field("learnts", &self.learnts.len())
            .field("ok", &self.ok)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Clone for Solver {
    /// Clones the full solver state (clauses, learnts, activities, phases,
    /// statistics). The [`ClauseExchange`] endpoint is *not* cloned — the
    /// copy starts detached — while a stop flag, if set, is shared with
    /// the clone.
    fn clone(&self) -> Solver {
        Solver {
            db: self.db.clone(),
            clauses: self.clauses.clone(),
            learnts: self.learnts.clone(),
            watches: self.watches.clone(),
            assigns: self.assigns.clone(),
            polarity: self.polarity.clone(),
            user_polarity: self.user_polarity.clone(),
            reason: self.reason.clone(),
            level: self.level.clone(),
            trail: self.trail.clone(),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            activity: self.activity.clone(),
            var_inc: self.var_inc,
            order: self.order.clone(),
            cla_inc: self.cla_inc,
            ok: self.ok,
            model: self.model.clone(),
            conflict_core: self.conflict_core.clone(),
            assumptions: self.assumptions.clone(),
            seen: self.seen.clone(),
            analyze_stack: self.analyze_stack.clone(),
            analyze_toclear: self.analyze_toclear.clone(),
            conflict_budget: self.conflict_budget,
            deadline: self.deadline,
            deadline_check_in: self.deadline_check_in,
            last_stop_cause: self.last_stop_cause,
            max_learnts: self.max_learnts,
            simplified_at: self.simplified_at,
            stats: self.stats,
            var_decay: self.var_decay,
            restart_base: self.restart_base,
            rand_state: self.rand_state,
            rand_freq: self.rand_freq,
            stop: self.stop.clone(),
            exchange: None,
            proof: self.proof.clone(),
        }
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            user_polarity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            cla_inc: 1.0,
            ok: true,
            model: Vec::new(),
            conflict_core: Vec::new(),
            assumptions: Vec::new(),
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            conflict_budget: None,
            deadline: None,
            deadline_check_in: DEADLINE_CHECK_INTERVAL,
            last_stop_cause: None,
            max_learnts: 0.0,
            simplified_at: 0,
            stats: Stats::default(),
            var_decay: VAR_DECAY,
            restart_base: RESTART_BASE,
            rand_state: 0,
            rand_freq: 0.0,
            stop: None,
            exchange: None,
            proof: None,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(Lbool::Undef);
        self.polarity.push(false);
        self.user_polarity.push(None);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of problem (non-learnt) clauses retained.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.learnts = self.learnts.len() as u64;
        s
    }

    /// Suggests an initial polarity for `v`, used the first time the solver
    /// branches on it (phase saving takes over afterwards). Useful for warm
    /// starts from a previous model.
    pub fn set_polarity_hint(&mut self, v: Var, positive: bool) {
        self.user_polarity[v.index()] = Some(positive);
        self.polarity[v.index()] = positive;
    }

    /// Limits the next `solve` calls to roughly `conflicts` conflicts;
    /// `None` removes the limit. Budgets are measured from the call, not
    /// cumulatively.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Installs (or clears) a wall-clock deadline for the next `solve`
    /// calls. Once the instant passes, `solve` returns
    /// [`SolveResult::Unknown`] with [`Solver::stop_cause`] reporting
    /// [`StopCause::Deadline`]; the solver stays valid and reusable.
    ///
    /// The clock is read precisely at quiescent points and only every few
    /// dozen conflicts/decisions inside the search, so the overshoot past
    /// the deadline is bounded but nonzero. With no deadline installed the
    /// solver never reads the clock, preserving bit-for-bit determinism.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Why the last `solve` stopped without a verdict — `Some` exactly
    /// when it returned [`SolveResult::Unknown`].
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.last_stop_cause
    }

    // --- portfolio hooks ------------------------------------------------

    /// Installs (or clears) a cooperative stop flag. While the flag reads
    /// `true`, `solve` returns [`SolveResult::Cancelled`] at the next
    /// quiescent point; the solver state stays valid and reusable.
    pub fn set_stop_flag(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.stop = stop;
    }

    /// Installs (or clears) a learnt-clause exchange endpoint.
    pub fn set_exchange(&mut self, exchange: Option<Box<dyn ClauseExchange>>) {
        self.exchange = exchange;
    }

    /// Installs (or clears) a DRAT proof sink. While installed, every
    /// original clause, learnt/imported clause addition, and clause
    /// deletion is recorded, so that an UNSAT verdict can be validated with
    /// [`drat::check`](crate::drat::check). Logging imposes no cost when no
    /// sink is installed.
    pub fn set_proof(&mut self, proof: Option<ProofLog>) {
        self.proof = proof;
    }

    /// The installed proof sink, if any.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// Sets the VSIDS activity decay factor (clamped to `[0.5, 0.999]`);
    /// lower values make the search more greedy, a portfolio
    /// diversification axis.
    pub fn set_var_decay(&mut self, decay: f64) {
        self.var_decay = decay.clamp(0.5, 0.999);
    }

    /// Sets the base conflict interval of the Luby restart sequence
    /// (clamped to at least 1).
    pub fn set_restart_base(&mut self, base: u64) {
        self.restart_base = base.max(1);
    }

    /// Enables random branching: with probability `freq` a decision picks a
    /// uniformly random entry of the branch heap instead of the VSIDS
    /// maximum. `freq == 0.0` (the default) is fully deterministic.
    pub fn set_random_branch(&mut self, seed: u64, freq: f64) {
        // Xorshift needs a nonzero state.
        self.rand_state = seed | 1;
        self.rand_freq = freq.clamp(0.0, 1.0);
    }

    /// Overwrites every variable's saved phase with pseudo-random values
    /// derived from `seed` — the polarity diversification axis. Explicit
    /// [`Solver::set_polarity_hint`] values are preserved.
    pub fn randomize_phases(&mut self, seed: u64) {
        let mut state = seed | 1;
        for (vi, p) in self.polarity.iter_mut().enumerate() {
            if self.user_polarity[vi].is_none() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *p = state & 1 == 1;
            }
        }
    }

    /// Sets every variable's saved phase to `positive` (unless pinned by
    /// [`Solver::set_polarity_hint`]) — the cheap "all-true / all-false
    /// default polarity" diversification axis.
    pub fn set_default_polarity(&mut self, positive: bool) {
        for (vi, p) in self.polarity.iter_mut().enumerate() {
            if self.user_polarity[vi].is_none() {
                *p = positive;
            }
        }
    }

    #[inline]
    fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    fn next_rand(&mut self) -> u64 {
        self.rand_state ^= self.rand_state << 13;
        self.rand_state ^= self.rand_state >> 7;
        self.rand_state ^= self.rand_state << 17;
        self.rand_state
    }

    /// Drains the exchange endpoint and attaches the received clauses.
    /// Must be called at decision level zero; imported clauses are logical
    /// consequences of the shared formula, so attaching them preserves
    /// equivalence.
    fn import_shared(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(exchange) = self.exchange.as_mut() else {
            return;
        };
        let incoming = exchange.import();
        for lits in incoming {
            self.stats.shared_imported += 1;
            // An import is a peer's learnt clause: a *derived* proof step,
            // not part of the original formula. With a portfolio-shared
            // proof sink this re-adds a clause already in the log — a
            // harmless duplicate under RUP checking.
            if let Some(p) = &self.proof {
                p.log_addition(&lits);
            }
            if !self.attach_clause(&lits) {
                break; // root conflict: the solver is now permanently UNSAT
            }
        }
    }

    /// Adds a clause; returns `false` if the formula became trivially
    /// unsatisfiable (the solver is then permanently in the UNSAT state).
    ///
    /// May be called between `solve` calls for incremental use.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        // Log the clause verbatim (pre-normalization), so a proof speaks
        // about the formula exactly as the caller asserted it.
        if let Some(p) = &self.proof {
            p.log_original(lits);
        }
        self.attach_clause(lits)
    }

    /// [`Solver::add_clause`] minus proof logging of the original.
    fn attach_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedup, drop root-false literals, detect tautology
        // and root-satisfied clauses.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut write = 0;
        for i in 0..c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: contains l and !l adjacently after sort
            }
            match self.lit_value(l) {
                Lbool::True => return true,
                Lbool::False => {}
                Lbool::Undef => {
                    c[write] = l;
                    write += 1;
                }
            }
        }
        c.truncate(write);
        match c.len() {
            0 => {
                self.ok = false;
                if let Some(p) = &self.proof {
                    p.log_addition(&[]);
                }
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                self.ok = self.propagate().is_none();
                if !self.ok {
                    if let Some(p) = &self.proof {
                        p.log_addition(&[]);
                    }
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&c, false);
                self.clauses.push(cref);
                self.attach(cref);
                true
            }
        }
    }

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::failed_assumptions`] returns a
    /// subset of `assumptions` sufficient for unsatisfiability.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        debug_assert_eq!(self.decision_level(), 0);
        #[cfg(debug_assertions)]
        self.check_invariants();
        self.stats.solves += 1;
        self.model.clear();
        self.conflict_core.clear();
        self.last_stop_cause = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.assumptions = assumptions.to_vec();

        if self.max_learnts == 0.0 {
            self.max_learnts = (self.clauses.len() as f64 * LEARNT_FRACTION).max(1000.0);
        }
        let conflict_start = self.stats.conflicts;

        let mut restart = 1u64;
        let result = loop {
            // Quiescent point: honor cancellation and merge peer clauses.
            if self.stop_requested() {
                break SolveResult::Cancelled;
            }
            self.import_shared();
            if !self.ok {
                break SolveResult::Unsat;
            }
            if self.deadline_passed() {
                self.last_stop_cause = Some(StopCause::Deadline);
                break SolveResult::Unknown;
            }
            let budget_left = self.budget_left(conflict_start);
            if budget_left == Some(0) {
                self.last_stop_cause = Some(StopCause::ConflictBudget);
                break SolveResult::Unknown;
            }
            let limit = self.restart_base * luby(restart);
            let limit = match budget_left {
                Some(b) => limit.min(b.max(1)),
                None => limit,
            };
            match self.search(limit) {
                Some(r) => break r,
                None => {
                    restart += 1;
                    self.stats.restarts += 1;
                }
            }
        };
        // Terminal lemma for UNSAT under assumptions: the clause of negated
        // failed assumptions is RUP with respect to the live database, and
        // becomes the checkable `target` of the certificate.
        if result == SolveResult::Unsat && !self.conflict_core.is_empty() {
            if let Some(p) = &self.proof {
                let lemma: Vec<Lit> = self.conflict_core.iter().map(|&l| !l).collect();
                p.log_addition(&lemma);
            }
        }
        self.cancel_until(0);
        #[cfg(debug_assertions)]
        self.check_invariants();
        result
    }

    /// Model value of `v` after a [`SolveResult::Sat`] outcome.
    ///
    /// # Panics
    ///
    /// Panics if the last solve did not return `Sat`.
    pub fn value(&self, v: Var) -> bool {
        match self.model[v.index()] {
            Lbool::True => true,
            Lbool::False => false,
            // Variables never touched by the search default to false.
            Lbool::Undef => false,
        }
    }

    /// Model value of a literal after `Sat`.
    pub fn lit_model(&self, l: Lit) -> bool {
        self.value(l.var()) == l.is_positive()
    }

    /// After an `Unsat` outcome of [`Solver::solve_with`], the subset of
    /// assumptions that participated in the refutation.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Whether the formula is already known unsatisfiable without assumptions.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Precise deadline check for quiescent points; no clock read when no
    /// deadline is installed.
    #[inline]
    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Coarsened deadline check for the search hot path: reads the clock
    /// only every [`DEADLINE_CHECK_INTERVAL`] calls, and never when no
    /// deadline is installed (keeping deterministic runs clock-free).
    #[inline]
    fn deadline_due(&mut self) -> bool {
        if self.deadline.is_none() {
            return false;
        }
        self.deadline_check_in = self.deadline_check_in.saturating_sub(1);
        if self.deadline_check_in > 0 {
            return false;
        }
        self.deadline_check_in = DEADLINE_CHECK_INTERVAL;
        self.deadline_passed()
    }

    /// Conflicts left in this call's budget; `None` when unlimited.
    fn budget_left(&self, conflict_start: u64) -> Option<u64> {
        self.conflict_budget
            .map(|cb| cb.saturating_sub(self.stats.conflicts - conflict_start))
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Structural invariants, checked in debug builds at the quiescent
    /// points around each solve: trail/level agreement and two-watched-
    /// literal consistency. Compiled out of release builds entirely.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        assert!(self.qhead <= self.trail.len(), "qhead past end of trail");
        assert!(
            self.trail_lim.windows(2).all(|w| w[0] <= w[1]),
            "trail_lim is not monotone"
        );
        for (i, &l) in self.trail.iter().enumerate() {
            assert_eq!(
                self.lit_value(l),
                Lbool::True,
                "trail literal {l:?} is not assigned true"
            );
            // The level recorded for the variable must match the trail
            // segment its literal sits in.
            let segment = self.trail_lim.partition_point(|&lim| lim <= i);
            assert_eq!(
                self.level[l.var().index()] as usize,
                segment,
                "level of {l:?} disagrees with its trail segment"
            );
        }
        // Every watcher sits in the list of a literal whose negation the
        // clause currently watches (positions 0 and 1).
        for (code, watchers) in self.watches.iter().enumerate() {
            let p = Lit::from_code(code);
            for w in watchers {
                let lits = self.db.lits(w.cref);
                assert!(
                    lits.len() >= 2 && (lits[0] == !p || lits[1] == !p),
                    "watch list of {p:?} holds a clause that does not watch {:?}",
                    !p
                );
            }
        }
        // Conversely, every attached clause is watched on both of its
        // first two literals.
        for &cref in self.clauses.iter().chain(&self.learnts) {
            let lits = self.db.lits(cref);
            for &wl in &lits[..2] {
                assert!(
                    self.watches[(!wl).code()].iter().any(|w| w.cref == cref),
                    "attached clause is missing from the watch list of {wl:?}"
                );
            }
        }
        // Branch-order heap sanity: it never outgrows the variable count,
        // and at a quiescent point every unassigned variable must still be
        // available for branching (pick_branch_lit only discards assigned
        // variables; cancel_until reinserts unassigned ones).
        assert!(self.order.len() <= self.num_vars());
        assert!(self.num_vars() > 0 || self.order.is_empty());
        for (vi, &a) in self.assigns.iter().enumerate() {
            if a == Lbool::Undef {
                assert!(
                    self.order.contains(Var::from_index(vi)),
                    "unassigned variable {vi} is missing from the branch heap"
                );
            }
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> Lbool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let lits = self.db.lits(cref);
            (lits[0], lits[1])
        };
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let lits = self.db.lits(cref);
            (lits[0], lits[1])
        };
        self.watches[(!l0).code()].retain(|w| w.cref != cref);
        self.watches[(!l1).code()].retain(|w| w.cref != cref);
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), Lbool::Undef);
        let vi = l.var().index();
        self.assigns[vi] = Lbool::from_bool(l.is_positive());
        self.level[vi] = self.decision_level() as u32;
        self.reason[vi] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut kept = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == Lbool::True {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.cref;
                // Ensure the falsified watched literal sits at index 1.
                {
                    let lits = self.db.lits_mut(cref);
                    if lits[0] == !p {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], !p);
                }
                let first = self.db.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == Lbool::True {
                    ws[kept] = Watcher {
                        cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lit(cref, k);
                    if self.lit_value(lk) != Lbool::False {
                        self.db.lits_mut(cref).swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current trail.
                ws[kept] = Watcher {
                    cref,
                    blocker: first,
                };
                kept += 1;
                if self.lit_value(first) == Lbool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Preserve the untraversed suffix of the watcher list.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let lim = self.trail_lim[target_level];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            self.assigns[vi] = Lbool::Undef;
            self.polarity[vi] = l.is_positive();
            self.reason[vi] = None;
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.increased(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let act = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, act);
        if act > 1e20 {
            for &c in &self.learnts {
                let a = self.db.activity(c);
                self.db.set_activity(c, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backjump level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            let start = usize::from(p.is_some());
            let clen = self.db.len(confl);
            for k in start..clen {
                let q = self.db.lit(confl, k);
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump_var(q.var());
                    if self.level[vi] as usize >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next trail literal that is part of the conflict graph.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            confl = self.reason[pl.var().index()]
                .expect("non-decision literal on conflict path has a reason");
        }
        learnt[0] = !p.expect("conflict analysis visited at least one literal");

        // Conflict-clause minimization: drop literals implied by the rest.
        self.analyze_toclear = learnt.clone();
        let mut abstract_levels = 0u64;
        for &l in &learnt[1..] {
            abstract_levels |= self.abstract_level(l.var());
        }
        let mut write = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()].is_none() || !self.lit_redundant(l, abstract_levels) {
                learnt[write] = l;
                write += 1;
            }
        }
        learnt.truncate(write);
        for l in std::mem::take(&mut self.analyze_toclear) {
            self.seen[l.var().index()] = false;
        }

        // Find the backjump level: highest level among learnt[1..].
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        (learnt, backjump)
    }

    #[inline]
    fn abstract_level(&self, v: Var) -> u64 {
        1u64 << (self.level[v.index()] & 63)
    }

    /// Whether `l` is implied by the other literals of the learnt clause
    /// (iterative version of MiniSat's `litRedundant`).
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u64) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push((l, 0));
        let toclear_base = self.analyze_toclear.len();

        while let Some((p, k)) = self.analyze_stack.pop() {
            let cref = self.reason[p.var().index()].expect("stacked literal has a reason");
            let clen = self.db.len(cref);
            if k + 1 < clen {
                self.analyze_stack.push((p, k + 1));
                let q = self.db.lit(cref, k + 1);
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    if self.reason[vi].is_some()
                        && (self.abstract_level(q.var()) & abstract_levels) != 0
                    {
                        self.seen[vi] = true;
                        self.analyze_stack.push((q, 0));
                        self.analyze_toclear.push(q);
                    } else {
                        // Not redundant: undo the marks added in this walk.
                        for ql in self.analyze_toclear.drain(toclear_base..) {
                            self.seen[ql.var().index()] = false;
                        }
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Computes the failed-assumption core given the falsified assumption
    /// `p`, storing it in `conflict_core`.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(!p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            if !self.seen[vi] {
                continue;
            }
            match self.reason[vi] {
                Some(cref) => {
                    let clen = self.db.len(cref);
                    for k in 1..clen {
                        let q = self.db.lit(cref, k);
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
                None => {
                    // A decision inside the assumption prefix: report the
                    // assumption literal itself.
                    self.conflict_core.push(l);
                }
            }
            self.seen[vi] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn record_learnt(&mut self, learnt: &[Lit]) {
        // Proof before export: a shared portfolio log stays valid only if a
        // clause is in the log before any peer can import (and re-log) it.
        if let Some(p) = &self.proof {
            p.log_addition(learnt);
        }
        if learnt.len() == 1 {
            if let Some(exchange) = self.exchange.as_mut() {
                if exchange.export(learnt, 1) {
                    self.stats.shared_exported += 1;
                }
            }
            self.unchecked_enqueue(learnt[0], None);
            return;
        }
        let cref = self.db.alloc(learnt, true);
        let lbd = self.compute_lbd(learnt);
        if let Some(exchange) = self.exchange.as_mut() {
            if exchange.export(learnt, lbd) {
                self.stats.shared_exported += 1;
            }
        }
        self.db.set_lbd(cref, lbd);
        self.db.set_activity(cref, self.cla_inc);
        self.learnts.push(cref);
        self.attach(cref);
        self.unchecked_enqueue(learnt[0], Some(cref));
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        // Count distinct decision levels; uses `seen` scratch over levels via
        // a small sort-free approach (levels fit in a Vec we dedup).
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn reduce_db(&mut self) {
        // Sort learnts so the most valuable (low LBD, high activity) come
        // first; drop the worse half, keeping locked and binary clauses.
        let db = &self.db;
        self.learnts.sort_by(|&a, &b| {
            db.lbd(a)
                .cmp(&db.lbd(b))
                .then(db.activity(b).partial_cmp(&db.activity(a)).expect("finite"))
        });
        let keep_from = self.learnts.len() / 2;
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(keep_from);
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            if i >= keep_from
                && self.db.len(cref) > 2
                && !self.is_locked(cref)
                && self.db.lbd(cref) > 2
            {
                removed.push(cref);
            } else {
                kept.push(cref);
            }
        }
        if removed.is_empty() {
            return;
        }
        self.learnts = kept;
        for cref in removed {
            if let Some(p) = &self.proof {
                p.log_deletion(self.db.lits(cref));
            }
            self.detach(cref);
            self.db.delete(cref);
        }
        self.maybe_collect_garbage();
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit(cref, 0);
        self.lit_value(first) == Lbool::True && self.reason[first.var().index()] == Some(cref)
    }

    fn maybe_collect_garbage(&mut self) {
        if self.db.wasted() * 3 < self.db.len_words() {
            return;
        }
        let reloc = self.db.collect();
        for list in self.watches.iter_mut() {
            for w in list.iter_mut() {
                w.cref = reloc[&w.cref];
            }
        }
        for r in self.reason.iter_mut() {
            if let Some(c) = r {
                // Reasons of root-level assignments may reference clauses
                // already deleted by simplification; they are never
                // traversed again, so dropping the reference is safe.
                *r = reloc.get(c).copied();
            }
        }
        for c in self.clauses.iter_mut() {
            *c = reloc[c];
        }
        for c in self.learnts.iter_mut() {
            *c = reloc[c];
        }
    }

    /// Removes root-satisfied clauses and root-false literals. Called at
    /// decision level zero between restarts.
    fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.trail.len() == self.simplified_at {
            return; // no new root facts since the last sweep
        }
        self.simplified_at = self.trail.len();
        for list_kind in 0..2 {
            let list = if list_kind == 0 {
                std::mem::take(&mut self.clauses)
            } else {
                std::mem::take(&mut self.learnts)
            };
            let mut kept = Vec::with_capacity(list.len());
            'clauses: for cref in list {
                let len = self.db.len(cref);
                for k in 0..len {
                    if self.lit_value(self.db.lit(cref, k)) == Lbool::True {
                        if !self.is_locked(cref) {
                            if let Some(p) = &self.proof {
                                p.log_deletion(self.db.lits(cref));
                            }
                            self.detach(cref);
                            self.db.delete(cref);
                            continue 'clauses;
                        }
                        break;
                    }
                }
                kept.push(cref);
            }
            if list_kind == 0 {
                self.clauses = kept;
            } else {
                self.learnts = kept;
            }
        }
        self.maybe_collect_garbage();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        // Random branching (diversification): with probability `rand_freq`
        // decide on a uniformly random heap entry instead of the VSIDS max.
        // The chosen variable stays in the heap; `pop_max` skips assigned
        // variables, so no bookkeeping is needed.
        if self.rand_freq > 0.0 && !self.order.is_empty() {
            let coin = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
            if coin < self.rand_freq {
                let idx = self.next_rand() as usize % self.order.len();
                if let Some(v) = self.order.get(idx) {
                    if self.assigns[v.index()] == Lbool::Undef {
                        self.stats.decisions += 1;
                        return Some(Lit::new(v, self.polarity[v.index()]));
                    }
                }
            }
        }
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()] == Lbool::Undef {
                self.stats.decisions += 1;
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
        None
    }

    /// Runs CDCL until a verdict, a restart (`None`), or conflict budget.
    fn search(&mut self, conflict_limit: u64) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    if let Some(p) = &self.proof {
                        p.log_addition(&[]);
                    }
                    return Some(SolveResult::Unsat);
                }
                if self.stop_requested() {
                    self.cancel_until(0);
                    return Some(SolveResult::Cancelled);
                }
                if self.deadline_due() {
                    self.last_stop_cause = Some(StopCause::Deadline);
                    self.cancel_until(0);
                    return Some(SolveResult::Unknown);
                }
                let (learnt, backjump) = self.analyze(confl);
                // Never backjump into the assumption prefix shallower than
                // needed: cancel_until handles the standard case; assumption
                // literals are re-established by the decision loop below.
                self.cancel_until(backjump);
                self.record_learnt(&learnt);
                self.var_inc /= self.var_decay;
                self.cla_inc /= CLAUSE_DECAY;

                if self.learnts.len() as f64 >= self.max_learnts + self.trail.len() as f64 {
                    self.max_learnts *= LEARNT_GROWTH;
                    self.reduce_db();
                }
            } else {
                if conflicts_here >= conflict_limit {
                    self.cancel_until(0);
                    return None; // restart
                }
                if self.stop_requested() {
                    self.cancel_until(0);
                    return Some(SolveResult::Cancelled);
                }
                if self.deadline_due() {
                    self.last_stop_cause = Some(StopCause::Deadline);
                    self.cancel_until(0);
                    return Some(SolveResult::Unknown);
                }
                if self.decision_level() == 0 {
                    self.simplify();
                }
                // Establish assumptions, then decide.
                let next = loop {
                    if self.decision_level() < self.assumptions.len() {
                        let a = self.assumptions[self.decision_level()];
                        match self.lit_value(a) {
                            Lbool::True => {
                                // Already implied: introduce an empty level.
                                self.new_decision_level();
                                continue;
                            }
                            Lbool::False => {
                                self.analyze_final(!a);
                                return Some(SolveResult::Unsat);
                            }
                            Lbool::Undef => break Some(a),
                        }
                    } else {
                        break self.pick_branch_lit();
                    }
                };
                match next {
                    None => {
                        // All variables assigned: model found.
                        self.model = self.assigns.clone();
                        return Some(SolveResult::Sat);
                    }
                    Some(l) => {
                        self.new_decision_level();
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        assert!(s.add_clause(&[v[0]]));
        assert!(s.add_clause(&[!v[0], v[1]]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[0].var()));
        assert!(s.value(v[1].var()));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 1);
        assert!(s.add_clause(&[v[0]]));
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // 2 pigeons, 1 hole.
        let mut s = Solver::new();
        let p = nvars(&mut s, 2);
        s.add_clause(&[p[0]]);
        s.add_clause(&[p[1]]);
        s.add_clause(&[!p[0], !p[1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_pigeons_2_holes() {
        // x[i][j]: pigeon i in hole j. Each pigeon somewhere; no two share.
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &x {
            s.add_clause(&[row[0], row[1]]);
        }
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        // Solver remains usable and SAT without assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Sat);
        assert!(s.value(v[1].var()));
    }

    #[test]
    fn failed_assumption_core_is_subset() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 4);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        // v[3] is irrelevant.
        assert_eq!(s.solve_with(&[v[0], !v[2], v[3]]), SolveResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(
                [v[0], !v[2], v[3]].contains(l),
                "core literal {l:?} not an assumption"
            );
        }
        assert!(!core.contains(&v[3]), "irrelevant assumption in core");
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[2].var()));
        s.add_clause(&[!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_yields_unknown_on_hard_instance() {
        // A hard unsat pigeonhole instance with a tiny budget.
        let n = 9; // 9 pigeons, 8 holes
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &x {
            s.add_clause(row);
        }
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
    }

    /// Hard unsat pigeonhole: `n` pigeons, `n - 1` holes.
    fn pigeonhole(n: usize) -> Solver {
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &x {
            s.add_clause(row);
        }
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                for (&a, &b) in x[i1].iter().zip(&x[i2]) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        s
    }

    #[test]
    fn expired_deadline_yields_unknown_with_cause() {
        let mut s = pigeonhole(9);
        s.set_deadline(Some(Instant::now()));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::Deadline));
        // Clearing the deadline makes the solver fully usable again, and a
        // verdict clears the cause.
        s.set_deadline(None);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::ConflictBudget));
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.stop_cause(), None);
    }

    #[test]
    fn deadline_interrupts_a_running_search() {
        let mut s = pigeonhole(10);
        let deadline = std::time::Duration::from_millis(30);
        s.set_deadline(Some(Instant::now() + deadline));
        let t0 = Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_cause(), Some(StopCause::Deadline));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "the coarse check must fire well before the instance is solved"
        );
    }

    #[test]
    fn polarity_hint_steers_first_model() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 1);
        s.set_polarity_hint(v[0].var(), true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.value(v[0].var()));
        let mut s2 = Solver::new();
        let w = nvars(&mut s2, 1);
        s2.set_polarity_hint(w[0].var(), false);
        assert_eq!(s2.solve(), SolveResult::Sat);
        assert!(!s2.value(w[0].var()));
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 1);
        assert!(s.add_clause(&[v[0], !v[0]]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        s.solve();
        let st = s.stats();
        assert_eq!(st.solves, 1);
        s.solve();
        assert_eq!(s.stats().solves, 2);
    }
}
