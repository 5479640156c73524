//! The incremental SMT solver facade.

use crate::blast::Blaster;
use crate::pb;
use crate::term::{truncate, Sort, Term, TermKind, TermPool};
use ams_sat::{
    Lit, Portfolio, PortfolioConfig, PortfolioVerdict, Proof, ProofLog, SolveResult, Solver,
    StopCause, WorkerStats,
};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Result of an [`Smt::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmtResult {
    /// Satisfiable; read values with [`Smt::bv_value`] / [`Smt::bool_value`].
    Sat,
    /// Unsatisfiable under the current assertions (and assumptions).
    Unsat,
    /// A solver budget or wall-clock deadline expired;
    /// [`Smt::stop_cause`] says which.
    Unknown,
    /// The solve was cancelled through the stop flag
    /// ([`Smt::set_stop_flag`]) before a verdict.
    Cancelled,
}

/// Aggregated portfolio statistics across the [`Smt`] solver's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PortfolioSummary {
    /// Per-worker counters summed over every portfolio solve; the
    /// per-call `result` field is the worker's outcome in the *last* solve.
    pub workers: Vec<WorkerStats>,
    /// Winning worker id of the most recent portfolio solve.
    pub last_winner: Option<usize>,
    /// Number of solve calls dispatched to the portfolio.
    pub solves: u64,
}

/// An incremental QF_BV SMT solver over a CDCL SAT core.
///
/// Terms are built through the constructor methods (which delegate to the
/// internal [`TermPool`]) and asserted with [`Smt::assert`]. Solving is
/// incremental: assertions persist across [`Smt::solve`] calls, and
/// [`Smt::solve_with`] solves under retractable Boolean assumptions — the
/// mechanism the placement engine uses to freeze cell coordinates
/// (Algorithm 1, line 9 of the paper).
///
/// # Examples
///
/// ```
/// use ams_smt::{Smt, SmtResult};
///
/// let mut smt = Smt::new();
/// let x = smt.bv_var(8, "x");
/// let y = smt.bv_var(8, "y");
/// let sum = smt.add(x, y);
/// let c42 = smt.bv_const(8, 42);
/// let c10 = smt.bv_const(8, 10);
/// let want = smt.eq(sum, c42);
/// let xlow = smt.ult(x, c10);
/// smt.assert(want);
/// smt.assert(xlow);
/// assert_eq!(smt.solve(), SmtResult::Sat);
/// assert_eq!(smt.bv_value(x) + smt.bv_value(y), 42);
/// assert!(smt.bv_value(x) < 10);
/// ```
#[derive(Default)]
pub struct Smt {
    pool: TermPool,
    sat: Solver,
    blaster: Blaster,
    /// Assertions not yet blasted into the SAT solver.
    pending: Vec<Term>,
    /// Maps assumption literals of the last `solve_with` back to terms.
    assumption_map: HashMap<Lit, Term>,
    failed: Vec<Term>,
    /// Active selector literal: assertions made while set are conditioned
    /// on it, so whole constraint families can be enabled per solve via
    /// assumptions (the UNSAT-explanation mechanism).
    guard: Option<Term>,
    /// When set with more than one thread, solves dispatch to a parallel
    /// portfolio over diversified clones of the SAT core.
    portfolio: Option<PortfolioConfig>,
    /// Cooperative cancellation for both sequential and portfolio solves.
    stop: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline forwarded to the SAT core (and every portfolio
    /// worker, which inherits it through cloning).
    deadline: Option<Instant>,
    /// Why the last solve returned [`SmtResult::Unknown`], if it did.
    last_cause: Option<StopCause>,
    /// Aggregated portfolio counters across solve calls.
    portfolio_summary: PortfolioSummary,
    /// DRAT proof sink mirroring the handle installed in the SAT core, so
    /// certificates survive portfolio core replacement.
    proof: Option<ProofLog>,
}

impl std::fmt::Debug for Smt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Smt")
            .field("terms", &self.pool.len())
            .field("sat_vars", &self.sat.num_vars())
            .field("sat_clauses", &self.sat.num_clauses())
            .finish()
    }
}

macro_rules! delegate_unary {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub fn $name(&mut self, a: Term) -> Term {
            self.pool.$name(a)
        }
    };
}

macro_rules! delegate_binary {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub fn $name(&mut self, a: Term, b: Term) -> Term {
            self.pool.$name(a, b)
        }
    };
}

impl Smt {
    /// Creates an empty solver.
    pub fn new() -> Smt {
        Smt::default()
    }

    /// Read-only access to the term pool.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Underlying SAT statistics.
    pub fn sat_stats(&self) -> ams_sat::Stats {
        self.sat.stats()
    }

    /// Number of SAT variables allocated by blasting.
    pub fn num_sat_vars(&self) -> usize {
        self.sat.num_vars()
    }

    /// Number of SAT clauses produced by blasting.
    pub fn num_sat_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Bounds the conflicts of subsequent `solve` calls (anytime solving).
    ///
    /// In portfolio mode the budget applies to each worker independently.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.sat.set_conflict_budget(conflicts);
    }

    /// Enables (or disables) parallel portfolio solving. With `None`, or a
    /// configuration whose `threads <= 1`, solves run sequentially on the
    /// calling thread — bit-for-bit deterministic.
    pub fn set_portfolio(&mut self, config: Option<PortfolioConfig>) {
        self.portfolio = config;
    }

    /// Installs (or clears) a cooperative stop flag: raising it makes the
    /// current and subsequent solves return [`SmtResult::Cancelled`].
    pub fn set_stop_flag(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.stop = stop;
    }

    /// Installs (or clears) a wall-clock deadline for subsequent solves.
    /// Once it passes, solves return [`SmtResult::Unknown`] with
    /// [`Smt::stop_cause`] reporting [`StopCause::Deadline`]. Portfolio
    /// workers inherit the deadline. With no deadline set, solves never
    /// read the clock (preserving sequential determinism).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.sat.set_deadline(deadline);
    }

    /// Why the last solve stopped without a verdict — `Some` exactly when
    /// it returned [`SmtResult::Unknown`].
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.last_cause
    }

    /// Aggregated portfolio statistics; `workers` is empty until a solve
    /// actually dispatches to the portfolio.
    pub fn portfolio_summary(&self) -> &PortfolioSummary {
        &self.portfolio_summary
    }

    /// Enables DRAT proof capture. Every clause the bit-blaster hands to
    /// the SAT core is recorded from here on, together with all learnt
    /// additions/deletions (including portfolio-imported clauses), so UNSAT
    /// verdicts become certificates checkable by
    /// [`ams_sat::drat::check`]. Idempotent; best called before the first
    /// assertion so the checker sees the complete CNF.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            let log = ProofLog::new();
            self.sat.set_proof(Some(log.clone()));
            self.proof = Some(log);
        }
    }

    /// The proof sink, when [`Smt::enable_proof`] was called.
    pub fn proof_log(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// After an `Unsat` outcome with proof capture enabled, snapshots the
    /// derivation into a standalone certificate. The certificate's target
    /// is the clause of negated failed-assumption literals — empty for an
    /// assumption-free refutation — exactly what
    /// [`ams_sat::drat::check`] validates against the captured CNF.
    pub fn unsat_certificate(&self) -> Option<Proof> {
        let proof = self.proof.as_ref()?;
        let target: Vec<Lit> = self.sat.failed_assumptions().iter().map(|&l| !l).collect();
        Some(proof.snapshot(&target))
    }

    // --- term constructors -------------------------------------------

    /// The constant `true`.
    pub fn tru(&mut self) -> Term {
        self.pool.tru()
    }

    /// The constant `false`.
    pub fn fals(&mut self) -> Term {
        self.pool.fals()
    }

    /// A fresh Boolean variable.
    pub fn bool_var(&mut self, name: impl Into<String>) -> Term {
        self.pool.bool_var(name)
    }

    /// A fresh bit-vector variable of the given width (1..=64).
    pub fn bv_var(&mut self, width: u32, name: impl Into<String>) -> Term {
        self.pool.bv_var(width, name)
    }

    /// A bit-vector constant, truncated to `width` bits.
    pub fn bv_const(&mut self, width: u32, value: u64) -> Term {
        self.pool.bv_const(width, value)
    }

    delegate_unary! {
        /// Logical negation.
        not
    }
    delegate_binary! {
        /// Boolean exclusive-or.
        xor
    }
    delegate_binary! {
        /// Implication `a → b`.
        implies
    }
    delegate_binary! {
        /// Equality over Booleans or equal-width bit-vectors.
        eq
    }
    delegate_binary! {
        /// Disequality.
        ne
    }
    delegate_binary! {
        /// Wrapping bit-vector addition.
        add
    }
    delegate_binary! {
        /// Wrapping bit-vector subtraction.
        sub
    }
    delegate_binary! {
        /// Wrapping bit-vector multiplication.
        mul
    }
    delegate_binary! {
        /// Unsigned `a <= b`.
        ule
    }
    delegate_binary! {
        /// Unsigned `a < b`.
        ult
    }
    delegate_binary! {
        /// Unsigned `a >= b`.
        uge
    }
    delegate_binary! {
        /// Unsigned `a > b`.
        ugt
    }
    delegate_binary! {
        /// Binary conjunction.
        and2
    }
    delegate_binary! {
        /// Binary disjunction.
        or2
    }

    /// N-ary conjunction.
    pub fn and(&mut self, operands: &[Term]) -> Term {
        self.pool.and(operands)
    }

    /// N-ary disjunction.
    pub fn or(&mut self, operands: &[Term]) -> Term {
        self.pool.or(operands)
    }

    /// If-then-else.
    pub fn ite(&mut self, cond: Term, then: Term, els: Term) -> Term {
        self.pool.ite(cond, then, els)
    }

    /// Left shift by a constant.
    pub fn shl(&mut self, a: Term, amount: u32) -> Term {
        self.pool.shl(a, amount)
    }

    /// Zero extension to `new_width`.
    pub fn zext(&mut self, a: Term, new_width: u32) -> Term {
        self.pool.zext(a, new_width)
    }

    /// Sum of terms, zero-extended to `width`.
    pub fn sum(&mut self, terms: &[Term], width: u32) -> Term {
        self.pool.sum(terms, width)
    }

    /// Convenience: `a == constant` with the constant sized to `a`.
    pub fn eq_const(&mut self, a: Term, value: u64) -> Term {
        let w = self.pool.width(a);
        let c = self.pool.bv_const(w, value);
        self.pool.eq(a, c)
    }

    // --- assertions and solving --------------------------------------

    /// Sets (or clears) the active guard selector.
    ///
    /// While a guard `g` is set, [`Smt::assert`] asserts `g → t` instead of
    /// `t`, and [`Smt::assert_at_most`] encodes a bound that collapses to
    /// the requested one exactly when `g` holds. Passing the guard terms as
    /// assumptions to [`Smt::solve_with`] then enables their constraint
    /// families, and [`Smt::failed_assumptions`] names the conflicting
    /// families on `Unsat` — the second-stage UNSAT explanation used by the
    /// placement linter.
    ///
    /// # Panics
    ///
    /// Panics if the guard term is not Boolean.
    pub fn set_guard(&mut self, guard: Option<Term>) {
        if let Some(g) = guard {
            assert_eq!(self.pool.sort(g), Sort::Bool, "guards must be Boolean");
        }
        self.guard = guard;
    }

    /// Permanently retires a guarded assertion group by asserting
    /// `¬selector` (ignoring any active guard), so every assertion guarded
    /// by `selector` becomes vacuous from the next solve on. Incremental
    /// reuse stays sound: a selector occurs positively in no problem
    /// clause, so `¬selector` can never be resolved away and every learnt
    /// clause depending on the retired group contains `¬selector` — it is
    /// satisfied, while learnt clauses independent of the group keep
    /// pruning. This is what lets the placement recovery ladder re-lower a
    /// relaxed constraint family on the live solver instead of rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if the selector term is not Boolean.
    pub fn retire(&mut self, selector: Term) {
        assert_eq!(
            self.pool.sort(selector),
            Sort::Bool,
            "selectors must be Boolean"
        );
        let retired = self.pool.not(selector);
        self.pending.push(retired);
    }

    /// Asserts a Boolean term. Takes effect at the next `solve`.
    ///
    /// Under an active guard `g` (see [`Smt::set_guard`]), `g → t` is
    /// asserted instead.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not Boolean.
    pub fn assert(&mut self, t: Term) {
        assert_eq!(self.pool.sort(t), Sort::Bool, "assertions must be Boolean");
        let t = match self.guard {
            Some(g) => self.pool.implies(g, t),
            None => t,
        };
        self.pending.push(t);
    }

    /// Asserts the weighted pseudo-Boolean constraint
    /// `Σ weightᵢ · itemᵢ ≤ bound` (items must be Boolean terms).
    ///
    /// This is assert-only (it cannot be negated), matching its use as the
    /// paper's pin-density constraint (Eq. 14). Under an active guard `g`
    /// the guard joins the sum with weight `total − bound`, so the bound
    /// tightens to the requested value exactly when `g` holds and is
    /// vacuous otherwise.
    ///
    /// # Panics
    ///
    /// Panics if any item is not Boolean.
    pub fn assert_at_most(&mut self, items: &[(Term, u64)], bound: u64) {
        self.flush_pending();
        let mut lits: Vec<(Lit, u64)> = items
            .iter()
            .map(|&(t, w)| {
                assert_eq!(self.pool.sort(t), Sort::Bool, "PB items must be Boolean");
                (self.blaster.blast_bool(&self.pool, &mut self.sat, t), w)
            })
            .collect();
        let mut bound = bound;
        if let Some(g) = self.guard {
            let total: u64 = lits.iter().map(|&(_, w)| w).sum();
            if total > bound {
                let gl = self.blaster.blast_bool(&self.pool, &mut self.sat, g);
                lits.push((gl, total - bound));
                bound = total;
            }
        }
        pb::assert_at_most(&mut self.sat, &lits, bound);
    }

    fn flush_pending(&mut self) {
        for t in std::mem::take(&mut self.pending) {
            let l = self.blaster.blast_bool(&self.pool, &mut self.sat, t);
            self.sat.add_clause(&[l]);
        }
    }

    /// Bit-blasts every pending assertion into the SAT core now instead of
    /// at the next solve. [`Smt::num_sat_vars`] / [`Smt::num_sat_clauses`]
    /// afterwards reflect all assertions made so far, which lets callers
    /// attribute clause counts to assertion batches (the lowering
    /// statistics of the placement IR).
    pub fn flush(&mut self) {
        self.flush_pending();
    }

    /// Solves the conjunction of all assertions.
    pub fn solve(&mut self) -> SmtResult {
        self.solve_with(&[])
    }

    /// Solves under retractable Boolean assumptions.
    ///
    /// On `Unsat`, [`Smt::failed_assumptions`] names a subset of the
    /// assumptions sufficient for unsatisfiability.
    pub fn solve_with(&mut self, assumptions: &[Term]) -> SmtResult {
        self.flush_pending();
        self.assumption_map.clear();
        self.failed.clear();
        let mut lits = Vec::with_capacity(assumptions.len());
        for &t in assumptions {
            assert_eq!(self.pool.sort(t), Sort::Bool, "assumptions must be Boolean");
            let l = self.blaster.blast_bool(&self.pool, &mut self.sat, t);
            self.assumption_map.insert(l, t);
            lits.push(l);
        }
        match self.solve_sat(&lits) {
            SolveResult::Sat => SmtResult::Sat,
            SolveResult::Unknown => SmtResult::Unknown,
            SolveResult::Cancelled => SmtResult::Cancelled,
            SolveResult::Unsat => {
                self.failed = self
                    .sat
                    .failed_assumptions()
                    .iter()
                    .filter_map(|l| self.assumption_map.get(l).copied())
                    .collect();
                SmtResult::Unsat
            }
        }
    }

    /// Runs the SAT core on `lits`, dispatching to the parallel portfolio
    /// when one is configured with more than one thread. The winning
    /// worker's solver replaces the core, so models, failed assumptions,
    /// and learnt clauses carry over to subsequent incremental calls.
    fn solve_sat(&mut self, lits: &[Lit]) -> SolveResult {
        match self.portfolio {
            Some(cfg) if cfg.threads > 1 => {
                let base = std::mem::replace(&mut self.sat, Solver::new());
                let (winner, verdict) = Portfolio::new(cfg).solve(base, lits, self.stop.as_ref());
                match winner {
                    Some(winner) => self.sat = winner,
                    // Every worker panicked and the base state was consumed
                    // by the race. The replacement core is empty, so the
                    // instance must be treated as dead by the caller — the
                    // verdict's cause (AllWorkersPanicked) says why.
                    None => {
                        self.sat.set_deadline(self.deadline);
                        self.sat.set_proof(self.proof.clone());
                    }
                }
                self.record_portfolio(&verdict);
                self.last_cause = verdict.cause;
                verdict.result
            }
            _ => {
                self.sat.set_stop_flag(self.stop.clone());
                let result = self.sat.solve_with(lits);
                self.sat.set_stop_flag(None);
                self.last_cause = self.sat.stop_cause();
                result
            }
        }
    }

    /// Folds one portfolio verdict into the running summary.
    fn record_portfolio(&mut self, verdict: &PortfolioVerdict) {
        let summary = &mut self.portfolio_summary;
        if summary.workers.len() < verdict.workers.len() {
            summary
                .workers
                .resize_with(verdict.workers.len(), WorkerStats::default);
        }
        for (acc, w) in summary.workers.iter_mut().zip(&verdict.workers) {
            acc.id = w.id;
            acc.conflicts += w.conflicts;
            acc.decisions += w.decisions;
            acc.restarts += w.restarts;
            acc.exported += w.exported;
            acc.imported += w.imported;
            acc.result = w.result;
            // A panic is sticky across solves; keep the latest message.
            acc.panicked |= w.panicked;
            if w.panic_message.is_some() {
                acc.panic_message.clone_from(&w.panic_message);
            }
        }
        summary.last_winner = Some(verdict.winner);
        summary.solves += 1;
    }

    /// After `Unsat` from [`Smt::solve_with`], the failing assumption terms.
    pub fn failed_assumptions(&self) -> &[Term] {
        &self.failed
    }

    // --- model access -------------------------------------------------

    /// Model value of a bit-vector term after `Sat`.
    ///
    /// Terms that never reached the SAT solver are evaluated structurally
    /// (free variables default to zero).
    ///
    /// # Panics
    ///
    /// Panics if `t` is Boolean or if the last solve was not `Sat`.
    pub fn bv_value(&self, t: Term) -> u64 {
        match self.pool.sort(t) {
            Sort::Bv(_) => self.eval_bv(t),
            Sort::Bool => panic!("bv_value on a Boolean term"),
        }
    }

    /// Model value of a Boolean term after `Sat`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is a bit-vector or if the last solve was not `Sat`.
    pub fn bool_value(&self, t: Term) -> bool {
        match self.pool.sort(t) {
            Sort::Bool => self.eval_bool(t),
            Sort::Bv(_) => panic!("bool_value on a bit-vector term"),
        }
    }

    fn eval_bool(&self, t: Term) -> bool {
        if let Some(lit) = self.blaster.peek_bool(t) {
            return self.sat.lit_model(lit);
        }
        match self.pool.kind(t) {
            TermKind::BoolConst(b) => *b,
            TermKind::BoolVar(_) => false, // unconstrained
            TermKind::Not(a) => !self.eval_bool(*a),
            TermKind::And(ops) => ops.iter().all(|&o| self.eval_bool(o)),
            TermKind::Or(ops) => ops.iter().any(|&o| self.eval_bool(o)),
            TermKind::Xor(a, b) => self.eval_bool(*a) ^ self.eval_bool(*b),
            TermKind::Eq(a, b) => match self.pool.sort(*a) {
                Sort::Bool => self.eval_bool(*a) == self.eval_bool(*b),
                Sort::Bv(_) => self.eval_bv(*a) == self.eval_bv(*b),
            },
            TermKind::Ule(a, b) => self.eval_bv(*a) <= self.eval_bv(*b),
            TermKind::Ult(a, b) => self.eval_bv(*a) < self.eval_bv(*b),
            TermKind::Ite(c, a, b) => {
                if self.eval_bool(*c) {
                    self.eval_bool(*a)
                } else {
                    self.eval_bool(*b)
                }
            }
            other => unreachable!("non-Boolean kind {other:?}"),
        }
    }

    fn eval_bv(&self, t: Term) -> u64 {
        if let Some(bits) = self.blaster.cached_bits(t) {
            let mut v = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if self.sat.lit_model(l) {
                    v |= 1 << i;
                }
            }
            return v;
        }
        let w = self.pool.width(t);
        let raw = match self.pool.kind(t) {
            TermKind::BvConst { value, .. } => *value,
            TermKind::BvVar { .. } => 0, // unconstrained
            TermKind::Add(a, b) => self.eval_bv(*a).wrapping_add(self.eval_bv(*b)),
            TermKind::Sub(a, b) => self.eval_bv(*a).wrapping_sub(self.eval_bv(*b)),
            TermKind::Mul(a, b) => self.eval_bv(*a).wrapping_mul(self.eval_bv(*b)),
            TermKind::Shl(a, k) => self.eval_bv(*a) << k,
            TermKind::ZExt(a, _) => self.eval_bv(*a),
            TermKind::Ite(c, a, b) => {
                if self.eval_bool(*c) {
                    self.eval_bv(*a)
                } else {
                    self.eval_bv(*b)
                }
            }
            other => unreachable!("non-bit-vector kind {other:?}"),
        };
        truncate(raw, w)
    }

    // --- warm-start hints ----------------------------------------------

    /// Hints the SAT solver to prefer `value` for the bits of `t` the next
    /// time it branches on them. Used for warm starts between incremental
    /// wirelength-optimization rounds.
    pub fn hint_bv_value(&mut self, t: Term, value: u64) {
        self.flush_pending();
        let bits = self.blaster.blast_bv(&self.pool, &mut self.sat, t);
        for (i, l) in bits.iter().enumerate() {
            let bit = (value >> i) & 1 == 1;
            let positive = if l.is_positive() { bit } else { !bit };
            self.sat.set_polarity_hint(l.var(), positive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_constraint_is_satisfied() {
        let mut smt = Smt::new();
        let x = smt.bv_var(6, "x");
        let y = smt.bv_var(6, "y");
        let s = smt.add(x, y);
        let c = smt.eq_const(s, 40);
        smt.assert(c);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert_eq!((smt.bv_value(x) + smt.bv_value(y)) % 64, 40);
    }

    #[test]
    fn unsat_on_contradiction() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let lt = smt.eq_const(x, 3);
        let gt = smt.eq_const(x, 5);
        smt.assert(lt);
        smt.assert(gt);
        assert_eq!(smt.solve(), SmtResult::Unsat);
    }

    #[test]
    fn comparisons_behave_unsigned() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let c12 = smt.bv_const(4, 12);
        let c14 = smt.bv_const(4, 14);
        let lo = smt.ugt(x, c12);
        let hi = smt.ult(x, c14);
        smt.assert(lo);
        smt.assert(hi);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 13);
    }

    #[test]
    fn subtraction_wraps() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let y = smt.bv_var(4, "y");
        let d = smt.sub(x, y);
        let cx = smt.eq_const(x, 2);
        let cy = smt.eq_const(y, 5);
        smt.assert(cx);
        smt.assert(cy);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert_eq!(smt.bv_value(d), (2u64.wrapping_sub(5)) & 0xF);
    }

    #[test]
    fn multiplication() {
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let y = smt.bv_var(8, "y");
        let p = smt.mul(x, y);
        let cp = smt.eq_const(p, 77);
        let c1 = smt.bv_const(8, 1);
        let nx = smt.ne(x, c1);
        let ny = smt.ne(y, c1);
        smt.assert(cp);
        smt.assert(nx);
        smt.assert(ny);
        assert_eq!(smt.solve(), SmtResult::Sat);
        let (vx, vy) = (smt.bv_value(x), smt.bv_value(y));
        assert_eq!((vx * vy) & 0xFF, 77);
        assert!(vx != 1 && vy != 1); // 7 * 11 in some order
    }

    #[test]
    fn assumptions_and_core() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let is3 = smt.eq_const(x, 3);
        let is5 = smt.eq_const(x, 5);
        let free = smt.bool_var("free");
        assert_eq!(smt.solve_with(&[is3, is5, free]), SmtResult::Unsat);
        let failed = smt.failed_assumptions();
        assert!(failed.contains(&is3) || failed.contains(&is5));
        assert!(!failed.contains(&free));
        // Retractable: solver still usable.
        assert_eq!(smt.solve_with(&[is3]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 3);
    }

    #[test]
    fn incremental_tightening() {
        // Mimics the wirelength loop: repeatedly add a stricter bound.
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let c100 = smt.bv_const(8, 100);
        let ge = smt.uge(x, c100);
        smt.assert(ge);
        let mut bound = 255;
        let mut rounds = 0;
        loop {
            let c = smt.bv_const(8, bound);
            let lt = smt.ule(x, c);
            smt.assert(lt);
            match smt.solve() {
                SmtResult::Sat => {
                    bound = smt.bv_value(x).saturating_sub(1);
                    rounds += 1;
                }
                SmtResult::Unsat => break,
                SmtResult::Unknown | SmtResult::Cancelled => {
                    panic!("no budget or stop flag was set")
                }
            }
        }
        assert!(rounds >= 1);
        assert!(bound < 100);
    }

    #[test]
    fn pb_constraint_bounds_weighted_sum() {
        let mut smt = Smt::new();
        let items: Vec<(Term, u64)> = (0..5)
            .map(|i| (smt.bool_var(format!("b{i}")), (i + 1) as u64))
            .collect();
        smt.assert_at_most(&items, 6);
        // Forcing 3+4 = 7 > 6 must be unsat.
        assert_eq!(smt.solve_with(&[items[2].0, items[3].0]), SmtResult::Unsat);
        // 2+4 = 6 <= 6 is fine.
        assert_eq!(smt.solve_with(&[items[1].0, items[3].0]), SmtResult::Sat);
    }

    #[test]
    fn guarded_assertions_toggle_with_assumptions() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let sel_a = smt.bool_var("sel_a");
        let sel_b = smt.bool_var("sel_b");
        smt.set_guard(Some(sel_a));
        let is3 = smt.eq_const(x, 3);
        smt.assert(is3);
        smt.set_guard(Some(sel_b));
        let is5 = smt.eq_const(x, 5);
        smt.assert(is5);
        smt.set_guard(None);
        // Neither family enabled: free.
        assert_eq!(smt.solve(), SmtResult::Sat);
        // Each alone: consistent.
        assert_eq!(smt.solve_with(&[sel_a]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 3);
        assert_eq!(smt.solve_with(&[sel_b]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 5);
        // Both: conflict, and the core names both selectors.
        assert_eq!(smt.solve_with(&[sel_a, sel_b]), SmtResult::Unsat);
        let failed = smt.failed_assumptions();
        assert!(failed.contains(&sel_a) && failed.contains(&sel_b));
    }

    #[test]
    fn retired_groups_are_vacuous_and_unassumable() {
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let g = smt.bool_var("g");
        smt.set_guard(Some(g));
        let is5 = smt.eq_const(x, 5);
        smt.assert(is5);
        smt.set_guard(None);
        assert_eq!(smt.solve_with(&[g]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 5);
        // Retiring the group frees x for a contradictory replacement…
        smt.retire(g);
        let is6 = smt.eq_const(x, 6);
        smt.assert(is6);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 6);
        // …and the retired selector can never be re-enabled.
        assert_eq!(smt.solve_with(&[g]), SmtResult::Unsat);
    }

    #[test]
    fn guarded_pb_is_vacuous_unless_selected() {
        let mut smt = Smt::new();
        let items: Vec<(Term, u64)> = (0..4).map(|i| (smt.bool_var(format!("b{i}")), 2)).collect();
        let sel = smt.bool_var("sel");
        smt.set_guard(Some(sel));
        smt.assert_at_most(&items, 3);
        smt.set_guard(None);
        let all: Vec<Term> = items.iter().map(|&(t, _)| t).collect();
        // Guard off: the weight-8 assignment is allowed.
        assert_eq!(smt.solve_with(&all), SmtResult::Sat);
        // Guard on: 8 > 3 is rejected, one item (2 <= 3) is fine.
        let mut with_sel = all.clone();
        with_sel.push(sel);
        assert_eq!(smt.solve_with(&with_sel), SmtResult::Unsat);
        assert_eq!(smt.solve_with(&[sel, items[0].0]), SmtResult::Sat);
    }

    #[test]
    fn ite_selects_branch() {
        let mut smt = Smt::new();
        let c = smt.bool_var("c");
        let a = smt.bv_const(8, 11);
        let b = smt.bv_const(8, 22);
        let x = smt.ite(c, a, b);
        let is22 = smt.eq_const(x, 22);
        smt.assert(is22);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert!(!smt.bool_value(c));
    }

    #[test]
    fn sum_with_extension() {
        let mut smt = Smt::new();
        let xs: Vec<Term> = (0..4).map(|i| smt.bv_var(4, format!("x{i}"))).collect();
        let total = smt.sum(&xs, 8);
        let want = smt.eq_const(total, 60);
        smt.assert(want);
        assert_eq!(smt.solve(), SmtResult::Sat);
        let s: u64 = xs.iter().map(|&x| smt.bv_value(x)).sum();
        assert_eq!(s, 60); // 4 nibbles of 15 each
    }

    #[test]
    fn hint_steers_model() {
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let c = smt.bv_const(8, 200);
        let some = smt.ule(x, c);
        smt.assert(some);
        smt.hint_bv_value(x, 123);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 123);
    }

    #[test]
    fn eval_of_unblasted_terms() {
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let is7 = smt.eq_const(x, 7);
        smt.assert(is7);
        assert_eq!(smt.solve(), SmtResult::Sat);
        // y was never asserted on; structural evaluation applies.
        let y = smt.bv_const(8, 5);
        let z = smt.add(x, y);
        assert_eq!(smt.bv_value(z), 12);
    }

    #[test]
    fn portfolio_dispatch_agrees_with_sequential() {
        for threads in [1usize, 2, 4] {
            let mut smt = Smt::new();
            smt.set_portfolio(Some(PortfolioConfig {
                threads,
                ..PortfolioConfig::default()
            }));
            let x = smt.bv_var(8, "x");
            let c200 = smt.bv_const(8, 200);
            let c220 = smt.bv_const(8, 220);
            let lo = smt.ugt(x, c200);
            let hi = smt.ult(x, c220);
            smt.assert(lo);
            smt.assert(hi);
            assert_eq!(smt.solve(), SmtResult::Sat, "threads={threads}");
            let v = smt.bv_value(x);
            assert!(v > 200 && v < 220);
            // Assumptions must reach every worker: force an UNSAT core.
            let c100 = smt.bv_const(8, 100);
            let low = smt.ult(x, c100);
            assert_eq!(smt.solve_with(&[low]), SmtResult::Unsat);
            assert_eq!(smt.failed_assumptions(), &[low]);
            // Retracting the assumption restores satisfiability.
            assert_eq!(smt.solve(), SmtResult::Sat);
            let summary = smt.portfolio_summary();
            if threads > 1 {
                assert_eq!(summary.workers.len(), threads);
                assert_eq!(summary.solves, 3);
                assert!(summary.last_winner.is_some());
            } else {
                assert!(summary.workers.is_empty());
                assert_eq!(summary.solves, 0);
            }
        }
    }

    #[test]
    fn expired_deadline_yields_unknown_with_cause() {
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let c3 = smt.bv_const(8, 3);
        let c = smt.ugt(x, c3);
        smt.assert(c);
        smt.set_deadline(Some(Instant::now()));
        assert_eq!(smt.solve(), SmtResult::Unknown);
        assert_eq!(smt.stop_cause(), Some(StopCause::Deadline));
        // Clearing the deadline restores normal solving.
        smt.set_deadline(None);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert_eq!(smt.stop_cause(), None);
    }

    #[test]
    fn worker_panic_is_recorded_in_summary() {
        let mut smt = Smt::new();
        smt.set_portfolio(Some(PortfolioConfig {
            threads: 3,
            panic_inject_mask: 0b100, // kill worker 2; 0 and 1 survive
            ..PortfolioConfig::default()
        }));
        let x = smt.bv_var(8, "x");
        let c3 = smt.bv_const(8, 3);
        let c = smt.ugt(x, c3);
        smt.assert(c);
        assert_eq!(smt.solve(), SmtResult::Sat);
        assert!(smt.bv_value(x) > 3);
        let summary = smt.portfolio_summary();
        assert!(summary.workers[2].panicked);
        assert!(summary.workers[2].panic_message.is_some());
        assert!(!summary.workers[0].panicked);
    }

    #[test]
    fn raised_stop_flag_cancels_smt_solve() {
        let mut smt = Smt::new();
        let x = smt.bv_var(8, "x");
        let c3 = smt.bv_const(8, 3);
        let c = smt.ugt(x, c3);
        smt.assert(c);
        let stop = Arc::new(AtomicBool::new(true));
        smt.set_stop_flag(Some(Arc::clone(&stop)));
        assert_eq!(smt.solve(), SmtResult::Cancelled);
        stop.store(false, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(smt.solve(), SmtResult::Sat);
    }
}
