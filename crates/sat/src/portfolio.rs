//! Parallel portfolio solving.
//!
//! A [`Portfolio`] runs N diversified clones of a base [`Solver`]
//! concurrently on the same formula and assumptions, and returns the first
//! SAT/UNSAT verdict. Workers differ along four axes:
//!
//! * restart cadence (Luby base interval),
//! * VSIDS activity decay,
//! * saved-phase initialization (default phases vs. seeded random phases),
//! * random-branching frequency (seeded xorshift).
//!
//! Worker 0 is always the undiversified baseline, so a portfolio's search
//! space strictly contains the sequential solver's. Workers exchange short
//! learnt clauses (LBD ≤ [`PortfolioConfig::share_lbd_max`]) over `mpsc`
//! channels, importing at quiescent points (decision level zero, between
//! restarts); learnt clauses are consequences of the shared formula
//! regardless of assumptions, so sharing is sound even under Algorithm-1
//! freeze assumptions. The first worker with a verdict raises a shared
//! [`AtomicBool`] stop flag that the others honor at their next quiescent
//! point. Every worker runs under [`std::panic::catch_unwind`], so a
//! crashing worker only removes itself from the race; the solve fails
//! (with [`crate::StopCause::AllWorkersPanicked`]) only when no worker
//! survives.
//!
//! Verdicts are deterministic — every worker decides the same formula — but
//! *which* model (and which worker) wins can vary run-to-run with thread
//! scheduling. Callers needing bit-for-bit reproducibility use one thread,
//! which bypasses this module entirely.

use crate::lit::Lit;
use crate::solver::{ClauseExchange, SolveResult, Solver, StopCause};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Portfolio tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of workers; `1` means pure sequential solving.
    pub threads: usize,
    /// Learnt clauses with LBD at most this are broadcast to peers;
    /// `0` disables sharing.
    pub share_lbd_max: u32,
    /// Base seed for the per-worker diversification streams.
    pub seed: u64,
    /// Test-only fault injection: a threaded worker whose id bit is set in
    /// this mask panics instead of solving, exercising the panic-isolation
    /// path. Ignored by the sequential (`threads <= 1`) path. Leave at `0`.
    #[doc(hidden)]
    pub panic_inject_mask: u64,
}

impl Default for PortfolioConfig {
    fn default() -> PortfolioConfig {
        PortfolioConfig {
            threads: 1,
            share_lbd_max: 4,
            seed: 0x5EED,
            panic_inject_mask: 0,
        }
    }
}

/// Per-worker search counters for one portfolio solve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0 is the undiversified baseline).
    pub id: usize,
    /// Conflicts this worker hit before stopping.
    pub conflicts: u64,
    /// Decisions this worker made.
    pub decisions: u64,
    /// Restarts this worker performed.
    pub restarts: u64,
    /// Learnt clauses this worker broadcast to peers.
    pub exported: u64,
    /// Peer clauses this worker imported.
    pub imported: u64,
    /// This worker's own outcome — losing workers typically report
    /// [`SolveResult::Cancelled`]. `None` in aggregates that span
    /// multiple solve calls, and for workers that panicked.
    pub result: Option<SolveResult>,
    /// Whether this worker's thread panicked. The race continues with the
    /// survivors; the counters of a panicked worker read zero because its
    /// solver state was lost in the unwind.
    pub panicked: bool,
    /// The panic payload, when it carried a message.
    pub panic_message: Option<String>,
}

/// Outcome of a [`Portfolio::solve`] call.
#[derive(Clone, Debug)]
pub struct PortfolioVerdict {
    /// The verdict. [`SolveResult::Unknown`] means every surviving worker
    /// exhausted its budget or deadline (or every worker panicked — see
    /// [`PortfolioVerdict::cause`]); [`SolveResult::Cancelled`] means the
    /// external stop flag was raised before any verdict.
    pub result: SolveResult,
    /// Index of the worker whose verdict won (the lowest-id surviving
    /// worker when none did, `0` when every worker panicked).
    pub winner: usize,
    /// Why the solve stopped without a verdict; `Some` exactly when
    /// `result` is [`SolveResult::Unknown`].
    pub cause: Option<StopCause>,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

/// One worker's clause-sharing endpoint: broadcast on export, drain a
/// private inbox on import.
struct BusEndpoint {
    peers: Vec<Sender<Vec<Lit>>>,
    inbox: Receiver<Vec<Lit>>,
    share_lbd_max: u32,
}

/// Clauses longer than this are never shared even at low LBD; glue-level
/// LBD with many literals is rare and expensive to copy N ways.
const SHARE_MAX_LEN: usize = 30;

impl ClauseExchange for BusEndpoint {
    fn export(&mut self, lits: &[Lit], lbd: u32) -> bool {
        if lbd > self.share_lbd_max || lits.len() > SHARE_MAX_LEN {
            return false;
        }
        let mut shared = false;
        for peer in &self.peers {
            // A hung-up peer already finished; its loss is harmless.
            shared |= peer.send(lits.to_vec()).is_ok();
        }
        shared
    }

    fn import(&mut self) -> Vec<Vec<Lit>> {
        // try_recv stops on Empty or Disconnected alike; a hung-up peer
        // already finished and its remaining clauses are harmless to drop.
        let mut out = Vec::new();
        while let Ok(lits) = self.inbox.try_recv() {
            out.push(lits);
        }
        out
    }
}

/// A diversified parallel portfolio over clones of one [`Solver`].
///
/// # Examples
///
/// ```
/// use ams_sat::{Portfolio, PortfolioConfig, SolveResult, Solver};
///
/// let mut base = Solver::new();
/// let a = base.new_var().positive();
/// let b = base.new_var().positive();
/// base.add_clause(&[a, b]);
/// base.add_clause(&[!a, b]);
///
/// let portfolio = Portfolio::new(PortfolioConfig {
///     threads: 2,
///     ..PortfolioConfig::default()
/// });
/// let (winner, verdict) = portfolio.solve(base, &[], None);
/// assert_eq!(verdict.result, SolveResult::Sat);
/// let winner = winner.expect("at least one worker survived");
/// assert!(winner.lit_model(b));
/// assert_eq!(verdict.workers.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Portfolio {
    config: PortfolioConfig,
}

impl Portfolio {
    /// Creates a portfolio with the given configuration.
    pub fn new(config: PortfolioConfig) -> Portfolio {
        Portfolio { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Solves `base` under `assumptions` with `threads` diversified
    /// workers and returns the winning worker's solver (model, failed
    /// assumptions, and learnt clauses intact) together with the verdict.
    ///
    /// Workers run under [`std::panic::catch_unwind`]: a panicking worker
    /// is recorded in its [`WorkerStats`] (`panicked` + `panic_message`)
    /// and the race continues with the survivors. The returned solver is
    /// `None` only when *every* worker panicked — the verdict is then
    /// [`SolveResult::Unknown`] with [`StopCause::AllWorkersPanicked`].
    ///
    /// An optional external `stop` flag cancels the whole portfolio; the
    /// call then returns [`SolveResult::Cancelled`]. With `threads <= 1`
    /// the base solver runs sequentially on the calling thread —
    /// bit-for-bit identical to calling [`Solver::solve_with`] directly.
    pub fn solve(
        &self,
        base: Solver,
        assumptions: &[Lit],
        stop: Option<&Arc<AtomicBool>>,
    ) -> (Option<Solver>, PortfolioVerdict) {
        let threads = self.config.threads.max(1);
        if threads == 1 {
            return self.solve_sequential(base, assumptions, stop);
        }

        // Cloned workers share the base's proof sink (if any); a deletion
        // by one worker must not be honored against the interleaved log,
        // because the clause is still live inside its peers.
        if let Some(proof) = base.proof() {
            proof.set_log_deletions(false);
        }

        // Counters are cumulative per solver; subtract the base's so each
        // worker reports only this solve.
        let base_counters = base.stats();

        // Clause-sharing bus: one inbox per worker, every worker holds a
        // sender to every *other* worker's inbox.
        let (senders, inboxes): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| std::sync::mpsc::channel()).unzip();
        let internal_stop = Arc::new(AtomicBool::new(false));
        let winner_slot: Arc<Mutex<Option<usize>>> = Arc::new(Mutex::new(None));

        // Workers 1..N search a perturbed clone; worker 0 keeps the
        // untouched base state.
        let mut solvers = Vec::with_capacity(threads);
        for id in (1..threads).rev() {
            let mut s = base.clone();
            diversify(&mut s, id, self.config.seed);
            solvers.push((id, s));
        }
        solvers.push((0, base));
        solvers.reverse();

        let share = self.config.share_lbd_max;
        let inject = self.config.panic_inject_mask;
        // Worker id → (result, surviving solver, panic message).
        type WorkerReturn = (usize, Option<SolveResult>, Option<Solver>, Option<String>);
        let mut finished: Vec<WorkerReturn> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for ((id, mut solver), inbox) in solvers.into_iter().zip(inboxes) {
                let peers: Vec<Sender<Vec<Lit>>> = senders
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != id)
                    .map(|(_, tx)| tx.clone())
                    .collect();
                let internal_stop = Arc::clone(&internal_stop);
                let winner_slot = Arc::clone(&winner_slot);
                handles.push((
                    id,
                    scope.spawn(move || {
                        // The unwind boundary: a panic anywhere in this
                        // worker (solver bug, injected fault) is contained
                        // here; its solver state is lost, the race goes on.
                        panic::catch_unwind(AssertUnwindSafe(move || {
                            if inject & (1u64 << (id as u32 & 63)) != 0 {
                                panic!("injected test panic in worker {id}");
                            }
                            if share > 0 {
                                solver.set_exchange(Some(Box::new(BusEndpoint {
                                    peers,
                                    inbox,
                                    share_lbd_max: share,
                                })));
                            }
                            solver.set_stop_flag(Some(Arc::clone(&internal_stop)));
                            let result = solver.solve_with(assumptions);
                            if matches!(result, SolveResult::Sat | SolveResult::Unsat) {
                                let mut slot = winner_slot
                                    .lock()
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                                if slot.is_none() {
                                    *slot = Some(id);
                                    internal_stop.store(true, Ordering::Relaxed);
                                }
                            }
                            solver.set_exchange(None);
                            solver.set_stop_flag(None);
                            (result, solver)
                        }))
                    }),
                ));
            }
            drop(senders);

            // Forward an external cancellation to the workers while they
            // run; exit as soon as the internal flag rises for any reason.
            if let Some(external) = stop {
                while !internal_stop.load(Ordering::Relaxed) {
                    if external.load(Ordering::Relaxed) {
                        internal_stop.store(true, Ordering::Relaxed);
                        break;
                    }
                    if handles.iter().all(|(_, h)| h.is_finished()) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }

            handles
                .into_iter()
                .map(|(id, h)| match h.join() {
                    Ok(Ok((result, solver))) => (id, Some(result), Some(solver), None),
                    // Caught by catch_unwind, or (defensively) a panic that
                    // escaped it — either way the worker is dead.
                    Ok(Err(payload)) | Err(payload) => {
                        (id, None, None, Some(panic_text(payload.as_ref())))
                    }
                })
                .collect()
        });
        finished.sort_by_key(|&(id, ..)| id);

        let externally_cancelled = stop.is_some_and(|s| s.load(Ordering::Relaxed));
        let winner = winner_slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        let workers: Vec<WorkerStats> = finished
            .iter()
            .map(|(id, result, s, panic_message)| match s {
                Some(s) => {
                    let st = s.stats();
                    WorkerStats {
                        id: *id,
                        conflicts: st.conflicts - base_counters.conflicts,
                        decisions: st.decisions - base_counters.decisions,
                        restarts: st.restarts - base_counters.restarts,
                        exported: st.shared_exported - base_counters.shared_exported,
                        imported: st.shared_imported - base_counters.shared_imported,
                        result: *result,
                        panicked: false,
                        panic_message: None,
                    }
                }
                None => WorkerStats {
                    id: *id,
                    panicked: true,
                    panic_message: panic_message.clone(),
                    ..WorkerStats::default()
                },
            })
            .collect();

        let first_survivor = finished.iter().find(|f| f.2.is_some()).map(|f| f.0);
        let (winner_id, result, cause) = match (winner, first_survivor) {
            (Some(id), _) => (id, finished[id].1.expect("winner produced a verdict"), None),
            // Every worker panicked: no solver state survives to report.
            (None, None) => (0, SolveResult::Unknown, Some(StopCause::AllWorkersPanicked)),
            (None, Some(fs)) if externally_cancelled => (fs, SolveResult::Cancelled, None),
            // No verdict, no cancellation: every surviving worker ran out
            // of budget or deadline. Report the broadest cause.
            (None, Some(fs)) => {
                let cause = finished
                    .iter()
                    .filter_map(|f| f.2.as_ref().and_then(|s| s.stop_cause()))
                    .max_by_key(|&c| cause_priority(c));
                (fs, SolveResult::Unknown, cause)
            }
        };
        let solver = finished
            .into_iter()
            .find(|&(id, ..)| id == winner_id)
            .and_then(|(_, _, s, _)| s);
        (
            solver,
            PortfolioVerdict {
                result,
                winner: winner_id,
                cause,
                workers,
            },
        )
    }

    fn solve_sequential(
        &self,
        mut base: Solver,
        assumptions: &[Lit],
        stop: Option<&Arc<AtomicBool>>,
    ) -> (Option<Solver>, PortfolioVerdict) {
        base.set_stop_flag(stop.cloned());
        let before = base.stats();
        let result = base.solve_with(assumptions);
        base.set_stop_flag(None);
        let after = base.stats();
        let cause = base.stop_cause();
        let workers = vec![WorkerStats {
            id: 0,
            conflicts: after.conflicts - before.conflicts,
            decisions: after.decisions - before.decisions,
            restarts: after.restarts - before.restarts,
            exported: 0,
            imported: 0,
            result: Some(result),
            panicked: false,
            panic_message: None,
        }];
        (
            Some(base),
            PortfolioVerdict {
                result,
                winner: 0,
                cause,
                workers,
            },
        )
    }
}

/// Extracts a human-readable message from a panic payload; `&str` and
/// `String` payloads (the `panic!` macro's output) are passed through.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Ranks stop causes for aggregation across workers: a deadline expiry is
/// the most actionable signal, budget exhaustion next.
fn cause_priority(c: StopCause) -> u8 {
    match c {
        StopCause::Deadline => 3,
        StopCause::ConflictBudget => 1,
        StopCause::AllWorkersPanicked => 0,
    }
}

/// Applies worker `id`'s diversification profile. Worker 0 is never
/// diversified; the axes cycle so any thread count gets distinct
/// configurations.
fn diversify(solver: &mut Solver, id: usize, seed: u64) {
    debug_assert!(id >= 1);
    let wseed = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(id as u64);
    solver.set_restart_base(match id % 4 {
        1 => 64,
        2 => 512,
        3 => 128,
        _ => 1024,
    });
    solver.set_var_decay(match id % 3 {
        1 => 0.90,
        2 => 0.97,
        _ => 0.85,
    });
    if id % 2 == 1 {
        solver.randomize_phases(wseed);
    } else {
        solver.set_default_polarity(id % 4 == 2);
    }
    // Mild random branching on every diversified worker, strongest on the
    // ones that keep default phases.
    let freq = if id % 2 == 1 { 0.01 } else { 0.03 };
    solver.set_random_branch(wseed ^ 0xA5A5_A5A5, freq);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pigeonhole(n: usize) -> (Solver, Vec<Vec<Lit>>) {
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &x {
            s.add_clause(row);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for (&la, &lb) in x[a].iter().zip(&x[b]) {
                    s.add_clause(&[!la, !lb]);
                }
            }
        }
        (s, x)
    }

    #[test]
    fn portfolio_agrees_on_unsat() {
        let (base, _) = pigeonhole(6);
        for threads in [1, 2, 4] {
            let p = Portfolio::new(PortfolioConfig {
                threads,
                ..PortfolioConfig::default()
            });
            let (_, verdict) = p.solve(base.clone(), &[], None);
            assert_eq!(verdict.result, SolveResult::Unsat, "threads={threads}");
            assert_eq!(verdict.workers.len(), threads);
        }
    }

    #[test]
    fn portfolio_agrees_on_sat_with_assumptions() {
        // Satisfiable chain; assumption forces the tail.
        let mut s = Solver::new();
        let v: Vec<Lit> = (0..40).map(|_| s.new_var().positive()).collect();
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        for threads in [1, 2, 4] {
            let p = Portfolio::new(PortfolioConfig {
                threads,
                ..PortfolioConfig::default()
            });
            let (winner, verdict) = p.solve(s.clone(), &[v[0]], None);
            assert_eq!(verdict.result, SolveResult::Sat, "threads={threads}");
            let winner = winner.expect("a worker survived");
            assert!(winner.lit_model(v[39]), "implication chain must hold");
        }
    }

    #[test]
    fn failed_assumptions_survive_portfolio() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        let p = Portfolio::new(PortfolioConfig {
            threads: 3,
            ..PortfolioConfig::default()
        });
        let (winner, verdict) = p.solve(s, &[!a, !b], None);
        assert_eq!(verdict.result, SolveResult::Unsat);
        let winner = winner.expect("a worker survived");
        assert!(!winner.failed_assumptions().is_empty());
    }

    #[test]
    fn injected_panic_is_survived_by_the_rest() {
        let (base, _) = pigeonhole(6);
        let p = Portfolio::new(PortfolioConfig {
            threads: 3,
            panic_inject_mask: 0b010, // kill worker 1
            ..PortfolioConfig::default()
        });
        let (winner, verdict) = p.solve(base, &[], None);
        assert_eq!(verdict.result, SolveResult::Unsat);
        assert!(winner.is_some(), "survivors must still produce a solver");
        assert!(verdict.workers[1].panicked);
        assert!(verdict.workers[1]
            .panic_message
            .as_deref()
            .is_some_and(|m| m.contains("injected test panic")));
        assert_eq!(verdict.workers[1].result, None);
        assert!(!verdict.workers[0].panicked);
        assert!(!verdict.workers[2].panicked);
    }

    #[test]
    fn all_workers_panicking_reports_the_cause() {
        let (base, _) = pigeonhole(6);
        let p = Portfolio::new(PortfolioConfig {
            threads: 3,
            panic_inject_mask: 0b111,
            ..PortfolioConfig::default()
        });
        let (winner, verdict) = p.solve(base, &[], None);
        assert!(winner.is_none());
        assert_eq!(verdict.result, SolveResult::Unknown);
        assert_eq!(verdict.cause, Some(StopCause::AllWorkersPanicked));
        assert!(verdict.workers.iter().all(|w| w.panicked));
    }

    #[test]
    fn exhausted_budgets_surface_a_cause() {
        let (mut base, _) = pigeonhole(9);
        base.set_conflict_budget(Some(10));
        for threads in [1, 2] {
            let p = Portfolio::new(PortfolioConfig {
                threads,
                ..PortfolioConfig::default()
            });
            let (winner, verdict) = p.solve(base.clone(), &[], None);
            assert_eq!(verdict.result, SolveResult::Unknown, "threads={threads}");
            assert_eq!(
                verdict.cause,
                Some(StopCause::ConflictBudget),
                "threads={threads}"
            );
            assert!(winner.is_some());
        }
    }

    #[test]
    fn external_stop_cancels_all_workers() {
        let (base, _) = pigeonhole(10); // hard enough to outlive the flag
        let stop = Arc::new(AtomicBool::new(false));
        let p = Portfolio::new(PortfolioConfig {
            threads: 4,
            ..PortfolioConfig::default()
        });
        let flag = Arc::clone(&stop);
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag.store(true, Ordering::Relaxed);
        });
        let t0 = std::time::Instant::now();
        let (_, verdict) = p.solve(base, &[], Some(&stop));
        raiser.join().expect("raiser join");
        assert_eq!(verdict.result, SolveResult::Cancelled);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(20),
            "cancellation must not wait for the full search"
        );
    }
}
