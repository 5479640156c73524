//! The provenance-carrying constraint IR between the encoders and the SMT
//! layer.
//!
//! Every encoder module emits typed `Constraint` records — a family, a
//! provenance site, and an [`ams_smt`] term payload — into one
//! `ConstraintStore` (crate-internal) instead of asserting into the solver
//! directly. A single lowering pass (`ConstraintStore::lower`) installs the
//! records, with every family guarded by a fresh selector literal
//! (`sel_<family>_g<generation>`, see [`ams_smt::Smt::set_guard`]).
//!
//! One store, three consumers:
//!
//! * **Solving** passes the selectors as assumptions on every solve, so the
//!   encoding behaves exactly as if asserted directly — and an UNSAT
//!   verdict's failed assumptions name the conflicting families for free
//!   (no re-encode, no second solve).
//! * **Reconfiguration** (the recovery ladder, routing closure, and warm
//!   service requests) re-encodes the design into the live solver's term
//!   pool, diffs the records family by family, retires each changed
//!   family's selector ([`ams_smt::Smt::retire`]) and lowers a replacement
//!   generation, keeping every learnt clause that does not depend on a
//!   retired family.
//! * **Diagnostics** ([`crate::PlaceError::Infeasible`], lint `--explain`)
//!   cite the provenance sites of the blamed families.

use ams_netlist::{CellId, NetId, RegionId};
use ams_smt::{Smt, Term};
use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

/// The constraint families of the encoding (Section IV.C), as attribution
/// units for UNSAT explanation, lowering statistics, and recovery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ConstraintFamily {
    /// Region sizing/separation, containment, and cell non-overlap
    /// (Eq. 4–7, 11) — the critical geometry.
    CoreGeometry,
    /// Hierarchical symmetry (Eq. 8).
    Symmetry,
    /// Arrays and matching patterns (Eq. 9–10).
    Arrays,
    /// Power-abutment row bands (Eq. 12).
    PowerAbutment,
    /// Window-based pin density (Eq. 13–14).
    PinDensity,
    /// Net bounding-box links feeding the wirelength objective Φ
    /// (Algorithm 1). Always satisfiable on their own, so this family is
    /// excluded from conflict attribution; it exists so the objective
    /// bookkeeping flows through the same store as every real constraint.
    Wirelength,
}

impl ConstraintFamily {
    /// Every family, in canonical (lowering) order.
    pub const ALL: [ConstraintFamily; 6] = [
        ConstraintFamily::CoreGeometry,
        ConstraintFamily::Symmetry,
        ConstraintFamily::Arrays,
        ConstraintFamily::PowerAbutment,
        ConstraintFamily::PinDensity,
        ConstraintFamily::Wirelength,
    ];

    /// Stable lowercase name, e.g. `"core-geometry"`.
    pub fn name(self) -> &'static str {
        match self {
            ConstraintFamily::CoreGeometry => "core-geometry",
            ConstraintFamily::Symmetry => "symmetry",
            ConstraintFamily::Arrays => "arrays",
            ConstraintFamily::PowerAbutment => "power-abutment",
            ConstraintFamily::PinDensity => "pin-density",
            ConstraintFamily::Wirelength => "wirelength",
        }
    }
}

impl fmt::Display for ConstraintFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The design object a constraint was derived from — the unit of blame in
/// infeasibility diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Provenance {
    /// Whole-design bookkeeping with no narrower site.
    #[default]
    Design,
    /// One region's sizing, bounds, or dimension choice.
    Region(RegionId),
    /// Separation between a pair of regions.
    RegionPair(RegionId, RegionId),
    /// One cell's containment or margins.
    Cell(CellId),
    /// Non-overlap (or keep-out) between a pair of cells.
    CellPair(CellId, CellId),
    /// One net's bounding-box links.
    Net(NetId),
    /// One symmetry group (index into the design's constraint list).
    SymmetryGroup(usize),
    /// One array constraint (index into the design's constraint list).
    Array(usize),
    /// The power bands of one region.
    PowerRegion(RegionId),
    /// One pin-density check window at the given scaled origin.
    Window {
        /// Window origin x (scaled units).
        x: u32,
        /// Window origin y (scaled units).
        y: u32,
    },
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Provenance::Design => write!(f, "the design"),
            Provenance::Region(r) => write!(f, "region #{}", r.index()),
            Provenance::RegionPair(a, b) => {
                write!(f, "regions #{}/#{}", a.index(), b.index())
            }
            Provenance::Cell(c) => write!(f, "cell #{}", c.index()),
            Provenance::CellPair(a, b) => write!(f, "cells #{}/#{}", a.index(), b.index()),
            Provenance::Net(n) => write!(f, "net #{}", n.index()),
            Provenance::SymmetryGroup(g) => write!(f, "symmetry group #{g}"),
            Provenance::Array(a) => write!(f, "array #{a}"),
            Provenance::PowerRegion(r) => write!(f, "power bands of region #{}", r.index()),
            Provenance::Window { x, y } => write!(f, "window ({x}, {y})"),
        }
    }
}

/// The solver-facing payload of one constraint record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Payload {
    /// A Boolean term to assert.
    Term(Term),
    /// A pseudo-Boolean bound `Σ weightᵢ·itemᵢ ≤ bound` (Eq. 14). Lowering
    /// gives every non-constant item a one-directional indicator
    /// `itemᵢ → bᵢ` and bounds the indicators, so encoders emit plain
    /// terms and create no variables.
    AtMost { items: Vec<(Term, u64)>, bound: u64 },
}

/// One typed constraint record: which family it belongs to, which design
/// object produced it, and what to install in the solver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Constraint {
    pub family: ConstraintFamily,
    pub provenance: Provenance,
    pub payload: Payload,
}

impl Constraint {
    /// The origin of the pin-density window this record bounds, if any:
    /// the unit of lazy lowering.
    fn window(&self) -> Option<(u32, u32)> {
        match self.provenance {
            Provenance::Window { x, y } if self.family == ConstraintFamily::PinDensity => {
                Some((x, y))
            }
            _ => None,
        }
    }
}

/// Per-family lowering statistics, reported in
/// [`crate::PlaceStats::families`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FamilyStats {
    /// The family.
    pub family: ConstraintFamily,
    /// IR constraint records emitted for the family, lowered or not.
    pub constraints: usize,
    /// SAT clauses the family's lowered records blasted into, pin-density
    /// windows lowered after a solve included. Shared subterms are
    /// blasted once and attributed to the first family that uses them.
    pub clauses: usize,
}

/// Result of one lowering pass.
pub(crate) struct Lowering {
    /// One `(family, selector)` per family lowered, in canonical order.
    /// The selectors must be passed as assumptions on every solve.
    pub selectors: Vec<(ConstraintFamily, Term)>,
    /// Per-family record/clause counts of this pass.
    pub families: Vec<FamilyStats>,
    /// Wall-clock time spent installing and bit-blasting.
    pub elapsed: Duration,
}

/// The one constraint store between the encoders and the solver.
///
/// Encoders set an emission context ([`ConstraintStore::family`] /
/// [`ConstraintStore::at`]) and emit records; the placer lowers them in one
/// pass and keeps the store for diagnostics and for diffing against the
/// next re-encode.
#[derive(Default)]
pub(crate) struct ConstraintStore {
    constraints: Vec<Constraint>,
    family: Option<ConstraintFamily>,
    provenance: Provenance,
}

impl ConstraintStore {
    pub fn new() -> ConstraintStore {
        ConstraintStore::default()
    }

    /// Opens an emission context for `family`, resetting the provenance
    /// site to [`Provenance::Design`].
    pub fn family(&mut self, family: ConstraintFamily) {
        self.family = Some(family);
        self.provenance = Provenance::Design;
    }

    /// Sets the provenance site for subsequent emissions.
    pub fn at(&mut self, provenance: Provenance) {
        self.provenance = provenance;
    }

    /// Emits a Boolean constraint under the current context.
    ///
    /// # Panics
    ///
    /// Panics if no [`ConstraintStore::family`] context is open.
    pub fn assert(&mut self, t: Term) {
        let family = self.family.expect("no constraint family context open");
        self.constraints.push(Constraint {
            family,
            provenance: self.provenance,
            payload: Payload::Term(t),
        });
    }

    /// Emits a pseudo-Boolean at-most bound under the current context.
    ///
    /// # Panics
    ///
    /// Panics if no [`ConstraintStore::family`] context is open.
    pub fn assert_at_most(&mut self, items: Vec<(Term, u64)>, bound: u64) {
        let family = self.family.expect("no constraint family context open");
        self.constraints.push(Constraint {
            family,
            provenance: self.provenance,
            payload: Payload::AtMost { items, bound },
        });
    }

    /// Read-only view of every record, for static analysis
    /// ([`crate::analysis::presolve`]).
    pub fn records(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Lowers the records of `families` into the solver, one fresh
    /// `sel_<family>_g<generation>` guard selector per family present.
    /// Records are installed under it via [`Smt::set_guard`] in emission
    /// order, then bit-blasted ([`Smt::flush`]) so the per-family clause
    /// delta can be measured. A record sited at a pin-density window is
    /// lowered only when `windows` holds the window's origin; the others
    /// wait in the store for [`ConstraintStore::lower_windows`], and the
    /// family's selector and record count cover them all the same.
    pub fn lower(
        &self,
        smt: &mut Smt,
        generation: u32,
        families: &[ConstraintFamily],
        windows: &BTreeSet<(u32, u32)>,
    ) -> Lowering {
        let t0 = Instant::now();
        let mut selectors = Vec::new();
        let mut stats = Vec::new();
        smt.flush();
        for family in ConstraintFamily::ALL {
            let records = || self.constraints.iter().filter(|c| c.family == family);
            if !families.contains(&family) || records().next().is_none() {
                continue;
            }
            let sel = smt.bool_var(format!("sel_{}_g{generation}", family.name()));
            smt.set_guard(Some(sel));
            let before = smt.num_sat_clauses();
            for c in records().filter(|c| c.window().is_none_or(|w| windows.contains(&w))) {
                lower_record(smt, c);
            }
            smt.flush();
            smt.set_guard(None);
            selectors.push((family, sel));
            stats.push(FamilyStats {
                family,
                constraints: records().count(),
                clauses: smt.num_sat_clauses() - before,
            });
        }
        Lowering {
            selectors,
            families: stats,
            elapsed: t0.elapsed(),
        }
    }

    /// Lowers the records sited at the windows `origins` under `selector`,
    /// the live selector of the pin-density family, on a solver that
    /// already holds the rest of the encoding. Returns the clauses they
    /// added and the time it took.
    pub fn lower_windows(
        &self,
        smt: &mut Smt,
        selector: Term,
        origins: &[(u32, u32)],
    ) -> (usize, Duration) {
        let t0 = Instant::now();
        smt.flush();
        let before = smt.num_sat_clauses();
        smt.set_guard(Some(selector));
        for c in &self.constraints {
            if c.window().is_some_and(|w| origins.contains(&w)) {
                lower_record(smt, c);
            }
        }
        smt.flush();
        smt.set_guard(None);
        (smt.num_sat_clauses() - before, t0.elapsed())
    }

    /// Compares this store against `other` family by family and returns
    /// the families whose record sequences differ (count, provenance, or
    /// payload), in canonical order.
    ///
    /// Record payloads reference [`Term`]s by index, so both stores must be
    /// emitted into the same solver's term pool. Encoders create no
    /// variables, and the pool interns every term, so an unchanged family
    /// re-emits term-identical records.
    pub fn diff_families(&self, other: &ConstraintStore) -> Vec<ConstraintFamily> {
        ConstraintFamily::ALL
            .into_iter()
            .filter(|&family| {
                let mine = self.constraints.iter().filter(|c| c.family == family);
                let theirs = other.constraints.iter().filter(|c| c.family == family);
                !mine.eq(theirs)
            })
            .collect()
    }

    /// One human-readable blame line per family: record count, distinct
    /// provenance sites, and a few example sites. Cited by
    /// [`crate::PlaceError::Infeasible`] and the CLI.
    pub fn provenance_lines(&self, families: &[ConstraintFamily]) -> Vec<String> {
        families
            .iter()
            .map(|&family| {
                let mut count = 0usize;
                let mut sites: Vec<Provenance> = Vec::new();
                for c in self.constraints.iter().filter(|c| c.family == family) {
                    count += 1;
                    if !sites.contains(&c.provenance) {
                        sites.push(c.provenance);
                    }
                }
                let examples: Vec<String> = sites.iter().take(3).map(|p| p.to_string()).collect();
                let more = if sites.len() > 3 {
                    format!(" and {} more", sites.len() - 3)
                } else {
                    String::new()
                };
                format!(
                    "{family}: {count} constraint(s) from {} site(s), e.g. {}{more}",
                    sites.len(),
                    examples.join(", "),
                )
            })
            .collect()
    }
}

/// Installs one record under the solver's current guard.
fn lower_record(smt: &mut Smt, c: &Constraint) {
    match &c.payload {
        Payload::Term(t) => smt.assert(*t),
        Payload::AtMost { items, bound } => lower_at_most(smt, c.provenance, items, *bound),
    }
}

/// Lowers one at-most record: every item that is not constant true gets a
/// one-directional indicator `item → b` (over-approximating the item keeps
/// every model within the true bound), and the bound is asserted over the
/// indicators unless every item fits under it.
fn lower_at_most(smt: &mut Smt, site: Provenance, items: &[(Term, u64)], bound: u64) {
    let mut total = 0u64;
    let indicators: Vec<(Term, u64)> = items
        .iter()
        .enumerate()
        .map(|(i, &(item, weight))| {
            total += weight;
            if smt.pool().as_const(item) == Some(1) {
                return (item, weight);
            }
            let b = smt.bool_var(format!("b{i} of {site}"));
            let imp = smt.implies(item, b);
            smt.assert(imp);
            (b, weight)
        })
        .collect();
    if total > bound {
        smt.assert_at_most(&indicators, bound);
    }
}

/// Maps the failed assumptions of an UNSAT solve back to constraint
/// families — the attribution step shared by the placer's
/// [`crate::PlaceError::Infeasible`] and the standalone explainer.
///
/// [`ConstraintFamily::Wirelength`] is filtered out: its bounding-box
/// links are satisfiable under any cell assignment, so they can always be
/// dropped from an unsatisfiable core without restoring satisfiability —
/// when the SAT core over-approximates and names the wirelength selector,
/// the remaining families still conflict on their own. When the core
/// names no selector at all (which guarded assertions rule out, but be
/// defensive), every present family is blamed. Sorted, deduplicated.
pub(crate) fn conflict_families(
    selectors: &[(ConstraintFamily, Term)],
    failed: &[Term],
) -> Vec<ConstraintFamily> {
    let attributable = |&&(f, _): &&(ConstraintFamily, Term)| f != ConstraintFamily::Wirelength;
    let mut families: Vec<ConstraintFamily> = selectors
        .iter()
        .filter(|&&(_, s)| failed.contains(&s))
        .filter(attributable)
        .map(|&(f, _)| f)
        .collect();
    if families.is_empty() {
        families = selectors
            .iter()
            .filter(attributable)
            .map(|&(f, _)| f)
            .collect();
    }
    families.sort();
    families.dedup();
    families
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_smt::SmtResult;

    #[test]
    fn lowering_guards_families_independently() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::CoreGeometry);
        let is3 = smt.eq_const(x, 3);
        store.assert(is3);
        store.family(ConstraintFamily::Symmetry);
        let is5 = smt.eq_const(x, 5);
        store.assert(is5);

        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL, &BTreeSet::new());
        assert_eq!(lowering.selectors.len(), 2);
        assert_eq!(lowering.families.len(), 2);
        assert!(lowering.families.iter().all(|f| f.constraints == 1));
        let sels: Vec<Term> = lowering.selectors.iter().map(|&(_, s)| s).collect();

        // Both families enabled: contradictory, and the failed assumptions
        // attribute the conflict to both.
        assert_eq!(smt.solve_with(&sels), SmtResult::Unsat);
        let failed = smt.failed_assumptions();
        assert!(sels.iter().all(|s| failed.contains(s)));
        // Each alone is consistent.
        assert_eq!(smt.solve_with(&sels[..1]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 3);
        assert_eq!(smt.solve_with(&sels[1..]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 5);
    }

    #[test]
    fn relowering_replaces_a_retired_family() {
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let emit = |smt: &mut Smt, value: u64| {
            let mut store = ConstraintStore::new();
            store.family(ConstraintFamily::CoreGeometry);
            let small = smt.bv_const(4, 8);
            let below = smt.ult(x, small);
            store.assert(below);
            store.family(ConstraintFamily::PinDensity);
            let is = smt.eq_const(x, value);
            store.assert(is);
            store
        };
        let store = emit(&mut smt, 3);
        let g0 = store.lower(&mut smt, 0, &ConstraintFamily::ALL, &BTreeSet::new());
        let sels0: Vec<Term> = g0.selectors.iter().map(|&(_, s)| s).collect();
        assert_eq!(smt.solve_with(&sels0), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 3);

        // Re-emit with a relaxed pin-density record: only that family
        // differs, so only it is retired and lowered as generation 1.
        let relaxed = emit(&mut smt, 7);
        let changed = store.diff_families(&relaxed);
        assert_eq!(changed, vec![ConstraintFamily::PinDensity]);
        smt.retire(sels0[1]);
        let g1 = relaxed.lower(&mut smt, 1, &changed, &BTreeSet::new());
        assert_eq!(g1.selectors.len(), 1);
        let sel1 = g1.selectors[0].1;
        assert_ne!(sels0[1], sel1);
        assert_eq!(smt.solve_with(&[sels0[0], sel1]), SmtResult::Sat);
        assert_eq!(smt.bv_value(x), 7);
    }

    #[test]
    fn diff_families_reports_only_changed_families() {
        // Stores emitted into one term pool: identical geometry records,
        // one differing pin-density bound (a λ_th-only warm request).
        let mut smt = Smt::new();
        let x = smt.bv_var(4, "x");
        let mut build = |bound: u64| {
            let mut store = ConstraintStore::new();
            store.family(ConstraintFamily::CoreGeometry);
            let lim = smt.eq_const(x, 3);
            store.assert(lim);
            store.family(ConstraintFamily::PinDensity);
            store.at(Provenance::Window { x: 0, y: 0 });
            let five = smt.bv_const(4, 5);
            let near = smt.ule(x, five);
            store.assert_at_most(vec![(lim, 1), (near, 1)], bound);
            store
        };
        let a = build(1);
        let same = build(1);
        let relaxed = build(2);
        assert_eq!(a.diff_families(&same), Vec::new());
        assert_eq!(
            a.diff_families(&relaxed),
            vec![ConstraintFamily::PinDensity]
        );
        // A missing family counts as changed on whichever side has it.
        let mut empty = ConstraintStore::new();
        empty.family(ConstraintFamily::CoreGeometry);
        assert_eq!(
            a.diff_families(&empty),
            vec![ConstraintFamily::CoreGeometry, ConstraintFamily::PinDensity]
        );
    }

    #[test]
    fn at_most_items_lower_through_indicators() {
        // x ≤ 3 and x ≥ 2 weigh 1 each under a bound of 1: at most one
        // may hold, so x ∈ {2, 3} is excluded.
        let mut smt = Smt::new();
        let x = smt.bv_var(3, "x");
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::PinDensity);
        let three = smt.bv_const(3, 3);
        let two = smt.bv_const(3, 2);
        let le3 = smt.ule(x, three);
        let ge2 = smt.uge(x, two);
        store.assert_at_most(vec![(le3, 1), (ge2, 1)], 1);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL, &BTreeSet::new());
        let sel = lowering.selectors[0].1;
        for value in 0..8 {
            let pin = smt.eq_const(x, value);
            let expect = if (2..=3).contains(&value) {
                SmtResult::Unsat
            } else {
                SmtResult::Sat
            };
            assert_eq!(smt.solve_with(&[sel, pin]), expect, "x = {value}");
        }
    }

    #[test]
    fn window_records_lower_only_once_active() {
        // Two windows bound x ≤ 3 and x ≥ 2 to weight 0: with neither
        // active the family has a selector but no clauses, and each
        // window lowered later under that selector excludes its values.
        let mut smt = Smt::new();
        let x = smt.bv_var(3, "x");
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::PinDensity);
        let three = smt.bv_const(3, 3);
        let two = smt.bv_const(3, 2);
        let le3 = smt.ule(x, three);
        let ge2 = smt.uge(x, two);
        store.at(Provenance::Window { x: 0, y: 0 });
        store.assert_at_most(vec![(le3, 1)], 0);
        store.at(Provenance::Window { x: 2, y: 0 });
        store.assert_at_most(vec![(ge2, 1)], 0);
        let lowering = store.lower(&mut smt, 0, &ConstraintFamily::ALL, &BTreeSet::new());
        assert_eq!(lowering.families[0].constraints, 2);
        assert_eq!(lowering.families[0].clauses, 0);
        let sel = lowering.selectors[0].1;
        let is1 = smt.eq_const(x, 1);
        assert_eq!(smt.solve_with(&[sel, is1]), SmtResult::Sat);

        let (clauses, _) = store.lower_windows(&mut smt, sel, &[(0, 0)]);
        assert!(clauses > 0);
        assert_eq!(smt.solve_with(&[sel, is1]), SmtResult::Unsat);
        let is6 = smt.eq_const(x, 6);
        assert_eq!(smt.solve_with(&[sel, is6]), SmtResult::Sat);
        store.lower_windows(&mut smt, sel, &[(2, 0)]);
        assert_eq!(smt.solve_with(&[sel]), SmtResult::Unsat);
    }

    #[test]
    fn provenance_lines_cite_sites() {
        let mut smt = Smt::new();
        let t = smt.tru();
        let mut store = ConstraintStore::new();
        store.family(ConstraintFamily::PinDensity);
        store.at(Provenance::Window { x: 0, y: 2 });
        store.assert(t);
        store.at(Provenance::Window { x: 4, y: 2 });
        store.assert_at_most(vec![(t, 3)], 1);
        let lines = store.provenance_lines(&[ConstraintFamily::PinDensity]);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("pin-density: 2 constraint(s)"),
            "{lines:?}"
        );
        assert!(lines[0].contains("window (0, 2)"), "{lines:?}");
        assert!(lines[0].contains("window (4, 2)"), "{lines:?}");
    }
}
