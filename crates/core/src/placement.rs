//! Placement results, metrics, and the independent legality checker.

use crate::encode::pin_density::window_origins;
use crate::scale::ScaleInfo;
use ams_netlist::{ArrayPattern, Design, Rect, SymmetryAxis};
use std::fmt;
use std::time::Duration;

/// Category of a legality violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// A cell lies outside its region.
    Containment,
    /// Two same-region cells overlap (or violate extension margins).
    Overlap,
    /// Regions overlap or violate edge reservations.
    RegionSeparation,
    /// A symmetry group is broken.
    Symmetry,
    /// An array is not densely packed or breaks its pattern.
    Array,
    /// Power bands interleave.
    PowerAbutment,
    /// A check window exceeds the pin-density threshold.
    PinDensity,
    /// A coordinate is off the scaled site grid.
    GridAlignment,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Containment => "containment",
            ViolationKind::Overlap => "overlap",
            ViolationKind::RegionSeparation => "region separation",
            ViolationKind::Symmetry => "symmetry",
            ViolationKind::Array => "array",
            ViolationKind::PowerAbutment => "power abutment",
            ViolationKind::PinDensity => "pin density",
            ViolationKind::GridAlignment => "grid alignment",
        };
        f.write_str(s)
    }
}

/// One legality violation found by [`Placement::verify`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Category.
    pub kind: ViolationKind,
    /// Human-readable description naming the offending entities.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Why an [`PlaceOutcome::Anytime`] placement stopped short of the full
/// optimization schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradeReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The per-round conflict (or propagation) budget ran out.
    ConflictBudget,
    /// The solver infrastructure degraded mid-run (e.g. every portfolio
    /// worker of a later round panicked) after a model was already found.
    SolverFailure,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeReason::Deadline => "deadline expired",
            DegradeReason::ConflictBudget => "conflict budget exhausted",
            DegradeReason::SolverFailure => "solver failure",
        })
    }
}

/// One relaxation rung applied by the infeasibility-recovery ladder.
#[derive(Clone, PartialEq, Debug)]
pub enum Relaxation {
    /// The pin-density threshold `λ_th` (Eq. 14) was raised.
    RaisePinDensity {
        /// Threshold before the rung.
        from: u64,
        /// Threshold after the rung.
        to: u64,
    },
    /// Extension margins (Eq. 11) were scaled down; `0.0` disables them.
    RelaxExtensions {
        /// The new margin scale factor in `[0, 1)`.
        scale: f64,
    },
    /// The die was widened by raising the slack factor, admitting more
    /// region dimension candidates (Eq. 4–5).
    WidenDie {
        /// The new die slack factor.
        die_slack: f64,
    },
}

impl fmt::Display for Relaxation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relaxation::RaisePinDensity { from, to } => {
                write!(f, "raised pin-density threshold λ_th {from} → {to}")
            }
            Relaxation::RelaxExtensions { scale } => {
                write!(f, "scaled extension margins to {scale:.2}×")
            }
            Relaxation::WidenDie { die_slack } => {
                write!(f, "widened die slack to {die_slack:.2}×")
            }
        }
    }
}

/// How one recovery-ladder rung was executed (see
/// [`crate::Placer::place`]): which relaxation it applied, and whether
/// the live solver — with its learnt clauses — survived into the rung.
#[derive(Clone, PartialEq, Debug)]
pub struct RungStats {
    /// The relaxation this rung applied.
    pub relaxation: Relaxation,
    /// Learnt clauses alive in the SAT core when the rung started, all of
    /// which carry over when the rung re-lowers in place. `0` for rungs
    /// that rebuilt the solver.
    pub learnts_carried: u64,
    /// Whether the rung rebuilt the placer from scratch (die widening
    /// changes coordinate bit-widths) instead of re-lowering the changed
    /// families on the live solver.
    pub rebuilt: bool,
}

/// Quality tag of a returned placement: did the run complete its schedule,
/// degrade gracefully, or recover from infeasibility?
#[derive(Clone, PartialEq, Debug, Default)]
pub enum PlaceOutcome {
    /// The optimization schedule ran to completion (UNSAT-proven optimum
    /// of the final ζ round, or the configured iteration count).
    #[default]
    Optimal,
    /// Best-so-far model returned after the deadline or budget expired
    /// mid-schedule; the placement is legal but less optimized.
    Anytime {
        /// SAT rounds that completed before degradation.
        rounds: usize,
        /// What cut the schedule short.
        reason: DegradeReason,
    },
    /// The initial constraint system was infeasible; the listed
    /// relaxations were applied (in order) to obtain this placement.
    Recovered {
        /// Every rung applied, in application order.
        relaxations: Vec<Relaxation>,
    },
}

impl fmt::Display for PlaceOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceOutcome::Optimal => f.write_str("optimal"),
            PlaceOutcome::Anytime { rounds, reason } => {
                write!(f, "anytime ({reason} after {rounds} round(s))")
            }
            PlaceOutcome::Recovered { relaxations } => {
                write!(f, "recovered ({} relaxation rung(s))", relaxations.len())
            }
        }
    }
}

/// Search/optimization statistics of a placement run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlaceStats {
    /// Quality tag: optimal, anytime-degraded, or recovered-from-UNSAT.
    pub outcome: PlaceOutcome,
    /// Optimization iterations performed (Algorithm 1 loop count).
    pub iterations: usize,
    /// Wall-clock runtime of the placement (encode + solve + post).
    pub runtime: Duration,
    /// SAT conflicts across all solve calls.
    pub conflicts: u64,
    /// Weighted scaled HPWL after each SAT iteration (decreasing).
    pub hpwl_trace: Vec<u64>,
    /// SAT variables in the final encoding.
    pub sat_vars: usize,
    /// SAT clauses in the final encoding.
    pub sat_clauses: usize,
    /// Per-family constraint-record and CNF-clause counts of the live
    /// lowering generations (see [`crate::FamilyStats`]), in canonical
    /// family order.
    pub families: Vec<crate::FamilyStats>,
    /// Wall-clock time spent lowering IR records into the solver (the
    /// initial pass plus any recovery re-lowerings).
    pub lowering: Duration,
    /// One entry per recovery rung taken, in order; empty when the first
    /// encoding was feasible.
    pub rungs: Vec<RungStats>,
    /// Solver threads the run was configured with.
    pub threads: usize,
    /// Per-worker portfolio counters summed over all solve calls; empty
    /// for sequential (single-thread) runs.
    pub workers: Vec<ams_sat::WorkerStats>,
    /// Worker that produced the verdict of the last portfolio solve.
    pub winner: Option<usize>,
    /// Certification artifacts of a `certify`-mode run
    /// ([`crate::SolverConfig::certify`]); `None` otherwise.
    pub certify: Option<CertifyReport>,
    /// Static-presolve summary ([`crate::analysis::presolve`]): the
    /// verdict and passes describe the configuration the job was asked to
    /// solve (recovery rungs do not rewrite them), the saved bits the
    /// solver that placed it. `None` when presolve was disabled.
    pub presolve: Option<PresolveStats>,
    /// Warm-reuse summary when this run re-solved on a live solver via
    /// [`crate::Placer::rebase`] instead of encoding from scratch; `None`
    /// for cold runs.
    pub warm: Option<WarmStats>,
    /// Routing-closure summary when the placement came out of the
    /// place → route → tighten loop ([`crate::closure`]); `None` for
    /// plain placements.
    pub closure: Option<crate::closure::ClosureStats>,
}

/// How a warm re-solve ([`crate::Placer::rebase`]) reused the live solver,
/// carried in [`PlaceStats::warm`]. The moral twin of [`RungStats`]: the
/// recovery ladder re-lowers families because the *solver* blamed them,
/// the warm path because the *request delta* changed them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Families whose records differed from the cached encoding and were
    /// retired + re-lowered on the live solver. Empty when the incoming
    /// request lowered to a bit-identical constraint store.
    pub relowered: Vec<crate::ConstraintFamily>,
    /// Learnt clauses alive in the SAT core at rebase time, all of which
    /// carry into this run (clauses depending on a retired selector become
    /// vacuous but cost nothing).
    pub learnts_carried: u64,
}

/// One presolve pass as reported in [`PresolveStats::passes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PresolvePassStats {
    /// Pass name: `"domain"` or `"capacity"`.
    pub pass: &'static str,
    /// `"feasible"` or `"infeasible"`.
    pub verdict: String,
    /// What the pass established (narrowing counts or the proof sketch).
    pub detail: String,
}

/// Static-presolve summary carried in [`PlaceStats`] and `--stats-json`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Whether presolve ran.
    pub ran: bool,
    /// Overall verdict: `"feasible"` or `"infeasible"`.
    pub verdict: String,
    /// Bit-vector bits saved by domain pruning (0 when pruning was off or
    /// nothing narrowed).
    pub vars_saved_bits: u64,
    /// Per-pass outcomes, in execution order.
    pub passes: Vec<PresolvePassStats>,
}

/// What a `certify`-mode placement run captured and re-checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertifyReport {
    /// CNF clauses the bit-blaster produced (the certificate's axioms).
    pub cnf_clauses: usize,
    /// DRAT proof steps (clause additions + deletions) the SAT core
    /// emitted across all solve rounds.
    pub proof_steps: usize,
    /// Independent re-verification of the final model: number of
    /// [`Violation`]s `Placement::verify` found (0 for a sound run).
    pub model_violations: usize,
}

/// Pin-density parameters a placement was checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinDensityCheck {
    /// Window width in scaled units.
    pub beta_x: u32,
    /// Window height in scaled units.
    pub beta_y: u32,
    /// Pin-count threshold per window.
    pub lambda: u64,
    /// Horizontal window stride used by the encoding (scaled units).
    pub stride_x: u32,
    /// Vertical window stride.
    pub stride_y: u32,
}

/// A completed placement in unscaled grid units.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    /// Cell rectangles indexed by cell id.
    pub cells: Vec<Rect>,
    /// Region rectangles indexed by region id.
    pub regions: Vec<Rect>,
    /// Die outline.
    pub die: Rect,
    /// Edge-cell strips inserted by post-processing.
    pub edge_cells: Vec<Rect>,
    /// Dummy filler cells inserted by post-processing.
    pub dummy_cells: Vec<Rect>,
    /// Grid unit sizes `(w̄, h̄)` the placement is aligned to.
    pub units: (u32, u32),
    /// Pin-density parameters enforced during placement, if any.
    pub pin_density: Option<PinDensityCheck>,
    /// Run statistics.
    pub stats: PlaceStats,
}

impl Placement {
    /// Placed rectangle of a cell.
    pub fn cell_rect(&self, c: ams_netlist::CellId) -> Rect {
        self.cells[c.index()]
    }

    /// Total die area in grid units (the paper's "Area" metric).
    pub fn area_grid(&self) -> u64 {
        self.die.area()
    }

    /// Die area in µm².
    pub fn area_um2(&self, design: &Design) -> f64 {
        design.pitch().area_um2(self.area_grid())
    }

    /// Unweighted pin-based HPWL totals `(Σdx, Σdy)` in grid units over all
    /// physical (non-virtual) nets.
    pub fn hpwl_grid(&self, design: &Design) -> (u64, u64) {
        let mut total_x = 0u64;
        let mut total_y = 0u64;
        for n in design.net_ids() {
            if design.net(n).virtual_net {
                continue;
            }
            let conns = design.net_connections(n);
            if conns.len() < 2 {
                continue;
            }
            let (mut xl, mut xh, mut yl, mut yh) = (u64::MAX, 0u64, u64::MAX, 0u64);
            for &(c, pi) in conns {
                let pin = &design.cell(c).pins[pi];
                let r = self.cells[c.index()];
                let px = u64::from(r.x + pin.dx);
                let py = u64::from(r.y + pin.dy);
                xl = xl.min(px);
                xh = xh.max(px);
                yl = yl.min(py);
                yh = yh.max(py);
            }
            total_x += xh - xl;
            total_y += yh - yl;
        }
        (total_x, total_y)
    }

    /// Pin-based HPWL in µm.
    pub fn hpwl_um(&self, design: &Design) -> f64 {
        let (dx, dy) = self.hpwl_grid(design);
        let p = design.pitch();
        p.x_um(dx) + p.y_um(dy)
    }

    /// Convenience: combined grid HPWL (x + y spans).
    pub fn hpwl(&self, design: &Design) -> u64 {
        let (dx, dy) = self.hpwl_grid(design);
        dx + dy
    }

    /// Checks every hard constraint of the design against this placement.
    ///
    /// This is an independent oracle: it shares no code with the SMT
    /// encoders and re-derives every geometric requirement from the design.
    ///
    /// # Errors
    ///
    /// Returns all violations found (never just the first).
    pub fn verify(&self, design: &Design) -> Result<(), Vec<Violation>> {
        let mut v = Vec::new();
        self.check_grid(design, &mut v);
        self.check_containment(design, &mut v);
        self.check_region_separation(design, &mut v);
        self.check_overlap(design, &mut v);
        self.check_symmetry(design, &mut v);
        self.check_arrays(design, &mut v);
        self.check_power(design, &mut v);
        self.check_pin_density(design, &mut v);
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    fn check_grid(&self, design: &Design, out: &mut Vec<Violation>) {
        let (uw, uh) = self.units;
        for c in design.cell_ids() {
            let r = self.cells[c.index()];
            if !r.x.is_multiple_of(uw) || !r.y.is_multiple_of(uh) {
                out.push(Violation {
                    kind: ViolationKind::GridAlignment,
                    detail: format!(
                        "cell {} at ({}, {}) off the {}x{} site grid",
                        design.cell(c).name,
                        r.x,
                        r.y,
                        uw,
                        uh
                    ),
                });
            }
        }
    }

    fn check_containment(&self, design: &Design, out: &mut Vec<Violation>) {
        for c in design.cell_ids() {
            let cell = design.cell(c);
            let r = self.cells[c.index()];
            let region = self.regions[cell.region.index()];
            if r.w != cell.width || r.h != cell.height {
                out.push(Violation {
                    kind: ViolationKind::Containment,
                    detail: format!("cell {} has wrong dimensions", cell.name),
                });
            }
            if !region.contains_rect(r) {
                out.push(Violation {
                    kind: ViolationKind::Containment,
                    detail: format!("cell {} at {:?} escapes region {:?}", cell.name, r, region),
                });
            }
            if !self.die.contains_rect(r) {
                out.push(Violation {
                    kind: ViolationKind::Containment,
                    detail: format!("cell {} escapes the die", cell.name),
                });
            }
        }
    }

    fn check_region_separation(&self, design: &Design, out: &mut Vec<Violation>) {
        let n = design.regions().len();
        for i in 0..n {
            for j in (i + 1)..n {
                if self.regions[i].overlaps(self.regions[j]) {
                    out.push(Violation {
                        kind: ViolationKind::RegionSeparation,
                        detail: format!(
                            "regions {} and {} overlap",
                            design.regions()[i].name,
                            design.regions()[j].name
                        ),
                    });
                }
            }
        }
    }

    fn check_overlap(&self, design: &Design, out: &mut Vec<Violation>) {
        let cells: Vec<_> = design.cell_ids().collect();
        for (i, &a) in cells.iter().enumerate() {
            for &b in &cells[i + 1..] {
                if design.cell(a).region != design.cell(b).region {
                    continue;
                }
                if self.cells[a.index()].overlaps(self.cells[b.index()]) {
                    out.push(Violation {
                        kind: ViolationKind::Overlap,
                        detail: format!(
                            "cells {} and {} overlap",
                            design.cell(a).name,
                            design.cell(b).name
                        ),
                    });
                }
            }
        }
    }

    fn check_symmetry(&self, design: &Design, out: &mut Vec<Violation>) {
        // Resolve each group's axis from its root; all pairs of all groups
        // sharing that root must agree on 2·axis.
        let groups = &design.constraints().symmetry;
        let mut root_axis2: Vec<Option<u64>> = vec![None; groups.len()];
        for (gi, g) in groups.iter().enumerate() {
            let root = resolve_root(groups, gi);
            for p in &g.pairs {
                let ra = self.cells[p.a.index()];
                let doubled = match (g.axis, p.b) {
                    (SymmetryAxis::Vertical, None) => u64::from(2 * ra.x + ra.w),
                    (SymmetryAxis::Vertical, Some(b)) => {
                        let rb = self.cells[b.index()];
                        if ra.y != rb.y {
                            out.push(Violation {
                                kind: ViolationKind::Symmetry,
                                detail: format!(
                                    "mirror pair {}/{} not in the same row",
                                    design.cell(p.a).name,
                                    design.cell(b).name
                                ),
                            });
                        }
                        u64::from(ra.x + ra.w + rb.x)
                    }
                    (SymmetryAxis::Horizontal, None) => u64::from(2 * ra.y + ra.h),
                    (SymmetryAxis::Horizontal, Some(b)) => {
                        let rb = self.cells[b.index()];
                        if ra.x != rb.x {
                            out.push(Violation {
                                kind: ViolationKind::Symmetry,
                                detail: format!(
                                    "mirror pair {}/{} not in the same column",
                                    design.cell(p.a).name,
                                    design.cell(b).name
                                ),
                            });
                        }
                        u64::from(ra.y + ra.h + rb.y)
                    }
                };
                match root_axis2[root] {
                    None => root_axis2[root] = Some(doubled),
                    Some(prev) if prev != doubled => out.push(Violation {
                        kind: ViolationKind::Symmetry,
                        detail: format!(
                            "group {} axis disagrees: 2a = {} vs {}",
                            g.name, prev, doubled
                        ),
                    }),
                    _ => {}
                }
            }
        }
    }

    fn check_arrays(&self, design: &Design, out: &mut Vec<Violation>) {
        for arr in &design.constraints().arrays {
            if arr.cells.is_empty() {
                continue;
            }
            let mut bbox = self.cells[arr.cells[0].index()];
            let mut member_area = 0u64;
            for &c in &arr.cells {
                bbox = bbox.union(self.cells[c.index()]);
                member_area += self.cells[c.index()].area();
            }
            if bbox.area() != member_area {
                out.push(Violation {
                    kind: ViolationKind::Array,
                    detail: format!(
                        "array {} bbox area {} != member area {}",
                        arr.name,
                        bbox.area(),
                        member_area
                    ),
                });
            }
            match &arr.pattern {
                ArrayPattern::Dense => {}
                ArrayPattern::CommonCentroid { group_a, group_b } => {
                    let sum = |cells: &[ams_netlist::CellId]| -> (u64, u64) {
                        cells.iter().fold((0, 0), |(sx, sy), &c| {
                            let r = self.cells[c.index()];
                            (sx + u64::from(r.x), sy + u64::from(r.y))
                        })
                    };
                    let (ax, ay) = sum(group_a);
                    let (bx, by) = sum(group_b);
                    if ax != bx || ay != by {
                        out.push(Violation {
                            kind: ViolationKind::Array,
                            detail: format!(
                                "array {} centroid mismatch: A=({ax},{ay}) B=({bx},{by})",
                                arr.name
                            ),
                        });
                    }
                }
                ArrayPattern::Interdigitated { groups } => {
                    // Row-major order of members must cycle through the
                    // groups along each row.
                    let g = groups.len();
                    let mut members: Vec<ams_netlist::CellId> = arr.cells.clone();
                    members.sort_by_key(|&c| (self.cells[c.index()].y, self.cells[c.index()].x));
                    let group_of = |c: ams_netlist::CellId| -> usize {
                        groups
                            .iter()
                            .position(|grp| grp.contains(&c))
                            .unwrap_or(usize::MAX)
                    };
                    let mut row_start_y = None;
                    let mut col = 0usize;
                    for &c in &members {
                        let y = self.cells[c.index()].y;
                        if row_start_y != Some(y) {
                            row_start_y = Some(y);
                            col = 0;
                        }
                        if group_of(c) != col % g {
                            out.push(Violation {
                                kind: ViolationKind::Array,
                                detail: format!(
                                    "array {} interdigitation broken at {}",
                                    arr.name,
                                    design.cell(c).name
                                ),
                            });
                            break;
                        }
                        col += 1;
                    }
                }
                ArrayPattern::CentralSymmetric { pairs } => {
                    let (w, h) = (
                        self.cells[arr.cells[0].index()].w,
                        self.cells[arr.cells[0].index()].h,
                    );
                    for &(a, c) in pairs {
                        let (ra, rc) = (self.cells[a.index()], self.cells[c.index()]);
                        let sym_x = ra.x + rc.x == 2 * bbox.x + bbox.w - w;
                        let sym_y = ra.y + rc.y == 2 * bbox.y + bbox.h - h;
                        if !sym_x || !sym_y {
                            out.push(Violation {
                                kind: ViolationKind::Array,
                                detail: format!(
                                    "array {} pair {}/{} not center-symmetric",
                                    arr.name,
                                    design.cell(a).name,
                                    design.cell(c).name
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    fn check_power(&self, design: &Design, out: &mut Vec<Violation>) {
        // Within each region, the vertical extents of different power
        // groups must not interleave.
        for r in design.region_ids() {
            let mut extents: Vec<(ams_netlist::PowerGroupId, u32, u32)> = Vec::new();
            for c in design.cells_in_region(r) {
                let g = design.cell(c).power_group;
                let rect = self.cells[c.index()];
                match extents.iter_mut().find(|(gg, _, _)| *gg == g) {
                    Some((_, lo, hi)) => {
                        *lo = (*lo).min(rect.y);
                        *hi = (*hi).max(rect.top());
                    }
                    None => extents.push((g, rect.y, rect.top())),
                }
            }
            extents.sort_by_key(|&(_, lo, _)| lo);
            for w in extents.windows(2) {
                let (_, _, hi_a) = w[0];
                let (_, lo_b, _) = w[1];
                if lo_b < hi_a {
                    out.push(Violation {
                        kind: ViolationKind::PowerAbutment,
                        detail: format!(
                            "power bands interleave in region {}",
                            design.region(r).name
                        ),
                    });
                }
            }
        }
    }

    fn check_pin_density(&self, design: &Design, out: &mut Vec<Violation>) {
        let Some(pd) = self.pin_density else {
            return;
        };
        let (uw, uh) = self.units;
        let bw = pd.beta_x * uw;
        let bh = pd.beta_y * uh;
        if self.die.w < bw || self.die.h < bh {
            return;
        }
        // Scan the windows the encoding enforced: stride-stepped origins
        // plus the final one of an off-stride die. A coarser stride is an
        // explicit approximation knob (stride 1 reproduces the paper's |M|).
        let xs = window_origins(self.die.w / uw, pd.beta_x, pd.stride_x);
        let ys = window_origins(self.die.h / uh, pd.beta_y, pd.stride_y);
        for wy in ys.into_iter().map(|y| y * uh) {
            for wx in xs.iter().map(|&x| x * uw) {
                let win = Rect::new(wx, wy, bw, bh);
                let pins: u64 = design
                    .cell_ids()
                    .filter(|&c| self.cells[c.index()].overlaps(win))
                    .map(|c| design.pin_count(c) as u64)
                    .sum();
                if pins > pd.lambda {
                    out.push(Violation {
                        kind: ViolationKind::PinDensity,
                        detail: format!(
                            "window at ({wx}, {wy}) holds {pins} pins > λ = {}",
                            pd.lambda
                        ),
                    });
                }
            }
        }
    }
}

fn resolve_root(groups: &[ams_netlist::SymmetryGroup], mut gi: usize) -> usize {
    while let Some(parent) = groups[gi].share_axis_with {
        gi = parent;
    }
    gi
}

/// Builds an (unverified) placement directly from rectangles — used by the
/// baseline placer and by tests that construct layouts by hand.
pub fn placement_from_rects(
    cells: Vec<Rect>,
    regions: Vec<Rect>,
    die: Rect,
    scale: &ScaleInfo,
) -> Placement {
    Placement {
        cells,
        regions,
        die,
        edge_cells: Vec::new(),
        dummy_cells: Vec::new(),
        units: (scale.unit_w, scale.unit_h),
        pin_density: None,
        stats: PlaceStats::default(),
    }
}
