//! # ams-place
//!
//! The SMT-based routability-aware placement framework for region-based
//! FinFET AMS layouts — the primary contribution of the DATE 2022 paper
//! this workspace reproduces.
//!
//! The flow (Fig. 3 of the paper):
//!
//! 1. **Power analysis** ([`PowerPlan`]) derives power-abutment constraints;
//! 2. **SMT placement** ([`Placer`], built via [`Placer::builder`]) encodes
//!    regions, non-overlap, hierarchical symmetry, arrays/common-centroid,
//!    clusters, extensions, power abutment, and window-based pin density
//!    into quantifier-free bit-vector formulas, then optimizes wirelength
//!    by incremental solving (Algorithm 1) with assumption-based variable
//!    freezing (Eq. 15); each solve can fan out over a parallel solver
//!    portfolio ([`SolverConfig::threads`] or [`PlacerBuilder::threads`]);
//! 3. **Post-processing** inserts edge and dummy cells.
//!
//! [`Placement::verify`] is an independent legality oracle, and
//! [`baseline::manual_surrogate`] provides the manual-layout stand-in used
//! by the evaluation harness.
//!
//! Before encoding, the [`analysis`] linter vets the design + constraint
//! set + configuration and reports structured `AMS-Exxx` diagnostics;
//! provably-broken inputs fail fast with [`PlaceError::Lint`] instead of a
//! late solver UNSAT, and [`analysis::explain_unsat`] attributes genuine
//! UNSATs to the conflicting constraint families. The [`analysis::presolve`]
//! analyzer goes further: abstract-interpretation interval domains narrow
//! variable bit-widths before encoding, and capacity/counting proofs — the
//! same proofs the linter reports as its geometric errors — turn some
//! infeasibilities into provenance-cited verdicts with zero solver
//! conflicts.
//!
//! ## Example
//!
//! ```no_run
//! use ams_netlist::benchmarks;
//! use ams_place::{Placer, PlacerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = benchmarks::buf();
//! let placement = Placer::builder(&design)
//!     .config(PlacerConfig::default())
//!     .build()?
//!     .place()?;
//! assert!(placement.verify(&design).is_ok());
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod api;
pub mod baseline;
pub mod brute;
pub mod closure;
mod config;
mod encode;
pub mod ir;
mod placement;
mod placer;
mod post;
mod power;
mod scale;
pub mod scenario;
mod svg;
mod vars;

pub use analysis::presolve::{PresolveConflict, PresolveReport, PresolveVerdict};
pub use closure::{ClosureConfig, ClosureStats, RouteFeedback, WindowRect};
pub use config::{
    solver_env, OptimizeConfig, PinDensityConfig, PlacerConfig, PresolveConfig, RecoveryConfig,
    SolverConfig,
};
pub use ir::{ConstraintFamily, FamilyStats, Provenance};
pub use placement::{
    placement_from_rects, CertifyReport, DegradeReason, PinDensityCheck, PlaceOutcome, PlaceStats,
    Placement, PresolvePassStats, PresolveStats, Relaxation, RungStats, Violation, ViolationKind,
    WarmStats,
};
pub use placer::{PlaceError, Placer, PlacerBuilder, WarmReuse};
// Re-exported so downstream consumers can validate infeasibility
// certificates without depending on `ams_sat` directly.
pub use ams_sat::drat;
pub use power::{PowerPlan, RegionPowerPlan};
pub use scale::{bits_for, ScaleInfo};
pub use svg::render_svg;
