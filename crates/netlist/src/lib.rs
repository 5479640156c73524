//! # ams-netlist
//!
//! The region-based FinFET AMS circuit model of the DATE 2022 placement
//! paper this workspace reproduces: primitive cells with pins, signal nets,
//! placement regions, power groups, and the four AMS constraint families
//! (hierarchical symmetry, array/common-centroid, cluster, extension).
//!
//! The [`benchmarks`] module generates the paper's two evaluation circuits
//! (a 16-to-1 multiplexing buffer and a four-stage VCO) as synthetic
//! netlists matching the published statistics (Table II), plus parametric
//! random designs for scaling studies and property-based testing.
//!
//! ## Example
//!
//! ```
//! use ams_netlist::benchmarks;
//!
//! let buf = benchmarks::buf();
//! assert_eq!(buf.regions().len(), 1);
//! assert_eq!(buf.cells().len(), 42);
//! assert_eq!(buf.nets().len(), 66);
//! ```

mod constraint;
mod design;
mod elements;
mod geom;
mod ids;

pub mod benchmarks;
pub mod diag;
pub mod json;
pub mod rng;
pub mod structure;

pub use constraint::{
    ArrayConstraint, ArrayPattern, ClusterConstraint, ConstraintSet, ExtensionConstraint,
    ExtensionTarget, SymmetryAxis, SymmetryGroup, SymmetryGroupIdx, SymmetryPair,
};
pub use design::{Design, DesignBuilder, ParseDesignError, ValidateDesignError};
pub use diag::{DiagCode, Diagnostic, LintReport, Severity};
pub use elements::{Cell, CellKind, Net, Pin, PowerGroup, Region};
pub use geom::{Pitch, Point, Rect};
pub use ids::{CellId, NetId, PowerGroupId, RegionId};
