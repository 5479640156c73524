//! SMT constraint encoders, one module per formula family of Section IV.C.
//!
//! All geometric comparisons are lifted one bit above the coordinate width
//! (`zext`) before adding sizes or margins, so bit-vector wraparound can
//! never satisfy a constraint spuriously.

pub(crate) mod array;
pub(crate) mod pin_density;
pub(crate) mod power_abut;
pub(crate) mod region;
pub(crate) mod symmetry;
pub(crate) mod wirelength;

use crate::config::PlacerConfig;
use crate::ir::ConstraintStore;
use crate::power::PowerPlan;
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::Design;
use ams_smt::{Smt, Term};

/// The complete constraint formulation of one design under one
/// configuration (Section IV.C, a–g), emitted into a fresh
/// [`ConstraintStore`] — the single encode path shared by the placer and
/// the UNSAT explainer. Terms are built in `smt`'s pool; nothing is
/// asserted until the store is lowered. Encoders create no variables
/// (those live in the [`VarMap`]), and the pool interns every term, so
/// re-encoding into a live solver returns term-identical records for
/// every family the new configuration leaves unchanged.
pub(crate) struct Encoding {
    /// The emitted constraint records.
    pub store: ConstraintStore,
    /// Effective pin-density parameters, when that family is configured.
    pub pd_info: Option<pin_density::PinDensityInfo>,
    /// The weighted-wirelength expression Φ.
    pub phi: Term,
    /// Bit width of Φ.
    pub phi_w: u32,
}

/// Runs every encoder over the design. The emission order is fixed —
/// core geometry, symmetry, arrays, power abutment, pin density,
/// wirelength — matching [`crate::ir::ConstraintFamily::ALL`].
pub(crate) fn encode_design(
    smt: &mut Smt,
    design: &Design,
    scale: &ScaleInfo,
    plan: &PowerPlan,
    vars: &VarMap,
    config: &PlacerConfig,
) -> Encoding {
    let mut store = ConstraintStore::new();
    region::assert_regions(smt, &mut store, design, scale, vars, config);
    region::assert_containment(smt, &mut store, design, scale, vars);
    let margins = region::cell_margins(design, scale, config);
    region::assert_cell_non_overlap(smt, &mut store, design, scale, vars, config, &margins);
    if config.toggles.symmetry {
        symmetry::assert_symmetry(smt, &mut store, design, scale, vars);
    }
    if config.toggles.arrays {
        array::assert_arrays(smt, &mut store, design, scale, vars, config);
    }
    if config.toggles.power_abutment {
        power_abut::assert_power_abutment(smt, &mut store, design, scale, vars, plan);
    }
    let pd_info = config
        .pin_density
        .as_ref()
        .map(|pd| pin_density::assert_pin_density(smt, &mut store, design, scale, vars, pd));
    let (phi, phi_w) = wirelength::assert_wirelength(smt, &mut store, design, scale, vars, config);
    Encoding {
        store,
        pd_info,
        phi,
        phi_w,
    }
}

/// `zext(t, w+1) + c` — a coordinate plus a constant offset, computed one
/// bit wide so it cannot wrap.
pub(crate) fn off_const(smt: &mut Smt, t: Term, c: u64, lifted_width: u32) -> Term {
    let z = smt.zext(t, lifted_width);
    if c == 0 {
        z
    } else {
        let k = smt.bv_const(lifted_width, c);
        smt.add(z, k)
    }
}

/// `zext(a, w+1) + zext(b, w+1)` for variable sizes (region extents).
pub(crate) fn off_var(smt: &mut Smt, a: Term, b: Term, lifted_width: u32) -> Term {
    let za = smt.zext(a, lifted_width);
    let zb = smt.zext(b, lifted_width);
    smt.add(za, zb)
}

/// Lifted widths for x/y comparisons.
pub(crate) fn lifted(scale: &ScaleInfo) -> (u32, u32) {
    (scale.lx + 1, scale.ly + 1)
}
