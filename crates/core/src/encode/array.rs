//! Array constraints (Eq. 9) with common-centroid patterns (Eq. 10) and
//! array-target extension margins (Eq. 11 applied to array bounding boxes).
//!
//! Two encodings exist:
//!
//! * **Slot mode**: the array's shape is chosen from the feasible
//!   `(cols, rows)` factorizations by a selector disjunction, and each
//!   member is pinned to a canonical slot of that shape. Common-centroid
//!   A/B slot partitions with equal coordinate sums are computed statically
//!   in Rust, so Eq. 10 holds by construction. This removes the
//!   permutation freedom that makes dense packing hard for CDCL search.
//! * **Literal mode**: the paper's Eq. 9–10 as written — bounding boxes
//!   with tight edges, a density disjunction, and coordinate-sum
//!   equalities. It encodes the Dense and CommonCentroid arrays that admit
//!   no slot order under any shape.

use super::region::rescale;
use super::{lifted, off_const};
use crate::config::PlacerConfig;
use crate::ir::{ConstraintFamily, ConstraintStore, Provenance};
use crate::scale::ScaleInfo;
use crate::vars::VarMap;
use ams_netlist::{ArrayPattern, CellId, Design, ExtensionTarget};
use ams_smt::{Smt, Term};

/// Asserts every array constraint.
pub(crate) fn assert_arrays(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    config: &PlacerConfig,
) {
    store.family(ConstraintFamily::Arrays);
    for (ai, arr) in design.constraints().arrays.iter().enumerate() {
        if arr.cells.is_empty() {
            continue;
        }
        store.at(Provenance::Array(ai));
        // Interdigitation and central symmetry are realized only by slot
        // assignment; the literal Eq. 9–10 fallback covers Dense and
        // CommonCentroid.
        let force_slots = matches!(
            arr.pattern,
            ArrayPattern::Interdigitated { .. } | ArrayPattern::CentralSymmetric { .. }
        );
        let slotted = assert_array_slots(smt, store, design, scale, vars, ai, force_slots);
        if !slotted {
            assert_array_literal(smt, store, design, scale, vars, ai);
        }
        assert_array_keepout(smt, store, design, scale, vars, config, ai);
    }
}

/// Whether slot mode fully determines member positions of array `ai`
/// (letting cell non-overlap encoding skip member pairs).
pub(crate) fn slots_cover_pairs(design: &Design, scale: &ScaleInfo, ai: usize) -> bool {
    let arr = &design.constraints().arrays[ai];
    if arr.cells.is_empty() {
        return false;
    }
    let cw = scale.width_of(arr.cells[0]);
    let ch = scale.height_of(arr.cells[0]);
    let shapes = shape_candidates(scale, arr.cells.len() as u64, cw, ch);
    !usable_shapes(design, ai, &shapes).is_empty()
}

/// The subset of shapes admitting a static slot order, paired with them.
fn usable_shapes(
    design: &Design,
    ai: usize,
    shapes: &[(u64, u64)],
) -> Vec<((u64, u64), Vec<CellId>)> {
    shapes
        .iter()
        .filter_map(|&(cols, rows)| {
            slot_order_for_shape(design, ai, cols, rows).map(|o| ((cols, rows), o))
        })
        .collect()
}

/// Feasible `(cols, rows)` shapes of an array on the given die.
fn shape_candidates(scale: &ScaleInfo, n: u64, cw: u32, ch: u32) -> Vec<(u64, u64)> {
    let mut shapes = Vec::new();
    for rows in 1..=n {
        if !n.is_multiple_of(rows) {
            continue;
        }
        let cols = n / rows;
        let dw = cols * u64::from(cw);
        let dh = rows * u64::from(ch);
        if dw <= u64::from(scale.scaled_w) && dh <= u64::from(scale.scaled_h) {
            shapes.push((cols, rows));
        }
    }
    shapes
}

/// Row-major slot order for one array under one `(cols, rows)` shape.
///
/// For dense arrays any order works; for common-centroid arrays we pair
/// slot `k` with its point-mirror `n-1-k` (one A and one B per pair) and
/// search the 2^(n/2) pair orientations for one with exactly equal A/B
/// coordinate sums — Eq. 10 then holds by construction. `None` when no
/// orientation achieves it under this shape (that shape is skipped).
fn slot_order_for_shape(design: &Design, ai: usize, cols: u64, rows: u64) -> Option<Vec<CellId>> {
    let arr = &design.constraints().arrays[ai];
    match &arr.pattern {
        ArrayPattern::Dense => Some(arr.cells.clone()),
        ArrayPattern::Interdigitated { groups } => {
            // Groups alternate along each row (ABAB…); a shape is usable
            // when every row holds a whole number of interleave periods.
            let g = groups.len() as u64;
            if !cols.is_multiple_of(g) {
                return None;
            }
            let n = arr.cells.len();
            let mut cursors = vec![0usize; groups.len()];
            let mut order = Vec::with_capacity(n);
            for slot in 0..n as u64 {
                let group = (slot % cols % g) as usize;
                let c = groups[group][cursors[group]];
                cursors[group] += 1;
                order.push(c);
            }
            Some(order)
        }
        ArrayPattern::CentralSymmetric { pairs } => {
            // Pair k occupies the point-mirrored slots (k, n-1-k).
            let n = arr.cells.len();
            let _ = (cols, rows);
            let mut order: Vec<Option<CellId>> = vec![None; n];
            for (k, &(a, b)) in pairs.iter().enumerate() {
                order[k] = Some(a);
                order[n - 1 - k] = Some(b);
            }
            order.into_iter().collect()
        }
        ArrayPattern::CommonCentroid { group_a, group_b } => {
            if group_a.len() != group_b.len() || group_a.len() + group_b.len() != arr.cells.len() {
                return None;
            }
            let n = arr.cells.len();
            let half = n / 2;
            if half > 20 {
                return None; // orientation search too large; use Eq. 10
            }
            let slot_x = |s: usize| (s as u64 % cols) as i64;
            let slot_y = |s: usize| (s as u64 / cols) as i64;
            let _ = rows;
            for bits in 0u32..(1 << half) {
                let (mut dx, mut dy) = (0i64, 0i64);
                for k in 0..half {
                    // Pair k occupies slots (k, n-1-k); orientation bit
                    // decides which slot group A takes.
                    let (a_slot, b_slot) = if bits >> k & 1 == 0 {
                        (k, n - 1 - k)
                    } else {
                        (n - 1 - k, k)
                    };
                    dx += slot_x(a_slot) - slot_x(b_slot);
                    dy += slot_y(a_slot) - slot_y(b_slot);
                }
                if dx == 0 && dy == 0 {
                    let mut order: Vec<Option<CellId>> = vec![None; n];
                    for k in 0..half {
                        let (a_slot, b_slot) = if bits >> k & 1 == 0 {
                            (k, n - 1 - k)
                        } else {
                            (n - 1 - k, k)
                        };
                        order[a_slot] = Some(group_a[k]);
                        order[b_slot] = Some(group_b[k]);
                    }
                    return order.into_iter().collect();
                }
            }
            None
        }
    }
}

/// Slot-mode encoding; returns `false` when no static partition exists,
/// unless the pattern is `forced` into slots: then the array's disjunction
/// of options is empty, asserted false, and the solve fails on this array.
fn assert_array_slots(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    ai: usize,
    forced: bool,
) -> bool {
    let arr = &design.constraints().arrays[ai];
    let bx = vars.array_box[ai];
    let (lwx, lwy) = lifted(scale);
    let cw = scale.width_of(arr.cells[0]);
    let ch = scale.height_of(arr.cells[0]);
    let n = arr.cells.len() as u64;
    let shapes = shape_candidates(scale, n, cw, ch);
    let usable = usable_shapes(design, ai, &shapes);
    if usable.is_empty() && !forced {
        return false;
    }

    let mut options: Vec<Term> = Vec::with_capacity(usable.len());
    for ((cols, rows), order) in &usable {
        let (cols, rows) = (*cols, *rows);
        let mut conj: Vec<Term> = Vec::with_capacity(order.len() * 2 + 2);
        for (slot, &c) in order.iter().enumerate() {
            let col = slot as u64 % cols;
            let row = slot as u64 / cols;
            let sx = off_const(smt, bx.xl, col * u64::from(cw), lwx);
            let x = smt.zext(vars.cell_x[c.index()], lwx);
            conj.push(smt.eq(x, sx));
            let sy = off_const(smt, bx.yl, row * u64::from(ch), lwy);
            let y = smt.zext(vars.cell_y[c.index()], lwy);
            conj.push(smt.eq(y, sy));
        }
        // Tie the box extent to the shape so keep-out sees the real box.
        let right = off_const(smt, bx.xl, cols * u64::from(cw), lwx);
        let xh = smt.zext(bx.xh, lwx);
        conj.push(smt.eq(xh, right));
        let top = off_const(smt, bx.yl, rows * u64::from(ch), lwy);
        let yh = smt.zext(bx.yh, lwy);
        conj.push(smt.eq(yh, top));
        options.push(smt.and(&conj));
    }
    let chosen = smt.or(&options);
    store.assert(chosen);
    true
}

/// The literal Eq. 9–10 encoding.
fn assert_array_literal(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    ai: usize,
) {
    let arr = &design.constraints().arrays[ai];
    let bx = vars.array_box[ai];
    let (lwx, lwy) = lifted(scale);
    let cw = scale.width_of(arr.cells[0]);
    let ch = scale.height_of(arr.cells[0]);
    let n = arr.cells.len() as u64;

    // Bounding constraints plus tightness.
    let mut touch_left = Vec::new();
    let mut touch_right = Vec::new();
    let mut touch_bottom = Vec::new();
    let mut touch_top = Vec::new();
    for &c in &arr.cells {
        let x = vars.cell_x[c.index()];
        let y = vars.cell_y[c.index()];
        let ge_l = smt.ule(bx.xl, x);
        store.assert(ge_l);
        let right = off_const(smt, x, u64::from(cw), lwx);
        let xh = smt.zext(bx.xh, lwx);
        let le_r = smt.ule(right, xh);
        store.assert(le_r);
        let ge_b = smt.ule(bx.yl, y);
        store.assert(ge_b);
        let top = off_const(smt, y, u64::from(ch), lwy);
        let yh = smt.zext(bx.yh, lwy);
        let le_t = smt.ule(top, yh);
        store.assert(le_t);

        touch_left.push(smt.eq(bx.xl, x));
        touch_right.push(smt.eq(xh, right));
        touch_bottom.push(smt.eq(bx.yl, y));
        touch_top.push(smt.eq(yh, top));
    }
    for touches in [touch_left, touch_right, touch_bottom, touch_top] {
        let some = smt.or(&touches);
        store.assert(some);
    }

    // Density (Eq. 9) as a disjunction over feasible factorizations; none
    // fitting the die leaves it empty, which is false.
    let shapes = shape_candidates(scale, n, cw, ch);
    let mut dims: Vec<Term> = Vec::new();
    for &(cols, rows) in &shapes {
        let xl_dw = off_const(smt, bx.xl, cols * u64::from(cw), lwx);
        let xh = smt.zext(bx.xh, lwx);
        let w_ok = smt.eq(xh, xl_dw);
        let yl_dh = off_const(smt, bx.yl, rows * u64::from(ch), lwy);
        let yh = smt.zext(bx.yh, lwy);
        let h_ok = smt.eq(yh, yl_dh);
        dims.push(smt.and2(w_ok, h_ok));
    }
    let shape = smt.or(&dims);
    store.assert(shape);

    // Common-centroid pattern (Eq. 10).
    if let ArrayPattern::CommonCentroid { group_a, group_b } = &arr.pattern {
        let sw = scale.lx + crate::scale::bits_for(group_a.len().max(group_b.len()) as u32) + 1;
        let xa: Vec<Term> = group_a.iter().map(|c| vars.cell_x[c.index()]).collect();
        let xb: Vec<Term> = group_b.iter().map(|c| vars.cell_x[c.index()]).collect();
        let sum_a = smt.sum(&xa, sw);
        let sum_b = smt.sum(&xb, sw);
        let eq_x = smt.eq(sum_a, sum_b);
        store.assert(eq_x);

        let sh = scale.ly + crate::scale::bits_for(group_a.len().max(group_b.len()) as u32) + 1;
        let ya: Vec<Term> = group_a.iter().map(|c| vars.cell_y[c.index()]).collect();
        let yb: Vec<Term> = group_b.iter().map(|c| vars.cell_y[c.index()]).collect();
        let sum_a = smt.sum(&ya, sh);
        let sum_b = smt.sum(&yb, sh);
        let eq_y = smt.eq(sum_a, sum_b);
        store.assert(eq_y);
    }
}

/// Non-members of array `ai` keep clear of its (extension-expanded) box.
fn assert_array_keepout(
    smt: &mut Smt,
    store: &mut ConstraintStore,
    design: &Design,
    scale: &ScaleInfo,
    vars: &VarMap,
    config: &PlacerConfig,
    ai: usize,
) {
    let arr = &design.constraints().arrays[ai];
    let bx = vars.array_box[ai];
    let (lwx, lwy) = lifted(scale);
    let (mut ml, mut mr, mut mb, mut mt) = (0u32, 0u32, 0u32, 0u32);
    if config.toggles.extensions {
        for e in &design.constraints().extensions {
            if e.target == ExtensionTarget::Array(ai) {
                ml = ml.max(rescale(scale.scale_x_ceil(e.left), config));
                mr = mr.max(rescale(scale.scale_x_ceil(e.right), config));
                mb = mb.max(rescale(scale.scale_y_ceil(e.bottom), config));
                mt = mt.max(rescale(scale.scale_y_ceil(e.top), config));
            }
        }
    }
    let region = design.cell(arr.cells[0]).region;
    let members: std::collections::HashSet<_> = arr.cells.iter().copied().collect();
    for u in design.cells_in_region(region) {
        if members.contains(&u) {
            continue;
        }
        let (wu, hu) = (scale.width_of(u), scale.height_of(u));
        let xu = vars.cell_x[u.index()];
        let yu = vars.cell_y[u.index()];

        let u_right = off_const(smt, xu, u64::from(wu + ml), lwx);
        let xl = smt.zext(bx.xl, lwx);
        let left_of = smt.ule(u_right, xl);

        let box_right = off_const(smt, bx.xh, u64::from(mr), lwx);
        let xu_l = smt.zext(xu, lwx);
        let right_of = smt.ule(box_right, xu_l);

        let u_top = off_const(smt, yu, u64::from(hu + mb), lwy);
        let yl = smt.zext(bx.yl, lwy);
        let below = smt.ule(u_top, yl);

        let box_top = off_const(smt, bx.yh, u64::from(mt), lwy);
        let yu_l = smt.zext(yu, lwy);
        let above = smt.ule(box_top, yu_l);

        let clear = smt.or(&[left_of, right_of, below, above]);
        store.assert(clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::benchmarks;

    #[test]
    fn vco_cap_banks_have_slot_orders_with_exact_centroids() {
        let d = benchmarks::vco();
        for (ai, arr) in d.constraints().arrays.iter().enumerate() {
            let n = arr.cells.len() as u64;
            let ArrayPattern::CommonCentroid { group_a, group_b } = &arr.pattern else {
                panic!("VCO arrays are common-centroid");
            };
            let mut found = 0;
            for rows in 1..=n {
                if !n.is_multiple_of(rows) {
                    continue;
                }
                let cols = n / rows;
                let Some(order) = slot_order_for_shape(&d, ai, cols, rows) else {
                    continue;
                };
                found += 1;
                // Verify exactly equal coordinate sums per group.
                let (mut ax, mut ay, mut bx, mut by) = (0u64, 0u64, 0u64, 0u64);
                for (slot, c) in order.iter().enumerate() {
                    let (x, y) = (slot as u64 % cols, slot as u64 / cols);
                    if group_a.contains(c) {
                        ax += x;
                        ay += y;
                    } else {
                        assert!(group_b.contains(c));
                        bx += x;
                        by += y;
                    }
                }
                assert_eq!((ax, ay), (bx, by), "shape {cols}x{rows} sums differ");
            }
            assert!(found >= 2, "expected several centroid-exact shapes");
        }
    }

    #[test]
    fn odd_group_sums_admit_no_order_on_skinny_shapes() {
        // A 7+7 array on a 14x1 shape has odd total x-sum: no exact
        // centroid order can exist; the encoder must fall back.
        use ams_netlist::{ArrayConstraint, DesignBuilder};
        let mut b = DesignBuilder::new("odd");
        let r = b.add_region("r", 0.8);
        let pg = b.add_power_group("VDD");
        let net = b.add_net("n", 1);
        let cells: Vec<_> = (0..14)
            .map(|i| b.add_cell(format!("c{i}"), r, 2, 2, pg))
            .collect();
        b.add_pin(cells[0], "p", Some(net), 0, 0);
        b.add_pin(cells[1], "p", Some(net), 0, 0);
        b.add_array(ArrayConstraint {
            name: "odd".into(),
            cells: cells.clone(),
            pattern: ArrayPattern::CommonCentroid {
                group_a: cells[..7].to_vec(),
                group_b: cells[7..].to_vec(),
            },
        });
        let d = b.build().expect("valid");
        assert!(slot_order_for_shape(&d, 0, 14, 1).is_none());
        assert!(slot_order_for_shape(&d, 0, 7, 2).is_none());
    }
}
