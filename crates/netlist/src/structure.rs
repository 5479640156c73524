//! Structural well-formedness checks over a constraint set: dangling ids,
//! contradictory pairings, malformed array patterns, and dead constraints.
//!
//! This is the one prover of constraint well-formedness. Every [`Design`]
//! runs it on its own constraint set when it is built or parsed, and is
//! rejected on the findings the encoders cannot survive (see
//! [`crate::ValidateDesignError::Constraints`]). The linter runs it on any
//! constraint set, so a candidate set can be vetted against a design
//! without building one around it.

use crate::constraint::{ArrayConstraint, ArrayPattern, ConstraintSet, ExtensionTarget};
use crate::design::Design;
use crate::diag::{DiagCode, Diagnostic, LintReport};
use crate::elements::CellKind;
use crate::ids::{CellId, RegionId};
use crate::SymmetryAxis;
use std::collections::{HashMap, HashSet};

/// Name of a cell if its id is in range, else a placeholder with the index.
fn cell_name(design: &Design, c: CellId) -> String {
    if c.index() < design.cells().len() {
        design.cell(c).name.clone()
    } else {
        format!("<cell #{}>", c.index())
    }
}

/// Appends the structural findings of `cs` against `design` to `report`.
pub fn check(design: &Design, cs: &ConstraintSet, report: &mut LintReport) {
    check_symmetry(design, cs, report);
    check_arrays(design, cs, report);
    check_clusters(design, cs, report);
    check_extensions(design, cs, report);
    check_unreferenced(design, cs, report);
}

fn check_symmetry(design: &Design, cs: &ConstraintSet, report: &mut LintReport) {
    let ncells = design.cells().len();
    // (unordered pair, axis) across all groups, for duplicate detection.
    let mut seen_pairs: HashMap<(CellId, CellId, bool), String> = HashMap::new();

    for (gi, g) in cs.symmetry.iter().enumerate() {
        if g.pairs.is_empty() {
            report.push(
                Diagnostic::new(
                    DiagCode::EmptyConstraint,
                    format!("symmetry group '{}' has no pairs", g.name),
                )
                .entity(&g.name)
                .suggest("remove the group or add mirrored pairs"),
            );
        }
        if let Some(parent) = g.share_axis_with {
            if parent >= cs.symmetry.len() {
                report.push(
                    Diagnostic::new(
                        DiagCode::SymmetryCyclicShare,
                        format!(
                            "symmetry group '{}' shares its axis with missing group #{parent}",
                            g.name
                        ),
                    )
                    .entity(&g.name)
                    .suggest("reference an existing earlier group"),
                );
            } else if parent >= gi {
                report.push(
                    Diagnostic::new(
                        DiagCode::SymmetryCyclicShare,
                        format!(
                            "symmetry group '{}' shares its axis with group '{}' which does \
                             not precede it; axis-sharing must be acyclic (parents first)",
                            g.name, cs.symmetry[parent].name
                        ),
                    )
                    .entity(&g.name)
                    .suggest("reorder the groups so every parent precedes its children"),
                );
            }
        }

        let mut members_in_group: HashSet<CellId> = HashSet::new();
        for p in &g.pairs {
            let mut ids = vec![p.a];
            ids.extend(p.b);
            let mut dangling = false;
            for &c in &ids {
                if c.index() >= ncells {
                    dangling = true;
                    report.push(
                        Diagnostic::new(
                            DiagCode::SymmetryDanglingCell,
                            format!(
                                "symmetry group '{}' references cell #{} but the design \
                                 has only {ncells} cells",
                                g.name,
                                c.index()
                            ),
                        )
                        .entity(&g.name)
                        .suggest("drop the pair or fix the cell id"),
                    );
                }
            }
            for &c in &ids {
                if c.index() < ncells && !members_in_group.insert(c) {
                    report.push(
                        Diagnostic::new(
                            DiagCode::SymmetryOverconstrained,
                            format!(
                                "cell '{}' appears in more than one pair of symmetry group \
                                 '{}'; its mirror partners would be forced onto the same \
                                 position",
                                cell_name(design, c),
                                g.name
                            ),
                        )
                        .entity(cell_name(design, c))
                        .entity(&g.name)
                        .suggest("keep each cell in at most one pair per group"),
                    );
                }
            }
            if dangling {
                continue;
            }
            if let Some(b) = p.b {
                if p.a == b {
                    report.push(
                        Diagnostic::new(
                            DiagCode::ContradictoryConstraint,
                            format!(
                                "cell '{}' is mirrored onto itself in group '{}'",
                                cell_name(design, p.a),
                                g.name
                            ),
                        )
                        .entity(cell_name(design, p.a))
                        .suggest("use a self-symmetric pair (b = None) instead"),
                    );
                    continue;
                }
                let (ca, cb) = (design.cell(p.a), design.cell(b));
                if ca.width != cb.width || ca.height != cb.height || ca.region != cb.region {
                    report.push(
                        Diagnostic::new(
                            DiagCode::SymmetryHeightMismatch,
                            format!(
                                "symmetry pair ('{}', '{}') in group '{}' joins cells of \
                                 {}x{} and {}x{} in {}; mirrored cells must share \
                                 dimensions and a region",
                                ca.name,
                                cb.name,
                                g.name,
                                ca.width,
                                ca.height,
                                cb.width,
                                cb.height,
                                if ca.region == cb.region {
                                    "the same region".to_string()
                                } else {
                                    "different regions".to_string()
                                },
                            ),
                        )
                        .entities([ca.name.clone(), cb.name.clone()])
                        .suggest("pair congruent cells of one region"),
                    );
                    continue;
                }
                let vertical = matches!(g.axis, SymmetryAxis::Vertical);
                let key = if p.a < b {
                    (p.a, b, vertical)
                } else {
                    (b, p.a, vertical)
                };
                if let Some(first) = seen_pairs.get(&key) {
                    report.push(
                        Diagnostic::new(
                            DiagCode::DuplicateConstraint,
                            format!(
                                "pair ('{}', '{}') is constrained by both group '{first}' \
                                 and group '{}' about the same axis orientation",
                                ca.name, cb.name, g.name
                            ),
                        )
                        .entities([ca.name.clone(), cb.name.clone()])
                        .suggest("keep the pair in a single group"),
                    );
                } else {
                    seen_pairs.insert(key, g.name.clone());
                }
            }
        }
    }
}

fn check_arrays(design: &Design, cs: &ConstraintSet, report: &mut LintReport) {
    let ncells = design.cells().len();
    let mut array_of: HashMap<CellId, &str> = HashMap::new();

    for a in &cs.arrays {
        if a.cells.len() < 2 {
            report.push(
                Diagnostic::new(
                    DiagCode::EmptyConstraint,
                    format!("array '{}' has fewer than two cells", a.name),
                )
                .entity(&a.name)
                .suggest("remove the array or add members"),
            );
        }
        let mut members: HashSet<CellId> = HashSet::new();
        let mut dims: Option<(u32, u32, RegionId)> = None;
        let mut ragged = false;
        for &c in &a.cells {
            if c.index() >= ncells {
                report.push(
                    Diagnostic::new(
                        DiagCode::ArrayDanglingCell,
                        format!(
                            "array '{}' references cell #{} but the design has only \
                             {ncells} cells",
                            a.name,
                            c.index()
                        ),
                    )
                    .entity(&a.name)
                    .suggest("drop the member or fix the cell id"),
                );
                continue;
            }
            if !members.insert(c) {
                report.push(
                    Diagnostic::new(
                        DiagCode::ContradictoryConstraint,
                        format!(
                            "cell '{}' is listed twice in array '{}'",
                            cell_name(design, c),
                            a.name
                        ),
                    )
                    .entity(cell_name(design, c))
                    .suggest("deduplicate the member list"),
                );
            }
            match array_of.get(&c) {
                Some(&other) if other != a.name => {
                    report.push(
                        Diagnostic::new(
                            DiagCode::ContradictoryConstraint,
                            format!(
                                "cell '{}' belongs to both array '{other}' and array '{}'; \
                                 two dense packings cannot hold simultaneously",
                                cell_name(design, c),
                                a.name
                            ),
                        )
                        .entity(cell_name(design, c))
                        .suggest("keep each cell in a single array"),
                    );
                }
                _ => {
                    array_of.insert(c, &a.name);
                }
            }
            let cell = design.cell(c);
            let d = (cell.width, cell.height, cell.region);
            match dims {
                None => dims = Some(d),
                Some(prev) if prev != d => ragged = true,
                _ => {}
            }
        }
        if ragged {
            report.push(
                Diagnostic::new(
                    DiagCode::ArrayRaggedCells,
                    format!(
                        "array '{}' mixes cells of different dimensions or regions; \
                         Eq. 9 packs congruent devices only",
                        a.name
                    ),
                )
                .entity(&a.name)
                .suggest("split the array per device size"),
            );
        }
        check_pattern(design, a, &members, report);
    }
}

fn check_pattern(
    design: &Design,
    a: &ArrayConstraint,
    members: &HashSet<CellId>,
    report: &mut LintReport,
) {
    let bad = |msg: String, report: &mut LintReport| {
        report.push(
            Diagnostic::new(DiagCode::ArrayBadPattern, msg)
                .entity(&a.name)
                .suggest("make the pattern groups a valid partition of the array"),
        );
    };
    match &a.pattern {
        ArrayPattern::Dense => {}
        ArrayPattern::CommonCentroid { group_a, group_b } => {
            if group_a.is_empty() || group_b.is_empty() {
                bad(
                    format!(
                        "common-centroid array '{}' has an empty device group",
                        a.name
                    ),
                    report,
                );
            }
            if group_a.iter().any(|c| group_b.contains(c)) {
                bad(
                    format!(
                        "common-centroid array '{}' has overlapping device groups",
                        a.name
                    ),
                    report,
                );
            }
            for c in group_a.iter().chain(group_b) {
                if !members.contains(c) {
                    bad(
                        format!(
                            "common-centroid array '{}' groups cell '{}' which is not an \
                             array member",
                            a.name,
                            cell_name(design, *c)
                        ),
                        report,
                    );
                }
            }
        }
        ArrayPattern::Interdigitated { groups } => {
            if groups.is_empty() || groups.iter().any(Vec::is_empty) {
                bad(
                    format!(
                        "interdigitated array '{}' has an empty device group",
                        a.name
                    ),
                    report,
                );
                return;
            }
            let size = groups[0].len();
            if groups.iter().any(|g| g.len() != size) {
                bad(
                    format!(
                        "interdigitated array '{}' has unequal device groups (Eq. 9 \
                         interleaves equal cardinalities)",
                        a.name
                    ),
                    report,
                );
            }
            let mut seen = HashSet::new();
            for c in groups.iter().flatten() {
                if !seen.insert(*c) {
                    bad(
                        format!(
                            "interdigitated array '{}' repeats cell '{}' across groups",
                            a.name,
                            cell_name(design, *c)
                        ),
                        report,
                    );
                }
                if !members.contains(c) {
                    bad(
                        format!(
                            "interdigitated array '{}' groups cell '{}' which is not an \
                             array member",
                            a.name,
                            cell_name(design, *c)
                        ),
                        report,
                    );
                }
            }
            if seen.len() != members.len() {
                bad(
                    format!(
                        "interdigitated array '{}' groups {} of its {} members; the \
                         groups must exactly partition the array",
                        a.name,
                        seen.len(),
                        members.len()
                    ),
                    report,
                );
            }
        }
        ArrayPattern::CentralSymmetric { pairs } => {
            let mut seen = HashSet::new();
            for &(x, y) in pairs {
                if x == y {
                    bad(
                        format!(
                            "central-symmetric array '{}' pairs cell '{}' with itself",
                            a.name,
                            cell_name(design, x)
                        ),
                        report,
                    );
                    continue;
                }
                for c in [x, y] {
                    if !seen.insert(c) {
                        bad(
                            format!(
                                "central-symmetric array '{}' repeats cell '{}'",
                                a.name,
                                cell_name(design, c)
                            ),
                            report,
                        );
                    }
                    if !members.contains(&c) {
                        bad(
                            format!(
                                "central-symmetric array '{}' pairs cell '{}' which is \
                                 not an array member",
                                a.name,
                                cell_name(design, c)
                            ),
                            report,
                        );
                    }
                }
            }
            let paired = members.iter().filter(|c| seen.contains(*c)).count();
            if paired != members.len() {
                bad(
                    format!(
                        "central-symmetric array '{}' pairs {paired} of its {} members; \
                         the pairs must cover the array",
                        a.name,
                        members.len()
                    ),
                    report,
                );
            }
        }
    }
}

fn check_clusters(design: &Design, cs: &ConstraintSet, report: &mut LintReport) {
    let ncells = design.cells().len();
    for cl in &cs.clusters {
        for &c in &cl.cells {
            if c.index() >= ncells {
                report.push(
                    Diagnostic::new(
                        DiagCode::DanglingReference,
                        format!(
                            "cluster '{}' references cell #{} but the design has only \
                             {ncells} cells",
                            cl.name,
                            c.index()
                        ),
                    )
                    .entity(&cl.name)
                    .suggest("drop the member or fix the cell id"),
                );
            }
        }
        if cl.cells.len() < 2 {
            report.push(
                Diagnostic::new(
                    DiagCode::EmptyConstraint,
                    format!("cluster '{}' has fewer than two cells", cl.name),
                )
                .entity(&cl.name)
                .suggest("remove the cluster or add members"),
            );
        }
        if cl.weight == 0 {
            report.push(
                Diagnostic::new(
                    DiagCode::IneffectiveCluster,
                    format!(
                        "cluster '{}' has weight 0; its virtual net exerts no pull",
                        cl.name
                    ),
                )
                .entity(&cl.name)
                .suggest("use a weight of at least 1"),
            );
        }
    }
}

fn check_extensions(design: &Design, cs: &ConstraintSet, report: &mut LintReport) {
    for (ei, e) in cs.extensions.iter().enumerate() {
        let (what, idx, len) = match e.target {
            ExtensionTarget::Cell(c) => ("cell", c.index(), design.cells().len()),
            ExtensionTarget::Region(r) => ("region", r.index(), design.regions().len()),
            ExtensionTarget::Array(a) => ("array", a, cs.arrays.len()),
        };
        if idx >= len {
            report.push(
                Diagnostic::new(
                    DiagCode::DanglingReference,
                    format!(
                        "extension #{ei} targets {what} #{idx} but the design has only \
                         {len} {what}s",
                    ),
                )
                .entity(format!("extension #{ei}"))
                .suggest("fix the target id or drop the extension"),
            );
        }
    }
}

/// `AMS-W003`: primitive cells with no net connection and no constraint
/// membership float to arbitrary positions.
fn check_unreferenced(design: &Design, cs: &ConstraintSet, report: &mut LintReport) {
    let mut constrained: HashSet<CellId> = HashSet::new();
    for g in &cs.symmetry {
        for p in &g.pairs {
            constrained.insert(p.a);
            constrained.extend(p.b);
        }
    }
    for a in &cs.arrays {
        constrained.extend(a.cells.iter().copied());
    }
    for cl in &cs.clusters {
        constrained.extend(cl.cells.iter().copied());
    }
    for e in &cs.extensions {
        if let ExtensionTarget::Cell(c) = e.target {
            constrained.insert(c);
        }
    }
    for c in design.cell_ids() {
        let cell = design.cell(c);
        if cell.kind != CellKind::Primitive {
            continue;
        }
        let connected = cell.pins.iter().any(|p| p.net.is_some());
        if !connected && !constrained.contains(&c) {
            report.push(
                Diagnostic::new(
                    DiagCode::UnreferencedCell,
                    format!(
                        "cell '{}' connects to no net and appears in no constraint; the \
                         placer will park it anywhere legal",
                        cell.name
                    ),
                )
                .entity(&cell.name)
                .suggest("wire the cell, constrain it, or mark it a dummy"),
            );
        }
    }
}
