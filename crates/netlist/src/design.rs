//! The [`Design`]: a validated region-based AMS circuit, plus its builder.

use crate::constraint::{ConstraintSet, ExtensionTarget};
use crate::diag::{DiagCode, Diagnostic, LintReport};
use crate::elements::{Cell, CellKind, Net, Pin, PowerGroup, Region};
use crate::geom::Pitch;
use crate::ids::{CellId, NetId, PowerGroupId, RegionId};
use crate::json::{Json, JsonError};
use crate::structure;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Validation failure while building or parsing a [`Design`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidateDesignError {
    /// A cell or pin references a region, power group or net that does
    /// not exist.
    DanglingId {
        /// What kind of entity was referenced.
        what: &'static str,
        /// Offending index.
        index: usize,
    },
    /// Two entities share a name.
    DuplicateName {
        /// What kind of entity.
        what: &'static str,
        /// The colliding name.
        name: String,
    },
    /// A cell has zero width or height.
    DegenerateCell {
        /// Offending cell.
        cell: String,
    },
    /// Cells of one region disagree on height (breaks row-based layout).
    MixedRegionHeights {
        /// Offending region name.
        region: String,
    },
    /// A pin lies outside its cell's outline.
    PinOutsideCell {
        /// Offending cell.
        cell: String,
        /// Offending pin.
        pin: String,
    },
    /// A net connects fewer than two pins.
    UnderConnectedNet {
        /// Offending net name.
        net: String,
    },
    /// The constraint set is malformed: the structural check
    /// ([`crate::structure::check`]) found dangling ids (`AMS-E002`,
    /// `AMS-E003`, `AMS-E005`, `AMS-E014`), incongruent symmetry pairs or
    /// arrays (`AMS-E001`, `AMS-E006`), or an array pattern that does not
    /// partition its array (`AMS-E007`).
    Constraints {
        /// The rejecting findings, in check order.
        findings: Vec<Diagnostic>,
    },
    /// A region utilization ratio is outside (0, 1].
    BadUtilization {
        /// Offending region name.
        region: String,
    },
    /// An empty design or region.
    Empty {
        /// What is empty.
        what: &'static str,
    },
}

impl fmt::Display for ValidateDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateDesignError::DanglingId { what, index } => {
                write!(f, "dangling {what} id {index}")
            }
            ValidateDesignError::DuplicateName { what, name } => {
                write!(f, "duplicate {what} name {name:?}")
            }
            ValidateDesignError::DegenerateCell { cell } => {
                write!(f, "cell {cell:?} has zero width or height")
            }
            ValidateDesignError::MixedRegionHeights { region } => {
                write!(f, "region {region:?} mixes cell heights")
            }
            ValidateDesignError::PinOutsideCell { cell, pin } => {
                write!(f, "pin {pin:?} lies outside cell {cell:?}")
            }
            ValidateDesignError::UnderConnectedNet { net } => {
                write!(f, "net {net:?} connects fewer than two pins")
            }
            ValidateDesignError::Constraints { findings } => {
                write!(f, "malformed constraints")?;
                for d in findings {
                    write!(f, "; {}[{}] {}", d.severity(), d.code.code(), d.message)?;
                }
                Ok(())
            }
            ValidateDesignError::BadUtilization { region } => {
                write!(f, "region {region:?} utilization must be in (0, 1]")
            }
            ValidateDesignError::Empty { what } => write!(f, "design has no {what}"),
        }
    }
}

impl Error for ValidateDesignError {}

/// Why a JSON document did not yield a [`Design`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseDesignError {
    /// The text is not well-formed JSON; the error carries the byte offset.
    Syntax(JsonError),
    /// Well-formed JSON that does not follow the [`Design::to_json`]
    /// schema: a field is missing or has the wrong type.
    Schema(String),
    /// The document decodes, but the design fails the validation
    /// [`DesignBuilder::build`] runs.
    Invalid(ValidateDesignError),
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDesignError::Syntax(e) => write!(f, "{e}"),
            ParseDesignError::Schema(msg) => write!(f, "design schema: {msg}"),
            ParseDesignError::Invalid(e) => write!(f, "invalid design: {e}"),
        }
    }
}

impl Error for ParseDesignError {}

/// A validated, immutable region-based AMS circuit.
///
/// Construct with [`DesignBuilder`] or parse with [`Design::from_json`].
/// Both run the same validation, so every value meets the invariants the
/// placement engine relies on: consistent ids, uniform region heights,
/// in-bounds pins, and well-formed constraints.
#[derive(Clone, PartialEq, Debug)]
pub struct Design {
    name: String,
    pitch: Pitch,
    regions: Vec<Region>,
    power_groups: Vec<PowerGroup>,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    constraints: ConstraintSet,
    /// Per-net connection index: (cell, pin index within the cell),
    /// derived from the pins during validation.
    net_pins: Vec<Vec<(CellId, usize)>>,
}

impl Design {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical pitch of one grid unit.
    pub fn pitch(&self) -> Pitch {
        self.pitch
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// All power groups.
    pub fn power_groups(&self) -> &[PowerGroup] {
        &self.power_groups
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The placement constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// A region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Iterator over cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(CellId::from_index)
    }

    /// Iterator over net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// Iterator over region ids.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len()).map(RegionId::from_index)
    }

    /// The `(cell, pin-index)` endpoints of a net.
    pub fn net_connections(&self, id: NetId) -> &[(CellId, usize)] {
        &self.net_pins[id.index()]
    }

    /// Degree of a net (number of connected pins), `deg(n)` in the paper.
    pub fn net_degree(&self, id: NetId) -> usize {
        self.net_pins[id.index()].len()
    }

    /// Cells belonging to a region.
    pub fn cells_in_region(&self, r: RegionId) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.region == r)
            .map(|(i, _)| CellId::from_index(i))
    }

    /// Total primitive cell area `A = Σ area(v)` in grid units.
    pub fn total_cell_area(&self) -> u64 {
        self.cells.iter().map(Cell::area).sum()
    }

    /// Total cell area of one region, `A_r` in the paper.
    pub fn region_cell_area(&self, r: RegionId) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.region == r)
            .map(Cell::area)
            .sum()
    }

    /// Nets connected to a cell (deduplicated, in first-seen order).
    pub fn nets_of_cell(&self, c: CellId) -> Vec<NetId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for pin in &self.cells[c.index()].pins {
            if let Some(n) = pin.net {
                if seen.insert(n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Number of pins of a cell, the `|P(v)|` of the paper. A pin on a
    /// virtual cluster net is bookkeeping for the cluster constraint, not
    /// a terminal, so it does not count; an unconnected pin does. Every
    /// pin-density check and the Eq. 15 priority count pins here.
    pub fn pin_count(&self, c: CellId) -> usize {
        self.cells[c.index()]
            .pins
            .iter()
            .filter(|pin| pin.net.is_none_or(|n| !self.nets[n.index()].virtual_net))
            .count()
    }

    /// The cell-priority metric of Eq. 15:
    /// `PR_v = δ1·|P(v)| + δ2·Σ_{n ∈ N(v)} deg(n)` with δ1 = 10, δ2 = 1.
    pub fn cell_priority(&self, c: CellId) -> u64 {
        const DELTA1: u64 = 10;
        const DELTA2: u64 = 1;
        let pins = self.pin_count(c) as u64;
        let deg_sum: u64 = self
            .nets_of_cell(c)
            .iter()
            .map(|&n| self.net_degree(n) as u64)
            .sum();
        DELTA1 * pins + DELTA2 * deg_sum
    }

    /// A copy of this design with every placement constraint removed —
    /// the paper's "w/o Cstr." evaluation arm. Virtual cluster nets are
    /// also dropped.
    pub fn without_constraints(&self) -> Design {
        let mut d = self.clone();
        d.constraints = ConstraintSet::default();
        // Virtual nets only exist to serve cluster constraints.
        for (i, net) in d.nets.iter().enumerate() {
            if net.virtual_net {
                d.net_pins[i].clear();
            }
        }
        d
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Deserializes and validates JSON produced by [`Design::to_json`].
    ///
    /// # Errors
    ///
    /// [`ParseDesignError::Syntax`] on malformed JSON,
    /// [`ParseDesignError::Schema`] on a missing or mistyped field, and
    /// [`ParseDesignError::Invalid`] for a design [`DesignBuilder::build`]
    /// would reject; its message then carries any lint codes.
    pub fn from_json(s: &str) -> Result<Design, ParseDesignError> {
        Design::from_json_value(&Json::parse(s).map_err(ParseDesignError::Syntax)?)
    }

    /// The [`Json`] document [`Design::to_json`] prints, for embedding a
    /// design in a larger document without printing and parsing it.
    pub fn to_json_value(&self) -> Json {
        ser::design(self)
    }

    /// Deserializes and validates a [`Json`] document of the
    /// [`Design::to_json`] schema. A `net_pins` key, which older documents
    /// carry, is ignored: the connection index is derived from the pins.
    ///
    /// # Errors
    ///
    /// As [`Design::from_json`], minus the syntax errors.
    pub fn from_json_value(v: &Json) -> Result<Design, ParseDesignError> {
        de::design(v)?
            .validated()
            .map_err(ParseDesignError::Invalid)
    }

    /// Checks every invariant the placement engine relies on and derives
    /// the per-net connection index: the one validation of a design,
    /// built or parsed.
    fn validated(mut self) -> Result<Design, ValidateDesignError> {
        for (what, empty) in [
            ("regions", self.regions.is_empty()),
            ("cells", self.cells.is_empty()),
            ("power groups", self.power_groups.is_empty()),
        ] {
            if empty {
                return Err(ValidateDesignError::Empty { what });
            }
        }
        self.check_names()?;
        self.check_cells()?;
        self.check_regions()?;
        self.net_pins = self.index_nets();

        let mut report = LintReport::new();
        structure::check(&self, &self.constraints, &mut report);
        let findings: Vec<Diagnostic> = report
            .diagnostics
            .into_iter()
            .filter(|d| REJECTED.contains(&d.code))
            .collect();
        if !findings.is_empty() {
            return Err(ValidateDesignError::Constraints { findings });
        }

        for (net, pins) in self.nets.iter().zip(&self.net_pins) {
            if pins.len() < 2 {
                return Err(ValidateDesignError::UnderConnectedNet {
                    net: net.name.clone(),
                });
            }
        }
        Ok(self)
    }

    fn check_names(&self) -> Result<(), ValidateDesignError> {
        let mut seen = HashSet::new();
        for c in &self.cells {
            if !seen.insert(&c.name) {
                return Err(ValidateDesignError::DuplicateName {
                    what: "cell",
                    name: c.name.clone(),
                });
            }
        }
        let mut seen = HashSet::new();
        for n in &self.nets {
            if !seen.insert(&n.name) {
                return Err(ValidateDesignError::DuplicateName {
                    what: "net",
                    name: n.name.clone(),
                });
            }
        }
        let mut seen = HashSet::new();
        for r in &self.regions {
            if !seen.insert(&r.name) {
                return Err(ValidateDesignError::DuplicateName {
                    what: "region",
                    name: r.name.clone(),
                });
            }
        }
        Ok(())
    }

    fn check_cells(&self) -> Result<(), ValidateDesignError> {
        for c in &self.cells {
            if c.width == 0 || c.height == 0 {
                return Err(ValidateDesignError::DegenerateCell {
                    cell: c.name.clone(),
                });
            }
            if c.region.index() >= self.regions.len() {
                return Err(ValidateDesignError::DanglingId {
                    what: "region",
                    index: c.region.index(),
                });
            }
            if c.power_group.index() >= self.power_groups.len() {
                return Err(ValidateDesignError::DanglingId {
                    what: "power group",
                    index: c.power_group.index(),
                });
            }
            for p in &c.pins {
                if p.dx >= c.width || p.dy >= c.height {
                    return Err(ValidateDesignError::PinOutsideCell {
                        cell: c.name.clone(),
                        pin: p.name.clone(),
                    });
                }
                if let Some(n) = p.net {
                    if n.index() >= self.nets.len() {
                        return Err(ValidateDesignError::DanglingId {
                            what: "net",
                            index: n.index(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn check_regions(&self) -> Result<(), ValidateDesignError> {
        for (ri, r) in self.regions.iter().enumerate() {
            if !(r.utilization > 0.0 && r.utilization <= 1.0) {
                return Err(ValidateDesignError::BadUtilization {
                    region: r.name.clone(),
                });
            }
            let rid = RegionId::from_index(ri);
            let mut height = None;
            for c in self.cells.iter().filter(|c| c.region == rid) {
                match height {
                    None => height = Some(c.height),
                    Some(h) if h != c.height => {
                        return Err(ValidateDesignError::MixedRegionHeights {
                            region: r.name.clone(),
                        })
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The connection index of every net, in cell then pin order. Every
    /// pin's net must be in range (`check_cells`).
    fn index_nets(&self) -> Vec<Vec<(CellId, usize)>> {
        let mut net_pins: Vec<Vec<(CellId, usize)>> = vec![Vec::new(); self.nets.len()];
        for (ci, c) in self.cells.iter().enumerate() {
            for (pi, p) in c.pins.iter().enumerate() {
                if let Some(n) = p.net {
                    net_pins[n.index()].push((CellId::from_index(ci), pi));
                }
            }
        }
        net_pins
    }
}

/// The structural findings a design is rejected on: the encoders index by
/// these ids and assume these shapes. `AMS-E004` and `AMS-E013` describe
/// encodable but unsatisfiable constraints, so they stay findings of the
/// placer's lint gate, which the UNSAT explainer can then confirm.
const REJECTED: [DiagCode; 7] = [
    DiagCode::SymmetryHeightMismatch,
    DiagCode::SymmetryDanglingCell,
    DiagCode::SymmetryCyclicShare,
    DiagCode::ArrayDanglingCell,
    DiagCode::ArrayRaggedCells,
    DiagCode::ArrayBadPattern,
    DiagCode::DanglingReference,
];

/// Hand-written JSON encoding of the [`Design`] schema (the workspace
/// builds offline, so no serialization framework is available).
mod ser {
    use super::*;
    use crate::constraint::{
        ArrayConstraint, ArrayPattern, ClusterConstraint, ExtensionConstraint, SymmetryAxis,
        SymmetryGroup,
    };

    pub(super) fn design(d: &Design) -> Json {
        Json::obj([
            ("name", Json::str(&d.name)),
            (
                "pitch",
                Json::obj([
                    ("x_nm", Json::Num(d.pitch.x_nm)),
                    ("y_nm", Json::Num(d.pitch.y_nm)),
                ]),
            ),
            ("regions", Json::Arr(d.regions.iter().map(region).collect())),
            (
                "power_groups",
                Json::Arr(
                    d.power_groups
                        .iter()
                        .map(|p| Json::obj([("name", Json::str(&p.name))]))
                        .collect(),
                ),
            ),
            ("cells", Json::Arr(d.cells.iter().map(cell).collect())),
            ("nets", Json::Arr(d.nets.iter().map(net).collect())),
            ("constraints", constraints(&d.constraints)),
        ])
    }

    fn region(r: &Region) -> Json {
        Json::obj([
            ("name", Json::str(&r.name)),
            ("utilization", Json::Num(r.utilization)),
            ("edge_x", Json::uint(u64::from(r.edge_x))),
            ("edge_y", Json::uint(u64::from(r.edge_y))),
        ])
    }

    fn cell(c: &Cell) -> Json {
        let kind = match c.kind {
            CellKind::Primitive => "primitive",
            CellKind::Edge => "edge",
            CellKind::Dummy => "dummy",
        };
        Json::obj([
            ("name", Json::str(&c.name)),
            ("kind", Json::str(kind)),
            ("width", Json::uint(u64::from(c.width))),
            ("height", Json::uint(u64::from(c.height))),
            ("region", Json::uint(c.region.index() as u64)),
            ("power_group", Json::uint(c.power_group.index() as u64)),
            ("pins", Json::Arr(c.pins.iter().map(pin).collect())),
        ])
    }

    fn pin(p: &Pin) -> Json {
        Json::obj([
            ("name", Json::str(&p.name)),
            (
                "net",
                p.net.map_or(Json::Null, |n| Json::uint(n.index() as u64)),
            ),
            ("dx", Json::uint(u64::from(p.dx))),
            ("dy", Json::uint(u64::from(p.dy))),
        ])
    }

    fn net(n: &Net) -> Json {
        Json::obj([
            ("name", Json::str(&n.name)),
            ("weight", Json::uint(u64::from(n.weight))),
            ("virtual_net", Json::Bool(n.virtual_net)),
        ])
    }

    fn cell_ids(ids: &[CellId]) -> Json {
        Json::Arr(ids.iter().map(|c| Json::uint(c.index() as u64)).collect())
    }

    fn constraints(cs: &ConstraintSet) -> Json {
        Json::obj([
            (
                "symmetry",
                Json::Arr(cs.symmetry.iter().map(symmetry).collect()),
            ),
            ("arrays", Json::Arr(cs.arrays.iter().map(array).collect())),
            (
                "clusters",
                Json::Arr(cs.clusters.iter().map(cluster).collect()),
            ),
            (
                "extensions",
                Json::Arr(cs.extensions.iter().map(extension).collect()),
            ),
        ])
    }

    fn symmetry(g: &SymmetryGroup) -> Json {
        Json::obj([
            ("name", Json::str(&g.name)),
            (
                "axis",
                Json::str(match g.axis {
                    SymmetryAxis::Vertical => "vertical",
                    SymmetryAxis::Horizontal => "horizontal",
                }),
            ),
            (
                "pairs",
                Json::Arr(
                    g.pairs
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("a", Json::uint(p.a.index() as u64)),
                                (
                                    "b",
                                    p.b.map_or(Json::Null, |b| Json::uint(b.index() as u64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "share_axis_with",
                g.share_axis_with
                    .map_or(Json::Null, |i| Json::uint(i as u64)),
            ),
        ])
    }

    fn array(a: &ArrayConstraint) -> Json {
        let pattern = match &a.pattern {
            ArrayPattern::Dense => Json::obj([("kind", Json::str("dense"))]),
            ArrayPattern::CommonCentroid { group_a, group_b } => Json::obj([
                ("kind", Json::str("common_centroid")),
                ("group_a", cell_ids(group_a)),
                ("group_b", cell_ids(group_b)),
            ]),
            ArrayPattern::Interdigitated { groups } => Json::obj([
                ("kind", Json::str("interdigitated")),
                (
                    "groups",
                    Json::Arr(groups.iter().map(|g| cell_ids(g)).collect()),
                ),
            ]),
            ArrayPattern::CentralSymmetric { pairs } => Json::obj([
                ("kind", Json::str("central_symmetric")),
                (
                    "pairs",
                    Json::Arr(
                        pairs
                            .iter()
                            .map(|&(x, y)| {
                                Json::Arr(vec![
                                    Json::uint(x.index() as u64),
                                    Json::uint(y.index() as u64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        Json::obj([
            ("name", Json::str(&a.name)),
            ("cells", cell_ids(&a.cells)),
            ("pattern", pattern),
        ])
    }

    fn cluster(c: &ClusterConstraint) -> Json {
        Json::obj([
            ("name", Json::str(&c.name)),
            ("cells", cell_ids(&c.cells)),
            ("weight", Json::uint(u64::from(c.weight))),
        ])
    }

    fn extension(e: &ExtensionConstraint) -> Json {
        let (kind, id) = match e.target {
            ExtensionTarget::Cell(c) => ("cell", c.index()),
            ExtensionTarget::Region(r) => ("region", r.index()),
            ExtensionTarget::Array(i) => ("array", i),
        };
        Json::obj([
            (
                "target",
                Json::obj([("kind", Json::str(kind)), ("id", Json::uint(id as u64))]),
            ),
            ("left", Json::uint(u64::from(e.left))),
            ("right", Json::uint(u64::from(e.right))),
            ("bottom", Json::uint(u64::from(e.bottom))),
            ("top", Json::uint(u64::from(e.top))),
        ])
    }
}

/// Decoding counterpart of [`ser`].
mod de {
    use super::*;
    use crate::constraint::{
        ArrayConstraint, ArrayPattern, ClusterConstraint, ExtensionConstraint, SymmetryAxis,
        SymmetryGroup, SymmetryPair,
    };

    fn bad(message: impl Into<String>) -> ParseDesignError {
        ParseDesignError::Schema(message.into())
    }

    fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ParseDesignError> {
        v.field(key)
            .ok_or_else(|| bad(format!("missing field {key:?}")))
    }

    fn str_field(v: &Json, key: &str) -> Result<String, ParseDesignError> {
        field(v, key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(format!("field {key:?} must be a string")))
    }

    fn u32_field(v: &Json, key: &str) -> Result<u32, ParseDesignError> {
        field(v, key)?
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| bad(format!("field {key:?} must be a u32")))
    }

    fn usize_field(v: &Json, key: &str) -> Result<usize, ParseDesignError> {
        field(v, key)?
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| bad(format!("field {key:?} must be an index")))
    }

    fn f64_field(v: &Json, key: &str) -> Result<f64, ParseDesignError> {
        field(v, key)?
            .as_f64()
            .ok_or_else(|| bad(format!("field {key:?} must be a number")))
    }

    fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ParseDesignError> {
        field(v, key)?
            .items()
            .ok_or_else(|| bad(format!("field {key:?} must be an array")))
    }

    fn cell_id_list(v: &Json, key: &str) -> Result<Vec<CellId>, ParseDesignError> {
        arr_field(v, key)?
            .iter()
            .map(|item| {
                item.as_u64()
                    .map(|n| CellId::from_index(n as usize))
                    .ok_or_else(|| bad(format!("{key:?} entries must be cell indices")))
            })
            .collect()
    }

    pub(super) fn design(v: &Json) -> Result<Design, ParseDesignError> {
        let pitch_v = field(v, "pitch")?;
        let pitch = Pitch {
            x_nm: f64_field(pitch_v, "x_nm")?,
            y_nm: f64_field(pitch_v, "y_nm")?,
        };

        let regions = arr_field(v, "regions")?
            .iter()
            .map(region)
            .collect::<Result<Vec<_>, _>>()?;
        let power_groups = arr_field(v, "power_groups")?
            .iter()
            .map(|p| {
                Ok(PowerGroup {
                    name: str_field(p, "name")?,
                })
            })
            .collect::<Result<Vec<_>, ParseDesignError>>()?;
        let cells = arr_field(v, "cells")?
            .iter()
            .map(cell)
            .collect::<Result<Vec<_>, _>>()?;
        let nets = arr_field(v, "nets")?
            .iter()
            .map(net)
            .collect::<Result<Vec<_>, _>>()?;
        let constraints = constraints(field(v, "constraints")?)?;

        Ok(Design {
            name: str_field(v, "name")?,
            pitch,
            regions,
            power_groups,
            cells,
            nets,
            constraints,
            net_pins: Vec::new(),
        })
    }

    fn region(v: &Json) -> Result<Region, ParseDesignError> {
        Ok(Region {
            name: str_field(v, "name")?,
            utilization: f64_field(v, "utilization")?,
            edge_x: u32_field(v, "edge_x")?,
            edge_y: u32_field(v, "edge_y")?,
        })
    }

    fn cell(v: &Json) -> Result<Cell, ParseDesignError> {
        let kind = match str_field(v, "kind")?.as_str() {
            "primitive" => CellKind::Primitive,
            "edge" => CellKind::Edge,
            "dummy" => CellKind::Dummy,
            other => return Err(bad(format!("unknown cell kind {other:?}"))),
        };
        let pins = arr_field(v, "pins")?
            .iter()
            .map(pin)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cell {
            name: str_field(v, "name")?,
            kind,
            width: u32_field(v, "width")?,
            height: u32_field(v, "height")?,
            region: RegionId::from_index(usize_field(v, "region")?),
            power_group: PowerGroupId::from_index(usize_field(v, "power_group")?),
            pins,
        })
    }

    fn pin(v: &Json) -> Result<Pin, ParseDesignError> {
        let net_v = field(v, "net")?;
        let net = if net_v.is_null() {
            None
        } else {
            Some(NetId::from_index(
                net_v
                    .as_u64()
                    .ok_or_else(|| bad("pin net must be an index or null"))?
                    as usize,
            ))
        };
        Ok(Pin {
            name: str_field(v, "name")?,
            net,
            dx: u32_field(v, "dx")?,
            dy: u32_field(v, "dy")?,
        })
    }

    fn net(v: &Json) -> Result<Net, ParseDesignError> {
        Ok(Net {
            name: str_field(v, "name")?,
            weight: u32_field(v, "weight")?,
            virtual_net: field(v, "virtual_net")?
                .as_bool()
                .ok_or_else(|| bad("virtual_net must be a boolean"))?,
        })
    }

    fn constraints(v: &Json) -> Result<ConstraintSet, ParseDesignError> {
        Ok(ConstraintSet {
            symmetry: arr_field(v, "symmetry")?
                .iter()
                .map(symmetry)
                .collect::<Result<Vec<_>, _>>()?,
            arrays: arr_field(v, "arrays")?
                .iter()
                .map(array)
                .collect::<Result<Vec<_>, _>>()?,
            clusters: arr_field(v, "clusters")?
                .iter()
                .map(cluster)
                .collect::<Result<Vec<_>, _>>()?,
            extensions: arr_field(v, "extensions")?
                .iter()
                .map(extension)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    fn symmetry(v: &Json) -> Result<SymmetryGroup, ParseDesignError> {
        let axis = match str_field(v, "axis")?.as_str() {
            "vertical" => SymmetryAxis::Vertical,
            "horizontal" => SymmetryAxis::Horizontal,
            other => return Err(bad(format!("unknown axis {other:?}"))),
        };
        let pairs = arr_field(v, "pairs")?
            .iter()
            .map(|p| {
                let a = CellId::from_index(usize_field(p, "a")?);
                let b_v = field(p, "b")?;
                let b = if b_v.is_null() {
                    None
                } else {
                    Some(CellId::from_index(
                        b_v.as_u64()
                            .ok_or_else(|| bad("pair b must be an index or null"))?
                            as usize,
                    ))
                };
                Ok(SymmetryPair { a, b })
            })
            .collect::<Result<Vec<_>, ParseDesignError>>()?;
        let share_v = field(v, "share_axis_with")?;
        let share_axis_with = if share_v.is_null() {
            None
        } else {
            Some(
                share_v
                    .as_u64()
                    .ok_or_else(|| bad("share_axis_with must be an index or null"))?
                    as usize,
            )
        };
        Ok(SymmetryGroup {
            name: str_field(v, "name")?,
            axis,
            pairs,
            share_axis_with,
        })
    }

    fn array(v: &Json) -> Result<ArrayConstraint, ParseDesignError> {
        let pattern_v = field(v, "pattern")?;
        let pattern = match str_field(pattern_v, "kind")?.as_str() {
            "dense" => ArrayPattern::Dense,
            "common_centroid" => ArrayPattern::CommonCentroid {
                group_a: cell_id_list(pattern_v, "group_a")?,
                group_b: cell_id_list(pattern_v, "group_b")?,
            },
            "interdigitated" => ArrayPattern::Interdigitated {
                groups: arr_field(pattern_v, "groups")?
                    .iter()
                    .map(|g| {
                        g.items()
                            .ok_or_else(|| bad("groups entries must be arrays"))?
                            .iter()
                            .map(|c| {
                                c.as_u64()
                                    .map(|n| CellId::from_index(n as usize))
                                    .ok_or_else(|| bad("bad cell index in groups"))
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "central_symmetric" => ArrayPattern::CentralSymmetric {
                pairs: arr_field(pattern_v, "pairs")?
                    .iter()
                    .map(|p| {
                        let p = p
                            .items()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| bad("pattern pairs must be [a, b]"))?;
                        let x = p[0].as_u64().ok_or_else(|| bad("bad pair member"))?;
                        let y = p[1].as_u64().ok_or_else(|| bad("bad pair member"))?;
                        Ok((
                            CellId::from_index(x as usize),
                            CellId::from_index(y as usize),
                        ))
                    })
                    .collect::<Result<Vec<_>, ParseDesignError>>()?,
            },
            other => return Err(bad(format!("unknown array pattern {other:?}"))),
        };
        Ok(ArrayConstraint {
            name: str_field(v, "name")?,
            cells: cell_id_list(v, "cells")?,
            pattern,
        })
    }

    fn cluster(v: &Json) -> Result<ClusterConstraint, ParseDesignError> {
        Ok(ClusterConstraint {
            name: str_field(v, "name")?,
            cells: cell_id_list(v, "cells")?,
            weight: u32_field(v, "weight")?,
        })
    }

    fn extension(v: &Json) -> Result<ExtensionConstraint, ParseDesignError> {
        let target_v = field(v, "target")?;
        let id = usize_field(target_v, "id")?;
        let target = match str_field(target_v, "kind")?.as_str() {
            "cell" => ExtensionTarget::Cell(CellId::from_index(id)),
            "region" => ExtensionTarget::Region(RegionId::from_index(id)),
            "array" => ExtensionTarget::Array(id),
            other => return Err(bad(format!("unknown extension target {other:?}"))),
        };
        Ok(ExtensionConstraint {
            target,
            left: u32_field(v, "left")?,
            right: u32_field(v, "right")?,
            bottom: u32_field(v, "bottom")?,
            top: u32_field(v, "top")?,
        })
    }
}

/// Builder for [`Design`]; performs full validation in [`DesignBuilder::build`].
///
/// # Examples
///
/// ```
/// use ams_netlist::{DesignBuilder, Pitch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DesignBuilder::new("tiny");
/// let region = b.add_region("core", 0.7);
/// let vdd = b.add_power_group("VDD");
/// let net = b.add_net("n1", 1);
/// let a = b.add_cell("inv_a", region, 4, 2, vdd);
/// b.add_pin(a, "z", Some(net), 3, 1);
/// let c = b.add_cell("inv_b", region, 4, 2, vdd);
/// b.add_pin(c, "a", Some(net), 0, 1);
/// let design = b.build()?;
/// assert_eq!(design.cells().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DesignBuilder {
    name: String,
    pitch: Pitch,
    regions: Vec<Region>,
    power_groups: Vec<PowerGroup>,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    constraints: ConstraintSet,
}

impl DesignBuilder {
    /// Starts a new design with the default N5 pitch.
    pub fn new(name: impl Into<String>) -> DesignBuilder {
        DesignBuilder {
            name: name.into(),
            pitch: Pitch::default(),
            ..DesignBuilder::default()
        }
    }

    /// Overrides the physical pitch.
    pub fn set_pitch(&mut self, pitch: Pitch) -> &mut Self {
        self.pitch = pitch;
        self
    }

    /// Adds a region with the given utilization target and default edge
    /// reservations of one grid unit each.
    pub fn add_region(&mut self, name: impl Into<String>, utilization: f64) -> RegionId {
        self.regions.push(Region {
            name: name.into(),
            utilization,
            edge_x: 1,
            edge_y: 0,
        });
        RegionId::from_index(self.regions.len() - 1)
    }

    /// Sets the edge-cell reservation of a region (`D_x`, `D_y` in Eq. 6).
    pub fn set_region_edge(&mut self, r: RegionId, edge_x: u32, edge_y: u32) -> &mut Self {
        self.regions[r.index()].edge_x = edge_x;
        self.regions[r.index()].edge_y = edge_y;
        self
    }

    /// Adds a power group.
    pub fn add_power_group(&mut self, name: impl Into<String>) -> PowerGroupId {
        self.power_groups.push(PowerGroup { name: name.into() });
        PowerGroupId::from_index(self.power_groups.len() - 1)
    }

    /// Adds a signal net with the given optimizer weight.
    pub fn add_net(&mut self, name: impl Into<String>, weight: u32) -> NetId {
        self.nets.push(Net {
            name: name.into(),
            weight,
            virtual_net: false,
        });
        NetId::from_index(self.nets.len() - 1)
    }

    /// Adds a primitive cell.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        region: RegionId,
        width: u32,
        height: u32,
        power_group: PowerGroupId,
    ) -> CellId {
        self.cells.push(Cell {
            name: name.into(),
            kind: CellKind::Primitive,
            width,
            height,
            region,
            power_group,
            pins: Vec::new(),
        });
        CellId::from_index(self.cells.len() - 1)
    }

    /// Width of an already-added cell (useful when deriving constraints
    /// mid-build, e.g. pairing equal-width cells for symmetry).
    pub fn cell_width(&self, cell: CellId) -> u32 {
        self.cells[cell.index()].width
    }

    /// Adds a pin to a cell at offset `(dx, dy)` from its bottom-left corner.
    pub fn add_pin(
        &mut self,
        cell: CellId,
        name: impl Into<String>,
        net: Option<NetId>,
        dx: u32,
        dy: u32,
    ) -> &mut Self {
        self.cells[cell.index()].pins.push(Pin {
            name: name.into(),
            net,
            dx,
            dy,
        });
        self
    }

    /// Adds a symmetry group; returns its index for `share_axis_with` use.
    pub fn add_symmetry(&mut self, group: crate::SymmetryGroup) -> usize {
        self.constraints.symmetry.push(group);
        self.constraints.symmetry.len() - 1
    }

    /// Adds an array constraint; returns its index (for extension targets).
    pub fn add_array(&mut self, array: crate::ArrayConstraint) -> usize {
        self.constraints.arrays.push(array);
        self.constraints.arrays.len() - 1
    }

    /// Adds a cluster constraint. A weighted virtual net over the clustered
    /// cells is synthesized at build time.
    pub fn add_cluster(&mut self, cluster: crate::ClusterConstraint) -> usize {
        self.constraints.clusters.push(cluster);
        self.constraints.clusters.len() - 1
    }

    /// Adds an extension constraint.
    pub fn add_extension(&mut self, ext: crate::ExtensionConstraint) -> usize {
        self.constraints.extensions.push(ext);
        self.constraints.extensions.len() - 1
    }

    /// Synthesizes the cluster nets, then validates and finalizes the
    /// design.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateDesignError`] describing the first violated
    /// invariant.
    pub fn build(mut self) -> Result<Design, ValidateDesignError> {
        // One weighted virtual net per cluster; validation reports members
        // that do not exist.
        for cluster in &self.constraints.clusters {
            let name = format!("__cluster_{}", cluster.name);
            let net = NetId::from_index(self.nets.len());
            self.nets.push(Net {
                name: name.clone(),
                weight: cluster.weight,
                virtual_net: true,
            });
            for &c in &cluster.cells {
                if let Some(cell) = self.cells.get_mut(c.index()) {
                    cell.pins.push(Pin {
                        name: name.clone(),
                        net: Some(net),
                        dx: 0,
                        dy: 0,
                    });
                }
            }
        }

        Design {
            name: self.name,
            pitch: self.pitch,
            regions: self.regions,
            power_groups: self.power_groups,
            cells: self.cells,
            nets: self.nets,
            constraints: self.constraints,
            net_pins: Vec::new(),
        }
        .validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConstraint, SymmetryAxis, SymmetryGroup, SymmetryPair};

    /// Whether `built` failed on a structural finding with `code`.
    fn rejects_with(built: Result<Design, ValidateDesignError>, code: DiagCode) -> bool {
        match built {
            Err(ValidateDesignError::Constraints { findings }) => {
                findings.iter().any(|d| d.code == code)
            }
            _ => false,
        }
    }

    fn two_cell_builder() -> (DesignBuilder, CellId, CellId) {
        let mut b = DesignBuilder::new("t");
        let r = b.add_region("core", 0.8);
        let pg = b.add_power_group("VDD");
        let n = b.add_net("n1", 1);
        let a = b.add_cell("a", r, 4, 2, pg);
        b.add_pin(a, "z", Some(n), 0, 0);
        let c = b.add_cell("b", r, 4, 2, pg);
        b.add_pin(c, "i", Some(n), 0, 0);
        (b, a, c)
    }

    #[test]
    fn minimal_build_succeeds() {
        let (b, _, _) = two_cell_builder();
        let d = b.build().expect("valid design");
        assert_eq!(d.cells().len(), 2);
        assert_eq!(d.net_degree(NetId::from_index(0)), 2);
        assert_eq!(d.total_cell_area(), 16);
    }

    #[test]
    fn duplicate_cell_name_rejected() {
        let (mut b, _, _) = two_cell_builder();
        let r = RegionId::from_index(0);
        let pg = PowerGroupId::from_index(0);
        b.add_cell("a", r, 2, 2, pg);
        assert!(matches!(
            b.build(),
            Err(ValidateDesignError::DuplicateName { what: "cell", .. })
        ));
    }

    #[test]
    fn mixed_heights_rejected() {
        let (mut b, _, _) = two_cell_builder();
        b.add_cell(
            "tall",
            RegionId::from_index(0),
            2,
            4,
            PowerGroupId::from_index(0),
        );
        assert!(matches!(
            b.build(),
            Err(ValidateDesignError::MixedRegionHeights { .. })
        ));
    }

    #[test]
    fn pin_outside_cell_rejected() {
        let (mut b, a, _) = two_cell_builder();
        b.add_pin(a, "bad", None, 9, 0);
        assert!(matches!(
            b.build(),
            Err(ValidateDesignError::PinOutsideCell { .. })
        ));
    }

    #[test]
    fn dangling_net_rejected() {
        let (mut b, a, _) = two_cell_builder();
        b.add_pin(a, "bad", Some(NetId::from_index(99)), 0, 0);
        assert!(matches!(
            b.build(),
            Err(ValidateDesignError::DanglingId { what: "net", .. })
        ));
    }

    #[test]
    fn single_pin_net_rejected() {
        let mut b = DesignBuilder::new("t");
        let r = b.add_region("core", 0.8);
        let pg = b.add_power_group("VDD");
        let n = b.add_net("lonely", 1);
        let a = b.add_cell("a", r, 4, 2, pg);
        b.add_pin(a, "z", Some(n), 0, 0);
        assert!(matches!(
            b.build(),
            Err(ValidateDesignError::UnderConnectedNet { .. })
        ));
    }

    #[test]
    fn asymmetric_pair_rejected() {
        let (mut b, a, _) = two_cell_builder();
        let odd = b.add_cell(
            "odd",
            RegionId::from_index(0),
            6,
            2,
            PowerGroupId::from_index(0),
        );
        b.add_symmetry(SymmetryGroup {
            name: "s".into(),
            axis: SymmetryAxis::Vertical,
            pairs: vec![SymmetryPair::mirrored(a, odd)],
            share_axis_with: None,
        });
        assert!(rejects_with(b.build(), DiagCode::SymmetryHeightMismatch));
    }

    #[test]
    fn cluster_synthesizes_virtual_net() {
        let (mut b, a, c) = two_cell_builder();
        b.add_cluster(ClusterConstraint {
            name: "near".into(),
            cells: vec![a, c],
            weight: 8,
        });
        let d = b.build().expect("valid");
        assert_eq!(d.nets().len(), 2);
        let vnet = NetId::from_index(1);
        assert!(d.net(vnet).virtual_net);
        assert_eq!(d.net(vnet).weight, 8);
        assert_eq!(d.net_degree(vnet), 2);
        // without_constraints drops the virtual net's connectivity.
        let plain = d.without_constraints();
        assert_eq!(plain.net_degree(vnet), 0);
        assert!(plain.constraints().is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let (b, _, _) = two_cell_builder();
        let d = b.build().expect("valid");
        let json = d.to_json();
        let back = Design::from_json(&json).expect("parse");
        assert_eq!(d, back);
    }

    #[test]
    fn priority_metric_matches_eq15() {
        let (b, a, _) = two_cell_builder();
        let d = b.build().expect("valid");
        // Cell a: 1 pin, net degree 2 → 10*1 + 1*2 = 12.
        assert_eq!(d.cell_priority(a), 12);
    }

    #[test]
    fn forward_symmetry_parent_reference_rejected() {
        let (mut b, a, c) = two_cell_builder();
        b.add_symmetry(SymmetryGroup {
            name: "s".into(),
            axis: SymmetryAxis::Vertical,
            pairs: vec![SymmetryPair::mirrored(a, c)],
            share_axis_with: Some(5),
        });
        assert!(rejects_with(b.build(), DiagCode::SymmetryCyclicShare));
    }
}
