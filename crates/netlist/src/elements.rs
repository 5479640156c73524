//! Cells, pins, nets, regions, and power groups.

use crate::ids::{NetId, PowerGroupId, RegionId};

/// A pin of a primitive cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pin {
    /// Pin name, unique within the cell.
    pub name: String,
    /// The signal net this pin connects to; `None` for unconnected pins
    /// (they still count toward pin density).
    pub net: Option<NetId>,
    /// Offset of the pin from the cell's bottom-left corner, in grid units.
    pub dx: u32,
    /// Vertical offset from the bottom-left corner.
    pub dy: u32,
}

/// Role of a cell in the region-based layout methodology.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CellKind {
    /// A functional layout primitive placed by the SMT engine.
    #[default]
    Primitive,
    /// An edge cell inserted at region boundaries during post-processing.
    Edge,
    /// A dummy filler cell inserted into leftover sites.
    Dummy,
}

/// A primitive cell: the basic building block of a region-based AMS layout.
#[derive(Clone, PartialEq, Debug)]
pub struct Cell {
    /// Cell (instance) name, unique within the design.
    pub name: String,
    /// Role of the cell.
    pub kind: CellKind,
    /// Width in grid units.
    pub width: u32,
    /// Height in grid units; all primitives of a region share this value.
    pub height: u32,
    /// Region the cell must be placed in.
    pub region: RegionId,
    /// Power group of the cell (drives power-abutment constraints).
    pub power_group: PowerGroupId,
    /// Signal pins.
    pub pins: Vec<Pin>,
}

impl Cell {
    /// Cell area in grid units.
    pub fn area(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }
}

/// A signal net.
#[derive(Clone, PartialEq, Debug)]
pub struct Net {
    /// Net name, unique within the design.
    pub name: String,
    /// Wirelength weight `η` used by the optimizer; cluster constraints
    /// add virtual nets with elevated weights.
    pub weight: u32,
    /// Whether this net was synthesized by a cluster constraint rather than
    /// present in the input netlist.
    pub virtual_net: bool,
}

/// A placement region grouping primitives with a common height.
#[derive(Clone, PartialEq, Debug)]
pub struct Region {
    /// Region name, unique within the design.
    pub name: String,
    /// User-specified utilization ratio `γ^ur` for this region (0, 1].
    pub utilization: f64,
    /// Reserved horizontal space for left/right edge cells (`D_x`).
    pub edge_x: u32,
    /// Reserved vertical space for bottom/top edge cells (`D_y`).
    pub edge_y: u32,
}

/// A power group (e.g. `VDD`, `VDDL`); cells of different groups must sit in
/// disjoint row bands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PowerGroup {
    /// Power-net name.
    pub name: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PowerGroupId, RegionId};

    #[test]
    fn cell_area_and_pins() {
        let cell = Cell {
            name: "inv0".into(),
            kind: CellKind::Primitive,
            width: 4,
            height: 2,
            region: RegionId::from_index(0),
            power_group: PowerGroupId::from_index(0),
            pins: vec![
                Pin {
                    name: "a".into(),
                    net: None,
                    dx: 0,
                    dy: 1,
                },
                Pin {
                    name: "z".into(),
                    net: None,
                    dx: 3,
                    dy: 1,
                },
            ],
        };
        assert_eq!(cell.area(), 8);
        assert_eq!(cell.kind, CellKind::Primitive);
    }
}
