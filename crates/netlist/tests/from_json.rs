//! `Design::from_json` runs the builder's validation: a document the
//! builder would refuse is an error, never a design that panics an
//! encoder, and every valid design parses back to itself.

use ams_netlist::benchmarks::{self, SyntheticParams};
use ams_netlist::json::Json;
use ams_netlist::{
    ArrayConstraint, ArrayPattern, CellId, Design, DesignBuilder, DiagCode, ParseDesignError,
};
use std::collections::BTreeMap;

type Fields = BTreeMap<String, Json>;

/// The default synthetic design's JSON with `edit` applied to its top-level
/// object, parsed back.
fn edited(edit: impl FnOnce(&mut Fields)) -> Result<Design, ParseDesignError> {
    let design = benchmarks::synthetic(SyntheticParams::default());
    let mut json = design.to_json_value();
    let Json::Obj(top) = &mut json else {
        panic!("a design is an object")
    };
    edit(top);
    Design::from_json(&json.pretty())
}

fn obj<'a>(v: &'a mut Json, what: &str) -> &'a mut Fields {
    match v {
        Json::Obj(fields) => fields,
        _ => panic!("{what} is an object"),
    }
}

fn arr<'a>(fields: &'a mut Fields, key: &str) -> &'a mut Vec<Json> {
    match fields.get_mut(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("{key} is an array"),
    }
}

/// The first cell's fields.
fn first_cell(top: &mut Fields) -> &mut Fields {
    obj(&mut arr(top, "cells")[0], "a cell")
}

/// The first pin of the first cell.
fn first_pin(top: &mut Fields) -> &mut Fields {
    obj(&mut arr(first_cell(top), "pins")[0], "a pin")
}

fn rejected(result: Result<Design, ParseDesignError>, needle: &str) {
    match result {
        Err(e) => assert!(e.to_string().contains(needle), "{e}"),
        Ok(_) => panic!("expected a rejection naming {needle:?}"),
    }
}

#[test]
fn a_cell_in_a_missing_region_is_rejected() {
    rejected(
        edited(|top| {
            first_cell(top).insert("region".into(), Json::uint(99));
        }),
        "dangling region id 99",
    );
}

#[test]
fn a_pin_on_a_missing_net_is_rejected() {
    rejected(
        edited(|top| {
            first_pin(top).insert("net".into(), Json::uint(999));
        }),
        "dangling net id 999",
    );
}

#[test]
fn an_empty_region_list_is_rejected() {
    rejected(
        edited(|top| arr(top, "regions").clear()),
        "design has no regions",
    );
}

#[test]
fn a_zero_width_cell_is_rejected() {
    rejected(
        edited(|top| {
            first_cell(top).insert("width".into(), Json::uint(0));
        }),
        "zero width or height",
    );
}

#[test]
fn a_pin_outside_its_cell_is_rejected() {
    rejected(
        edited(|top| {
            first_pin(top).insert("dx".into(), Json::uint(1000));
        }),
        "lies outside cell",
    );
}

/// Four congruent cells in a central-symmetric array of the given pairs.
fn central_symmetric(pairs: &[(usize, usize)]) -> DesignBuilder {
    let mut b = DesignBuilder::new("central");
    let r = b.add_region("core", 0.6);
    let pg = b.add_power_group("VDD");
    let net = b.add_net("n", 1);
    let cells: Vec<CellId> = (0..4)
        .map(|i| b.add_cell(format!("u{i}"), r, 2, 2, pg))
        .collect();
    b.add_pin(cells[0], "p", Some(net), 0, 0);
    b.add_pin(cells[3], "p", Some(net), 0, 0);
    b.add_array(ArrayConstraint {
        name: "arr".into(),
        cells: cells.clone(),
        pattern: ArrayPattern::CentralSymmetric {
            pairs: pairs.iter().map(|&(x, y)| (cells[x], cells[y])).collect(),
        },
    });
    b
}

#[test]
fn central_symmetric_pairs_must_cover_the_array() {
    // One pair leaves two members unpaired: no slot order places them.
    let code = DiagCode::ArrayBadPattern.code();
    match central_symmetric(&[(0, 3)]).build() {
        Err(e) => assert!(e.to_string().contains(code), "{e}"),
        Ok(_) => panic!("the builder accepted unpaired members"),
    }

    // The same array sent as JSON: drop the second pair of a valid design.
    let valid = central_symmetric(&[(0, 3), (1, 2)])
        .build()
        .expect("fully paired array");
    let mut json = valid.to_json_value();
    let top = obj(&mut json, "a design");
    let constraints = obj(
        top.get_mut("constraints").expect("constraints"),
        "constraints",
    );
    let array = obj(&mut arr(constraints, "arrays")[0], "an array");
    let pattern = obj(array.get_mut("pattern").expect("pattern"), "a pattern");
    arr(pattern, "pairs").pop();
    rejected(Design::from_json(&json.pretty()), code);
}

#[test]
fn a_stale_net_pins_key_is_ignored() {
    let design = benchmarks::synthetic(SyntheticParams::default());
    let parsed = edited(|top| {
        let stale = Json::Arr(vec![Json::Arr(vec![Json::Arr(vec![
            Json::uint(5000),
            Json::uint(0),
        ])])]);
        top.insert("net_pins".into(), stale);
    })
    .expect("net_pins is derived, not read");
    assert_eq!(parsed, design);
}

#[test]
fn valid_designs_parse_back_to_themselves() {
    for design in [
        benchmarks::buf(),
        benchmarks::vco(),
        benchmarks::synthetic(SyntheticParams::default()),
    ] {
        let back = Design::from_json(&design.to_json()).expect("own output parses");
        assert_eq!(back, design, "{}", design.name());
    }
}

#[test]
fn load_errors_say_which_stage_failed() {
    // Well-formed JSON naming a region that does not exist: a validation
    // failure, with no byte offset to report.
    let invalid = edited(|top| {
        first_cell(top).insert("region".into(), Json::uint(99));
    })
    .expect_err("dangling region");
    assert!(
        matches!(invalid, ParseDesignError::Invalid(_)),
        "{invalid:?}"
    );
    assert_eq!(invalid.to_string(), "invalid design: dangling region id 99");

    // Well-formed JSON with a field of the wrong type: a schema failure.
    let schema = edited(|top| {
        top.insert("name".into(), Json::uint(7));
    })
    .expect_err("numeric name");
    assert!(matches!(schema, ParseDesignError::Schema(_)), "{schema:?}");
    assert!(
        schema.to_string().starts_with("design schema: "),
        "{schema}"
    );

    // A truncated document is a syntax error at the byte where it breaks off.
    let text = benchmarks::synthetic(SyntheticParams::default()).to_json();
    let cut = text.len() / 2;
    match Design::from_json(&text[..cut]) {
        Err(ParseDesignError::Syntax(e)) => {
            assert!(e.offset > 0 && e.offset <= cut, "offset {}", e.offset);
            assert!(e.to_string().contains(&format!("byte {}", e.offset)), "{e}");
        }
        other => panic!("expected a syntax error, got {other:?}"),
    }
}
