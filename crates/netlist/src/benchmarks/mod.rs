//! Benchmark circuit generators.
//!
//! The paper evaluates on two TSMC-5nm industrial designs whose netlists are
//! proprietary. These generators synthesize circuits with the *published*
//! statistics (Table II) and the *described* topology and constraint
//! structure:
//!
//! | Benchmark | #Regions | #Cells | #Nets |
//! |-----------|----------|--------|-------|
//! | BUF       | 1        | 42     | 66    |
//! | VCO       | 2        | 110    | 71    |
//!
//! [`synthetic`] additionally generates parametric random designs for
//! scaling studies and property-based tests.

mod buf;
mod synthetic;
mod vco;

pub use buf::buf;
pub use synthetic::{synthetic, SyntheticParams};
pub use vco::vco;

use crate::Design;

/// The benchmark a name stands for: `buf`, `vco`, or `synthetic` (the
/// default [`SyntheticParams`]); `None` for any other name.
pub fn by_name(name: &str) -> Option<Design> {
    match name {
        "buf" => Some(buf()),
        "vco" => Some(vco()),
        "synthetic" => Some(synthetic(SyntheticParams::default())),
        _ => None,
    }
}
