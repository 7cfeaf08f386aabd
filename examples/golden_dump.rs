//! Dumps full `SystemStats` for a diverse grid of configurations.
//!
//! Used to verify that simulator-kernel refactors stay bit-identical:
//! run it before and after a change and diff the output.
//! `tests/golden_dump.rs` pins the same grid by digest.

#[path = "../tests/golden/cells.rs"]
mod golden;

fn main() {
    for (name, sim) in golden::cells() {
        let stats = sim.run().unwrap();
        println!("=== {name} ===");
        println!("{stats:?}");
    }
}
