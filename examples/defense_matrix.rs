//! The headline result: every attack variant run against every defense
//! stack. Reproduces the paper's core claims in one table.
//!
//! ```sh
//! cargo run --release --example defense_matrix
//! ```

use topomirage::scenarios::{matrix, DefenseStack, FaultProfile};

fn main() {
    println!("running 4 attacks x 5 defense stacks (Fig. 9 evaluation testbed)...\n");
    let entries = matrix::run_matrix(&DefenseStack::ALL, FaultProfile::Clean, 1000);
    println!("{}", matrix::render(&entries));
    println!("reading the table:");
    println!("  naive-relay         caught by TopoGuard-based stacks (the baseline works)");
    println!("  oob-amnesia         bypasses TopoGuard and SPHINX; only TOPOGUARD+ catches it");
    println!("  in-band             same, via context switching; TOPOGUARD+'s CMM catches it");
    println!("  port-probing-hijack wins the migration race against every stack");
}
