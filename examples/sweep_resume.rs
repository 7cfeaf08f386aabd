//! Resumable sweeps through the content-addressed result store.
//!
//! Runs a fig-9-style prefetcher grid against a store, re-runs it warm
//! (every cell served from disk, nothing simulated), then *extends* the
//! grid with one more prefetcher axis value — only the new cells
//! simulate, and the merged table is bit-identical to running the
//! extended grid from scratch without a store.
//!
//! The store lives at `IMP_STORE_DIR` if set (point two invocations at
//! the same directory and the second simulates zero cells — the CI
//! smoke test does exactly this), else a fresh temp directory that the
//! example removes when it is done.
//!
//! ```text
//! cargo run --release --example sweep_resume
//! ```

use imp::prelude::*;
use imp::store::ResultStore;

fn grid(prefetchers: &[&str]) -> Sweep {
    Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
        .workloads(["spmv", "pagerank"])
        .prefetchers(prefetchers.to_vec())
        .cores([16])
}

fn main() {
    let named = std::env::var_os("IMP_STORE_DIR");
    let root = named.clone().map_or_else(
        || std::env::temp_dir().join(format!("imp-sweep-resume-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let store = ResultStore::open(&root).expect("open result store");
    println!("store: {}", root.display());
    let mut simulated_total = 0;
    let mut cells_total = 0;

    // Cold pass (warm if a previous invocation shares the store).
    let base = grid(&["none", "stream", "imp"]);
    let n = base.cells().len();
    let cold = base.run_with(&store, |_| {}).expect("base grid");
    assert_eq!(cold.cached + cold.simulated, n, "every cell accounted");
    assert_eq!(cold.failed, 0);
    println!(
        "base grid:     simulated {} of {n} ({} cached)",
        cold.simulated, cold.cached
    );
    simulated_total += cold.simulated;
    cells_total += n;

    // Warm re-run: the store serves everything, bit-identically.
    let warm = base.run_with(&store, |_| {}).expect("warm grid");
    assert_eq!(
        (warm.cached, warm.simulated),
        (n, 0),
        "warm re-run simulates nothing"
    );
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert_eq!(
            c.as_ref().unwrap().stats,
            w.as_ref().unwrap().stats,
            "warm result drifted"
        );
    }
    println!("warm re-run:   simulated 0 of {n} (bit-identical)");
    cells_total += n;

    // Extend the prefetcher axis: only the ghb cells are new.
    let extended = grid(&["none", "stream", "imp", "ghb"]);
    let m = extended.cells().len();
    let new_cells = m - n;
    let ext = extended.run_with(&store, |_| {}).expect("extended grid");
    assert_eq!(ext.cached + ext.simulated, m);
    assert_eq!(ext.failed, 0);
    assert!(
        ext.simulated <= new_cells,
        "extending an axis must only simulate the new cells ({} > {new_cells})",
        ext.simulated
    );
    println!(
        "extended grid: simulated {} of {m} ({new_cells} cells are new)",
        ext.simulated
    );
    simulated_total += ext.simulated;
    cells_total += m;

    // The merged (store-served) table matches a from-scratch run.
    let scratch = extended.run().expect("from-scratch grid");
    for (s, f) in ext.results.iter().zip(&scratch) {
        let s = s.as_ref().unwrap();
        assert_eq!(s.cell, f.cell);
        assert_eq!(
            s.stats, f.stats,
            "store-merged grid drifted from scratch run"
        );
    }
    println!("merged grid is bit-identical to a from-scratch run of all {m} cells");
    println!("resume: simulated {simulated_total} of {cells_total} cell-runs this invocation");
    if named.is_none() {
        std::fs::remove_dir_all(&root).expect("remove the scratch store");
    }
}
