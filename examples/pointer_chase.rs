//! Depth-k pointer chasing: what chained indirection buys IMP.
//!
//! The `hashjoin` kernel probes a three-table chain per lookup —
//! `bucket[probe[i]]`, then `entry[...]`, then `payload[...]` — so a
//! depth-1 detector (the paper's single-level IMP) only ever covers the
//! first hop: hops 2 and 3 miss all the way to DRAM. `imp:depth=3`
//! walks the chain ahead of the demand stream, prefetching every hop
//! from the values the previous hop returns.
//!
//! This example runs the same generated input at `imp:depth=1` and
//! `imp:depth=3` and *asserts* the chained detector's headline claim:
//! deeper chasing must win on prefetch coverage AND runtime. The
//! per-hop timeliness ledger shows where the win comes from (hop-2/3
//! fills that depth 1 cannot issue), and the per-hop ledger invariant
//! `fills == used + late + evicted_unused` is checked on every run.
//!
//! ```text
//! cargo run --release --example pointer_chase [--json]
//! IMP_SCALE=tiny cargo run --release --example pointer_chase
//! ```

use imp::obs::ObsConfig;
use imp::prelude::*;
use imp_experiments::scale_from_env;

fn main() {
    let scale = scale_from_env();
    let cores = 16;
    let base = Sim::workload("hashjoin").scale(scale).cores(cores);
    println!("hashjoin (3-hop chain), {cores} cores (set IMP_SCALE to change)\n");

    let run = |depth: u32| {
        base.clone()
            .prefetcher(format!("imp:depth={depth}").as_str())
            .observe(ObsConfig::metrics())
            .run_observed()
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            })
    };

    let depths = [1u32, 2, 3];
    let results: Vec<_> = depths.iter().map(|&d| run(d)).collect();

    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>9}  per-hop accuracy (issued)",
        "depth", "runtime", "coverage", "accuracy", "late"
    );
    for (&d, (stats, report)) in depths.iter().zip(&results) {
        assert!(
            report.reconciles_per_hop(),
            "per-hop ledger invariant at depth {d}"
        );
        let s = report.summary();
        let hops: Vec<String> = s
            .per_hop
            .iter()
            .enumerate()
            .filter(|(_, c)| c.issued > 0)
            .map(|(h, c)| format!("hop{h} {:.2} ({})", c.accuracy(), c.issued))
            .collect();
        let t = report.ledger.total();
        println!(
            "{:<8} {:>10} {:>9.1}% {:>8.1}% {:>9}  {}",
            d,
            stats.runtime,
            100.0 * stats.coverage(),
            100.0 * t.accuracy(),
            t.late,
            hops.join("  ")
        );
    }

    let (d1, _) = &results[0];
    let (d3, r3) = &results[2];

    // The headline claim, kept honest on every run: walking the chain
    // ahead of the demand stream must beat the single-level detector on
    // coverage AND runtime — not trade one for the other.
    assert!(
        d3.coverage() > d1.coverage(),
        "depth 3 must raise prefetch coverage ({:.4} vs {:.4})",
        d3.coverage(),
        d1.coverage()
    );
    assert!(
        d3.runtime < d1.runtime,
        "and shorten the run ({} vs {} cycles)",
        d3.runtime,
        d1.runtime
    );
    // And the win must come from the deep hops: depth 3 issues
    // prefetches at hops the depth-1 detector never reaches.
    let deep_issued: u64 = r3.summary().per_hop[2..].iter().map(|c| c.issued).sum();
    assert!(
        deep_issued > 0,
        "depth 3 issues hop-2+ prefetches the single-level detector cannot"
    );

    println!(
        "\ndepth 3 vs depth 1: coverage {:+.1} pts, runtime x{:.3} ✓",
        100.0 * (d3.coverage() - d1.coverage()),
        d3.runtime as f64 / d1.runtime as f64
    );
}
