//! Depth-k chain acceptance, end to end:
//!
//! * `imp` and `imp:depth=1` are bit-identical on a chain workload —
//!   the knob's default really is the paper's single-level detector;
//! * a chain workload survives the `.imptrace` round trip (replay is
//!   bit-identical through `trace:<path>` too);
//! * the per-hop timeliness ledger reconciles on a chained run, with
//!   real hop-2+ activity when the depth allows it;
//! * the `chain:<spec>` pseudo-workload grammar reaches the same
//!   builder as the named kernels.

use imp::obs::ObsConfig;
use imp::prelude::*;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("imp-chain-{tag}-{}.imptrace", std::process::id()))
}

/// The default depth is 1, bit for bit, through the whole simulator —
/// not just the detector: one full hashjoin run per spelling.
#[test]
fn unspecified_depth_is_depth_one_end_to_end() {
    let base = Sim::workload("hashjoin").scale(Scale::Tiny).cores(16);
    let plain = base.clone().prefetcher("imp").run().unwrap();
    let pinned = base.clone().prefetcher("imp:depth=1").run().unwrap();
    assert_eq!(plain, pinned, "imp == imp:depth=1 on a chain workload");
    // And the knob is not a no-op: depth 3 runs a different machine.
    let deep = base.prefetcher("imp:depth=3").run().unwrap();
    assert_ne!(plain, deep, "depth=3 must actually chase the chain");
}

/// A chain workload's `.imptrace` replays to identical statistics, and
/// the recorded regions keep `hot_regions`-driven placement working.
#[test]
fn chain_trace_round_trips() {
    let sim = Sim::workload("skiplist")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp:depth=3");
    let artifact = sim.build_artifact().unwrap();
    let live = sim.run_on(&artifact).unwrap();

    let path = temp_path("skiplist");
    artifact.save(&path).unwrap();
    let via_registry = Sim::workload(format!("trace:{}", path.display()))
        .cores(16)
        .prefetcher("imp:depth=3")
        .run()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(live, via_registry, "chain workload survives record/replay");
}

/// On a chained run the per-hop ledger reconciles bucket by bucket
/// (`fills == used + late + evicted_unused` per hop) and the deep hops
/// see real traffic.
#[test]
fn per_hop_ledger_reconciles_on_a_chain_run() {
    let (_, report) = Sim::workload("btree")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp:depth=3")
        .observe(ObsConfig::metrics())
        .run_observed()
        .unwrap();
    assert!(report.reconciles_per_hop(), "per-hop ledger invariant");
    let s = report.summary();
    assert!(
        s.per_hop[1].issued > 0,
        "hop 1 prefetches on a chain kernel"
    );
    let deep: u64 = s.per_hop[2..].iter().map(|c| c.issued).sum();
    assert!(deep > 0, "depth 3 reaches past the first hop");
    // Summary buckets mirror the report's.
    assert_eq!(&s.per_hop, report.ledger.per_hop());
}

/// The `chain:<spec>` grammar is the named kernels' builder: an
/// explicit spec spelling of `gather2` runs bit-identically to it.
#[test]
fn chain_grammar_matches_the_named_kernel() {
    let named = Sim::workload("gather2")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp:depth=2")
        .run()
        .unwrap();
    let spelled = Sim::workload("chain:depth=2,tables=g_idx+g_a+g_b")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp:depth=2")
        .run()
        .unwrap();
    assert_eq!(named, spelled, "grammar and kernel share one builder");
}
