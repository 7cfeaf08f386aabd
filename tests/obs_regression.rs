//! Observability regression tests: the probe is a lens, never a knob.
//!
//! The golden pin: a probed run — at any observation level — produces
//! `SystemStats` bit-identical to a bare run of the same `Sim`, and
//! the observation itself is deterministic. The probe must also stay
//! out of the result-store identity, so observed sweeps share cache
//! entries with unobserved ones.

use imp::obs::ObsConfig;
use imp::prelude::*;
use imp::store::ResultStore;

fn spmv_imp() -> Sim {
    Sim::workload("spmv")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp")
        .tlb_ways(4)
        .walk_model(WalkModel::Cached)
}

/// The `spmv/imp/tree-tlb` golden cell: a `tree`-managed run, where the
/// manager and the probe read one ledger.
fn spmv_imp_tree_tlb() -> Sim {
    Sim::workload("spmv")
        .scale(Scale::Tiny)
        .cores(16)
        .prefetcher("imp")
        .tlb(TlbConfig::finite())
        .l2_tlb(64, 8)
        .tlb_prefetch(true)
        .walk_model(WalkModel::Cached)
        .manager("tree:epoch=1000")
}

/// The golden pin: stats from a bare run, a metrics-only run, and a
/// full-trace run are all bit-identical — switching observation on or
/// off (or up) can never change a simulated number, managed or not.
#[test]
fn probed_runs_are_bit_identical_to_bare_runs() {
    for (name, sim) in [
        ("spmv/imp", spmv_imp()),
        ("spmv/imp/tree-tlb", spmv_imp_tree_tlb()),
    ] {
        let bare = sim.run().unwrap();
        let (metrics, _) = sim
            .clone()
            .observe(ObsConfig::metrics())
            .run_observed()
            .unwrap();
        let (full, report) = sim
            .clone()
            .observe(ObsConfig::full(4096, 5_000))
            .run_observed()
            .unwrap();
        assert_eq!(bare, metrics, "{name}: metrics probe perturbed the run");
        assert_eq!(bare, full, "{name}: tracing probe perturbed the run");
        assert!(
            report.ledger.reconciles(),
            "{name}: ledger fills all have one fate"
        );
        assert!(
            report.trace.is_some(),
            "{name}: full config records a trace"
        );
    }
}

/// Identical observed runs produce identical observations: histograms,
/// ledger, epochs, and the trace are all functions of the (seeded,
/// deterministic) event stream.
#[test]
fn observation_is_deterministic() {
    let sim = spmv_imp().observe(ObsConfig::full(4096, 5_000));
    let (_, a) = sim.run_observed().unwrap();
    let (_, b) = sim.run_observed().unwrap();
    assert_eq!(a.demand_latency.buckets(), b.demand_latency.buckets());
    assert_eq!(a.walk_latency.buckets(), b.walk_latency.buckets());
    assert_eq!(a.ledger.total(), b.ledger.total());
    assert_eq!(a.ledger.per_pc(), b.ledger.per_pc());
    assert_eq!(a.epochs, b.epochs);
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.pushes(), tb.pushes());
    assert_eq!(ta.to_chrome_json(), tb.to_chrome_json());
}

/// Observation stays out of cell identity: an observed sweep is served
/// from a store populated by an unobserved one (and vice versa), with
/// cached cells carrying no summary — the store holds stats, not
/// observations.
#[test]
fn observe_shares_store_entries_with_unobserved_sweeps() {
    let dir = std::env::temp_dir().join(format!("imp-obs-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let grid = || {
        Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["none", "imp"])
            .cores([16])
    };

    let cold = grid()
        .observe(ObsConfig::metrics())
        .run_with(&store, |_| {})
        .unwrap();
    assert_eq!((cold.cached, cold.simulated), (0, 2));
    for r in cold.results.iter().map(|r| r.as_ref().unwrap()) {
        let obs = r.obs.as_ref().expect("freshly simulated cells observe");
        assert_eq!(
            obs.ledger.fills,
            obs.ledger.used + obs.ledger.late + obs.ledger.evicted_unused
        );
    }

    // Same grid, observed or not: every cell is a store hit.
    let warm = grid()
        .observe(ObsConfig::metrics())
        .run_with(&store, |_| {})
        .unwrap();
    assert_eq!((warm.cached, warm.simulated), (2, 0));
    for (c, w) in cold.results.iter().zip(&warm.results) {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(c.stats, w.stats, "store round-trip is bit-identical");
        assert!(w.obs.is_none(), "cached cells are not re-observed");
    }
    let bare = grid().run_with(&store, |_| {}).unwrap();
    assert_eq!((bare.cached, bare.simulated), (2, 0));
    std::fs::remove_dir_all(&dir).ok();
}
