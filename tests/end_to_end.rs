//! Cross-crate integration tests: full workloads through the full
//! simulator, checking the paper's headline claims hold qualitatively.

use imp::prelude::*;

fn run_cfg(app: &str, cores: u32, cfg: SystemConfig) -> SystemStats {
    let params = WorkloadParams::new(cores as usize, Scale::Tiny);
    let built = by_name(app).unwrap().build(&params);
    System::new(cfg, built.program, built.mem).run()
}

#[test]
fn imp_speeds_up_every_indirect_workload_at_16_cores() {
    // Tiny inputs keep this fast; the shape (IMP >= Base) must hold for
    // every paper workload.
    for app in ["pagerank", "graph500", "lsh", "spmv"] {
        let base = run_cfg(app, 16, SystemConfig::paper_default(16));
        let imp = run_cfg(
            app,
            16,
            SystemConfig::paper_default(16).with_prefetcher("imp"),
        );
        assert!(
            (imp.runtime as f64) < base.runtime as f64 * 1.02,
            "{app}: IMP {} vs Base {}",
            imp.runtime,
            base.runtime
        );
        assert!(imp.coverage() >= base.coverage() - 0.02, "{app} coverage");
    }
}

#[test]
fn imp_is_harmless_on_dense_code() {
    let base = run_cfg("dense", 16, SystemConfig::paper_default(16));
    let imp = run_cfg(
        "dense",
        16,
        SystemConfig::paper_default(16).with_prefetcher("imp"),
    );
    let ratio = imp.runtime as f64 / base.runtime as f64;
    assert!(
        (0.95..1.05).contains(&ratio),
        "IMP must not disturb regular code: ratio {ratio}"
    );
    assert_eq!(
        imp.prefetch_total().issued_indirect,
        0,
        "no indirection to find"
    );
}

#[test]
fn ordering_ideal_fastest_then_perfpref() {
    for app in ["spmv", "pagerank"] {
        let ideal = run_cfg(
            app,
            16,
            SystemConfig::paper_default(16).with_mem_mode(MemMode::Ideal),
        );
        let perf = run_cfg(
            app,
            16,
            SystemConfig::paper_default(16).with_mem_mode(MemMode::PerfectPrefetch),
        );
        let imp = run_cfg(
            app,
            16,
            SystemConfig::paper_default(16).with_prefetcher("imp"),
        );
        let base = run_cfg(app, 16, SystemConfig::paper_default(16));
        assert!(ideal.runtime <= perf.runtime, "{app}: ideal <= perfpref");
        assert!(
            perf.runtime <= imp.runtime + imp.runtime / 10,
            "{app}: perfpref bounds imp"
        );
        assert!(imp.runtime <= base.runtime, "{app}: imp <= base");
    }
}

#[test]
fn partial_accessing_reduces_noc_traffic() {
    // Needs the Small scale: with Tiny inputs the LSH dataset is
    // cache-resident, every sector eventually gets touched, and partial
    // fetching loses — exactly the dynamic the Granularity Predictor's
    // Algorithm 1 is designed around.
    let run_small = |cfg: SystemConfig| {
        let params = WorkloadParams::new(16, Scale::Small);
        let built = by_name("lsh").unwrap().build(&params);
        System::new(cfg, built.program, built.mem).run()
    };
    let full = run_small(SystemConfig::paper_default(16).with_prefetcher("imp"));
    let partial = run_small(
        SystemConfig::paper_default(16)
            .with_prefetcher("imp")
            .with_partial(PartialMode::NocAndDram),
    );
    assert!(
        partial.traffic.noc_flit_hops < full.traffic.noc_flit_hops,
        "partial {} vs full {}",
        partial.traffic.noc_flit_hops,
        full.traffic.noc_flit_hops
    );
    assert!(partial.prefetch_total().partial_prefetches > 0);
}

#[test]
fn whole_stack_is_deterministic() {
    let a = run_cfg(
        "graph500",
        16,
        SystemConfig::paper_default(16).with_prefetcher("imp"),
    );
    let b = run_cfg(
        "graph500",
        16,
        SystemConfig::paper_default(16).with_prefetcher("imp"),
    );
    assert_eq!(a.runtime, b.runtime);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.misses_by_class(), b.misses_by_class());
}

#[test]
fn workload_results_are_functionally_correct() {
    // The generators run the real algorithms; their results must be
    // non-trivial and deterministic (detailed correctness checks live in
    // each workload's unit tests).
    for w in paper_workloads() {
        let built = w.build(&WorkloadParams::new(8, Scale::Tiny));
        assert!(built.result.is_finite(), "{}", w.name());
        let again = w.build(&WorkloadParams::new(8, Scale::Tiny));
        assert_eq!(built.result, again.result, "{}", w.name());
    }
}

#[test]
fn misses_are_dominated_by_indirect_accesses() {
    // Figure 1's claim on the baseline system.
    for app in ["pagerank", "lsh", "sgd"] {
        let s = run_cfg(app, 16, SystemConfig::paper_default(16));
        let m = s.misses_by_class();
        let total: u64 = m.iter().sum();
        assert!(
            m[AccessClass::Indirect.index()] * 2 > total,
            "{app}: indirect misses should dominate: {m:?}"
        );
    }
}

#[test]
fn out_of_order_core_still_benefits_from_imp() {
    // Figure 13's claim: OoO alone is not enough.
    let base_ooo = run_cfg(
        "pagerank",
        16,
        SystemConfig::paper_default(16).with_core_model(CoreModel::OutOfOrder),
    );
    let imp_ooo = run_cfg(
        "pagerank",
        16,
        SystemConfig::paper_default(16)
            .with_core_model(CoreModel::OutOfOrder)
            .with_prefetcher("imp"),
    );
    assert!(
        imp_ooo.runtime < base_ooo.runtime,
        "IMP on OoO: {} vs {}",
        imp_ooo.runtime,
        base_ooo.runtime
    );
}

#[test]
fn core_count_scaling_256_cores_runs() {
    // The largest paper configuration must at least run correctly.
    let s = run_cfg(
        "spmv",
        256,
        SystemConfig::paper_default(256).with_prefetcher("imp"),
    );
    assert!(s.runtime > 0);
    assert_eq!(s.cores.len(), 256);
}
