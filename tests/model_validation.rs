//! Validation of modelling claims the paper makes about its own
//! methodology (Section 5).

use imp::common::config::DramModelKind;
use imp::prelude::*;

fn run_with_dram(app: &str, kind: DramModelKind) -> SystemStats {
    let params = WorkloadParams::new(16, Scale::Tiny);
    let built = by_name(app).unwrap().build(&params);
    let mut cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
    cfg.mem.dram = kind;
    System::new(cfg, built.program, built.mem).run()
}

/// Section 5.1: "the simpler model produces results within 5% of
/// DRAMSim". Our two DRAM models should agree closely too (we accept a
/// wider band: the DDR3 model has bank conflicts the fixed-latency model
/// cannot express, and tiny inputs amplify cold effects).
#[test]
fn simple_and_ddr3_dram_models_agree() {
    for app in ["spmv", "pagerank"] {
        let simple = run_with_dram(app, DramModelKind::Simple);
        let ddr3 = run_with_dram(app, DramModelKind::Ddr3);
        let ratio = ddr3.runtime as f64 / simple.runtime as f64;
        assert!(
            (0.75..1.25).contains(&ratio),
            "{app}: DDR3/simple runtime ratio {ratio:.3}"
        );
    }
}

/// Table 1 scaling: quadrupling the core count must increase aggregate
/// resources by 2x (sqrt scaling), visible as mesh/MC geometry.
#[test]
fn sqrt_scaling_is_configured() {
    let c16 = SystemConfig::paper_default(16);
    let c64 = SystemConfig::paper_default(64);
    let c256 = SystemConfig::paper_default(256);
    assert_eq!(c16.mem.mem_controllers * 2, c64.mem.mem_controllers);
    assert_eq!(c64.mem.mem_controllers * 2, c256.mem.mem_controllers);
    // Total L2 doubles per 4x cores.
    let total = |c: &SystemConfig| c.mem.l2_slice.size_bytes * u64::from(c.cores);
    assert_eq!(total(&c16) * 2, total(&c64));
    assert_eq!(total(&c64) * 2, total(&c256));
}

/// The prefetch-distance claim of Section 3.2.3: larger maximum distance
/// helps a long-stream workload (spmv), because prefetches launch
/// earlier relative to use.
#[test]
fn distance_ramp_increases_timeliness() {
    let run_dist = |d: u32| {
        let params = WorkloadParams::new(16, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let mut cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
        cfg.imp.max_prefetch_distance = d;
        System::new(cfg, built.program, built.mem).run()
    };
    let short = run_dist(2);
    let long = run_dist(16);
    // Longer distance must not be slower by more than noise, and usually
    // wins; with tiny inputs we assert the weak direction.
    assert!(
        long.runtime <= short.runtime + short.runtime / 20,
        "distance 16: {} vs distance 2: {}",
        long.runtime,
        short.runtime
    );
}

/// Software prefetching's fundamental cost (Section 6.1.2): it must
/// execute more instructions than the hardware approach for the same
/// work.
#[test]
fn software_prefetching_costs_instructions() {
    for app in ["pagerank", "spmv", "lsh"] {
        let plain = by_name(app)
            .unwrap()
            .build(&WorkloadParams::new(8, Scale::Tiny))
            .program
            .total_instructions();
        let sw = by_name(app)
            .unwrap()
            .build(&WorkloadParams::new(8, Scale::Tiny).with_software_prefetch(8))
            .program
            .total_instructions();
        assert!(sw > plain, "{app}: {sw} vs {plain}");
    }
}
