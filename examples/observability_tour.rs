//! Tour of the observability layer: histograms, the prefetch ledger,
//! epoch sampling, and the Chrome trace — all from one probed run.
//!
//! Runs SpMV with the IMP prefetcher twice, bare and with
//! `Sim::observe(ObsConfig::full(..))`, and *asserts* the probe's core
//! guarantees along the way:
//!
//! * observation never perturbs: the probed run's `SystemStats` are
//!   bit-identical to the bare run's;
//! * the timeliness ledger reconciles exactly:
//!   `fills == used + late + evicted_unused`;
//! * the emitted trace is well-formed Chrome `trace_event` JSON
//!   (structural checks here; CI re-parses the file with a real JSON
//!   parser).
//!
//! The trace is written to `IMP_TRACE_OUT` if set (CI archives it as
//! an artifact), else a temp path. Load it in Perfetto or
//! `chrome://tracing` to see demand misses, prefetch lifetimes, page
//! walks, and directory invalidations on per-core/per-slice tracks.
//!
//! ```text
//! cargo run --release --example observability_tour
//! ```

use imp::obs::ObsConfig;
use imp::prelude::*;
use imp_experiments::scale_from_env;

fn main() {
    let cores = 16;
    let sim = Sim::workload("spmv")
        .scale(scale_from_env())
        .cores(cores)
        .prefetcher("imp")
        .tlb_ways(4)
        .l2_tlb(128, 8)
        .walk_model(WalkModel::Cached);
    println!("spmv, {cores} cores, IMP prefetcher (set IMP_SCALE to change)\n");

    // Bare run first: the reference the probed run must not perturb.
    let bare = sim.run().expect("bare run");
    let (stats, report) = sim
        .clone()
        .observe(ObsConfig::full(1 << 16, 10_000))
        .run_observed()
        .expect("probed run");
    assert_eq!(stats, bare, "observation must never change timing");
    println!("probe attached: stats bit-identical to the bare run ✓");

    // Latency histograms (log2 buckets, bucket upper bounds shown).
    println!(
        "\ndemand-miss latency ({} misses):",
        report.demand_latency.count()
    );
    for (lo, hi, n) in report.demand_latency.nonzero() {
        println!("  {lo:>6} ..= {hi:<6} {n}");
    }
    assert!(report.demand_latency.count() > 0, "spmv misses in L1");
    println!(
        "page-walk latency: {} walks, p99 {:?}",
        report.walk_latency.count(),
        report.walk_latency.quantile(0.99)
    );
    assert!(report.walk_latency.count() > 0, "finite TLB walks");

    // The timeliness ledger: every tracked fill has exactly one fate.
    let t = report.ledger.total();
    println!(
        "\nprefetch ledger: issued {} fills {} = used {} + late {} + evicted-unused {}",
        t.issued, t.fills, t.used, t.late, t.evicted_unused
    );
    assert!(report.ledger.reconciles(), "ledger invariant: {t:?}");
    assert!(t.used > 0, "IMP prefetches get used on spmv");
    println!(
        "accuracy {:.1}%, timeliness {:.1}%, use-distance p50 {:?}",
        100.0 * t.accuracy(),
        100.0 * t.timeliness(),
        report.use_distance.quantile(0.5)
    );
    for class in AccessClass::ALL {
        let c = report.ledger.per_class()[class.index()];
        if c.issued > 0 {
            println!(
                "  {:<9} issued {:>6} used {:>6} late {:>6}",
                class.name(),
                c.issued,
                c.used,
                c.late
            );
        }
    }
    let hot = report
        .ledger
        .per_pc()
        .into_iter()
        .max_by_key(|(_, c)| c.issued)
        .expect("at least one prefetching PC");
    println!("  hottest PC {:?}: {} issued", hot.0, hot.1.issued);

    // Epoch time series: prefetch activity over simulated time.
    println!("\nepochs ({} windows of 10k cycles):", report.epochs.len());
    assert!(!report.epochs.is_empty(), "epoch sampler ran");
    for s in report.epochs.iter().take(5) {
        println!(
            "  [{:>8}, {:>8}) misses {:>5} pf_issued {:>5} pf_used {:>5}",
            s.start, s.end, s.counters.demand_misses, s.counters.pf_issued, s.counters.pf_used
        );
    }

    // The Chrome trace: structural checks, then out to disk.
    let trace = report.trace.as_ref().expect("tracing was configured");
    assert!(!trace.is_empty(), "events were recorded");
    assert_eq!(
        trace.len() as u64 + trace.dropped(),
        trace.pushes(),
        "ring accounting reconciles"
    );
    let json = trace.to_chrome_json();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "one JSON object"
    );
    assert!(
        json.contains("\"traceEvents\""),
        "chrome trace_event format"
    );
    let out = std::env::var_os("IMP_TRACE_OUT").map_or_else(
        || std::env::temp_dir().join(format!("imp-obs-tour-{}.json", std::process::id())),
        std::path::PathBuf::from,
    );
    std::fs::write(&out, &json).expect("write trace");
    println!(
        "\ntrace: {} events ({} dropped) -> {}",
        trace.len(),
        trace.dropped(),
        out.display()
    );
    println!("\nall observability invariants hold ✓");
}
