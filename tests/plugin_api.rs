//! The PR's acceptance criteria, end to end: a user-defined prefetcher
//! registered from outside `imp-sim` runs through `Sim`, and `Sweep`
//! grids are identical single- vs multi-threaded.

use imp::common::{LineAddr, SectorMask};
use imp::prefetch::registry::{self, RegistryError};
use imp::prefetch::{Access, L1Prefetcher, PrefetchKind, PrefetchRequest, PrefetcherStats};
use imp::prelude::*;
use imp::sim::System;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A user-defined next-line prefetcher, unknown to every core crate.
struct NextLine {
    stats: PrefetcherStats,
    issued: Arc<AtomicU64>,
}

impl L1Prefetcher for NextLine {
    fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
        if !access.miss {
            return;
        }
        self.stats.stream_prefetches += 1;
        self.issued.fetch_add(1, Ordering::Relaxed);
        let next = LineAddr::containing(access.addr).number() + 1;
        ctx.emit(PrefetchRequest {
            pc: access.pc,
            addr: LineAddr::from_line_number(next).base(),
            sectors: SectorMask::FULL_L1,
            exclusive: false,
            kind: PrefetchKind::Sequential,
        });
    }

    fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }
}

fn register_next_line() -> Arc<AtomicU64> {
    static ISSUED: std::sync::OnceLock<Arc<AtomicU64>> = std::sync::OnceLock::new();
    ISSUED
        .get_or_init(|| {
            let issued = Arc::new(AtomicU64::new(0));
            let captured = issued.clone();
            registry::register_fn("test-next-line", move |_spec, _ctx| {
                Ok(Box::new(NextLine {
                    stats: PrefetcherStats::default(),
                    issued: captured.clone(),
                }))
            })
            .expect("test owns this name");
            issued
        })
        .clone()
}

#[test]
fn custom_prefetcher_runs_end_to_end_through_sim() {
    let issued = register_next_line();
    let before = issued.load(Ordering::Relaxed);
    let stats = Sim::workload("spmv")
        .cores(16)
        .scale(Scale::Tiny)
        .prefetcher("test-next-line")
        .run()
        .expect("registered prefetcher must resolve");
    assert!(stats.runtime > 0);
    // The plugin really sat in the L1 path: it issued prefetches and the
    // simulator accounted them.
    assert!(
        issued.load(Ordering::Relaxed) > before,
        "plugin saw no misses"
    );
    assert!(
        stats.prefetch_total().issued_stream > 0,
        "no prefetches reached the MSHRs"
    );
}

#[test]
fn custom_prefetcher_round_trips_through_system_directly() {
    register_next_line();
    let params = WorkloadParams::new(16, Scale::Tiny);
    let built = by_name("spmv").unwrap().build(&params);
    let cfg = SystemConfig::paper_default(16).with_prefetcher("test-next-line");
    let stats = System::try_new(cfg, built.program, built.mem)
        .expect("spec resolves")
        .run();
    assert!(stats.prefetch_total().issued_stream > 0);
}

#[test]
fn unknown_prefetcher_fails_cleanly_not_by_panic() {
    let params = WorkloadParams::new(16, Scale::Tiny);
    let built = by_name("spmv").unwrap().build(&params);
    let cfg = SystemConfig::paper_default(16).with_prefetcher("nobody-registered-this");
    match System::try_new(cfg, built.program, built.mem) {
        Err(imp::sim::BuildError::Registry(RegistryError::UnknownPrefetcher { name, .. })) => {
            assert_eq!(name, "nobody-registered-this");
        }
        Ok(_) => panic!("unknown prefetcher must not build"),
        Err(other) => panic!("wrong error: {other}"),
    }
}

/// The acceptance grid: ≥3 prefetchers × ≥2 core counts, single- vs
/// multi-threaded, must agree cell for cell.
#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let grid = || {
        Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .cores([16, 64])
            .prefetchers(["none", "stream", "imp", "hybrid"])
    };
    let serial = grid().threads(1).run().expect("serial sweep");
    let parallel = grid().threads(4).run().expect("parallel sweep");
    assert_eq!(serial.len(), 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.cell, b.cell, "cell order must not depend on threads");
        assert_eq!(a.stats.runtime, b.stats.runtime, "{:?}", a.cell);
        assert_eq!(a.stats.traffic, b.stats.traffic, "{:?}", a.cell);
        assert_eq!(
            a.stats.misses_by_class(),
            b.stats.misses_by_class(),
            "{:?}",
            a.cell
        );
    }
    // Sanity on the shape: within a core count, cells share the input
    // seed, so IMP beating the null prefetcher is a real comparison.
    let at16: Vec<_> = serial.iter().filter(|r| r.cell.cores == 16).collect();
    let none = at16
        .iter()
        .find(|r| r.cell.prefetcher.name == "none")
        .unwrap();
    let imp = at16
        .iter()
        .find(|r| r.cell.prefetcher.name == "imp")
        .unwrap();
    assert_eq!(none.cell.seed, imp.cell.seed);
    assert!(imp.stats.runtime < none.stats.runtime);
}
