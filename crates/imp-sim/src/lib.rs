//! Full-system simulator for the IMP reproduction.
//!
//! Models the paper's Table 1 system: N in-order (or modest OoO) cores on
//! a sqrt(N) x sqrt(N) mesh, private L1D caches with attached prefetchers,
//! a distributed shared L2 with an ACKwise-4 directory, sqrt(N) memory
//! controllers in a diamond placement, and a fixed-latency or DDR3-like
//! DRAM model. Supports the paper's execution modes: *Baseline* (stream
//! prefetcher), *IMP* (with optional partial cacheline accessing), *GHB*,
//! *Software Prefetching* (prefetch ops in the instruction stream),
//! *Perfect Prefetching* and *Ideal*.
//!
//! # Example
//!
//! ```
//! use imp_common::{SystemConfig, config::MemMode};
//! use imp_mem::FunctionalMemory;
//! use imp_sim::System;
//! use imp_trace::{Op, Program};
//!
//! let mut cfg = SystemConfig::paper_default(16);
//! cfg.mem_mode = MemMode::Ideal;
//! let mut p = Program::new("noop", 16);
//! for c in 0..16 {
//!     p.core_mut(c).push(Op::compute(100));
//! }
//! let stats = System::new(cfg, p, FunctionalMemory::new()).run();
//! assert!(stats.runtime >= 100);
//! assert_eq!(stats.total_instructions(), 1600);
//! ```

mod msg;
mod system;

pub use imp_prefetch::registry::RegistryError;
pub use imp_vm::{validate_config as validate_tlb_config, PagePlacement, VmConfigError};
pub use system::{BuildError, RunError, System, DEFAULT_EVENT_BUDGET};

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::config::{MemMode, PartialMode};
    use imp_common::stats::AccessClass;
    use imp_common::{Addr, Pc, SectorMask, SystemConfig};
    use imp_mem::{AddressSpace, FunctionalMemory};
    use imp_prefetch::{
        Access, Control, Feedback, L1Prefetcher, PrefetchCtx, PrefetchKind, PrefetchRequest,
        PrefetcherStats,
    };
    use imp_trace::{Op, Program};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Builds a 16-core program where every core streams over a private
    /// index array and performs `A[B[i]]` indirect loads.
    fn indirect_program(
        cores: usize,
        n: u64,
        sw_prefetch: bool,
    ) -> (Program, FunctionalMemory, u64) {
        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let mut p = Program::new("synthetic-indirect", cores);
        // One shared data array, per-core index arrays.
        let a = space.alloc_array::<f64>("A", 1 << 18);
        for c in 0..cores {
            let b = space.alloc_array::<u32>("B", n);
            for i in 0..n {
                let v = ((i * 2654435761 + c as u64 * 97) >> 6) % (1 << 18);
                b.write(&mut mem, i, v as u32);
            }
            let ops = p.core_mut(c);
            for i in 0..n {
                if sw_prefetch && i + 16 < n {
                    ops.push(Op::load(
                        b.addr_of(i + 16),
                        4,
                        Pc::new(3),
                        AccessClass::Stream,
                    ));
                    ops.push(Op::compute(2));
                    let v = {
                        let idx = ((i + 16) * 2654435761 + c as u64 * 97) >> 6;
                        idx % (1 << 18)
                    };
                    ops.push(Op::sw_prefetch(a.addr_of(v), Pc::new(4)));
                }
                ops.push(Op::load(b.addr_of(i), 4, Pc::new(1), AccessClass::Stream));
                let v = ((i * 2654435761 + c as u64 * 97) >> 6) % (1 << 18);
                ops.push(Op::load(a.addr_of(v), 8, Pc::new(2), AccessClass::Indirect).with_dep(1));
                ops.push(Op::compute(2));
            }
        }
        (p, mem, n)
    }

    fn run(cfg: SystemConfig, p: Program, mem: FunctionalMemory) -> imp_common::SystemStats {
        System::new(cfg, p, mem).run()
    }

    #[test]
    fn ideal_mode_is_pure_compute() {
        let (p, mem, n) = indirect_program(16, 200, false);
        let total = p.total_instructions();
        let cfg = SystemConfig::paper_default(16).with_mem_mode(MemMode::Ideal);
        let s = run(cfg, p, mem);
        assert_eq!(s.total_instructions(), total);
        // 4 instructions per iteration, all 1-cycle: runtime ~ 4n.
        assert!(
            s.runtime >= 4 * n && s.runtime < 6 * n,
            "runtime {}",
            s.runtime
        );
        assert_eq!(s.traffic.dram_bytes(), 0);
        assert_eq!(s.traffic.noc_flit_hops, 0);
    }

    #[test]
    fn baseline_stalls_on_indirect_misses() {
        let (p, mem, _) = indirect_program(16, 400, false);
        let cfg = SystemConfig::paper_default(16); // Baseline: stream pf
        let s = run(cfg, p, mem);
        let m = s.misses_by_class();
        assert!(
            m[AccessClass::Indirect.index()] > m[AccessClass::Stream.index()],
            "indirect misses dominate: {m:?}"
        );
        // Indirect stalls dominate total stall time (Figure 2's shape).
        let stalls: u64 = s.cores.iter().map(|c| c.stall_cycles[0]).sum();
        let other: u64 = s
            .cores
            .iter()
            .map(|c| c.stall_cycles[1] + c.stall_cycles[2])
            .sum();
        assert!(stalls > other, "indirect {stalls} vs rest {other}");
        assert!(s.traffic.dram_bytes() > 0);
    }

    #[test]
    fn imp_beats_baseline_on_indirect_workload() {
        let (p, mem, _) = indirect_program(16, 400, false);
        let base = run(SystemConfig::paper_default(16), p, mem);

        let (p2, mem2, _) = indirect_program(16, 400, false);
        let cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
        let imp = run(cfg, p2, mem2);

        assert!(
            imp.runtime < base.runtime,
            "IMP {} vs Base {}",
            imp.runtime,
            base.runtime
        );
        let pf = imp.prefetch_total();
        assert!(pf.issued_indirect > 0, "indirect prefetches issued: {pf:?}");
        assert!(imp.coverage() > base.coverage());
    }

    #[test]
    fn perfect_prefetch_bounds_imp() {
        let (p, mem, _) = indirect_program(16, 400, false);
        let cfg = SystemConfig::paper_default(16).with_mem_mode(MemMode::PerfectPrefetch);
        let perf = run(cfg, p, mem);

        let (p2, mem2, _) = indirect_program(16, 400, false);
        let cfg2 = SystemConfig::paper_default(16).with_prefetcher("imp");
        let imp = run(cfg2, p2, mem2);

        let (p3, mem3, _) = indirect_program(16, 400, false);
        let ideal = run(
            SystemConfig::paper_default(16).with_mem_mode(MemMode::Ideal),
            p3,
            mem3,
        );

        assert!(ideal.runtime <= perf.runtime, "Ideal fastest");
        assert!(
            perf.runtime <= imp.runtime,
            "PerfPref ({}) bounds IMP ({})",
            perf.runtime,
            imp.runtime
        );
        // PerfPref still moves data.
        assert!(perf.traffic.dram_bytes() > 0);
    }

    #[test]
    fn software_prefetch_helps_but_adds_instructions() {
        let (p, mem, _) = indirect_program(16, 400, false);
        let base = run(SystemConfig::paper_default(16), p, mem);

        let (p2, mem2, _) = indirect_program(16, 400, true);
        let extra = p2.total_instructions();
        let sw = run(SystemConfig::paper_default(16), p2, mem2);

        assert!(
            sw.runtime < base.runtime,
            "SW pref speeds up: {} vs {}",
            sw.runtime,
            base.runtime
        );
        assert!(extra > base.total_instructions(), "instruction overhead");
    }

    #[test]
    fn partial_mode_reduces_noc_traffic_with_imp() {
        let (p, mem, _) = indirect_program(16, 400, false);
        let cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
        let full = run(cfg, p, mem);

        let (p2, mem2, _) = indirect_program(16, 400, false);
        let cfg2 = SystemConfig::paper_default(16)
            .with_prefetcher("imp")
            .with_partial(PartialMode::NocAndDram);
        let part = run(cfg2, p2, mem2);

        assert!(
            part.prefetch_total().partial_prefetches > 0,
            "partial prefetches issued"
        );
        assert!(
            part.traffic.noc_flit_hops < full.traffic.noc_flit_hops,
            "partial {} vs full {}",
            part.traffic.noc_flit_hops,
            full.traffic.noc_flit_hops
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (p, mem, _) = indirect_program(16, 200, false);
        let cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
        let a = run(cfg.clone(), p, mem);
        let (p2, mem2, _) = indirect_program(16, 200, false);
        let b = run(cfg, p2, mem2);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.misses_by_class(), b.misses_by_class());
    }

    #[test]
    fn zero_cost_tlb_matches_ideal_translation_bit_for_bit() {
        // A finite TLB with zero walk latency and an Ideal prefetch
        // policy charges nothing anywhere: every counter the seed
        // simulator produced must be identical to the default ideal
        // translation (only the new TlbStats may differ).
        use imp_common::{TlbConfig, TranslationPolicy};
        let (p, mem, _) = indirect_program(16, 300, false);
        let ideal = run(
            SystemConfig::paper_default(16).with_prefetcher("imp"),
            p,
            mem,
        );
        let (p2, mem2, _) = indirect_program(16, 300, false);
        let zero_cost = TlbConfig::finite()
            .with_walk_latency(0)
            .with_policy(TranslationPolicy::Ideal);
        let finite = run(
            SystemConfig::paper_default(16)
                .with_prefetcher("imp")
                .with_tlb(zero_cost),
            p2,
            mem2,
        );
        assert_eq!(ideal.runtime, finite.runtime);
        assert_eq!(ideal.cores, finite.cores);
        assert_eq!(ideal.prefetch, finite.prefetch);
        assert_eq!(ideal.traffic, finite.traffic);
        assert!(finite.tlb_total().lookups() > 0, "the TLB did run");
        assert_eq!(ideal.tlb_total(), Default::default());
    }

    #[test]
    fn drop_on_miss_drops_indirect_prefetches_and_walks_stall() {
        use imp_common::{TlbConfig, TranslationPolicy};
        let (p, mem, _) = indirect_program(16, 400, false);
        let base_cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
        let ideal = run(base_cfg.clone(), p, mem);

        let (p2, mem2, _) = indirect_program(16, 400, false);
        let dropper = run(
            base_cfg
                .clone()
                .with_tlb(TlbConfig::finite().with_policy(TranslationPolicy::DropOnMiss)),
            p2,
            mem2,
        );
        let t = dropper.tlb_total();
        assert!(t.misses > 0, "cold pages must miss the dTLB");
        assert!(t.walk_cycles > 0, "demand walks are charged");
        assert!(
            t.prefetch_drops > 0,
            "IMP's value-derived prefetches land on unseen pages: {t:?}"
        );
        assert!(
            dropper.runtime > ideal.runtime,
            "translation costs must show: {} vs {}",
            dropper.runtime,
            ideal.runtime
        );
        let walk_stalls: u64 = dropper.cores.iter().map(|c| c.walk_stall_cycles).sum();
        assert!(walk_stalls > 0, "cores account their walk stalls");

        let (p3, mem3, _) = indirect_program(16, 400, false);
        let walker = run(
            base_cfg.with_tlb(TlbConfig::finite().with_policy(TranslationPolicy::NonBlockingWalk)),
            p3,
            mem3,
        );
        let t = walker.tlb_total();
        assert!(t.prefetch_walks > 0, "prefetches walk instead of dying");
        assert_eq!(t.prefetch_drops, 0);
        assert!(
            walker.prefetch_total().issued_indirect > dropper.prefetch_total().issued_indirect,
            "walking keeps prefetches DropOnMiss killed"
        );
    }

    #[test]
    fn walk_dram_traffic_is_accounted_when_enabled() {
        use imp_common::TlbConfig;
        let (p, mem, _) = indirect_program(16, 200, false);
        let quiet_cfg = SystemConfig::paper_default(16).with_tlb(TlbConfig::finite());
        let quiet = run(quiet_cfg.clone(), p, mem);

        let (p2, mem2, _) = indirect_program(16, 200, false);
        let mut noisy_cfg = quiet_cfg;
        noisy_cfg.tlb.walk_dram_traffic = true;
        let noisy = run(noisy_cfg, p2, mem2);
        assert_eq!(
            quiet.runtime, noisy.runtime,
            "first-order walk traffic is accounting-only"
        );
        assert!(noisy.traffic.dram_read_bytes > quiet.traffic.dram_read_bytes);
        assert!(noisy.traffic.dram_accesses > quiet.traffic.dram_accesses);
    }

    #[test]
    fn invalid_tlb_config_is_a_build_error() {
        use imp_common::TlbConfig;
        let mut cfg = SystemConfig::paper_default(16);
        cfg.tlb = TlbConfig::finite().with_page_bytes(3000);
        let mut p = Program::new("noop", 16);
        for c in 0..16 {
            p.core_mut(c).push(Op::compute(1));
        }
        match System::try_new(cfg, p, FunctionalMemory::new()) {
            Err(BuildError::Vm(e)) => assert!(e.to_string().contains("power of two"), "{e}"),
            other => panic!("expected a Vm build error, got {:?}", other.err()),
        }
    }

    #[test]
    fn machines_beyond_the_message_format_are_build_errors() {
        let noop = |cores: usize| {
            let mut p = Program::new("noop", cores);
            for c in 0..cores {
                p.core_mut(c).push(Op::compute(1));
            }
            p
        };
        // 257 x 257 tiles: one more mesh row and column than 16-bit tile
        // ids name. Rejected before anything is sized for them.
        let cfg = SystemConfig::paper_default(257 * 257);
        match System::try_new(cfg, noop(16), FunctionalMemory::new()) {
            Err(
                e @ BuildError::TooManyTiles {
                    tiles: 66049,
                    max: 65536,
                },
            ) => {
                assert!(e.to_string().contains("66049 tiles"), "{e}");
            }
            other => panic!("expected TooManyTiles, got {:?}", other.err()),
        }
        let mut cfg = SystemConfig::paper_default(16);
        cfg.mem.ackwise_k = imp_coherence::MAX_SHARERS as u32 + 1;
        assert!(matches!(
            System::try_new(cfg, noop(16), FunctionalMemory::new()),
            Err(BuildError::AckwiseTooWide { k: 5, max: 4 })
        ));
    }

    /// Transaction conservation: once a run completes, every home
    /// transaction, waiting request and MSHR has drained, and no
    /// directory record is left tracking nothing. Each kernel also runs
    /// with caches shrunk until L1 evictions, writebacks and L2 recalls
    /// are common (at full size the tiny inputs fit).
    #[test]
    fn completed_runs_leave_every_home_and_mshr_quiescent() {
        use imp_workloads::{by_name, Scale, WorkloadParams};
        let kernels = [
            "pagerank",
            "tri_count",
            "graph500",
            "sgd",
            "lsh",
            "spmv",
            "symgs",
            "dense",
            "gather2",
            "hashjoin",
            "skiplist",
            "btree",
        ];
        for name in kernels {
            for cores in [16, 64] {
                let built = by_name(name)
                    .expect("registered kernel")
                    .build(&WorkloadParams::new(cores, Scale::Tiny));
                for (prefetcher, shrink) in [("none", 1), ("imp", 1), ("none", 16), ("imp", 16)] {
                    let mut cfg =
                        SystemConfig::paper_default(cores as u32).with_prefetcher(prefetcher);
                    cfg.mem.l1d.size_bytes /= shrink;
                    cfg.mem.l2_slice.size_bytes /= shrink;
                    let mut sys = System::try_new(cfg, built.program.clone(), built.mem.clone())
                        .expect("valid configuration");
                    sys.try_run().unwrap_or_else(|e| {
                        panic!("{name}/{cores}/{prefetcher}/shrink {shrink}: {e}")
                    });
                    sys.assert_quiescent();
                }
            }
        }
    }

    #[test]
    fn barriers_synchronize_cores() {
        // Core 0 computes long, all others wait at the barrier; nobody
        // passes until core 0 arrives.
        let cores = 16;
        let mut p = Program::new("barrier", cores);
        p.core_mut(0).push(Op::compute(10_000));
        for c in 0..cores {
            p.core_mut(c).push(Op::barrier());
            p.core_mut(c).push(Op::compute(10));
        }
        let cfg = SystemConfig::paper_default(16).with_mem_mode(MemMode::Ideal);
        let s = run(cfg, p, FunctionalMemory::new());
        for c in 0..cores {
            assert!(
                s.cores[c].done_cycle >= 10_000,
                "core {c} finished at {} before the barrier released",
                s.cores[c].done_cycle
            );
        }
    }

    #[test]
    fn coherent_sharing_invalidates_readers() {
        // All cores read one line, then core 0 writes it: ACKwise must
        // broadcast (sharers > 4) and the write must complete.
        let cores = 16;
        let mut space = AddressSpace::new();
        let mem = FunctionalMemory::new();
        let x = space.alloc_array::<u64>("x", 8);
        let mut p = Program::new("sharing", cores);
        for c in 0..cores {
            p.core_mut(c)
                .push(Op::load(x.addr_of(0), 8, Pc::new(1), AccessClass::Other));
        }
        p.barrier();
        p.core_mut(0)
            .push(Op::store(x.addr_of(0), 8, Pc::new(2), AccessClass::Other));
        let s = run(SystemConfig::paper_default(16), p, mem);
        assert!(s.runtime > 0);
        // The broadcast invalidation shows up as NoC messages well above
        // the minimum for 17 accesses.
        assert!(
            s.traffic.noc_messages > 40,
            "messages {}",
            s.traffic.noc_messages
        );
    }

    /// Core 0's prefetcher issues one exclusive prefetch of a target
    /// line on its first access; every epoch's evicted-unused count
    /// reaches `evicted_unused` through core 0's feedback.
    struct OneExclusivePrefetch {
        target: Option<Addr>,
        evicted_unused: Option<Arc<AtomicU64>>,
        stats: PrefetcherStats,
    }

    impl L1Prefetcher for OneExclusivePrefetch {
        fn on_access_ctx(&mut self, access: Access, ctx: &mut PrefetchCtx<'_>) {
            if let Some(addr) = self.target.take() {
                ctx.emit(PrefetchRequest {
                    pc: access.pc,
                    addr,
                    sectors: SectorMask::FULL_L1,
                    exclusive: true,
                    kind: PrefetchKind::Sequential,
                });
            }
        }

        fn on_feedback(&mut self, feedback: &Feedback) -> Control {
            if let Some(n) = &self.evicted_unused {
                n.fetch_add(feedback.total.evicted_unused, Ordering::Relaxed);
            }
            Control::none()
        }

        fn stats(&self) -> &PrefetcherStats {
            &self.stats
        }
    }

    #[test]
    fn fetch_invalidation_of_an_unused_prefetch_reaches_the_manager_ledger() {
        let target = Addr::new(0x4_0000);
        let evicted_unused = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&evicted_unused);
        imp_prefetch::registry::register_fn("sim-test-one-exclusive", move |_spec, ctx| {
            let core0 = ctx.core == 0;
            Ok(Box::new(OneExclusivePrefetch {
                target: core0.then_some(target),
                evicted_unused: core0.then(|| Arc::clone(&counter)),
                stats: PrefetcherStats::default(),
            }))
        })
        .expect("test owns this name");

        // Core 0 prefetches the target line exclusively and never
        // touches it; after the barrier core 1 stores to it, so the home
        // fetches the line back from its owner with an invalidation.
        // Epochs keep closing long after that.
        let mut p = Program::new("fetch-invalidate", 4);
        let private = Addr::new(0x1000);
        p.core_mut(0)
            .push(Op::load(private, 8, Pc::new(1), AccessClass::Other));
        p.core_mut(0).push(Op::compute(2_000));
        p.barrier();
        p.core_mut(1)
            .push(Op::store(target, 8, Pc::new(2), AccessClass::Other));
        for c in 0..4 {
            p.core_mut(c).push(Op::compute(20_000));
        }
        let cfg = SystemConfig::paper_default(4)
            .with_prefetcher("sim-test-one-exclusive")
            .with_manager("static:epoch=1000");
        let s = run(cfg, p, FunctionalMemory::new());

        assert_eq!(s.prefetch[0].issued_stream, 1);
        assert_eq!(s.prefetch[0].unused, 1, "the prefetch was never used");
        assert_eq!(
            evicted_unused.load(Ordering::Relaxed),
            1,
            "the manager's ledger saw the invalidated prefetch before run end"
        );
    }

    #[test]
    fn ooo_core_model_runs_and_overlaps() {
        let (p, mem, _) = indirect_program(16, 300, false);
        let io = run(SystemConfig::paper_default(16), p, mem);

        let (p2, mem2, _) = indirect_program(16, 300, false);
        let cfg =
            SystemConfig::paper_default(16).with_core_model(imp_common::CoreModel::OutOfOrder);
        let ooo = run(cfg, p2, mem2);
        assert!(
            ooo.runtime < io.runtime,
            "OoO ({}) should beat in-order ({})",
            ooo.runtime,
            io.runtime
        );
    }

    #[test]
    fn probe_observes_without_perturbing_and_ledger_reconciles() {
        use imp_common::{TlbConfig, TranslationPolicy};
        let cfg = || {
            SystemConfig::paper_default(16)
                .with_prefetcher("imp")
                .with_tlb(TlbConfig::finite().with_policy(TranslationPolicy::NonBlockingWalk))
        };
        let (p, mem, _) = indirect_program(16, 300, false);
        let bare = run(cfg(), p, mem);

        let (p2, mem2, _) = indirect_program(16, 300, false);
        let mut sys = System::new(cfg(), p2, mem2);
        sys.attach_probe(imp_obs::Probe::new(&imp_obs::ObsConfig::full(4096, 1000)));
        let probed = sys.run();

        // Observation never changes the simulation.
        assert_eq!(bare.runtime, probed.runtime);
        assert_eq!(bare.cores, probed.cores);
        assert_eq!(bare.prefetch, probed.prefetch);
        assert_eq!(bare.traffic, probed.traffic);

        let report = sys.obs_report().expect("probe was enabled");
        let t = *report.ledger.total();
        assert!(
            report.ledger.reconciles(),
            "fills {} != used {} + late {} + evicted_unused {}",
            t.fills,
            t.used,
            t.late,
            t.evicted_unused
        );
        // Ledger counts mirror the prefetch statistics they ride along:
        // exact for issues (no sw prefetches here), bounded for the
        // rest (untracked fills — prefetches merged into existing MSHR
        // entries — are excluded from the ledger by design).
        let pf = probed.prefetch_total();
        assert_eq!(t.issued, pf.issued_stream + pf.issued_indirect);
        assert!(t.used <= pf.covered);
        assert!(t.late <= pf.late);
        assert!(t.used > 0, "some prefetch was covered");
        assert!(!report.ledger.per_pc().is_empty());
        assert!(report.demand_latency.count() > 0);
        assert!(report.walk_latency.count() > 0, "finite TLB must walk");
        assert!(!report.epochs.is_empty());
        let trace = report.trace.as_ref().expect("tracing was on");
        assert!(!trace.is_empty());
        let json = trace.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn collecting_statistics_twice_returns_the_same_numbers() {
        let (p, mem, _) = indirect_program(16, 300, false);
        let mut sys = System::new(
            SystemConfig::paper_default(16).with_prefetcher("imp"),
            p,
            mem,
        );
        let first = sys.try_run().unwrap();
        let again = sys.try_run().unwrap();
        let pf = first.prefetch_total();
        assert!(pf.useful + pf.unused > 0, "the final sweep counts lines");
        assert_eq!(first, again);
    }

    #[test]
    fn ghb_does_not_help_fresh_indirect_streams() {
        let (p, mem, _) = indirect_program(16, 300, false);
        let base = run(SystemConfig::paper_default(16), p, mem);
        let (p2, mem2, _) = indirect_program(16, 300, false);
        let cfg = SystemConfig::paper_default(16).with_prefetcher("ghb");
        let ghb = run(cfg, p2, mem2);
        // Within a few percent of baseline (the paper: "no benefits").
        let ratio = ghb.runtime as f64 / base.runtime as f64;
        assert!(
            ratio > 0.9,
            "GHB should not dramatically beat baseline: {ratio}"
        );
    }
}
