//! # imp — a reproduction of *IMP: Indirect Memory Prefetcher* (MICRO-48, 2015)
//!
//! This crate is the facade over the workspace that re-implements the
//! paper end to end:
//!
//! * [`prefetch`] — the contribution itself: the Indirect Memory
//!   Prefetcher (stream table + Indirect Pattern Detector + Prefetch
//!   Table with multi-way/multi-level indirection) and its Granularity
//!   Predictor for partial cacheline accessing, plus the baseline stream
//!   and GHB prefetchers.
//! * [`sim`] — a Graphite-style many-core simulator: in-order/OoO cores,
//!   sectored caches, ACKwise-4 directory coherence, 2-D mesh NoC,
//!   fixed-latency and DDR3-like DRAM.
//! * [`workloads`] — the seven evaluation kernels (PageRank, Triangle
//!   Counting, Graph500 BFS, SGD, LSH, SpMV, SymGS) over synthetic
//!   inputs, emitting instrumented op streams and real index-array
//!   contents.
//! * [`vm`] — the virtual-memory subsystem: per-core dTLBs over a
//!   shared L2 TLB, a radix page table whose walks can be routed
//!   through the cache hierarchy as real PTE traffic
//!   (`WalkModel::Cached`), translation policies for prefetches, and a
//!   translation-prefetch port IMP uses to prefill L2-TLB entries for
//!   its predicted pages (`Sim::page_size` / `tlb_ways` /
//!   `translation_policy` / `l2_tlb` / `tlb_prefetch` / `walk_model`;
//!   ideal and zero-cost by default), with page size a *per-region*
//!   property: `Sim::page_policy(region, PagePolicy::Huge2M)` is the
//!   simulated `madvise(MADV_HUGEPAGE)`, translating the region
//!   through a split 4 KB / 2 MB dTLB with one-level-shallower walks.
//! * [`experiments`] — drivers that regenerate every table and figure of
//!   the paper's evaluation.
//! * [`obs`] — the observability layer: an always-compiled,
//!   zero-cost-when-off probe the simulator calls at every interesting
//!   event, producing log2-bucketed latency histograms (demand misses,
//!   page walks, prefetch-to-use distance), a prefetch-timeliness
//!   ledger (issued → filled → {used, late, evicted-unused}, per PC
//!   and per access class), an epoch sampler, and a bounded
//!   deterministic event trace exported as Chrome `trace_event` JSON
//!   (`Sim::observe` / `Sim::run_observed`, `Sweep::observe`, the
//!   `observability_tour` example). Observation never changes timing:
//!   a probed run is bit-identical to a bare one.
//! * [`adapt`] — the adaptive-management control plane: a per-epoch
//!   feedback loop that distills the observability ledger into
//!   [`adapt::Manager`] policy decisions — throttle an inaccurate
//!   prefetcher, mask its cold PCs, or switch models entirely (the
//!   offline-trained decision tree demotes IMP to a stream prefetcher
//!   under TLB pressure). Prefetchers participate through
//!   `L1Prefetcher::on_feedback`; drive it with `Sim::manager` or the
//!   `Sweep::managers` axis (`"static"`, `"throttle"`, `"tree"`), and
//!   see the `adaptive_manager` example.
//! * [`store`] — the content-addressed result store: every sweep cell
//!   is digested over its full canonical input and persisted as a
//!   checksummed `.impres` record, so re-running a sweep simulates only
//!   cells the store has never seen (`Sweep::store` /
//!   `Sweep::run_with`, the `imp-sweepd` service, the `sweep_resume`
//!   example).
//! * [`sim`] (module) — the fluent [`Sim`] builder and the parallel
//!   [`Sweep`] grid runner, the recommended front door.
//!
//! ## Quickstart
//!
//! ```
//! use imp::prelude::*;
//!
//! // Run SpMV on the simulated 16-core system and compare Baseline vs IMP.
//! let base = Sim::workload("spmv").scale(Scale::Tiny).cores(16).run().unwrap();
//! let imp = Sim::workload("spmv")
//!     .scale(Scale::Tiny)
//!     .cores(16)
//!     .prefetcher("imp")
//!     .run()
//!     .unwrap();
//! assert!(imp.runtime <= base.runtime);
//! ```
//!
//! Prefetchers are open plugins: register a custom one by name through
//! [`prefetch::registry`] and pass that name to `Sim::prefetcher` — no
//! simulator changes needed. Sweep whole config grids in parallel with
//! [`Sweep`]; see the [`sim`] module docs.
//!
//! ## Record & replay
//!
//! Workloads build into shareable artifacts that serialize to the
//! binary `.imptrace` format — record once, replay anywhere (including
//! externally recorded op streams) via the `trace:<path>` workload name:
//!
//! ```
//! use imp::prelude::*;
//!
//! let sim = Sim::workload("spmv").scale(Scale::Tiny).cores(16);
//! let artifact = sim.build_artifact().unwrap();
//!
//! // Fan configurations over the shared artifact without rebuilding.
//! let imp = sim.clone().prefetcher("imp").run_on(&artifact).unwrap();
//!
//! // Persist it and replay by name, bit-identically.
//! let path = std::env::temp_dir().join(format!("quickstart-{}.imptrace", std::process::id()));
//! artifact.save(&path).unwrap();
//! let replayed = Sim::workload(format!("trace:{}", path.display()))
//!     .cores(16)
//!     .prefetcher("imp")
//!     .run()
//!     .unwrap();
//! assert_eq!(imp, replayed);
//! # std::fs::remove_file(&path).ok();
//! ```

pub use imp_adapt as adapt;
pub use imp_cache as cache;
pub use imp_coherence as coherence;
pub use imp_common as common;
pub use imp_cpu as cpu;
pub use imp_dram as dram;
pub use imp_experiments as experiments;
pub use imp_mem as mem;
pub use imp_noc as noc;
pub use imp_obs as obs;
pub use imp_prefetch as prefetch;
pub use imp_store as store;
pub use imp_trace as trace;
pub use imp_vm as vm;
pub use imp_workloads as workloads;

pub mod sim;

pub use sim::{Sim, SimError, Sweep, SweepCell, SweepReport, SweepResult};

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use imp_adapt::{DecisionTree, EpochTracker, Manager, ManagerPolicy};
    pub use imp_common::config::{CoreModel, MemMode, PartialMode};
    pub use imp_common::config::{
        MemRegion, PagePolicy, ParamValue, PrefetcherSpec, TlbConfig, TranslationPolicy, WalkModel,
    };
    pub use imp_common::stats::{AccessClass, SystemStats, TlbStats};
    pub use imp_common::{Addr, ImpConfig, LineAddr, Pc, SystemConfig};
    pub use imp_experiments::Config as ExperimentConfig;
    pub use imp_experiments::{
        CellOutcome, Sim, SimError, Sweep, SweepCell, SweepReport, SweepRequest, SweepResult,
    };
    pub use imp_mem::{AddressSpace, FunctionalMemory};
    pub use imp_obs::{ObsConfig, ObsReport, ObsSummary};
    pub use imp_prefetch::{
        Access, Control, Feedback, Imp, L1Prefetcher, PrefetchCtx, PrefetchRequest,
    };
    pub use imp_sim::System;
    pub use imp_store::{cell_digest, digest_hex, ResultStore, StoredResult};
    pub use imp_trace::{Op, Program, TraceFile};
    pub use imp_vm::{PagePlacement, PageTable, Tlb, Vm, WalkMemory};
    pub use imp_workloads::{
        by_name, paper_workloads, BuiltArtifact, Scale, Workload, WorkloadParams,
    };
    pub use imp_workloads::{gather, AccessPattern, Chain, ChainSpec};
}
