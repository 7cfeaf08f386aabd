//! The `golden_dump` grid: a diverse set of small cells whose full
//! `SystemStats` pin the simulator's behaviour. Shared by
//! `examples/golden_dump.rs`, which prints each cell's statistics, and
//! `tests/golden_dump.rs`, which checks their digests.

use imp::prelude::*;

/// Every cell of the grid, named, in print order.
pub fn cells() -> Vec<(String, Sim)> {
    let mut cells: Vec<(String, Sim)> = Vec::new();
    for w in ["spmv", "pagerank", "graph500"] {
        for p in ["none", "stream", "imp"] {
            cells.push((
                format!("{w}/{p}"),
                Sim::workload(w).scale(Scale::Tiny).cores(16).prefetcher(p),
            ));
        }
    }
    cells.push((
        "spmv/imp/ooo".into(),
        Sim::workload("spmv")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .core_model(CoreModel::OutOfOrder),
    ));
    cells.push((
        "pagerank/imp/tlb".into(),
        Sim::workload("pagerank")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .tlb_ways(2)
            .page_size(4096)
            .translation_policy(TranslationPolicy::DropOnMiss),
    ));
    cells.push((
        "pagerank/imp/l2tlb-walk".into(),
        Sim::workload("pagerank")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .tlb(TlbConfig::finite())
            .l2_tlb(64, 4)
            .tlb_prefetch(true)
            .walk_model(WalkModel::Cached)
            .translation_policy(TranslationPolicy::DropOnMiss),
    ));
    cells.push((
        "lsh/imp/partial".into(),
        Sim::workload("lsh")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .partial(PartialMode::NocAndDram),
    ));
    // Mixed placement under cached walks: the indirect-target array on
    // huge pages, the rest on base pages. A Tiny footprint fits inside
    // one 2 MB page, so 256-byte base pages (128 KB huge pages) keep the
    // other arrays off the huge range; both dTLB structures, the
    // size-tagged L2 and huge cached walks all run.
    cells.push((
        "spmv/imp/mixed-huge".into(),
        Sim::workload("spmv")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .page_size(256)
            .l2_tlb(64, 4)
            .tlb_prefetch(true)
            .walk_model(WalkModel::Cached)
            .page_policy("x", PagePolicy::Huge2M),
    ));
    // Non-blocking prefetch walks next to a huge region, with flat
    // walks accounted as DRAM traffic.
    cells.push((
        "graph500/imp/huge-nonblocking".into(),
        Sim::workload("graph500")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .tlb(TlbConfig {
                walk_dram_traffic: true,
                ..TlbConfig::finite().with_policy(TranslationPolicy::NonBlockingWalk)
            })
            .page_size(256)
            .page_policy("parent", PagePolicy::Huge2M),
    ));
    // The managed, finite-TLB path: impbench `translate`'s spmv cell at
    // Tiny. A Tiny run lasts about 13 000 cycles, so the default
    // 10 000-cycle epoch would close once and change nothing; 1000-cycle
    // epochs let the tree's controls reach the statistics.
    cells.push((
        "spmv/imp/tree-tlb".into(),
        Sim::workload("spmv")
            .scale(Scale::Tiny)
            .cores(16)
            .prefetcher("imp")
            .tlb(TlbConfig::finite())
            .l2_tlb(64, 8)
            .tlb_prefetch(true)
            .walk_model(WalkModel::Cached)
            .manager("tree:epoch=1000"),
    ));
    // The PerfectPrefetch upper bound: a shadow L1 runs ahead of the
    // real one, throttled to `perfpref_lead` cycles past the oldest
    // outstanding fetch.
    cells.push((
        "spmv/perfpref".into(),
        Sim::workload("spmv")
            .scale(Scale::Tiny)
            .cores(16)
            .mem_mode(MemMode::PerfectPrefetch),
    ));
    // At Tiny the default 4096-cycle lead never binds; a 256-cycle lead
    // makes the throttle stall cores on their oldest fetch.
    let mut lead256 = SystemConfig::paper_default(16).with_mem_mode(MemMode::PerfectPrefetch);
    lead256.perfpref_lead = 256;
    cells.push((
        "spmv/perfpref/lead256".into(),
        Sim::from_config("spmv", lead256).scale(Scale::Tiny),
    ));
    cells
}
