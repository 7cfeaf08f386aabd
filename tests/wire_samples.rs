//! The on-disk formats, pinned byte for byte.
//!
//! `tests/golden/wire/` holds one `.impres` record and one `.imptrace`
//! artifact, each built from the fixed values below and written by the
//! encoders of an earlier commit. Round-trip tests cannot catch an
//! encoding change, because encoder and decoder change together; these
//! files can. Each must decode to exactly the values below, and those
//! values must re-encode to exactly the committed bytes.
//!
//! Every value is spelled out rather than taken from a constructor such
//! as `TlbConfig::finite()`, so a change of defaults cannot move the
//! samples.

use imp::common::config::{
    MemRegion, PagePolicy, ParamValue, PartialMode, PrefetcherSpec, TlbConfig, TranslationPolicy,
    WalkModel,
};
use imp::common::stats::{
    AccessClass, CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats,
};
use imp::common::{Addr, Pc};
use imp::mem::FunctionalMemory;
use imp::store::{CellKey, StoredResult};
use imp::trace::{Op, Program, TraceFile};
use imp::workloads::{Built, BuiltArtifact};
use std::path::PathBuf;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/wire")
        .join(name)
}

/// `N` distinct non-zero words starting at `base`.
fn words<const N: usize>(base: u64) -> [u64; N] {
    std::array::from_fn(|i| base + i as u64)
}

fn core_stats(base: u64) -> CoreStats {
    let w = words::<14>(base);
    CoreStats {
        instructions: w[0],
        done_cycle: w[1],
        stall_cycles: [w[2], w[3], w[4]],
        barrier_cycles: w[5],
        l1_accesses: w[6],
        l1_misses: [w[7], w[8], w[9]],
        l1_hits: w[10],
        mem_latency_sum: w[11],
        mem_latency_count: w[12],
        walk_stall_cycles: w[13],
    }
}

fn prefetch_stats(base: u64) -> PrefetchStats {
    let w = words::<14>(base);
    PrefetchStats {
        issued_stream: w[0],
        issued_indirect: w[1],
        useful: w[2],
        unused: w[3],
        late: w[4],
        covered: w[5],
        patterns_detected: w[6],
        detect_failures: w[7],
        partial_prefetches: w[8],
        value_unavailable: w[9],
        deferred_drops: w[10],
        deferred_retries: w[11],
        mshr_drops: w[12],
        generated_indirect: w[13],
    }
}

fn tlb_stats(base: u64) -> TlbStats {
    let w = words::<9>(base);
    TlbStats {
        hits: w[0],
        misses: w[1],
        evictions: w[2],
        cold_fills: w[3],
        walk_cycles: w[4],
        walk_levels: w[5],
        prefetch_hits: w[6],
        prefetch_drops: w[7],
        prefetch_walks: w[8],
    }
}

/// A managed cell with every `ParamValue` tag, every page policy
/// (including `Auto`) and non-zero statistics in every section.
fn sample_result() -> StoredResult {
    StoredResult {
        canonical: "spmv|cores:4|seed:11|pf:imp|mgr:throttle|wire-sample".to_string(),
        cell: CellKey {
            workload: "spmv".to_string(),
            cores: 4,
            prefetcher: PrefetcherSpec::new("imp")
                .with("depth", ParamValue::Int(-3))
                .with("frac", ParamValue::Float(0.375))
                .with("on", ParamValue::Bool(true))
                .with("tag", ParamValue::Str("8".to_string())),
            manager: Some(PrefetcherSpec::new("throttle").with("floor", ParamValue::Float(0.4))),
            partial: PartialMode::NocOnly,
            tlb: TlbConfig {
                ideal: false,
                sets: 16,
                ways: 4,
                page_bytes: 4096,
                walk_latency: 30,
                policy: TranslationPolicy::NonBlockingWalk,
                walk_dram_traffic: true,
                l2_sets: 128,
                l2_ways: 8,
                l2_latency: 9,
                tlb_prefetch: true,
                walk_model: WalkModel::Cached,
                huge_sets: 8,
                huge_ways: 2,
            },
            page_policy: vec![
                ("idx".to_string(), PagePolicy::Huge2M),
                (
                    "val*".to_string(),
                    PagePolicy::Auto {
                        threshold_bytes: 1 << 21,
                    },
                ),
                ("*".to_string(), PagePolicy::Base4K),
            ],
            seed: 11,
        },
        stats: SystemStats {
            runtime: 123_456,
            cores: vec![core_stats(1_000), core_stats(2_000)],
            prefetch: vec![prefetch_stats(3_000), prefetch_stats(4_000)],
            tlb: vec![tlb_stats(5_000), tlb_stats(6_000)],
            tlb_huge: vec![tlb_stats(7_000)],
            tlb_l2: tlb_stats(8_000),
            traffic: TrafficStats {
                noc_flit_hops: 9_001,
                noc_messages: 9_002,
                dram_read_bytes: 9_003,
                dram_write_bytes: 9_004,
                dram_accesses: 9_005,
            },
        },
    }
}

/// Every op kind on two cores, every access size and class, plus an
/// artifact payload: a result, two regions (one `Auto`) and a one-page
/// memory image.
fn sample_artifact() -> Built {
    let mut program = Program::new("wire-sample", 2);
    let core0 = program.core_mut(0);
    core0.push(Op::load(
        Addr::new(0x4000),
        4,
        Pc::new(1),
        AccessClass::Stream,
    ));
    core0.push(Op::load(Addr::new(0x10_0040), 8, Pc::new(2), AccessClass::Indirect).with_dep(1));
    core0.push(Op::compute(17));
    core0.push(Op::sw_prefetch(Addr::new(0x10_0080), Pc::new(3)));
    let core1 = program.core_mut(1);
    core1.push(Op::store(
        Addr::new(0x4008),
        2,
        Pc::new(4),
        AccessClass::Other,
    ));
    core1.push(Op::load(
        Addr::new(0x400c),
        1,
        Pc::new(5),
        AccessClass::Stream,
    ));
    core1.push(Op::compute(u32::MAX));
    program.barrier();

    let mut mem = FunctionalMemory::new();
    mem.write_u32(Addr::new(0x4000), 0x0001_0040);
    mem.write_u64(Addr::new(0x4008), 0x0123_4567_89ab_cdef);
    mem.write_u8(Addr::new(0x4fff), 0xa5);

    Built {
        program,
        mem,
        result: 12.5,
        regions: vec![
            MemRegion {
                name: "idx".to_string(),
                base: 0x4000,
                bytes: 4096,
                policy: PagePolicy::Base4K,
            },
            MemRegion {
                name: "target".to_string(),
                base: 0x10_0000,
                bytes: 1 << 21,
                policy: PagePolicy::Auto {
                    threshold_bytes: 1 << 20,
                },
            },
        ],
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("imp-wire-{tag}-{}.imptrace", std::process::id()))
}

#[test]
fn impres_sample_decodes_and_reencodes_byte_identically() {
    let committed = std::fs::read(golden("sample.impres")).unwrap();
    let expected = sample_result();
    assert_eq!(StoredResult::from_bytes(&committed).unwrap(), expected);
    assert_eq!(expected.to_bytes(), committed, "the .impres encoding moved");
}

#[test]
fn imptrace_sample_decodes_and_reencodes_byte_identically() {
    let committed_path = golden("sample.imptrace");
    let committed = std::fs::read(&committed_path).unwrap();
    let expected = sample_artifact();

    let loaded = BuiltArtifact::load(&committed_path).unwrap();
    assert_eq!(loaded.program().name(), "wire-sample");
    assert_eq!(loaded.program().cores(), 2);
    for c in 0..2 {
        assert_eq!(loaded.program().ops(c), expected.program.ops(c), "core {c}");
    }
    assert_eq!(loaded.result(), expected.result);
    assert_eq!(loaded.regions(), &expected.regions[..]);
    assert_eq!(loaded.mem().mapped_pages(), 1);
    assert_eq!(loaded.mem().snapshot(), expected.mem.snapshot());

    let path = temp_path("reencode");
    BuiltArtifact::from(expected).save(&path).unwrap();
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, committed, "the .imptrace encoding moved");

    // The container alone: the payload is opaque at this layer.
    let tf = TraceFile::from_bytes(&committed).unwrap();
    assert_eq!(tf.to_bytes(), committed);
}
