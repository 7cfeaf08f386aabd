//! The versioned binary `.impres` container: one sweep cell's result.
//!
//! ## Layout (all integers little-endian)
//!
//! A record is one [`imp_common::wire`] frame (magic `b"IMPRESLT"`,
//! [`VERSION`], FNV-1a trailer) around this body:
//!
//! | section | encoding |
//! |---|---|
//! | canonical | `u32` length + UTF-8 bytes |
//! | cell key | workload, cores, seed, prefetcher, manager, partial, TLB, page policies |
//! | stats | runtime + per-core vectors + L2-TLB + traffic, `u64` words |
//!
//! The canonical string is stored *verbatim* (not just its digest) so a
//! reader can verify the record answers the exact question being asked;
//! [`crate::ResultStore::get`] treats any mismatch as a miss. Parameter
//! values in the prefetcher spec carry a type tag byte so `Str("8")`
//! survives the round-trip without collapsing into `Int(8)` — results
//! must come back **bit-identical**, not merely equivalent.

use imp_common::config::{
    PagePolicy, ParamValue, PartialMode, PrefetcherSpec, TlbConfig, TranslationPolicy, WalkModel,
};
use imp_common::stats::{CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats};
use imp_common::wire::{self, Reader, WireError, Writer};
use std::fmt;
use std::path::Path;

/// File magic: the first eight bytes of every `.impres` file.
pub const MAGIC: [u8; 8] = *b"IMPRESLT";

/// Current format version written by [`StoredResult::to_bytes`].
///
/// Bump this when a code change alters simulated *timing* without
/// changing any config knob — stale results must become unreadable, not
/// silently wrong.
///
/// History: 1 → 2 added the optional adaptive-manager spec to the cell
/// key (a presence byte followed by a spec when present). Version-1
/// records — all necessarily unmanaged — become cache misses rather
/// than being grandfathered in, keeping the reader single-version.
pub const VERSION: u32 = 2;

/// Why a stored result could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The bytes are not a readable `.impres` record of this
    /// [`VERSION`].
    Wire(WireError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Wire(e) => write!(f, "unreadable .impres record: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Wire(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

/// The sweep-cell coordinates a stored result was simulated under.
///
/// This *is* `imp_experiments::SweepCell`, which re-exports it under
/// that name. It lives here (built only from `imp-common` types) so the
/// store does not depend on the experiment layer. The *identity* of a
/// record is its canonical string; the key is carried so manifests and
/// debugging tools can reconstruct the grid coordinates without
/// re-parsing canonicals.
#[derive(Clone, Debug, PartialEq)]
pub struct CellKey {
    /// Workload name (`Sim::workload` argument).
    pub workload: String,
    /// Simulated core count.
    pub cores: u32,
    /// The prefetcher configuration.
    pub prefetcher: PrefetcherSpec,
    /// Adaptive-management policy spec (`None` = unmanaged).
    pub manager: Option<PrefetcherSpec>,
    /// Partial cacheline accessing mode.
    pub partial: PartialMode,
    /// dTLB / page-walk configuration.
    pub tlb: TlbConfig,
    /// Per-region page-size policy overrides, in application order.
    pub page_policy: Vec<(String, PagePolicy)>,
    /// Workload generation seed.
    pub seed: u64,
}

impl Default for CellKey {
    fn default() -> Self {
        CellKey {
            workload: String::new(),
            cores: 0,
            prefetcher: PrefetcherSpec::default(),
            manager: None,
            partial: PartialMode::default(),
            tlb: TlbConfig::ideal(),
            page_policy: Vec::new(),
            seed: 0,
        }
    }
}

/// One persisted sweep-cell result: the canonical input it answers, the
/// grid coordinates it was simulated at, and the stats it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredResult {
    /// Full canonical input string (the digest preimage).
    pub canonical: String,
    /// Grid coordinates.
    pub cell: CellKey,
    /// The simulation outcome.
    pub stats: SystemStats,
}

impl StoredResult {
    /// Serializes to the `.impres` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::frame(&MAGIC, VERSION, |w| {
            w.str(&self.canonical);
            encode_cell(&self.cell, w);
            encode_stats(&self.stats, w);
        })
    }

    /// Parses the `.impres` byte layout.
    ///
    /// # Errors
    ///
    /// Any structural defect — wrong magic, newer version, truncation,
    /// invalid tag bytes, checksum mismatch — comes back as
    /// [`StoreError::Wire`] with the matching [`WireError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        wire::unframe(bytes, &MAGIC, VERSION, |r| {
            Ok(StoredResult {
                canonical: r.str("canonical")?,
                cell: decode_cell(r)?,
                stats: decode_stats(r)?,
            })
        })
    }

    /// Writes the record to `path` (conventionally `*.impres`).
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`StoreError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Reads a record back from `path`.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`StoreError::Io`]; malformed
    /// contents as [`StoreError::Wire`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

fn put_spec(w: &mut Writer, spec: &PrefetcherSpec) {
    w.str(&spec.name);
    w.count(spec.params.len());
    for (key, value) in &spec.params {
        w.str(key);
        match value {
            ParamValue::Bool(b) => {
                w.u8(0);
                w.u8(u8::from(*b));
            }
            ParamValue::Int(v) => {
                w.u8(1);
                w.u64(*v as u64);
            }
            ParamValue::Float(v) => {
                w.u8(2);
                w.u64(v.to_bits());
            }
            ParamValue::Str(s) => {
                w.u8(3);
                w.str(s);
            }
        }
    }
}

fn encode_cell(cell: &CellKey, w: &mut Writer) {
    w.str(&cell.workload);
    w.u32(cell.cores);
    w.u64(cell.seed);

    put_spec(w, &cell.prefetcher);
    match &cell.manager {
        None => w.u8(0),
        Some(spec) => {
            w.u8(1);
            put_spec(w, spec);
        }
    }

    w.u8(match cell.partial {
        PartialMode::Off => 0,
        PartialMode::NocOnly => 1,
        PartialMode::NocAndDram => 2,
    });

    let tlb = &cell.tlb;
    w.u8(u8::from(tlb.ideal));
    w.u32(tlb.sets);
    w.u32(tlb.ways);
    w.u64(tlb.page_bytes);
    w.u64(tlb.walk_latency);
    w.u8(match tlb.policy {
        TranslationPolicy::DropOnMiss => 0,
        TranslationPolicy::NonBlockingWalk => 1,
        TranslationPolicy::Ideal => 2,
    });
    w.u8(u8::from(tlb.walk_dram_traffic));
    w.u32(tlb.l2_sets);
    w.u32(tlb.l2_ways);
    w.u64(tlb.l2_latency);
    w.u8(u8::from(tlb.tlb_prefetch));
    w.u8(match tlb.walk_model {
        WalkModel::Flat => 0,
        WalkModel::Cached => 1,
    });
    w.u32(tlb.huge_sets);
    w.u32(tlb.huge_ways);

    w.count(cell.page_policy.len());
    for (region, policy) in &cell.page_policy {
        w.str(region);
        match policy {
            PagePolicy::Base4K => w.u8(0),
            PagePolicy::Huge2M => w.u8(1),
            PagePolicy::Auto { threshold_bytes } => {
                w.u8(2);
                w.u64(*threshold_bytes);
            }
        }
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<PrefetcherSpec, WireError> {
    let name = r.str("spec name")?;
    // A parameter is at least a key length, a tag and one value byte.
    let params = r.list("param count", 4 + 1 + 1, |r| {
        let key = r.str("param key")?;
        let value = match r.tag("param value", 4)? {
            0 => ParamValue::Bool(r.u8("param bool")? != 0),
            1 => ParamValue::Int(r.u64("param int")? as i64),
            2 => ParamValue::Float(f64::from_bits(r.u64("param float")?)),
            _ => ParamValue::Str(r.str("param string")?),
        };
        Ok((key, value))
    })?;
    Ok(PrefetcherSpec {
        name,
        params: params.into_iter().collect(),
    })
}

fn decode_cell(r: &mut Reader<'_>) -> Result<CellKey, WireError> {
    let workload = r.str("workload")?;
    let cores = r.u32("cores")?;
    let seed = r.u64("seed")?;

    let prefetcher = read_spec(r)?;
    let manager = match r.tag("manager presence", 2)? {
        0 => None,
        _ => Some(read_spec(r)?),
    };

    let partial = match r.tag("partial mode", 3)? {
        0 => PartialMode::Off,
        1 => PartialMode::NocOnly,
        _ => PartialMode::NocAndDram,
    };

    let tlb = TlbConfig {
        ideal: r.u8("tlb ideal")? != 0,
        sets: r.u32("tlb sets")?,
        ways: r.u32("tlb ways")?,
        page_bytes: r.u64("tlb page bytes")?,
        walk_latency: r.u64("tlb walk latency")?,
        policy: match r.tag("translation policy", 3)? {
            0 => TranslationPolicy::DropOnMiss,
            1 => TranslationPolicy::NonBlockingWalk,
            _ => TranslationPolicy::Ideal,
        },
        walk_dram_traffic: r.u8("walk dram traffic")? != 0,
        l2_sets: r.u32("l2 tlb sets")?,
        l2_ways: r.u32("l2 tlb ways")?,
        l2_latency: r.u64("l2 tlb latency")?,
        tlb_prefetch: r.u8("tlb prefetch")? != 0,
        walk_model: match r.tag("walk model", 2)? {
            0 => WalkModel::Flat,
            _ => WalkModel::Cached,
        },
        huge_sets: r.u32("huge tlb sets")?,
        huge_ways: r.u32("huge tlb ways")?,
    };

    // A policy is at least a region-name length and a tag.
    let page_policy = r.list("page policy count", 4 + 1, |r| {
        let region = r.str("page policy region")?;
        let policy = match r.tag("page policy", 3)? {
            0 => PagePolicy::Base4K,
            1 => PagePolicy::Huge2M,
            _ => PagePolicy::Auto {
                threshold_bytes: r.u64("page policy threshold")?,
            },
        };
        Ok((region, policy))
    })?;

    Ok(CellKey {
        workload,
        cores,
        prefetcher,
        manager,
        partial,
        tlb,
        page_policy,
        seed,
    })
}

/// `u64` words one [`CoreStats`] occupies on disk.
const CORE_WORDS: usize = 14;
/// `u64` words one [`PrefetchStats`] occupies on disk.
const PREFETCH_WORDS: usize = 14;
/// `u64` words one [`TlbStats`] occupies on disk.
const TLB_WORDS: usize = 9;

fn encode_stats(stats: &SystemStats, w: &mut Writer) {
    w.u64(stats.runtime);

    w.count(stats.cores.len());
    for c in &stats.cores {
        for v in [
            c.instructions,
            c.done_cycle,
            c.stall_cycles[0],
            c.stall_cycles[1],
            c.stall_cycles[2],
            c.barrier_cycles,
            c.l1_accesses,
            c.l1_misses[0],
            c.l1_misses[1],
            c.l1_misses[2],
            c.l1_hits,
            c.mem_latency_sum,
            c.mem_latency_count,
            c.walk_stall_cycles,
        ] {
            w.u64(v);
        }
    }

    w.count(stats.prefetch.len());
    for p in &stats.prefetch {
        for v in [
            p.issued_stream,
            p.issued_indirect,
            p.useful,
            p.unused,
            p.late,
            p.covered,
            p.patterns_detected,
            p.detect_failures,
            p.partial_prefetches,
            p.value_unavailable,
            p.deferred_drops,
            p.deferred_retries,
            p.mshr_drops,
            p.generated_indirect,
        ] {
            w.u64(v);
        }
    }

    w.count(stats.tlb.len());
    for t in &stats.tlb {
        encode_tlb(t, w);
    }
    w.count(stats.tlb_huge.len());
    for t in &stats.tlb_huge {
        encode_tlb(t, w);
    }
    encode_tlb(&stats.tlb_l2, w);

    for v in [
        stats.traffic.noc_flit_hops,
        stats.traffic.noc_messages,
        stats.traffic.dram_read_bytes,
        stats.traffic.dram_write_bytes,
        stats.traffic.dram_accesses,
    ] {
        w.u64(v);
    }
}

fn encode_tlb(t: &TlbStats, w: &mut Writer) {
    for v in [
        t.hits,
        t.misses,
        t.evictions,
        t.cold_fills,
        t.walk_cycles,
        t.walk_levels,
        t.prefetch_hits,
        t.prefetch_drops,
        t.prefetch_walks,
    ] {
        w.u64(v);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SystemStats, WireError> {
    let runtime = r.u64("runtime")?;

    let cores = r.list("core stats count", CORE_WORDS * 8, |r| {
        Ok(CoreStats {
            instructions: r.u64("core stats")?,
            done_cycle: r.u64("core stats")?,
            stall_cycles: [
                r.u64("core stats")?,
                r.u64("core stats")?,
                r.u64("core stats")?,
            ],
            barrier_cycles: r.u64("core stats")?,
            l1_accesses: r.u64("core stats")?,
            l1_misses: [
                r.u64("core stats")?,
                r.u64("core stats")?,
                r.u64("core stats")?,
            ],
            l1_hits: r.u64("core stats")?,
            mem_latency_sum: r.u64("core stats")?,
            mem_latency_count: r.u64("core stats")?,
            walk_stall_cycles: r.u64("core stats")?,
        })
    })?;

    let prefetch = r.list("prefetch stats count", PREFETCH_WORDS * 8, |r| {
        Ok(PrefetchStats {
            issued_stream: r.u64("prefetch stats")?,
            issued_indirect: r.u64("prefetch stats")?,
            useful: r.u64("prefetch stats")?,
            unused: r.u64("prefetch stats")?,
            late: r.u64("prefetch stats")?,
            covered: r.u64("prefetch stats")?,
            patterns_detected: r.u64("prefetch stats")?,
            detect_failures: r.u64("prefetch stats")?,
            partial_prefetches: r.u64("prefetch stats")?,
            value_unavailable: r.u64("prefetch stats")?,
            deferred_drops: r.u64("prefetch stats")?,
            deferred_retries: r.u64("prefetch stats")?,
            mshr_drops: r.u64("prefetch stats")?,
            generated_indirect: r.u64("prefetch stats")?,
        })
    })?;

    let tlb = r.list("tlb stats count", TLB_WORDS * 8, decode_tlb)?;
    let tlb_huge = r.list("huge tlb stats count", TLB_WORDS * 8, decode_tlb)?;
    let tlb_l2 = decode_tlb(r)?;

    let traffic = TrafficStats {
        noc_flit_hops: r.u64("traffic stats")?,
        noc_messages: r.u64("traffic stats")?,
        dram_read_bytes: r.u64("traffic stats")?,
        dram_write_bytes: r.u64("traffic stats")?,
        dram_accesses: r.u64("traffic stats")?,
    };

    Ok(SystemStats {
        runtime,
        cores,
        prefetch,
        tlb,
        tlb_huge,
        tlb_l2,
        traffic,
    })
}

fn decode_tlb(r: &mut Reader<'_>) -> Result<TlbStats, WireError> {
    Ok(TlbStats {
        hits: r.u64("tlb stats")?,
        misses: r.u64("tlb stats")?,
        evictions: r.u64("tlb stats")?,
        cold_fills: r.u64("tlb stats")?,
        walk_cycles: r.u64("tlb stats")?,
        walk_levels: r.u64("tlb stats")?,
        prefetch_hits: r.u64("tlb stats")?,
        prefetch_drops: r.u64("tlb stats")?,
        prefetch_walks: r.u64("tlb stats")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::wire::restamp;

    pub(crate) fn sample() -> StoredResult {
        let mut stats = SystemStats {
            runtime: 123_456,
            ..SystemStats::default()
        };
        stats.cores.push(CoreStats {
            instructions: 1000,
            done_cycle: 123_456,
            stall_cycles: [10, 20, 30],
            barrier_cycles: 5,
            l1_accesses: 400,
            l1_misses: [1, 2, 3],
            l1_hits: 394,
            mem_latency_sum: 999,
            mem_latency_count: 6,
            walk_stall_cycles: 7,
        });
        stats.prefetch.push(PrefetchStats {
            issued_indirect: 42,
            useful: 40,
            ..PrefetchStats::default()
        });
        stats.tlb.push(TlbStats {
            hits: 100,
            misses: 3,
            ..TlbStats::default()
        });
        stats.traffic = TrafficStats {
            noc_flit_hops: 5000,
            noc_messages: 700,
            dram_read_bytes: 64 * 100,
            dram_write_bytes: 64 * 10,
            dram_accesses: 110,
        };
        StoredResult {
            canonical: "spmv|cores:16|seed:7|...".to_string(),
            cell: CellKey {
                workload: "spmv".to_string(),
                cores: 16,
                prefetcher: PrefetcherSpec::new("imp")
                    .with("pt_size", 64i64)
                    .with("tag", ParamValue::Str("8".to_string()))
                    .with("frac", 0.5f64)
                    .with("on", true),
                manager: Some(PrefetcherSpec::new("throttle").with("floor", 0.4f64)),
                partial: PartialMode::NocAndDram,
                tlb: TlbConfig::finite().with_l2(128, 8),
                page_policy: vec![
                    ("idx".to_string(), PagePolicy::Huge2M),
                    (
                        "val".to_string(),
                        PagePolicy::Auto {
                            threshold_bytes: 1 << 21,
                        },
                    ),
                ],
                seed: 7,
            },
            stats,
        }
    }

    #[test]
    fn byte_roundtrip_is_bit_identical() {
        let rec = sample();
        let bytes = rec.to_bytes();
        let back = StoredResult::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        // Re-serializing the parse is byte-identical too.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn string_params_do_not_collapse_into_ints() {
        let rec = sample();
        let back = StoredResult::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(
            back.cell.prefetcher.get("tag"),
            Some(&ParamValue::Str("8".to_string()))
        );
        assert_eq!(
            back.cell.prefetcher.get("pt_size"),
            Some(&ParamValue::Int(64))
        );
    }

    #[test]
    fn unmanaged_cells_roundtrip() {
        let mut rec = sample();
        rec.cell.manager = None;
        let back = StoredResult::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back.cell.manager, None);
        assert_eq!(back, rec);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();

        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(
            StoredResult::from_bytes(&bad),
            Err(StoreError::Wire(WireError::ChecksumMismatch { .. }))
        ));

        assert!(matches!(
            StoredResult::from_bytes(&bytes[..4]),
            Err(StoreError::Wire(WireError::Truncated { .. }))
        ));

        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        restamp(&mut wrong);
        assert!(matches!(
            StoredResult::from_bytes(&wrong),
            Err(StoreError::Wire(WireError::BadMagic))
        ));
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            StoredResult::from_bytes(&bytes),
            Err(StoreError::Wire(WireError::UnsupportedVersion(99)))
        ));
    }

    #[test]
    fn absurd_lengths_error_instead_of_allocating() {
        let mut bytes = sample().to_bytes();
        // The canonical length field sits right after magic+version.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            StoredResult::from_bytes(&bytes),
            Err(StoreError::Wire(WireError::Truncated {
                section: "canonical",
                ..
            }))
        ));
    }
}
