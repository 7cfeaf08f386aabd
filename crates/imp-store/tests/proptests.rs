//! Property tests for the `.impres` encoding and the cell digest:
//! arbitrary records round-trip bit-exactly, digests are stable, no
//! single-byte corruption is ever silently accepted, and damage behind a
//! valid checksum is a typed error, never a panic.
//!
//! The offline proptest shim generates integers only, so strings, bools
//! and floats are derived from integer draws via `prop_map`.

use imp_common::config::{
    PagePolicy, ParamValue, PartialMode, PrefetcherSpec, TlbConfig, TranslationPolicy, WalkModel,
};
use imp_common::stats::{CoreStats, PrefetchStats, SystemStats, TlbStats, TrafficStats};
use imp_common::wire;
use imp_store::{cell_digest, digest_hex, CellKey, StoredResult};
use proptest::prelude::*;

/// Lowercase-word string derived from integer draws (the shim has no
/// regex strategies).
fn word(seed: u64, max_len: usize) -> String {
    let mut s = String::new();
    let mut x = seed;
    for _ in 0..(seed as usize % (max_len + 1)) {
        s.push(char::from(b'a' + (x % 26) as u8));
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    s
}

fn param_from(tag: u8, i: i64, fbits: u64) -> ParamValue {
    match tag % 4 {
        0 => ParamValue::Bool(i & 1 == 1),
        1 => ParamValue::Int(i),
        2 => {
            // NaNs don't compare equal, so pin non-finite floats; bit
            // patterns of finite floats must still survive exactly.
            let f = f64::from_bits(fbits);
            ParamValue::Float(if f.is_finite() { f } else { 0.25 })
        }
        _ => ParamValue::Str(format!("s{fbits}")),
    }
}

fn policy_from(tag: u8, threshold: u64) -> PagePolicy {
    match tag % 3 {
        0 => PagePolicy::Base4K,
        1 => PagePolicy::Huge2M,
        _ => PagePolicy::Auto {
            threshold_bytes: threshold,
        },
    }
}

fn tlb_from(words: (u8, u32, u32, u64, u64), tags: (u8, u8, u8, u8)) -> TlbConfig {
    let (ideal, sets, ways, page_bytes, walk_latency) = words;
    let (policy, walk_model, walk_dram_traffic, tlb_prefetch) = tags;
    TlbConfig {
        ideal: ideal & 1 == 1,
        sets,
        ways,
        page_bytes,
        walk_latency,
        policy: [
            TranslationPolicy::DropOnMiss,
            TranslationPolicy::NonBlockingWalk,
            TranslationPolicy::Ideal,
        ][(policy % 3) as usize],
        walk_dram_traffic: walk_dram_traffic & 1 == 1,
        l2_sets: sets / 2,
        l2_ways: ways,
        l2_latency: walk_latency / 3,
        tlb_prefetch: tlb_prefetch & 1 == 1,
        walk_model: [WalkModel::Flat, WalkModel::Cached][(walk_model % 2) as usize],
        huge_sets: sets % 17,
        huge_ways: ways % 5,
    }
}

fn core_from(w: [u64; 14]) -> CoreStats {
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

fn tlb_stats_from(w: &[u64]) -> TlbStats {
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

fn words_strategy() -> impl Strategy<Value = [u64; 14]> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(a, b, c, d, e, f)| {
            [
                a,
                b,
                c,
                d,
                e,
                f,
                a.wrapping_mul(3),
                b.rotate_left(13),
                c ^ d,
                e.wrapping_add(f),
                a.rotate_right(7),
                d ^ f,
                e.rotate_left(29),
                b.wrapping_sub(c),
            ]
        })
}

fn record_strategy() -> impl Strategy<Value = StoredResult> {
    (
        // Cell coordinates: canonical tail, cores, seed, prefetcher.
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(
                (
                    any::<u64>(),
                    (any::<u8>(), any::<i64>(), any::<u64>())
                        .prop_map(|(t, i, f)| param_from(t, i, f)),
                ),
                0..4,
            ),
            any::<u8>(),
        ),
        // TLB config.
        (
            (
                any::<u8>(),
                any::<u32>(),
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
            ),
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        ),
        // Page policies.
        proptest::collection::vec(
            (
                any::<u64>(),
                (any::<u8>(), any::<u64>()).prop_map(|(t, th)| policy_from(t, th)),
            ),
            0..4,
        ),
        // Stats: per-core word blocks + scalar sections.
        proptest::collection::vec(words_strategy(), 0..4),
        (words_strategy(), words_strategy(), any::<u64>()),
    )
        .prop_map(
            |(coords, tlb_cfg, policies, core_words, (pw, tw, runtime))| {
                let (canon_seed, cores, seed, name_seed, params, partial) = coords;
                let mut prefetcher = PrefetcherSpec::new(format!("p{}", word(name_seed, 8)));
                for (i, (k, v)) in params.into_iter().enumerate() {
                    prefetcher.params.insert(format!("k{i}{}", word(k, 6)), v);
                }
                // Roughly a third of cells run unmanaged; managed ones
                // sometimes carry a parameter so both spec shapes
                // round-trip.
                let manager = (seed % 3 != 0).then(|| {
                    let mut m = PrefetcherSpec::new(format!("m{}", word(name_seed, 5)));
                    if partial % 2 == 0 {
                        m.params.insert("floor".to_string(), param_from(2, 0, seed));
                    }
                    m
                });
                let cell = CellKey {
                    workload: format!("w{}", cores % 7),
                    cores,
                    prefetcher,
                    manager,
                    partial: [
                        PartialMode::Off,
                        PartialMode::NocOnly,
                        PartialMode::NocAndDram,
                    ][(partial % 3) as usize],
                    tlb: tlb_from(tlb_cfg.0, tlb_cfg.1),
                    page_policy: policies
                        .into_iter()
                        .enumerate()
                        .map(|(i, (r, p))| (format!("r{i}{}", word(r, 6)), p))
                        .collect(),
                    seed,
                };
                let n = core_words.len();
                let stats = SystemStats {
                    runtime,
                    cores: core_words.iter().map(|w| core_from(*w)).collect(),
                    prefetch: core_words
                        .iter()
                        .map(|w| PrefetchStats {
                            issued_stream: w[0],
                            issued_indirect: w[13],
                            useful: w[5],
                            unused: w[7],
                            late: w[2],
                            covered: w[3],
                            generated_indirect: w[11],
                            ..PrefetchStats::default()
                        })
                        .collect(),
                    tlb: core_words.iter().map(|w| tlb_stats_from(&w[..9])).collect(),
                    tlb_huge: if n % 2 == 0 {
                        Vec::new()
                    } else {
                        core_words
                            .iter()
                            .map(|w| tlb_stats_from(&w[5..14]))
                            .collect()
                    },
                    tlb_l2: tlb_stats_from(&pw[..9]),
                    traffic: TrafficStats {
                        noc_flit_hops: tw[0],
                        noc_messages: tw[1],
                        dram_read_bytes: tw[2],
                        dram_write_bytes: tw[3],
                        dram_accesses: tw[4],
                    },
                };
                StoredResult {
                    canonical: format!("{}|{}|{}", cell.workload, cores, word(canon_seed, 24)),
                    cell,
                    stats,
                }
            },
        )
}

proptest! {
    /// The digest is a pure function of the canonical string: equal
    /// strings digest equal, and the hex form round-trips the value.
    #[test]
    fn digest_is_stable(seed in any::<u64>()) {
        let canonical = word(seed, 64);
        let d1 = cell_digest(&canonical);
        let d2 = cell_digest(&canonical.clone());
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(digest_hex(d1).len(), 16);
        prop_assert_eq!(u64::from_str_radix(&digest_hex(d1), 16).unwrap(), d1);
    }

    /// Arbitrary records survive encode → decode **bit-identically**,
    /// and re-encoding the decode is byte-stable.
    #[test]
    fn impres_roundtrip(record in record_strategy()) {
        let bytes = record.to_bytes();
        let back = StoredResult::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Any single flipped byte is rejected, never silently accepted:
    /// a corrupted store can only ever cause a re-simulation.
    #[test]
    fn impres_detects_any_single_byte_flip(
        record in record_strategy(),
        flip_at in any::<u64>(),
        flip_bits in 1u8..=255,
    ) {
        let bytes = record.to_bytes();
        let mut bad = bytes.clone();
        let i = (flip_at % bytes.len() as u64) as usize;
        bad[i] ^= flip_bits;
        prop_assert!(StoredResult::from_bytes(&bad).is_err(), "flip at byte {} accepted", i);
    }

    /// Damage behind a re-stamped checksum reaches the body decoder,
    /// which returns a record or a typed error and never panics; any
    /// record it accepts re-encodes to one it accepts again.
    #[test]
    fn impres_decoder_survives_restamped_damage(
        record in record_strategy(),
        edits in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let mut bytes = record.to_bytes();
        for (kind, at, value) in edits {
            wire::mutate(&mut bytes, kind, at, value);
        }
        wire::restamp(&mut bytes);
        if let Ok(back) = StoredResult::from_bytes(&bytes) {
            let again = back.to_bytes();
            let reread = StoredResult::from_bytes(&again).map(|r| r.to_bytes());
            prop_assert_eq!(reread.ok(), Some(again));
        }
    }
}
