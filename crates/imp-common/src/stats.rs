//! Statistics counters gathered during simulation, plus the ground-truth
//! access classification used for the paper's Figures 1 and 2.

use crate::Cycle;

/// Ground-truth class of a memory access, assigned by the workload
/// generator (Figure 1 breaks L1 misses down by these classes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum AccessClass {
    /// `A[B[i]]`-style indirect access.
    Indirect,
    /// Sequential/strided access (including reads of the index array B).
    Stream,
    /// Anything else.
    #[default]
    Other,
}

impl AccessClass {
    /// Dense index for per-class counter arrays.
    pub const fn index(self) -> usize {
        match self {
            AccessClass::Indirect => 0,
            AccessClass::Stream => 1,
            AccessClass::Other => 2,
        }
    }

    /// All classes, in `index` order.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::Indirect,
        AccessClass::Stream,
        AccessClass::Other,
    ];

    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            AccessClass::Indirect => "indirect",
            AccessClass::Stream => "stream",
            AccessClass::Other => "other",
        }
    }
}

/// Per-core execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions executed (compute ops count individually; barriers
    /// do not count).
    pub instructions: u64,
    /// Cycle at which the core finished its program.
    pub done_cycle: Cycle,
    /// Cycles stalled on memory, broken down by the blocking access class.
    pub stall_cycles: [u64; 3],
    /// Cycles spent waiting at barriers.
    pub barrier_cycles: u64,
    /// L1D demand accesses.
    pub l1_accesses: u64,
    /// L1D demand misses (including sector misses), by class.
    pub l1_misses: [u64; 3],
    /// Demand accesses that found their line (and sectors) in L1.
    pub l1_hits: u64,
    /// Sum of demand L1-miss latencies (issue to fill), in cycles.
    pub mem_latency_sum: u64,
    /// Number of demand L1 misses contributing to `mem_latency_sum`.
    pub mem_latency_count: u64,
    /// Cycles this core's demand accesses spent stalled behind
    /// translation: dTLB-missing page-table walks (flat-charged or
    /// routed through the cache hierarchy) and L2-TLB hit latencies
    /// alike. Translation cycles of accesses that also missed the L1
    /// are additionally part of `stall_cycles`/`mem_latency_sum` (the
    /// walk delays the whole access); this counter isolates the
    /// translation share.
    pub walk_stall_cycles: u64,
}

impl CoreStats {
    /// Total L1 demand misses across classes.
    pub fn total_misses(&self) -> u64 {
        self.l1_misses.iter().sum()
    }

    /// Total memory stall cycles across classes.
    pub fn total_stall(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }
}

/// Per-core prefetcher statistics (Table 3's coverage/accuracy inputs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Stream prefetches issued to the memory system.
    pub issued_stream: u64,
    /// Indirect (IMP) prefetches issued to the memory system.
    pub issued_indirect: u64,
    /// Prefetched lines that were touched by a demand access before
    /// eviction (numerator of *accuracy*).
    pub useful: u64,
    /// Prefetched lines evicted untouched.
    pub unused: u64,
    /// Demand accesses that merged into an in-flight prefetch (late
    /// prefetches: partially covered misses).
    pub late: u64,
    /// Demand accesses that would have missed but hit a completed
    /// prefetch (fully covered misses).
    pub covered: u64,
    /// Indirect patterns detected by the IPD.
    pub patterns_detected: u64,
    /// IPD detections abandoned (third index seen without a match).
    pub detect_failures: u64,
    /// Partial (sub-line) prefetches issued by IMP under partial
    /// cacheline accessing.
    pub partial_prefetches: u64,
    /// Index-value reads deferred because the index line was in flight.
    pub value_unavailable: u64,
    /// Deferred indirect prefetches dropped (retry list full).
    pub deferred_drops: u64,
    /// Deferred indirect prefetches retried after their index line fill.
    pub deferred_retries: u64,
    /// Prefetches refused by a full MSHR file.
    pub mshr_drops: u64,
    /// Indirect prefetch requests generated by the prefetcher model
    /// (before cache-presence / MSHR-merge filtering).
    pub generated_indirect: u64,
}

impl PrefetchStats {
    /// Prefetch *coverage*: fraction of would-be misses captured by
    /// prefetches (fully or partially). Table 3's `Cov.` column.
    pub fn coverage(&self, remaining_misses: u64) -> f64 {
        let captured = self.covered + self.late;
        let total = captured + remaining_misses;
        if total == 0 {
            0.0
        } else {
            captured as f64 / total as f64
        }
    }

    /// Prefetch *accuracy*: fraction of prefetched lines later accessed.
    /// Table 3's `Acc.` column.
    pub fn accuracy(&self) -> f64 {
        let judged = self.useful + self.unused;
        if judged == 0 {
            0.0
        } else {
            self.useful as f64 / judged as f64
        }
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued_stream + self.issued_indirect
    }
}

/// Per-core dTLB and page-walk statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Demand translations that hit the dTLB.
    pub hits: u64,
    /// Demand translations that missed (each triggers a blocking walk).
    pub misses: u64,
    /// Valid entries displaced by fills (cold fills into empty ways do
    /// not count, so `evictions == misses + prefetch_walks - cold
    /// fills`).
    pub evictions: u64,
    /// Fills that landed in an invalid (never-used) way.
    pub cold_fills: u64,
    /// Total page-table-walk cycles charged (demand and prefetch walks).
    pub walk_cycles: u64,
    /// Total radix levels traversed by the walks charged to this
    /// ledger (each walk contributes its depth, so
    /// `walk_levels / walks` is the average walk depth — huge-page
    /// walks are one level shallower than base-page walks).
    pub walk_levels: u64,
    /// Prefetch translations that hit the dTLB.
    pub prefetch_hits: u64,
    /// Prefetches dropped because their page missed the dTLB (the
    /// `DropOnMiss` translation policy).
    pub prefetch_drops: u64,
    /// Non-blocking walks triggered by prefetch translations (the
    /// `NonBlockingWalk` policy).
    pub prefetch_walks: u64,
}

impl TlbStats {
    /// Demand translations performed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Demand dTLB hit rate (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (system-wide aggregation).
    pub fn merge(&mut self, other: &TlbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.cold_fills += other.cold_fills;
        self.walk_cycles += other.walk_cycles;
        self.walk_levels += other.walk_levels;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_drops += other.prefetch_drops;
        self.prefetch_walks += other.prefetch_walks;
    }
}

/// System-wide interconnect and memory traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Sum over messages of (flits x hops traversed): the NoC traffic
    /// metric of Figure 12.
    pub noc_flit_hops: u64,
    /// Messages injected into the NoC.
    pub noc_messages: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// DRAM transactions.
    pub dram_accesses: u64,
}

impl TrafficStats {
    /// Total DRAM bytes moved.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Aggregated result of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemStats {
    /// Cycle at which the last core finished (the run's *runtime*).
    pub runtime: Cycle,
    /// Per-core execution stats.
    pub cores: Vec<CoreStats>,
    /// Per-core prefetch stats.
    pub prefetch: Vec<PrefetchStats>,
    /// Per-core dTLB stats for *base-size* pages (all-zero counters
    /// under the default ideal translation).
    pub tlb: Vec<TlbStats>,
    /// Per-core dTLB stats for *huge* pages — the ledger of the split
    /// dTLB's huge-page sub-TLB. All-zero unless the run placed
    /// regions on huge pages (`PagePolicy::Huge2M` / a satisfied
    /// `Auto` threshold).
    pub tlb_huge: Vec<TlbStats>,
    /// Shared L2-TLB stats (all-zero unless `TlbConfig` configures an
    /// L2). The ledger is the second translation level's: `hits` /
    /// `misses` count per-core dTLB misses that were looked up here
    /// (so L1 misses == L2 lookups), `prefetch_hits` counts prefetch
    /// translations rescued by the L2, and `prefetch_walks` counts
    /// prefetch-initiated installs — translation-prefetch port
    /// prefills and `NonBlockingWalk` prefetch-walk fills alike — so
    /// `evictions == misses + prefetch_walks - cold_fills`.
    pub tlb_l2: TlbStats,
    /// NoC + DRAM traffic.
    pub traffic: TrafficStats,
}

impl SystemStats {
    /// Total instructions over all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// System throughput in instructions per cycle.
    pub fn throughput(&self) -> f64 {
        if self.runtime == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / self.runtime as f64
        }
    }

    /// Total L1 demand misses by class, summed over cores.
    pub fn misses_by_class(&self) -> [u64; 3] {
        let mut out = [0u64; 3];
        for c in &self.cores {
            for (o, m) in out.iter_mut().zip(c.l1_misses.iter()) {
                *o += m;
            }
        }
        out
    }

    /// Aggregate prefetch statistics.
    pub fn prefetch_total(&self) -> PrefetchStats {
        let mut t = PrefetchStats::default();
        for p in &self.prefetch {
            t.issued_stream += p.issued_stream;
            t.issued_indirect += p.issued_indirect;
            t.useful += p.useful;
            t.unused += p.unused;
            t.late += p.late;
            t.covered += p.covered;
            t.patterns_detected += p.patterns_detected;
            t.detect_failures += p.detect_failures;
            t.partial_prefetches += p.partial_prefetches;
            t.value_unavailable += p.value_unavailable;
            t.deferred_drops += p.deferred_drops;
            t.deferred_retries += p.deferred_retries;
            t.mshr_drops += p.mshr_drops;
            t.generated_indirect += p.generated_indirect;
        }
        t
    }

    /// Aggregate dTLB statistics over all cores, both page sizes (the
    /// split dTLB's base and huge ledgers merged).
    pub fn tlb_total(&self) -> TlbStats {
        let mut t = self.tlb_base_total();
        t.merge(&self.tlb_huge_total());
        t
    }

    /// Aggregate base-page dTLB statistics over all cores.
    pub fn tlb_base_total(&self) -> TlbStats {
        let mut t = TlbStats::default();
        for s in &self.tlb {
            t.merge(s);
        }
        t
    }

    /// Aggregate huge-page sub-TLB statistics over all cores.
    pub fn tlb_huge_total(&self) -> TlbStats {
        let mut t = TlbStats::default();
        for s in &self.tlb_huge {
            t.merge(s);
        }
        t
    }

    /// System-wide coverage (captured misses / all would-be misses).
    pub fn coverage(&self) -> f64 {
        let p = self.prefetch_total();
        let remaining: u64 = self.cores.iter().map(|c| c.total_misses()).sum();
        p.coverage(remaining)
    }

    /// System-wide prefetch accuracy.
    pub fn accuracy(&self) -> f64 {
        self.prefetch_total().accuracy()
    }

    /// Average demand memory-access latency over all cores, in cycles.
    /// L1 hits count as `hit_latency` (1 cycle).
    pub fn avg_memory_latency(&self, hit_latency: f64) -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0u64;
        for c in &self.cores {
            sum += c.mem_latency_sum as f64 + hit_latency * (c.l1_hits as f64);
            cnt += c.mem_latency_count + c.l1_hits;
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; 3];
        for c in AccessClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coverage_and_accuracy() {
        let p = PrefetchStats {
            covered: 80,
            late: 10,
            useful: 90,
            unused: 10,
            ..Default::default()
        };
        // 90 captured vs 10 remaining misses => 0.9 coverage.
        assert!((p.coverage(10) - 0.9).abs() < 1e-12);
        assert!((p.accuracy() - 0.9).abs() < 1e-12);
        // No prefetches at all: both are 0, not NaN.
        let z = PrefetchStats::default();
        assert_eq!(z.coverage(0), 0.0);
        assert_eq!(z.accuracy(), 0.0);
    }

    #[test]
    fn throughput_aggregates_cores() {
        let s = SystemStats {
            runtime: 100,
            cores: vec![
                CoreStats {
                    instructions: 300,
                    ..Default::default()
                },
                CoreStats {
                    instructions: 200,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert!((s.throughput() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tlb_stats_aggregate_and_rate() {
        let s = SystemStats {
            tlb: vec![
                TlbStats {
                    hits: 6,
                    misses: 2,
                    walk_cycles: 200,
                    prefetch_drops: 1,
                    ..Default::default()
                },
                TlbStats {
                    hits: 2,
                    misses: 2,
                    walk_cycles: 100,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let t = s.tlb_total();
        assert_eq!(t.lookups(), 12);
        assert_eq!(t.walk_cycles, 300);
        assert_eq!(t.prefetch_drops, 1);
        assert!((t.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(TlbStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn avg_memory_latency_mixes_hits_and_misses() {
        let s = SystemStats {
            cores: vec![CoreStats {
                l1_hits: 3,
                mem_latency_sum: 300,
                mem_latency_count: 1,
                ..Default::default()
            }],
            ..Default::default()
        };
        // (3 hits x 1 cycle + 300) / 4 accesses
        assert!((s.avg_memory_latency(1.0) - 75.75).abs() < 1e-12);
    }
}
