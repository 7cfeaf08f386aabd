//! Locality Sensitive Hashing (Section 5.3): nearest-neighbor queries.
//! Hash tables map each query to candidate buckets; the concatenated
//! candidate list is the index stream, and the expensive *filtering*
//! phase reads each candidate's data row indirectly (16-byte rows,
//! coefficient 16) to compute true distances.

use crate::pattern::hop_load;
use crate::{partition, Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::{Pc, SplitMix64};
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_CAND: Pc = Pc::new(70);
const PC_D0: Pc = Pc::new(71);
const PC_D1: Pc = Pc::new(72);
const PC_SW_IDX: Pc = Pc::new(73);
const PC_SW_PF: Pc = Pc::new(74);

/// Data dimensionality: 2 f64 coordinates = 16-byte rows.
const DIM: usize = 2;
/// Number of hash tables whose buckets are unioned per query.
const TABLES: usize = 4;

/// The LSH workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lsh;

fn sizes(scale: Scale) -> (u64, u64, u64) {
    // (points, queries, bucket size)
    match scale {
        Scale::Tiny => (2_048, 32, 16),
        Scale::Small => (65_536, 512, 32),
        Scale::Large => (262_144, 2_048, 48),
    }
}

/// Host-side inputs: the dataset and, per query, the candidate list
/// produced by unioning one bucket from each hash table.
pub(crate) struct LshInput {
    pub points: Vec<[f64; DIM]>,
    pub queries: Vec<[f64; DIM]>,
    pub candidates: Vec<Vec<u32>>,
}

pub(crate) fn build_input(scale: Scale, seed: u64) -> LshInput {
    let (n, q, bucket) = sizes(scale);
    let mut rng = SplitMix64::new(seed);
    let points: Vec<[f64; DIM]> = (0..n)
        .map(|_| [rng.next_f64() * 100.0, rng.next_f64() * 100.0])
        .collect();
    let queries: Vec<[f64; DIM]> = (0..q)
        .map(|_| [rng.next_f64() * 100.0, rng.next_f64() * 100.0])
        .collect();
    // A simple grid LSH: each table hashes a random projection of the
    // space into buckets; a query's candidates are the points sharing a
    // bucket in any table. We emulate bucket membership by seeded
    // sampling biased toward near points, which preserves the access
    // pattern (scattered reads over the whole dataset).
    let candidates = queries
        .iter()
        .enumerate()
        .map(|(qi, _)| {
            let mut c = Vec::with_capacity((bucket as usize) * TABLES);
            let mut h = SplitMix64::new(seed ^ (qi as u64).wrapping_mul(0x9E37));
            for _ in 0..TABLES {
                for _ in 0..bucket {
                    c.push(h.next_below(n) as u32);
                }
            }
            c.sort_unstable();
            c.dedup();
            // Shuffle back to bucket order (hash order, not sorted).
            let mut shuffled = c.clone();
            for i in (1..shuffled.len()).rev() {
                let j = h.next_below(i as u64 + 1) as usize;
                shuffled.swap(i, j);
            }
            shuffled
        })
        .collect();
    LshInput {
        points,
        queries,
        candidates,
    }
}

fn dist2(a: &[f64; DIM], b: &[f64; DIM]) -> f64 {
    (0..DIM).map(|i| (a[i] - b[i]) * (a[i] - b[i])).sum()
}

impl Workload for Lsh {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let input = build_input(params.scale, params.seed);
        let n = input.points.len() as u64;

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_data = space.alloc_array::<f64>("data", n * DIM as u64);
        // Candidate lists are materialized per query (as the real code
        // concatenates matching buckets into a list before filtering).
        let a_cands: Vec<_> = input
            .candidates
            .iter()
            .enumerate()
            .map(|(qi, c)| {
                let arr = space.alloc_array::<u32>(&format!("cand{qi}"), c.len().max(1) as u64);
                arr.fill_from(&mut mem, c);
                arr
            })
            .collect();

        let mut program = Program::new("lsh", params.cores);
        let chunks = partition(input.queries.len() as u64, params.cores);
        let threshold = 50.0; // squared distance for a "match"
        let mut matches = 0u64;
        for (c, range) in chunks.iter().enumerate() {
            let ops = program.core_mut(c);
            for qi in range.clone() {
                let cand = &input.candidates[qi as usize];
                let arr = a_cands[qi as usize];
                for (i, &p) in cand.iter().enumerate() {
                    if let Some(d) = params.software_prefetch.map(|d| d as usize) {
                        if let Some(&fp) = cand.get(i + d) {
                            ops.push(Op::load(
                                arr.addr_of((i + d) as u64),
                                4,
                                PC_SW_IDX,
                                AccessClass::Stream,
                            ));
                            ops.push(Op::compute(1));
                            ops.push(Op::sw_prefetch(
                                a_data.addr_of(u64::from(fp) * DIM as u64),
                                PC_SW_PF,
                            ));
                        }
                    }
                    ops.push(Op::load(
                        arr.addr_of(i as u64),
                        4,
                        PC_CAND,
                        AccessClass::Stream,
                    ));
                    let row = u64::from(p) * DIM as u64;
                    ops.push(hop_load(&a_data, row, PC_D0).with_dep(1));
                    ops.push(hop_load(&a_data, row + 1, PC_D1).with_dep(2));
                    ops.push(Op::compute(4)); // distance + compare
                    if dist2(&input.points[p as usize], &input.queries[qi as usize]) < threshold {
                        matches += 1;
                        ops.push(Op::compute(1));
                    }
                }
            }
        }
        program.barrier();

        Built {
            program,
            mem,
            result: matches as f64,
            regions: space.regions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_count_equals_reference_filter() {
        let built = Lsh.build(&WorkloadParams::new(4, Scale::Tiny));
        let input = build_input(Scale::Tiny, 42);
        let mut expected = 0u64;
        for (qi, cand) in input.candidates.iter().enumerate() {
            for &p in cand {
                if dist2(&input.points[p as usize], &input.queries[qi]) < 50.0 {
                    expected += 1;
                }
            }
        }
        assert_eq!(built.result as u64, expected);
    }

    #[test]
    fn candidates_are_deduplicated() {
        let input = build_input(Scale::Tiny, 42);
        for cand in &input.candidates {
            let mut sorted = cand.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cand.len());
        }
    }

    #[test]
    fn data_rows_are_indirect_sixteen_byte_records() {
        let built = Lsh.build(&WorkloadParams::new(2, Scale::Tiny));
        let addrs: Vec<u64> = built
            .program
            .ops(0)
            .iter()
            .filter(|o| o.pc == PC_D0)
            .map(|o| o.addr)
            .collect();
        assert!(!addrs.is_empty());
        let base = addrs.iter().min().unwrap();
        for a in &addrs {
            assert_eq!((a - base) % 16, 0);
        }
    }
}
