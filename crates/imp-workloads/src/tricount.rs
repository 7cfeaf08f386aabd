//! Triangle Counting (Section 5.3): for each vertex the local
//! neighborhood is converted to a *bit vector*, which is then probed
//! indirectly while scanning the two-hop neighborhood. The bit probes
//! `bitvec[adj[e] >> 3]` are the paper's coefficient-1/8 pattern
//! (shift -3).

use crate::gen::CsrGraph;
use crate::{partition, Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::{Pc, SplitMix64};
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_ADJ_SET: Pc = Pc::new(40);
const PC_BIT_SET: Pc = Pc::new(41);
const PC_ADJ_MID: Pc = Pc::new(42);
const PC_XADJ_W: Pc = Pc::new(43);
const PC_ADJ_IN: Pc = Pc::new(44);
const PC_BIT_TEST: Pc = Pc::new(45);
const PC_BIT_CLR: Pc = Pc::new(46);
const PC_SW_IDX: Pc = Pc::new(47);
const PC_SW_PF: Pc = Pc::new(48);

/// The Triangle Counting workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriCount;

fn sizes(scale: Scale) -> (u64, u64) {
    // (vertices, edges) of the uniform random DAG.
    match scale {
        Scale::Tiny => (1 << 10, 1 << 12),
        Scale::Small => (1 << 17, 1 << 18),
        Scale::Large => (1 << 19, 1 << 21),
    }
}

/// A uniform random graph oriented low-id -> high-id (acyclic, as the
/// paper's workload requires).
pub(crate) fn input_graph(scale: Scale, seed: u64) -> CsrGraph {
    let (n, m) = sizes(scale);
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let a = rng.next_below(n) as u32;
        let b = rng.next_below(n) as u32;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if lo != hi {
            edges.push((lo, hi));
        }
    }
    CsrGraph::from_edges(n, edges)
}

/// Brute-force reference count (test use; O(sum deg^2)).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn count_reference(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    for u in 0..g.vertices() {
        let nu = g.row(u);
        for &w in nu {
            for &x in g.row(u64::from(w)) {
                if nu.binary_search(&x).is_ok() {
                    count += 1;
                }
            }
        }
    }
    count
}

impl Workload for TriCount {
    fn name(&self) -> &'static str {
        "tri_count"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let g = input_graph(params.scale, params.seed);
        let n = g.vertices();

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_xadj = space.alloc_array::<u32>("xadj", n + 1);
        let a_adj = space.alloc_array::<u32>("adj", g.edges().max(1));
        for (i, &x) in g.xadj.iter().enumerate() {
            a_xadj.write(&mut mem, i as u64, x);
        }
        for (i, &x) in g.adj.iter().enumerate() {
            a_adj.write(&mut mem, i as u64, x);
        }
        // One private neighborhood bit vector per core.
        let bitvecs: Vec<_> = (0..params.cores)
            .map(|c| space.alloc_bitvec(&format!("bits{c}"), n))
            .collect();

        let mut program = Program::new("tri_count", params.cores);
        let parts = partition(n, params.cores);
        let mut total = 0u64;

        for (c, range) in parts.iter().enumerate() {
            let bv = bitvecs[c];
            let ops = program.core_mut(c);
            for u in range.clone() {
                let nu = g.row(u);
                if nu.is_empty() {
                    continue;
                }
                let (lo, hi) = (g.xadj[u as usize] as u64, g.xadj[u as usize + 1] as u64);
                // Phase 1: mark N(u) in the bit vector.
                for e in lo..hi {
                    let w = g.adj[e as usize];
                    ops.push(Op::load(
                        a_adj.addr_of(e),
                        4,
                        PC_ADJ_SET,
                        AccessClass::Stream,
                    ));
                    ops.push(
                        Op::store(
                            bv.addr_of_bit(u64::from(w)),
                            1,
                            PC_BIT_SET,
                            AccessClass::Indirect,
                        )
                        .with_dep(1),
                    );
                    ops.push(Op::compute(1));
                }
                // Phase 2: for each neighbor w, probe N(w) against the bits.
                for e in lo..hi {
                    let w = g.adj[e as usize];
                    ops.push(Op::load(
                        a_adj.addr_of(e),
                        4,
                        PC_ADJ_MID,
                        AccessClass::Stream,
                    ));
                    ops.push(
                        Op::load(
                            a_xadj.addr_of(u64::from(w)),
                            4,
                            PC_XADJ_W,
                            AccessClass::Indirect,
                        )
                        .with_dep(1),
                    );
                    let (wlo, whi) = (g.xadj[w as usize] as u64, g.xadj[w as usize + 1] as u64);
                    for k in wlo..whi {
                        if let Some(d) = params.software_prefetch.filter(|&d| k + d < whi) {
                            let fx = g.adj[(k + d) as usize];
                            ops.push(Op::load(
                                a_adj.addr_of(k + d),
                                4,
                                PC_SW_IDX,
                                AccessClass::Stream,
                            ));
                            ops.push(Op::compute(1));
                            ops.push(Op::sw_prefetch(bv.addr_of_bit(u64::from(fx)), PC_SW_PF));
                        }
                        let x = g.adj[k as usize];
                        ops.push(Op::load(
                            a_adj.addr_of(k),
                            4,
                            PC_ADJ_IN,
                            AccessClass::Stream,
                        ));
                        ops.push(
                            Op::load(
                                bv.addr_of_bit(u64::from(x)),
                                1,
                                PC_BIT_TEST,
                                AccessClass::Indirect,
                            )
                            .with_dep(1),
                        );
                        ops.push(Op::compute(1));
                        if nu.binary_search(&x).is_ok() {
                            total += 1;
                            ops.push(Op::compute(1));
                        }
                    }
                }
                // Phase 3: clear the marks.
                for e in lo..hi {
                    let w = g.adj[e as usize];
                    ops.push(Op::load(
                        a_adj.addr_of(e),
                        4,
                        PC_ADJ_SET,
                        AccessClass::Stream,
                    ));
                    ops.push(
                        Op::store(
                            bv.addr_of_bit(u64::from(w)),
                            1,
                            PC_BIT_CLR,
                            AccessClass::Indirect,
                        )
                        .with_dep(1),
                    );
                }
            }
        }
        program.barrier();

        Built {
            program,
            mem,
            result: total as f64,
            regions: space.regions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_brute_force() {
        let built = TriCount.build(&WorkloadParams::new(4, Scale::Tiny));
        let g = input_graph(Scale::Tiny, 42);
        let expected = count_reference(&g);
        assert_eq!(built.result as u64, expected);
        assert!(expected > 0, "test graph should contain triangles");
    }

    #[test]
    fn bit_probes_use_one_eighth_coefficient() {
        let built = TriCount.build(&WorkloadParams::new(2, Scale::Tiny));
        let g = input_graph(Scale::Tiny, 42);
        // All bit-test addresses for core 0 must fall within its private
        // bit vector span (n/8 bytes, line-rounded).
        let probes: Vec<u64> = built
            .program
            .ops(0)
            .iter()
            .filter(|o| o.pc == PC_BIT_TEST)
            .map(|o| o.addr)
            .collect();
        assert!(!probes.is_empty());
        let lo = probes.iter().min().unwrap();
        let hi = probes.iter().max().unwrap();
        assert!(
            hi - lo <= g.vertices() / 8,
            "probe span {} fits the bitvec",
            hi - lo
        );
    }

    #[test]
    fn marks_are_set_and_cleared_symmetrically() {
        let built = TriCount.build(&WorkloadParams::new(2, Scale::Tiny));
        for c in 0..2 {
            let sets = built
                .program
                .ops(c)
                .iter()
                .filter(|o| o.pc == PC_BIT_SET)
                .count();
            let clears = built
                .program
                .ops(c)
                .iter()
                .filter(|o| o.pc == PC_BIT_CLR)
                .count();
            assert_eq!(sets, clears, "core {c}");
        }
    }
}
