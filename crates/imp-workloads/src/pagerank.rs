//! PageRank (Section 5.3): pull-based iterations over a CSR graph.
//! The neighbor scan `adj[e]` is the index stream; `pr[adj[e]]` and
//! `deg[adj[e]]` are a *multi-way* indirect pattern (Listing 2) with
//! coefficients 8 and 4.

use crate::gen::CsrGraph;
use crate::pattern::hop_load;
use crate::{partition, Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::Pc;
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_XADJ: Pc = Pc::new(10);
const PC_ADJ: Pc = Pc::new(11);
const PC_PR: Pc = Pc::new(12);
const PC_DEG: Pc = Pc::new(13);
const PC_OUT: Pc = Pc::new(14);
const PC_SW_IDX: Pc = Pc::new(15);
const PC_SW_PF: Pc = Pc::new(16);

const DAMPING: f64 = 0.85;

/// The PageRank workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pagerank;

fn sizes(scale: Scale) -> (u32, u64, usize) {
    // (rmat scale, edge factor, iterations)
    match scale {
        Scale::Tiny => (9, 8, 2),
        Scale::Small => (14, 8, 2),
        Scale::Large => (16, 12, 2),
    }
}

/// One host-side PageRank iteration (the reference semantics the op
/// stream mirrors). `deg` is the out-degree used as the damping divisor.
pub(crate) fn host_iteration(g: &CsrGraph, pr: &[f64], deg: &[u32]) -> Vec<f64> {
    let n = g.vertices() as usize;
    (0..n)
        .map(|v| {
            let sum: f64 = g
                .row(v as u64)
                .iter()
                .map(|&u| pr[u as usize] / f64::from(deg[u as usize].max(1)))
                .sum();
            (1.0 - DAMPING) / n as f64 + DAMPING * sum
        })
        .collect()
}

impl Workload for Pagerank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let (gs, ef, iters) = sizes(params.scale);
        let g = CsrGraph::rmat(gs, ef, params.seed);
        let n = g.vertices();
        // In-degree-as-out-degree of the *source*: pull formulation reads
        // the rank and degree of each in-neighbor. We use g as the
        // transposed graph directly: row(v) holds the vertices v pulls
        // from, and `deg` is their fan-out in the same structure.
        let deg: Vec<u32> = (0..n).map(|v| g.degree(v).max(1)).collect();

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_xadj = space.alloc_array::<u32>("xadj", n + 1);
        let a_adj = space.alloc_array::<u32>("adj", g.edges().max(1));
        let a_deg = space.alloc_array::<u32>("deg", n);
        let a_pr = [
            space.alloc_array::<f64>("pr0", n),
            space.alloc_array::<f64>("pr1", n),
        ];
        // Index arrays must hold real values for IMP.
        for (i, &x) in g.xadj.iter().enumerate() {
            a_xadj.write(&mut mem, i as u64, x);
        }
        for (i, &x) in g.adj.iter().enumerate() {
            a_adj.write(&mut mem, i as u64, x);
        }

        let mut pr = vec![1.0 / n as f64; n as usize];
        let mut program = Program::new("pagerank", params.cores);
        let parts = partition(n, params.cores);

        for it in 0..iters {
            let (src, _dst) = (a_pr[it % 2], a_pr[(it + 1) % 2]);
            for (c, range) in parts.iter().enumerate() {
                let ops = program.core_mut(c);
                for v in range.clone() {
                    // Row bounds: xadj[v] is the previous bound; load
                    // xadj[v + 1] (a unit-stride stream).
                    ops.push(Op::load(
                        a_xadj.addr_of(v + 1),
                        4,
                        PC_XADJ,
                        AccessClass::Stream,
                    ));
                    let (lo, hi) = (g.xadj[v as usize] as u64, g.xadj[v as usize + 1] as u64);
                    for e in lo..hi {
                        if let Some(d) = params.software_prefetch.filter(|&d| e + d < hi) {
                            // Mowry-style indirect prefetch: load the
                            // future index, compute the address, prefetch.
                            let fu = g.adj[(e + d) as usize] as u64;
                            ops.push(Op::load(
                                a_adj.addr_of(e + d),
                                4,
                                PC_SW_IDX,
                                AccessClass::Stream,
                            ));
                            ops.push(Op::compute(1));
                            ops.push(Op::sw_prefetch(src.addr_of(fu), PC_SW_PF));
                            ops.push(Op::sw_prefetch(a_deg.addr_of(fu), PC_SW_PF));
                        }
                        let u = g.adj[e as usize] as u64;
                        ops.push(Op::load(a_adj.addr_of(e), 4, PC_ADJ, AccessClass::Stream));
                        ops.push(hop_load(&src, u, PC_PR).with_dep(1));
                        ops.push(hop_load(&a_deg, u, PC_DEG).with_dep(2));
                        ops.push(Op::compute(3));
                    }
                    ops.push(Op::compute(3));
                    ops.push(Op::store(
                        a_pr[(it + 1) % 2].addr_of(v),
                        8,
                        PC_OUT,
                        AccessClass::Stream,
                    ));
                }
            }
            program.barrier();
            pr = host_iteration(&g, &pr, &deg);
        }

        let result = pr.iter().sum::<f64>();
        Built {
            program,
            mem,
            result,
            regions: space.regions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_trace::OpKind;

    #[test]
    fn result_matches_independent_reference() {
        let params = WorkloadParams::new(4, Scale::Tiny);
        let built = Pagerank.build(&params);
        // Recompute with the same inputs, independently of op emission.
        let (gs, ef, iters) = sizes(Scale::Tiny);
        let g = CsrGraph::rmat(gs, ef, params.seed);
        let deg: Vec<u32> = (0..g.vertices()).map(|v| g.degree(v).max(1)).collect();
        let mut pr = vec![1.0 / g.vertices() as f64; g.vertices() as usize];
        for _ in 0..iters {
            pr = host_iteration(&g, &pr, &deg);
        }
        let expected: f64 = pr.iter().sum();
        assert!((built.result - expected).abs() < 1e-12);
        // Sanity: mass stays bounded (directed R-MAT graphs do not
        // conserve rank exactly — dangling vertices leak mass).
        assert!(expected > 0.05 && expected < 10.0, "rank mass {expected}");
    }

    #[test]
    fn emits_multiway_indirect_pattern() {
        let built = Pagerank.build(&WorkloadParams::new(2, Scale::Tiny));
        let ops = built.program.ops(0);
        let ind_pr = ops
            .iter()
            .filter(|o| o.pc == PC_PR && o.class == AccessClass::Indirect)
            .count();
        let ind_deg = ops
            .iter()
            .filter(|o| o.pc == PC_DEG && o.class == AccessClass::Indirect)
            .count();
        assert!(ind_pr > 0 && ind_pr == ind_deg, "pr {ind_pr} deg {ind_deg}");
    }

    #[test]
    fn index_array_contents_are_in_functional_memory() {
        let built = Pagerank.build(&WorkloadParams::new(2, Scale::Tiny));
        // Find an adj stream load and check the stored value matches a
        // legal vertex id.
        let (gs, ef, _) = sizes(Scale::Tiny);
        let g = CsrGraph::rmat(gs, ef, 42);
        let op = built
            .program
            .ops(0)
            .iter()
            .find(|o| o.pc == PC_ADJ)
            .expect("adj load");
        let v = built.mem.read_u32(op.mem_addr());
        assert!((v as u64) < g.vertices());
    }

    #[test]
    fn software_prefetch_adds_instructions() {
        let base = Pagerank.build(&WorkloadParams::new(2, Scale::Tiny));
        let sw = Pagerank.build(&WorkloadParams::new(2, Scale::Tiny).with_software_prefetch(8));
        assert!(sw.program.total_instructions() > base.program.total_instructions());
        let prefetches = sw
            .program
            .ops(0)
            .iter()
            .filter(|o| o.kind == OpKind::SwPrefetch)
            .count();
        assert!(prefetches > 0);
        assert_eq!(
            sw.result, base.result,
            "prefetching must not change the math"
        );
    }
}
