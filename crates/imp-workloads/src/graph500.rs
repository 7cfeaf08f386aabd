//! Graph500 (Section 5.3): level-synchronized breadth-first search over
//! an R-MAT graph. The frontier is the index stream; `xadj[frontier[i]]`
//! is a first-level indirect pattern whose *loaded value* indexes the
//! adjacency array — the paper's multi-level indirection (Listing 3) —
//! and `parent[adj[e]]` is a further indirect pattern on the edge stream.

use crate::gen::CsrGraph;
use crate::pattern::{hop_load, hop_store};
use crate::{partition, Built, Scale, Workload, WorkloadParams};
use imp_common::stats::AccessClass;
use imp_common::Pc;
use imp_mem::{AddressSpace, FunctionalMemory};
use imp_trace::{Op, Program};

const PC_FRONT: Pc = Pc::new(50);
const PC_XADJ1: Pc = Pc::new(51);
const PC_XADJ2: Pc = Pc::new(52);
const PC_ADJ: Pc = Pc::new(53);
const PC_PARENT_R: Pc = Pc::new(54);
const PC_PARENT_W: Pc = Pc::new(55);
const PC_NEXT: Pc = Pc::new(56);
const PC_SW_IDX: Pc = Pc::new(57);
const PC_SW_PF: Pc = Pc::new(58);

/// The Graph500 BFS workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Graph500;

fn sizes(scale: Scale) -> (u32, u64) {
    match scale {
        Scale::Tiny => (9, 8),
        Scale::Small => (15, 8),
        Scale::Large => (17, 16),
    }
}

/// Host BFS returning the parent array (reference used by tests) (-1 = unreached); root's parent is
/// itself. Deterministic: neighbors are visited in CSR order.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn host_bfs(g: &CsrGraph, root: u32) -> Vec<i32> {
    let mut parent = vec![-1i32; g.vertices() as usize];
    parent[root as usize] = root as i32;
    let mut frontier = vec![root];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in g.row(u64::from(u)) {
                if parent[w as usize] == -1 {
                    parent[w as usize] = u as i32;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    parent
}

impl Workload for Graph500 {
    fn name(&self) -> &'static str {
        "graph500"
    }

    fn build(&self, params: &WorkloadParams) -> Built {
        let (gs, ef) = sizes(params.scale);
        let g = CsrGraph::rmat(gs, ef, params.seed);
        let n = g.vertices();
        // Root: the first vertex with outgoing edges.
        let root = (0..n).find(|&v| g.degree(v) > 0).unwrap_or(0) as u32;

        let mut space = AddressSpace::new();
        let mut mem = FunctionalMemory::new();
        let a_xadj = space.alloc_array::<u32>("xadj", n + 1);
        let a_adj = space.alloc_array::<u32>("adj", g.edges().max(1));
        let a_parent = space.alloc_array::<i32>("parent", n);
        for (i, &x) in g.xadj.iter().enumerate() {
            a_xadj.write(&mut mem, i as u64, x);
        }
        for (i, &x) in g.adj.iter().enumerate() {
            a_adj.write(&mut mem, i as u64, x);
        }

        let mut program = Program::new("graph500", params.cores);
        let mut parent = vec![-1i32; n as usize];
        parent[root as usize] = root as i32;
        let mut frontier = vec![root];
        let mut level = 0u32;

        while !frontier.is_empty() {
            // Each level's frontier lives in its own array, freshly
            // written so IMP reads true index values.
            let a_front =
                space.alloc_array::<u32>(&format!("frontier{level}"), frontier.len() as u64);
            a_front.fill_from(&mut mem, &frontier);
            // Per-core output buffers for the next frontier (sized for
            // the worst case: every vertex discovered by one core).
            let a_next: Vec<_> = (0..params.cores)
                .map(|c| space.alloc_array::<u32>(&format!("next{level}c{c}"), n))
                .collect();

            let chunks = partition(frontier.len() as u64, params.cores);
            let mut next_per_core: Vec<Vec<u32>> = vec![Vec::new(); params.cores];
            for (c, range) in chunks.iter().enumerate() {
                let ops = program.core_mut(c);
                for i in range.clone() {
                    if let Some(d) = params.software_prefetch {
                        if i + d < range.end {
                            let fu = frontier[(i + d) as usize];
                            ops.push(Op::load(
                                a_front.addr_of(i + d),
                                4,
                                PC_SW_IDX,
                                AccessClass::Stream,
                            ));
                            ops.push(Op::compute(1));
                            ops.push(Op::sw_prefetch(a_xadj.addr_of(u64::from(fu)), PC_SW_PF));
                        }
                    }
                    let u = frontier[i as usize];
                    ops.push(Op::load(
                        a_front.addr_of(i),
                        4,
                        PC_FRONT,
                        AccessClass::Stream,
                    ));
                    // xadj[u] and xadj[u+1]: level-1 indirection off the
                    // frontier stream.
                    ops.push(hop_load(&a_xadj, u64::from(u), PC_XADJ1).with_dep(1));
                    ops.push(hop_load(&a_xadj, u64::from(u) + 1, PC_XADJ2).with_dep(2));
                    let (lo, hi) = (g.xadj[u as usize] as u64, g.xadj[u as usize + 1] as u64);
                    for e in lo..hi {
                        if let Some(d) = params.software_prefetch.filter(|&d| e + d < hi) {
                            let fw = g.adj[(e + d) as usize];
                            ops.push(Op::load(
                                a_adj.addr_of(e + d),
                                4,
                                PC_SW_IDX,
                                AccessClass::Stream,
                            ));
                            ops.push(Op::compute(1));
                            ops.push(Op::sw_prefetch(a_parent.addr_of(u64::from(fw)), PC_SW_PF));
                        }
                        let w = g.adj[e as usize];
                        // First edge of the row is reached through the
                        // xadj value: the second level of indirection.
                        let class = if e == lo {
                            AccessClass::Indirect
                        } else {
                            AccessClass::Stream
                        };
                        let dep = if e == lo { 2 } else { 0 };
                        ops.push(Op::load(a_adj.addr_of(e), 4, PC_ADJ, class).with_dep(dep));
                        ops.push(hop_load(&a_parent, u64::from(w), PC_PARENT_R).with_dep(1));
                        ops.push(Op::compute(1));
                        if parent[w as usize] == -1 {
                            parent[w as usize] = u as i32;
                            next_per_core[c].push(w);
                            ops.push(hop_store(&a_parent, u64::from(w), PC_PARENT_W).with_dep(2));
                            ops.push(Op::store(
                                a_next[c].addr_of(next_per_core[c].len() as u64 - 1),
                                4,
                                PC_NEXT,
                                AccessClass::Stream,
                            ));
                        }
                    }
                }
            }
            program.barrier();
            frontier = next_per_core.into_iter().flatten().collect();
            level += 1;
        }

        let reached = parent.iter().filter(|&&p| p != -1).count();
        Built {
            program,
            mem,
            result: reached as f64,
            regions: space.regions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_the_same_set_as_reference_bfs() {
        let built = Graph500.build(&WorkloadParams::new(4, Scale::Tiny));
        let (gs, ef) = sizes(Scale::Tiny);
        let g = CsrGraph::rmat(gs, ef, 42);
        let root = (0..g.vertices()).find(|&v| g.degree(v) > 0).unwrap() as u32;
        let parent = host_bfs(&g, root);
        let reached = parent.iter().filter(|&&p| p != -1).count();
        assert_eq!(built.result as usize, reached);
        assert!(reached > 10, "BFS reaches a meaningful set: {reached}");
    }

    #[test]
    fn parent_edges_exist_in_graph() {
        let (gs, ef) = sizes(Scale::Tiny);
        let g = CsrGraph::rmat(gs, ef, 42);
        let root = (0..g.vertices()).find(|&v| g.degree(v) > 0).unwrap() as u32;
        let parent = host_bfs(&g, root);
        for (w, &p) in parent.iter().enumerate() {
            if p >= 0 && w != p as usize {
                assert!(
                    g.row(p as u64).contains(&(w as u32)),
                    "parent {p} -> {w} must be a real edge"
                );
            }
        }
    }

    #[test]
    fn one_barrier_per_bfs_level() {
        let built = Graph500.build(&WorkloadParams::new(4, Scale::Tiny));
        let levels = built.program.validate_barriers().unwrap();
        assert!(
            levels >= 2,
            "expected a multi-level BFS, got {levels} levels"
        );
    }

    #[test]
    fn frontier_values_live_in_functional_memory() {
        let built = Graph500.build(&WorkloadParams::new(2, Scale::Tiny));
        let (gs, ef) = sizes(Scale::Tiny);
        let g = CsrGraph::rmat(gs, ef, 42);
        // Every frontier load must read back a valid vertex id from the
        // simulated memory (the values IMP uses for indirect prefetching).
        let mut checked = 0;
        for c in 0..2 {
            for op in built
                .program
                .ops(c)
                .iter()
                .filter(|o| o.pc == PC_FRONT)
                .take(50)
            {
                let v = built.mem.read_u32(op.mem_addr());
                assert!(u64::from(v) < g.vertices(), "frontier value {v}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
