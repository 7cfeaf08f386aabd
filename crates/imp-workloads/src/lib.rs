//! The paper's evaluation workloads (Section 5.3), re-implemented over
//! synthetic inputs.
//!
//! Each workload runs its *real algorithm* on host data structures while
//! emitting, per core, the instrumented op stream the simulator executes.
//! Index arrays (and any array whose values act as indices) are also
//! written into the simulated [`FunctionalMemory`] so IMP reads genuine
//! index values when it prefetches `B[i + delta]`.
//!
//! | Workload  | Indirect pattern | Coefficient (shift) |
//! |-----------|------------------|---------------------|
//! | PageRank  | `pr[adj[e]]`, `deg[adj[e]]` (multi-way) | 8 (3), 4 (2) |
//! | TriCount  | `bitvec[adj[e] >> 3]` | 1/8 (-3) |
//! | Graph500  | `xadj[frontier[i]]` then `adj[...]`, `parent[adj[e]]` (multi-level) | 4 (2) |
//! | SGD       | `U[ru[k] * 2]`, `V[ri[k] * 2]` (16-byte rows) | 16 (4) |
//! | LSH       | `data[cand[i] * 2]` (16-byte rows) | 16 (4) |
//! | SpMV      | `x[col[k]]` | 8 (3) |
//! | SymGS     | `x[col[k]]` with in-place writes, fwd + bwd sweeps | 8 (3) |
//! | Dense     | none (SPLASH-2-like no-harm control) | — |
//!
//! # Example
//!
//! ```
//! use imp_workloads::{by_name, Scale, WorkloadParams};
//!
//! let params = WorkloadParams::new(16, Scale::Tiny);
//! let built = by_name("spmv").unwrap().build(&params);
//! assert_eq!(built.program.cores(), 16);
//! assert!(built.program.total_memory_ops() > 0);
//! ```

mod artifact;
mod dense;
mod gen;
mod graph500;
mod lsh;
mod pagerank;
pub mod pattern;
mod sgd;
mod spmv;
mod symgs;
mod tricount;

pub use artifact::{ArtifactError, BuiltArtifact, TraceWorkload, WorkloadError};
pub use dense::Dense;
pub use gen::{CsrGraph, CsrMatrix};
pub use graph500::Graph500;
pub use lsh::Lsh;
pub use pagerank::Pagerank;
pub use pattern::{gather, AccessPattern, Chain, ChainSpec};
pub use sgd::Sgd;
pub use spmv::Spmv;
pub use symgs::Symgs;
pub use tricount::TriCount;

use imp_mem::FunctionalMemory;
use imp_trace::Program;

/// Input sizing presets. `Tiny` keeps unit tests fast; `Small` is the
/// default for benchmark harnesses (working sets exceed the aggregate L1
/// but simulate in seconds); `Large` approaches the paper's pressure on
/// the L2/DRAM at the cost of longer runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Smallest inputs (unit tests).
    Tiny,
    /// Bench default.
    Small,
    /// Higher-fidelity runs.
    Large,
}

/// Parameters shared by all workload builders.
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Number of cores to partition work across.
    pub cores: usize,
    /// Input sizing.
    pub scale: Scale,
    /// Insert Mowry-style software prefetches (Section 5.4's *Software
    /// Prefetching* configuration).
    pub software_prefetch: bool,
    /// Software prefetch distance (elements ahead).
    pub sw_distance: u64,
    /// RNG seed for input generation.
    pub seed: u64,
}

impl WorkloadParams {
    /// Default parameters for `cores` at `scale`.
    pub fn new(cores: usize, scale: Scale) -> Self {
        WorkloadParams {
            cores,
            scale,
            software_prefetch: false,
            sw_distance: 16,
            seed: 42,
        }
    }

    /// Returns a copy with software prefetching enabled at `distance`.
    #[must_use]
    pub fn with_software_prefetch(mut self, distance: u64) -> Self {
        self.software_prefetch = true;
        self.sw_distance = distance;
        self
    }
}

/// A generated workload: the multicore program, the functional memory
/// holding its arrays, and the algorithm's result for verification.
///
/// Cloning is cheap once the program is frozen (the streams and memory
/// pages are `Arc`-backed); [`BuiltArtifact`] is the explicitly shared
/// form most callers want.
#[derive(Clone, Debug)]
pub struct Built {
    /// Per-core op streams.
    pub program: Program,
    /// Simulated memory contents (index arrays etc.).
    pub mem: FunctionalMemory,
    /// Functional result of the algorithm (workload-specific meaning;
    /// e.g. triangle count, PageRank mass, BFS vertices reached). Used
    /// by tests to check the generator really ran the algorithm.
    pub result: f64,
    /// The generator's region/placement layer: one record per
    /// allocated array, each with the [`imp_common::PagePolicy`] it
    /// declared (all `Base4K` for the stock generators, so default
    /// runs stay bit-identical; `Sim::page_policy` overrides move hot
    /// arrays to 2 MB pages at run time). Serialized through
    /// `.imptrace`, so replays preserve placement.
    pub regions: Vec<imp_common::MemRegion>,
}

impl Built {
    /// The regions this program's indirect accesses actually scatter
    /// across — the arrays worth `madvise(MADV_HUGEPAGE)` when TLB
    /// reach binds, derived from the op stream, so chain and `trace:`
    /// workloads answer too. Names come back in allocation order,
    /// deduplicated, and feed `Sim::page_policy` directly.
    pub fn hot_regions(&self) -> Vec<String> {
        let mut by_base: Vec<(u64, u64, usize)> = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| (r.base, r.end(), i))
            .collect();
        by_base.sort_unstable();
        let mut hot = vec![false; self.regions.len()];
        for core in 0..self.program.cores() {
            for op in self.program.ops(core) {
                if op.class != imp_common::stats::AccessClass::Indirect || !op.is_demand() {
                    continue;
                }
                let slot = by_base.partition_point(|&(base, _, _)| base <= op.addr);
                if let Some(&(_, end, i)) = slot.checked_sub(1).and_then(|s| by_base.get(s)) {
                    if op.addr < end {
                        hot[i] = true;
                    }
                }
            }
        }
        self.regions
            .iter()
            .zip(&hot)
            .filter(|(_, &h)| h)
            .map(|(r, _)| r.name.clone())
            .collect()
    }
}

/// A workload generator.
pub trait Workload {
    /// Short name (matches the paper's figures).
    fn name(&self) -> &'static str;

    /// Builds the program for the given parameters.
    fn build(&self, params: &WorkloadParams) -> Built;

    /// Fallible form of [`Workload::build`]. The stock generators never
    /// fail; the `trace:<path>` replayer overrides this to surface
    /// missing or mismatched recordings as a [`WorkloadError`].
    ///
    /// # Errors
    ///
    /// See [`WorkloadError`].
    fn try_build(&self, params: &WorkloadParams) -> Result<Built, WorkloadError> {
        Ok(self.build(params))
    }
}

/// All seven paper workloads, in the paper's figure order.
pub fn paper_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Pagerank),
        Box::new(TriCount),
        Box::new(Graph500),
        Box::new(Sgd),
        Box::new(Lsh),
        Box::new(Spmv),
        Box::new(Symgs),
    ]
}

/// Looks a workload up by name (including the `dense` control).
///
/// Four name forms resolve:
///
/// * the stock generators — `pagerank`, `tri_count`, `graph500`, `sgd`,
///   `lsh`, `spmv`, `symgs`, `dense`;
/// * the pointer-chasing kernels — `gather2`, `hashjoin`, `skiplist`,
///   `btree` (see the [`pattern`] module);
/// * `chain:<spec>` — an ad-hoc chained gather described by the
///   [`ChainSpec`] grammar (e.g. `chain:depth=3,entries=4096`); a
///   malformed spec resolves to no workload;
/// * `trace:<path>` — replays a recorded `.imptrace` artifact (see
///   [`BuiltArtifact`]); the path is validated when the workload builds,
///   not here.
///
/// Workloads resolved through this registry count their builds (see
/// [`build_count`]), which is how tests assert that artifact-sharing
/// paths really run a generator only once.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    if let Some(path) = name.strip_prefix("trace:") {
        return Some(Box::new(Counted(TraceWorkload::new(path))));
    }
    if let Some(spec) = name.strip_prefix("chain:") {
        let spec = ChainSpec::parse(spec).ok()?;
        return Some(Box::new(Counted(Chain::from_spec(spec))));
    }
    match name {
        "pagerank" => Some(Box::new(Counted(Pagerank))),
        "tri_count" => Some(Box::new(Counted(TriCount))),
        "graph500" => Some(Box::new(Counted(Graph500))),
        "sgd" => Some(Box::new(Counted(Sgd))),
        "lsh" => Some(Box::new(Counted(Lsh))),
        "spmv" => Some(Box::new(Counted(Spmv))),
        "symgs" => Some(Box::new(Counted(Symgs))),
        "dense" => Some(Box::new(Counted(Dense))),
        "gather2" => Some(Box::new(Counted(pattern::gather2()))),
        "hashjoin" => Some(Box::new(Counted(pattern::hashjoin()))),
        "skiplist" => Some(Box::new(Counted(pattern::skiplist()))),
        "btree" => Some(Box::new(Counted(pattern::btree()))),
        _ => None,
    }
}

/// How many times a registry-resolved workload named `name` has run its
/// generator in this process. Replays of `trace:` workloads count under
/// `"trace"`. Diagnostics: tests use the delta across an experiment to
/// assert build-once artifact sharing.
pub fn build_count(name: &str) -> u64 {
    build_counts()
        .lock()
        .expect("build counter")
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn build_counts() -> &'static std::sync::Mutex<std::collections::HashMap<String, u64>> {
    static COUNTS: std::sync::OnceLock<std::sync::Mutex<std::collections::HashMap<String, u64>>> =
        std::sync::OnceLock::new();
    COUNTS.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()))
}

/// Registry wrapper that bumps the per-name build counter around the
/// wrapped generator.
struct Counted<W>(W);

impl<W: Workload> Counted<W> {
    fn record(&self) {
        *build_counts()
            .lock()
            .expect("build counter")
            .entry(self.0.name().to_string())
            .or_insert(0) += 1;
    }
}

impl<W: Workload> Workload for Counted<W> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    // Record only after a successful build: a failed trace replay is
    // not a generator run, and delta-based build-once assertions must
    // not see it.
    fn build(&self, params: &WorkloadParams) -> Built {
        let built = self.0.build(params);
        self.record();
        built
    }

    fn try_build(&self, params: &WorkloadParams) -> Result<Built, WorkloadError> {
        let built = self.0.try_build(params)?;
        self.record();
        Ok(built)
    }
}

/// Splits `0..n` into `parts` contiguous ranges of near-equal size.
pub(crate) fn partition(n: u64, parts: usize) -> Vec<std::ops::Range<u64>> {
    let parts = parts.max(1) as u64;
    (0..parts)
        .map(|p| {
            let lo = n * p / parts;
            let hi = n * (p + 1) / parts;
            lo..hi
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_exactly_once() {
        for n in [0u64, 1, 7, 64, 1000] {
            for parts in [1usize, 3, 16, 64] {
                let ranges = partition(n, parts);
                assert_eq!(ranges.len(), parts);
                let total: u64 = ranges.iter().map(|r| r.end - r.start).sum();
                assert_eq!(total, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn registry_has_all_paper_workloads() {
        let names: Vec<&str> = paper_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "pagerank",
                "tri_count",
                "graph500",
                "sgd",
                "lsh",
                "spmv",
                "symgs"
            ]
        );
        for n in names {
            assert!(by_name(n).is_some());
        }
        assert!(by_name("dense").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_workload_builds_and_balances_barriers() {
        let p = WorkloadParams::new(4, Scale::Tiny);
        for w in paper_workloads() {
            let b = w.build(&p);
            assert_eq!(b.program.cores(), 4, "{}", w.name());
            b.program.validate_barriers().unwrap();
            assert!(b.program.total_memory_ops() > 0, "{}", w.name());
            assert!(b.result.is_finite(), "{}", w.name());
        }
    }

    #[test]
    fn chain_names_and_grammar_resolve() {
        for n in [
            "gather2",
            "hashjoin",
            "skiplist",
            "btree",
            "chain:depth=2",
            "chain:depth=3,entries=256,iters=64",
            "chain:depth=4,tables=heads+next+next+next+next",
        ] {
            assert!(by_name(n).is_some(), "{n} should resolve");
        }
        for bad in ["chain:depth=0", "chain:depth=2,tables=a", "chain:speed=3"] {
            assert!(by_name(bad).is_none(), "{bad} should not resolve");
        }
    }

    #[test]
    fn built_hot_regions_are_derived_from_the_access_stream() {
        let p = WorkloadParams::new(2, Scale::Tiny);
        // The classic kernels' indirect-target arrays, in allocation
        // order.
        for (name, want) in [
            ("spmv", &["x"][..]),
            ("symgs", &["x"]),
            ("pagerank", &["deg", "pr0", "pr1"]),
            ("graph500", &["xadj", "adj", "parent"]),
            ("sgd", &["U", "V"]),
            ("lsh", &["data"]),
            ("dense", &[]),
        ] {
            let built = by_name(name).unwrap().build(&p);
            assert_eq!(built.hot_regions(), want, "{name}");
        }
        // Chain kernels name every chased hop table.
        let join = by_name("hashjoin").unwrap().build(&p);
        assert_eq!(join.hot_regions(), vec!["bucket", "entry", "payload"]);
        // Per-core families come back as concrete region names rather
        // than a `bits*` glob.
        let tc = by_name("tri_count").unwrap().build(&p);
        let tc_hot = tc.hot_regions();
        assert!(tc_hot.contains(&"bits0".to_string()), "{tc_hot:?}");
        assert!(tc_hot.contains(&"bits1".to_string()), "{tc_hot:?}");
    }

    #[test]
    fn builds_are_deterministic() {
        let p = WorkloadParams::new(4, Scale::Tiny);
        for w in paper_workloads() {
            let a = w.build(&p);
            let b = w.build(&p);
            assert_eq!(a.result, b.result, "{}", w.name());
            assert_eq!(
                a.program.total_instructions(),
                b.program.total_instructions()
            );
        }
    }
}
