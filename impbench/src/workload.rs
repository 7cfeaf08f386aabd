//! The benchmark's four workloads and the cells each one simulates.
//!
//! Each workload stresses different layers, and each names an
//! optimisation it should and should not move:
//!
//! * `indirect` — the paper's case: spmv, sgd and symgs under IMP. The
//!   fabric, directory and NoC do most of the host work, so a directory
//!   or NoC optimisation shows here first.
//! * `compute` — dense code under no prefetcher, the stream prefetcher,
//!   and an out-of-order core. The core engines dominate and IMP never
//!   fires: the workload that bypasses IMP and the directory, where
//!   their changes should show no change.
//! * `translate` — the only workload with a finite TLB: a depth-3
//!   hash-join chain and a decision-tree-managed spmv, with a shared L2
//!   TLB, translation prefetching and walks routed through the caches.
//!   It covers `imp-vm`, chained indirection and `imp-adapt`.
//! * `sweep` — an 8-kernel x 3-prefetcher x 2-core-count grid of tiny
//!   cells through `Sweep` and the result store. Cells take
//!   milliseconds, so generation, construction, scheduling and store
//!   I/O are a large share of the time.
//!
//! The directly run workloads use kernels whose modelled results barely
//! move with the seed (under 2 % between seeds). pagerank and tri_count
//! are left to the grid: their IMP speedup swings by up to 20 % from one
//! generated graph to the next, which would drown any model change.

use imp_common::config::{CoreModel, WalkModel};
use imp_common::TlbConfig;
use imp_experiments::{Sim, Sweep};
use imp_workloads::Scale;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Indirect kernels under IMP.
    Indirect,
    /// Dense kernels, where IMP never fires.
    Compute,
    /// Finite TLBs, chained indirection and a managed prefetcher.
    Translate,
    /// A grid of tiny cells through `Sweep` and the result store.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Indirect,
        Workload::Compute,
        Workload::Translate,
        Workload::Sweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Indirect => "indirect",
            Workload::Compute => "compute",
            Workload::Translate => "translate",
            Workload::Sweep => "sweep",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulated configuration over one generated input.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable label.
    pub label: String,
    /// The configuration run.
    pub sim: Sim,
    /// Index of the cell's input in [`Plan::inputs`].
    pub input: usize,
    /// The same cell with no prefetcher and no manager: the base of
    /// `prefetch_speedup`.
    pub baseline: Sim,
    /// For a managed cell, the same cell unmanaged (the base of
    /// `adapt.overhead`).
    pub unmanaged: Option<Sim>,
}

/// What one workload runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Builders whose `build_artifact` generates each distinct input.
    pub inputs: Vec<Sim>,
    /// The cells, in run order.
    pub cells: Vec<Cell>,
    /// The `Sweep` whose grid the cells are (the `sweep` workload only).
    pub grid: Option<Sweep>,
}

impl Plan {
    fn new() -> Plan {
        Plan {
            inputs: Vec::new(),
            cells: Vec::new(),
            grid: None,
        }
    }

    /// Adds a cell. Cells share an input when their workload name, core
    /// count and seed agree; a plan keeps one scale per workload name.
    fn push(&mut self, label: String, sim: Sim, baseline: Sim, unmanaged: Option<Sim>) {
        let key = |s: &Sim| {
            let cores = s
                .config()
                .map(|c| c.cores)
                .expect("benchmark cells resolve");
            (s.workload_name().to_string(), cores, s.seed_value())
        };
        let input = match self.inputs.iter().position(|s| key(s) == key(&sim)) {
            Some(i) => i,
            None => {
                self.inputs.push(sim.clone());
                self.inputs.len() - 1
            }
        };
        self.cells.push(Cell {
            label,
            sim,
            input,
            baseline,
            unmanaged,
        });
    }
}

/// The kernels of the `sweep` grid: the paper's seven plus hashjoin.
pub const SWEEP_KERNELS: [&str; 8] = [
    "pagerank",
    "tri_count",
    "graph500",
    "sgd",
    "lsh",
    "spmv",
    "symgs",
    "hashjoin",
];

/// Worker threads of the `sweep` workload's grid. One: a shared 2-vCPU
/// host slows a two-thread pass by up to 20 % between runs, far more
/// than a calibration loop can correct. The traced run times two
/// threads against one (`sweep.scaling_2t`).
pub const SWEEP_THREADS: usize = 1;

/// The translation setup of the `translate` workload.
fn finite_tlb(sim: Sim) -> Sim {
    sim.tlb(TlbConfig::finite())
        .l2_tlb(64, 8)
        .tlb_prefetch(true)
        .walk_model(WalkModel::Cached)
}

/// The cells of `workload` with inputs generated from `seed`. `scale`
/// replaces every cell's input scale (tests run at `Scale::Tiny`).
pub fn plan(workload: Workload, seed: u64, scale: Option<Scale>) -> Plan {
    let base = |kernel: &str, preset: Scale| {
        Sim::workload(kernel)
            .scale(scale.unwrap_or(preset))
            .cores(16)
            .seed(seed)
    };
    let mut plan = Plan::new();
    match workload {
        Workload::Indirect => {
            for kernel in ["spmv", "sgd", "symgs"] {
                let b = base(kernel, Scale::Small);
                plan.push(
                    format!("{kernel}/imp"),
                    b.clone().prefetcher("imp"),
                    b.prefetcher("none"),
                    None,
                );
            }
        }
        Workload::Compute => {
            let b = base("dense", Scale::Large);
            let none = b.clone().prefetcher("none");
            plan.push("dense/none".into(), none.clone(), none.clone(), None);
            plan.push(
                "dense/stream".into(),
                b.clone().prefetcher("stream"),
                none,
                None,
            );
            let ooo = b.prefetcher("none").core_model(CoreModel::OutOfOrder);
            plan.push("dense/none/ooo".into(), ooo.clone(), ooo, None);
        }
        Workload::Translate => {
            let hj = finite_tlb(base("hashjoin", Scale::Large));
            plan.push(
                "hashjoin/imp:depth=3".into(),
                hj.clone().prefetcher("imp:depth=3"),
                hj.prefetcher("none"),
                None,
            );
            let spmv = finite_tlb(base("spmv", Scale::Small));
            let imp = spmv.clone().prefetcher("imp");
            plan.push(
                "spmv/imp/tree".into(),
                imp.clone().manager("tree"),
                spmv.prefetcher("none"),
                Some(imp),
            );
        }
        Workload::Sweep => {
            let template = Sim::workload(SWEEP_KERNELS[0])
                .scale(scale.unwrap_or(Scale::Tiny))
                .seed(seed);
            let grid = Sweep::from(template.clone())
                .workloads(SWEEP_KERNELS)
                .prefetchers(["none", "stream", "imp"])
                .cores([16, 64])
                .threads(SWEEP_THREADS);
            for c in grid.cells() {
                // The per-cell builder `Sweep` itself runs: the template
                // with the cell's axes and derived seed applied.
                let sim = template
                    .clone()
                    .with_workload(&c.workload)
                    .cores(c.cores)
                    .seed(c.seed);
                plan.push(
                    format!("{}/{}/{}c", c.workload, c.prefetcher, c.cores),
                    sim.clone().prefetcher(c.prefetcher.clone()),
                    sim.prefetcher("none"),
                    None,
                );
            }
            plan.grid = Some(grid);
        }
    }
    plan
}
