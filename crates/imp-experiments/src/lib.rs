//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (Section 6), plus the motivation figures (Section 2).
//!
//! Each driver runs the necessary simulations and returns a [`Table`]
//! whose rows mirror the paper's figure. Absolute cycle counts will not
//! match the authors' testbed (our substrate is a from-scratch simulator
//! and inputs are scaled), but the *shape* — who wins, by what factor,
//! where crossovers appear — is the reproduction target; see
//! `EXPERIMENTS.md` at the repository root for the full figure-to-driver
//! map and reproduction caveats.
//!
//! Scale selection: set `IMP_SCALE=tiny|small|large` (default `small`).
//!
//! # Example
//!
//! ```no_run
//! let t = imp_experiments::fig09_performance(16);
//! println!("{t}");
//! ```

mod runner;
pub mod service;
pub mod sim;
pub mod sweep;
mod table;

pub use runner::{scale_from_env, sim_for, system_config, Config};
pub use service::{RequestError, SweepRequest};
pub use sim::{Sim, SimError};
pub use sweep::{CellOutcome, Sweep, SweepCell, SweepCellError, SweepReport, SweepResult};
pub use table::{RowWidthError, Table};

use imp_common::stats::AccessClass;
use imp_common::SystemConfig;
use imp_prefetch::cost;
use runner::grid;

/// The paper's application order in every figure.
pub const APPS: [&str; 7] = [
    "pagerank",
    "tri_count",
    "graph500",
    "sgd",
    "lsh",
    "spmv",
    "symgs",
];

/// Core counts evaluated in the paper.
pub const CORE_COUNTS: [u32; 3] = [16, 64, 256];

/// Figure 1: L1 cache-miss breakdown (indirect / stream / other) on the
/// Baseline at 64 cores.
pub fn fig01_miss_breakdown(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 1: L1 miss breakdown, Baseline, {cores} cores"),
        vec!["indirect", "stream", "other"],
    );
    let mut avg = [0.0f64; 3];
    for (&app, [s]) in APPS.iter().zip(grid(&APPS, cores, [Config::Base])) {
        let m = s.misses_by_class();
        let total: u64 = m.iter().sum::<u64>().max(1);
        let fr: Vec<f64> = m.iter().map(|&x| x as f64 / total as f64).collect();
        for (a, f) in avg.iter_mut().zip(fr.iter()) {
            *a += f / APPS.len() as f64;
        }
        t.row(app, fr);
    }
    t.row("avg", avg.to_vec());
    t
}

/// Figure 2: runtime normalized to Ideal, split into indirect-stall and
/// everything-else, plus the Perfect Prefetching bar.
pub fn fig02_motivation(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 2: runtime normalized to Ideal, {cores} cores"),
        vec!["indirect-stall", "other", "total", "PerfPref"],
    );
    let configs = [Config::Ideal, Config::Base, Config::PerfPref];
    for (&app, [ideal, base, perf]) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let norm = base.runtime as f64 / ideal.runtime.max(1) as f64;
        let ind_stall: u64 = base
            .cores
            .iter()
            .map(|c| c.stall_cycles[AccessClass::Indirect.index()])
            .sum();
        let all_cycles: u64 = base.cores.iter().map(|c| c.done_cycle).sum::<u64>().max(1);
        let ind_frac = ind_stall as f64 / all_cycles as f64;
        t.row(
            app,
            vec![
                norm * ind_frac,
                norm * (1.0 - ind_frac),
                norm,
                perf.runtime as f64 / ideal.runtime.max(1) as f64,
            ],
        );
    }
    t
}

/// Figure 9: throughput of Baseline, IMP and Software Prefetching
/// normalized to Perfect Prefetching, at the given core count.
pub fn fig09_performance(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 9: normalized throughput vs PerfPref, {cores} cores"),
        vec!["PerfPref", "Base", "IMP", "SW Pref"],
    );
    let mut sums = [0.0f64; 4];
    let configs = [Config::PerfPref, Config::Base, Config::Imp, Config::SwPref];
    for (&app, stats) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let [perf, base, imp, sw] = stats.map(|s| s.runtime as f64);
        let vals = vec![1.0, perf / base, perf / imp, perf / sw];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v / APPS.len() as f64;
        }
        t.row(app, vals);
    }
    t.row("avg", sums.to_vec());
    t
}

/// Table 3: prefetch coverage, accuracy and relative memory latency for
/// the stream prefetcher alone vs stream + IMP.
pub fn table3_effectiveness(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Table 3: prefetch effectiveness, {cores} cores"),
        vec![
            "strm Cov", "strm Acc", "strm Lat", "IMP Cov", "IMP Acc", "IMP Lat",
        ],
    );
    let mut sums = [0.0f64; 6];
    let configs = [Config::PerfPref, Config::Base, Config::Imp];
    for (&app, [perf, base, imp]) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let perf_lat = perf.avg_memory_latency(1.0).max(1e-9);
        let vals = vec![
            base.coverage(),
            base.accuracy(),
            base.avg_memory_latency(1.0) / perf_lat,
            imp.coverage(),
            imp.accuracy(),
            imp.avg_memory_latency(1.0) / perf_lat,
        ];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v / APPS.len() as f64;
        }
        t.row(app, vals);
    }
    t.row("avg", sums.to_vec());
    t
}

/// Figure 10: instruction overhead of software prefetching (instruction
/// counts normalized to Baseline).
pub fn fig10_sw_overhead(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 10: instructions normalized to Baseline, {cores} cores"),
        vec!["Base", "IMP", "SW Pref"],
    );
    let configs = [Config::Base, Config::Imp, Config::SwPref];
    for (&app, stats) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let [base, imp, sw] = stats.map(|s| s.total_instructions() as f64);
        t.row(app, vec![1.0, imp / base, sw / base]);
    }
    t
}

/// Figure 11: IMP with partial cacheline accessing (NoC only, then NoC +
/// DRAM) normalized to Perfect Prefetching, with Ideal for reference.
pub fn fig11_partial(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 11: partial cacheline accessing, {cores} cores"),
        vec!["IMP", "Partial NoC", "Partial NoC+DRAM", "Ideal"],
    );
    let configs = [
        Config::PerfPref,
        Config::Imp,
        Config::ImpPartialNoc,
        Config::ImpPartialNocDram,
        Config::Ideal,
    ];
    for (&app, stats) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let [perf, imp, pn, pnd, ideal] = stats.map(|s| s.runtime as f64);
        t.row(app, vec![perf / imp, perf / pn, perf / pnd, perf / ideal]);
    }
    t
}

/// Figure 12: NoC and DRAM traffic of partial cacheline accessing
/// normalized to full-line IMP.
pub fn fig12_traffic(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 12: traffic of partial accessing vs full lines, {cores} cores"),
        vec!["NoC traffic", "DRAM traffic"],
    );
    let mut sums = [0.0f64; 2];
    let configs = [Config::Imp, Config::ImpPartialNocDram];
    for (&app, [full, part]) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let vals = vec![
            part.traffic.noc_flit_hops as f64 / full.traffic.noc_flit_hops.max(1) as f64,
            part.traffic.dram_bytes() as f64 / full.traffic.dram_bytes().max(1) as f64,
        ];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v / APPS.len() as f64;
        }
        t.row(app, vals);
    }
    t.row("avg", sums.to_vec());
    t
}

/// Figure 13: in-order vs out-of-order cores (32-entry ROB) for one
/// memory-bound and one compute-bound application, normalized to the
/// out-of-order Baseline.
pub fn fig13_ooo(cores: u32) -> Table {
    let mut t = Table::new(
        format!("Fig 13: in-order vs OoO cores, {cores} cores"),
        vec![
            "Base io",
            "Base ooo",
            "IMP io",
            "IMP ooo",
            "Partial io",
            "Partial ooo",
        ],
    );
    let apps = ["pagerank", "sgd"];
    let configs = [
        Config::BaseOoo,
        Config::Base,
        Config::Imp,
        Config::ImpOoo,
        Config::ImpPartialNocDram,
        Config::ImpPartialOoo,
    ];
    for (&app, stats) in apps.iter().zip(grid(&apps, cores, configs)) {
        let [base_ooo, base, imp, imp_ooo, partial, partial_ooo] = stats.map(|s| s.runtime as f64);
        let vals = vec![
            base_ooo / base,
            1.0,
            base_ooo / imp,
            base_ooo / imp_ooo,
            base_ooo / partial,
            base_ooo / partial_ooo,
        ];
        t.row(app, vals);
    }
    t
}

/// Figures 14/15/16: sensitivity to PT size, IPD size and max prefetch
/// distance. `param` selects which knob; values are the paper's sweep.
pub fn sensitivity(cores: u32, param: SweepParam) -> Table {
    let (name, values) = match param {
        SweepParam::PtSize => ("PT size", vec![8u32, 16, 32]),
        SweepParam::IpdSize => ("IPD size", vec![2, 4, 8]),
        SweepParam::Distance => ("max prefetch distance", vec![4, 8, 16, 32]),
    };
    let headers: Vec<String> = values.iter().map(|v| format!("{name}={v}")).collect();
    let mut t = Table::new(
        format!("Sensitivity to {name}, {cores} cores (normalized to default)"),
        headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    // The swept knob lives inside ImpConfig, so each app's cells are its
    // IMP cell followed by one `tune_imp` copy of it per value.
    let sims: Vec<Sim> = APPS
        .iter()
        .flat_map(|&app| {
            let imp = sim_for(app, cores, Config::Imp);
            let tuned = values.iter().map(move |&v| {
                sim_for(app, cores, Config::Imp).tune_imp(|cfg| match param {
                    SweepParam::PtSize => cfg.pt_entries = v as usize,
                    SweepParam::IpdSize => cfg.ipd_entries = v as usize,
                    SweepParam::Distance => cfg.max_prefetch_distance = v,
                })
            });
            std::iter::once(imp).chain(tuned)
        })
        .collect();
    let stats = runner::run_cells(&sims);
    for (&app, cells) in APPS.iter().zip(stats.chunks(values.len() + 1)) {
        let reference = cells[0].runtime as f64;
        let row: Vec<f64> = cells[1..]
            .iter()
            .map(|s| reference / s.runtime as f64)
            .collect();
        t.row(app, row);
    }
    t
}

/// Which hardware knob [`sensitivity`] sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepParam {
    /// Figure 14.
    PtSize,
    /// Figure 15.
    IpdSize,
    /// Figure 16.
    Distance,
}

/// Section 6.1's GHB comparison: a correlation prefetcher on top of the
/// stream prefetcher provides no benefit on these workloads.
pub fn ghb_comparison(cores: u32) -> Table {
    let mut t = Table::new(
        format!("GHB vs Baseline vs IMP, {cores} cores (throughput vs Base)"),
        vec!["Base", "GHB", "IMP"],
    );
    let configs = [Config::Base, Config::Ghb, Config::Imp];
    for (&app, stats) in APPS.iter().zip(grid(&APPS, cores, configs)) {
        let [base, ghb, imp] = stats.map(|s| s.runtime as f64);
        t.row(app, vec![1.0, base / ghb, base / imp]);
    }
    t
}

/// Section 6.1's no-harm check: IMP on a dense regular workload.
pub fn no_harm(cores: u32) -> Table {
    let mut t = Table::new(
        format!("No-harm check on dense workload, {cores} cores"),
        vec!["Base runtime", "IMP runtime", "IMP/Base"],
    );
    let [base, imp] = grid(&["dense"], cores, [Config::Base, Config::Imp]).remove(0);
    t.row(
        "dense",
        vec![
            base.runtime as f64,
            imp.runtime as f64,
            imp.runtime as f64 / base.runtime.max(1) as f64,
        ],
    );
    t
}

/// Section 6.4: storage cost of IMP and the Granularity Predictor.
pub fn storage_cost_table() -> Table {
    let sys = SystemConfig::paper_default(64);
    let c = cost::storage_cost(&sys.imp, &sys.mem);
    let mut t = Table::new(
        "Section 6.4: storage cost".to_string(),
        vec!["bits", "Kbits", "bytes"],
    );
    t.row(
        "PT indirect half",
        vec![
            c.pt_bits as f64,
            c.pt_bits as f64 / 1024.0,
            c.pt_bits as f64 / 8.0,
        ],
    );
    t.row(
        "IPD",
        vec![
            c.ipd_bits as f64,
            c.ipd_bits as f64 / 1024.0,
            c.ipd_bits as f64 / 8.0,
        ],
    );
    t.row(
        "IMP total",
        vec![c.imp_bits() as f64, c.imp_kbits(), c.imp_bytes() as f64],
    );
    t.row(
        "GP",
        vec![c.gp_bits as f64, c.gp_kbits(), c.gp_bits as f64 / 8.0],
    );
    t.row(
        "L1 sector masks (%)",
        vec![
            c.l1_mask_bits as f64,
            c.l1_mask_bits as f64 / 1024.0,
            100.0 * cost::mask_overhead_fraction(8, 64),
        ],
    );
    t.row(
        "L2 sector masks (%)",
        vec![
            c.l2_mask_bits as f64,
            c.l2_mask_bits as f64 / 1024.0,
            100.0 * cost::mask_overhead_fraction(2, 64),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_table_has_all_rows() {
        let t = storage_cost_table();
        assert_eq!(t.rows(), 6);
    }

    #[test]
    fn tiny_fig01_sums_to_one() {
        std::env::set_var("IMP_SCALE", "tiny");
        let t = fig01_miss_breakdown(16);
        for (label, vals) in t.iter_rows() {
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{label}: {sum}");
        }
    }
}
