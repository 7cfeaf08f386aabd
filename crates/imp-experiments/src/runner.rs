//! The paper's named configurations as [`Sim`] builders, and the one
//! call the figure drivers run their cells through: the sweep engine,
//! against the result store at `IMP_STORE_DIR` when that is set. Several
//! figures reuse the same cells, and a re-run of a driver against the
//! same store simulates nothing the store already has.

use crate::sim::Sim;
use crate::sweep::run_sims;
use imp_common::config::{CoreModel, MemMode, PartialMode};
use imp_common::{SystemConfig, SystemStats};
use imp_store::ResultStore;
use imp_workloads::Scale;
use std::path::Path;
use std::sync::OnceLock;

/// The paper's evaluated configurations (Section 5.4 plus Section 4/6.3
/// variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Config {
    /// All accesses hit in L1 (Section 5.4 *Ideal*).
    Ideal,
    /// Magic prefetcher under finite bandwidth (*Perfect Prefetching*).
    PerfPref,
    /// Stream prefetcher only (*Baseline*).
    Base,
    /// Stream + IMP.
    Imp,
    /// IMP + partial cacheline accessing in the NoC only.
    ImpPartialNoc,
    /// IMP + partial accessing in NoC and DRAM.
    ImpPartialNocDram,
    /// Baseline hardware + Mowry-style software prefetching.
    SwPref,
    /// Stream + GHB correlation prefetcher.
    Ghb,
    /// Baseline on the out-of-order core.
    BaseOoo,
    /// IMP on the out-of-order core.
    ImpOoo,
    /// IMP + partial accessing on the out-of-order core.
    ImpPartialOoo,
}

/// Builds the [`SystemConfig`] for a paper configuration at `cores`.
pub fn system_config(cores: u32, c: Config) -> SystemConfig {
    let base = SystemConfig::paper_default(cores);
    match c {
        Config::Ideal => base.with_mem_mode(MemMode::Ideal),
        Config::PerfPref => base.with_mem_mode(MemMode::PerfectPrefetch),
        Config::Base | Config::SwPref => base,
        Config::Imp => base.with_prefetcher("imp"),
        Config::ImpPartialNoc => base
            .with_prefetcher("imp")
            .with_partial(PartialMode::NocOnly),
        Config::ImpPartialNocDram => base
            .with_prefetcher("imp")
            .with_partial(PartialMode::NocAndDram),
        Config::Ghb => base.with_prefetcher("ghb"),
        Config::BaseOoo => base.with_core_model(CoreModel::OutOfOrder),
        Config::ImpOoo => base
            .with_prefetcher("imp")
            .with_core_model(CoreModel::OutOfOrder),
        Config::ImpPartialOoo => base
            .with_prefetcher("imp")
            .with_partial(PartialMode::NocAndDram)
            .with_core_model(CoreModel::OutOfOrder),
    }
}

/// Input scale from the `IMP_SCALE` environment variable.
pub fn scale_from_env() -> Scale {
    match std::env::var("IMP_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("large") => Scale::Large,
        _ => Scale::Small,
    }
}

/// The drivers' result store: the one at `IMP_STORE_DIR`, shared across
/// processes and runs, or none when that is unset.
fn store() -> Option<&'static ResultStore> {
    static STORE: OnceLock<Option<ResultStore>> = OnceLock::new();
    STORE
        .get_or_init(|| {
            let root = std::env::var_os("IMP_STORE_DIR")?;
            let store = ResultStore::open(&root).unwrap_or_else(|e| {
                panic!("opening result store {}: {e}", Path::new(&root).display())
            });
            Some(store)
        })
        .as_ref()
}

/// The [`Sim`] builder for `app` at `cores` under the paper
/// configuration `config`, at the `IMP_SCALE` input scale.
pub fn sim_for(app: &str, cores: u32, config: Config) -> Sim {
    let mut sim = Sim::from_config(app, system_config(cores, config)).scale(scale_from_env());
    if config == Config::SwPref {
        sim = sim.software_prefetch(16);
    }
    sim
}

/// Runs `sims` through the sweep engine against the drivers' store and
/// returns their statistics in order. Cells that build the same input
/// share one build, and the store serves every cell it already holds.
/// A failed store *write* is ignored: it only costs a re-simulation
/// later.
///
/// # Panics
///
/// Panics if a cell fails or the store cannot be read.
pub(crate) fn run_cells(sims: &[Sim]) -> Vec<SystemStats> {
    let report = run_sims(sims, store(), None, None, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    report
        .results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")).stats)
        .collect()
}

/// Runs each of `apps` at `cores` under every configuration in
/// `configs`, as one grid of [`sim_for`] cells, and returns each app's
/// statistics in `configs` order.
///
/// # Panics
///
/// As [`run_cells`].
pub(crate) fn grid<const N: usize>(
    apps: &[&str],
    cores: u32,
    configs: [Config; N],
) -> Vec<[SystemStats; N]> {
    let sims: Vec<Sim> = apps
        .iter()
        .flat_map(|&app| configs.map(|c| sim_for(app, cores, c)))
        .collect();
    let mut stats = run_cells(&sims).into_iter();
    apps.iter()
        .map(|_| std::array::from_fn(|_| stats.next().expect("one result per cell")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_map_to_expected_modes() {
        assert_eq!(system_config(16, Config::Ideal).mem_mode, MemMode::Ideal);
        assert_eq!(system_config(16, Config::Base).prefetcher.name, "stream");
        assert_eq!(system_config(16, Config::Imp).prefetcher.name, "imp");
        assert_eq!(
            system_config(16, Config::ImpPartialNocDram).partial,
            PartialMode::NocAndDram
        );
        assert_eq!(
            system_config(16, Config::ImpOoo).core_model,
            CoreModel::OutOfOrder
        );
    }

    #[test]
    fn driver_grid_returns_its_sim_for_cells_in_order() {
        std::env::set_var("IMP_SCALE", "tiny");
        // SwPref builds a different program from the other two cells.
        let configs = [Config::Base, Config::SwPref, Config::Imp];
        let apps = ["spmv", "sgd"];
        let rows = grid(&apps, 4, configs);
        assert_eq!(rows.len(), apps.len());
        for (app, row) in apps.iter().zip(&rows) {
            for (&config, stats) in configs.iter().zip(row) {
                let sim = sim_for(app, 4, config);
                assert_eq!(*stats, sim.run().unwrap(), "{app} {config:?}");
            }
            assert_ne!(
                row[0].total_instructions(),
                row[1].total_instructions(),
                "{app}: software prefetching adds instructions"
            );
        }
    }
}
