//! The fluent simulation facade: build and run simulations (and whole
//! parameter sweeps) in one chained expression.
//!
//! [`Sim`] is the front door to the simulator. It names a workload,
//! takes the paper's knobs as chainable setters, resolves the prefetcher
//! through the plugin registry ([`crate::prefetch::registry`]), and runs:
//!
//! ```
//! use imp::sim::Sim;
//! use imp::prelude::*;
//!
//! let base = Sim::workload("spmv").scale(Scale::Tiny).cores(16).run().unwrap();
//! let imp = Sim::workload("spmv")
//!     .scale(Scale::Tiny)
//!     .cores(16)
//!     .prefetcher("imp")
//!     .partial(PartialMode::NocAndDram)
//!     .run()
//!     .unwrap();
//! assert!(imp.runtime <= base.runtime);
//! ```
//!
//! [`Sweep`] fans a config grid across threads: the cross product of
//! its swept axes (workloads, cores, prefetchers, depths, managers,
//! partial modes, page sizes, dTLB ways, translation policies, L2 TLBs,
//! TLB prefetching, walk models, page policies — nested in that order),
//! where each cell is the template `Sim` with one edit per axis. Per-cell
//! seeds derive deterministically from each cell's input coordinates —
//! results are identical whatever the thread count:
//!
//! ```
//! use imp::sim::{Sim, Sweep};
//! use imp::prelude::*;
//!
//! let results = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
//!     .prefetchers(["none", "stream", "imp"])
//!     .cores([16])
//!     .run()
//!     .unwrap();
//! assert_eq!(results.len(), 3);
//! for r in &results {
//!     println!("{} @ {} cores: {} cycles", r.cell.prefetcher, r.cell.cores, r.stats.runtime);
//! }
//! ```
//!
//! `Sweep::run` builds each distinct input (workload, cores, scale,
//! seed, software-prefetch distance) exactly once and fans the cells
//! that use it out over the shared, immutable artifact — bit-identical
//! to rebuilding per cell, just faster. `Sweep::run_partial` returns per-cell `Result`s so one
//! bad cell doesn't discard a finished grid. For explicit sharing and
//! `.imptrace` record/replay, see [`Sim::build_artifact`],
//! [`Sim::run_on`] and the `trace_record` example.
//!
//! Sweeps are *resumable*: route one through the content-addressed
//! result store ([`crate::store`]) with `.store(path)` — or stream
//! cells with [`Sweep::run_with`] — and a warm re-run serves every
//! finished cell from disk, bit-identically, simulating only cells the
//! store has never seen (the `sweep_resume` example and the
//! `imp-sweepd` service binary).
//!
//! Custom prefetchers registered from *outside* the simulator crates run
//! through the same front door — see `imp_prefetch::registry` and the
//! `custom_prefetcher` example.
//!
//! Any run can carry the observability probe without perturbing it:
//! `Sim::observe(ObsConfig::full(..)).run_observed()` returns the same
//! bit-identical `SystemStats` plus an [`crate::obs::ObsReport`]
//! (latency histograms, prefetch-timeliness ledger, Chrome trace), and
//! `Sweep::observe` attaches a compact [`crate::obs::ObsSummary`] to
//! every freshly simulated cell — see the `observability_tour` example.

pub use imp_experiments::service::{serve_dir, RequestError, ServedRequest, SweepRequest};
pub use imp_experiments::sim::{Sim, SimError};
pub use imp_experiments::sweep::{
    CellOutcome, Sweep, SweepCell, SweepCellError, SweepReport, SweepResult,
};
// The underlying simulator, for code that assembles `System`s by hand.
pub use imp_sim::{BuildError, RegistryError, System};
