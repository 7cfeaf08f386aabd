//! Parameter sweeps: fan a grid of simulation cells across threads and
//! collect structured results.
//!
//! A [`Sweep`] starts from a template [`Sim`] and varies any of its
//! axes. The grid is the cross product of the swept axes, nested in one
//! fixed order, outermost first: workloads, cores, prefetchers, depths,
//! managers, partial modes, page sizes, dTLB ways, translation
//! policies, L2 TLBs, TLB prefetching, walk models and page policies.
//! Each axis value is an edit made through the matching [`Sim`] setter,
//! so a cell *is* a `Sim`: the template with one edit per swept axis
//! applied, and an axis not swept keeps the template's value.
//! Cells are executed by a scoped worker pool; each cell derives its
//! workload-generation seed from the template seed and the cell's
//! (workload, cores) coordinates — never from scheduling — so results are
//! identical whatever the thread count, and cells that differ only in
//! prefetcher or partial mode run the *same* generated input (the
//! comparison the paper's figures make).
//!
//! Cells sharing an input do not rebuild it: the grid is grouped by the
//! input each cell builds — its workload, cores, scale, seed and
//! software-prefetch distance — each group's
//! [`imp_workloads::BuiltArtifact`] is built exactly once, from one of
//! the group's own cells, and the group's cells fan out over the shared
//! artifact ([`Sim::run_on`]). The figure drivers run their cells
//! through the same engine.
//! Because artifacts are immutable to the simulator, the statistics are
//! bit-identical to rebuilding per cell; only the wall-clock changes.
//!
//! ```
//! use imp_experiments::{Sim, Sweep};
//! use imp_workloads::Scale;
//!
//! let results = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
//!     .prefetchers(["stream", "imp"])
//!     .cores([16])
//!     .run()
//!     .unwrap();
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.stats.runtime > 0));
//! ```

use crate::sim::{Sim, SimError};
use imp_common::config::{
    PagePolicy, ParamValue, PartialMode, PrefetcherSpec, TranslationPolicy, WalkModel,
};
use imp_common::{fnv1a, SplitMix64, SystemStats};
use imp_obs::{ObsConfig, ObsSummary};
use imp_store::{cell_digest, ResultStore, StoredResult};
use imp_workloads::BuiltArtifact;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One point of the sweep grid: the coordinates the result store files
/// the cell's record under.
pub use imp_store::CellKey as SweepCell;

/// A finished cell: where it ran and what came back.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The grid point.
    pub cell: SweepCell,
    /// The simulation statistics.
    pub stats: SystemStats,
    /// Observability summary, when the sweep ran with
    /// [`Sweep::observe`] and this cell was freshly simulated. Cells
    /// served from the result store carry `None` — the store holds
    /// statistics only, and observation never re-runs a cached cell.
    pub obs: Option<ObsSummary>,
}

/// A failed cell: where it was and why it failed.
#[derive(Clone, Debug)]
pub struct SweepCellError {
    /// The grid point.
    pub cell: SweepCell,
    /// The cell's canonical input string (the same rendering the result
    /// store digests, [`Sim::canonical_input`]) — every axis value that
    /// produced the failure, so one bad cell in a 10k-cell grid is
    /// diagnosable from the error alone. Cells whose configuration did
    /// not resolve carry an `<unresolved config: ...>` placeholder.
    pub canonical: String,
    /// What went wrong.
    pub error: SimError,
}

impl std::fmt::Display for SweepCellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{} [{} / {:?}]: {} (cell input: {})",
            self.cell.workload,
            self.cell.cores,
            self.cell.prefetcher,
            self.cell.partial,
            self.error,
            self.canonical
        )
    }
}

impl std::error::Error for SweepCellError {}

/// One delivered cell of a [`Sweep::run_with`] streaming run.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Position in [`Sweep::cells`] order.
    pub index: usize,
    /// The cell's canonical input string (the digest preimage).
    pub canonical: String,
    /// The content digest addressing this cell in the store.
    pub digest: u64,
    /// Whether the result was served from the store (`true`) or
    /// simulated this run (`false`; failed cells are also `false`). A
    /// cell that repeats an earlier cell's canonical input in the same
    /// run takes that cell's outcome, this flag included.
    pub cached: bool,
    /// The cell's result.
    pub result: Result<SweepResult, SweepCellError>,
}

/// What a [`Sweep::run_with`] run did, cell by cell.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-cell results in [`Sweep::cells`] order.
    pub results: Vec<Result<SweepResult, SweepCellError>>,
    /// Cells served from the store without simulating.
    pub cached: usize,
    /// Cells simulated (and persisted, when there is a store) this run.
    /// A cell that repeats an earlier cell's canonical input in the same
    /// run takes that cell's outcome and is counted with it: as
    /// simulated, cached or failed.
    pub simulated: usize,
    /// Cells that failed.
    pub failed: usize,
    /// First failure *writing* a freshly simulated result back to the
    /// store, if any. Results are still returned — the cost of a failed
    /// write is a re-simulation next run, never lost work.
    pub store_error: Option<String>,
}

/// A sweepable axis. The declaration order is the nesting order of
/// [`Sweep::cells`], outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Axis {
    Workloads,
    Cores,
    Prefetchers,
    Depths,
    Managers,
    Partials,
    PageSizes,
    TlbWays,
    TranslationPolicies,
    L2Tlbs,
    TlbPrefetches,
    WalkModels,
    PagePolicies,
}

/// One axis value: an edit of a cell's [`Sim`].
#[derive(Clone, Debug)]
enum Edit {
    Workload(String),
    Cores(u32),
    Prefetcher(PrefetcherSpec),
    Depth(u32),
    /// `None` runs the cell unmanaged, whatever the template's manager.
    Manager(Option<PrefetcherSpec>),
    Partial(PartialMode),
    PageSize(u64),
    TlbWays(u32),
    TranslationPolicy(TranslationPolicy),
    L2Tlb(u32, u32),
    TlbPrefetch(bool),
    WalkModel(WalkModel),
    PagePolicies(Vec<(String, PagePolicy)>),
}

impl Edit {
    /// Applies this value to `sim` through the setter for its axis.
    fn apply(&self, mut sim: Sim) -> Sim {
        match self {
            Edit::Workload(name) => sim.with_workload(name),
            Edit::Cores(n) => sim.cores(*n),
            Edit::Prefetcher(spec) => sim.prefetcher(spec.clone()),
            // Overrides `depth` on the prefetcher the cell runs.
            Edit::Depth(d) => {
                let depth = ParamValue::Int(i64::from(*d));
                sim.cfg.prefetcher.params.insert("depth".to_string(), depth);
                sim
            }
            Edit::Manager(spec) => {
                sim.cfg.manager = spec.clone();
                sim
            }
            Edit::Partial(mode) => sim.partial(*mode),
            Edit::PageSize(bytes) => sim.page_size(*bytes),
            Edit::TlbWays(ways) => sim.tlb_ways(*ways),
            Edit::TranslationPolicy(policy) => sim.translation_policy(*policy),
            Edit::L2Tlb(sets, ways) => sim.l2_tlb(*sets, *ways),
            Edit::TlbPrefetch(on) => sim.tlb_prefetch(*on),
            Edit::WalkModel(model) => sim.walk_model(*model),
            // Like every TLB axis, this one upgrades an ideal TLB, even
            // for the empty set, which `Sim::page_policies` leaves alone.
            Edit::PagePolicies(set) => {
                sim.cfg.tlb = sim.cfg.tlb.finite_or_self();
                sim.page_policies(set.clone())
            }
        }
    }
}

/// A config-grid runner over a template [`Sim`]. See the module docs.
#[derive(Clone, Debug)]
pub struct Sweep {
    base: Sim,
    /// The swept axes, each with one edit per value, iterated in
    /// nesting order.
    axes: BTreeMap<Axis, Vec<Edit>>,
    threads: Option<usize>,
    store_path: Option<PathBuf>,
    spec_error: Option<String>,
    observe: Option<ObsConfig>,
}

impl From<Sim> for Sweep {
    fn from(base: Sim) -> Self {
        Sweep {
            base,
            axes: BTreeMap::new(),
            threads: None,
            store_path: None,
            spec_error: None,
            observe: None,
        }
    }
}

impl Sweep {
    /// A sweep whose unvaried axes come from the template `base`.
    pub fn new(base: Sim) -> Self {
        Sweep::from(base)
    }

    /// Sweeps `axis` over `values`, replacing any earlier values. An
    /// axis given no values is not swept, so its cells keep the
    /// template's value; an empty workload list instead empties the
    /// grid.
    fn axis(mut self, axis: Axis, values: impl IntoIterator<Item = Edit>) -> Self {
        let values: Vec<Edit> = values.into_iter().collect();
        if values.is_empty() && axis != Axis::Workloads {
            self.axes.remove(&axis);
        } else {
            self.axes.insert(axis, values);
        }
        self
    }

    /// Parses an axis of prefetcher or manager specs. A malformed spec
    /// is left out and kept for [`Sweep::run`] to report.
    fn specs<I, S>(&mut self, specs: I) -> Vec<PrefetcherSpec>
    where
        I: IntoIterator<Item = S>,
        S: TryInto<PrefetcherSpec>,
        S::Error: std::fmt::Display,
    {
        let mut parsed = Vec::new();
        for spec in specs {
            match spec.try_into() {
                Ok(s) => parsed.push(s),
                Err(e) => self.spec_error = Some(e.to_string()),
            }
        }
        parsed
    }

    /// Varies the workload axis.
    #[must_use]
    pub fn workloads<I, S>(self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let edits = names.into_iter().map(|name| Edit::Workload(name.into()));
        self.axis(Axis::Workloads, edits)
    }

    /// Varies the core-count axis.
    #[must_use]
    pub fn cores<I: IntoIterator<Item = u32>>(self, counts: I) -> Self {
        self.axis(Axis::Cores, counts.into_iter().map(Edit::Cores))
    }

    /// Varies the prefetcher axis (specs, kinds, or spec strings). A
    /// malformed spec string surfaces as [`SimError::InvalidSpec`] from
    /// [`Sweep::run`] rather than panicking here.
    #[must_use]
    pub fn prefetchers<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: TryInto<PrefetcherSpec>,
        S::Error: std::fmt::Display,
    {
        let specs = self.specs(specs);
        self.axis(Axis::Prefetchers, specs.into_iter().map(Edit::Prefetcher))
    }

    /// Varies the chained-indirection depth: every prefetcher cell is
    /// cloned per depth with its `depth` parameter overridden (the
    /// `imp:depth=N` knob — data prefetches chase up to `N + 1` hops).
    /// Depth varies fastest within a prefetcher, and never changes the
    /// generated input, so a `depths([1, 2, 3])` sweep compares chain
    /// depths on byte-identical workloads. Prefetchers that do not
    /// accept a `depth` parameter fail their cells the same way any
    /// invalid parameter does; with no depth axis, specs pass through
    /// untouched (a spec's own `depth=` still applies).
    #[must_use]
    pub fn depths<I: IntoIterator<Item = u32>>(self, depths: I) -> Self {
        self.axis(Axis::Depths, depths.into_iter().map(Edit::Depth))
    }

    /// Varies the adaptive-management axis (see `imp_adapt::Manager`).
    /// The spec `"none"` means *unmanaged* — a cell whose canonical
    /// input is byte-identical to a pre-manager build — so one sweep
    /// can compare managed against unmanaged cells directly:
    ///
    /// ```ignore
    /// Sweep::from(base).managers(["none", "static", "throttle:accuracy_floor=0.4"])
    /// ```
    ///
    /// A malformed spec string surfaces as [`SimError::InvalidSpec`]
    /// from [`Sweep::run`]; an unknown policy name fails its cells with
    /// [`SimError::System`].
    #[must_use]
    pub fn managers<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: TryInto<PrefetcherSpec>,
        S::Error: std::fmt::Display,
    {
        let specs = self.specs(specs);
        let edits = specs
            .into_iter()
            .map(|s| Edit::Manager((s.name != "none").then_some(s)));
        self.axis(Axis::Managers, edits)
    }

    /// Varies the partial-accessing axis.
    #[must_use]
    pub fn partials<I: IntoIterator<Item = PartialMode>>(self, modes: I) -> Self {
        self.axis(Axis::Partials, modes.into_iter().map(Edit::Partial))
    }

    /// Varies the translation page size (bytes per page). Setting any
    /// TLB axis upgrades an ideal template TLB to the
    /// [`imp_common::TlbConfig::finite`] defaults, then applies the
    /// swept knob.
    #[must_use]
    pub fn page_sizes<I: IntoIterator<Item = u64>>(self, sizes: I) -> Self {
        self.axis(Axis::PageSizes, sizes.into_iter().map(Edit::PageSize))
    }

    /// Varies the dTLB associativity (ways per set); see
    /// [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn tlb_ways<I: IntoIterator<Item = u32>>(self, ways: I) -> Self {
        self.axis(Axis::TlbWays, ways.into_iter().map(Edit::TlbWays))
    }

    /// Varies the prefetch-translation policy; see
    /// [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn translation_policies<I: IntoIterator<Item = TranslationPolicy>>(
        self,
        policies: I,
    ) -> Self {
        let edits = policies.into_iter().map(Edit::TranslationPolicy);
        self.axis(Axis::TranslationPolicies, edits)
    }

    /// Varies the shared L2-TLB geometry as `(sets, ways)` pairs
    /// (`(0, 0)` is the no-L2 point); see [`Sweep::page_sizes`] for how
    /// an ideal template upgrades.
    #[must_use]
    pub fn l2_tlbs<I: IntoIterator<Item = (u32, u32)>>(self, geometries: I) -> Self {
        let edits = geometries
            .into_iter()
            .map(|(sets, ways)| Edit::L2Tlb(sets, ways));
        self.axis(Axis::L2Tlbs, edits)
    }

    /// Varies the translation-prefetching knob; see
    /// [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn tlb_prefetches<I: IntoIterator<Item = bool>>(self, settings: I) -> Self {
        let edits = settings.into_iter().map(Edit::TlbPrefetch);
        self.axis(Axis::TlbPrefetches, edits)
    }

    /// Varies the walk-timing model; see [`Sweep::page_sizes`] for how
    /// an ideal template upgrades.
    #[must_use]
    pub fn walk_models<I: IntoIterator<Item = WalkModel>>(self, models: I) -> Self {
        self.axis(Axis::WalkModels, models.into_iter().map(Edit::WalkModel))
    }

    /// Varies the per-region page placement: each axis value is one
    /// `Sim::page_policy`-style override set applied to the workload's
    /// regions (an empty set keeps every declared policy — the all-4K
    /// baseline). Placement is translation-only, so the whole axis
    /// shares one built artifact per generated input;
    /// see [`Sweep::page_sizes`] for how an ideal template upgrades.
    #[must_use]
    pub fn page_policies<I, O, S>(self, sets: I) -> Self
    where
        I: IntoIterator<Item = O>,
        O: IntoIterator<Item = (S, PagePolicy)>,
        S: Into<String>,
    {
        let edits = sets.into_iter().map(|set| {
            let set = set.into_iter().map(|(name, policy)| (name.into(), policy));
            Edit::PagePolicies(set.collect())
        });
        self.axis(Axis::PagePolicies, edits)
    }

    /// Caps the worker-thread count (default: available parallelism).
    /// `threads(1)` simulates on one worker while the calling thread
    /// delivers results in cell order.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Observes every freshly simulated cell at the given level and
    /// attaches the resulting [`ObsSummary`] to its [`SweepResult`].
    /// Observation is a lens: cell statistics (and store digests) are
    /// bit-identical with or without it, and cells served from the
    /// result store are never re-simulated just to observe them (their
    /// `obs` stays `None`).
    #[must_use]
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.observe = Some(cfg);
        self
    }

    /// Routes this sweep through the content-addressed result store at
    /// `path`: [`Sweep::run`] and [`Sweep::run_partial`] serve cells
    /// already on disk without simulating (checksum- and
    /// canonical-verified; corrupt records re-simulate), and persist
    /// every freshly simulated cell. A warm re-run simulates nothing
    /// and is bit-identical to the cold run.
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Enumerates the grid in its deterministic execution order: the
    /// cross product of the swept axes, nested workloads, cores,
    /// prefetchers, depths, managers, partial modes, page sizes, dTLB
    /// ways, translation policies, L2 TLBs, TLB prefetching, walk
    /// models and page policies, the last varying fastest. An axis not
    /// swept keeps the template's value.
    pub fn cells(&self) -> Vec<SweepCell> {
        self.sims().iter().map(SweepCell::from).collect()
    }

    /// Every cell as the [`Sim`] it runs: the template with one edit per
    /// swept axis applied in nesting order, then the cell's seed.
    fn sims(&self) -> Vec<Sim> {
        let mut sims = vec![self.base.clone()];
        for edits in self.axes.values() {
            sims = sims
                .iter()
                .flat_map(|sim| edits.iter().map(|edit| edit.apply(sim.clone())))
                .collect();
        }
        sims.into_iter()
            .map(|sim| {
                let seed = cell_seed(sim.seed_value(), sim.workload_name(), sim.cores);
                sim.seed(seed)
            })
            .collect()
    }

    /// Runs every cell and returns results in [`Sweep::cells`] order.
    /// The first failing cell's error is returned; completed work for
    /// other cells is discarded — use [`Sweep::run_partial`] to keep
    /// the grid when individual cells fail.
    pub fn run(&self) -> Result<Vec<SweepResult>, SimError> {
        self.run_partial()?
            .into_iter()
            .map(|r| r.map_err(|e| e.error))
            .collect()
    }

    /// Runs every cell, returning a per-cell `Result` in
    /// [`Sweep::cells`] order: one bad cell (an unresolvable prefetcher,
    /// a failed `trace:` replay, an invalid core count) no longer throws
    /// away the completed rest of the grid.
    ///
    /// This is [`Sweep::run_with`] against the [`Sweep::store`], if one
    /// was set; without one, it runs the same path with no store to
    /// read or fill. Each distinct input is built exactly once and
    /// shared read-only across the cells that use it; a failed build is
    /// reported by every cell of its group.
    ///
    /// # Errors
    ///
    /// The outer `Err` is reserved for a malformed grid — an axis spec
    /// string that did not parse — where no cells can be enumerated at
    /// all, and for a store that cannot be opened or read. Everything
    /// that goes wrong *inside* a cell comes back in that cell's slot.
    // A cell's error carries its (string-heavy) grid coordinates by
    // design; boxing would just push the size into every caller match.
    #[allow(clippy::type_complexity, clippy::result_large_err)]
    pub fn run_partial(&self) -> Result<Vec<Result<SweepResult, SweepCellError>>, SimError> {
        let store = self
            .store_path
            .as_ref()
            .map(ResultStore::open)
            .transpose()
            .map_err(|e| SimError::Store(e.to_string()))?;
        Ok(self.run_in(store.as_ref(), |_| {})?.results)
    }

    /// Runs the grid against `store`, streaming each cell's outcome to
    /// `on_cell` in deterministic [`Sweep::cells`] order as it becomes
    /// available: cached cells are served from disk (verified by
    /// checksum *and* canonical string; anything suspect re-simulates),
    /// only missing cells are simulated, and every fresh result is
    /// persisted. Workloads whose cells are all cached are never even
    /// built — a fully warm run touches only the store.
    ///
    /// The returned [`SweepReport`] carries the same per-cell results
    /// [`Sweep::run_partial`] would, plus hit/miss accounting.
    ///
    /// # Errors
    ///
    /// A malformed grid (axis spec that did not parse) or a store that
    /// cannot be *read* (I/O, not corruption) fails the whole run;
    /// per-cell simulation failures come back in their result slots.
    #[allow(clippy::result_large_err)]
    pub fn run_with<F>(&self, store: &ResultStore, on_cell: F) -> Result<SweepReport, SimError>
    where
        F: FnMut(&CellOutcome),
    {
        self.run_in(Some(store), on_cell)
    }

    /// The one run path: the cross product through [`run_sims`].
    #[allow(clippy::result_large_err)]
    fn run_in<F>(&self, store: Option<&ResultStore>, on_cell: F) -> Result<SweepReport, SimError>
    where
        F: FnMut(&CellOutcome),
    {
        if let Some(e) = &self.spec_error {
            return Err(SimError::InvalidSpec(e.clone()));
        }
        run_sims(&self.sims(), store, self.threads, self.observe, on_cell)
    }
}

/// The grid engine under [`Sweep`] and the figure drivers: probe each
/// of `sims` in `store` (when there is one), build the inputs of the
/// cells it misses, simulate those cells on up to `threads` workers
/// (default: the available parallelism), observing them when `observe`
/// is set, and deliver every outcome to `on_cell` in cell order. Cells
/// that build the same input share one build, and a cell whose
/// canonical input an earlier cell already has is a repeat: it takes
/// that cell's outcome (and its cached flag) without a store lookup or
/// a simulation of its own.
///
/// # Errors
///
/// A store that cannot be *read* fails the whole run; per-cell failures
/// come back in their result slots.
#[allow(clippy::result_large_err)]
pub(crate) fn run_sims<F>(
    sims: &[Sim],
    store: Option<&ResultStore>,
    threads: Option<usize>,
    observe: Option<ObsConfig>,
    mut on_cell: F,
) -> Result<SweepReport, SimError>
where
    F: FnMut(&CellOutcome),
{
    let cells: Vec<SweepCell> = sims.iter().map(SweepCell::from).collect();
    let n = cells.len();

    // Probe phase: resolve each cell's canonical input and look it
    // up. Sequential and cheap — config resolution plus one read
    // per cell; no workload is built here.
    type CellRun = Result<(SystemStats, Option<ObsSummary>), SimError>;
    let mut canonicals: Vec<String> = Vec::with_capacity(n);
    let mut slots: Vec<Option<CellRun>> = Vec::with_capacity(n);
    let mut cached_flags = vec![false; n];
    let mut missing: Vec<usize> = Vec::new();
    let mut first_with: BTreeMap<String, usize> = BTreeMap::new();
    // Per first cell, the later cells that repeat its canonical input.
    let mut repeats: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, sim) in sims.iter().enumerate() {
        match sim.canonical_input() {
            Ok(canonical) => {
                if let Some(&f) = first_with.get(&canonical) {
                    // Cached with its first cell, or filled when that
                    // cell's simulation arrives.
                    repeats[f].push(i);
                    cached_flags[i] = cached_flags[f];
                    slots.push(slots[f].clone());
                    canonicals.push(canonical);
                    continue;
                }
                first_with.insert(canonical.clone(), i);
                let hit = match store {
                    Some(store) => store
                        .get(&canonical)
                        .map_err(|e| SimError::Store(e.to_string()))?,
                    None => None,
                };
                match hit {
                    Some(record) => {
                        cached_flags[i] = true;
                        slots.push(Some(Ok((record.stats, None))));
                    }
                    None => {
                        missing.push(i);
                        slots.push(None);
                    }
                }
                canonicals.push(canonical);
            }
            Err(e) => {
                // The configuration itself is invalid: the cell can
                // never be cached, and simulating would fail the
                // same way. Fail it now without touching the store.
                canonicals.push(format!("<unresolved config: {e}>"));
                slots.push(Some(Err(e)));
            }
        }
    }

    // Build phase: only the groups that still have missing cells,
    // each from its first missing cell.
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        })
        .min(missing.len().max(1));
    let (firsts, group_of) = input_groups(sims, &missing);
    let artifacts = fanout(firsts.len(), threads, |g| sims[firsts[g]].build_artifact());

    // Simulate the missing cells across workers while the calling
    // thread delivers outcomes in deterministic cell order; a
    // reorder slot buffers cells that finish early.
    let store_error: Mutex<Option<String>> = Mutex::new(None);
    let mut report = SweepReport {
        results: Vec::with_capacity(n),
        cached: cached_flags.iter().filter(|&&c| c).count(),
        simulated: 0,
        failed: 0,
        store_error: None,
    };
    let (tx, rx) = std::sync::mpsc::channel::<(usize, CellRun)>();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let cells = &cells;
        let canonicals = &canonicals;
        let missing = &missing;
        let artifacts = &artifacts;
        let group_of = &group_of;
        let next = &next;
        let store_error = &store_error;
        for _ in 0..threads.min(missing.len()) {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= missing.len() {
                    break;
                }
                let i = missing[k];
                let outcome = artifacts[group_of[k]]
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|artifact| run_cell(&sims[i], artifact, observe));
                if let (Some(store), Ok((stats, _))) = (store, &outcome) {
                    let record = StoredResult {
                        canonical: canonicals[i].clone(),
                        cell: cells[i].clone(),
                        stats: stats.clone(),
                    };
                    if let Err(e) = store.put(&record) {
                        store_error
                            .lock()
                            .expect("store-error slot")
                            .get_or_insert_with(|| e.to_string());
                    }
                }
                if tx.send((i, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut delivered = 0;
        while delivered < n {
            if slots[delivered].is_none() {
                // Wait for workers; any cell may arrive, only the
                // next-in-order one unblocks delivery.
                let (i, outcome) = rx.recv().expect("workers outlive the channel");
                for &j in &repeats[i] {
                    slots[j] = Some(outcome.clone());
                }
                slots[i] = Some(outcome);
                continue;
            }
            let cell = cells[delivered].clone();
            let result = match slots[delivered].take().expect("slot filled") {
                Ok((stats, obs)) => {
                    if !cached_flags[delivered] {
                        report.simulated += 1;
                    }
                    Ok(SweepResult { cell, stats, obs })
                }
                Err(error) => {
                    report.failed += 1;
                    Err(SweepCellError {
                        canonical: canonicals[delivered].clone(),
                        cell,
                        error,
                    })
                }
            };
            let outcome = CellOutcome {
                index: delivered,
                canonical: canonicals[delivered].clone(),
                digest: cell_digest(&canonicals[delivered]),
                cached: cached_flags[delivered],
                result,
            };
            on_cell(&outcome);
            report.results.push(outcome.result);
            delivered += 1;
        }
    });
    report.store_error = store_error.into_inner().expect("store-error slot");
    Ok(report)
}

/// Runs one cell over its shared artifact, observing at `observe` when
/// given. Statistics are identical either way; only the summary is
/// extra.
fn run_cell(
    sim: &Sim,
    artifact: &BuiltArtifact,
    observe: Option<ObsConfig>,
) -> Result<(SystemStats, Option<ObsSummary>), SimError> {
    let (stats, report) = sim.run_probed_on(artifact, observe)?;
    Ok((stats, report.map(|r| r.summary())))
}

/// Mixes the template seed with the cell's input coordinates (workload
/// and core count). Cells differing only in prefetcher or partial mode
/// share a seed — and therefore the generated input — while different
/// inputs decorrelate; nothing depends on scheduling.
fn cell_seed(base: u64, workload: &str, cores: u32) -> u64 {
    let h = fnv1a(workload.as_bytes());
    SplitMix64::new(base ^ h ^ u64::from(cores)).next_u64()
}

/// Groups the `members` of `sims` by the input they build (see
/// [`Sim::same_input`]). Returns each group's first member and, per
/// member, its group.
fn input_groups(sims: &[Sim], members: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut firsts: Vec<usize> = Vec::new();
    let group_of = members
        .iter()
        .map(|&i| {
            firsts
                .iter()
                .position(|&f| sims[f].same_input(&sims[i]))
                .unwrap_or_else(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
        })
        .collect();
    (firsts, group_of)
}

/// Runs `f(0..n)` on up to `threads` scoped workers; results come back
/// in index order.
fn fanout<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("fanout slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("fanout slot")
                .expect("worker filled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sim::BuildError;
    use imp_workloads::Scale;

    /// The canonical input of `sweep`'s cell `i`.
    fn canonical(sweep: &Sweep, i: usize) -> String {
        sweep.sims()[i].canonical_input().unwrap()
    }

    #[test]
    fn cells_enumerate_the_cross_product_in_order() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .workloads(["spmv", "pagerank"])
            .cores([16, 64])
            .prefetchers(["stream", "imp"]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].workload, "spmv");
        assert_eq!(cells[0].cores, 16);
        assert_eq!(cells[0].prefetcher.name, "stream");
        assert_eq!(cells[1].prefetcher.name, "imp");
        assert_eq!(cells[2].cores, 64);
        assert_eq!(cells[4].workload, "pagerank");
        // Seeds are reproducible, shared across prefetcher-only
        // differences (same generated input), distinct across inputs.
        let again = sweep.cells();
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.seed, b.seed);
        }
        assert_eq!(cells[0].seed, cells[1].seed, "stream vs imp: same input");
        assert_ne!(cells[0].seed, cells[2].seed, "16 vs 64 cores: new input");
        assert_ne!(cells[0].seed, cells[4].seed, "spmv vs pagerank: new input");
    }

    #[test]
    fn depth_axis_multiplies_the_prefetcher_axis_and_shares_inputs() {
        let sweep = Sweep::from(Sim::workload("hashjoin").scale(Scale::Tiny))
            .prefetchers(["imp", "hybrid"])
            .depths([1, 2, 3]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        // Depth varies fastest within a prefetcher.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.prefetcher.name, ["imp", "hybrid"][i / 3]);
            assert_eq!(
                cell.prefetcher.params.get("depth").and_then(|v| v.as_u64()),
                Some(1 + (i % 3) as u64)
            );
        }
        // The depth knob never changes the generated input.
        assert!(cells.iter().all(|c| c.seed == cells[0].seed));
        // Distinct depths are distinct cells to the result store.
        assert_ne!(canonical(&sweep, 0), canonical(&sweep, 1));
        // Without the axis, specs pass through untouched.
        let plain = Sweep::from(Sim::workload("hashjoin").scale(Scale::Tiny))
            .prefetchers(["imp"])
            .cells();
        assert!(!plain[0].prefetcher.params.contains_key("depth"));
    }

    #[test]
    fn manager_axis_extends_the_grid_and_none_means_unmanaged() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream", "imp"])
            .managers(["none", "static", "throttle:accuracy_floor=0.4"]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        // Managers vary within a prefetcher, in the order given.
        assert_eq!(cells[0].prefetcher.name, "stream");
        assert_eq!(cells[0].manager, None);
        assert_eq!(cells[1].manager.as_ref().unwrap().name, "static");
        assert_eq!(cells[2].manager.as_ref().unwrap().name, "throttle");
        assert_eq!(cells[3].prefetcher.name, "imp");
        // The manager never changes the generated input.
        assert_eq!(cells[0].seed, cells[2].seed);
        // An unmanaged cell's canonical is byte-identical to a
        // managerless sweep's; a managed cell's differs.
        let plain = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers(["stream"]);
        assert_eq!(canonical(&sweep, 0), canonical(&plain, 0));
        assert_ne!(canonical(&sweep, 1), canonical(&sweep, 0));
        assert_ne!(canonical(&sweep, 1), canonical(&sweep, 2));
    }

    #[test]
    fn manager_axis_overrides_a_managed_template() {
        // A template with a manager: the "none" axis value clears it.
        let base = Sim::workload("spmv").scale(Scale::Tiny).manager("static");
        let swept = Sweep::from(base.clone()).managers(["none"]).cells();
        assert_eq!(swept[0].manager, None);
        // And with no axis, every cell inherits the template's manager.
        let inherited = Sweep::from(base).cells();
        assert_eq!(inherited[0].manager.as_ref().unwrap().name, "static");
    }

    #[test]
    fn tlb_axes_extend_the_grid_and_share_inputs() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["imp"])
            .page_sizes([4096, 1 << 16])
            .tlb_ways([2, 4])
            .translation_policies([
                TranslationPolicy::DropOnMiss,
                TranslationPolicy::NonBlockingWalk,
            ]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert!(
            cells.iter().all(|c| !c.tlb.ideal),
            "sweeping a TLB knob enables the dTLB"
        );
        assert_eq!(cells[0].tlb.page_bytes, 4096);
        assert_eq!(cells[0].tlb.ways, 2);
        assert_eq!(cells[0].tlb.policy, TranslationPolicy::DropOnMiss);
        assert_eq!(cells[7].tlb.page_bytes, 1 << 16);
        assert_eq!(cells[7].tlb.ways, 4);
        assert_eq!(cells[7].tlb.policy, TranslationPolicy::NonBlockingWalk);
        assert_eq!(
            cells[0].seed, cells[7].seed,
            "TLB axes never change the generated input"
        );
        // Without TLB axes, cells keep the template's (ideal) TLB.
        assert!(Sweep::from(Sim::workload("spmv")).cells()[0].tlb.ideal);
    }

    #[test]
    fn l2_and_prefetch_axes_extend_the_translation_subgrid() {
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .l2_tlbs([(0, 0), (128, 8)])
            .tlb_prefetches([false, true])
            .walk_models([WalkModel::Flat, WalkModel::Cached]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert!(
            cells.iter().all(|c| !c.tlb.ideal),
            "sweeping any translation knob enables the dTLB"
        );
        // Walk model varies fastest, then tlb_prefetch, then L2.
        assert_eq!(cells[0].tlb.walk_model, WalkModel::Flat);
        assert_eq!(cells[1].tlb.walk_model, WalkModel::Cached);
        assert!(!cells[0].tlb.tlb_prefetch);
        assert!(cells[2].tlb.tlb_prefetch);
        assert!(!cells[0].tlb.has_l2());
        assert!(cells[4].tlb.has_l2());
        assert_eq!((cells[7].tlb.l2_sets, cells[7].tlb.l2_ways), (128, 8));
        assert!(cells[7].tlb.tlb_prefetch);
        assert_eq!(cells[7].tlb.walk_model, WalkModel::Cached);
        // One generated input across the whole translation sub-grid.
        assert!(cells.iter().all(|c| c.seed == cells[0].seed));
    }

    #[test]
    fn page_policy_axis_extends_the_grid_and_shares_inputs() {
        let sweep = Sweep::from(
            Sim::workload("pagerank")
                .scale(Scale::Tiny)
                .prefetcher("imp"),
        )
        .page_policies([vec![], vec![("pr0".to_string(), PagePolicy::Huge2M)]]);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 2);
        assert!(
            cells.iter().all(|c| !c.tlb.ideal),
            "sweeping placement enables the dTLB"
        );
        assert!(cells[0].page_policy.is_empty());
        assert_eq!(cells[1].page_policy[0].0, "pr0");
        assert_eq!(
            cells[0].seed, cells[1].seed,
            "placement never changes the generated input"
        );
        let results = sweep.run().unwrap();
        assert_eq!(results[0].stats.tlb_huge_total(), Default::default());
        assert!(results[1].stats.tlb_huge_total().lookups() > 0);
        // Without the axis, cells inherit the template's overrides.
        let inherited =
            Sweep::from(Sim::workload("pagerank").page_policy("pr0", PagePolicy::Huge2M)).cells();
        assert_eq!(inherited[0].page_policy.len(), 1);
    }

    #[test]
    fn fanout_preserves_index_order() {
        let out = fanout(17, 4, |i| i * 3);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(fanout(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fanout(3, 1, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn errors_propagate_from_cells() {
        let err = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream", "no-such-prefetcher"])
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::System(BuildError::Registry(_))),
            "{err:?}"
        );
    }

    #[test]
    fn run_partial_keeps_the_rest_of_the_grid() {
        // One bad axis value (an unregistered prefetcher) fails only its
        // own cells; `run()` on the same grid discards everything.
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers([
            "stream",
            "no-such-prefetcher",
            "imp",
        ]);
        let outcomes = sweep.run_partial().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok(), "stream cell survives");
        assert!(outcomes[2].is_ok(), "imp cell survives");
        let err = outcomes[1].as_ref().unwrap_err();
        assert!(
            matches!(err.error, SimError::System(BuildError::Registry(_))),
            "{err}"
        );
        assert_eq!(err.cell.prefetcher.name, "no-such-prefetcher");
        assert!(sweep.run().is_err(), "run() still fails the whole grid");
    }

    #[test]
    fn store_serves_warm_cells_without_simulating() {
        let dir = std::env::temp_dir().join(format!("imp-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep =
            Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers(["none", "imp"]);
        let store = ResultStore::open(&dir).unwrap();

        let cold = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((cold.cached, cold.simulated, cold.failed), (0, 2, 0));
        assert!(cold.store_error.is_none());

        // Warm: zero cells simulated, outcomes stream in cell order
        // with cached=true, and the grid is bit-identical.
        let mut seen = Vec::new();
        let warm = sweep
            .run_with(&store, |o| seen.push((o.index, o.cached)))
            .unwrap();
        assert_eq!((warm.cached, warm.simulated, warm.failed), (2, 0, 0));
        assert_eq!(seen, vec![(0, true), (1, true)]);
        for (c, w) in cold.results.iter().zip(&warm.results) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c.cell, w.cell);
            assert_eq!(c.stats, w.stats, "warm run must be bit-identical");
        }

        // The store path is bit-identical to the storeless one.
        let plain = sweep.run().unwrap();
        for (s, p) in warm.results.iter().zip(&plain) {
            assert_eq!(s.as_ref().unwrap().stats, p.stats);
        }

        // Extending one axis simulates only the new cells.
        let extended = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["none", "imp", "stream"]);
        let r = extended.run_with(&store, |_| {}).unwrap();
        assert_eq!((r.cached, r.simulated, r.failed), (2, 1, 0));

        // `.store(path)` routes run()/run_partial() the same way.
        let routed = extended.clone().store(&dir).run().unwrap();
        for (a, b) in routed.iter().zip(r.results.iter()) {
            assert_eq!(a.stats, b.as_ref().unwrap().stats);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_cells_simulate_once() {
        let dir = std::env::temp_dir().join(format!("imp-sweep-repeat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let sweep =
            Sweep::from(Sim::workload("spmv").scale(Scale::Tiny)).prefetchers(["imp", "imp"]);
        let mut seen = Vec::new();
        let report = sweep
            .run_with(&store, |o| seen.push((o.index, o.cached)))
            .unwrap();
        assert_eq!((report.cached, report.simulated, report.failed), (0, 2, 0));
        assert_eq!(seen, vec![(0, false), (1, false)]);
        let (a, b) = (
            report.results[0].as_ref().unwrap(),
            report.results[1].as_ref().unwrap(),
        );
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.stats, b.stats);
        assert_eq!(store.counters().puts, 1, "one simulation, one record");
        assert_eq!(store.len().unwrap(), 1);

        // Warm, the repeat is served with its first cell.
        let warm = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((warm.cached, warm.simulated, warm.failed), (2, 0, 0));
        assert_eq!(warm.results[1].as_ref().unwrap().stats, a.stats);
        let c = store.counters();
        assert_eq!((c.misses, c.hits), (1, 1), "one lookup per pass");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_cells_carry_their_canonical_input_and_are_not_stored() {
        let dir = std::env::temp_dir().join(format!("imp-sweep-badcell-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream", "no-such-prefetcher"]);
        let report = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((report.cached, report.simulated, report.failed), (0, 1, 1));
        let err = report.results[1].as_ref().unwrap_err();
        assert!(
            err.canonical.contains("no-such-prefetcher"),
            "canonical names the failing axis value: {}",
            err.canonical
        );
        assert!(format!("{err}").contains(&err.canonical));
        assert_eq!(store.len().unwrap(), 1, "only the good cell persisted");
        // The storeless path attaches the canonical too.
        let outcomes = sweep.run_partial().unwrap();
        assert!(outcomes[1]
            .as_ref()
            .unwrap_err()
            .canonical
            .contains("no-such-prefetcher"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unresolvable_templates_fail_their_cells_instead_of_defaulting() {
        // A core count the mesh cannot take fails the cell at that
        // count, on every run path, and stores nothing.
        let sweep = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny).cores(48));
        assert_eq!(sweep.run().unwrap_err(), SimError::InvalidCores(48));
        let outcomes = sweep.run_partial().unwrap();
        assert_eq!(outcomes.len(), 1);
        let err = outcomes[0].as_ref().unwrap_err();
        assert_eq!(err.error, SimError::InvalidCores(48));
        assert_eq!(err.cell.cores, 48);
        let dir = std::env::temp_dir().join(format!("imp-sweep-48-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let report = sweep.run_with(&store, |_| {}).unwrap();
        assert_eq!((report.cached, report.simulated, report.failed), (0, 0, 1));
        assert_eq!(store.len().unwrap(), 0, "nothing stored");
        std::fs::remove_dir_all(&dir).ok();

        // A template that fails to resolve keeps its own knobs in the
        // cell it reports.
        let sweep = Sweep::from(
            Sim::workload("spmv")
                .scale(Scale::Tiny)
                .manager("static")
                .page_size(3000),
        );
        let outcomes = sweep.run_partial().unwrap();
        let err = outcomes[0].as_ref().unwrap_err();
        assert!(
            matches!(err.error, SimError::System(BuildError::Vm(_))),
            "{err}"
        );
        for cell in [&err.cell, &sweep.cells()[0]] {
            assert_eq!(cell.manager.as_ref().unwrap().name, "static");
            assert_eq!(cell.tlb.page_bytes, 3000);
        }
    }

    #[test]
    fn malformed_axis_specs_fail_the_whole_grid_even_partially() {
        let err = Sweep::from(Sim::workload("spmv").scale(Scale::Tiny))
            .prefetchers(["stream:distance"])
            .run_partial()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidSpec(_)), "{err:?}");
    }
}
