//! The fluent simulation facade: one chained expression from a workload
//! name to a finished [`SystemStats`].
//!
//! [`Sim`] replaces the hand-assembled `by_name → build → SystemConfig →
//! System::new → run` pipeline every experiment used to repeat:
//!
//! ```
//! use imp_experiments::Sim;
//! use imp_common::config::PartialMode;
//! use imp_workloads::Scale;
//!
//! let stats = Sim::workload("spmv")
//!     .scale(Scale::Tiny)
//!     .cores(16)
//!     .prefetcher("imp")
//!     .partial(PartialMode::NocAndDram)
//!     .run()
//!     .unwrap();
//! assert!(stats.runtime > 0);
//! ```
//!
//! Prefetchers are named registry specs (see `imp_prefetch::registry`),
//! so a custom prefetcher registered from *outside* the simulator crates
//! runs through `Sim` exactly like the stock ones.

use imp_adapt::ManagerError;
use imp_common::config::{
    CoreModel, DramModelKind, MemMode, PagePolicy, PartialMode, PrefetcherSpec, TlbConfig,
    TranslationPolicy, WalkModel,
};
use imp_common::{ImpConfig, MemConfig, MemRegion, SystemConfig, SystemStats};
use imp_obs::{ObsConfig, ObsReport, Probe};
use imp_sim::{BuildError, RegistryError, RunError, System, VmConfigError};
use imp_store::CellKey;
use imp_trace::BarrierMismatch;
use imp_workloads::{by_name, BuiltArtifact, ChainSpec, Scale, WorkloadError, WorkloadParams};
use std::fmt;

/// Why a [`Sim`] (or a `Sweep` cell) could not run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// No workload generator has this name.
    UnknownWorkload(String),
    /// The mesh requires a positive perfect-square core count.
    InvalidCores(u32),
    /// A prefetcher spec string passed to the builder did not parse.
    InvalidSpec(String),
    /// The prefetcher spec did not resolve or rejected a parameter.
    Prefetcher(RegistryError),
    /// The manager spec named an unknown policy or rejected a
    /// parameter.
    Manager(ManagerError),
    /// The workload could not build (a `trace:<path>` replay failed;
    /// the message is the underlying `WorkloadError`).
    Build(String),
    /// The program's cores disagree on barrier counts.
    Barrier(BarrierMismatch),
    /// The TLB configuration is invalid (zero sets/ways, bad page
    /// size).
    Tlb(VmConfigError),
    /// A `page_policy` override names a region (or glob) no workload
    /// region matches.
    UnknownRegion(String),
    /// The program (or artifact) was generated for a different core
    /// count than the configuration describes.
    CoreMismatch {
        /// Cores the program was generated for.
        program: usize,
        /// Cores the configuration describes.
        config: u32,
    },
    /// The result store could not be opened or read (a genuine I/O
    /// failure — a missing or corrupt record is a cache miss, never an
    /// error).
    Store(String),
    /// The simulator cannot model the configured machine (too many
    /// tiles, or an ACKwise pointer count wider than it stores).
    System(BuildError),
    /// The run exceeded its event budget (see [`Sim::event_budget`])
    /// before finishing; a runaway sweep cell fails this way instead of
    /// aborting the process. Carries the statistics collected up to the
    /// cutoff.
    EventBudgetExceeded {
        /// Events processed when the budget ran out.
        events: u64,
        /// Partial statistics at the cutoff.
        stats: Box<SystemStats>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownWorkload(name) => {
                // A `chain:` name that resolved to nothing is a malformed
                // spec — re-derive the grammar error so the caller sees
                // *why* instead of a generic name list.
                match name.strip_prefix("chain:").map(ChainSpec::parse) {
                    Some(Err(why)) => write!(f, "bad chain workload {name:?}: {why}"),
                    _ => write!(
                        f,
                        "unknown workload {name:?}; try pagerank, tri_count, graph500, \
                         sgd, lsh, spmv, symgs, dense, gather2, hashjoin, skiplist, \
                         btree, chain:<spec>, or trace:<path>"
                    ),
                }
            }
            SimError::InvalidCores(n) => {
                write!(f, "core count {n} is not a positive perfect square")
            }
            SimError::InvalidSpec(e) => write!(f, "{e}"),
            SimError::Prefetcher(e) => write!(f, "{e}"),
            SimError::Manager(e) => write!(f, "{e}"),
            SimError::Build(e) => write!(f, "{e}"),
            SimError::Barrier(e) => write!(f, "{e}"),
            SimError::Tlb(e) => write!(f, "{e}"),
            SimError::UnknownRegion(name) => write!(
                f,
                "page-policy override {name:?} matches no workload region \
                 (region names are recorded in the built artifact; a \
                 trailing '*' globs a family)"
            ),
            SimError::CoreMismatch { program, config } => write!(
                f,
                "program was generated for {program} cores but the configuration has {config}"
            ),
            SimError::Store(e) => write!(f, "result store failure: {e}"),
            SimError::System(e) => write!(f, "{e}"),
            SimError::EventBudgetExceeded { events, .. } => {
                write!(f, "simulation exceeded event budget ({events} events)")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<RegistryError> for SimError {
    fn from(e: RegistryError) -> Self {
        SimError::Prefetcher(e)
    }
}

impl From<BuildError> for SimError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Registry(e) => SimError::Prefetcher(e),
            BuildError::Barrier(e) => SimError::Barrier(e),
            BuildError::CoreCountMismatch { program, config } => {
                SimError::CoreMismatch { program, config }
            }
            BuildError::Vm(e) => SimError::Tlb(e),
            BuildError::Manager(e) => SimError::Manager(e),
            e @ (BuildError::TooManyTiles { .. } | BuildError::AckwiseTooWide { .. }) => {
                SimError::System(e)
            }
        }
    }
}

/// A fluent builder for one simulation run.
///
/// Defaults mirror the paper's 16-core Baseline at `Scale::Small`; every
/// knob is a chainable setter. `run()` validates, builds the workload,
/// resolves the prefetcher against the plugin registry, and executes.
#[derive(Clone, Debug)]
pub struct Sim {
    workload: String,
    /// The requested core count, which [`Sim::config`] validates.
    pub(crate) cores: u32,
    scale: Scale,
    seed: u64,
    sw_prefetch: Option<u64>,
    /// The configuration this builder runs, which every timing setter
    /// writes. [`Sim::config`] rescales it when `cores` differs from
    /// `cfg.cores`.
    pub(crate) cfg: SystemConfig,
    page_policies: Vec<(String, PagePolicy)>,
    spec_error: Option<String>,
    event_budget: Option<u64>,
    observe: Option<ObsConfig>,
}

impl Sim {
    /// Starts a builder for the named workload (the paper's seven
    /// kernels plus the `dense` control).
    pub fn workload(name: impl Into<String>) -> Self {
        Sim::from_config(name, SystemConfig::paper_default(16))
    }

    /// Starts a builder from a fully explicit [`SystemConfig`] — the
    /// escape hatch for experiments that tweak fields the fluent surface
    /// does not cover (cache geometry, ROB size, DRAM timings, ...).
    ///
    /// The config seeds the builder's state; fluent setters still apply
    /// on top of it, so a `Sweep` can vary axes of a `from_config` base.
    /// Changing [`Sim::cores`] afterwards replaces the whole memory
    /// system, `cfg.mem` — cache geometry, hop and DRAM latencies, DRAM
    /// bandwidth, memory controllers — with
    /// [`SystemConfig::paper_default`]'s for the new count, keeping only
    /// its DRAM model. The other fields carry over: prefetcher,
    /// manager, partial mode, memory mode, core model, IMP parameters,
    /// TLB, ROB size and PerfPref lead. Setting the count back restores
    /// `cfg` as given.
    pub fn from_config(workload: impl Into<String>, cfg: SystemConfig) -> Self {
        Sim {
            workload: workload.into(),
            cores: cfg.cores,
            scale: Scale::Small,
            seed: 42,
            sw_prefetch: None,
            cfg,
            page_policies: Vec::new(),
            spec_error: None,
            event_budget: None,
            observe: None,
        }
    }

    /// Core/tile count (a positive perfect square: 16, 64, 256, ...).
    #[must_use]
    pub fn cores(mut self, n: u32) -> Self {
        self.cores = n;
        self
    }

    /// Input scale preset.
    #[must_use]
    pub fn scale(mut self, s: Scale) -> Self {
        self.scale = s;
        self
    }

    /// Workload-generation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Prefetcher registry spec: a [`PrefetcherSpec`] or a string such
    /// as `"imp"`, `"stream:distance=8"` or
    /// `"hybrid:components=stream+imp"`.
    ///
    /// A malformed spec string does not panic; it surfaces as
    /// [`SimError::InvalidSpec`] when the builder runs.
    #[must_use]
    pub fn prefetcher<S>(mut self, spec: S) -> Self
    where
        S: TryInto<PrefetcherSpec>,
        S::Error: fmt::Display,
    {
        match spec.try_into() {
            Ok(s) => self.cfg.prefetcher = s,
            Err(e) => self.spec_error = Some(e.to_string()),
        }
        self
    }

    /// Adaptive-management policy spec (see `imp_adapt::Manager`):
    /// `"static"`, `"throttle:accuracy_floor=0.4"`, or
    /// `"tree:spec=(acc<0.5?mask:pass)"`, each optionally with an
    /// `epoch=<cycles>` parameter. `None` (the default) runs unmanaged
    /// and keeps the canonical input byte-identical to pre-manager
    /// builds.
    ///
    /// A malformed spec string does not panic; it surfaces as
    /// [`SimError::InvalidSpec`] when the builder runs. A well-formed
    /// spec naming an unknown policy or a bad parameter surfaces as
    /// [`SimError::Manager`].
    #[must_use]
    pub fn manager<S>(mut self, spec: S) -> Self
    where
        S: TryInto<PrefetcherSpec>,
        S::Error: fmt::Display,
    {
        match spec.try_into() {
            Ok(s) => self.cfg.manager = Some(s),
            Err(e) => self.spec_error = Some(e.to_string()),
        }
        self
    }

    /// Caps the number of simulator events a run may process before it
    /// fails with [`SimError::EventBudgetExceeded`] (partial statistics
    /// attached). Inherited by every cell of a `Sweep` built from this
    /// base, so one runaway configuration fails its cell instead of
    /// aborting the whole sweep.
    ///
    /// A *guard rail*, not a timing knob: it is deliberately excluded
    /// from [`Sim::canonical_input`] — a run that finishes within
    /// budget is bit-identical at any budget value.
    #[must_use]
    pub fn event_budget(mut self, events: u64) -> Self {
        self.event_budget = Some(events);
        self
    }

    /// Partial cacheline accessing mode (Section 4).
    #[must_use]
    pub fn partial(mut self, mode: PartialMode) -> Self {
        self.cfg.partial = mode;
        self
    }

    /// Memory-subsystem mode (Realistic / PerfectPrefetch / Ideal).
    #[must_use]
    pub fn mem_mode(mut self, mode: MemMode) -> Self {
        self.cfg.mem_mode = mode;
        self
    }

    /// Core microarchitecture model.
    #[must_use]
    pub fn core_model(mut self, model: CoreModel) -> Self {
        self.cfg.core_model = model;
        self
    }

    /// DRAM timing model.
    #[must_use]
    pub fn dram(mut self, model: DramModelKind) -> Self {
        self.cfg.mem.dram = model;
        self
    }

    /// Replaces the whole dTLB / page-walk configuration (see
    /// [`TlbConfig`]); the default is ideal, zero-cost translation.
    #[must_use]
    pub fn tlb(mut self, cfg: TlbConfig) -> Self {
        self.cfg.tlb = cfg;
        self
    }

    /// Translation page size in bytes. Upgrades an ideal TLB to the
    /// finite [`TlbConfig::finite`] defaults first, so
    /// `.page_size(65536)` alone enables a realistic dTLB at 64 KB
    /// pages.
    #[must_use]
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_page_bytes(bytes);
        self
    }

    /// dTLB associativity (ways per set). Upgrades an ideal TLB to
    /// finite defaults first.
    #[must_use]
    pub fn tlb_ways(mut self, ways: u32) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_ways(ways);
        self
    }

    /// How prefetch addresses are translated on a dTLB miss. Upgrades
    /// an ideal TLB to finite defaults first.
    #[must_use]
    pub fn translation_policy(mut self, policy: TranslationPolicy) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_policy(policy);
        self
    }

    /// Puts a shared L2 TLB of `sets` x `ways` entries behind the
    /// per-core dTLBs (`l2_tlb(0, 0)` removes it). Upgrades an ideal
    /// TLB to finite defaults first.
    #[must_use]
    pub fn l2_tlb(mut self, sets: u32, ways: u32) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_l2(sets, ways);
        self
    }

    /// Translation prefetching: let IMP's value-derived predictions
    /// prefill L2-TLB entries for their target pages, so indirect
    /// prefetches survive `DropOnMiss`. Upgrades an ideal TLB to finite
    /// defaults first.
    #[must_use]
    pub fn tlb_prefetch(mut self, on: bool) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_tlb_prefetch(on);
        self
    }

    /// How page walks are timed: a flat per-level latency, or PTE reads
    /// routed through the shared cache hierarchy (`WalkModel::Cached`).
    /// Upgrades an ideal TLB to finite defaults first.
    #[must_use]
    pub fn walk_model(mut self, model: WalkModel) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_walk_model(model);
        self
    }

    /// Geometry of the per-core huge-page sub-TLB (the split dTLB's
    /// 2 MB structure). Upgrades an ideal TLB to finite defaults first.
    #[must_use]
    pub fn huge_tlb(mut self, sets: u32, ways: u32) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self().with_huge_tlb(sets, ways);
        self
    }

    /// Overrides the page-size policy of the workload region named
    /// `region` — the simulated `madvise(MADV_HUGEPAGE)`. The name must
    /// match a region the workload's generator recorded (`"adj"`,
    /// `"pr0"`, ...); a trailing `*` globs a family (`"bits*"`), and
    /// `"*"` alone re-policies every region. Later overrides win over
    /// earlier ones; regions without an override keep the policy they
    /// declared. Upgrades an ideal TLB to finite defaults first (an
    /// ideal TLB never translates, so placement would be meaningless).
    #[must_use]
    pub fn page_policy(mut self, region: impl Into<String>, policy: PagePolicy) -> Self {
        self.cfg.tlb = self.cfg.tlb.finite_or_self();
        self.page_policies.push((region.into(), policy));
        self
    }

    /// Replaces the whole page-policy override list (what a `Sweep`'s
    /// `page_policies` axis applies per cell). A non-empty list
    /// upgrades an ideal TLB to finite defaults, like
    /// [`Sim::page_policy`].
    #[must_use]
    pub fn page_policies<I, S>(mut self, overrides: I) -> Self
    where
        I: IntoIterator<Item = (S, PagePolicy)>,
        S: Into<String>,
    {
        self.page_policies = overrides
            .into_iter()
            .map(|(name, policy)| (name.into(), policy))
            .collect();
        if !self.page_policies.is_empty() {
            self.cfg.tlb = self.cfg.tlb.finite_or_self();
        }
        self
    }

    /// The page-policy override list in effect.
    pub fn page_policy_overrides(&self) -> &[(String, PagePolicy)] {
        &self.page_policies
    }

    /// Sets what [`Sim::run_observed`] records: histograms and the
    /// timeliness ledger always, plus an event trace and/or epoch
    /// sampler per the config. Like [`Sim::event_budget`], observation
    /// is a lens, not a timing knob — it is deliberately excluded from
    /// [`Sim::canonical_input`], and an observed run's statistics are
    /// bit-identical to an unobserved one. Plain [`Sim::run`] ignores
    /// this setting entirely.
    #[must_use]
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.observe = Some(cfg);
        self
    }

    /// Inserts Mowry-style software prefetches `distance` elements ahead
    /// (the paper's *Software Prefetching* configuration).
    #[must_use]
    pub fn software_prefetch(mut self, distance: u64) -> Self {
        self.sw_prefetch = Some(distance);
        self
    }

    /// Adjusts the IMP hardware parameter block (Table 2) in place.
    #[must_use]
    pub fn tune_imp(mut self, f: impl FnOnce(&mut ImpConfig)) -> Self {
        f(&mut self.cfg.imp);
        self
    }

    /// The workload name this builder targets.
    pub fn workload_name(&self) -> &str {
        &self.workload
    }

    /// Returns a copy targeting a different workload.
    #[must_use]
    pub fn with_workload(mut self, name: impl Into<String>) -> Self {
        self.workload = name.into();
        self
    }

    /// The configured workload-generation seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The canonical input string the result store digests: a stable
    /// rendering of *everything* that determines this run's statistics
    /// — the workload name, generation seed, input scale,
    /// software-prefetch distance, the full resolved
    /// [`SystemConfig::canonical`] timing surface (cores, prefetcher
    /// spec, partial mode, TLB, cache/NoC/DRAM geometry, IMP knobs),
    /// and the page-policy overrides in application order.
    ///
    /// Two builders with equal canonical inputs produce bit-identical
    /// [`imp_common::SystemStats`]; any knob difference changes the
    /// string. New timing-relevant fields must be *appended* to
    /// [`SystemConfig::canonical`] — changing the rendering of existing
    /// fields silently invalidates every stored digest, which is safe
    /// but wasteful.
    ///
    /// # Errors
    ///
    /// The configuration must resolve ([`Sim::config`]); an invalid
    /// grid cell has no canonical form.
    pub fn canonical_input(&self) -> Result<String, SimError> {
        let cfg = self.config()?;
        let mut s = format!(
            "w:{};seed:{};scale:{:?};swpf:{:?};{}",
            self.workload,
            self.seed,
            self.scale,
            self.sw_prefetch,
            cfg.canonical()
        );
        for (region, policy) in &self.page_policies {
            s.push_str(&format!(";pp:{}={}", region, policy.canonical()));
        }
        Ok(s)
    }

    /// Resolves the builder into the [`SystemConfig`] it will run.
    pub fn config(&self) -> Result<SystemConfig, SimError> {
        if let Some(e) = &self.spec_error {
            return Err(SimError::InvalidSpec(e.clone()));
        }
        let side = (self.cores as f64).sqrt() as u32;
        if self.cores == 0 || side * side != self.cores {
            return Err(SimError::InvalidCores(self.cores));
        }
        let cfg = if self.cores == self.cfg.cores {
            self.cfg.clone()
        } else {
            // A changed core count takes the paper-default memory system
            // for the new count, keeping the DRAM model (see
            // `Sim::from_config`).
            let fresh = SystemConfig::paper_default(self.cores).mem;
            SystemConfig {
                cores: self.cores,
                mem: MemConfig {
                    dram: self.cfg.mem.dram,
                    ..fresh
                },
                ..self.cfg.clone()
            }
        };
        // Surface invalid TLB geometry (zero sets, bad page sizes) at
        // config-resolve time instead of deep inside the system build.
        imp_sim::validate_tlb_config(&cfg.tlb).map_err(SimError::Tlb)?;
        Ok(cfg)
    }

    /// Resolves this builder's page-policy overrides against the
    /// workload's recorded regions into the huge `(base, bytes)`
    /// extents the simulator places on huge pages.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegion`] when an override matches no region.
    fn resolve_huge_regions(&self, regions: &[MemRegion]) -> Result<Vec<(u64, u64)>, SimError> {
        for (pattern, _) in &self.page_policies {
            if !regions.iter().any(|r| glob_match(pattern, &r.name)) {
                return Err(SimError::UnknownRegion(pattern.clone()));
            }
        }
        Ok(regions
            .iter()
            .filter_map(|r| {
                let policy = self
                    .page_policies
                    .iter()
                    .rev()
                    .find(|(pattern, _)| glob_match(pattern, &r.name))
                    .map_or(r.policy, |&(_, policy)| policy);
                policy.is_huge_for(r.bytes).then_some((r.base, r.bytes))
            })
            .collect())
    }

    /// Builds the workload into a shareable [`BuiltArtifact`] without
    /// running it.
    ///
    /// The artifact is what [`Sim::run_on`] consumes; building once and
    /// fanning many configurations over it (`Sweep` does this
    /// automatically) skips the generator on every run but the first,
    /// with bit-identical statistics.
    ///
    /// # Errors
    ///
    /// Unknown workload names, invalid core counts, and failed
    /// `trace:<path>` replays surface as the matching [`SimError`].
    pub fn build_artifact(&self) -> Result<BuiltArtifact, SimError> {
        let cfg = self.config()?;
        let workload = by_name(&self.workload)
            .ok_or_else(|| SimError::UnknownWorkload(self.workload.clone()))?;
        let mut params = WorkloadParams::new(cfg.cores as usize, self.scale);
        params.seed = self.seed;
        if let Some(d) = self.sw_prefetch {
            params = params.with_software_prefetch(d);
        }
        let built = workload.try_build(&params).map_err(|e| match e {
            // Keep the typed twin of the run_on-path error; the
            // remaining replay failures (I/O, corruption) wrap
            // non-cloneable sources and stay stringly.
            WorkloadError::CoreCountMismatch { trace, requested } => SimError::CoreMismatch {
                program: trace,
                config: requested as u32,
            },
            other => SimError::Build(other.to_string()),
        })?;
        Ok(BuiltArtifact::from(built))
    }

    /// Whether `other` builds the same input as this builder: the same
    /// workload, core count, scale, seed and software-prefetch distance,
    /// which is all [`Sim::build_artifact`] reads.
    pub(crate) fn same_input(&self, other: &Sim) -> bool {
        self.workload == other.workload
            && self.cores == other.cores
            && self.scale == other.scale
            && self.seed == other.seed
            && self.sw_prefetch == other.sw_prefetch
    }

    /// Runs this builder's configuration over an already-built artifact.
    ///
    /// The artifact's streams and memory image are shared into the
    /// system (`Arc` clones), so this is the cheap path for running many
    /// prefetcher/partial-mode configurations against one generated
    /// input. Statistics are bit-identical to [`Sim::run`] with the same
    /// knobs — the simulator only ever reads the artifact.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreMismatch`] when the artifact was
    /// generated for a different core count than this builder targets,
    /// plus the usual configuration errors.
    pub fn run_on(&self, artifact: &BuiltArtifact) -> Result<SystemStats, SimError> {
        Ok(self.run_probed_on(artifact, None)?.0)
    }

    /// Runs over `artifact`, observing at `observe` when given; the
    /// report is `Some` exactly when `observe` is.
    pub(crate) fn run_probed_on(
        &self,
        artifact: &BuiltArtifact,
        observe: Option<ObsConfig>,
    ) -> Result<(SystemStats, Option<ObsReport>), SimError> {
        let cfg = self.config()?;
        let huge = self.resolve_huge_regions(artifact.regions())?;
        let mut system = System::try_new_placed(
            cfg,
            artifact.program().clone(),
            artifact.mem().clone(),
            &huge,
        )?;
        if let Some(obs) = observe {
            system.attach_probe(Probe::new(&obs));
        }
        if let Some(budget) = self.event_budget {
            system.set_event_budget(budget);
        }
        let stats = system.try_run().map_err(|e| match e {
            RunError::EventBudgetExceeded { events, stats } => {
                SimError::EventBudgetExceeded { events, stats }
            }
            // Barrier balance is validated at build time, so a drained
            // queue with unfinished cores is a simulator bug — keep the
            // historical panic rather than inventing an error users
            // would have to handle.
            RunError::Deadlock { unfinished, cores } => panic!(
                "event queue drained with {unfinished} of {cores} cores unfinished (deadlock)"
            ),
        })?;
        Ok((stats, system.obs_report()))
    }

    /// Builds the workload and runs the simulation.
    pub fn run(&self) -> Result<SystemStats, SimError> {
        self.run_on(&self.build_artifact()?)
    }

    /// [`Sim::run_on`] with observation: attaches a probe at the level
    /// set by [`Sim::observe`] (defaulting to [`ObsConfig::metrics`]
    /// when unset) and returns the harvested [`ObsReport`] next to the
    /// statistics. The statistics are bit-identical to the unobserved
    /// run.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sim::run_on`].
    pub fn run_observed_on(
        &self,
        artifact: &BuiltArtifact,
    ) -> Result<(SystemStats, ObsReport), SimError> {
        let obs = self.observe.unwrap_or_else(ObsConfig::metrics);
        let (stats, report) = self.run_probed_on(artifact, Some(obs))?;
        Ok((stats, report.expect("an attached probe reports")))
    }

    /// Builds the workload and runs with observation; see
    /// [`Sim::run_observed_on`].
    pub fn run_observed(&self) -> Result<(SystemStats, ObsReport), SimError> {
        self.run_observed_on(&self.build_artifact()?)
    }
}

/// A cell's grid coordinates, read from the builder without resolving
/// it: the requested core count, and the configured prefetcher, manager,
/// partial mode and TLB, even when the configuration does not resolve.
impl From<&Sim> for CellKey {
    fn from(sim: &Sim) -> Self {
        CellKey {
            workload: sim.workload.clone(),
            cores: sim.cores,
            prefetcher: sim.cfg.prefetcher.clone(),
            manager: sim.cfg.manager.clone(),
            partial: sim.cfg.partial,
            tlb: sim.cfg.tlb,
            page_policy: sim.page_policies.clone(),
            seed: sim.seed,
        }
    }
}

/// Matches a page-policy override pattern against a region name: exact
/// match, or prefix match when the pattern ends in `*` (so `"*"` alone
/// matches everything).
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_config() {
        let cfg = Sim::workload("spmv")
            .cores(64)
            .prefetcher("imp")
            .partial(PartialMode::NocOnly)
            .core_model(CoreModel::OutOfOrder)
            .tune_imp(|i| i.max_prefetch_distance = 8)
            .config()
            .unwrap();
        assert_eq!(cfg.cores, 64);
        assert_eq!(cfg.prefetcher.name, "imp");
        assert_eq!(cfg.partial, PartialMode::NocOnly);
        assert_eq!(cfg.core_model, CoreModel::OutOfOrder);
        assert_eq!(cfg.imp.max_prefetch_distance, 8);
    }

    #[test]
    fn event_budget_fails_typed_with_partial_stats() {
        let base = Sim::workload("spmv").scale(Scale::Tiny).cores(16);
        match base.clone().event_budget(100).run() {
            Err(SimError::EventBudgetExceeded { events, stats }) => {
                assert_eq!(events, 100);
                // The cutoff snapshot is a real (if partial) stats
                // object, not a placeholder.
                assert_eq!(stats.cores.len(), 16);
            }
            other => panic!("expected EventBudgetExceeded, got {other:?}"),
        }
        // The budget is a guard rail, not a timing knob: it stays out
        // of the canonical input (store digests must not change).
        assert_eq!(
            base.canonical_input().unwrap(),
            base.clone().event_budget(100).canonical_input().unwrap()
        );
        // A run that fits the budget is unaffected by it.
        let free = base.run().unwrap();
        let capped = base.clone().event_budget(u64::MAX).run().unwrap();
        assert_eq!(free, capped);
    }

    #[test]
    fn invalid_inputs_surface_as_errors() {
        assert_eq!(
            Sim::workload("spmv").cores(48).run().unwrap_err(),
            SimError::InvalidCores(48)
        );
        assert_eq!(
            Sim::workload("not-a-kernel").cores(16).run().unwrap_err(),
            SimError::UnknownWorkload("not-a-kernel".to_string())
        );
        match Sim::workload("spmv")
            .scale(Scale::Tiny)
            .prefetcher("definitely-unregistered")
            .run()
        {
            Err(SimError::Prefetcher(RegistryError::UnknownPrefetcher { name, .. })) => {
                assert_eq!(name, "definitely-unregistered");
            }
            other => panic!("expected unknown-prefetcher error, got {other:?}"),
        }
    }

    #[test]
    fn tlb_knobs_upgrade_an_ideal_base_and_apply() {
        let cfg = Sim::workload("spmv")
            .page_size(1 << 16)
            .tlb_ways(8)
            .translation_policy(TranslationPolicy::NonBlockingWalk)
            .config()
            .unwrap();
        assert!(!cfg.tlb.ideal, "setting a TLB knob enables the dTLB");
        assert_eq!(cfg.tlb.page_bytes, 1 << 16);
        assert_eq!(cfg.tlb.ways, 8);
        assert_eq!(cfg.tlb.policy, TranslationPolicy::NonBlockingWalk);
        // Untouched builders stay ideal (bit-identical to the seed).
        assert!(Sim::workload("spmv").config().unwrap().tlb.ideal);
        // Invalid page sizes surface as a typed error, not a panic.
        let err = Sim::workload("spmv")
            .scale(Scale::Tiny)
            .page_size(3000)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Tlb(_)), "{err:?}");
    }

    #[test]
    fn l2_tlb_knobs_upgrade_and_surface_typed_errors() {
        let cfg = Sim::workload("spmv")
            .l2_tlb(128, 8)
            .tlb_prefetch(true)
            .walk_model(WalkModel::Cached)
            .config()
            .unwrap();
        assert!(!cfg.tlb.ideal, "setting an L2 knob enables the dTLB");
        assert_eq!((cfg.tlb.l2_sets, cfg.tlb.l2_ways), (128, 8));
        assert!(cfg.tlb.tlb_prefetch);
        assert_eq!(cfg.tlb.walk_model, WalkModel::Cached);
        // A half-configured L2 TLB surfaces as a typed error, not a
        // panic.
        let err = Sim::workload("spmv")
            .scale(Scale::Tiny)
            .l2_tlb(128, 0)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Tlb(_)), "{err:?}");
    }

    #[test]
    fn zero_latency_walks_reach_the_probe() {
        // Free PTE reads still walk: with no L2 TLB every dTLB miss is
        // one walk the probe records, whatever the per-level latency.
        for latency in [25, 0] {
            let (stats, report) = Sim::workload("pagerank")
                .scale(Scale::Tiny)
                .cores(4)
                .prefetcher("imp")
                .tlb(TlbConfig::finite().with_walk_latency(latency))
                .observe(ObsConfig::metrics())
                .run_observed()
                .unwrap();
            let walks = stats.tlb_total().misses;
            assert!(walks > 0, "the finite dTLB must miss");
            assert_eq!(report.walk_latency.count(), walks, "latency {latency}");
        }
    }

    #[test]
    fn zero_latency_l2_hits_reach_the_probe() {
        // A free L2 probe costs what a dTLB hit does, yet every L2 hit
        // is still reported as one.
        let (stats, report) = Sim::workload("pagerank")
            .scale(Scale::Tiny)
            .cores(4)
            .prefetcher("imp")
            .tlb(
                TlbConfig::finite()
                    .with_ways(1)
                    .with_l2(64, 4)
                    .with_l2_latency(0),
            )
            .observe(ObsConfig::metrics().with_trace(1 << 16))
            .run_observed()
            .unwrap();
        let trace = report.trace.expect("tracing was on");
        assert_eq!(trace.pushes(), trace.len() as u64, "no event dropped");
        let l2_hits = trace
            .iter()
            .filter(|e| e.kind == imp_obs::EventKind::L2TlbHit)
            .count() as u64;
        assert!(stats.tlb_l2.hits > 0, "the 1-way dTLB must spill to the L2");
        assert_eq!(l2_hits, stats.tlb_l2.hits);
    }

    #[test]
    fn page_policy_overrides_resolve_and_validate() {
        let base = Sim::workload("pagerank")
            .scale(Scale::Tiny)
            .prefetcher("imp")
            .tlb(TlbConfig::finite());
        let all4k = base.clone().run().unwrap();
        assert_eq!(all4k.tlb_huge_total(), Default::default());

        // Moving an indirect-target array to huge pages routes its
        // translations through the huge sub-TLB (own ledger, walks one
        // level shallower) while the other arrays stay on base pages.
        // At Tiny a promoted array's huge page covers pagerank's whole
        // footprint, so the mixed case runs spmv on 256 B base pages
        // (128 KiB huge pages), where promoting `x` leaves the matrix
        // on base pages.
        let spmv = Sim::workload("spmv")
            .scale(Scale::Tiny)
            .prefetcher("imp")
            .page_size(256);
        let spmv_base = spmv.clone().run().unwrap();
        let mixed = spmv.page_policy("x", PagePolicy::Huge2M).run().unwrap();
        let (b, h) = (mixed.tlb_base_total(), mixed.tlb_huge_total());
        assert!(
            b.lookups() > 0 && h.lookups() > 0,
            "both page sizes translate: base {b:?}, huge {h:?}"
        );
        assert_eq!(b.walk_levels, 5 * b.misses, "256 B walks are 5 levels");
        assert_eq!(h.walk_levels, 4 * h.misses, "128 KiB walks are 4 levels");
        assert!(
            mixed.tlb_total().misses < spmv_base.tlb_total().misses,
            "huge pages shrink the miss stream: {} vs {}",
            mixed.tlb_total().misses,
            spmv_base.tlb_total().misses
        );

        // Globs re-policy families; later overrides win.
        let all_huge = base
            .clone()
            .page_policy("*", PagePolicy::Huge2M)
            .run()
            .unwrap();
        assert_eq!(
            all_huge.tlb_base_total().lookups(),
            0,
            "every demand access translates huge"
        );
        let back_to_base = base
            .clone()
            .page_policy("*", PagePolicy::Huge2M)
            .page_policy("*", PagePolicy::Base4K)
            .run()
            .unwrap();
        assert_eq!(back_to_base, all4k, "later override wins, bit-identically");

        // Auto thresholds resolve per region size.
        let auto = base
            .clone()
            .page_policy(
                "*",
                PagePolicy::Auto {
                    threshold_bytes: u64::MAX,
                },
            )
            .run()
            .unwrap();
        assert_eq!(auto, all4k, "an unsatisfied Auto threshold is all-4K");

        // Unknown names are typed errors, not silent no-ops.
        assert_eq!(
            base.clone()
                .page_policy("no-such-array", PagePolicy::Huge2M)
                .run()
                .unwrap_err(),
            SimError::UnknownRegion("no-such-array".to_string())
        );

        // A policy override on an ideal TLB upgrades it to finite.
        assert!(
            !Sim::workload("pagerank")
                .page_policy("pr0", PagePolicy::Huge2M)
                .config()
                .unwrap()
                .tlb
                .ideal
        );
    }

    #[test]
    fn canonical_input_tracks_every_knob() {
        let base = Sim::workload("spmv").scale(Scale::Tiny);
        let c = base.canonical_input().unwrap();
        assert_eq!(base.canonical_input().unwrap(), c, "deterministic");
        for variant in [
            base.clone().with_workload("pagerank"),
            base.clone().seed(7),
            base.clone().scale(Scale::Small),
            base.clone().software_prefetch(16),
            base.clone().cores(64),
            base.clone().prefetcher("imp"),
            base.clone().manager("static"),
            base.clone().manager("throttle:accuracy_floor=0.4"),
            base.clone().partial(PartialMode::NocAndDram),
            base.clone().tlb(TlbConfig::finite()),
            base.clone().page_policy("ind", PagePolicy::Huge2M),
            base.clone().tune_imp(|i| i.max_prefetch_distance = 8),
        ] {
            assert_ne!(
                variant.canonical_input().unwrap(),
                c,
                "knob must change the canonical: {variant:?}"
            );
        }
        // An unresolvable configuration has no canonical form.
        assert!(base.clone().cores(48).canonical_input().is_err());
    }

    #[test]
    fn runs_match_the_manual_pipeline() {
        let fluent = Sim::workload("spmv")
            .scale(Scale::Tiny)
            .prefetcher("imp")
            .run()
            .unwrap();
        let manual = {
            let params = WorkloadParams::new(16, Scale::Tiny);
            let built = by_name("spmv").unwrap().build(&params);
            let cfg = SystemConfig::paper_default(16).with_prefetcher("imp");
            System::new(cfg, built.program, built.mem).run()
        };
        assert_eq!(fluent.runtime, manual.runtime);
        assert_eq!(fluent.traffic, manual.traffic);
    }

    #[test]
    fn malformed_spec_string_surfaces_as_error_not_panic() {
        match Sim::workload("spmv").prefetcher("stream:distance").run() {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("key=value"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn manager_spec_errors_surface_not_panic() {
        // A syntactically bad spec string fails like any other spec.
        match Sim::workload("spmv")
            .manager("throttle:accuracy_floor")
            .run()
        {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("key=value"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        // A well-formed spec naming an unknown policy fails at build.
        match Sim::workload("spmv")
            .scale(Scale::Tiny)
            .manager("nope")
            .run()
        {
            Err(SimError::Manager(e)) => assert!(e.to_string().contains("nope"), "{e}"),
            other => panic!("expected Manager, got {other:?}"),
        }
        // And so does a known policy with an out-of-range parameter.
        match Sim::workload("spmv")
            .scale(Scale::Tiny)
            .manager("throttle:accuracy_floor=1.5")
            .run()
        {
            Err(SimError::Manager(e)) => assert!(e.to_string().contains("floor"), "{e}"),
            other => panic!("expected Manager, got {other:?}"),
        }
    }

    #[test]
    fn from_config_seeds_state_and_fluent_setters_still_apply() {
        let mut cfg = SystemConfig::paper_default(16).with_prefetcher("ghb");
        cfg.mem.hop_latency = 5; // a field the fluent surface can't reach
        cfg.rob_entries = 64;

        // Untouched: the explicit config round-trips exactly.
        assert_eq!(Sim::from_config("spmv", cfg.clone()).config().unwrap(), cfg);

        // Fluent setters apply on top (so Sweep axes are never ignored).
        let got = Sim::from_config("spmv", cfg.clone())
            .prefetcher("imp")
            .partial(PartialMode::NocOnly)
            .config()
            .unwrap();
        assert_eq!(got.prefetcher.name, "imp");
        assert_eq!(got.partial, PartialMode::NocOnly);
        assert_eq!(got.mem.hop_latency, 5, "non-fluent fields preserved");

        // Changing cores takes the paper-default memory system for the
        // new count and carries every other field.
        let scaled = Sim::from_config("spmv", cfg).cores(64).config().unwrap();
        assert_eq!(scaled.cores, 64);
        assert_eq!(
            scaled.mem.mem_controllers, 8,
            "geometry rebuilt for 64 cores"
        );
        assert_eq!(scaled.rob_entries, 64, "ROB size carried over");
        assert_eq!(scaled.prefetcher.name, "ghb");
        assert_eq!(scaled.mem.hop_latency, 2, "hop latency not carried");
    }
}
