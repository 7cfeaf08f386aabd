//! System configuration (Table 1) and IMP configuration (Table 2).

use crate::Cycle;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Core microarchitecture model (Section 6.3.1 compares these).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CoreModel {
    /// In-order, single-issue (the paper's default core, Table 1).
    #[default]
    InOrder,
    /// Modest out-of-order core with a 32-entry reorder buffer, mimicking
    /// a Silvermont-class many-core design (Section 6.3.1).
    OutOfOrder,
}

/// One prefetcher parameter value.
///
/// Parameters are interpreted by the factory that builds the prefetcher;
/// unknown keys are rejected at build time so typos surface early.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Boolean flag.
    Bool(bool),
    /// Integer knob (table sizes, distances, seeds).
    Int(i64),
    /// Floating-point knob.
    Float(f64),
    /// Free-form string (e.g. a component list for combinators).
    Str(String),
}

impl ParamValue {
    /// The value as an unsigned integer, if it is a non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            ParamValue::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a `u32`, if it is a non-negative `Int` in range.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The value as a `usize`, if it is a non-negative `Int` in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a float (`Float` or lossless `Int`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            ParamValue::Float(v) => Some(v),
            ParamValue::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            ParamValue::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::Int(i64::from(v))
    }
}

impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v:?}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// An open, serialization-friendly prefetcher selection: a registry name
/// plus factory-specific parameters.
///
/// [`SystemConfig`] carries one: the simulator resolves the name
/// against `imp-prefetch`'s plugin registry, so downstream users can
/// attach prefetchers the core crates have never heard of. The paper's
/// stock configurations are `none`, `stream` (the *Baseline*), `imp`
/// and `ghb`.
///
/// The textual form is `name` or `name:key=value,key=value`, and
/// round-trips through [`fmt::Display`] / [`FromStr`]:
///
/// ```
/// use imp_common::config::PrefetcherSpec;
///
/// let spec: PrefetcherSpec = "stream:distance=8,verbose=true".parse().unwrap();
/// assert_eq!(spec.name, "stream");
/// assert_eq!(spec.get("distance").and_then(|v| v.as_u32()), Some(8));
/// assert_eq!(spec.to_string().parse::<PrefetcherSpec>().unwrap(), spec);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PrefetcherSpec {
    /// Registry key of the factory that builds this prefetcher.
    pub name: String,
    /// Factory-specific parameters (sorted for stable rendering).
    pub params: BTreeMap<String, ParamValue>,
}

impl PrefetcherSpec {
    /// A spec with no parameters.
    pub fn new(name: impl Into<String>) -> Self {
        PrefetcherSpec {
            name: name.into(),
            params: BTreeMap::new(),
        }
    }

    /// Returns a copy with `key` set to `value`.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Looks a parameter up.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.params.get(key)
    }

    /// Fails on the first parameter, in key order, not in `accepted`.
    pub fn reject_unknown_params(&self, accepted: &[&str]) -> Result<(), ParamError> {
        match self.params.keys().find(|k| !accepted.contains(&k.as_str())) {
            Some(key) => {
                Err(self.param_error(key, format!("accepted parameters: {}", accepted.join(", "))))
            }
            None => Ok(()),
        }
    }

    /// Parameter `key` as a `u64`, or `default` when it is unset.
    pub fn param_u64(&self, key: &str, default: u64) -> Result<u64, ParamError> {
        self.param(key, default, ParamValue::as_u64, "a non-negative integer")
    }

    /// Parameter `key` as a `u32`, or `default` when it is unset.
    pub fn param_u32(&self, key: &str, default: u32) -> Result<u32, ParamError> {
        self.param(key, default, ParamValue::as_u32, "a non-negative integer")
    }

    /// Parameter `key` as a `usize`, or `default` when it is unset.
    pub fn param_usize(&self, key: &str, default: usize) -> Result<usize, ParamError> {
        self.param(key, default, ParamValue::as_usize, "a non-negative integer")
    }

    /// Parameter `key` as an `f64`, or `default` when it is unset.
    pub fn param_f64(&self, key: &str, default: f64) -> Result<f64, ParamError> {
        self.param(key, default, ParamValue::as_f64, "a number")
    }

    /// Parameter `key` as a `bool`, or `default` when it is unset.
    pub fn param_bool(&self, key: &str, default: bool) -> Result<bool, ParamError> {
        self.param(key, default, ParamValue::as_bool, "a boolean")
    }

    /// Parameter `key` as a string, or `None` when it is unset.
    pub fn param_str(&self, key: &str) -> Result<Option<&str>, ParamError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| self.param_error(key, format!("expected a string, got {v}"))),
        }
    }

    fn param<T>(
        &self,
        key: &str,
        default: T,
        read: fn(&ParamValue) -> Option<T>,
        expected: &str,
    ) -> Result<T, ParamError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => read(v)
                .ok_or_else(|| self.param_error(key, format!("expected {expected}, got {v}"))),
        }
    }

    fn param_error(&self, key: &str, reason: String) -> ParamError {
        ParamError {
            spec: self.name.clone(),
            param: key.to_string(),
            reason,
        }
    }
}

/// A parameter that [`PrefetcherSpec`]'s readers rejected. The prefetcher
/// registry and the manager each turn it into their own `InvalidParam`
/// error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError {
    /// The name of the spec that carried the parameter.
    pub spec: String,
    /// The offending key.
    pub param: String,
    /// Human-readable explanation.
    pub reason: String,
}

impl Default for PrefetcherSpec {
    /// The paper's Baseline (stream prefetcher).
    fn default() -> Self {
        PrefetcherSpec::new("stream")
    }
}

impl TryFrom<&str> for PrefetcherSpec {
    type Error = SpecParseError;

    fn try_from(text: &str) -> Result<Self, SpecParseError> {
        text.parse()
    }
}

/// Error from parsing a [`PrefetcherSpec`] string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecParseError {
    /// What was wrong with the input.
    pub reason: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefetcher spec: {}", self.reason)
    }
}

impl std::error::Error for SpecParseError {}

impl FromStr for PrefetcherSpec {
    type Err = SpecParseError;

    fn from_str(text: &str) -> Result<Self, SpecParseError> {
        let (name, rest) = match text.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (text, None),
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(SpecParseError {
                reason: format!("empty name in {text:?}"),
            });
        }
        let mut spec = PrefetcherSpec::new(name);
        if let Some(rest) = rest {
            for pair in rest.split(',').filter(|p| !p.trim().is_empty()) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(SpecParseError {
                        reason: format!("expected key=value, got {pair:?}"),
                    });
                };
                let v = v.trim();
                let value = if let Ok(b) = v.parse::<bool>() {
                    ParamValue::Bool(b)
                } else if let Ok(i) = v.parse::<i64>() {
                    ParamValue::Int(i)
                } else if let Ok(x) = v.parse::<f64>() {
                    ParamValue::Float(x)
                } else {
                    ParamValue::Str(v.to_string())
                };
                spec.params.insert(k.trim().to_string(), value);
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for PrefetcherSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { ':' } else { ',' })?;
        }
        Ok(())
    }
}

/// Execution mode of the memory subsystem.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemMode {
    /// Full model: caches, coherence, NoC, DRAM (Baseline/IMP/etc.).
    #[default]
    Realistic,
    /// *Perfect Prefetching*: every access hits in L1, but each would-be
    /// miss still pushes a full line transfer through the NoC and DRAM;
    /// a core may run at most `perfpref_lead` cycles ahead of its oldest
    /// incomplete fetch. Finite-bandwidth upper bound for any prefetcher.
    PerfectPrefetch,
    /// *Ideal*: every access hits in L1 and generates no traffic.
    Ideal,
}

/// Partial cacheline accessing mode (Section 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartialMode {
    /// Always move full cache lines.
    #[default]
    Off,
    /// Partial lines between L1 and L2 (NoC) only; DRAM still moves
    /// full lines.
    NocOnly,
    /// Partial lines in the NoC and 32-byte-granule accesses to DRAM.
    NocAndDram,
}

/// DRAM timing model selection (Table 1 lists both).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DramModelKind {
    /// Simple model: fixed 100 ns latency, 10 GB/s per memory controller.
    /// The paper reports this is within 5% of DRAMSim and uses it for the
    /// partial-accessing experiments.
    #[default]
    Simple,
    /// Banked DDR3-like model (10-10-10-24, 8 banks per rank, 1 rank per
    /// controller), standing in for DRAMSim.
    Ddr3,
}

/// How prefetch addresses are translated when the dTLB misses.
///
/// IMP's indirect prefetches are computed from *data values*, so they
/// land on arbitrary virtual pages; unlike demand accesses (which always
/// stall for a page-table walk), hardware has a choice for prefetches.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TranslationPolicy {
    /// Drop any prefetch whose page is not TLB-resident (the
    /// conservative hardware default: prefetchers never trigger walks).
    #[default]
    DropOnMiss,
    /// Trigger a non-blocking page-table walk for the prefetch's page
    /// and issue the prefetch once the walk completes. The core never
    /// stalls, but walk cycles are charged and the TLB is filled
    /// (possibly evicting entries demand accesses wanted).
    NonBlockingWalk,
    /// Prefetches translate for free and never touch the TLB; demand
    /// accesses still pay full translation costs.
    Ideal,
}

impl TranslationPolicy {
    /// Short stable name (sweep axes, table headers).
    pub const fn name(self) -> &'static str {
        match self {
            TranslationPolicy::DropOnMiss => "drop",
            TranslationPolicy::NonBlockingWalk => "walk",
            TranslationPolicy::Ideal => "ideal",
        }
    }
}

/// Per-region page-size policy: how a workload memory region is backed
/// by translation pages.
///
/// Real deployments mix page sizes per region (`madvise(MADV_HUGEPAGE)`
/// on the hot arrays); this is the per-allocation knob workload
/// generators record in their [`MemRegion`] list and `Sim::page_policy`
/// overrides at run time. The default, [`PagePolicy::Base4K`], backs
/// the region with base pages (`TlbConfig::page_bytes`, 4 KB by
/// default) and is bit-identical to the simulator before per-region
/// placement existed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PagePolicy {
    /// Base translation pages (`TlbConfig::page_bytes`; 4 KB default).
    #[default]
    Base4K,
    /// Huge pages one radix level up
    /// ([`TlbConfig::huge_page_bytes`]; 2 MB for a 4 KB base).
    Huge2M,
    /// Huge pages when the region is at least `threshold_bytes` long,
    /// base pages otherwise — the transparent-huge-page heuristic.
    Auto {
        /// Minimum region size (bytes) that promotes to huge pages.
        threshold_bytes: u64,
    },
}

impl PagePolicy {
    /// Canonical form for digesting: stable across runs, distinct
    /// across distinct policies (an `Auto` threshold is part of the
    /// identity, unlike [`PagePolicy::name`]).
    pub fn canonical(self) -> String {
        match self {
            PagePolicy::Auto { threshold_bytes } => format!("auto:{threshold_bytes}"),
            other => other.name().to_string(),
        }
    }

    /// Short stable name (sweep axes, table headers).
    pub const fn name(self) -> &'static str {
        match self {
            PagePolicy::Base4K => "4k",
            PagePolicy::Huge2M => "2m",
            PagePolicy::Auto { .. } => "auto",
        }
    }

    /// Whether a region of `region_bytes` resolves to huge pages under
    /// this policy.
    pub const fn is_huge_for(self, region_bytes: u64) -> bool {
        match self {
            PagePolicy::Base4K => false,
            PagePolicy::Huge2M => true,
            PagePolicy::Auto { threshold_bytes } => region_bytes >= threshold_bytes,
        }
    }
}

/// One named workload memory region and the page-size policy it
/// declared: the unit of per-region placement.
///
/// Generators record one `MemRegion` per allocated array; the list
/// travels inside the `Built` artifact (and its `.imptrace`
/// serialization) so replays preserve placement, and `Sim::page_policy`
/// overrides resolve against the names here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemRegion {
    /// Allocation name (e.g. `"pr0"`, `"adj"`).
    pub name: String,
    /// First byte address.
    pub base: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Page-size policy the generator declared for this region.
    pub policy: PagePolicy,
}

impl MemRegion {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes
    }
}

/// How page-table walks are timed.
///
/// A walk is a pointer chase through the radix table: one page-table
/// entry read per level, each dependent on the previous. The model
/// decides what each of those PTE reads costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WalkModel {
    /// Every level costs a flat `TlbConfig::walk_latency` cycles and
    /// generates no memory traffic (beyond the optional first-order
    /// `walk_dram_traffic` accounting). Bit-identical to the simulator
    /// before walks became first-class memory traffic.
    #[default]
    Flat,
    /// Each PTE read is routed through the memory hierarchy: it crosses
    /// the NoC to the line's home L2 slice, hits there if the
    /// page-table working set is warm, and otherwise fetches the PTE
    /// line from DRAM (filling the L2, contending with demand traffic,
    /// and showing up in cache/NoC/DRAM statistics).
    Cached,
}

impl WalkModel {
    /// Short stable name (sweep axes, table headers).
    pub const fn name(self) -> &'static str {
        match self {
            WalkModel::Flat => "flat",
            WalkModel::Cached => "cached",
        }
    }
}

/// Per-core dTLB and page-walk configuration.
///
/// The default, [`TlbConfig::ideal`], models the seed simulator exactly:
/// every address translates instantly and no translation state exists,
/// so results are bit-identical to a build without the virtual-memory
/// subsystem. [`TlbConfig::finite`] enables a set-associative LRU dTLB
/// per core, backed by a shared radix page table whose walker charges
/// `walk_latency` cycles per radix level.
///
/// The page size here is the *translation* granule and is decoupled from
/// `imp-mem`'s fixed 4 KB functional-memory backing pages — sweeping
/// `page_bytes` changes TLB reach and walk depth, never data contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Ideal translation: infinite, zero-cost (the seed behavior).
    /// When set, every other field is ignored.
    pub ideal: bool,
    /// TLB sets.
    pub sets: u32,
    /// TLB ways per set.
    pub ways: u32,
    /// Translation page size in bytes (a power of two, at least one
    /// cache line).
    pub page_bytes: u64,
    /// Page-walk latency in cycles *per radix level* (a 4 KB page in a
    /// 48-bit space walks 4 levels).
    pub walk_latency: Cycle,
    /// How prefetch addresses are translated.
    pub policy: TranslationPolicy,
    /// Account each walk level as an 8-byte DRAM read in the traffic
    /// statistics (first-order walk traffic; only meaningful under
    /// [`WalkModel::Flat`] — the `Cached` model accounts real traffic).
    pub walk_dram_traffic: bool,
    /// Sets of the shared second-level TLB (0 disables the L2 TLB; when
    /// enabled, `l2_sets` and `l2_ways` must both be non-zero).
    pub l2_sets: u32,
    /// Ways per set of the shared second-level TLB.
    pub l2_ways: u32,
    /// Cycles a translation stalls when it misses the per-core dTLB but
    /// hits the shared L2 TLB.
    pub l2_latency: Cycle,
    /// Translation prefetching: let the prefetcher prefill L2-TLB
    /// entries for the pages its value-derived (indirect) predictions
    /// target, so later prefetches to those pages survive `DropOnMiss`.
    pub tlb_prefetch: bool,
    /// How page-table walks are timed (flat per-level latency, or PTE
    /// reads routed through the shared cache hierarchy).
    pub walk_model: WalkModel,
    /// Sets of the per-core huge-page sub-TLB (the x86-style split
    /// dTLB's second structure, caching [`TlbConfig::huge_page_bytes`]
    /// translations). Only consulted when a run places regions on huge
    /// pages; must be non-zero together with `huge_ways` then.
    pub huge_sets: u32,
    /// Ways per set of the per-core huge-page sub-TLB.
    pub huge_ways: u32,
}

impl TlbConfig {
    /// Ideal (infinite, zero-cost) translation — the default, and
    /// bit-identical to the simulator before the `imp-vm` subsystem
    /// existed.
    pub const fn ideal() -> Self {
        TlbConfig {
            ideal: true,
            ..Self::finite()
        }
    }

    /// A finite dTLB at typical first-level sizing: 64 entries (16 sets
    /// x 4 ways), 4 KB pages, 25 cycles per walk level, prefetches
    /// dropped on TLB miss, no L2 TLB, flat walk timing — bit-identical
    /// to the configuration before the shared L2 TLB existed.
    pub const fn finite() -> Self {
        TlbConfig {
            ideal: false,
            sets: 16,
            ways: 4,
            page_bytes: 4096,
            walk_latency: 25,
            policy: TranslationPolicy::DropOnMiss,
            walk_dram_traffic: false,
            l2_sets: 0,
            l2_ways: 0,
            l2_latency: 8,
            tlb_prefetch: false,
            walk_model: WalkModel::Flat,
            // Skylake-style 2 MB dTLB sizing: 32 entries, 4-way.
            huge_sets: 8,
            huge_ways: 4,
        }
    }

    /// Total TLB entries.
    pub const fn entries(&self) -> u32 {
        self.sets * self.ways
    }

    /// Address bytes covered by a full TLB (its *reach*).
    pub const fn reach_bytes(&self) -> u64 {
        self.entries() as u64 * self.page_bytes
    }

    /// Returns a copy with the way count replaced.
    #[must_use]
    pub const fn with_ways(mut self, ways: u32) -> Self {
        self.ways = ways;
        self
    }

    /// Returns a copy with the page size replaced.
    #[must_use]
    pub const fn with_page_bytes(mut self, bytes: u64) -> Self {
        self.page_bytes = bytes;
        self
    }

    /// Returns a copy with the prefetch-translation policy replaced.
    #[must_use]
    pub const fn with_policy(mut self, policy: TranslationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with the per-level walk latency replaced.
    #[must_use]
    pub const fn with_walk_latency(mut self, cycles: Cycle) -> Self {
        self.walk_latency = cycles;
        self
    }

    /// Returns a copy with a shared L2 TLB of `sets` x `ways` entries
    /// behind the per-core dTLBs (`with_l2(0, 0)` disables it again).
    #[must_use]
    pub const fn with_l2(mut self, sets: u32, ways: u32) -> Self {
        self.l2_sets = sets;
        self.l2_ways = ways;
        self
    }

    /// Returns a copy with the L2-TLB hit latency replaced.
    #[must_use]
    pub const fn with_l2_latency(mut self, cycles: Cycle) -> Self {
        self.l2_latency = cycles;
        self
    }

    /// Returns a copy with translation prefetching switched on or off.
    #[must_use]
    pub const fn with_tlb_prefetch(mut self, on: bool) -> Self {
        self.tlb_prefetch = on;
        self
    }

    /// Returns a copy with the walk-timing model replaced.
    #[must_use]
    pub const fn with_walk_model(mut self, model: WalkModel) -> Self {
        self.walk_model = model;
        self
    }

    /// Returns a copy with the huge-page sub-TLB geometry replaced.
    #[must_use]
    pub const fn with_huge_tlb(mut self, sets: u32, ways: u32) -> Self {
        self.huge_sets = sets;
        self.huge_ways = ways;
        self
    }

    /// The huge-page size paired with `page_bytes`: one radix level up
    /// (x86-style — 512 base pages, so 2 MB for the default 4 KB base).
    /// A huge leaf therefore sits one level shallower in the page
    /// table, and walks for huge-mapped regions read one fewer
    /// page-table entry.
    pub const fn huge_page_bytes(&self) -> u64 {
        self.page_bytes << 9
    }

    /// Total huge-page sub-TLB entries per core.
    pub const fn huge_entries(&self) -> u32 {
        self.huge_sets * self.huge_ways
    }

    /// Address bytes covered by a full huge-page sub-TLB (its *reach*).
    pub const fn huge_reach_bytes(&self) -> u64 {
        self.huge_entries() as u64 * self.huge_page_bytes()
    }

    /// Whether a shared L2 TLB is configured.
    pub const fn has_l2(&self) -> bool {
        self.l2_sets > 0 || self.l2_ways > 0
    }

    /// Total L2-TLB entries.
    pub const fn l2_entries(&self) -> u32 {
        self.l2_sets * self.l2_ways
    }

    /// Address bytes covered by a full L2 TLB (its *reach*).
    pub const fn l2_reach_bytes(&self) -> u64 {
        self.l2_entries() as u64 * self.page_bytes
    }

    /// This config if it is already finite, otherwise [`TlbConfig::finite`]
    /// defaults — how sweep axes upgrade an ideal base when a TLB knob
    /// is varied.
    #[must_use]
    pub const fn finite_or_self(self) -> Self {
        if self.ideal {
            Self::finite()
        } else {
            self
        }
    }

    /// Canonical form for digesting: every timing-relevant field in a
    /// stable order. Two configs with the same string run identically;
    /// the converse does not hold, since fields that a run never
    /// consults still count (`walk_dram_traffic` under
    /// [`WalkModel::Cached`], `l2_latency` with no L2 TLB, `huge_sets`
    /// and `huge_ways` with no region on huge pages), which only costs a
    /// redundant run. The string is what `imp-store` hashes into a cell
    /// digest, so any new field that changes timing must be appended
    /// here (appending changes the digest, which safely invalidates
    /// cached results).
    pub fn canonical(&self) -> String {
        if self.ideal {
            return "tlb[ideal]".to_string();
        }
        format!(
            "tlb[sets:{},ways:{},page:{},walk:{},policy:{},wtraf:{},\
             l2s:{},l2w:{},l2lat:{},tp:{},wm:{},hs:{},hw:{}]",
            self.sets,
            self.ways,
            self.page_bytes,
            self.walk_latency,
            self.policy.name(),
            self.walk_dram_traffic,
            self.l2_sets,
            self.l2_ways,
            self.l2_latency,
            self.tlb_prefetch,
            self.walk_model.name(),
            self.huge_sets,
            self.huge_ways,
        )
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Cache geometry for one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Access latency in cycles (tag + data).
    pub latency: Cycle,
    /// Number of sectors per line when partial accessing is enabled
    /// (1 means the cache is not sectored).
    pub sectors: u32,
    /// Number of MSHRs (outstanding misses, demand + prefetch).
    pub mshrs: u32,
}

/// Memory-hierarchy configuration derived from Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct MemConfig {
    /// Private L1 data cache (32 KB, 4-way).
    pub l1d: CacheConfig,
    /// Shared L2 slice per tile (2/sqrt(N) MB, 8-way).
    pub l2_slice: CacheConfig,
    /// ACKwise sharer-pointer count: broadcast when sharers exceed this.
    pub ackwise_k: u32,
    /// NoC hop latency in cycles (1 router + 1 link).
    pub hop_latency: Cycle,
    /// Flit width in bytes (64 bits).
    pub flit_bytes: u64,
    /// Number of memory controllers (sqrt(N), diamond placement).
    pub mem_controllers: u32,
    /// DRAM model.
    pub dram: DramModelKind,
    /// Simple-model DRAM latency in cycles (100 ns at 1 GHz).
    pub dram_latency: Cycle,
    /// Simple-model per-controller bandwidth in bytes per cycle
    /// (10 GB/s at 1 GHz = 10 B/cycle).
    pub dram_bytes_per_cycle: f64,
}

/// IMP hardware parameters (Table 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImpConfig {
    /// Prefetch Table entries (16).
    pub pt_entries: usize,
    /// Maximum indirect ways per primary pattern (2).
    pub max_ways: usize,
    /// Maximum indirect levels per way (2).
    pub max_levels: usize,
    /// Maximum indirect prefetch distance (16).
    pub max_prefetch_distance: u32,
    /// Indirect Pattern Detector entries (4).
    pub ipd_entries: usize,
    /// Candidate shift values. `2, 3, 4` are left shifts (coefficients
    /// 4, 8, 16); `-3` is a right shift (coefficient 1/8 for bit vectors).
    pub shifts: Vec<i8>,
    /// BaseAddr array length per IPD entry (4): how many cache misses
    /// after an index access are paired with it.
    pub baseaddr_array_len: usize,
    /// Saturating-counter threshold before indirect prefetching starts.
    pub confidence_threshold: u32,
    /// Maximum value of the confidence counter.
    pub confidence_max: u32,
    /// Stream-table stride confirmations required before the stream is
    /// considered established (and stream prefetching begins).
    pub stream_threshold: u32,
    /// How many lines ahead the stream prefetcher runs once established.
    pub stream_distance: u32,
    /// Initial back-off (in index accesses) after a failed IPD detection;
    /// doubles after each failure (Section 3.2.2).
    pub detect_backoff_initial: u32,
    /// Granularity Predictor: sampled cachelines per pattern (4).
    pub gp_samples: usize,
}

impl ImpConfig {
    /// The paper's default IMP configuration (Table 2).
    pub fn paper_default() -> Self {
        ImpConfig {
            pt_entries: 16,
            max_ways: 2,
            max_levels: 2,
            max_prefetch_distance: 16,
            ipd_entries: 4,
            shifts: vec![2, 3, 4, -3],
            baseaddr_array_len: 4,
            confidence_threshold: 2,
            confidence_max: 8,
            stream_threshold: 2,
            stream_distance: 4,
            detect_backoff_initial: 4,
            gp_samples: 4,
        }
    }
}

impl Default for ImpConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Full system configuration (Table 1 plus run modes).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores / tiles (16, 64 or 256 in the paper).
    pub cores: u32,
    /// Core model.
    pub core_model: CoreModel,
    /// Reorder-buffer entries for the out-of-order core (32).
    pub rob_entries: u32,
    /// Memory subsystem mode.
    pub mem_mode: MemMode,
    /// Prefetcher attached to each L1, resolved against the prefetcher
    /// plugin registry at system-build time.
    pub prefetcher: PrefetcherSpec,
    /// Partial cacheline accessing mode.
    pub partial: PartialMode,
    /// Per-core dTLB and page-walk model (ideal — zero-cost — by
    /// default, which reproduces the pre-`imp-vm` simulator exactly).
    pub tlb: TlbConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// IMP parameters.
    pub imp: ImpConfig,
    /// Lead (in cycles) for the PerfectPrefetch mode.
    pub perfpref_lead: Cycle,
    /// Adaptive prefetcher manager attached to the system, resolved
    /// against the manager policy table at build time (`static`,
    /// `throttle`, `tree`). `None` — the default — runs unmanaged and
    /// keeps the canonical form (and therefore every stored result
    /// digest) identical to pre-manager builds.
    pub manager: Option<PrefetcherSpec>,
}

impl SystemConfig {
    /// The paper's baseline system scaled to `cores` (Table 1 and the
    /// scalability assumptions of Section 5.1): total L2 and total DRAM
    /// bandwidth scale with sqrt(N).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not a positive perfect square (the mesh is
    /// sqrt(N) x sqrt(N)).
    pub fn paper_default(cores: u32) -> Self {
        let side = (cores as f64).sqrt() as u32;
        assert!(
            side * side == cores && cores > 0,
            "cores must be a perfect square"
        );
        // L2 slice: 2/sqrt(N) MB per tile.
        let l2_slice_bytes = 2 * 1024 * 1024 / u64::from(side);
        SystemConfig {
            cores,
            core_model: CoreModel::InOrder,
            rob_entries: 32,
            mem_mode: MemMode::Realistic,
            prefetcher: PrefetcherSpec::default(),
            partial: PartialMode::Off,
            tlb: TlbConfig::ideal(),
            mem: MemConfig {
                l1d: CacheConfig {
                    size_bytes: 32 * 1024,
                    associativity: 4,
                    latency: 1,
                    sectors: crate::L1_SECTORS,
                    mshrs: 64,
                },
                l2_slice: CacheConfig {
                    size_bytes: l2_slice_bytes,
                    associativity: 8,
                    latency: 8,
                    sectors: crate::L2_SECTORS,
                    mshrs: 32,
                },
                ackwise_k: 4,
                hop_latency: 2,
                flit_bytes: 8,
                mem_controllers: side,
                dram: DramModelKind::Simple,
                dram_latency: 100,
                dram_bytes_per_cycle: 10.0,
            },
            imp: ImpConfig::paper_default(),
            perfpref_lead: 4096,
            manager: None,
        }
    }

    /// Mesh side length (sqrt of the core count).
    pub fn mesh_side(&self) -> u32 {
        (self.cores as f64).sqrt() as u32
    }

    /// Convenience: returns a copy with the prefetcher replaced. Accepts
    /// a [`PrefetcherSpec`] or a spec string such as `"imp"` or
    /// `"stream:distance=8"`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec string; use `Sim::prefetcher` (which
    /// surfaces a `SimError`) or [`PrefetcherSpec`'s `FromStr`] when the
    /// string comes from untrusted input.
    #[must_use]
    pub fn with_prefetcher<S>(mut self, p: S) -> Self
    where
        S: TryInto<PrefetcherSpec>,
        S::Error: fmt::Display,
    {
        self.prefetcher = p.try_into().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Convenience: returns a copy with the adaptive manager replaced.
    /// Accepts anything [`with_prefetcher`](Self::with_prefetcher)
    /// does; the spec names a manager policy (`static`, `throttle`,
    /// `tree:spec=...`), validated at system-build time.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec string, like `with_prefetcher`.
    #[must_use]
    pub fn with_manager<S>(mut self, m: S) -> Self
    where
        S: TryInto<PrefetcherSpec>,
        S::Error: fmt::Display,
    {
        self.manager = Some(m.try_into().unwrap_or_else(|e| panic!("{e}")));
        self
    }

    /// Convenience: returns a copy with the partial-accessing mode replaced.
    #[must_use]
    pub fn with_partial(mut self, p: PartialMode) -> Self {
        self.partial = p;
        self
    }

    /// Convenience: returns a copy with the memory mode replaced.
    #[must_use]
    pub fn with_mem_mode(mut self, m: MemMode) -> Self {
        self.mem_mode = m;
        self
    }

    /// Convenience: returns a copy with the core model replaced.
    #[must_use]
    pub fn with_core_model(mut self, m: CoreModel) -> Self {
        self.core_model = m;
        self
    }

    /// Convenience: returns a copy with the TLB configuration replaced.
    #[must_use]
    pub fn with_tlb(mut self, t: TlbConfig) -> Self {
        self.tlb = t;
        self
    }

    /// Canonical form for digesting: every field that can change a
    /// simulation result, rendered in a stable order. This is the
    /// configuration half of the content address `imp-store` files
    /// results under; see [`TlbConfig::canonical`] for the maintenance
    /// contract (timing-relevant fields must appear here).
    pub fn canonical(&self) -> String {
        let m = &self.mem;
        let i = &self.imp;
        let shifts: Vec<String> = i.shifts.iter().map(|s| s.to_string()).collect();
        // The manager suffix is appended only when a manager is set:
        // unmanaged configs keep their historical canonical form, so
        // every pre-manager store digest stays valid.
        let mgr = match &self.manager {
            None => String::new(),
            Some(spec) => format!(";mgr:{spec}"),
        };
        // `line:` and the last `dram:` value are the constant line size
        // and DRAM granule, kept so that digests recorded while both
        // were `MemConfig` fields stay valid.
        format!(
            "cores:{};core:{:?};rob:{};mode:{:?};pf:{};partial:{:?};{};\
             mem[line:{},l1:{}/{}/{}/{}/{},l2:{}/{}/{}/{}/{},ack:{},hop:{},flit:{},\
             mc:{},dram:{:?}/{}/{:?}/{}];\
             imp[pt:{},ways:{},lvls:{},dist:{},ipd:{},shifts:{},ba:{},conf:{}/{},\
             stream:{}/{},backoff:{},gp:{}];lead:{}{}",
            self.cores,
            self.core_model,
            self.rob_entries,
            self.mem_mode,
            self.prefetcher,
            self.partial,
            self.tlb.canonical(),
            crate::LINE_BYTES,
            m.l1d.size_bytes,
            m.l1d.associativity,
            m.l1d.latency,
            m.l1d.sectors,
            m.l1d.mshrs,
            m.l2_slice.size_bytes,
            m.l2_slice.associativity,
            m.l2_slice.latency,
            m.l2_slice.sectors,
            m.l2_slice.mshrs,
            m.ackwise_k,
            m.hop_latency,
            m.flit_bytes,
            m.mem_controllers,
            m.dram,
            m.dram_latency,
            m.dram_bytes_per_cycle,
            crate::L2_SECTOR_BYTES,
            i.pt_entries,
            i.max_ways,
            i.max_levels,
            i.max_prefetch_distance,
            i.ipd_entries,
            shifts.join("/"),
            i.baseaddr_array_len,
            i.confidence_threshold,
            i.confidence_max,
            i.stream_threshold,
            i.stream_distance,
            i.detect_backoff_initial,
            i.gp_samples,
            self.perfpref_lead,
            mgr,
        )
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scaling_assumptions() {
        // Total L2 = 2 * sqrt(N) MB; MCs = sqrt(N).
        for (n, total_l2_mb, mcs) in [(16u32, 8u64, 4u32), (64, 16, 8), (256, 32, 16)] {
            let c = SystemConfig::paper_default(n);
            let total = c.mem.l2_slice.size_bytes * u64::from(n);
            assert_eq!(total, total_l2_mb * 1024 * 1024, "N={n}");
            assert_eq!(c.mem.mem_controllers, mcs, "N={n}");
        }
    }

    #[test]
    fn table1_fixed_parameters() {
        let c = SystemConfig::paper_default(64);
        assert_eq!(crate::LINE_BYTES, 64);
        assert_eq!(c.mem.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.mem.l1d.associativity, 4);
        assert_eq!(c.mem.l2_slice.associativity, 8);
        assert_eq!(c.mem.hop_latency, 2);
        assert_eq!(c.mem.flit_bytes, 8);
        assert_eq!(c.mem.ackwise_k, 4);
        assert_eq!(c.mem.dram_latency, 100);
        assert!((c.mem.dram_bytes_per_cycle - 10.0).abs() < 1e-9);
    }

    #[test]
    fn table2_imp_parameters() {
        let i = ImpConfig::paper_default();
        assert_eq!(i.pt_entries, 16);
        assert_eq!(i.max_ways, 2);
        assert_eq!(i.max_levels, 2);
        assert_eq!(i.max_prefetch_distance, 16);
        assert_eq!(i.ipd_entries, 4);
        assert_eq!(i.shifts, vec![2, 3, 4, -3]);
        assert_eq!(i.baseaddr_array_len, 4);
        assert_eq!(i.gp_samples, 4);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_core_count_rejected() {
        let _ = SystemConfig::paper_default(48);
    }

    #[test]
    fn spec_parses_and_round_trips() {
        let spec: PrefetcherSpec = "imp:distance=8,partial=true,scale=0.5,tag=x"
            .parse()
            .unwrap();
        assert_eq!(spec.name, "imp");
        assert_eq!(spec.get("distance"), Some(&ParamValue::Int(8)));
        assert_eq!(spec.get("partial"), Some(&ParamValue::Bool(true)));
        assert_eq!(spec.get("scale"), Some(&ParamValue::Float(0.5)));
        assert_eq!(spec.get("tag"), Some(&ParamValue::Str("x".to_string())));
        let rendered = spec.to_string();
        assert_eq!(rendered.parse::<PrefetcherSpec>().unwrap(), spec);
        assert_eq!(
            "ghb".parse::<PrefetcherSpec>().unwrap(),
            PrefetcherSpec::new("ghb")
        );
    }

    #[test]
    fn spec_rejects_malformed_text() {
        assert!("".parse::<PrefetcherSpec>().is_err());
        assert!(":a=1".parse::<PrefetcherSpec>().is_err());
        assert!("imp:distance".parse::<PrefetcherSpec>().is_err());
    }

    #[test]
    fn tlb_defaults_are_ideal_and_finite_builders_compose() {
        let cfg = SystemConfig::paper_default(64);
        assert!(cfg.tlb.ideal, "default must reproduce the seed simulator");
        assert_eq!(cfg.tlb, TlbConfig::ideal());

        let t = TlbConfig::finite()
            .with_ways(8)
            .with_page_bytes(64 * 1024)
            .with_policy(TranslationPolicy::NonBlockingWalk)
            .with_walk_latency(10);
        assert!(!t.ideal);
        assert_eq!(t.entries(), 16 * 8);
        assert_eq!(t.reach_bytes(), 128 * 64 * 1024);
        assert_eq!(t.policy, TranslationPolicy::NonBlockingWalk);

        assert_eq!(TlbConfig::ideal().finite_or_self(), TlbConfig::finite());
        assert_eq!(t.finite_or_self(), t);
        assert_eq!(
            SystemConfig::paper_default(16).with_tlb(t).tlb.page_bytes,
            64 * 1024
        );
    }

    #[test]
    fn l2_tlb_and_walk_model_knobs_compose_and_default_off() {
        let f = TlbConfig::finite();
        assert!(!f.has_l2(), "no L2 TLB unless asked for");
        assert!(!f.tlb_prefetch);
        assert_eq!(f.walk_model, WalkModel::Flat);

        let t = TlbConfig::finite()
            .with_l2(128, 8)
            .with_l2_latency(12)
            .with_tlb_prefetch(true)
            .with_walk_model(WalkModel::Cached);
        assert!(t.has_l2());
        assert_eq!(t.l2_entries(), 1024);
        assert_eq!(t.l2_reach_bytes(), 1024 * 4096);
        assert_eq!(t.l2_latency, 12);
        assert!(t.tlb_prefetch);
        assert_eq!(t.walk_model, WalkModel::Cached);
        assert!(!t.with_l2(0, 0).has_l2());
        assert_eq!(WalkModel::Flat.name(), "flat");
        assert_eq!(WalkModel::Cached.name(), "cached");
    }

    #[test]
    fn huge_page_knobs_and_policies_compose() {
        let f = TlbConfig::finite();
        assert_eq!(f.huge_page_bytes(), 2 * 1024 * 1024, "4 KB base -> 2 MB");
        assert_eq!(f.huge_entries(), 32, "Skylake-style 2M dTLB sizing");
        assert_eq!(f.huge_reach_bytes(), 32 * 2 * 1024 * 1024);
        let t = f.with_huge_tlb(4, 2).with_page_bytes(64 * 1024);
        assert_eq!((t.huge_sets, t.huge_ways), (4, 2));
        assert_eq!(t.huge_page_bytes(), (64 * 1024) << 9, "one level up");

        assert!(!PagePolicy::Base4K.is_huge_for(u64::MAX));
        assert!(PagePolicy::Huge2M.is_huge_for(0));
        let auto = PagePolicy::Auto {
            threshold_bytes: 1 << 20,
        };
        assert!(!auto.is_huge_for((1 << 20) - 1));
        assert!(auto.is_huge_for(1 << 20));
        assert_eq!(PagePolicy::default(), PagePolicy::Base4K);
        assert_eq!(
            [
                PagePolicy::Base4K.name(),
                PagePolicy::Huge2M.name(),
                auto.name()
            ],
            ["4k", "2m", "auto"]
        );

        let r = MemRegion {
            name: "pr0".into(),
            base: 0x1_0000,
            bytes: 4096,
            policy: PagePolicy::Huge2M,
        };
        assert_eq!(r.end(), 0x1_1000);
    }

    #[test]
    fn canonical_forms_are_stable_and_distinguish_configs() {
        let a = SystemConfig::paper_default(16);
        assert_eq!(a.canonical(), a.clone().canonical(), "deterministic");
        // Every knob that changes timing must change the canonical form.
        let variants = [
            a.clone().with_prefetcher("imp"),
            a.clone().with_partial(PartialMode::NocAndDram),
            a.clone().with_mem_mode(MemMode::Ideal),
            a.clone().with_core_model(CoreModel::OutOfOrder),
            a.clone().with_tlb(TlbConfig::finite()),
            a.clone().with_manager("static"),
            SystemConfig::paper_default(64),
        ];
        for v in &variants {
            assert_ne!(a.canonical(), v.canonical(), "{}", v.canonical());
        }
        // Manager specs distinguish each other, and the unmanaged form
        // carries no manager suffix at all (pre-manager digests must
        // stay valid).
        assert!(!a.canonical().contains(";mgr:"));
        assert_ne!(
            a.clone().with_manager("static").canonical(),
            a.clone().with_manager("throttle").canonical()
        );
        assert!(a
            .clone()
            .with_manager("throttle:epoch=5000")
            .canonical()
            .ends_with(";mgr:throttle:epoch=5000"));
        // TLB canonical: ideal collapses, finite knobs all surface.
        assert_eq!(TlbConfig::ideal().canonical(), "tlb[ideal]");
        let f = TlbConfig::finite();
        for other in [
            f.with_ways(8),
            f.with_page_bytes(1 << 16),
            f.with_policy(TranslationPolicy::NonBlockingWalk),
            f.with_l2(128, 8),
            f.with_tlb_prefetch(true),
            f.with_walk_model(WalkModel::Cached),
            f.with_huge_tlb(4, 2),
        ] {
            assert_ne!(f.canonical(), other.canonical(), "{}", other.canonical());
        }
        // Page policies: the Auto threshold is part of the identity.
        assert_eq!(PagePolicy::Base4K.canonical(), "4k");
        assert_eq!(PagePolicy::Huge2M.canonical(), "2m");
        assert_ne!(
            PagePolicy::Auto { threshold_bytes: 1 }.canonical(),
            PagePolicy::Auto { threshold_bytes: 2 }.canonical()
        );
    }
}
