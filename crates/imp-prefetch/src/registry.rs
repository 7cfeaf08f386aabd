//! The prefetcher plugin registry: a string-keyed factory table that
//! turns a [`PrefetcherSpec`] into a boxed [`L1Prefetcher`].
//!
//! The simulator (`imp-sim`) builds every per-core prefetcher through the
//! process-wide registry, so downstream crates can attach prefetchers the
//! core never heard of — register a [`PrefetcherFactory`] (or a plain
//! closure via [`register_fn`]) and name it in
//! `SystemConfig::with_prefetcher`:
//!
//! ```
//! use imp_prefetch::registry::{self, BuildCtx};
//! use imp_prefetch::NullPrefetcher;
//!
//! // A (useless) custom prefetcher, registered from outside the core.
//! registry::register_fn("doc-noop", |_spec, _ctx| {
//!     Ok(Box::new(NullPrefetcher::new()))
//! })
//! .unwrap();
//! assert!(registry::is_registered("doc-noop"));
//!
//! // Builders receive the spec (with its parameters) and a per-core ctx.
//! let spec = "doc-noop".parse().unwrap();
//! let imp_cfg = imp_common::ImpConfig::paper_default();
//! let ctx = BuildCtx { core: 0, imp: &imp_cfg, partial: false };
//! assert!(registry::build(&spec, &ctx).is_ok());
//! ```
//!
//! The stock factories (`none`, `stream`, `imp`, `ghb`, `hybrid`) are
//! pre-registered; [`RegistryError::DuplicateName`] protects their names
//! and any name registered twice.

use crate::access::L1Prefetcher;
use crate::ghb::Ghb;
use crate::hybrid::Hybrid;
use crate::imp::Imp;
use crate::stream::StreamPrefetcher;
use imp_common::config::{ImpConfig, ParamError, PrefetcherSpec};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Per-core context a factory builds against.
#[derive(Clone, Copy, Debug)]
pub struct BuildCtx<'a> {
    /// Which core this prefetcher instance attaches to (seeds and other
    /// per-core state derive from it deterministically).
    pub core: u32,
    /// The system's IMP parameter block (Table 2) — the defaults for any
    /// parameter the spec does not override.
    pub imp: &'a ImpConfig,
    /// Whether partial cacheline accessing is enabled (Section 4).
    pub partial: bool,
}

/// Errors surfaced by registry operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The spec names a factory nobody registered.
    UnknownPrefetcher {
        /// The unresolvable name.
        name: String,
        /// Everything currently registered, for the error message.
        known: Vec<String>,
    },
    /// A factory with this name already exists.
    DuplicateName(String),
    /// The factory rejected a parameter.
    InvalidParam {
        /// The factory that rejected it.
        prefetcher: String,
        /// The offending key (or pseudo-key).
        param: String,
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPrefetcher { name, known } => write!(
                f,
                "unknown prefetcher {name:?}; registered: {}",
                known.join(", ")
            ),
            RegistryError::DuplicateName(name) => {
                write!(f, "prefetcher {name:?} is already registered")
            }
            RegistryError::InvalidParam {
                prefetcher,
                param,
                reason,
            } => {
                write!(
                    f,
                    "invalid parameter {param:?} for prefetcher {prefetcher:?}: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ParamError> for RegistryError {
    fn from(e: ParamError) -> Self {
        RegistryError::InvalidParam {
            prefetcher: e.spec,
            param: e.param,
            reason: e.reason,
        }
    }
}

/// Builds prefetcher instances from a [`PrefetcherSpec`].
///
/// Factories must be `Send + Sync`: one registry serves every simulation
/// thread of a parameter sweep.
pub trait PrefetcherFactory: Send + Sync {
    /// Builds one per-core instance. Implementations should reject
    /// parameters they do not understand with
    /// [`RegistryError::InvalidParam`].
    fn build(
        &self,
        spec: &PrefetcherSpec,
        ctx: &BuildCtx<'_>,
    ) -> Result<Box<dyn L1Prefetcher>, RegistryError>;
}

impl<F> PrefetcherFactory for F
where
    F: Fn(&PrefetcherSpec, &BuildCtx<'_>) -> Result<Box<dyn L1Prefetcher>, RegistryError>
        + Send
        + Sync,
{
    fn build(
        &self,
        spec: &PrefetcherSpec,
        ctx: &BuildCtx<'_>,
    ) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
        self(spec, ctx)
    }
}

/// A string-keyed table of prefetcher factories.
pub struct Registry {
    factories: BTreeMap<String, Arc<dyn PrefetcherFactory>>,
}

impl Registry {
    /// An empty registry (no names resolve).
    pub fn empty() -> Self {
        Registry {
            factories: BTreeMap::new(),
        }
    }

    /// A registry holding the stock factories: `none`, `stream`, `imp`,
    /// `ghb`, and the `hybrid` combinator.
    pub fn with_builtins() -> Self {
        let mut r = Registry::empty();
        r.register("none", Arc::new(build_none))
            .expect("fresh registry");
        r.register("stream", Arc::new(build_stream))
            .expect("fresh registry");
        r.register("imp", Arc::new(build_imp))
            .expect("fresh registry");
        r.register("ghb", Arc::new(build_ghb))
            .expect("fresh registry");
        r.register("hybrid", Arc::new(build_hybrid))
            .expect("fresh registry");
        r
    }

    /// Registers `factory` under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: Arc<dyn PrefetcherFactory>,
    ) -> Result<(), RegistryError> {
        let name = name.into();
        if self.factories.contains_key(&name) {
            return Err(RegistryError::DuplicateName(name));
        }
        self.factories.insert(name, factory);
        Ok(())
    }

    /// Builds a prefetcher for `spec` at `ctx`.
    pub fn build(
        &self,
        spec: &PrefetcherSpec,
        ctx: &BuildCtx<'_>,
    ) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
        match self.factories.get(&spec.name) {
            Some(f) => f.build(spec, ctx),
            None => Err(RegistryError::UnknownPrefetcher {
                name: spec.name.clone(),
                known: self.names(),
            }),
        }
    }

    /// Whether `name` resolves.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_builtins()
    }
}

fn global() -> &'static RwLock<Registry> {
    static GLOBAL: OnceLock<RwLock<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Registry::with_builtins()))
}

/// Registers `factory` in the process-wide registry.
pub fn register(
    name: impl Into<String>,
    factory: Arc<dyn PrefetcherFactory>,
) -> Result<(), RegistryError> {
    global()
        .write()
        .expect("registry lock")
        .register(name, factory)
}

/// Registers a closure-backed factory in the process-wide registry.
pub fn register_fn<F>(name: impl Into<String>, f: F) -> Result<(), RegistryError>
where
    F: Fn(&PrefetcherSpec, &BuildCtx<'_>) -> Result<Box<dyn L1Prefetcher>, RegistryError>
        + Send
        + Sync
        + 'static,
{
    register(name, Arc::new(f))
}

/// Builds a prefetcher from the process-wide registry.
pub fn build(
    spec: &PrefetcherSpec,
    ctx: &BuildCtx<'_>,
) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
    global().read().expect("registry lock").build(spec, ctx)
}

/// Whether `name` resolves in the process-wide registry.
pub fn is_registered(name: &str) -> bool {
    global().read().expect("registry lock").contains(name)
}

/// All names in the process-wide registry, sorted.
pub fn registered_names() -> Vec<String> {
    global().read().expect("registry lock").names()
}

// ----------------------------------------------------------------------
// Stock factories
// ----------------------------------------------------------------------

fn build_none(
    spec: &PrefetcherSpec,
    _ctx: &BuildCtx<'_>,
) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
    spec.reject_unknown_params(&[])?;
    Ok(Box::new(crate::access::NullPrefetcher::new()))
}

fn build_stream(
    spec: &PrefetcherSpec,
    ctx: &BuildCtx<'_>,
) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
    spec.reject_unknown_params(&["entries", "threshold", "distance"])?;
    Ok(Box::new(StreamPrefetcher::new(
        spec.param_usize("entries", ctx.imp.pt_entries)?,
        spec.param_u32("threshold", ctx.imp.stream_threshold)?,
        spec.param_u32("distance", ctx.imp.stream_distance)?,
    )))
}

fn build_imp(
    spec: &PrefetcherSpec,
    ctx: &BuildCtx<'_>,
) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
    spec.reject_unknown_params(&[
        "pt_entries",
        "ipd_entries",
        "distance",
        "max_ways",
        "max_levels",
        "seed",
        "depth",
    ])?;
    let mut cfg = ctx.imp.clone();
    cfg.pt_entries = spec.param_usize("pt_entries", cfg.pt_entries)?;
    cfg.ipd_entries = spec.param_usize("ipd_entries", cfg.ipd_entries)?;
    cfg.max_prefetch_distance = spec.param_u32("distance", cfg.max_prefetch_distance)?;
    cfg.max_ways = spec.param_usize("max_ways", cfg.max_ways)?;
    cfg.max_levels = spec.param_usize("max_levels", cfg.max_levels)?;
    let seed = spec.param_u64("seed", 0x1_000 + u64::from(ctx.core))?;
    // `imp:depth=N` bounds chained indirection: data prefetches chase up
    // to N + 1 hops, translation prefetching one hop further. The
    // default of 1 is the paper's single-level detector, bit-identical
    // to builds that predate the knob.
    let depth = spec.param_u32("depth", 1)?;
    if depth == 0 || depth > 8 {
        return Err(RegistryError::InvalidParam {
            prefetcher: spec.name.clone(),
            param: "depth".to_string(),
            reason: format!("expected 1..=8, got {depth}"),
        });
    }
    Ok(Box::new(
        Imp::new(cfg, ctx.partial, seed).with_depth(depth as u8),
    ))
}

fn build_ghb(
    spec: &PrefetcherSpec,
    _ctx: &BuildCtx<'_>,
) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
    spec.reject_unknown_params(&["entries", "degree"])?;
    // Unset knobs take the `Ghb::paper_default()` values (512 entries,
    // degree 2), so overriding one never silently shifts the other.
    Ok(Box::new(Ghb::new(
        spec.param_usize("entries", 512)?,
        spec.param_usize("degree", 2)?,
    )))
}

/// `hybrid:components=stream+imp` — builds each named stock component
/// (names only; component parameters take their defaults) and arbitrates
/// between them per PC. Components are restricted to the stock factories
/// so building never re-enters the registry lock.
fn build_hybrid(
    spec: &PrefetcherSpec,
    ctx: &BuildCtx<'_>,
) -> Result<Box<dyn L1Prefetcher>, RegistryError> {
    spec.reject_unknown_params(&["components"])?;
    let list = match spec.get("components") {
        None => "stream+imp".to_string(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| RegistryError::InvalidParam {
                prefetcher: spec.name.clone(),
                param: "components".to_string(),
                reason: format!("expected a +-separated name list, got {v}"),
            })?
            .to_string(),
    };
    let mut components = Vec::new();
    for name in list.split('+').map(str::trim).filter(|n| !n.is_empty()) {
        let component = PrefetcherSpec::new(name);
        let built = match name {
            "none" => build_none(&component, ctx)?,
            "stream" => build_stream(&component, ctx)?,
            "imp" => build_imp(&component, ctx)?,
            "ghb" => build_ghb(&component, ctx)?,
            other => {
                return Err(RegistryError::InvalidParam {
                    prefetcher: spec.name.clone(),
                    param: "components".to_string(),
                    reason: format!(
                        "unknown component {other:?}; hybrids combine the stock \
                         prefetchers none, stream, imp, ghb"
                    ),
                })
            }
        };
        components.push(built);
    }
    if components.is_empty() {
        return Err(RegistryError::InvalidParam {
            prefetcher: spec.name.clone(),
            param: "components".to_string(),
            reason: "at least one component is required".to_string(),
        });
    }
    Ok(Box::new(Hybrid::new(components)))
}
