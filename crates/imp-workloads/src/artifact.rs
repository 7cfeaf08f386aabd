//! Shareable, serializable workload artifacts: record a generated
//! workload once, replay it everywhere.
//!
//! A [`BuiltArtifact`] wraps a [`Built`] in an `Arc` so one generated
//! workload (op streams + functional-memory image + algorithm result)
//! can back any number of simulator configurations without re-running
//! the generator — the build-once path `Sweep` uses, and the unit a
//! `.imptrace` file persists.
//!
//! On disk the artifact is a standard `imp_trace::file` container whose
//! payload section carries the algorithm result (8 bytes, `f64` LE),
//! the region/placement records (region count, then per region: name,
//! extent and declared [`PagePolicy`]), and finally the
//! [`FunctionalMemory::snapshot`] image — so a saved trace replays with
//! the genuine index-array contents IMP reads *and* the page placement
//! the generator declared. Every part is read and written through
//! [`imp_common::wire`].
//!
//! ```no_run
//! use imp_workloads::{by_name, BuiltArtifact, Scale, WorkloadParams};
//!
//! let params = WorkloadParams::new(16, Scale::Tiny);
//! let built = by_name("spmv").unwrap().build(&params);
//! let artifact = BuiltArtifact::from(built);
//! artifact.save("spmv.imptrace").unwrap();
//!
//! // Later (any process): replay through the registry.
//! let replayed = by_name("trace:spmv.imptrace").unwrap();
//! let again = replayed.try_build(&params).unwrap();
//! assert_eq!(again.result, artifact.result());
//! ```

use crate::{Built, Workload, WorkloadParams};
use imp_common::wire::{Reader, WireError, Writer};
use imp_common::{MemRegion, PagePolicy};
use imp_mem::{FunctionalMemory, SnapshotError};
use imp_trace::{Program, TraceError, TraceFile};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An immutable, cheaply cloneable handle to one generated workload.
///
/// Cloning bumps one reference count; the program streams and memory
/// pages inside are themselves `Arc`-backed, so feeding the artifact to
/// a simulator (`program().clone()` + `mem().clone()`) copies nothing.
#[derive(Clone, Debug)]
pub struct BuiltArtifact {
    inner: Arc<Built>,
}

impl From<Built> for BuiltArtifact {
    fn from(mut built: Built) -> Self {
        built.program.freeze();
        BuiltArtifact {
            inner: Arc::new(built),
        }
    }
}

impl BuiltArtifact {
    /// The multicore op streams (frozen; clones share them).
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// The functional-memory image (copy-on-write; clones share pages).
    pub fn mem(&self) -> &FunctionalMemory {
        &self.inner.mem
    }

    /// The algorithm's functional result (see [`Built::result`]).
    pub fn result(&self) -> f64 {
        self.inner.result
    }

    /// The generator's region/placement records (see
    /// [`Built::regions`]); empty for program-only traces.
    pub fn regions(&self) -> &[MemRegion] {
        &self.inner.regions
    }

    /// Materializes an owned [`Built`] sharing this artifact's storage.
    pub fn to_built(&self) -> Built {
        Built {
            program: self.inner.program.clone(),
            mem: self.inner.mem.clone(),
            result: self.inner.result,
            regions: self.inner.regions.clone(),
        }
    }

    /// Writes the artifact as an `.imptrace` file: program streams plus
    /// a payload carrying the result, the region/placement records and
    /// the memory image.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as
    /// [`ArtifactError::Trace`]`(`[`TraceError::Io`]`)`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let payload = encode_payload(&self.inner);
        TraceFile::with_payload(self.inner.program.clone(), payload).save(path)?;
        Ok(())
    }

    /// Reads an artifact back from an `.imptrace` file.
    ///
    /// A program-only trace (empty payload — what `Program::save` and
    /// external recorders produce) loads with an empty memory image, no
    /// regions and a `NaN` result: the op streams replay, IMP's
    /// speculative index reads see zeroes, every address translates at
    /// the base page size, and no algorithm result is claimed.
    ///
    /// # Errors
    ///
    /// Malformed containers surface as [`ArtifactError::Trace`]; a
    /// well-formed container whose non-empty payload is not an artifact
    /// payload (too short, corrupt region records, or a corrupt memory
    /// image) as the other variants.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let tf = TraceFile::load(path)?;
        let built = decode_payload(tf.program, &tf.payload)?;
        Ok(BuiltArtifact::from(built))
    }
}

/// Marks a region-records section in the artifact payload. Payloads
/// written before regions existed go straight from the result field to
/// the memory image, whose first 8 bytes are its page *count* — this
/// marker read as a count would claim ~10^18 pages, so the two layouts
/// cannot collide and old artifacts keep loading (with no regions).
const REGIONS_MAGIC: [u8; 8] = *b"IMPREGN1";

/// Serializes the payload of `built`: its result, region records and
/// memory image.
fn encode_payload(built: &Built) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(built.result.to_bits());
    encode_regions(&built.regions, &mut w);
    w.bytes(&built.mem.snapshot());
    w.into_bytes()
}

/// Parses a payload written by [`encode_payload`] back into a [`Built`]
/// around `program`. An empty payload — a program-only trace — carries
/// no result (`NaN`), no regions and an empty memory.
fn decode_payload(program: Program, payload: &[u8]) -> Result<Built, ArtifactError> {
    let mut built = Built {
        program,
        mem: FunctionalMemory::new(),
        result: f64::NAN,
        regions: Vec::new(),
    };
    if !payload.is_empty() {
        let mut r = Reader::new(payload);
        built.result = f64::from_bits(r.u64("artifact result")?);
        built.regions = decode_regions(&mut r)?;
        built.mem = FunctionalMemory::restore(r.rest())?;
    }
    Ok(built)
}

/// Serializes the region/placement records: the [`REGIONS_MAGIC`]
/// marker, a `u32` count, then per region a length-prefixed UTF-8
/// name, `u64` base, `u64` bytes, a policy tag byte (0 = `Base4K`,
/// 1 = `Huge2M`, 2 = `Auto`) and the `u64` policy argument (the
/// `Auto` threshold; 0 otherwise).
fn encode_regions(regions: &[MemRegion], w: &mut Writer) {
    w.bytes(&REGIONS_MAGIC);
    w.count(regions.len());
    for r in regions {
        w.str(&r.name);
        w.u64(r.base);
        w.u64(r.bytes);
        let (tag, arg) = match r.policy {
            PagePolicy::Base4K => (0u8, 0u64),
            PagePolicy::Huge2M => (1, 0),
            PagePolicy::Auto { threshold_bytes } => (2, threshold_bytes),
        };
        w.u8(tag);
        w.u64(arg);
    }
}

/// Parses the region records written by [`encode_regions`], leaving
/// the memory image in `r`. A payload without the [`REGIONS_MAGIC`]
/// marker predates region records (or was written by an external
/// recorder): it decodes as no regions, with every byte belonging to
/// the memory image.
fn decode_regions(r: &mut Reader<'_>) -> Result<Vec<MemRegion>, WireError> {
    if !r.rest().starts_with(&REGIONS_MAGIC) {
        return Ok(Vec::new());
    }
    r.take("region marker", REGIONS_MAGIC.len())?;
    // A record is at least a name length, base, bytes, tag and argument.
    r.list("region count", 4 + 8 + 8 + 1 + 8, |r| {
        Ok(MemRegion {
            name: r.str("region name")?,
            base: r.u64("region base")?,
            bytes: r.u64("region bytes")?,
            policy: match (r.tag("page policy", 3)?, r.u64("page policy argument")?) {
                (0, _) => PagePolicy::Base4K,
                (1, _) => PagePolicy::Huge2M,
                (_, threshold_bytes) => PagePolicy::Auto { threshold_bytes },
            },
        })
    })
}

/// Why an artifact could not be saved or loaded.
#[derive(Debug)]
pub enum ArtifactError {
    /// The `.imptrace` container itself failed (I/O, corruption, ...).
    Trace(TraceError),
    /// The result field or the region/placement records inside the
    /// payload are malformed.
    Wire(WireError),
    /// The memory image inside the payload is malformed.
    Memory(SnapshotError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Trace(e) => write!(f, "{e}"),
            ArtifactError::Wire(e) => write!(f, "unreadable artifact payload: {e}"),
            ArtifactError::Memory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Trace(e) => Some(e),
            ArtifactError::Wire(e) => Some(e),
            ArtifactError::Memory(e) => Some(e),
        }
    }
}

impl From<TraceError> for ArtifactError {
    fn from(e: TraceError) -> Self {
        ArtifactError::Trace(e)
    }
}

impl From<WireError> for ArtifactError {
    fn from(e: WireError) -> Self {
        ArtifactError::Wire(e)
    }
}

impl From<SnapshotError> for ArtifactError {
    fn from(e: SnapshotError) -> Self {
        ArtifactError::Memory(e)
    }
}

/// Why a workload generator could not produce a [`Built`].
///
/// The stock generators are infallible; replaying a recorded trace is
/// not (the file may be missing, corrupt, or recorded for a different
/// core count).
#[derive(Debug)]
pub enum WorkloadError {
    /// The `.imptrace` artifact could not be loaded.
    Artifact(ArtifactError),
    /// The trace was recorded for a different core count than requested.
    CoreCountMismatch {
        /// Cores the trace was recorded with.
        trace: usize,
        /// Cores the caller asked for.
        requested: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Artifact(e) => write!(f, "{e}"),
            WorkloadError::CoreCountMismatch { trace, requested } => write!(
                f,
                "trace was recorded for {trace} cores but {requested} were requested"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Artifact(e) => Some(e),
            WorkloadError::CoreCountMismatch { .. } => None,
        }
    }
}

impl From<ArtifactError> for WorkloadError {
    fn from(e: ArtifactError) -> Self {
        WorkloadError::Artifact(e)
    }
}

/// The `trace:<path>` pseudo-workload: replays a recorded `.imptrace`
/// artifact instead of running a generator.
///
/// Scale, seed and software-prefetch parameters are properties of the
/// recording and are ignored at replay; the requested core count must
/// match the recording.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    path: PathBuf,
}

impl TraceWorkload {
    /// A replayer for the artifact at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TraceWorkload { path: path.into() }
    }

    /// The file this workload replays.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        "trace"
    }

    /// # Panics
    ///
    /// Panics when the artifact cannot be loaded or does not match the
    /// requested core count; use [`Workload::try_build`] for the
    /// fallible form.
    fn build(&self, params: &WorkloadParams) -> Built {
        self.try_build(params).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_build(&self, params: &WorkloadParams) -> Result<Built, WorkloadError> {
        let artifact = BuiltArtifact::load(&self.path)?;
        if artifact.program().cores() != params.cores {
            return Err(WorkloadError::CoreCountMismatch {
                trace: artifact.program().cores(),
                requested: params.cores,
            });
        }
        Ok(artifact.to_built())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, Scale};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "imp-artifact-{tag}-{}.imptrace",
            std::process::id()
        ))
    }

    #[test]
    fn artifact_roundtrips_program_memory_and_result() {
        let params = WorkloadParams::new(4, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let reference = by_name("spmv").unwrap().build(&params);
        let artifact = BuiltArtifact::from(built);

        let path = temp_path("roundtrip");
        artifact.save(&path).unwrap();
        let loaded = BuiltArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.result(), reference.result);
        assert_eq!(loaded.program().cores(), 4);
        assert_eq!(loaded.mem().mapped_pages(), reference.mem.mapped_pages());
        assert_eq!(
            loaded.regions(),
            &reference.regions[..],
            "placement records replay"
        );
        assert!(
            loaded.regions().iter().any(|r| r.name == "x"),
            "spmv declares its target vector"
        );
        for c in 0..4 {
            assert_eq!(
                loaded.program().ops(c),
                reference.program.ops(c),
                "core {c}"
            );
        }
    }

    #[test]
    fn trace_workload_replays_through_the_registry() {
        let params = WorkloadParams::new(4, Scale::Tiny);
        let artifact = BuiltArtifact::from(by_name("sgd").unwrap().build(&params));
        let path = temp_path("registry");
        artifact.save(&path).unwrap();

        let name = format!("trace:{}", path.display());
        let replayed = by_name(&name).expect("trace: names resolve");
        let built = replayed.try_build(&params).unwrap();
        assert_eq!(built.result, artifact.result());
        assert_eq!(
            built.program.total_instructions(),
            artifact.program().total_instructions()
        );

        // Wrong core count is a typed error, not a deadlocked sim.
        let wrong = WorkloadParams::new(16, Scale::Tiny);
        assert!(matches!(
            replayed.try_build(&wrong),
            Err(WorkloadError::CoreCountMismatch {
                trace: 4,
                requested: 16
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn program_only_traces_replay_with_empty_memory() {
        // External recorders (and `Program::save`) write the container
        // with no payload; that must still replay.
        let params = WorkloadParams::new(2, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let path = temp_path("program-only");
        built.program.save(&path).unwrap();

        let loaded = BuiltArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.result().is_nan(), "no result was recorded");
        assert_eq!(loaded.mem().mapped_pages(), 0, "no memory was recorded");
        assert_eq!(loaded.program().ops(0), built.program.ops(0));

        // And through the registry name, with matching cores.
        let path2 = temp_path("program-only-2");
        built.program.save(&path2).unwrap();
        let replayed = by_name(&format!("trace:{}", path2.display())).unwrap();
        let again = replayed.try_build(&params).unwrap();
        std::fs::remove_file(&path2).ok();
        assert_eq!(
            again.program.total_instructions(),
            built.program.total_instructions()
        );
    }

    #[test]
    fn region_records_roundtrip_and_reject_corruption() {
        let regions = vec![
            MemRegion {
                name: "idx".into(),
                base: 0x1_0000,
                bytes: 4096,
                policy: PagePolicy::Base4K,
            },
            MemRegion {
                name: "target".into(),
                base: 0x9_0000,
                bytes: 1 << 22,
                policy: PagePolicy::Huge2M,
            },
            MemRegion {
                name: "auto".into(),
                base: 0x100_0000,
                bytes: 123,
                policy: PagePolicy::Auto {
                    threshold_bytes: 1 << 20,
                },
            },
        ];
        let mut w = Writer::default();
        encode_regions(&regions, &mut w);
        w.bytes(b"tail");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_regions(&mut r).unwrap(), regions);
        assert_eq!(r.rest(), b"tail");

        // A payload without the marker is the pre-region layout: no
        // records, every byte left for the memory image — old
        // artifacts keep loading.
        let legacy = FunctionalMemory::new().snapshot();
        let mut r = Reader::new(&legacy);
        assert!(decode_regions(&mut r).unwrap().is_empty());
        assert_eq!(r.rest(), &legacy[..]);

        // Truncation and a bad policy tag are typed errors.
        assert!(matches!(
            decode_regions(&mut Reader::new(&bytes[..10])),
            Err(WireError::Truncated { .. })
        ));
        let mut w = Writer::default();
        encode_regions(&regions[..1], &mut w);
        let mut bad_tag = w.into_bytes();
        let tag_at = bad_tag.len() - 9;
        bad_tag[tag_at] = 99;
        assert_eq!(
            decode_regions(&mut Reader::new(&bad_tag)),
            Err(WireError::BadTag {
                section: "page policy",
                value: 99
            })
        );
    }

    #[test]
    fn pre_region_payloads_still_load() {
        // Reconstruct the PR 2-4 payload layout by hand: result bytes
        // followed directly by the memory image, no region section.
        let params = WorkloadParams::new(2, Scale::Tiny);
        let built = by_name("spmv").unwrap().build(&params);
        let mut payload = built.result.to_le_bytes().to_vec();
        payload.extend_from_slice(&built.mem.snapshot());
        let path = temp_path("legacy");
        TraceFile::with_payload(built.program.clone(), payload)
            .save(&path)
            .unwrap();

        let loaded = BuiltArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.result(), built.result);
        assert!(loaded.regions().is_empty(), "old artifacts carry none");
        assert_eq!(loaded.mem().mapped_pages(), built.mem.mapped_pages());
    }

    #[test]
    fn payload_decoder_survives_damage() {
        // The crate has no proptest dev-dependency, so a seeded generator
        // drives the same edits as the other decoders' proptests. Each
        // damaged payload decodes or fails with a typed error, never a
        // panic, and whatever decodes re-encodes to a payload that
        // decodes again.
        let mut mem = FunctionalMemory::new();
        mem.write_u64(imp_common::Addr::new(0x4000), 0x1234);
        let sample = |mem: FunctionalMemory| {
            encode_payload(&Built {
                program: Program::new("fuzz", 1),
                mem,
                result: 2.5,
                regions: vec![
                    MemRegion {
                        name: "idx".into(),
                        base: 0x4000,
                        bytes: 4096,
                        policy: PagePolicy::Base4K,
                    },
                    MemRegion {
                        name: "target".into(),
                        base: 0x10_0000,
                        bytes: 1 << 21,
                        policy: PagePolicy::Auto {
                            threshold_bytes: 1 << 20,
                        },
                    },
                ],
            })
        };
        let samples = [sample(FunctionalMemory::new()), sample(mem)];
        let mut rng = imp_common::SplitMix64::new(0x1a9e);
        for case in 0..512 {
            let mut payload = samples[case % 2].clone();
            for _ in 0..=rng.next_below(3) {
                let (kind, at, value) = (rng.next_u64() as u8, rng.next_u64(), rng.next_u64());
                imp_common::wire::mutate(&mut payload, kind, at, value);
            }
            if let Ok(built) = decode_payload(Program::new("fuzz", 1), &payload) {
                let again = encode_payload(&built);
                let reread = decode_payload(Program::new("fuzz", 1), &again);
                assert_eq!(reread.map(|b| encode_payload(&b)).ok(), Some(again));
            }
        }
    }

    #[test]
    fn missing_trace_file_is_a_typed_error() {
        let replayed = by_name("trace:/no/such/file.imptrace").unwrap();
        let params = WorkloadParams::new(4, Scale::Tiny);
        assert!(matches!(
            replayed.try_build(&params),
            Err(WorkloadError::Artifact(ArtifactError::Trace(
                TraceError::Io(_)
            )))
        ));
    }
}
