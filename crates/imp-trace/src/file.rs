//! The versioned binary `.imptrace` container.
//!
//! A trace file persists a [`Program`] — and an opaque payload section a
//! higher layer may attach (the workload crate stores the functional
//! memory image and the algorithm result there) — so a generated or
//! externally recorded op stream can be replayed without re-running the
//! generator.
//!
//! ## Layout (all integers little-endian)
//!
//! A trace is one [`imp_common::wire`] frame (magic `b"IMPTRACE"`,
//! [`VERSION`], FNV-1a trailer) around this body:
//!
//! | section | encoding |
//! |---|---|
//! | name | `u32` length + UTF-8 bytes |
//! | cores | `u32` |
//! | stream lengths | `u64` per core |
//! | ops | 16 bytes per op, streams concatenated in core order |
//! | payload | `u64` length + bytes |
//!
//! Each op encodes as `addr:u64, pc:u32, kind:u8, size:u8, class:u8,
//! dep:u8` — the same 16 bytes the in-memory [`Op`] occupies. As in
//! [`Op::load`] and [`Op::compute`], a load or store is 1, 2, 4 or 8
//! bytes wide and a compute op's cycle count fits in a `u32`; the
//! decoder rejects any other op, which the simulator could not run.
//!
//! ```
//! use imp_trace::{file::TraceFile, Op, Program};
//! use imp_common::{Addr, Pc, stats::AccessClass};
//!
//! let mut p = Program::new("demo", 1);
//! p.core_mut(0).push(Op::load(Addr::new(64), 8, Pc::new(1), AccessClass::Indirect));
//! let bytes = TraceFile::new(p).to_bytes();
//! let back = TraceFile::from_bytes(&bytes).unwrap();
//! assert_eq!(back.program.name(), "demo");
//! assert_eq!(back.program.ops(0).len(), 1);
//! ```

use crate::{Op, OpKind, Program};
use imp_common::stats::AccessClass;
use imp_common::wire::{self, Reader, WireError, Writer};
use imp_common::Pc;
use std::fmt;
use std::path::Path;

/// File magic: the first eight bytes of every `.imptrace` file.
pub const MAGIC: [u8; 8] = *b"IMPTRACE";

/// Current format version written by [`TraceFile::save`].
pub const VERSION: u32 = 1;

/// Bytes one op occupies on disk (same as in memory).
pub const OP_BYTES: usize = 16;

/// Why a trace could not be read or written.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The bytes are not a readable `.imptrace` container of this
    /// [`VERSION`].
    Wire(WireError),
    /// A load or store is not 1, 2, 4 or 8 bytes wide, so the simulator
    /// could not read its value.
    BadOpSize(u8),
    /// A compute op's cycle count does not fit in the `u32` that
    /// [`Op::compute`] takes.
    ComputeTooLong(u64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Wire(e) => write!(f, "unreadable .imptrace file: {e}"),
            TraceError::BadOpSize(size) => write!(
                f,
                "a load or store is {size} bytes wide; the simulator reads 1, 2, 4 or 8"
            ),
            TraceError::ComputeTooLong(cycles) => {
                write!(f, "a compute op of {cycles} cycles does not fit in a u32")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Wire(e) => Some(e),
            TraceError::BadOpSize(_) | TraceError::ComputeTooLong(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> Self {
        TraceError::Wire(e)
    }
}

/// A deserialized (or to-be-serialized) trace: the program plus an
/// opaque payload owned by whatever layer recorded it.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// The multi-core op streams.
    pub program: Program,
    /// Opaque higher-layer section (e.g. a functional-memory image);
    /// empty when the trace carries only the program.
    pub payload: Vec<u8>,
}

impl TraceFile {
    /// A trace carrying only `program`.
    pub fn new(program: Program) -> Self {
        TraceFile {
            program,
            payload: Vec::new(),
        }
    }

    /// A trace carrying `program` plus a higher-layer `payload`.
    pub fn with_payload(program: Program, payload: Vec<u8>) -> Self {
        TraceFile { program, payload }
    }

    /// Serializes to the `.imptrace` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cores = self.program.cores();
        wire::frame(&MAGIC, VERSION, |w| {
            w.str(self.program.name());
            w.count(cores);
            for c in 0..cores {
                w.u64(self.program.ops(c).len() as u64);
            }
            for c in 0..cores {
                for op in self.program.ops(c) {
                    encode_op(op, w);
                }
            }
            w.u64(self.payload.len() as u64);
            w.bytes(&self.payload);
        })
    }

    /// Parses the `.imptrace` byte layout.
    ///
    /// # Errors
    ///
    /// Any structural defect — wrong magic, newer version, truncation,
    /// invalid op bytes, checksum mismatch — comes back as
    /// [`TraceError::Wire`] with the matching [`WireError`]; an op the
    /// simulator could not run as [`TraceError::BadOpSize`] or
    /// [`TraceError::ComputeTooLong`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        wire::unframe(bytes, &MAGIC, VERSION, |r| {
            let name = r.str("name")?;
            let lens = r.list("core count", 8, |r| r.u64("stream length"))?;
            let mut program = Program::new(&name, lens.len());
            for (c, &len) in lens.iter().enumerate() {
                let ops = r.records("op stream", len, OP_BYTES)?;
                let stream = program.core_mut(c);
                stream.reserve(ops.len() / OP_BYTES);
                for op in ops.chunks_exact(OP_BYTES) {
                    stream.push(decode_op(&mut Reader::new(op))?);
                }
            }
            program.freeze();
            let payload_len = r.u64("payload length")?;
            let payload = r.records("payload", payload_len, 1)?.to_vec();
            Ok(TraceFile { program, payload })
        })
    }

    /// Writes the trace to `path` (conventionally `*.imptrace`).
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`TraceError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Reads a trace back from `path`.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`TraceError::Io`]; malformed
    /// contents as the other [`TraceError`] variants.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

impl Program {
    /// Saves this program (without payload) as an `.imptrace` file.
    ///
    /// # Errors
    ///
    /// See [`TraceFile::save`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        TraceFile::new(self.clone()).save(path)
    }

    /// Loads a program from an `.imptrace` file, ignoring any payload.
    ///
    /// # Errors
    ///
    /// See [`TraceFile::load`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Ok(TraceFile::load(path)?.program)
    }
}

fn encode_op(op: &Op, w: &mut Writer) {
    w.u64(op.addr);
    w.u32(op.pc.raw());
    w.u8(match op.kind {
        OpKind::Compute => 0,
        OpKind::Load => 1,
        OpKind::Store => 2,
        OpKind::SwPrefetch => 3,
        OpKind::Barrier => 4,
    });
    w.u8(op.size);
    w.u8(op.class.index() as u8);
    w.u8(op.dep);
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, TraceError> {
    let op = Op {
        addr: r.u64("op")?,
        pc: Pc::new(r.u32("op")?),
        kind: match r.tag("op kind", 5)? {
            0 => OpKind::Compute,
            1 => OpKind::Load,
            2 => OpKind::Store,
            3 => OpKind::SwPrefetch,
            _ => OpKind::Barrier,
        },
        size: r.u8("op")?,
        class: AccessClass::ALL[usize::from(r.tag("access class", AccessClass::ALL.len() as u8)?)],
        dep: r.u8("op")?,
    };
    match op.kind {
        OpKind::Load | OpKind::Store if !matches!(op.size, 1 | 2 | 4 | 8) => {
            Err(TraceError::BadOpSize(op.size))
        }
        OpKind::Compute if op.addr > u64::from(u32::MAX) => {
            Err(TraceError::ComputeTooLong(op.addr))
        }
        _ => Ok(op),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_common::wire::restamp;
    use imp_common::Addr;

    fn sample() -> Program {
        let mut p = Program::new("sample", 2);
        p.core_mut(0).push(Op::load(
            Addr::new(0x40),
            4,
            Pc::new(1),
            AccessClass::Stream,
        ));
        p.core_mut(0)
            .push(Op::load(Addr::new(0x4000), 8, Pc::new(2), AccessClass::Indirect).with_dep(1));
        p.core_mut(1).push(Op::compute(17));
        p.core_mut(1).push(Op::store(
            Addr::new(0x80),
            8,
            Pc::new(3),
            AccessClass::Other,
        ));
        p.core_mut(1)
            .push(Op::sw_prefetch(Addr::new(0xc0), Pc::new(4)));
        p.barrier();
        p
    }

    #[test]
    fn byte_roundtrip_preserves_everything() {
        let tf = TraceFile::with_payload(sample(), vec![1, 2, 3, 255]);
        let back = TraceFile::from_bytes(&tf.to_bytes()).unwrap();
        assert_eq!(back.program.name(), "sample");
        assert_eq!(back.program.cores(), 2);
        for c in 0..2 {
            assert_eq!(back.program.ops(c), tf.program.ops(c), "core {c}");
        }
        assert_eq!(back.payload, vec![1, 2, 3, 255]);
    }

    #[test]
    fn file_roundtrip_via_program_convenience() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("imptrace-test-{}.imptrace", std::process::id()));
        let p = sample();
        p.save(&path).unwrap();
        let back = Program::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.ops(0), p.ops(0));
        assert_eq!(back.validate_barriers(), p.validate_barriers());
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = TraceFile::new(sample()).to_bytes();

        // Flip a byte in the middle: checksum catches it.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(
            TraceFile::from_bytes(&bad),
            Err(TraceError::Wire(WireError::ChecksumMismatch { .. }))
        ));

        // Truncation before the trailer.
        assert!(matches!(
            TraceFile::from_bytes(&bytes[..4]),
            Err(TraceError::Wire(WireError::Truncated { .. }))
        ));

        // Wrong magic with a fixed-up checksum.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        restamp(&mut wrong);
        assert!(matches!(
            TraceFile::from_bytes(&wrong),
            Err(TraceError::Wire(WireError::BadMagic))
        ));
    }

    #[test]
    fn absurd_stream_lengths_error_instead_of_allocating() {
        let mut p = Program::new("k", 1);
        p.core_mut(0).push(Op::compute(1));
        let mut bytes = TraceFile::new(p).to_bytes();
        // The single stream-length field sits after
        // magic(8)+version(4)+name(4+1)+cores(4); forge it huge and
        // re-stamp the checksum so only the length check can reject it.
        let len_at = 8 + 4 + 4 + 1 + 4;
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            TraceFile::from_bytes(&bytes),
            Err(TraceError::Wire(WireError::Truncated {
                section: "op stream",
                ..
            }))
        ));
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut bytes = TraceFile::new(sample()).to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            TraceFile::from_bytes(&bytes),
            Err(TraceError::Wire(WireError::UnsupportedVersion(99)))
        ));
    }

    #[test]
    fn ops_the_simulator_cannot_run_are_typed_errors() {
        let decode = |op: Op| {
            let mut p = Program::new("k", 1);
            p.core_mut(0).push(op);
            TraceFile::from_bytes(&TraceFile::new(p).to_bytes())
        };
        let load = |size| Op::load(Addr::new(0x40), size, Pc::new(1), AccessClass::Indirect);
        let store = |size| Op::store(Addr::new(0x40), size, Pc::new(1), AccessClass::Other);
        for size in [1, 2, 4, 8] {
            assert!(decode(load(size)).is_ok(), "{size}-byte load");
            assert!(decode(store(size)).is_ok(), "{size}-byte store");
        }
        for size in [0, 3, 16] {
            assert!(matches!(decode(load(size)), Err(TraceError::BadOpSize(s)) if s == size));
            assert!(matches!(decode(store(size)), Err(TraceError::BadOpSize(s)) if s == size));
        }

        assert!(decode(Op::compute(u32::MAX)).is_ok());
        let mut too_long = Op::compute(0);
        too_long.addr = u64::from(u32::MAX) + 1;
        assert!(matches!(
            decode(too_long),
            Err(TraceError::ComputeTooLong(c)) if c == too_long.addr
        ));
    }

    #[test]
    fn bad_op_bytes_are_typed_errors() {
        let mut p = Program::new("k", 1);
        p.core_mut(0).push(Op::compute(1));
        let mut bytes = TraceFile::new(p).to_bytes();
        // The op's kind byte sits 12 bytes into the op record; the op
        // record starts after magic(8)+version(4)+name(4+1)+cores(4)+len(8).
        let op_start = 8 + 4 + 4 + 1 + 4 + 8;
        bytes[op_start + 12] = 200;
        restamp(&mut bytes);
        assert!(matches!(
            TraceFile::from_bytes(&bytes),
            Err(TraceError::Wire(WireError::BadTag {
                section: "op kind",
                value: 200
            }))
        ));
    }
}
