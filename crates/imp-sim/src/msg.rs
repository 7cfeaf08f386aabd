//! Coherence / memory protocol messages carried by the NoC.

use imp_common::{LineAddr, SectorMask};

/// Tiles a [`Msg`] can address: tile ids are 16 bits.
pub const MAX_TILES: u32 = 1 << 16;

/// Message kinds of the simplified MSI + ACKwise protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Read request, L1 -> home L2 tile. Header-only.
    GetS,
    /// Write / upgrade request, L1 -> home. Header-only.
    GetX,
    /// Data (or upgrade grant) home -> requester. Payload = sectors.
    Data,
    /// Invalidate, home -> sharer. Header-only.
    Inv,
    /// Invalidation ack, sharer -> home. Header-only.
    InvAck,
    /// Home asks the Modified owner to downgrade (`invalidate = false`)
    /// or relinquish (`invalidate = true`) the line. Header-only.
    Fetch {
        /// True for write requests (owner must invalidate).
        invalidate: bool,
    },
    /// Owner's reply carrying the line back to home. Payload = line.
    FetchResp,
    /// Dirty L1 eviction writeback, L1 -> home. Payload = dirty sectors.
    WbL1,
    /// Home -> memory controller read. Header-only.
    MemRead,
    /// Memory controller -> home data. Payload = DRAM granule.
    MemReadResp,
    /// Home -> memory controller writeback. Payload = granule.
    MemWrite,
}

impl MsgKind {
    /// Stable small code for trace annotations (the observability layer
    /// tags home-tile events with it; renumbering would silently
    /// re-label existing traces).
    pub fn code(self) -> u32 {
        match self {
            MsgKind::GetS => 0,
            MsgKind::GetX => 1,
            MsgKind::Data => 2,
            MsgKind::Inv => 3,
            MsgKind::InvAck => 4,
            MsgKind::Fetch { invalidate: false } => 5,
            MsgKind::Fetch { invalidate: true } => 6,
            MsgKind::FetchResp => 7,
            MsgKind::WbL1 => 8,
            MsgKind::MemRead => 9,
            MsgKind::MemReadResp => 10,
            MsgKind::MemWrite => 11,
        }
    }
}

/// One protocol message, as the event queue stores it: tile ids are
/// 16 bits (`System::try_new` rejects larger meshes) and the payload
/// size 32 bits, so a queued event is 24 bytes.
#[derive(Clone, Copy, Debug)]
pub struct Msg {
    /// The cache line concerned.
    pub line: LineAddr,
    /// Payload size in bytes (for NoC flit accounting and DRAM sizing).
    pub payload_bytes: u32,
    /// Source tile.
    pub src: u16,
    /// Destination tile.
    pub dst: u16,
    /// The core whose request started the transaction.
    pub requester: u16,
    /// Message kind.
    pub kind: MsgKind,
    /// Requested / carried sectors at L1 (8-byte) granularity.
    pub sectors: SectorMask,
    /// Write intent (GetX) / grants Modified (Data).
    pub exclusive: bool,
}

impl Msg {
    /// A header-only message about `line` from tile `src` to tile
    /// `dst`, on behalf of `requester`, carrying no sectors.
    pub fn new(kind: MsgKind, line: LineAddr, src: u32, dst: u32, requester: u32) -> Self {
        Msg {
            line,
            payload_bytes: 0,
            src: tile(src),
            dst: tile(dst),
            requester: tile(requester),
            kind,
            sectors: SectorMask::EMPTY,
            exclusive: false,
        }
    }

    /// This message carrying `sectors`.
    pub fn sectors(self, sectors: SectorMask) -> Self {
        Msg { sectors, ..self }
    }

    /// This message with write intent / a Modified grant.
    pub fn exclusive(self, exclusive: bool) -> Self {
        Msg { exclusive, ..self }
    }

    /// This message with a `bytes`-byte payload.
    pub fn payload(self, bytes: u64) -> Self {
        debug_assert!(bytes <= u64::from(u32::MAX));
        Msg {
            payload_bytes: bytes as u32,
            ..self
        }
    }
}

fn tile(id: u32) -> u16 {
    debug_assert!(id <= u32::from(u16::MAX), "tile {id} has no 16-bit id");
    id as u16
}
