//! Property tests: the binary `.imptrace` encoding round-trips arbitrary
//! op streams exactly, and damage behind a valid checksum is a typed
//! error, never a panic.

use imp_common::stats::AccessClass;
use imp_common::{wire, Addr, Pc};
use imp_trace::{Op, Program, TraceFile};
use proptest::prelude::*;

/// Decodes one generated tuple into an op. `sel` picks the kind, the
/// rest fill in every field the encoding must carry.
fn op_from(sel: u8, addr: u64, pc: u32, size_sel: u8, class_sel: u8, dep: u8) -> Op {
    let size = [1u8, 2, 4, 8][(size_sel % 4) as usize];
    let class = AccessClass::ALL[(class_sel % 3) as usize];
    match sel % 5 {
        0 => Op::compute(addr as u32),
        1 => Op::load(Addr::new(addr), size, Pc::new(pc), class).with_dep(dep),
        2 => Op::store(Addr::new(addr), size, Pc::new(pc), class).with_dep(dep),
        3 => Op::sw_prefetch(Addr::new(addr), Pc::new(pc)),
        _ => Op::barrier(),
    }
}

proptest! {
    /// Arbitrary multi-core programs survive encode → decode bit-exactly.
    #[test]
    fn imptrace_roundtrip(
        streams in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u32>(), any::<u8>(), any::<u8>(), any::<u8>())
                    .prop_map(|(s, a, p, z, c, d)| op_from(s, a, p, z, c, d)),
                0..40,
            ),
            1..6,
        ),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut program = Program::new("prop", streams.len());
        for (c, ops) in streams.iter().enumerate() {
            program.core_mut(c).extend_from_slice(ops);
        }
        let tf = TraceFile::with_payload(program, payload.clone());
        let bytes = tf.to_bytes();
        let back = TraceFile::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.program.name(), "prop");
        prop_assert_eq!(back.program.cores(), streams.len());
        for (c, ops) in streams.iter().enumerate() {
            prop_assert_eq!(back.program.ops(c), &ops[..]);
        }
        prop_assert_eq!(back.payload, payload);
        // Re-encoding the decoded trace is byte-stable.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Any single flipped byte is rejected, never silently accepted.
    #[test]
    fn imptrace_detects_any_single_byte_flip(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u32>(), any::<u8>(), any::<u8>(), any::<u8>())
                .prop_map(|(s, a, p, z, c, d)| op_from(s, a, p, z, c, d)),
            1..20,
        ),
        flip_at in any::<u64>(),
        flip_bits in 1u8..=255,
    ) {
        let mut program = Program::new("flip", 1);
        program.core_mut(0).extend_from_slice(&ops);
        let bytes = TraceFile::new(program).to_bytes();
        let mut bad = bytes.clone();
        let i = (flip_at % bytes.len() as u64) as usize;
        bad[i] ^= flip_bits;
        prop_assert!(TraceFile::from_bytes(&bad).is_err(), "flip at byte {}", i);
    }

    /// Damage behind a re-stamped checksum reaches the body decoder,
    /// which returns a trace or a typed error and never panics; any
    /// trace it accepts re-encodes to one it accepts again.
    #[test]
    fn imptrace_decoder_survives_restamped_damage(
        streams in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u32>(), any::<u8>(), any::<u8>(), any::<u8>())
                    .prop_map(|(s, a, p, z, c, d)| op_from(s, a, p, z, c, d)),
                0..8,
            ),
            1..4,
        ),
        payload in proptest::collection::vec(any::<u8>(), 0..16),
        edits in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let mut program = Program::new("fuzz", streams.len());
        for (c, ops) in streams.iter().enumerate() {
            program.core_mut(c).extend_from_slice(ops);
        }
        let mut bytes = TraceFile::with_payload(program, payload).to_bytes();
        for (kind, at, value) in edits {
            wire::mutate(&mut bytes, kind, at, value);
        }
        wire::restamp(&mut bytes);
        if let Ok(back) = TraceFile::from_bytes(&bytes) {
            let again = back.to_bytes();
            let reread = TraceFile::from_bytes(&again).map(|t| t.to_bytes());
            prop_assert_eq!(reread.ok(), Some(again));
        }
    }
}
