//! Wire-decode fuzz: arbitrary bytes through the frame codec must never
//! panic — every outcome is either a structured [`WireError`] (or
//! `io::Error` at the framing layer) or a value whose canonical re-encoding
//! round-trips. Covers the robustness half of the codec's contract; the
//! happy-path round trips live in `wire.rs` and `proto.rs` unit tests.

use dist_rt::wire::{self, MAX_FRAME};
use dist_rt::Frame;
use pdes_core::Msg;
use proptest::prelude::*;

type F = Frame<u32, u8>;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Raw fuzz: any byte soup decodes to an error or to a value that
    /// re-encodes canonically (decode ∘ encode ∘ decode is stable).
    #[test]
    fn arbitrary_bytes_never_panic_the_typed_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        if let Ok(frame) = wire::from_bytes::<F>(&bytes) {
            let re = wire::to_bytes(&frame);
            let back: F = wire::from_bytes(&re).expect("re-encoded value must decode");
            prop_assert_eq!(format!("{frame:?}"), format!("{back:?}"));
        }
    }

    /// Same property at the untyped value layer, where length prefixes and
    /// tags are interpreted.
    #[test]
    fn arbitrary_bytes_never_panic_the_value_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        let mut pos = 0;
        if let Ok(v) = wire::decode_value(&bytes, &mut pos) {
            let mut re = Vec::new();
            wire::encode_value(&v, &mut re);
            let mut p2 = 0;
            let back = wire::decode_value(&re, &mut p2).expect("canonical re-encode decodes");
            prop_assert_eq!(p2, re.len());
            prop_assert_eq!(back, v);
        }
    }

    /// Valid frames with random byte flips and truncations: the decoder
    /// sees near-miss inputs (the realistic corruption shape) and must
    /// still never panic.
    #[test]
    fn mutated_valid_frames_never_panic(
        seed_payload in any::<u8>(),
        tag in any::<u64>(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        cut in any::<usize>(),
    ) {
        let key = pdes_core::EventKey {
            recv_time: pdes_core::VirtualTime::from_f64(3.5),
            dst: pdes_core::LpId(2),
            uid: pdes_core::EventUid::new(pdes_core::LpId(0), 9),
        };
        let valid: F = Frame::SimBatch {
            msgs: vec![
                (
                    tag,
                    Msg::Event(pdes_core::Event {
                        key,
                        send_time: pdes_core::VirtualTime::from_f64(1.0),
                        payload: seed_payload,
                    }),
                ),
                (tag.wrapping_add(1), Msg::Anti(key)),
            ],
        };
        let mut bytes = wire::to_bytes(&valid);
        for (idx, val) in &flips {
            let i = idx % bytes.len();
            bytes[i] ^= val;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        if let Ok(frame) = wire::from_bytes::<F>(&bytes) {
            let re = wire::to_bytes(&frame);
            prop_assert!(wire::from_bytes::<F>(&re).is_ok());
        }
    }

    /// Framing layer under truncated streams: a length prefix promising
    /// more bytes than the stream holds is an error (or a clean EOF when
    /// the prefix itself is cut), never a panic or a bogus frame.
    #[test]
    fn truncated_streams_error_cleanly(
        len in 0u32..2048,
        supplied in 0usize..64,
    ) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend(std::iter::repeat_n(0xAAu8, supplied.min(len as usize)));
        let mut r = std::io::Cursor::new(&buf);
        match wire::read_frame(&mut r) {
            Ok(Some(frame)) => prop_assert_eq!(frame.len(), len as usize),
            Ok(None) => prop_assert!(len > 0 && supplied < len as usize),
            Err(_) => prop_assert!(supplied < len as usize),
        }
    }
}

/// Length-inflated `u32` prefixes right around the frame cap: at the cap
/// the framing layer reports a mid-frame EOF; one past it (and at
/// `u32::MAX`) the corrupt prefix is rejected before any allocation is
/// sized from it.
#[test]
fn length_prefixes_around_max_frame_are_rejected_not_fatal() {
    for len in [MAX_FRAME as u64, MAX_FRAME as u64 + 1, u32::MAX as u64] {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        // A few payload bytes, nowhere near the promised length.
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = std::io::Cursor::new(&buf);
        let err = wire::read_frame(&mut r).expect_err("inflated prefix must error");
        if len > MAX_FRAME as u64 {
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "over-cap length {len} must be rejected as corrupt"
            );
        } else {
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "in-cap length {len} fails as a mid-frame EOF"
            );
        }
    }
}

/// A truncated length prefix itself (fewer than 4 bytes) is a clean EOF —
/// the peer hung up between frames.
#[test]
fn truncated_length_prefix_is_clean_eof() {
    for n in 0..4usize {
        let buf = vec![0x7Fu8; n];
        let mut r = std::io::Cursor::new(&buf);
        assert!(
            matches!(wire::read_frame(&mut r), Ok(None)),
            "a {n}-byte prefix fragment must read as clean EOF"
        );
    }
}
