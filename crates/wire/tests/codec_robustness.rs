//! Satellite 3: the ADCW codec must treat the network as hostile.
//!
//! Three families of pins:
//!
//! 1. **Round-trip** — every message in the vocabulary survives
//!    encode→decode bit-exactly, both one-shot and through the
//!    incremental [`FrameDecoder`] at arbitrary read fragmentation.
//! 2. **Rejection, never panic** — truncated frames, flipped bits,
//!    oversized length fields, unknown tags, wrong versions, and plain
//!    garbage all decode to typed [`FrameError`]s. A version mismatch
//!    names both versions in its message.
//! 3. **Bounded memory** — an oversized length field is rejected from
//!    the 12 header bytes alone, before any payload is buffered.

use adca_simkit::{DropCause, RequestKind};
use adca_wire::{
    decode, encode, encode_into, FrameDecoder, FrameError, WireMsg, MAX_PAYLOAD, WIRE_VERSION,
};
use proptest::prelude::*;

fn msg_strategy() -> impl Strategy<Value = WireMsg> {
    let any64 = 0u64..u64::MAX;
    let cell = 0u32..4096;
    let chan = 0u16..512;
    prop_oneof![
        (
            any64.clone(),
            any64.clone(),
            cell.clone(),
            0u8..2,
            any64.clone(),
            0u64..3
        )
            .prop_map(|(id, at, cell, k, hold, h)| WireMsg::Request {
                id,
                at,
                cell,
                kind: if k == 0 {
                    RequestKind::NewCall
                } else {
                    RequestKind::Handoff
                },
                hold,
                handoff_of: if h == 0 { None } else { Some(h) },
            }),
        any64.clone().prop_map(|ticket| WireMsg::Release { ticket }),
        (
            any64.clone(),
            any64.clone(),
            cell.clone(),
            chan.clone(),
            any64.clone()
        )
            .prop_map(|(id, ticket, cell, channel, latency)| WireMsg::Granted {
                id,
                ticket,
                cell,
                channel,
                latency,
            }),
        (any64.clone(), any64.clone(), cell.clone(), 0u8..3).prop_map(|(id, ticket, cell, c)| {
            WireMsg::Rejected {
                id,
                ticket,
                cell,
                cause: match c {
                    0 => DropCause::Blocked,
                    1 => DropCause::RetryExhausted,
                    _ => DropCause::Crashed,
                },
            }
        }),
        (any64.clone(), proptest::collection::vec(32u8..127, 0..60)).prop_map(|(id, bytes)| {
            WireMsg::Refused {
                id,
                reason: String::from_utf8(bytes).expect("printable ASCII"),
            }
        }),
        (any64, cell, chan).prop_map(|(ticket, cell, channel)| WireMsg::Released {
            ticket,
            cell,
            channel,
        }),
    ]
}

proptest! {
    /// Round-trip over the whole vocabulary, one-shot decoding.
    #[test]
    fn round_trips_bit_exactly(msg in msg_strategy()) {
        let frame = encode(&msg);
        let (back, used) = decode(&frame).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(used, frame.len());
    }

    /// Encoding in place, behind whatever the buffer already holds:
    /// exactly `encode`'s bytes are appended (the length is patched and
    /// the checksum taken over the new frame alone), and the bytes
    /// before them are left as they were.
    #[test]
    fn encode_into_appends_the_same_frame(
        msg in msg_strategy(),
        prefix in proptest::collection::vec(0u16..256, 0..200),
    ) {
        let prefix: Vec<u8> = prefix.into_iter().map(|w| w as u8).collect();
        let mut out = prefix.clone();
        encode_into(&mut out, &msg);
        let (before, frame) = out.split_at(prefix.len());
        prop_assert_eq!(before, &prefix[..]);
        prop_assert_eq!(frame, &encode(&msg)[..]);
    }

    /// Round-trip through the incremental decoder with the stream
    /// chopped at arbitrary points: fragmentation must be invisible.
    #[test]
    fn fragmentation_is_invisible(
        msgs in proptest::collection::vec(msg_strategy(), 1..8),
        cuts in proptest::collection::vec(1usize..23, 0..12),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cuts = cuts.into_iter();
        while pos < stream.len() {
            let step = cuts.next().unwrap_or(stream.len()).min(stream.len() - pos);
            dec.extend(&stream[pos..pos + step]);
            pos += step;
            while let Some(m) = dec.next_frame().expect("clean stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Every proper prefix of a valid frame is `Truncated` one-shot and
    /// `Ok(None)` (keep waiting) incrementally — and never a panic.
    #[test]
    fn truncation_is_detected_not_panicked(msg in msg_strategy()) {
        let frame = encode(&msg);
        for cut in 0..frame.len() {
            prop_assert_eq!(decode(&frame[..cut]), Err(FrameError::Truncated));
            let mut dec = FrameDecoder::new();
            dec.extend(&frame[..cut]);
            prop_assert_eq!(dec.next_frame(), Ok(None));
        }
    }

    /// Any single corrupted byte is caught by the envelope (magic,
    /// version, length bound, or checksum) — typed error, no panic.
    #[test]
    fn corruption_is_rejected(msg in msg_strategy(), pos in 0usize..4096, bit in 0u8..8) {
        let mut frame = encode(&msg);
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        prop_assert!(decode(&frame).is_err(), "corrupt byte {pos} accepted");
        // Incrementally, a corrupted length field may legitimately keep
        // the decoder waiting for bytes that never come — but a
        // corrupted frame must never decode to a message.
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        prop_assert!(!matches!(dec.next_frame(), Ok(Some(_))));
    }

    /// Arbitrary garbage never panics the incremental decoder: it
    /// either wants more bytes or reports a typed error.
    #[test]
    fn garbage_never_panics(words in proptest::collection::vec(0u16..256, 0..300)) {
        let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        loop {
            match dec.next_frame() {
                Ok(Some(_)) => {} // astronomically unlikely, but legal
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

#[test]
fn version_mismatch_is_rejected_by_name() {
    // Derived from the spoken version, so no later bump collides with it.
    let foreign = WIRE_VERSION + 1;
    let mut frame = encode(&WireMsg::Release { ticket: 9 });
    frame[4..6].copy_from_slice(&foreign.to_le_bytes());
    let err = decode(&frame).unwrap_err();
    assert_eq!(err, FrameError::BadVersion(foreign));
    let text = err.to_string();
    assert!(
        text.contains(&format!("version {foreign}")) && text.contains(&WIRE_VERSION.to_string()),
        "the error must name the offered and the spoken version, got {text:?}"
    );
}

/// Version 2 added a Forget kind: a version-1 peer is refused by name,
/// on the six header bytes alone.
#[test]
fn a_version_1_header_is_bad_version_1() {
    let mut frame = encode(&WireMsg::Release { ticket: 9 });
    frame[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(decode(&frame), Err(FrameError::BadVersion(1)));
    let mut dec = FrameDecoder::new();
    dec.extend(&frame[..6]);
    assert_eq!(dec.next_frame(), Err(FrameError::BadVersion(1)));
}

/// Version 3 replaced version 2's FNV-1a64 trailer with the
/// word-at-a-time checksum and kept every layout: a version-2 peer is
/// refused by name, on the six header bytes alone, and not met with a
/// checksum error.
#[test]
fn a_version_2_header_is_bad_version_2() {
    let mut frame = encode(&WireMsg::Release { ticket: 9 });
    frame[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(decode(&frame), Err(FrameError::BadVersion(2)));
    let mut dec = FrameDecoder::new();
    dec.extend(&frame[..6]);
    assert_eq!(dec.next_frame(), Err(FrameError::BadVersion(2)));
}

/// Version 4 removed the Forget kind and kept every other layout: a
/// version-3 peer, whose frames are otherwise the same bytes, is
/// refused by name, on the six header bytes alone.
#[test]
fn a_version_3_header_is_bad_version_3() {
    let mut frame = encode(&WireMsg::Release { ticket: 9 });
    frame[4..6].copy_from_slice(&3u16.to_le_bytes());
    assert_eq!(decode(&frame), Err(FrameError::BadVersion(3)));
    let mut dec = FrameDecoder::new();
    dec.extend(&frame[..6]);
    assert_eq!(dec.next_frame(), Err(FrameError::BadVersion(3)));
}

#[test]
fn oversized_frame_is_rejected_from_the_header_alone() {
    let mut frame = encode(&WireMsg::Release { ticket: 9 });
    frame[8..12].copy_from_slice(&(MAX_PAYLOAD + 7).to_le_bytes());
    let mut dec = FrameDecoder::new();
    dec.extend(&frame[..12]); // header only — no payload ever arrives
    assert_eq!(
        dec.next_frame(),
        Err(FrameError::Oversized(MAX_PAYLOAD + 7))
    );
}

#[test]
fn unknown_tag_and_trailing_bytes_are_corrupt() {
    // Unknown message tag, checksum recomputed to isolate the tag check.
    let mut frame = encode(&WireMsg::Release { ticket: 1 });
    frame[6] = 250;
    let fixed = refresh_checksum(&frame);
    assert_eq!(
        decode(&fixed),
        Err(FrameError::Corrupt("unknown message tag"))
    );

    // A Release payload with 4 extra bytes: length and checksum agree,
    // but the payload must be fully consumed.
    let mut frame = encode(&WireMsg::Release { ticket: 1 });
    let trailer_at = frame.len() - 8;
    frame.truncate(trailer_at); // drop the checksum
    frame.splice(trailer_at..trailer_at, [0u8; 4]); // pad the payload
    let len = 8u32 + 4;
    frame[8..12].copy_from_slice(&len.to_le_bytes());
    let fixed = refresh_checksum_no_trailer(&frame);
    assert_eq!(
        decode(&fixed),
        Err(FrameError::Corrupt("trailing bytes after payload"))
    );
}

/// Recomputes the trailing checksum of a complete frame in place.
fn refresh_checksum(frame: &[u8]) -> Vec<u8> {
    refresh_checksum_no_trailer(&frame[..frame.len() - 8])
}

/// Appends a fresh checksum to header+payload bytes.
fn refresh_checksum_no_trailer(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&adca_wire::frame::checksum(body).to_le_bytes());
    out
}
