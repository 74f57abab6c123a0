//! The ADCW frame codec: a length-prefixed, versioned, checksummed
//! binary envelope for the service RPC vocabulary.
//!
//! Every frame is laid out as
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"ADCW"` |
//! | 4      | 2    | format version, little-endian (currently 4) |
//! | 6      | 1    | message kind tag |
//! | 7      | 1    | reserved, must be 0 |
//! | 8      | 4    | payload length, little-endian |
//! | 12     | n    | payload (fields little-endian, in declaration order) |
//! | 12 + n | 8    | [`checksum`] of bytes `[0, 12 + n)` |
//!
//! The [`checksum`] runs a multiply an 8-byte word, and any corrupted
//! byte changes it, so a flipped bit anywhere in the header or payload
//! is caught before the payload is interpreted. There is no serde and
//! no reflection: every message is encoded and decoded by hand, and
//! every decode error is a typed [`FrameError`] — malformed input can
//! never panic the peer.
//!
//! | tag | kind | direction | payload |
//! |----:|------|-----------|---------|
//! | 0 | [`Request`](WireMsg::Request) | client → server | id u64, at u64, cell u32, kind u8, hold u64, handoff flag u8 [+ ticket u64] |
//! | 1 | [`Release`](WireMsg::Release) | client → server | ticket u64 |
//! | 2 | [`Granted`](WireMsg::Granted) | server → client | id u64, ticket u64, cell u32, channel u16, latency u64 |
//! | 3 | [`Rejected`](WireMsg::Rejected) | server → client | id u64, ticket u64, cell u32, cause u8 |
//! | 4 | [`Refused`](WireMsg::Refused) | server → client | id u64, reason length u32, reason UTF-8 |
//! | 5 | [`Released`](WireMsg::Released) | server → client | ticket u64, cell u32, channel u16 |
//!
//! Version 2 added a `Forget` kind (6), which let the server drop cached
//! answers; version 3 replaced version 2's FNV-1a64 (a multiply a byte)
//! with the word-at-a-time [`checksum`]; version 4 removed `Forget`
//! with the cache. Kinds 0–5 are laid out as in version 1, and a peer
//! of another version is refused as [`FrameError::BadVersion`] naming
//! its version.

use adca_simkit::{DropCause, RequestKind};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"ADCW";
/// Wire format version this build speaks.
pub const WIRE_VERSION: u16 = 4;
/// Fixed header size (magic + version + kind + reserved + payload len).
pub const HEADER_LEN: usize = 12;
/// Trailing checksum size.
pub const TRAILER_LEN: usize = 8;
/// Upper bound on the payload length a peer will accept. Enforced from
/// the header alone, *before* any buffer grows to hold the payload, so
/// a hostile length field cannot balloon memory.
pub const MAX_PAYLOAD: u32 = 64 * 1024;

/// The checksum's odd multiplier (2⁶⁴ over the golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The checksum a frame carries in its trailer, over its header and
/// payload: one multiply a little-endian 8-byte word, the tail
/// zero-padded, from a seed that mixes in the length (so padding cannot
/// pass for data). `h ↦ ((h ^ w) · K) ^ (… >> 29)` is a bijection of
/// the state for every word and one-to-one in the word for every state,
/// so two inputs of one length that differ in a single word never share
/// a sum. The xorshift carries a multiply's high bits back down; a
/// rotate in its place misses pairs of flipped bits.
pub fn checksum(bytes: &[u8]) -> u64 {
    fn step(h: u64, w: u64) -> u64 {
        let h = (h ^ w).wrapping_mul(K);
        h ^ (h >> 29)
    }
    let mut h = step(K, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte word")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // The tail as a zero-padded little-endian word, shifted in a
        // byte at a time: a copy of a run-time length is a `memcpy` call.
        let w = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        h = step(h, w);
    }
    h
}

/// One message of the RPC vocabulary, as carried on the wire.
///
/// A `Request` carries `id`, a client-chosen **idempotency key**: a
/// connection numbers its requests 0, 1, 2, … and the server admits
/// each id once. A retransmitted id, below the next one the server
/// expects, is dropped and never re-submitted, so a retried grant is
/// never committed twice; the original's answer travels the same
/// connection and arrives once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Client → server: one channel request (new call or handoff).
    Request {
        /// Client-chosen idempotency key, unique per connection.
        id: u64,
        /// Virtual arrival tick (honoured by deterministic backends).
        at: u64,
        /// Index of the cell (MSS) the subscriber is in.
        cell: u32,
        /// New call or mobility handoff.
        kind: RequestKind,
        /// Hold time in ticks once granted.
        hold: u64,
        /// For a handoff: the server ticket of the call being moved.
        handoff_of: Option<u64>,
    },
    /// Client → server: end the call behind `ticket` early. Fire and
    /// forget — the answer, if the ticket held a channel, is a
    /// [`WireMsg::Released`] indication.
    Release {
        /// The server ticket to release.
        ticket: u64,
    },
    /// Server → client: the protocol granted a channel.
    Granted {
        /// Echo of the request's idempotency key.
        id: u64,
        /// The server-side ticket (used to hand the call off or release it).
        ticket: u64,
        /// Index of the serving cell.
        cell: u32,
        /// The granted channel number.
        channel: u16,
        /// Acquisition latency in backend ticks.
        latency: u64,
    },
    /// Server → client: the protocol denied service.
    Rejected {
        /// Echo of the request's idempotency key.
        id: u64,
        /// The server-side ticket of the denied request.
        ticket: u64,
        /// Index of the denying cell.
        cell: u32,
        /// Which failure class dropped the call.
        cause: DropCause,
    },
    /// Server → client: the request was refused at admission (it never
    /// reached the protocol; `reason` is the service error text).
    Refused {
        /// Echo of the request's idempotency key.
        id: u64,
        /// Why the service refused it.
        reason: String,
    },
    /// Server → client: a held channel returned to the pool (hold
    /// expiry, explicit release, or vacating the source of a handoff).
    Released {
        /// The ticket whose channel was returned.
        ticket: u64,
        /// Index of the cell that held it.
        cell: u32,
        /// The returned channel number.
        channel: u16,
    },
}

/// Why a frame failed to decode. Every variant is a protocol error the
/// connection should be dropped for — except that an incremental
/// decoder reports "not enough bytes yet" as `Ok(None)`, never as an
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame it claims to hold (one-shot
    /// decoding only; [`FrameDecoder`] waits for more bytes instead).
    Truncated,
    /// The first four bytes are not `b"ADCW"`.
    BadMagic,
    /// The peer speaks a different format version (named in the error).
    BadVersion(u16),
    /// The trailing [`checksum`] does not match the received bytes.
    BadChecksum,
    /// The header claims a payload larger than [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The envelope was sound but the payload was not (unknown tag,
    /// short field, trailing bytes, bad UTF-8 — the message names it).
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic (expected \"ADCW\")"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "wire format version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte limit"
                )
            }
            FrameError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

const TAG_REQUEST: u8 = 0;
const TAG_RELEASE: u8 = 1;
const TAG_GRANTED: u8 = 2;
const TAG_REJECTED: u8 = 3;
const TAG_REFUSED: u8 = 4;
const TAG_RELEASED: u8 = 5;

fn kind_tag(kind: RequestKind) -> u8 {
    match kind {
        RequestKind::NewCall => 0,
        RequestKind::Handoff => 1,
    }
}

fn cause_tag(cause: DropCause) -> u8 {
    match cause {
        DropCause::Blocked => 0,
        DropCause::RetryExhausted => 1,
        DropCause::Crashed => 2,
    }
}

impl WireMsg {
    fn tag(&self) -> u8 {
        match self {
            WireMsg::Request { .. } => TAG_REQUEST,
            WireMsg::Release { .. } => TAG_RELEASE,
            WireMsg::Granted { .. } => TAG_GRANTED,
            WireMsg::Rejected { .. } => TAG_REJECTED,
            WireMsg::Refused { .. } => TAG_REFUSED,
            WireMsg::Released { .. } => TAG_RELEASED,
        }
    }
}

/// Encodes `msg` as one complete frame.
pub fn encode(msg: &WireMsg) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    encode_into(&mut frame, msg);
    frame
}

/// Appends `msg`'s frame — exactly [`encode`]'s bytes — to `out`, in
/// place: what a side has to say collects in one buffer and leaves in
/// one `write`, with no allocation a frame.
pub fn encode_into(out: &mut Vec<u8>, msg: &WireMsg) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(msg.tag());
    out.push(0); // reserved
    out.extend_from_slice(&[0; 4]); // payload length, patched below
    match msg {
        WireMsg::Request {
            id,
            at,
            cell,
            kind,
            hold,
            handoff_of,
        } => {
            put_u64(out, *id);
            put_u64(out, *at);
            out.extend_from_slice(&cell.to_le_bytes());
            out.push(kind_tag(*kind));
            put_u64(out, *hold);
            match handoff_of {
                Some(src) => {
                    out.push(1);
                    put_u64(out, *src);
                }
                None => out.push(0),
            }
        }
        WireMsg::Release { ticket } => put_u64(out, *ticket),
        WireMsg::Granted {
            id,
            ticket,
            cell,
            channel,
            latency,
        } => {
            put_u64(out, *id);
            put_u64(out, *ticket);
            out.extend_from_slice(&cell.to_le_bytes());
            out.extend_from_slice(&channel.to_le_bytes());
            put_u64(out, *latency);
        }
        WireMsg::Rejected {
            id,
            ticket,
            cell,
            cause,
        } => {
            put_u64(out, *id);
            put_u64(out, *ticket);
            out.extend_from_slice(&cell.to_le_bytes());
            out.push(cause_tag(*cause));
        }
        WireMsg::Refused { id, reason } => {
            put_u64(out, *id);
            let bytes = reason.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        WireMsg::Released {
            ticket,
            cell,
            channel,
        } => {
            put_u64(out, *ticket);
            out.extend_from_slice(&cell.to_le_bytes());
            out.extend_from_slice(&channel.to_le_bytes());
        }
    }
    let payload = (out.len() - start - HEADER_LEN) as u32;
    debug_assert!(payload <= MAX_PAYLOAD);
    out[start + 8..start + HEADER_LEN].copy_from_slice(&payload.to_le_bytes());
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Decodes one frame from the front of `buf`, returning the message and
/// the number of bytes it consumed. A buffer that ends mid-frame is
/// [`FrameError::Truncated`] — for a byte stream that is still
/// arriving, use [`FrameDecoder`] instead.
pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), FrameError> {
    let total = match frame_len(buf)? {
        Some(total) => total,
        None => return Err(FrameError::Truncated),
    };
    let msg = check_and_parse(&buf[..total])?;
    Ok((msg, total))
}

/// Validates the fixed header at the front of `buf` and returns the
/// full frame length once enough bytes are present (`None` = the header
/// itself is still incomplete). Magic, version, and the payload-length
/// bound are checked as soon as their bytes arrive, so a garbage or
/// hostile prefix fails fast without waiting for a "payload" that will
/// never come.
fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() >= 4 && buf[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if buf.len() >= 6 {
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != WIRE_VERSION {
            return Err(FrameError::BadVersion(version));
        }
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    Ok(if buf.len() < total { None } else { Some(total) })
}

/// Verifies the checksum of one complete frame and parses its payload.
fn check_and_parse(frame: &[u8]) -> Result<WireMsg, FrameError> {
    let body_end = frame.len() - TRAILER_LEN;
    let want = u64::from_le_bytes(frame[body_end..].try_into().expect("8-byte trailer"));
    if checksum(&frame[..body_end]) != want {
        return Err(FrameError::BadChecksum);
    }
    if frame[7] != 0 {
        return Err(FrameError::Corrupt("reserved header byte is not zero"));
    }
    let mut r = Cursor {
        buf: &frame[HEADER_LEN..body_end],
        pos: 0,
    };
    let msg = match frame[6] {
        TAG_REQUEST => {
            let id = r.u64()?;
            let at = r.u64()?;
            let cell = r.u32()?;
            let kind = match r.u8()? {
                0 => RequestKind::NewCall,
                1 => RequestKind::Handoff,
                _ => return Err(FrameError::Corrupt("unknown request kind")),
            };
            let hold = r.u64()?;
            let handoff_of = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(FrameError::Corrupt("bad handoff-presence flag")),
            };
            WireMsg::Request {
                id,
                at,
                cell,
                kind,
                hold,
                handoff_of,
            }
        }
        TAG_RELEASE => WireMsg::Release { ticket: r.u64()? },
        TAG_GRANTED => WireMsg::Granted {
            id: r.u64()?,
            ticket: r.u64()?,
            cell: r.u32()?,
            channel: r.u16()?,
            latency: r.u64()?,
        },
        TAG_REJECTED => WireMsg::Rejected {
            id: r.u64()?,
            ticket: r.u64()?,
            cell: r.u32()?,
            cause: match r.u8()? {
                0 => DropCause::Blocked,
                1 => DropCause::RetryExhausted,
                2 => DropCause::Crashed,
                _ => return Err(FrameError::Corrupt("unknown drop cause")),
            },
        },
        TAG_REFUSED => {
            let id = r.u64()?;
            let len = r.u32()? as usize;
            let bytes = r.bytes(len)?;
            let reason = std::str::from_utf8(bytes)
                .map_err(|_| FrameError::Corrupt("refusal reason is not UTF-8"))?
                .to_owned();
            WireMsg::Refused { id, reason }
        }
        TAG_RELEASED => WireMsg::Released {
            ticket: r.u64()?,
            cell: r.u32()?,
            channel: r.u16()?,
        },
        _ => return Err(FrameError::Corrupt("unknown message tag")),
    };
    if r.pos != r.buf.len() {
        return Err(FrameError::Corrupt("trailing bytes after payload"));
    }
    Ok(msg)
}

/// Little-endian payload cursor; every read is bounds-checked.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::Corrupt("payload field runs past the end"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Incremental decoder over an arriving byte stream: feed it whatever
/// the socket produced with [`extend`](FrameDecoder::extend), then
/// drain complete frames with [`next_frame`](FrameDecoder::next_frame).
///
/// ```
/// use adca_wire::{encode, FrameDecoder, WireMsg};
///
/// let frame = encode(&WireMsg::Release { ticket: 7 });
/// let mut dec = FrameDecoder::new();
/// dec.extend(&frame[..5]); // a partial read…
/// assert_eq!(dec.next_frame(), Ok(None)); // …is not an error, just "not yet"
/// dec.extend(&frame[5..]);
/// assert_eq!(dec.next_frame(), Ok(Some(WireMsg::Release { ticket: 7 })));
/// assert_eq!(dec.next_frame(), Ok(None));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Where the first byte not yet consumed is: a frame is taken by
    /// moving it, and the bytes before it leave at the next `extend`.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes, after dropping the consumed ones:
    /// the bytes still waiting move once a read, not once a frame.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Takes the next complete frame: `Ok(Some(_))` and the frame's
    /// bytes are consumed, `Ok(None)` when the buffer holds only a
    /// partial frame, `Err(_)` when the stream is unrecoverable (the
    /// connection should be closed — resynchronising an ADCW stream
    /// after garbage is not attempted).
    pub fn next_frame(&mut self) -> Result<Option<WireMsg>, FrameError> {
        let rest = &self.buf[self.pos..];
        let total = match frame_len(rest)? {
            Some(total) => total,
            None => return Ok(None),
        };
        let msg = check_and_parse(&rest[..total])?;
        self.pos += total;
        Ok(Some(msg))
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message of each kind, a Request with and without a handoff.
    fn one_of_each() -> [WireMsg; 7] {
        [
            WireMsg::Request {
                id: 1,
                at: 2,
                cell: 3,
                kind: RequestKind::NewCall,
                hold: 4,
                handoff_of: None,
            },
            WireMsg::Request {
                id: 5,
                at: 6,
                cell: 7,
                kind: RequestKind::Handoff,
                hold: 8,
                handoff_of: Some(9),
            },
            WireMsg::Release { ticket: 10 },
            WireMsg::Granted {
                id: 11,
                ticket: 12,
                cell: 13,
                channel: 14,
                latency: 15,
            },
            WireMsg::Rejected {
                id: 16,
                ticket: 17,
                cell: 18,
                cause: DropCause::RetryExhausted,
            },
            WireMsg::Refused {
                id: 19,
                reason: "bad handoff: a handoff needs its source ticket".into(),
            },
            WireMsg::Released {
                ticket: 20,
                cell: 21,
                channel: 22,
            },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for msg in one_of_each() {
            let frame = encode(&msg);
            let (back, used) = decode(&frame).expect("round trip");
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
        }
    }

    /// On a frame of each kind, every flipped bit, every pair of flipped
    /// bits and every other value of any one byte — header, payload or
    /// trailer — decodes to an error: the word-at-a-time checksum misses
    /// none of what FNV-1a64 caught on the wire's own messages.
    #[test]
    fn every_flip_pair_of_flips_and_byte_change_is_rejected() {
        for msg in one_of_each() {
            let mut bad = encode(&msg);
            let bits = bad.len() * 8;
            let flip = |bad: &mut Vec<u8>, i: usize| bad[i / 8] ^= 1 << (i % 8);
            for i in 0..bits {
                flip(&mut bad, i);
                assert!(decode(&bad).is_err(), "{msg:?}: bit {i} went unnoticed");
                for j in i + 1..bits {
                    flip(&mut bad, j);
                    assert!(
                        decode(&bad).is_err(),
                        "{msg:?}: bits {i} and {j} went unnoticed"
                    );
                    flip(&mut bad, j);
                }
                flip(&mut bad, i);
            }
            for at in 0..bad.len() {
                let was = bad[at];
                for v in (0..=u8::MAX).filter(|&v| v != was) {
                    bad[at] = v;
                    assert!(
                        decode(&bad).is_err(),
                        "{msg:?}: byte {at} = {v} went unnoticed"
                    );
                }
                bad[at] = was;
            }
        }
    }

    #[test]
    fn version_mismatch_names_both_versions() {
        let mut frame = encode(&WireMsg::Release { ticket: 1 });
        frame[4..6].copy_from_slice(&7u16.to_le_bytes());
        let err = decode(&frame).unwrap_err();
        assert_eq!(err, FrameError::BadVersion(7));
        let text = err.to_string();
        assert!(
            text.contains('7') && text.contains(&WIRE_VERSION.to_string()),
            "got {text:?}"
        );
    }

    #[test]
    fn oversized_length_fails_from_the_header_alone() {
        let mut frame = encode(&WireMsg::Release { ticket: 1 });
        frame[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        // Only the 12 header bytes: the bound must trip before any
        // payload is waited for (or allocated).
        let mut dec = FrameDecoder::new();
        dec.extend(&frame[..HEADER_LEN]);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn two_frames_in_one_read_both_decode() {
        let a = encode(&WireMsg::Release { ticket: 1 });
        let b = encode(&WireMsg::Release { ticket: 2 });
        let mut dec = FrameDecoder::new();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        dec.extend(&joined);
        assert_eq!(dec.next_frame(), Ok(Some(WireMsg::Release { ticket: 1 })));
        assert_eq!(dec.next_frame(), Ok(Some(WireMsg::Release { ticket: 2 })));
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.buffered(), 0);
    }

    /// The checksum as the format states it, over an explicitly
    /// zero-padded copy: every length of tail gives the same sum.
    #[test]
    fn the_checksum_is_the_stated_word_recurrence() {
        let step = |h: u64, w: u64| {
            let h = (h ^ w).wrapping_mul(K);
            h ^ (h >> 29)
        };
        let bytes: Vec<u8> = (1..=17).collect();
        for n in 0..=bytes.len() {
            let mut padded = bytes[..n].to_vec();
            padded.resize(n.div_ceil(8) * 8, 0);
            let want = padded.chunks(8).fold(step(K, n as u64), |h, w| {
                step(h, u64::from_le_bytes(w.try_into().expect("8-byte word")))
            });
            assert_eq!(checksum(&bytes[..n]), want, "{n} bytes");
        }
    }

    /// A read of 1 000 frames and half of one more: every frame decodes
    /// with the buffer left where it was, the half waits, and the next
    /// read drops what was consumed before it completes the frame.
    #[test]
    fn a_read_is_consumed_in_place_and_compacted_at_the_next() {
        let frame = |ticket| encode(&WireMsg::Release { ticket });
        let mut read: Vec<u8> = (0..1_000).flat_map(frame).collect();
        let last = frame(1_000);
        let half = last.len() / 2;
        read.extend_from_slice(&last[..half]);
        let mut dec = FrameDecoder::new();
        dec.extend(&read);
        for ticket in 0..1_000 {
            assert_eq!(dec.next_frame(), Ok(Some(WireMsg::Release { ticket })));
        }
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.buffered(), half);
        assert_eq!(dec.buf.len(), read.len(), "no frame moved the buffer");
        dec.extend(&last[half..]);
        assert_eq!(dec.buf.len(), last.len());
        assert_eq!(
            dec.next_frame(),
            Ok(Some(WireMsg::Release { ticket: 1_000 }))
        );
        assert_eq!(dec.buffered(), 0);
    }
}
