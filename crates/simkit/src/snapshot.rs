//! The engine snapshot's wire format and the [`ProtocolState`] trait
//! protocols implement to ride along.
//!
//! A snapshot is a canonical byte form of a state, not a restart point:
//! nothing decodes one. Two engines built from the same inputs and run
//! to the same tick snapshot to the same bytes, the model checker hashes
//! a state's [`Writer`] payload as its identity, and the golden-digest
//! tests pin [`section_digests`] of a run's final snapshot.
//!
//! The workspace builds offline (the vendored `serde` is a stub), so the
//! format is hand-rolled and deliberately simple:
//!
//! ```text
//! ┌─────────┬─────────┬─────────────┬─────────┬────────────┬──────────┐
//! │ magic 8 │ version │ payload_len │ payload │ marks table│ checksum │
//! │  bytes  │   u32   │     u64     │  bytes  │            │ FNV-1a64 │
//! └─────────┴─────────┴─────────────┴─────────┴────────────┴──────────┘
//! ```
//!
//! * All integers are little-endian; `f64` travels as its IEEE-754 bits.
//! * The **marks table** is a side index of `(name, payload offset)`
//!   pairs recorded by [`Writer::mark`]. The payload is a pure byte
//!   stream; the marks let [`section_digests`] attribute a per-field
//!   digest to every named region, so a golden-digest test failure names
//!   the drifted field instead of "some byte differed".
//! * The trailing checksum covers everything before it. Any bit flip or
//!   truncation yields a typed [`DecodeError`] from [`section_digests`];
//!   it never panics on foreign bytes.
//!
//! # Versioning
//!
//! [`FORMAT_VERSION`] identifies the envelope **and** the engine payload
//! layout: any change to the serialized engine or protocol state bumps
//! it, and [`section_digests`] rejects every version but its own
//! ([`DecodeError::BadVersion`]). No section is optional — an empty
//! collection travels as a zero length. Protocol layouts are
//! additionally named by [`ProtocolState::STATE_ID`] (e.g.
//! `"adaptive/v1"`), the first field of every snapshot.

use crate::sm::StateMachine;
use crate::time::SimTime;
use adca_hexgrid::{CellId, Channel, ChannelSet};
use std::collections::BTreeMap;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"ADCASNAP";

/// Current snapshot format version (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 3;

/// Why [`section_digests`] refused a snapshot's envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared structure did.
    Truncated,
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    BadVersion(u32),
    /// The trailing FNV-1a checksum does not match the bytes.
    BadChecksum,
    /// The checksum held but the marks table is malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "snapshot truncated"),
            DecodeError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            DecodeError::BadVersion(v) => {
                write!(f, "snapshot format version {v} (expected {FORMAT_VERSION})")
            }
            DecodeError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            DecodeError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64-bit, folded over `bytes` starting from `state` (use
/// [`FNV_OFFSET`] for a fresh digest).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Serializer for the snapshot payload.
///
/// Plain little-endian primitives plus helpers for the simulator's common
/// composite types. Call [`Writer::mark`] before each logical section so
/// [`section_digests`] can name it.
#[derive(Default)]
pub struct Writer {
    payload: Vec<u8>,
    marks: Vec<(&'static str, u64)>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Records a named mark at the current payload offset. Repeated names
    /// are allowed (e.g. one `"adaptive.mode"` per node); their regions
    /// fold into one digest per name.
    pub fn mark(&mut self, name: &'static str) {
        self.marks.push((name, self.payload.len() as u64));
    }

    /// Empties the payload and marks, keeping their allocations, so one
    /// writer can serialize many values in turn.
    pub fn clear(&mut self) {
        self.payload.clear();
        self.marks.clear();
    }

    /// The payload written so far: the raw puts, with no envelope.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.payload.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length prefix (collection sizes).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.payload.extend_from_slice(s.as_bytes());
    }

    /// Appends an `Option<u64>`.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a [`SimTime`].
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.ticks());
    }

    /// Appends a [`CellId`].
    pub fn put_cell(&mut self, c: CellId) {
        self.put_u32(c.0);
    }

    /// Appends a [`Channel`].
    pub fn put_channel(&mut self, ch: Channel) {
        self.put_u16(ch.0);
    }

    /// Appends a [`ChannelSet`] as `(capacity, count, member ids…)` —
    /// sparse, so near-empty sets (the common case) stay tiny.
    pub fn put_channel_set(&mut self, s: &ChannelSet) {
        self.put_u16(s.capacity());
        self.put_u16(s.len() as u16);
        for ch in s.iter() {
            self.put_channel(ch);
        }
    }

    /// Seals the payload into a full snapshot: envelope, marks table,
    /// trailing checksum.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&(self.marks.len() as u32).to_le_bytes());
        for (name, off) in &self.marks {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&off.to_le_bytes());
        }
        let digest = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }
}

/// `(name, offset-or-digest)` pairs for the snapshot's named sections.
type Marks = Vec<(String, u64)>;

/// Validates a snapshot envelope and returns `(payload, marks)`.
fn open(bytes: &[u8]) -> Result<(&[u8], Marks), DecodeError> {
    // Envelope head: magic + version + payload_len.
    if bytes.len() < 8 + 4 + 8 + 4 + 8 {
        return Err(DecodeError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    // Checksum before trusting any length field beyond the fixed head.
    let body_len = bytes.len() - 8;
    let declared = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
    if fnv1a(FNV_OFFSET, &bytes[..body_len]) != declared {
        return Err(DecodeError::BadChecksum);
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let payload_end = 20usize
        .checked_add(payload_len)
        .ok_or(DecodeError::Truncated)?;
    if payload_end + 4 > body_len {
        return Err(DecodeError::Truncated);
    }
    let payload = &bytes[20..payload_end];
    let mut pos = payload_end;
    let nmarks = u32::from_le_bytes(
        bytes[pos..pos + 4]
            .try_into()
            .expect("bounds checked above"),
    ) as usize;
    pos += 4;
    let mut marks = Vec::new();
    for _ in 0..nmarks {
        if pos + 2 > body_len {
            return Err(DecodeError::Truncated);
        }
        let nlen = u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("2 bytes")) as usize;
        pos += 2;
        if pos + nlen + 8 > body_len {
            return Err(DecodeError::Truncated);
        }
        let name = std::str::from_utf8(&bytes[pos..pos + nlen])
            .map_err(|_| DecodeError::Corrupt("mark name is not UTF-8"))?
            .to_owned();
        pos += nlen;
        let off = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        if off as usize > payload.len() {
            return Err(DecodeError::Corrupt("mark offset beyond payload"));
        }
        pos += 8;
        marks.push((name, off));
    }
    if pos != body_len {
        return Err(DecodeError::Corrupt("trailing bytes after marks table"));
    }
    Ok((payload, marks))
}

/// Per-section digests of a snapshot, in first-appearance order.
///
/// Each mark opens a region running to the next mark (of any name) or the
/// payload end; regions sharing a name — per-node protocol marks — fold
/// into one FNV-1a digest per name. Golden-digest tests diff this list so
/// a semantic drift in, say, the predictor window fails CI as
/// `adaptive.nfc`, not as an opaque byte difference.
pub fn section_digests(bytes: &[u8]) -> Result<Vec<(String, u64)>, DecodeError> {
    let (payload, marks) = open(bytes)?;
    let mut order: Vec<String> = Vec::new();
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    for (i, (name, off)) in marks.iter().enumerate() {
        let start = *off as usize;
        let end = marks
            .get(i + 1)
            .map_or(payload.len(), |(_, next)| *next as usize);
        if end < start {
            return Err(DecodeError::Corrupt("marks are not in offset order"));
        }
        let state = *digests.entry(name.clone()).or_insert_with(|| {
            order.push(name.clone());
            FNV_OFFSET
        });
        digests.insert(name.clone(), fnv1a(state, &payload[start..end]));
    }
    Ok(order
        .into_iter()
        .map(|name| {
            let d = digests[&name];
            (name, d)
        })
        .collect())
}

/// Snapshot-able protocol state: what a scheme must provide for its
/// per-cell nodes (and in-flight messages) to ride in an engine snapshot
/// and to name a model-checker state.
///
/// Implementations serialize **only dynamic state**. Everything the node
/// factory derives from `(cell, topology, config)` — interference
/// regions, primary allotments, tunables — is left out.
///
/// The contract is *completeness*: two nodes of one run that encode to
/// the same bytes are equal, and so are two messages. The checker merges
/// states by their bytes, so a dynamic field left out merges states that
/// differ; its test `a_repeated_identity_is_an_equal_state` compares
/// every merged pair by value.
pub trait ProtocolState: StateMachine {
    /// Stable identifier of this scheme's serialized layout (bump the
    /// suffix on any layout change), the first field of a snapshot.
    const STATE_ID: &'static str;

    /// Serializes the node's dynamic state. Use [`Writer::mark`] with
    /// `"<scheme>.<field>"` names so golden digests can name drift.
    fn encode_state(&self, w: &mut Writer);

    /// Serializes one in-flight wire message (the payload of a queued
    /// delivery event).
    fn encode_msg(msg: &Self::Msg, w: &mut Writer);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes a snapshot is hashed and digested as: little-endian
    /// primitives, a length-prefixed string, an option's tag and a
    /// channel set's `(capacity, count, members)`.
    #[test]
    fn puts_write_the_documented_bytes() {
        let mut w = Writer::new();
        w.put_u16(0x0102);
        w.put_u32(0x0304_0506);
        w.put_f64(-1.5);
        w.put_bool(true);
        w.put_str("ab");
        w.put_opt_u64(None);
        w.put_time(SimTime(7));
        w.put_cell(CellId(3));
        w.put_channel_set(&ChannelSet::from_iter_sized(70, [Channel(0), Channel(69)]));
        let mut want = vec![0x02, 0x01, 0x06, 0x05, 0x04, 0x03];
        want.extend_from_slice(&(-1.5f64).to_bits().to_le_bytes());
        want.extend_from_slice(&[1, 2, 0, 0, 0, b'a', b'b', 0]);
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&[3, 0, 0, 0, 70, 0, 2, 0, 0, 0, 69, 0]);
        assert_eq!(w.payload(), &want[..]);
    }

    fn sealed() -> Vec<u8> {
        let mut w = Writer::new();
        w.mark("sec");
        for i in 0..32u64 {
            w.put_u64(i);
        }
        w.finish()
    }

    #[test]
    fn bit_flips_are_caught() {
        let bytes = sealed();
        assert!(section_digests(&bytes).is_ok());
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(section_digests(&bad).is_err(), "flip at {pos} not caught");
        }
    }

    #[test]
    fn truncations_are_caught() {
        let bytes = sealed();
        for n in 0..bytes.len() {
            assert!(section_digests(&bytes[..n]).is_err(), "truncation to {n}");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let bytes = Writer::new().finish();
        // 1 and 2 are retired layouts (1: trace fields, optional
        // partitions; 2: link horizons as a region table and a spill
        // list).
        for version in [1u8, 2, 99] {
            let mut bad = bytes.clone();
            bad[8] = version;
            // Re-seal so only the version differs.
            let body = bad.len() - 8;
            let sum = fnv1a(FNV_OFFSET, &bad[..body]);
            bad[body..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                section_digests(&bad),
                Err(DecodeError::BadVersion(version as u32))
            );
        }
        assert_eq!(
            section_digests(b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
            Err(DecodeError::BadMagic)
        );
    }

    #[test]
    fn section_digests_name_repeated_marks() {
        let mut w = Writer::new();
        w.mark("head");
        w.put_u64(1);
        for v in [2u64, 3] {
            w.mark("node");
            w.put_u64(v);
        }
        let a = section_digests(&w.finish()).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].0, "head");
        assert_eq!(a[1].0, "node");

        // Changing one node's bytes changes only the "node" digest.
        let mut w = Writer::new();
        w.mark("head");
        w.put_u64(1);
        for v in [2u64, 4] {
            w.mark("node");
            w.put_u64(v);
        }
        let b = section_digests(&w.finish()).unwrap();
        assert_eq!(a[0], b[0]);
        assert_ne!(a[1].1, b[1].1);
    }
}
