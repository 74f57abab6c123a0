//! A state's identity: a 128-bit digest of the value's [`Hash`].
//!
//! A state is named by its value, not by a byte form of it. Nodes,
//! messages and the engine's records derive [`Hash`], so a field cannot
//! be left out of the identity: a derived impl lists every field. What
//! a node is given when it is built, the same in every state of a run,
//! is wrapped in a [`RunInput`], which compares equal and hashes to
//! nothing; what it holds is hashed. The model
//! checker merges states by [`StateHasher::finish128`];
//! [`Engine::state_digests`](crate::Engine::state_digests) gives one
//! digest per engine section, which the golden-digest tests pin and
//! `Scenario::checkpoint_probe` compares.
//!
//! The hasher folds every write into two 64-bit lanes, one multiply
//! each a word. `usize`/`isize` writes (lengths, and the discriminant a
//! derived `Hash` writes for an enum) are widened to 64 bits, so a
//! digest does not depend on pointer width; the count of bytes absorbed
//! is mixed in at the end. A digest never leaves the process except as
//! a pinned golden, so it needs no stability across toolchains beyond
//! what those pins record.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Multipliers of the two lanes (odd, with bits spread over the word).
const K0: u64 = 0x9E37_79B9_7F4A_7C15;
const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The folded multiply: the 128-bit product's halves, xored.
#[inline(always)]
fn fold(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The [`Hasher`] a state's identity is taken with (see the module
/// docs). [`finish128`](Self::finish128) is the identity; the trait's
/// `finish` returns its low lane.
#[derive(Debug, Clone)]
pub struct StateHasher {
    a: u64,
    b: u64,
    bytes: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher {
            a: K1,
            b: K0,
            bytes: 0,
        }
    }
}

impl StateHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        StateHasher::default()
    }

    /// The 128-bit digest of `value`.
    pub fn digest<T: Hash + ?Sized>(value: &T) -> u128 {
        let mut h = StateHasher::new();
        value.hash(&mut h);
        h.finish128()
    }

    /// Folds one word into both lanes.
    #[inline(always)]
    fn word(&mut self, w: u64) {
        self.a = fold(self.a ^ w, K0);
        self.b = fold(self.b.rotate_left(29) ^ w, K1);
    }

    /// Bytes absorbed so far: the width of every integer written (64
    /// bits for `usize`/`isize`) plus the length of every byte slice.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The digest of everything written, the byte count mixed in.
    pub fn finish128(&self) -> u128 {
        let a = fold(self.a ^ self.bytes, K1);
        let b = fold(self.b ^ self.bytes.rotate_left(32), K0);
        (u128::from(a) << 64) | u128::from(b)
    }
}

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.finish128() as u64
    }

    /// A byte slice opens with its length, so that the 0xff a `str`
    /// ends with cannot be moved across the zero padding of the last
    /// word; then it goes in as little-endian words.
    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
        self.bytes += bytes.len() as u64;
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
        self.bytes += 1;
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
        self.bytes += 2;
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
        self.bytes += 4;
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
        self.bytes += 8;
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// Sign-extended to 64 bits (the trait's default, `write_usize(i as
    /// usize)`, would zero-extend a negative value on a 32-bit target).
    /// The other signed writes default to their unsigned twins.
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }
}

/// A value a node is given when it is built and that is the same in
/// every state of one run (its spectrum, its primary set, its region,
/// the run's configuration), so it is not part of a state's identity:
/// every `RunInput` equals every other and its [`Hash`] writes nothing.
/// A node wraps each field that no transition assigns and derives
/// `PartialEq`, `Eq` and `Hash`; everything else it holds is compared
/// and hashed.
///
/// It reads through [`Deref`] and has no `DerefMut`, so a transition
/// cannot change what it holds:
///
/// ```compile_fail,E0594
/// let mut alpha = adca_simkit::RunInput::new(3u32);
/// *alpha = 4;
/// ```
#[repr(transparent)]
#[derive(Clone, Copy)]
pub struct RunInput<T>(T);

impl<T> RunInput<T> {
    /// Wraps a value fixed for the run.
    pub const fn new(value: T) -> Self {
        RunInput(value)
    }
}

impl<T> Deref for RunInput<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> PartialEq for RunInput<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for RunInput<T> {}

impl<T> Hash for RunInput<T> {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// The wrapped value's rendering: a node prints as it did unwrapped.
impl<T: fmt::Debug> fmt::Debug for RunInput<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn lanes(d: u128) -> (u64, u64) {
        ((d >> 64) as u64, d as u64)
    }

    /// Requires every digest to differ from every other in both lanes.
    fn assert_distinct_lanes(digests: &[u128]) {
        let (hi, lo): (HashSet<u64>, HashSet<u64>) = digests.iter().map(|&d| lanes(d)).unzip();
        assert_eq!(hi.len(), digests.len(), "two digests share a high lane");
        assert_eq!(lo.len(), digests.len(), "two digests share a low lane");
    }

    /// Every `(cell, tag, count)` triple over small ranges — the shape
    /// of a model-checker timer entry, where neighbouring states differ
    /// by one in one field.
    #[test]
    fn small_structured_triples_are_distinct_in_both_lanes() {
        let mut digests = Vec::new();
        for cell in 0u32..8 {
            for tag in 0u64..64 {
                for count in 0u32..8 {
                    let mut h = StateHasher::new();
                    h.write_u32(cell);
                    h.write_u64(tag);
                    h.write_u32(count);
                    digests.push(h.finish128());
                }
            }
        }
        assert_distinct_lanes(&digests);
    }

    /// Every single-bit flip of a 64-byte buffer moves both lanes, and
    /// no two flips land on one digest.
    #[test]
    fn every_bit_flip_moves_both_lanes() {
        let base: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let digest = |buf: &[u8]| {
            let mut h = StateHasher::new();
            h.write(buf);
            h.finish128()
        };
        let mut digests = vec![digest(&base)];
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            digests.push(digest(&flipped));
        }
        assert_distinct_lanes(&digests);
    }

    /// A slice's length goes in as 64 bits whatever the pointer width:
    /// a `Vec<u16>` hashes as an explicit `write_u64` of its length and
    /// then its elements' bytes.
    #[test]
    fn a_length_is_a_u64() {
        let v: Vec<u16> = vec![1, 0x0203, 0xfffe];
        let mut explicit = StateHasher::new();
        explicit.write_u64(v.len() as u64);
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        explicit.write(&bytes);
        assert_eq!(StateHasher::digest(&v), explicit.finish128());
        assert_eq!(explicit.bytes(), 8 + 6);
    }

    /// A `RunInput` field changes neither `==`, nor the digest, nor the
    /// count of bytes hashed.
    #[test]
    fn a_run_input_is_outside_the_identity() {
        let (a, b) = ((1u32, RunInput::new(5u64)), (1u32, RunInput::new(6u64)));
        assert_eq!(a, b);
        assert_eq!(StateHasher::digest(&a), StateHasher::digest(&1u32));
        assert_eq!(StateHasher::digest(&a), StateHasher::digest(&b));
        let mut h = StateHasher::new();
        a.hash(&mut h);
        assert_eq!(h.bytes(), 4);
        assert_ne!((1u32, RunInput::new(5u64)), (2u32, RunInput::new(5u64)));
    }

    /// The byte count keeps a string's terminator from moving across
    /// the zero padding, and one value split across two fields apart.
    #[test]
    fn strings_and_splits_stay_apart() {
        assert_ne!(
            StateHasher::digest(&("a", "a\0")),
            StateHasher::digest(&("a\0", "a"))
        );
        assert_ne!(StateHasher::digest(&0u64), StateHasher::digest(&0u32));
        assert_ne!(
            StateHasher::digest(&(Some(1u8), None::<u8>)),
            StateHasher::digest(&(None::<u8>, Some(1u8)))
        );
    }
}
