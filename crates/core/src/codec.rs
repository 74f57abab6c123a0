//! Snapshot encodings shared by the adaptive scheme and the baseline
//! protocols.
//!
//! The simkit snapshot layer ([`adca_simkit::snapshot`]) provides the
//! envelope and the primitive puts; this module adds the encodings for
//! protocol-infrastructure types that several `ProtocolState`
//! implementations share: [`Timestamp`], the [`CallQueue`], the
//! [`NfcWindow`], and the reference-counted [`NeighborView`].

use crate::{CallQueue, NeighborView, NfcWindow, RegionMask, Timestamp};
use adca_hexgrid::CellId;
use adca_simkit::{RequestKind, Writer};

/// Encodes a Lamport [`Timestamp`] (counter, node).
pub fn put_timestamp(w: &mut Writer, ts: Timestamp) {
    w.put_u64(ts.counter);
    w.put_u32(ts.node);
}

/// Encodes a [`RequestKind`] as a one-byte tag.
pub fn put_kind(w: &mut Writer, kind: RequestKind) {
    w.put_u8(match kind {
        RequestKind::NewCall => 0,
        RequestKind::Handoff => 1,
    });
}

/// Encodes the pending-call FIFO head-first.
pub fn put_call_queue(w: &mut Writer, q: &CallQueue) {
    w.put_len(q.len());
    for (req, kind) in q.iter() {
        w.put_u64(req.0);
        put_kind(w, kind);
    }
}

/// Encodes the retained `(t, s)` entries of an [`NfcWindow`]. The window
/// size is configuration, not state, and is not serialized.
pub fn put_nfc(w: &mut Writer, nfc: &NfcWindow) {
    w.put_len(nfc.len());
    for (t, s) in nfc.entries() {
        w.put_time(t);
        w.put_u32(s);
    }
}

/// Encodes the dynamic content of a [`NeighborView`]: per-member used and
/// pledged sets. Membership, slot table, refcounts, and the cached
/// interference set are all derivable and not serialized.
pub fn put_view(w: &mut Writer, view: &NeighborView) {
    w.put_len(view.members().len());
    for &j in view.members() {
        w.put_cell(j);
        w.put_channel_set(&view.used_by(j));
        w.put_channel_set(&view.pledged_to(j));
    }
}

/// Encodes the members of the sorted `region` still outstanding in
/// `mask`, as a count and their ascending cell ids (the bytes the
/// `BTreeSet<CellId>` this mask replaced produced).
pub fn put_region_mask(w: &mut Writer, mask: RegionMask, region: &[CellId]) {
    w.put_len(mask.len());
    for s in mask.iter() {
        w.put_cell(region[s]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_mask_encodes_as_ascending_ids() {
        let region = [CellId(1), CellId(2), CellId(5), CellId(9)];
        let mut mask = RegionMask::full(4);
        mask.remove(1);
        // The wire form is the id list a `BTreeSet<CellId>` wrote.
        let mut by_mask = Writer::new();
        put_region_mask(&mut by_mask, mask, &region);
        let mut by_ids = Writer::new();
        by_ids.put_len(3);
        for j in [CellId(1), CellId(5), CellId(9)] {
            by_ids.put_cell(j);
        }
        assert_eq!(by_mask.finish(), by_ids.finish());
    }
}
