//! Checkpoint codec helpers shared by the adaptive scheme and the
//! baseline protocols.
//!
//! The simkit snapshot layer ([`adca_simkit::snapshot`]) provides the
//! envelope and primitive put/get pairs; this module adds the encodings
//! for protocol-infrastructure types that several `ProtocolState`
//! implementations share: [`Timestamp`], the [`CallQueue`], the
//! [`NfcWindow`], and the reference-counted [`NeighborView`].
//!
//! Every `put_*` has a `get_*` mirror that consumes exactly the bytes the
//! writer produced; decoding validates enum tags and set capacities and
//! returns [`DecodeError::Corrupt`] rather than panicking on malformed
//! input.

use crate::{CallQueue, NeighborView, NfcWindow, RegionMask, Timestamp};
use adca_hexgrid::CellId;
use adca_simkit::{DecodeError, Reader, RequestId, RequestKind, Writer};

/// Encodes a Lamport [`Timestamp`] (counter, node).
pub fn put_timestamp(w: &mut Writer, ts: Timestamp) {
    w.put_u64(ts.counter);
    w.put_u32(ts.node);
}

/// Decodes a Lamport [`Timestamp`].
pub fn get_timestamp(r: &mut Reader<'_>) -> Result<Timestamp, DecodeError> {
    let counter = r.get_u64()?;
    let node = r.get_u32()?;
    Ok(Timestamp { counter, node })
}

/// Encodes a [`RequestKind`] as a one-byte tag.
pub fn put_kind(w: &mut Writer, kind: RequestKind) {
    w.put_u8(match kind {
        RequestKind::NewCall => 0,
        RequestKind::Handoff => 1,
    });
}

/// Decodes a [`RequestKind`] tag.
pub fn get_kind(r: &mut Reader<'_>) -> Result<RequestKind, DecodeError> {
    match r.get_u8()? {
        0 => Ok(RequestKind::NewCall),
        1 => Ok(RequestKind::Handoff),
        _ => Err(DecodeError::Corrupt("request kind tag")),
    }
}

/// Encodes the pending-call FIFO head-first.
pub fn put_call_queue(w: &mut Writer, q: &CallQueue) {
    w.put_len(q.len());
    for (req, kind) in q.iter() {
        w.put_u64(req.0);
        put_kind(w, kind);
    }
}

/// Decodes a pending-call FIFO, restoring arrival order.
pub fn get_call_queue(r: &mut Reader<'_>) -> Result<CallQueue, DecodeError> {
    let n = r.get_len()?;
    let mut q = CallQueue::new();
    for _ in 0..n {
        let req = RequestId(r.get_u64()?);
        let kind = get_kind(r)?;
        q.push(req, kind);
    }
    Ok(q)
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

/// Decodes [`NfcWindow`] entries into a fresh window of size `window`.
pub fn get_nfc(r: &mut Reader<'_>, window: u64) -> Result<NfcWindow, DecodeError> {
    let n = r.get_len()?;
    let mut nfc = NfcWindow::new(window);
    let mut last = None;
    for _ in 0..n {
        let t = r.get_time()?;
        let s = r.get_u32()?;
        if last.is_some_and(|lt| lt > t) {
            return Err(DecodeError::Corrupt("NFC entries out of order"));
        }
        last = Some(t);
        nfc.restore_entry(t, s);
    }
    Ok(nfc)
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

/// Decodes a [`NeighborView`] into `fresh` (a factory-built empty view
/// over the same region). Refcounts and `I_i` are recomputed by replaying
/// `set_used`/`pledge`, so the restored view is structurally identical to
/// the snapshotted one.
pub fn get_view(r: &mut Reader<'_>, fresh: &mut NeighborView) -> Result<(), DecodeError> {
    let n = r.get_len()?;
    if n != fresh.members().len() {
        return Err(DecodeError::Corrupt("neighbor view member count"));
    }
    for i in 0..n {
        let j = r.get_cell()?;
        if fresh.members().get(i) != Some(&j) {
            return Err(DecodeError::Corrupt("neighbor view member id"));
        }
        let used = r.get_channel_set()?;
        let pledged = r.get_channel_set()?;
        for ch in used.iter() {
            fresh.set_used(j, ch);
        }
        for ch in pledged.iter() {
            fresh.pledge(j, ch);
        }
    }
    Ok(())
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

/// Decodes a [`put_region_mask`] list back into slots of `region`.
pub fn get_region_mask(r: &mut Reader<'_>, region: &[CellId]) -> Result<RegionMask, DecodeError> {
    let mut mask = RegionMask::default();
    for _ in 0..r.get_len()? {
        let slot = region
            .binary_search(&r.get_cell()?)
            .map_err(|_| DecodeError::Corrupt("outstanding cell outside the region"))?;
        mask.insert(slot);
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_hexgrid::{Channel, Spectrum};
    use adca_simkit::SimTime;

    fn round_trip<T>(
        enc: impl FnOnce(&mut Writer),
        dec: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
    ) -> T {
        let mut w = Writer::new();
        enc(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).expect("valid envelope");
        let v = dec(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes");
        v
    }

    #[test]
    fn timestamp_round_trips() {
        let ts = Timestamp {
            counter: 987,
            node: 13,
        };
        let got = round_trip(|w| put_timestamp(w, ts), get_timestamp);
        assert_eq!(got, ts);
    }

    #[test]
    fn call_queue_round_trips() {
        let mut q = CallQueue::new();
        q.push(RequestId(5), RequestKind::NewCall);
        q.push(RequestId(9), RequestKind::Handoff);
        let got = round_trip(|w| put_call_queue(w, &q), get_call_queue);
        assert_eq!(got.iter().collect::<Vec<_>>(), q.iter().collect::<Vec<_>>());
    }

    #[test]
    fn nfc_round_trips_and_predicts_identically() {
        let mut nfc = NfcWindow::new(80);
        nfc.record(SimTime(0), 10);
        nfc.record(SimTime(40), 6);
        nfc.record(SimTime(90), 4);
        let got = round_trip(|w| put_nfc(w, &nfc), |r| get_nfc(r, 80));
        assert_eq!(got.len(), nfc.len());
        for t in [0u64, 40, 80, 90, 120] {
            assert_eq!(got.get(SimTime(t)), nfc.get(SimTime(t)));
        }
        assert_eq!(
            got.predict(SimTime(90), 4, 10),
            nfc.predict(SimTime(90), 4, 10)
        );
    }

    #[test]
    fn view_round_trips_with_pledges() {
        let region = [CellId(1), CellId(2), CellId(5)];
        let mut v = NeighborView::new(Spectrum::new(16), &region);
        v.set_used(CellId(1), Channel(3));
        v.set_used(CellId(2), Channel(3));
        v.pledge(CellId(5), Channel(7));
        v.set_used(CellId(5), Channel(1));

        let mut fresh = NeighborView::new(Spectrum::new(16), &region);
        round_trip(|w| put_view(w, &v), |r| get_view(r, &mut fresh));
        assert!(fresh.check_invariants());
        for &j in &region {
            assert_eq!(fresh.used_by(j), v.used_by(j), "used of {j}");
            assert_eq!(fresh.pledged_to(j), v.pledged_to(j), "pledges of {j}");
        }
        assert_eq!(fresh.interference(), v.interference());
    }

    #[test]
    fn region_mask_round_trips_as_ascending_ids() {
        let region = [CellId(1), CellId(2), CellId(5), CellId(9)];
        let mut mask = RegionMask::full(4);
        mask.remove(1);
        let got = round_trip(
            |w| put_region_mask(w, mask, &region),
            |r| get_region_mask(r, &region),
        );
        assert_eq!(got, mask);
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

    #[test]
    fn region_mask_rejects_a_foreign_cell() {
        let mut w = Writer::new();
        w.put_len(1);
        w.put_cell(CellId(3));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert!(matches!(
            get_region_mask(&mut r, &[CellId(1), CellId(5)]),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_kind_tag_is_an_error() {
        let mut w = Writer::new();
        w.put_u8(7);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert!(matches!(get_kind(&mut r), Err(DecodeError::Corrupt(_))));
    }
}
