//! Per-node FIFO of outstanding call requests.
//!
//! The paper's node serializes channel acquisitions (`pending_i` is a
//! single flag, `rounds` a single counter): while one acquisition is in
//! flight, further calls arriving at the MSS queue behind it. Every scheme
//! in this workspace shares this queueing discipline via [`CallQueue`].

use adca_simkit::{RequestId, RequestKind};
use std::collections::VecDeque;

/// FIFO of `(request, kind)` pairs awaiting service at one MSS.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CallQueue {
    q: VecDeque<(RequestId, RequestKind)>,
}

impl CallQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an incoming acquisition request.
    pub fn push(&mut self, req: RequestId, kind: RequestKind) {
        self.q.push_back((req, kind));
    }

    /// The request at the head (currently being served or next up).
    pub fn front(&self) -> Option<(RequestId, RequestKind)> {
        self.q.front().copied()
    }

    /// Removes and returns the head request.
    pub fn pop(&mut self) -> Option<(RequestId, RequestKind)> {
        self.q.pop_front()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = CallQueue::new();
        q.push(RequestId(1), RequestKind::NewCall);
        q.push(RequestId(2), RequestKind::Handoff);
        assert_eq!(q.len(), 2);
        assert_eq!(q.front(), Some((RequestId(1), RequestKind::NewCall)));
        assert_eq!(q.pop(), Some((RequestId(1), RequestKind::NewCall)));
        assert_eq!(q.pop(), Some((RequestId(2), RequestKind::Handoff)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
