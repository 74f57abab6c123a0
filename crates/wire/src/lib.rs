//! A real TCP wire transport for the `adca-serve` serving layer.
//!
//! Everything below `AllocService` in this workspace is in-process;
//! this crate puts the service on an actual socket:
//!
//! * [`frame`] — the hand-rolled ADCW frame codec: length-prefixed,
//!   versioned binary envelopes with a word-at-a-time checksum for the full
//!   request/confirm/indication vocabulary (including handoffs). No
//!   serde; malformed bytes decode to typed errors, never panics.
//! * [`WireServer`] — a [`TcpListener`](std::net::TcpListener) front
//!   for any `AllocService + Clone` backend. Each connection gets a
//!   reader/writer worker pair; a reader submitting into a full
//!   bounded mailbox simply blocks, which closes the client's TCP
//!   window — backpressure propagates socket-deep with no unbounded
//!   queue anywhere.
//! * [`WireClient`] — a pipelining client with per-request deadlines
//!   that reads its own socket on the driver's thread: no thread of
//!   its own and no lock, and a wait that ends at the earlier of its
//!   own end and the oldest request's deadline. What it submits
//!   between two `recv`s leaves in one `write`, and each request is
//!   written once: the connection is a reliable FIFO link, and a
//!   request with no answer by its deadline times out. Requests carry
//!   idempotency ids, and the server keeps one a connection, the id it
//!   expects next: it drops a repeated id below it, so a duplicate can
//!   never double-commit a grant, and the original's answer arrives
//!   once on the same connection. It is itself an
//!   [`AllocService`](adca_serve::AllocService), so anything written
//!   against the trait drives a socket unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{deadline_wheel, WireClient, WireClientConfig, WireDeadline, WireEvent};
pub use frame::{
    decode, encode, encode_into, FrameDecoder, FrameError, WireMsg, MAX_PAYLOAD, WIRE_VERSION,
};
pub use server::WireServer;
