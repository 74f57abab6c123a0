//! A client starts no thread: its driver reads the socket itself. Its
//! own test binary, so that no other test's threads come and go while
//! the count is taken. Linux only: the count is read from `/proc`.

#![cfg(target_os = "linux")]

use adca_wire::{deadline_wheel, WireClient, WireClientConfig};
use std::net::TcpListener;

/// The threads of this process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Connecting adds no thread to the process: the count taken after the
/// wheel is built (it starts one of its own) is the count once the
/// client is connected.
#[test]
fn a_client_starts_no_thread() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let wheel = deadline_wheel();
    let before = threads();
    let client = WireClient::connect(
        listener.local_addr().expect("addr"),
        WireClientConfig::default(),
        &wheel,
    )
    .expect("connect");
    let (_peer, _) = listener.accept().expect("accept");
    assert_eq!(threads(), before, "connect started a thread");
    drop(client);
}
