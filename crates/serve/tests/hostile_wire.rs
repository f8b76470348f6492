//! Hostile-wire tests against a live daemon: malformed, truncated,
//! oversized, stalled and out-of-protocol byte streams sent over a raw
//! `TcpStream`. Every case must end in an error reply or a clean close
//! (never a hang, a reset or a panic), and the daemon must keep serving
//! fresh connections afterwards and shut down cleanly.

use eel_serve::{Request, Response, Server, ServerConfig, SessionFrame, SessionReply, MAX_FRAME};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// The daemon's per-request budget in these tests: short enough that
/// the stall cases finish quickly, long enough that every other case
/// (which sends its bytes at once) never trips it.
const TIMEOUT: Duration = Duration::from_secs(1);

/// Prefixes `body` with its 4-byte big-endian length.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

fn hello() -> Vec<u8> {
    frame(&SessionFrame::Hello { window: 4 }.encode())
}

fn goodbye() -> Vec<u8> {
    frame(&SessionFrame::Goodbye.encode())
}

fn ping_v1() -> Vec<u8> {
    frame(
        &Request {
            op: "ping".into(),
            payload: eel_serve::Payload::none(),
        }
        .encode(),
    )
}

/// Writes `bytes`, optionally half-closes, then reads until the server
/// closes the connection, and splits what arrived into frame bodies.
/// A partial trailing frame, a reset, or a read timeout fails the test.
fn exchange(addr: SocketAddr, bytes: &[u8], half_close: bool) -> Vec<Vec<u8>> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    s.write_all(bytes).expect("write");
    if half_close {
        s.shutdown(Shutdown::Write).expect("half close");
    }
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .expect("server closes cleanly (EOF, not a reset or a hang)");
    split_frames(&raw)
}

fn split_frames(mut raw: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while !raw.is_empty() {
        assert!(raw.len() >= 4, "partial length prefix: {raw:02x?}");
        let len = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize;
        assert!(raw.len() >= 4 + len, "partial frame body");
        frames.push(raw[4..4 + len].to_vec());
        raw = &raw[4 + len..];
    }
    frames
}

/// Asserts a single untagged error reply whose message contains `needle`.
fn assert_v1_error(frames: &[Vec<u8>], needle: &str) {
    assert_eq!(frames.len(), 1, "exactly one reply frame");
    match Response::decode(&frames[0]).expect("v1 reply decodes") {
        Response::Err(msg) => assert!(msg.contains(needle), "{msg:?} lacks {needle:?}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

fn assert_hello_ack(frame: &[u8]) {
    assert_eq!(
        SessionReply::decode(frame).expect("session reply decodes"),
        SessionReply::HelloAck { window: 4 }
    );
}

/// Asserts a tagged error reply with id 0 whose message contains `needle`.
fn assert_tagged_error(frame: &[u8], needle: &str) {
    match SessionReply::decode(frame).expect("session reply decodes") {
        SessionReply::Tagged {
            id: 0,
            response: Response::Err(msg),
        } => assert!(msg.contains(needle), "{msg:?} lacks {needle:?}"),
        other => panic!("expected a tagged error with id 0, got {other:?}"),
    }
}

#[test]
fn hostile_streams_end_in_an_error_or_a_clean_close() {
    let server = Server::start(ServerConfig {
        workers: 2,
        timeout: TIMEOUT,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr();

    // An empty first frame: no version byte at all.
    assert_v1_error(&exchange(addr, &frame(&[]), false), "bad request");

    // An unknown version byte.
    assert_v1_error(
        &exchange(addr, &frame(&[9, 0, 4, b'p', b'i', b'n', b'g', 0]), false),
        "unsupported protocol version 9",
    );

    // A v1 request cut short inside its op name.
    assert_v1_error(
        &exchange(addr, &frame(&[1, 0, 5, b'p', b'i']), false),
        "truncated frame",
    );

    // A payload kind no version defines.
    assert_v1_error(
        &exchange(addr, &frame(&[1, 0, 4, b'p', b'i', b'n', b'g', 7]), false),
        "unknown payload kind 7",
    );

    // A length prefix one past the frame cap.
    assert_v1_error(
        &exchange(addr, &(MAX_FRAME + 1).to_be_bytes(), false),
        "exceeds MAX_FRAME",
    );

    // EOF in the middle of a frame: the prefix promises 16 bytes, 3 come.
    let mut partial = 16u32.to_be_bytes().to_vec();
    partial.extend_from_slice(&[1, 0, 4]);
    assert_v1_error(&exchange(addr, &partial, true), "closed mid-frame");

    // No first frame before the deadline: an explicit timeout error.
    assert_v1_error(&exchange(addr, &[], false), "timed out waiting for request");

    // A v1 connection carries exactly one request; a second frame is
    // ignored and the connection closes after the one reply.
    let mut two = ping_v1();
    two.extend_from_slice(&ping_v1());
    let frames = exchange(addr, &two, false);
    assert_eq!(frames.len(), 1, "one reply for a one-shot connection");
    match Response::decode(&frames[0]).expect("v1 reply decodes") {
        Response::Ok { body, .. } => assert_eq!(body, b"pong"),
        other => panic!("expected pong, got {other:?}"),
    }

    // A session frame before any Hello.
    let early = frame(&SessionFrame::Goodbye.encode());
    let frames = exchange(addr, &early, false);
    assert_eq!(frames.len(), 1);
    assert_tagged_error(&frames[0], "session must open with Hello");

    // Garbage after Hello poisons the stream: tagged error, then close.
    let mut garbage = hello();
    garbage.extend_from_slice(&frame(&[0xde, 0xad, 0xbe, 0xef]));
    let frames = exchange(addr, &garbage, false);
    assert_eq!(frames.len(), 2);
    assert_hello_ack(&frames[0]);
    assert_tagged_error(&frames[1], "bad session frame");

    // A duplicate Hello is refused per frame; the session survives
    // until the Goodbye.
    let mut dup = hello();
    dup.extend_from_slice(&hello());
    dup.extend_from_slice(&goodbye());
    let frames = exchange(addr, &dup, false);
    assert_eq!(frames.len(), 2);
    assert_hello_ack(&frames[0]);
    assert_tagged_error(&frames[1], "duplicate Hello");

    // A session Request cut short inside its id.
    let mut truncated = hello();
    truncated.extend_from_slice(&frame(&[2, 1, 0, 0, 0]));
    let frames = exchange(addr, &truncated, false);
    assert_eq!(frames.len(), 2);
    assert_hello_ack(&frames[0]);
    assert_tagged_error(&frames[1], "truncated frame");

    // Frames after Goodbye are never admitted: no reply, clean close.
    let mut after = hello();
    after.extend_from_slice(&goodbye());
    after.extend_from_slice(&frame(
        &SessionFrame::Request {
            id: 1,
            request: Request {
                op: "ping".into(),
                payload: eel_serve::Payload::none(),
            },
        }
        .encode(),
    ));
    let frames = exchange(addr, &after, false);
    assert_eq!(frames.len(), 1, "only the HelloAck");
    assert_hello_ack(&frames[0]);

    // A session frame that stalls mid-transfer past the deadline: the
    // framing is lost, so the session closes without a reply.
    let mut stalled = hello();
    stalled.extend_from_slice(&[0, 0, 0, 32, 2, 1]);
    let frames = exchange(addr, &stalled, false);
    assert_eq!(frames.len(), 1, "only the HelloAck");
    assert_hello_ack(&frames[0]);

    // Unknown ops under 200 distinct 1 KiB names: each gets an error
    // reply, and all of them share `serve.latency.unknown`, so none adds
    // a metric name to the registry.
    let one_shot = |op: &str| {
        let request = Request {
            op: op.into(),
            payload: eel_serve::Payload::none(),
        };
        exchange(addr, &frame(&request.encode()), false)
    };
    let metric_lines = || {
        let frames = one_shot("metrics");
        assert_eq!(frames.len(), 1);
        match Response::decode(&frames[0]).expect("v1 reply decodes") {
            Response::Ok { body, .. } => String::from_utf8(body).expect("utf-8 metrics"),
            other => panic!("expected metrics, got {other:?}"),
        }
    };
    let metric_names = |text: &str| -> std::collections::BTreeSet<String> {
        let name = |line: &str| line.split_whitespace().nth(1).unwrap_or("").to_string();
        text.lines().map(name).collect()
    };
    // Warm up the names the probe itself records: an unknown op's and
    // the `metrics` op's own latency (recorded after it renders).
    assert_v1_error(&one_shot("warm-up-unknown-op"), "unknown op");
    metric_lines();
    let before = metric_names(&metric_lines());
    let names: Vec<String> = (0..200)
        .map(|i| format!("{i:04}{}", "u".repeat(1020)))
        .collect();
    for name in &names {
        assert_v1_error(&one_shot(name), "unknown op");
    }
    let metrics = metric_lines();
    for line in metrics.lines() {
        assert!(
            !names.iter().any(|name| line.contains(name.as_str())),
            "a client-chosen op name reached the metrics: {line:.80}"
        );
    }
    assert_eq!(
        metric_names(&metrics),
        before,
        "the probe added metric names"
    );
    let unknown = metrics
        .lines()
        .find_map(|line| line.strip_prefix("histogram serve.latency.unknown count="))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .expect("a serve.latency.unknown histogram");
    assert!(unknown >= 200, "serve.latency.unknown count={unknown}");

    // The daemon still serves a well-formed client.
    let frames = exchange(addr, &ping_v1(), false);
    assert_eq!(frames.len(), 1);
    match Response::decode(&frames[0]).expect("v1 reply decodes") {
        Response::Ok { body, .. } => assert_eq!(body, b"pong"),
        other => panic!("expected pong, got {other:?}"),
    }

    server.shutdown();
    server.wait(); // panics if the reactor or an executor panicked
}
