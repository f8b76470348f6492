//! Golden-frame tests: the exact bytes a live daemon writes for a few
//! fixed exchanges, pinned as hex. Any change to the reply encoding, the
//! session handshake, or the trailing discovery/machine extension shows
//! up here as a byte diff.

use eel_exe::{Image, Machine, Symbol, DATA_BASE, TEXT_BASE};
use eel_serve::{Payload, Request, Server, ServerConfig, SessionFrame, SessionReply};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn control(op: &str) -> Request {
    Request {
        op: op.into(),
        payload: Payload::none(),
    }
}

/// Sends `bytes` on a fresh connection and returns everything the
/// daemon writes before it closes.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    s.write_all(bytes).expect("write");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read to close");
    raw
}

fn v1(addr: SocketAddr, req: &Request) -> Vec<u8> {
    raw_exchange(addr, &frame(&req.encode()))
}

/// One session: `Hello` for `window`, the request (if any) tagged 7,
/// then `Goodbye`.
fn v2(addr: SocketAddr, window: u32, req: Option<Request>) -> Vec<u8> {
    let mut bytes = frame(&SessionFrame::Hello { window }.encode());
    if let Some(request) = req {
        bytes.extend_from_slice(&frame(&SessionFrame::Request { id: 7, request }.encode()));
    }
    bytes.extend_from_slice(&frame(&SessionFrame::Goodbye.encode()));
    raw_exchange(addr, &bytes)
}

/// A three-word image (addu / jr $ra / nop) that decodes under both the
/// SPARC and MIPS descriptions, with one named routine unless stripped.
fn tiny_wef(machine: Machine, stripped: bool) -> Vec<u8> {
    let mut image = Image::new(TEXT_BASE, DATA_BASE);
    for w in [0x0085_1021u32, 0x03e0_0008, 0] {
        image.text.extend_from_slice(&w.to_be_bytes());
    }
    image.entry = TEXT_BASE;
    if !stripped {
        image.symbols.push(Symbol::routine("f", TEXT_BASE));
    }
    image.with_machine(machine).to_bytes()
}

/// Splits a single-frame reply stream into the bytes ahead of the
/// response body (length prefix aside) and the bytes after it — the
/// trailing extensions. `head` is the number of bytes before the
/// response's status byte: 1 for v1 (version), 10 for a tagged reply
/// (version, kind, id).
fn head_and_tail(raw: &[u8], head: usize) -> (String, String) {
    let len = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize;
    assert_eq!(raw.len(), 4 + len, "exactly one frame");
    let body = &raw[4..];
    let at = head + 2;
    let body_len = u32::from_be_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
    let end = at + 4 + body_len as usize;
    (hex(&body[..at]), hex(&body[end..]))
}

#[test]
fn replies_match_the_recorded_bytes() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr();

    // v1 ping: length 11, version 1, status ok, tier computed, "pong".
    assert_eq!(
        hex(&v1(addr, &control("ping"))),
        "0000000b01000000000004706f6e67"
    );
    // v1 unknown op: status error, tier 0, the message as the body.
    assert_eq!(
        hex(&v1(addr, &control("frobnicate"))),
        "0000001e01010000000017756e6b6e6f776e206f70202266726f626e696361746522"
    );

    // The HelloAck alone: a window of 0 is granted the default of 32.
    assert_eq!(hex(&v2(addr, 0, None)), "00000006028000000020");
    // v2 ping: HelloAck for window 4, then the reply tagged 7.
    assert_eq!(
        hex(&v2(addr, 4, Some(control("ping")))),
        "00000006028000000004\
         00000014028100000000000000070000\
         00000004706f6e67"
    );
    // v2 unknown op.
    assert_eq!(
        hex(&v2(addr, 4, Some(control("frobnicate")))),
        "00000006028000000004\
         00000027028100000000000000070100\
         00000017756e6b6e6f776e206f70202266726f626e696361746522"
    );

    // A computed stat: status ok, tier computed, and after the body the
    // discovery byte (0 symbols / 1 inferred) then the machine byte
    // (0 SPARC / 1 MIPS). Each image is distinct, so each computes.
    let stat = |wef: Vec<u8>| Request {
        op: "stat".into(),
        payload: Payload::Inline(wef),
    };
    for (machine, stripped, tail) in [
        (Machine::Sparc, false, "0000"),
        (Machine::Mips, false, "0001"),
        (Machine::Sparc, true, "0100"),
    ] {
        let raw = v1(addr, &stat(tiny_wef(machine, stripped)));
        assert_eq!(
            head_and_tail(&raw, 1),
            ("010000".to_string(), tail.to_string()),
            "{machine:?} stripped={stripped}"
        );
    }
    let raw = v2(addr, 4, Some(stat(tiny_wef(Machine::Mips, true))));
    let ack = frame(&SessionReply::HelloAck { window: 4 }.encode());
    assert_eq!(hex(&raw[..ack.len()]), hex(&ack));
    assert_eq!(
        head_and_tail(&raw[ack.len()..], 10),
        ("028100000000000000070000".to_string(), "0101".to_string())
    );

    server.shutdown();
    server.wait();
}
