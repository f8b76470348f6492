//! Loopback tests for the `edit` write path: a kind-2 payload carries a
//! WEF plus a command script; the server replies with the edited image,
//! content-addressed by `(image_hash, script_hash)`.

use eel_exe::Image;
use eel_serve::{CacheTier, Client, Payload, Request, Response, Server, ServerConfig};

fn expect_ok(resp: Response) -> (CacheTier, Vec<u8>) {
    match resp {
        Response::Ok { tier, body, .. } => (tier, body),
        other => panic!("expected Ok, got {other:?}"),
    }
}

fn metric(metrics: &str, kind: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|l| {
        let rest = l.strip_prefix(&format!("{kind} {name} "))?;
        rest.parse().ok()
    })
}

fn two_routine_wef() -> Vec<u8> {
    let src = "fn helper(x) { return x * 3 + 1; }\n\
               fn main() { var i; var t = 0;\n\
                 for (i = 0; i < 5; i = i + 1) { t = t + helper(i); }\n\
                 print(t); return t; }\n";
    let image = eel_cc::compile_str(src, &eel_cc::Options::default()).expect("compile");
    image.to_bytes()
}

/// The acceptance path: an edit request computes once, the identical
/// request is a memory hit with a byte-identical body, and the edited
/// image still behaves like the original under the emulator.
#[test]
fn second_identical_edit_request_is_a_byte_identical_cache_hit() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let wef = two_routine_wef();
    let script = "counter main\ncounter helper\napply\n";

    let (tier, edited) = expect_ok(client.edit(wef.clone(), script).expect("edit"));
    assert_eq!(tier, CacheTier::Computed, "first request computes");
    assert_ne!(edited, wef, "counters change the image");

    let original = eel_emu::run_image(&Image::from_bytes(&wef).unwrap()).expect("run original");
    let outcome = eel_emu::run_image(&Image::from_bytes(&edited).unwrap()).expect("run edited");
    assert_eq!(outcome.exit_code, original.exit_code);

    let (tier, again) = expect_ok(client.edit(wef.clone(), script).expect("repeat edit"));
    assert_eq!(tier, CacheTier::Memory, "second identical request hits");
    assert_eq!(again, edited, "cache returns the identical bytes");

    // A different script over the same image is a different cache key.
    let (tier, other) = expect_ok(
        client
            .edit(wef.clone(), "counter main\napply\n")
            .expect("edit"),
    );
    assert_eq!(tier, CacheTier::Computed);
    assert_ne!(other, edited);

    // The obs registry is process-global (shared across tests in this
    // binary), so assert presence and a floor rather than an exact count.
    let (_, metrics) = expect_ok(client.control("metrics").expect("metrics"));
    let metrics = String::from_utf8(metrics).expect("metrics are text");
    let computed = metric(&metrics, "counter", "serve.ops.edit.computed")
        .expect("edit computed counter present");
    assert!(computed >= 2, "two distinct scripts computed\n{metrics}");

    server.shutdown();
    server.wait();
}

/// Edit requests ride the pipelined v2 session protocol unchanged — the
/// frame encoding is shared with one-shot requests.
#[test]
fn edit_requests_flow_through_a_pipelined_session() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let wef = two_routine_wef();
    let script = "counter helper\napply\n";
    let req = Request {
        op: "edit".into(),
        payload: Payload::Edit {
            wef: wef.clone(),
            script: script.into(),
        },
    };

    let mut session = client.open_session(0).expect("open session");
    let first = session.submit(&req).expect("submit");
    let second = session.submit(&req).expect("submit");
    let mut replies = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, resp) = session.recv().expect("recv");
        replies.insert(id, resp);
    }
    session.goodbye().expect("goodbye");

    // The two submissions may reach the executors in either order, so
    // pin the dedupe without an order premise: exactly one computes and
    // the other joins or hits it.
    let (tier_a, a) = expect_ok(replies.remove(&first).expect("first reply"));
    let (tier_b, b) = expect_ok(replies.remove(&second).expect("second reply"));
    assert_eq!(a, b, "same session, same bytes");
    let computed = [tier_a, tier_b]
        .iter()
        .filter(|t| **t == CacheTier::Computed)
        .count();
    assert_eq!(
        computed, 1,
        "exactly one submission computes: {tier_a:?}, {tier_b:?}"
    );
    assert!(Image::from_bytes(&a).is_ok(), "body is a valid WEF");

    server.shutdown();
    server.wait();
}

/// Script and payload mistakes are clean protocol errors, not hangs.
#[test]
fn edit_errors_are_reported_cleanly() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = Client::connect(server.local_addr().to_string());
    let wef = two_routine_wef();

    match client
        .edit(wef.clone(), "counter no_such_routine\n")
        .expect("exchange completes")
    {
        Response::Err(msg) => assert!(msg.contains("no routine named"), "got: {msg}"),
        other => panic!("expected script error, got {other:?}"),
    }

    match client
        .op("edit", Payload::Inline(wef))
        .expect("exchange completes")
    {
        Response::Err(msg) => assert!(msg.contains("kind-2"), "got: {msg}"),
        other => panic!("expected payload-kind error, got {other:?}"),
    }

    match client
        .op(
            "stat",
            Payload::Edit {
                wef: Vec::new(),
                script: String::new(),
            },
        )
        .expect("exchange completes")
    {
        Response::Err(msg) => assert!(msg.contains("edit payload"), "got: {msg}"),
        other => panic!("expected payload-kind error, got {other:?}"),
    }

    server.shutdown();
    server.wait();
}
