//! Integration tests for pipelined session connections: out-of-order
//! completion, in-flight window backpressure, mid-session shutdown, and
//! coexistence with plain v1 single-shot clients.

use eel_cc::Personality;
use eel_serve::{CacheTier, Client, Payload, Request, Response, Server, ServerConfig};

fn suite_wefs() -> Vec<(String, Vec<u8>)> {
    eel_progen::suite()
        .iter()
        .map(|w| {
            let image = eel_progen::compile(w, Personality::Gcc).expect("compile workload");
            (w.name.to_string(), image.to_bytes())
        })
        .collect()
}

/// A generated (non-suite) image whose cold `instrument` takes ~200ms:
/// slow enough that frames pipelined behind it are read while it still
/// computes, even on a one-core box. (Some seeds generate programs the
/// compiler rejects; skip those.)
fn big_wef() -> Vec<u8> {
    (0..16)
        .find_map(|seed| {
            let program = eel_progen::random_program(seed, &eel_progen::GenConfig::default());
            eel_cc::compile_ast(&program, &eel_cc::Options::default()).ok()
        })
        .expect("a compilable seed")
        .to_bytes()
}

fn expect_ok(resp: Response) -> (CacheTier, Vec<u8>) {
    match resp {
        Response::Ok { tier, body, .. } => (tier, body),
        other => panic!("expected Ok, got {other:?}"),
    }
}

fn request(op: &str, wef: &[u8]) -> Request {
    Request {
        op: op.into(),
        payload: Payload::Inline(wef.to_vec()),
    }
}

/// A slow cold op pipelined behind fast ones completes *after* them:
/// fast responses overtake on the wire, proving the mux really answers
/// out of order instead of head-of-line blocking.
#[test]
fn fast_response_overtakes_slow_one() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());
    let wef = big_wef();

    let mut session = client.open_session(8).expect("open session");
    assert!(session.window() >= 5, "granted a usable window");

    // Cold instrument re-runs the whole per-routine pipeline; a ping is
    // a microsecond. Submission order: slow first, then four pings.
    let slow = session.submit(&request("instrument", &wef)).expect("slow");
    let mut pings = Vec::new();
    for _ in 0..4 {
        pings.push(
            session
                .submit(&Request {
                    op: "ping".into(),
                    payload: Payload::none(),
                })
                .expect("fast"),
        );
    }

    let mut order = Vec::new();
    for _ in 0..5 {
        let (id, resp) = session.recv().expect("reply");
        let (_, body) = expect_ok(resp);
        if id == slow {
            assert!(!body.is_empty(), "instrument returned the edited WEF");
        } else {
            assert!(pings.contains(&id));
            assert_eq!(body, b"pong");
        }
        order.push(id);
    }
    assert_ne!(
        order.first(),
        Some(&slow),
        "at least one ping overtook the cold instrument (order {order:?})"
    );

    session.goodbye().expect("goodbye");
    server.shutdown();
    server.wait();
}

/// Overflowing the granted in-flight window earns per-frame BUSY tagged
/// replies — and the connection survives to serve more requests.
#[test]
fn window_overflow_is_busy_per_frame_and_connection_survives() {
    let server = Server::start(ServerConfig {
        workers: 2,
        session_window: 1,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());
    let wef = big_wef();

    let mut session = client.open_session(64).expect("open session");
    assert_eq!(session.window(), 1, "requested window clamped to config");

    // One slow request fills the window; pile more in behind it without
    // reading anything.
    let slow = session.submit(&request("instrument", &wef)).expect("slow");
    let mut overflow = Vec::new();
    for _ in 0..4 {
        overflow.push(
            session
                .submit(&Request {
                    op: "ping".into(),
                    payload: Payload::none(),
                })
                .expect("overflow submit"),
        );
    }

    let mut busy = 0;
    let mut slow_ok = false;
    for _ in 0..5 {
        let (id, resp) = session.recv().expect("reply");
        match resp {
            Response::Busy => {
                assert!(overflow.contains(&id), "only overflow frames go BUSY");
                busy += 1;
            }
            Response::Ok { body, .. } if id == slow => {
                assert!(!body.is_empty());
                slow_ok = true;
            }
            Response::Ok { body, .. } => {
                assert!(overflow.contains(&id));
                assert_eq!(body, b"pong", "an overflow ping that squeezed in");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(slow_ok, "the admitted request was answered");
    assert!(busy >= 1, "at least one overflow frame answered BUSY");

    // The connection is still healthy after the BUSYs.
    let id = session
        .submit(&Request {
            op: "ping".into(),
            payload: Payload::none(),
        })
        .expect("post-overflow submit");
    let (rid, resp) = session.recv().expect("post-overflow reply");
    assert_eq!(rid, id);
    assert_eq!(expect_ok(resp).1, b"pong");

    session.goodbye().expect("goodbye");
    server.shutdown();
    server.wait();
}

/// A shutdown arriving mid-session: every request already admitted is
/// answered (or cleanly erred) before the connection closes, and the
/// server actually stops.
#[test]
fn mid_session_shutdown_answers_in_flight_requests() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());
    let (_, wef) = suite_wefs().into_iter().next().expect("suite non-empty");

    let mut session = client.open_session(8).expect("open session");
    let work = session.submit(&request("cfg-summary", &wef)).expect("work");
    let stop = session
        .submit(&Request {
            op: "shutdown".into(),
            payload: Payload::none(),
        })
        .expect("shutdown");

    let mut answered = std::collections::HashSet::new();
    for _ in 0..2 {
        let (id, resp) = session.recv().expect("in-flight answered");
        match resp {
            Response::Ok { .. } | Response::Err(_) => {
                answered.insert(id);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(answered.contains(&work), "analysis request answered");
    assert!(answered.contains(&stop), "shutdown request answered");

    // The server is stopping: wait() must return rather than hang, and
    // new connections fail once the listener is gone.
    server.wait();
}

/// v1 single-shot clients and session clients interoperate on one
/// server, including through the shared content-addressed cache: a
/// result computed via one path is a memory hit via the other, with
/// byte-identical bodies.
#[test]
fn v1_and_session_clients_share_the_cache() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());
    let (_, wef) = suite_wefs().into_iter().next().expect("suite non-empty");

    // v1 computes stat...
    let (tier, v1_stat) = expect_ok(client.op("stat", Payload::Inline(wef.clone())).expect("v1"));
    assert_eq!(tier, CacheTier::Computed);

    let mut session = client.open_session(4).expect("open session");
    // ...the session hits it; the session computes disasm...
    let id = session.submit(&request("stat", &wef)).expect("submit");
    let (rid, resp) = session.recv().expect("recv");
    assert_eq!(rid, id);
    let (tier, session_stat) = expect_ok(resp);
    assert_eq!(tier, CacheTier::Memory, "session hit the v1-computed entry");
    assert_eq!(session_stat, v1_stat, "identical bytes across modes");

    let id = session.submit(&request("disasm", &wef)).expect("submit");
    let (rid, resp) = session.recv().expect("recv");
    assert_eq!(rid, id);
    let (tier, session_disasm) = expect_ok(resp);
    assert_eq!(tier, CacheTier::Computed);
    session.goodbye().expect("goodbye");

    // ...and v1 hits that in turn.
    let (tier, v1_disasm) = expect_ok(client.op("disasm", Payload::Inline(wef)).expect("v1"));
    assert_eq!(tier, CacheTier::Memory, "v1 hit the session-computed entry");
    assert_eq!(v1_disasm, session_disasm);

    server.shutdown();
    server.wait();
}

/// `Client::batch` pipelines a mixed request list and returns responses
/// in request order, matching what one-connection-per-request returns.
#[test]
fn batch_returns_ordered_results_identical_to_single_shot() {
    let server = Server::start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let wefs = suite_wefs();
    let mut requests = Vec::new();
    for (_, wef) in &wefs {
        for op in ["stat", "cfg-summary"] {
            requests.push(request(op, wef));
        }
    }

    let batched = client.batch(&requests, 8).expect("batch");
    assert_eq!(batched.len(), requests.len());
    for (req, resp) in requests.iter().zip(&batched) {
        let (_, single) = expect_ok(client.request(req).expect("single-shot"));
        let Response::Ok { body, .. } = resp else {
            panic!("batch item failed: {resp:?}");
        };
        assert_eq!(
            body, &single,
            "batched {} matches its single-shot twin",
            req.op
        );
    }

    server.shutdown();
    server.wait();
}
