//! Loopback integration tests: a real server on 127.0.0.1 exercised by
//! concurrent clients over progen workloads.

use eel_cc::Personality;
use eel_exe::Image;
use eel_serve::{CacheTier, Client, Payload, Request, Response, Server, ServerConfig};
use std::sync::Mutex;
use std::time::Duration;

/// The two backpressure tests rely on sleep-based timing; they take this
/// lock so they never run while the compute-heavy tests are hogging the
/// cores on the parallel test harness.
static TIMING: Mutex<()> = Mutex::new(());

fn suite_wefs() -> Vec<(String, Vec<u8>)> {
    eel_progen::suite()
        .iter()
        .map(|w| {
            let image = eel_progen::compile(w, Personality::Gcc).expect("compile workload");
            (w.name.to_string(), image.to_bytes())
        })
        .collect()
}

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

/// The tentpole acceptance test: N concurrent clients firing identical
/// requests dedupe onto one computation; a follow-up request is an LRU
/// hit; the metrics op shows the hit counters; shutdown is clean (wait()
/// propagates any worker panic).
#[test]
fn concurrent_clients_dedupe_onto_one_computation() {
    let server = Server::start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr().to_string();
    let client = Client::connect(addr.clone());

    let (tier, body) = expect_ok(client.control("ping").expect("ping"));
    assert!(!tier.is_hit());
    assert_eq!(body, b"pong");

    let (name, wef) = suite_wefs().into_iter().next().expect("suite non-empty");

    // 8 concurrent identical requests: single-flight means exactly one
    // computes; the others join it (reported as cached) or hit the LRU.
    const CLIENTS: usize = 8;
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let client = Client::connect(addr.clone());
        let wef = wef.clone();
        handles.push(std::thread::spawn(move || {
            expect_ok(
                client
                    .op("cfg-summary", Payload::Inline(wef))
                    .expect("cfg-summary"),
            )
        }));
    }
    let results: Vec<(CacheTier, Vec<u8>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let bodies: Vec<&Vec<u8>> = results.iter().map(|(_, b)| b).collect();
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "all {CLIENTS} clients saw the identical result for {name}"
    );
    assert!(!bodies[0].is_empty());

    // A later identical request is a straight LRU hit.
    let (tier, _) = expect_ok(
        client
            .op("cfg-summary", Payload::Inline(wef.clone()))
            .expect("repeat"),
    );
    assert_eq!(tier, CacheTier::Memory, "second identical request hits");

    // A different op over the same image misses the result cache but
    // reuses the shared analysis.
    let (tier, stat_body) = expect_ok(client.op("stat", Payload::Inline(wef)).expect("stat"));
    assert_eq!(tier, CacheTier::Computed, "different op, different key");
    assert!(String::from_utf8(stat_body).unwrap().contains("routines:"));

    let (_, metrics) = expect_ok(client.control("metrics").expect("metrics"));
    let metrics = String::from_utf8(metrics).expect("metrics are text");
    let computed = metric(&metrics, "counter", "serve.ops.cfg-summary.computed")
        .expect("computed counter present");
    assert_eq!(
        computed, 1,
        "single-flight: one computation for {CLIENTS} clients\n{metrics}"
    );
    let hits = metric(&metrics, "counter", "serve.cache.hit").expect("hit counter present");
    assert!(
        hits >= CLIENTS as u64,
        "joiners + repeat all counted as hits\n{metrics}"
    );
    assert!(metric(&metrics, "counter", "serve.cache.miss").unwrap_or(0) >= 2);

    let (_, body) = expect_ok(client.control("shutdown").expect("shutdown"));
    assert_eq!(body, b"shutting down");
    server.wait(); // panics if any worker/acceptor thread panicked
}

/// `instrument` returns a valid edited WEF whose behavior matches the
/// original, end to end over the wire.
#[test]
fn instrument_round_trips_over_the_wire() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let w = eel_progen::spim_like(50);
    let image = eel_progen::compile(&w, Personality::Gcc).expect("compile");
    let original = eel_emu::run_image(&image).expect("run original");

    let (_, wef) = expect_ok(
        client
            .op("instrument", Payload::Inline(image.to_bytes()))
            .expect("instrument"),
    );
    let edited = Image::from_bytes(&wef).expect("edited WEF parses");
    let outcome = eel_emu::run_image(&edited).expect("run edited");
    assert_eq!(outcome.exit_code, original.exit_code);

    server.shutdown();
    server.wait();
}

/// Distinct cold images whose `instrument` each takes ~200ms: the wedge
/// load for the backpressure tests. Distinct hashes matter — identical
/// images would single-flight onto one computation and free the
/// executors early. (Some seeds generate programs the compiler rejects;
/// skip those.)
fn wedge_wefs(n: usize) -> Vec<Vec<u8>> {
    let wefs: Vec<Vec<u8>> = (0..64)
        .filter_map(|seed| {
            let program = eel_progen::random_program(seed, &eel_progen::GenConfig::default());
            eel_cc::compile_ast(&program, &eel_cc::Options::default()).ok()
        })
        .map(|img| img.to_bytes())
        .take(n)
        .collect();
    assert_eq!(wefs.len(), n, "enough compilable seeds");
    wefs
}

/// Saturates the whole executor pool through one session (session jobs
/// are admitted by the in-flight window, not the v1 queue) and returns
/// the open session so the wedge stays pending until it is dropped.
fn wedge_executors(client: &Client, wefs: &[Vec<u8>]) -> eel_serve::Session {
    let mut session = client
        .open_session(wefs.len() as u32)
        .expect("open wedge session");
    for wef in wefs {
        session
            .submit(&Request {
                op: "instrument".into(),
                payload: Payload::Inline(wef.clone()),
            })
            .expect("submit wedge");
    }
    session
}

/// With every executor wedged and the 1-deep admission queue full, the
/// reactor answers a fresh one-shot with BUSY at decode time — no
/// executor involvement, metered under `serve.conn.busy`.
#[test]
fn bounded_queue_overflows_to_busy() {
    let _serial = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 1,
        timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr();
    let client = Client::connect(addr.to_string());

    // Sixteen slow session jobs keep both executors busy back to back
    // well past the two sleeps below (~800ms on a 2-core release build).
    let mut wedge = wedge_executors(&client, &wedge_wefs(16));
    std::thread::sleep(Duration::from_millis(150));

    // The filler is admitted (queue depth 1) and waits for an executor;
    // it must be answered eventually, just late.
    let filler = {
        let client = client.clone();
        std::thread::spawn(move || client.control("ping").expect("filler completes"))
    };
    std::thread::sleep(Duration::from_millis(100));

    let resp = client.control("ping").expect("exchange completes");
    assert_eq!(resp, Response::Busy, "full admission queue answers BUSY");

    // Drain the wedge; everything admitted still completes.
    for _ in 0..16 {
        let (_, resp) = wedge.recv().expect("wedge reply");
        expect_ok(resp);
    }
    wedge.goodbye().expect("goodbye");
    assert_eq!(filler.join().unwrap(), {
        Response::Ok {
            tier: CacheTier::Computed,
            body: b"pong".to_vec(),
            fragments: None,
            discovery: None,
            machine: None,
        }
    });

    let (_, metrics) = expect_ok(client.control("metrics").expect("metrics"));
    let metrics = String::from_utf8(metrics).expect("metrics are text");
    assert!(
        metric(&metrics, "counter", "serve.conn.busy").unwrap_or(0) >= 1,
        "reactor BUSY is metered\n{metrics}"
    );

    server.shutdown();
    server.wait();
}

/// A one-shot that waited for an executor longer than the timeout budget
/// is answered with a timeout error, not served stale.
#[test]
fn queued_request_past_deadline_times_out() {
    let _serial = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr();
    let client = Client::connect(addr.to_string()).with_timeout(Some(Duration::from_secs(30)));

    // Sixteen slow session jobs sit ahead of the ping in the executor
    // channel; by the time an executor dequeues the ping (~800ms in on a
    // 2-core release build), its queue age is far past the 250ms budget.
    let mut wedge = wedge_executors(&client, &wedge_wefs(16));
    std::thread::sleep(Duration::from_millis(100));

    let resp = client.control("ping").expect("exchange completes");
    match resp {
        Response::Err(msg) => assert!(msg.contains("timed out"), "unexpected error: {msg}"),
        other => panic!("expected queue-timeout error, got {other:?}"),
    }

    for _ in 0..16 {
        let (_, resp) = wedge.recv().expect("wedge reply");
        expect_ok(resp);
    }
    wedge.goodbye().expect("goodbye");
    server.shutdown();
    server.wait();
}

/// Path payloads are read server-side; a missing path is a clean error.
#[test]
fn path_payloads_and_errors() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let dir = std::env::temp_dir().join(format!("eel-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("spim.wef");
    let w = eel_progen::spim_like(40);
    let image = eel_progen::compile(&w, Personality::Gcc).expect("compile");
    image.write_file(&path).expect("write WEF");

    let (_, body) = expect_ok(
        client
            .op("stat", Payload::Path(path.display().to_string()))
            .expect("stat via path"),
    );
    assert!(String::from_utf8(body).unwrap().contains("routines:"));

    match client
        .op(
            "stat",
            Payload::Path(dir.join("absent.wef").display().to_string()),
        )
        .expect("exchange completes")
    {
        Response::Err(msg) => assert!(msg.contains("cannot read")),
        other => panic!("expected error for missing path, got {other:?}"),
    }

    match client.control("frobnicate").expect("exchange completes") {
        Response::Err(msg) => assert!(msg.contains("unknown op")),
        other => panic!("expected unknown-op error, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
    server.wait();
}
