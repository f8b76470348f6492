//! Loopback integration tests: a real server on 127.0.0.1 exercised by
//! concurrent clients over progen workloads.

use eel_cc::Personality;
use eel_exe::Image;
use eel_serve::{CacheTier, Client, Payload, Request, Response, Server, ServerConfig};
use std::ffi::CString;
use std::io::Write;
use std::os::unix::ffi::OsStrExt;
use std::path::PathBuf;
use std::time::Duration;

extern "C" {
    fn mkfifo(path: *const core::ffi::c_char, mode: core::ffi::c_uint) -> i32;
}

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

/// Executors held busy until [`Held::release`]: each hold is a session
/// `stat` of a FIFO, and the executor that dequeues it blocks in
/// `std::fs::read` until the test writes an image and closes the FIFO.
struct Held {
    session: eel_serve::Session,
    writers: Vec<std::fs::File>,
    dir: PathBuf,
}

/// Holds `n` executors through one session (session jobs are admitted by
/// the in-flight window, not the v1 queue). Returns once every hold has
/// an executor: opening a FIFO's write end blocks until a reader opens
/// it.
fn hold_executors(client: &Client, name: &str, n: usize) -> Held {
    let dir = std::env::temp_dir().join(format!("eel-serve-hold-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut session = client.open_session(n as u32).expect("open hold session");
    let fifos: Vec<PathBuf> = (0..n)
        .map(|i| {
            let fifo = dir.join(format!("hold{i}"));
            let cpath = CString::new(fifo.as_os_str().as_bytes()).expect("path has no NUL");
            // SAFETY: `cpath` is a NUL-terminated path that outlives the call.
            let rc = unsafe { mkfifo(cpath.as_ptr(), 0o600) };
            assert_eq!(rc, 0, "mkfifo {}", fifo.display());
            session
                .submit(&Request {
                    op: "stat".into(),
                    payload: Payload::Path(fifo.display().to_string()),
                })
                .expect("submit hold");
            fifo
        })
        .collect();
    let writers = fifos
        .iter()
        .map(|fifo| {
            std::fs::OpenOptions::new()
                .write(true)
                .open(fifo)
                .expect("open hold FIFO")
        })
        .collect();
    Held {
        session,
        writers,
        dir,
    }
}

impl Held {
    /// Feeds every held executor a small image and checks each `stat`
    /// reply.
    fn release(mut self) {
        let wef = eel_cc::compile_str("fn main() { return 3; }", &eel_cc::Options::default())
            .expect("compile")
            .to_bytes();
        let n = self.writers.len();
        for mut writer in self.writers.drain(..) {
            writer.write_all(&wef).expect("write hold FIFO");
        }
        for _ in 0..n {
            let (_, resp) = self.session.recv().expect("hold reply");
            expect_ok(resp);
        }
        self.session.goodbye().expect("goodbye");
        std::fs::remove_dir_all(&self.dir).expect("remove hold FIFOs");
    }
}

/// With every executor held and the 1-deep admission queue full, the
/// reactor answers a fresh one-shot with BUSY at decode time — no
/// executor involvement, metered under `serve.conn.busy`.
#[test]
fn bounded_queue_overflows_to_busy() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 1,
        timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr();
    let client = Client::connect(addr.to_string());

    let held = hold_executors(&client, "busy", 2);

    // Two pings race for the one queue slot. The reactor admits one,
    // which waits for an executor and must be answered eventually, just
    // late; it answers the other BUSY at once.
    let (tx, rx) = std::sync::mpsc::channel();
    let pings: Vec<_> = (0..2)
        .map(|_| {
            let (client, tx) = (client.clone(), tx.clone());
            std::thread::spawn(move || {
                let resp = client.control("ping").expect("exchange completes");
                tx.send(resp).expect("the test waits for both pings");
            })
        })
        .collect();
    let first = rx.recv().expect("first ping answered");
    assert_eq!(first, Response::Busy, "full admission queue answers BUSY");

    // Release the executors; everything admitted still completes.
    held.release();
    assert_eq!(rx.recv().expect("admitted ping answered"), {
        Response::Ok {
            tier: CacheTier::Computed,
            body: b"pong".to_vec(),
            fragments: None,
            discovery: None,
            machine: None,
        }
    });
    for ping in pings {
        ping.join().expect("ping thread");
    }

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
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr();
    let client = Client::connect(addr.to_string()).with_timeout(Some(Duration::from_secs(30)));

    // Both executors are held, so the ping waits in the queue until they
    // are released, four budgets later: an executor then finds it past
    // its deadline.
    let held = hold_executors(&client, "deadline", 2);
    let ping = {
        let client = client.clone();
        std::thread::spawn(move || client.control("ping").expect("exchange completes"))
    };
    std::thread::sleep(Duration::from_millis(1000));
    held.release();

    match ping.join().unwrap() {
        Response::Err(msg) => assert!(msg.contains("timed out"), "unexpected error: {msg}"),
        other => panic!("expected queue-timeout error, got {other:?}"),
    }
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
