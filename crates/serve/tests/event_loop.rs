//! Event-loop integration tests: connection scalability (threads must
//! not scale with connections), slow-consumer write-buffer pushback, and
//! shutdown drain under a thousand open sessions.

use eel_serve::{CacheTier, Client, Payload, Request, Response, Server, ServerConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Both tests assert process-wide facts (thread counts, metric
/// counters); serialize them so neither sees the other's server.
static SERIAL: Mutex<()> = Mutex::new(());

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads line")
}

/// The thread count once it has stopped changing: three equal reads
/// 50 ms apart, or the last read after 5 s. When `SERIAL` is handed over,
/// the previous test's harness thread may still be exiting, so a single
/// read can count a thread that is about to vanish.
fn settled_thread_count() -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = thread_count();
    let mut equal_reads = 1;
    while equal_reads < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = thread_count();
        equal_reads = if now == last { equal_reads + 1 } else { 1 };
        last = now;
    }
    last
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

/// A generated (non-suite) image whose cold `instrument` takes ~200ms.
fn slow_wef() -> Vec<u8> {
    (0..16)
        .find_map(|seed| {
            let program = eel_progen::random_program(seed, &eel_progen::GenConfig::default());
            eel_cc::compile_ast(&program, &eel_cc::Options::default()).ok()
        })
        .expect("a compilable seed")
        .to_bytes()
}

/// The scalability acceptance test: 1024 concurrent idle v2 sessions add
/// **zero** threads (connections cost fds and buffers under the reactor,
/// not threads), every session still gets served, and a mid-session
/// shutdown answers in-flight work before the daemon exits.
#[test]
fn thousand_idle_sessions_add_no_threads_and_drain_on_shutdown() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let baseline = settled_thread_count();
    let mut sessions = Vec::with_capacity(1024);
    for n in 0..1024 {
        sessions.push(
            client
                .open_session(4)
                .unwrap_or_else(|e| panic!("open session {n}: {e}")),
        );
    }
    let with_sessions = thread_count();
    assert_eq!(
        with_sessions, baseline,
        "1024 idle sessions must not add threads (reactor + fixed pool only)"
    );
    assert!(
        with_sessions < 32,
        "total thread budget stays fixed, got {with_sessions}"
    );

    // The sessions are live, not just parked: a sample spread across
    // the whole set still gets answered.
    let ping = Request {
        op: "ping".into(),
        payload: Payload::none(),
    };
    for session in sessions.iter_mut().step_by(128) {
        let id = session.submit(&ping).expect("submit ping");
        let (rid, resp) = session.recv().expect("recv pong");
        assert_eq!(rid, id);
        let (_, body) = expect_ok(resp);
        assert_eq!(body, b"pong");
    }

    // Shutdown drain: a slow request in flight when shutdown lands is
    // still answered before the connection closes.
    let mut last = sessions.pop().expect("a session");
    let id = last
        .submit(&Request {
            op: "instrument".into(),
            payload: Payload::Inline(slow_wef()),
        })
        .expect("submit slow request");
    server.shutdown();
    let (rid, resp) = last.recv().expect("in-flight request answered");
    assert_eq!(rid, id);
    expect_ok(resp);

    drop(sessions);
    drop(last);
    server.wait();
}

/// A session client that submits a window of large-result requests but
/// reads nothing trips the per-connection write-buffer high-water mark:
/// the reactor stops reading from it (`serve.reactor.pushback`), the
/// rest of the server stays responsive, and once the client finally
/// drains, every reply arrives byte-identical to a one-shot exchange.
#[test]
fn slow_consumer_trips_pushback_and_loses_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServerConfig {
        workers: 2,
        session_window: 256,
        // A deliberately tiny high-water mark so one instrument reply
        // (a whole edited WEF) overflows it.
        write_hwm: 1024,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr().to_string();
    let client = Client::connect(addr.clone());

    // A big image served via a path payload: request frames stay tiny
    // (the client never blocks submitting) while replies — whole edited
    // WEFs — are large enough that a window of them overflows any
    // kernel socket buffering and lands in the server's write buffer.
    let dir = std::env::temp_dir().join(format!("eel-evloop-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("big.wef");
    let mut src = String::from("global acc;\n");
    for i in 0..160 {
        src.push_str(&format!(
            "fn f{i}() {{\n  var x = acc + {i};\n  var j;\n  \
             for (j = 0; j < 3; j = j + 1) {{ x = x * 3 + j; x = x ^ {i}; }}\n  \
             acc = x & 65535;\n  return 0;\n}}\n"
        ));
    }
    src.push_str("fn main() {\n");
    for i in 0..160 {
        src.push_str(&format!("  f{i}();\n"));
    }
    src.push_str("  print(acc);\n  return acc & 255;\n}\n");
    let image =
        eel_cc::compile_str(&src, &eel_cc::Options::default()).expect("compile big program");
    image.write_file(&path).expect("write WEF");
    let req = Request {
        op: "instrument".into(),
        payload: Payload::Path(path.display().to_string()),
    };
    let (_, expected) = expect_ok(client.request(&req).expect("one-shot instrument"));

    // 256 replies at ~57 KB each is ~15 MB — several times anything the
    // kernel can absorb (tcp_wmem caps the send side at 4 MB and the
    // unread client's receive window stays near its 128 KB default), so
    // the overflow must land in the server's write buffer.
    let mut session = client.open_session(256).expect("open session");
    const N: usize = 256;
    let mut ids = Vec::new();
    for _ in 0..N {
        ids.push(session.submit(&req).expect("submit"));
    }

    // Don't read anything yet; wait for the server to hit the mark.
    // (The replies are cache hits after the warm-up, so they pile into
    // the write buffer almost immediately.)
    let probe = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, metrics) = expect_ok(probe.control("metrics").expect("metrics"));
        let metrics = String::from_utf8(metrics).expect("metrics are text");
        if metric(&metrics, "counter", "serve.reactor.pushback").unwrap_or(0) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pushback never tripped\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // A pushed-back session stalls only itself: the probe still runs.
    let (_, body) = expect_ok(probe.control("ping").expect("ping during pushback"));
    assert_eq!(body, b"pong");

    // Drain: every reply arrives, byte-identical to the one-shot.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..N {
        let (id, resp) = session.recv().expect("recv reply");
        assert!(seen.insert(id), "duplicate reply id {id}");
        let (_, body) = expect_ok(resp);
        assert_eq!(body, expected, "pushed-back reply differs from one-shot");
    }
    assert_eq!(seen.len(), ids.len());
    session.goodbye().expect("goodbye");

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
    server.wait();
}
