//! With observability left off, the daemon records metrics only: serving
//! computed requests keeps no span (nothing would ever drain them), while
//! the per-op counters and latency histograms behind the `metrics` op
//! still count. Its own test binary, so no other test changes the
//! process-wide mode underneath it.

use eel_serve::{Client, Payload, Response, Server, ServerConfig};

#[test]
fn daemon_without_eel_obs_keeps_metrics_and_no_spans() {
    assert_eq!(eel_obs::mode(), eel_obs::Mode::Off);
    let server = Server::start(ServerConfig::default()).expect("start server");
    assert_eq!(eel_obs::mode(), eel_obs::Mode::Metrics);
    let client = Client::connect(server.local_addr().to_string());

    let w = eel_progen::spim_like(20);
    let wef = eel_progen::compile(&w, eel_cc::Personality::Gcc)
        .expect("compile")
        .to_bytes();
    for op in ["disasm", "cfg-summary", "instrument"] {
        match client.op(op, Payload::Inline(wef.clone())).expect(op) {
            Response::Ok { .. } => {}
            other => panic!("{op}: {other:?}"),
        }
    }

    assert!(
        eel_obs::snapshot_spans().is_empty(),
        "metrics mode keeps no spans"
    );
    let metrics = match client.control("metrics").expect("metrics") {
        Response::Ok { body, .. } => String::from_utf8(body).expect("utf-8"),
        other => panic!("metrics: {other:?}"),
    };
    for op in ["disasm", "cfg-summary", "instrument"] {
        assert!(
            metrics.contains(&format!("counter serve.ops.{op}.computed 1\n")),
            "{op} computed once:\n{metrics}"
        );
        assert!(
            metrics.contains(&format!("histogram serve.latency.{op} count=1 ")),
            "{op} latency recorded:\n{metrics}"
        );
    }
    client.control("shutdown").expect("shutdown");
    server.wait();
}
