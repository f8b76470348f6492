//! Incremental serving across near-duplicate images: analyzing a base
//! image records per-routine fragments, and a one-routine twin then
//! stitches every unchanged routine from the fragment tier — while its
//! response stays byte-identical to what a cold daemon computes.

use eel_serve::{CacheTier, Payload, Response, Server, ServerConfig};

fn expect_ok(resp: Response) -> (CacheTier, Vec<u8>, Option<(u32, u32)>) {
    match resp {
        Response::Ok {
            tier,
            body,
            fragments,
            ..
        } => (tier, body, fragments),
        other => panic!("expected Ok, got {other:?}"),
    }
}

fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("counter {name} "))?.parse().ok())
        .unwrap_or(0)
}

/// A base image for `machine` and a twin differing in exactly one
/// routine (one ALU immediate bumped), as WEF bytes.
fn near_duplicate_pair(machine: eel_exe::Machine) -> (Vec<u8>, Vec<u8>) {
    let config = eel_progen::GenConfig {
        functions: 6,
        ..eel_progen::GenConfig::default()
    };
    // Not every generated program compiles (layout limits); take the
    // first seed that does, like the benchmarks do.
    let base = (0..16)
        .find_map(|seed| {
            let program = eel_progen::random_program(seed, &config);
            match machine {
                eel_exe::Machine::Mips => eel_progen::compile_mips(&program).ok(),
                _ => eel_cc::compile_ast(&program, &eel_cc::Options::default()).ok(),
            }
        })
        .expect("some seed compiles");
    let mut twin = base.clone();
    eel_progen::mutate_routine(&mut twin, 0).expect("base has an ALU immediate");
    assert_ne!(base.to_bytes(), twin.to_bytes(), "twin must differ");
    (base.to_bytes(), twin.to_bytes())
}

#[test]
fn twin_stitches_all_unchanged_routines_and_matches_cold_output() {
    let (base, twin) = near_duplicate_pair(eel_exe::Machine::Sparc);

    // Cold daemon: the twin from scratch, no fragments to reuse.
    let cold_server = Server::start(ServerConfig::default()).expect("start cold server");
    let cold_client = eel_serve::Client::connect(cold_server.local_addr().to_string());
    let mut cold_bodies = Vec::new();
    for op in ["disasm", "instrument"] {
        let (_, body, fragments) =
            expect_ok(cold_client.op(op, Payload::Inline(twin.clone())).expect(op));
        let (hits, total) = fragments.expect("computed response reports fragments");
        assert_eq!(hits, 0, "cold {op}: nothing to reuse");
        assert!(total > 0);
        cold_bodies.push(body);
    }
    drop(cold_client);
    cold_server.shutdown();

    // Warm daemon: base first (records fragments), then the twin.
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.local_addr().to_string();
    let client = eel_serve::Client::connect(addr.clone());
    for (op, cold_body) in ["disasm", "instrument"].iter().zip(&cold_bodies) {
        let (_, _, fragments) = expect_ok(client.op(op, Payload::Inline(base.clone())).expect(op));
        let (hits, total) = fragments.expect("computed response reports fragments");
        assert_eq!(hits, 0, "first sighting of the base: all misses");

        let (tier, body, fragments) =
            expect_ok(client.op(op, Payload::Inline(twin.clone())).expect(op));
        assert!(!tier.is_hit(), "twin is a distinct image: whole-image miss");
        let (twin_hits, twin_total) = fragments.expect("computed response reports fragments");
        assert_eq!(twin_total, total, "same routine count in both images");
        assert_eq!(
            twin_hits,
            twin_total - 1,
            "{op}: every routine but the mutated one stitches from fragments"
        );
        assert_eq!(&body, cold_body, "{op}: stitched output == cold output");

        // A whole-image LRU hit replays stored bytes — no fragment
        // accounting on that path.
        let (tier, body, fragments) =
            expect_ok(client.op(op, Payload::Inline(twin.clone())).expect(op));
        assert!(tier.is_hit());
        assert_eq!(&body, cold_body);
        assert_eq!(fragments, None, "cache hits skip fragment stitching");
    }

    let (_, metrics, _) = expect_ok(client.control("metrics").expect("metrics"));
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(
        counter(&metrics, "serve.cache.fragment.hit") > 0,
        "fragment hits surfaced in metrics: {metrics}"
    );
    assert!(counter(&metrics, "serve.cache.fragment.write") > 0);
    assert!(counter(&metrics, "serve.cache.fragment.miss") > 0);
    server.shutdown();
}

/// A MIPS twin stitches from the fragments its base recorded, through
/// the same CFG ops as SPARC, and every stitched body is byte-identical
/// to a cold run with no fragment tier.
#[test]
fn mips_twin_stitches_all_unchanged_routines_and_matches_cold_output() {
    let (base, twin) = near_duplicate_pair(eel_exe::Machine::Mips);
    let image = eel_exe::Image::from_bytes(&twin).expect("twin parses");
    let cold = std::sync::Arc::new(
        eel_core::Analysis::compute(std::sync::Arc::new(image)).expect("analyze twin"),
    );

    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = eel_serve::Client::connect(server.local_addr().to_string());
    for op in ["disasm", "cfg-summary", "liveness"] {
        let (_, _, fragments) = expect_ok(client.op(op, Payload::Inline(base.clone())).expect(op));
        let (hits, total) = fragments.expect("computed response reports fragments");
        assert_eq!(hits, 0, "{op}: first sighting of the base: all misses");
        assert!(total > 1, "{op}: a many-routine base");

        let (tier, body, fragments) =
            expect_ok(client.op(op, Payload::Inline(twin.clone())).expect(op));
        assert!(!tier.is_hit(), "twin is a distinct image: whole-image miss");
        let (twin_hits, twin_total) = fragments.expect("computed response reports fragments");
        assert_eq!(twin_total, total, "{op}: same routine count in both images");
        assert_eq!(
            twin_hits,
            twin_total - 1,
            "{op}: every routine but the mutated one stitches from fragments"
        );
        let cold_body = eel_serve::run_op(op, &cold).expect(op);
        assert_eq!(body, cold_body, "{op}: stitched output == cold output");
    }
    server.shutdown();
}
