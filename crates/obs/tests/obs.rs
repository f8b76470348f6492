//! Integration tests for the observability subsystem: span parentage,
//! histogram percentile monotonicity, concurrent counter increments, and
//! Chrome-trace round-tripping through a JSON parse.
//!
//! The subsystem is a process-wide singleton, so tests that record spans
//! or reset state serialize on a mutex.

use eel_obs::{json, Mode};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A panicking test must not wedge the others.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn nested_spans_report_parentage_and_durations() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Summary);
    eel_obs::reset();

    {
        let _outer = eel_obs::span("outer_phase");
        {
            let _inner = eel_obs::span("inner_phase");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _sibling = eel_obs::span("sibling_phase");
    }
    let _root2 = eel_obs::span("second_root");
    drop(_root2);

    let spans = eel_obs::snapshot_spans();
    eel_obs::set_mode(Mode::Off);

    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    let outer = find("outer_phase");
    let inner = find("inner_phase");
    let sibling = find("sibling_phase");
    let root2 = find("second_root");

    assert_eq!(outer.parent, 0, "outer is a root");
    assert_eq!(root2.parent, 0, "second root is a root");
    assert_eq!(inner.parent, outer.id, "inner nests under outer");
    assert_eq!(sibling.parent, outer.id, "sibling nests under outer");

    // Durations are non-negative by type; check they are sane and that the
    // parent covers the slept-in child.
    assert!(inner.dur_ns >= 1_000_000, "inner saw the 2ms sleep");
    assert!(outer.dur_ns >= inner.dur_ns, "outer covers inner");
    for s in &spans {
        assert!(s.start_ns + s.dur_ns >= s.start_ns, "no overflow");
    }

    // The summary renders the tree with both phases.
    eel_obs::set_mode(Mode::Summary);
    let summary = eel_obs::render_summary();
    eel_obs::set_mode(Mode::Off);
    assert!(summary.contains("outer_phase"));
    assert!(summary.contains("inner_phase"));
}

#[test]
fn histogram_percentiles_are_monotone() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Summary);
    let h = eel_obs::histogram("test.monotone.hist");
    for v in [0u64, 1, 1, 3, 7, 9, 100, 1000, 65_536, 1 << 40] {
        h.record(v);
    }
    let qs: Vec<u64> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        .iter()
        .map(|&q| h.quantile(q).expect("non-empty"))
        .collect();
    eel_obs::set_mode(Mode::Off);
    for w in qs.windows(2) {
        assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
    }
    assert_eq!(h.count(), 10);
    // p100 upper bound must cover the max sample.
    assert!(*qs.last().unwrap() >= 1 << 40);
}

#[test]
fn concurrent_counter_increments_lose_no_updates() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Summary);
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let c = eel_obs::counter("test.concurrent.counter");
                for _ in 0..per_thread {
                    c.incr();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = eel_obs::counter("test.concurrent.counter").get();
    eel_obs::set_mode(Mode::Off);
    assert_eq!(total, threads as u64 * per_thread);
}

#[test]
fn chrome_trace_round_trips_through_json_parse() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Chrome);
    eel_obs::reset();
    {
        let _a = eel_obs::span("phase \"quoted\\name"); // exercises escaping
        let _b = eel_obs::span("child");
    }
    eel_obs::counter("test.trace.counter").add(42);
    let trace = eel_obs::render_chrome_trace();
    eel_obs::set_mode(Mode::Off);

    let doc = json::parse(&trace).expect("chrome trace is valid JSON");
    let events = doc.as_array().expect("top level is an array");
    assert!(events.len() >= 3, "metadata + 2 spans + counter");

    let mut span_names = Vec::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
                assert!(e.get("pid").is_some() && e.get("tid").is_some());
                span_names.push(e.get("name").and_then(|v| v.as_str()).unwrap().to_string());
            }
            "C" => {
                assert!(e
                    .get("args")
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .is_some());
            }
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(span_names.iter().any(|n| n == "phase \"quoted\\name"));
    assert!(span_names.iter().any(|n| n == "child"));
}

#[test]
fn json_lines_export_each_line_parses() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Json);
    eel_obs::reset();
    {
        let _s = eel_obs::span("jsonl_phase");
    }
    eel_obs::counter("test.jsonl.counter").add(7);
    eel_obs::histogram("test.jsonl.hist").record(12);
    let lines = eel_obs::render_json_lines();
    eel_obs::set_mode(Mode::Off);
    let mut saw_span = false;
    let mut saw_counter = false;
    for line in lines.lines() {
        let v = json::parse(line).expect("each line is a JSON object");
        match v.get("type").and_then(|t| t.as_str()) {
            Some("span") => {
                saw_span |= v.get("name").and_then(|n| n.as_str()) == Some("jsonl_phase");
            }
            Some("counter") => {
                if v.get("name").and_then(|n| n.as_str()) == Some("test.jsonl.counter") {
                    assert_eq!(v.get("value").unwrap().as_f64(), Some(7.0));
                    saw_counter = true;
                }
            }
            Some("gauge") | Some("histogram") => {}
            other => panic!("unexpected line type {other:?}"),
        }
    }
    assert!(saw_span && saw_counter);
}

#[test]
fn disabled_mode_records_nothing() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Off);
    eel_obs::reset();
    {
        let _s = eel_obs::span("invisible");
    }
    eel_obs::counter("test.disabled.counter").incr();
    assert!(eel_obs::snapshot_spans().is_empty());
    assert_eq!(eel_obs::counter("test.disabled.counter").get(), 0);
}

#[test]
fn metrics_mode_records_metrics_but_no_spans() {
    let _g = obs_lock();
    eel_obs::set_mode(Mode::Metrics);
    eel_obs::reset();
    {
        let _s = eel_obs::span("not.kept");
        let _o = eel_obs::span_owned(|| "not.kept.either".to_string());
        eel_obs::counter("test.metrics_mode.counter").add(3);
        eel_obs::histogram("test.metrics_mode.hist").record(5);
    }
    assert!(eel_obs::snapshot_spans().is_empty());
    assert_eq!(eel_obs::counter("test.metrics_mode.counter").get(), 3);
    assert_eq!(eel_obs::histogram("test.metrics_mode.hist").count(), 1);
    assert_eq!(
        Mode::parse("metrics"),
        Mode::Off,
        "not selectable from EEL_OBS"
    );
    eel_obs::set_mode(Mode::Off);
}
