//! `perfbench` — the end-to-end and per-layer benchmark of eel-serve and
//! eel-core. See `perfbench/README.md` for the workloads and metrics;
//! `perfbench/run.py` builds this binary and the daemon and runs it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --daemon PATH [--out-dir DIR] [--stamp KEY=VALUE]...
//! ```
//!
//! The last line of standard output is the result object.

mod check;
mod corpus;
mod daemon;
mod json;
mod load;
mod replay;
mod workloads;

use daemon::{Daemon, Metrics};
use json::{num, obj, text};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: String,
    out_dir: Option<String>,
    stamps: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: String::new(),
        out_dir: None,
        stamps: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            "--daemon" => args.daemon = value.clone(),
            "--out-dir" => args.out_dir = Some(value.clone()),
            "--stamp" => {
                let (k, v) = value
                    .split_once('=')
                    .ok_or_else(|| format!("bad --stamp {value:?} (KEY=VALUE)"))?;
                args.stamps.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if args.daemon.is_empty() {
        return Err("--daemon PATH is required".into());
    }
    Ok(args)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Daemon readings around the timed phase.
struct Readings {
    delta: Metrics,
    rss_before_kb: u64,
    rss_after_kb: u64,
    hwm_kb: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The tier each workload promises, checked on the daemon's counters.
fn tier_check(workload: &str, delta: &Metrics) -> Result<String, String> {
    let hits = delta.counter("serve.cache.hit");
    let computed = delta.counter_sum("serve.ops.", ".computed");
    let frag_hits = delta.counter("serve.cache.fragment.hit");
    let frag_total = frag_hits + delta.counter("serve.cache.fragment.miss");
    let frag_ratio = ratio(frag_hits, frag_total);
    let summary = format!(
        "whole-image hits {hits}, computes {computed}, fragment hits {frag_hits}/{frag_total}, \
         fragments evicted {}",
        delta.counter("serve.cache.fragment.evict")
    );
    let held = match workload {
        "cold-mix" => hits == 0,
        "warm-hits" => computed == 0,
        _ => frag_ratio >= 0.9,
    };
    let promise = match workload {
        "cold-mix" => "0 whole-image hits",
        "warm-hits" => "0 computes",
        _ => "fragment hit ratio >= 0.9",
    };
    if held {
        Ok(format!("{promise}: held ({summary})"))
    } else {
        Err(format!("{promise}: BROKEN ({summary})"))
    }
}

/// Handle time per request inside the daemon, in µs, from its
/// `serve.latency.<op>` histograms (control ops left out).
fn handle_us(delta: &Metrics) -> f64 {
    let (count, sum) = delta
        .histograms
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("serve.latency.")
                .is_some_and(|op| eel_serve::CACHED_OPS.contains(&op) || op == "edit")
        })
        .fold((0, 0), |(c, s), (_, &(hc, hs))| (c + hc, s + hs));
    ratio(sum, count)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    eel_obs::set_mode(eel_obs::Mode::Off);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut prepared = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let p = workloads::prepare(&args.workload, args.seed, args.seconds, &args.daemon)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            p.daemon.shutdown();
        } else {
            prepared = Some(p);
        }
    }
    let setup_reps = setup_s.clone();
    let setup = median(&mut setup_s);
    let workloads::Prepared {
        daemon,
        modes,
        source,
    } = prepared.expect("at least one set-up");

    let read = |d: &Daemon| d.metrics().map_err(|e| format!("metrics op: {e}"));
    let before = read(&daemon)?;
    let rss_before_kb = daemon.status_kb("VmRSS").unwrap_or(0);
    let (tally, elapsed) = load::run(&daemon.addr, &modes, source.as_ref(), args.seconds);
    let after = read(&daemon)?;
    let readings = Readings {
        delta: after.since(&before),
        rss_before_kb,
        rss_after_kb: daemon.status_kb("VmRSS").unwrap_or(0),
        hwm_kb: daemon.status_kb("VmHWM").unwrap_or(0),
    };
    daemon.shutdown();

    let checks = check::verify(source.take_served(), workloads::EDIT_SCRIPT);
    let tier = tier_check(&args.workload, &readings.delta);

    // A request whose body failed a deferred check is a failure too,
    // once however many checks it failed.
    let mut late = checks.failed_ids.clone();
    late.sort_unstable();
    late.dedup();
    let late_failures = late.len() as u64;
    let attempted = tally.attempted.max(1);
    let failed = (tally.failed + late_failures).min(attempted);
    let ok = attempted - failed;
    let elapsed_s = elapsed.as_secs_f64();
    // Failed requests miss any latency limit: they count at the length
    // of the whole phase.
    let mut latencies = tally.latencies_ms.clone();
    latencies.extend(std::iter::repeat_n(elapsed_s * 1e3, failed as usize));
    latencies.sort_by(f64::total_cmp);
    let samples = latencies.len();
    let p99 = percentile(&latencies, 0.99);
    let beyond_p99 = latencies.iter().filter(|&&l| l > p99).count();
    let mean_latency_us = latencies.iter().sum::<f64>() / samples.max(1) as f64 * 1e3;
    let p50 = percentile(&latencies, 0.50);
    let throughput = ok as f64 / elapsed_s;

    let correct = checks.mismatched == 0 && checks.emu_mismatched == 0 && tier.is_ok();

    println!(
        "perfbench: workload {} seed {} on {cores} cores; connections: {}",
        args.workload,
        args.seed,
        modes
            .iter()
            .map(|m| m.describe())
            .collect::<Vec<_>>()
            .join(" + ")
    );
    for (k, v) in &args.stamps {
        println!("perfbench: {k}: {v}");
    }
    println!(
        "perfbench: set-up {:.3}s (median of {:?}); timed phase {elapsed_s:.3}s{}",
        setup,
        setup_reps
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>(),
        if source.used_up() {
            ", ended early: stream used up"
        } else {
            ""
        }
    );
    println!(
        "perfbench: {attempted} attempted, {failed} failed, {} BUSY retries; latency samples {samples}, {beyond_p99} beyond p99",
        tally.busy_retries
    );
    for e in tally.errors.iter().chain(&checks.notes) {
        println!("perfbench: failure: {e}");
    }
    println!(
        "perfbench: checks: {} replies compared with a cold run, {} mismatched; {} edited outputs run under eel-emu, {} mismatched, {} skipped (the original did not exit within the step budget)",
        checks.compared, checks.mismatched, checks.emu_checked, checks.emu_mismatched, checks.emu_skipped
    );
    match &tier {
        Ok(s) | Err(s) => println!("perfbench: tier: {s}"),
    }

    let e2e: Vec<(&str, f64, &str)> = vec![
        ("throughput_rps", throughput, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p99_ms", p99, "ms"),
        ("success_ratio", ratio(ok, attempted), "ratio"),
        ("daemon_peak_rss_mb", readings.hwm_kb as f64 / 1024.0, "MB"),
        ("setup_s", setup, "s"),
    ];
    let layers = if args.trace {
        let mut layers = daemon_layers(&readings, mean_latency_us, attempted);
        layers.extend(replay::run(source.items(), args.seed));
        layers
    } else {
        Vec::new()
    };
    let reported = if args.trace { &layers } else { &e2e };
    for (name, value, unit) in reported {
        println!("perfbench: {name:<40} {value:>16.6} {unit}");
    }

    if let Some(dir) = &args.out_dir {
        let stamps: Vec<(String, String)> = [
            ("cores".to_string(), num(cores as f64)),
            ("seed".to_string(), num(args.seed as f64)),
            ("workload".to_string(), text(&args.workload)),
            ("seconds".to_string(), num(args.seconds)),
        ]
        .into_iter()
        .chain(args.stamps.iter().map(|(k, v)| (k.clone(), text(v))))
        .collect();
        let report = obj(&[
            ("stamp".into(), obj(&stamps)),
            ("correct".into(), correct.to_string()),
            ("attempted".into(), num(attempted as f64)),
            ("failed".into(), num(failed as f64)),
            ("latency_samples".into(), num(samples as f64)),
            ("samples_beyond_p99".into(), num(beyond_p99 as f64)),
            (
                "setup_reps_s".into(),
                format!(
                    "[{}]",
                    setup_reps
                        .iter()
                        .map(|s| num(*s))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ),
            (
                "tier".into(),
                text(match &tier {
                    Ok(s) | Err(s) => s,
                }),
            ),
            ("end_to_end".into(), metrics_obj(&e2e)),
            ("per_layer".into(), metrics_obj(&layers)),
        ]);
        let path = format!(
            "{dir}/{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, report + "\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("perfbench: report written to {path}");
    }

    println!(
        "{}",
        obj(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), attempted.to_string()),
            ("failed".into(), failed.to_string()),
            ("metrics".into(), metrics_obj(reported)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_obj(list: &[(&str, f64, &str)]) -> String {
    obj(&list
        .iter()
        .map(|(n, v, u)| {
            (
                n.to_string(),
                obj(&[("value".into(), num(*v)), ("unit".into(), text(u))]),
            )
        })
        .collect::<Vec<_>>())
}

/// Per-layer numbers read off the daemon around the timed phase.
fn daemon_layers(
    r: &Readings,
    mean_latency_us: f64,
    attempted: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let d = &r.delta;
    let hits = d.counter("serve.cache.hit");
    let frag_hits = d.counter("serve.cache.fragment.hit");
    let computed = d.counter_sum("serve.ops.", ".computed");
    let handle = handle_us(d);
    let growth_kb = r.rss_after_kb.saturating_sub(r.rss_before_kb);
    vec![
        (
            "serve.cache.hit_ratio",
            ratio(hits, hits + d.counter("serve.cache.miss")),
            "ratio",
        ),
        (
            "serve.cache.fragment_hit_ratio",
            ratio(
                frag_hits,
                frag_hits + d.counter("serve.cache.fragment.miss"),
            ),
            "ratio",
        ),
        ("serve.server.handle_us", handle, "us"),
        ("serve.wire_us", mean_latency_us - handle, "us"),
        (
            "serve.conn.busy",
            ratio(d.counter("serve.conn.busy"), attempted),
            "1/req",
        ),
        (
            "serve.reactor.pushback",
            ratio(d.counter("serve.reactor.pushback"), attempted),
            "1/req",
        ),
        (
            "obs.rss_growth_kb_per_computed",
            growth_kb as f64 / computed.max(1) as f64,
            "KiB",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
