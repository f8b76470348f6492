//! `eelserved` — the eel-serve analysis daemon.
//!
//! ```text
//! eelserved [--addr HOST:PORT] [--workers N] [--queue N]
//!           [--cache-bytes N] [--timeout-ms N]
//!           [--cache-dir PATH] [--disk-bytes N]
//!           [--session-window N] [--write-hwm N]
//! ```
//!
//! Binds (default `127.0.0.1:7099`), prints a `listening on` line once
//! ready, then serves until a client sends `shutdown` (or the process is
//! killed). `--cache-dir` enables the on-disk spill tier: results survive
//! restarts and LRU evictions, pruned oldest-first past `--disk-bytes`.
//! `EEL_OBS` selects the observability mode. When it is unset the server
//! records metrics only (`eel_obs::Mode::Metrics`), so the `metrics` op
//! has data and no span is kept; bounded per-request traces are to
//! replace this. Flags, sizing guidance, and the metrics reference live
//! in `docs/OPERATIONS.md`.

use eel_serve::{Server, ServerConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: eelserved [--addr HOST:PORT] [--workers N] [--queue N] \
[--cache-bytes N] [--timeout-ms N] [--cache-dir PATH] [--disk-bytes N] \
[--session-window N] [--write-hwm N]";

fn main() -> ExitCode {
    eel_obs::init_from_env();
    let mut config = ServerConfig {
        addr: "127.0.0.1:7099".into(),
        ..ServerConfig::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--version" => {
                println!("eelserved {}", env!("CARGO_PKG_VERSION"));
                return ExitCode::SUCCESS;
            }
            "--addr" | "--workers" | "--queue" | "--cache-bytes" | "--timeout-ms"
            | "--cache-dir" | "--disk-bytes" | "--session-window" | "--write-hwm" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("eelserved: {flag} needs a value");
                    return ExitCode::FAILURE;
                };
                let numeric = value.parse::<u64>();
                match (flag, numeric) {
                    ("--addr", _) => config.addr = value.clone(),
                    ("--cache-dir", _) => config.cache_dir = Some(value.into()),
                    ("--workers", Ok(n)) => config.workers = n as usize,
                    ("--queue", Ok(n)) => config.queue_depth = n.max(1) as usize,
                    ("--cache-bytes", Ok(n)) => config.cache_bytes = n as usize,
                    ("--timeout-ms", Ok(n)) => config.timeout = Duration::from_millis(n),
                    ("--disk-bytes", Ok(n)) => config.disk_bytes = n,
                    ("--session-window", Ok(n)) => config.session_window = n.max(1) as u32,
                    ("--write-hwm", Ok(n)) => config.write_hwm = n.max(1) as usize,
                    (_, Err(_)) => {
                        eprintln!("eelserved: {flag} needs a number, got {value:?}");
                        return ExitCode::FAILURE;
                    }
                    _ => unreachable!(),
                }
            }
            other => {
                eprintln!("eelserved: unexpected argument {other:?} ({USAGE})");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("eelserved: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Flushed eagerly so scripts (and CI) can wait for readiness.
    println!("eelserved: listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait();
    eprintln!("eelserved: shut down cleanly");
    ExitCode::SUCCESS
}
