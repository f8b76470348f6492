//! `eelstat` — run the analysis service's cold path over an executable
//! and report where the time goes.
//!
//! ```text
//! eelstat PROGRAM.wef [--run] [--trace FILE]
//! ```
//!
//! Loads the WEF image, computes one shared [`Analysis`] (§3.1 routine
//! discovery), then runs every cacheable op ([`CACHED_OPS`]) through
//! [`eel_serve::run_op`] — the work a daemon does for a request that
//! misses every cache — and prints the eel-obs report: the span tree
//! (load → discovery → CFG build → liveness → layout on SPARC, the
//! `core.generic.*` passes elsewhere) with per-phase wall times, plus the
//! block and edge counters. `--run` additionally executes the program in
//! the emulator so the dynamic `emu.*` counters appear.
//!
//! Unlike the other tools, recording defaults to *on* (summary mode) when
//! `EEL_OBS` is unset — reporting is this tool's whole job. `EEL_OBS`
//! still selects the format, and `--trace FILE` redirects the report to a
//! Chrome `trace_event` file (or JSON lines under `EEL_OBS=json`).

use eel_core::Analysis;
use eel_emu::AnyMachine;
use eel_exe::Image;
use eel_serve::{run_op, CACHED_OPS};
use eel_tools::cli::Cli;
use eel_tools::obs_cli::ObsSession;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut obs = ObsSession::begin();
    if std::env::var_os("EEL_OBS").is_none() {
        eel_obs::set_mode(eel_obs::Mode::Summary);
    }
    let mut cli = match Cli::new("eelstat", "PROGRAM.wef [--run] [--trace FILE]") {
        Ok(cli) => cli,
        Err(code) => return code,
    };
    let mut input = None;
    let mut run = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--run" => run = true,
            "--trace" => match cli.value("--trace") {
                Ok(path) => obs.set_trace_path(&path),
                Err(code) => return code,
            },
            other if input.is_none() => input = Some(other.to_string()),
            other => return cli.unexpected(other),
        }
    }
    let input = match cli.required_input(input) {
        Ok(i) => i,
        Err(code) => return code,
    };

    let image = match Image::read_file(&input) {
        Ok(i) => i,
        Err(e) => return cli.fail(format_args!("cannot read {input}: {e}")),
    };
    let analysis = match Analysis::compute(Arc::new(image)) {
        Ok(a) => a,
        Err(e) => return cli.fail(e),
    };
    for op in CACHED_OPS {
        if let Err(e) = run_op(op, &analysis) {
            return cli.fail(e);
        }
    }
    if run {
        let outcome = AnyMachine::load(analysis.image()).and_then(|mut m| m.run());
        match outcome {
            Ok(o) => eprintln!("eelstat: ran {input}: exit code {}", o.exit_code),
            Err(e) => return cli.fail(format_args!("run failed: {e}")),
        }
    }
    let distinct: std::collections::HashSet<u64> =
        analysis.routine_keys().iter().copied().collect();
    eprintln!(
        "eelstat: analyzed {input}: {} routines ({} distinct content keys, \
         machine: {}, discovery: {})",
        analysis.routines().len(),
        distinct.len(),
        analysis.machine().name(),
        analysis.discovery().as_str()
    );
    if let Some(report) = obs.finish_report("eelstat") {
        print!("{report}");
    }
    ExitCode::SUCCESS
}
