//! `eelstat` — run the full EEL analysis pipeline over an executable and
//! report where the time goes.
//!
//! ```text
//! eelstat PROGRAM.wef [--run] [--trace FILE]
//! ```
//!
//! Loads the WEF image, analyzes it (`read_contents`), builds and lays
//! out every routine (`write_edited`), then prints the eel-obs report:
//! the span tree (load → CFG build → normalize → liveness → layout) with
//! per-phase wall times, plus the block and edge counters. `--run`
//! additionally executes the program in the emulator so the dynamic
//! `emu.*` counters appear.
//!
//! Unlike the other tools, recording defaults to *on* (summary mode) when
//! `EEL_OBS` is unset — reporting is this tool's whole job. `EEL_OBS`
//! still selects the format, and `--trace FILE` redirects the report to a
//! Chrome `trace_event` file (or JSON lines under `EEL_OBS=json`).

use eel_core::Executable;
use eel_emu::AnyMachine;
use eel_exe::Image;
use eel_tools::cli::Cli;
use eel_tools::obs_cli::ObsSession;
use std::process::ExitCode;

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
    let mut exec = match Executable::from_image(image.clone()) {
        Ok(e) => e,
        Err(e) => return cli.fail(e),
    };
    if let Err(e) = exec.read_contents() {
        return cli.fail(e);
    }
    let routines = exec.all_routine_ids().len();
    // Per-routine content keys (the fragment-cache addresses), so the
    // report includes the core.routine_key.* counters.
    let keys = exec.routine_keys();
    let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
    // Drive the whole pipeline. SPARC: CFG build + delay-slot
    // normalization, liveness, and layout for every routine (discovery
    // included). Other machines: the generic description-derived CFG
    // and liveness passes (the `core.generic.*` spans).
    if eel_core::uses_generic_pipeline(image.machine) {
        for id in exec.all_routine_ids() {
            let routine = exec.routine(id).clone();
            match eel_core::generic_cfg(exec.image(), &routine) {
                Ok(cfg) => {
                    let _ = eel_core::generic_liveness(exec.image(), &cfg);
                }
                Err(e) => eprintln!("eelstat: {}: {e}", routine.name()),
            }
        }
    } else if let Err(e) = exec.write_edited() {
        return cli.fail(e);
    }
    if run {
        let outcome = AnyMachine::load(&image).and_then(|mut m| m.run());
        match outcome {
            Ok(o) => eprintln!("eelstat: ran {input}: exit code {}", o.exit_code),
            Err(e) => return cli.fail(format_args!("run failed: {e}")),
        }
    }
    eprintln!(
        "eelstat: analyzed {input}: {routines} routines ({} distinct content keys, \
         machine: {}, discovery: {})",
        distinct.len(),
        image.machine.name(),
        exec.discovery_source().as_str()
    );
    if let Some(report) = obs.finish_report("eelstat") {
        print!("{report}");
    }
    ExitCode::SUCCESS
}
