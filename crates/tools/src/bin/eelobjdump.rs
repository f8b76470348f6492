//! `eelobjdump` — disassemble and analyze a WEF executable.
//!
//! ```text
//! eelobjdump PROGRAM.wef [--cfg] [--symbols] [--trace FILE]
//! ```
//!
//! Prints the body of the analysis service's `disasm` op
//! ([`eel_serve::run_op`]): routine headers, one decoded instruction per
//! line, dispatch-table words annotated as data. The offline listing and
//! `eelctl disasm`'s are therefore the same bytes on every machine. `--cfg`
//! appends the `cfg-summary` op's body (per-routine CFG statistics plus
//! totals); `--symbols` dumps the symbol table first; `--trace FILE` writes
//! an eel-obs trace of the analysis.
//!
//! `;` lines before the listing are header notes: the image's machine,
//! and, for a symbol-less image, that routine names are synthetic.

use eel_core::{Analysis, DiscoverySource};
use eel_exe::Image;
use eel_serve::run_op;
use eel_tools::cli::Cli;
use eel_tools::obs_cli::ObsSession;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut obs = ObsSession::begin();
    let mut cli = match Cli::new(
        "eelobjdump",
        "PROGRAM.wef [--cfg] [--symbols] [--trace FILE]",
    ) {
        Ok(cli) => cli,
        Err(code) => return code,
    };
    let mut input = None;
    let mut show_cfg = false;
    let mut show_symbols = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--cfg" => show_cfg = true,
            "--symbols" => show_symbols = true,
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
    // Built whole before anything is printed, so a failing op leaves no
    // partial listing behind.
    let mut out = Vec::new();
    if show_symbols {
        out.extend_from_slice(b"SYMBOL TABLE:\n");
        for s in &analysis.image().symbols {
            let _ = writeln!(
                out,
                "  {:#010x} {:<9} {:<6} {}",
                s.value,
                format!("{:?}", s.kind).to_lowercase(),
                if s.global { "global" } else { "local" },
                s.name
            );
        }
        out.push(b'\n');
    }
    if analysis.discovery() == DiscoverySource::Inferred {
        out.extend_from_slice(
            b"; discovery: inferred (no symbol table; routine names are synthetic)\n\n",
        );
    }
    let _ = writeln!(out, "; machine: {}\n", analysis.machine().name());
    let ops: &[&str] = if show_cfg {
        &["disasm", "cfg-summary"]
    } else {
        &["disasm"]
    };
    for op in ops {
        match run_op(op, &analysis) {
            Ok(body) => out.extend_from_slice(&body),
            Err(e) => return cli.fail(e),
        }
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(&out).and_then(|()| stdout.flush()) {
        return cli.fail(format_args!("cannot write the listing: {e}"));
    }
    obs.finish("eelobjdump");
    ExitCode::SUCCESS
}
