//! # eel-tools: the tools the EEL paper built and measured
//!
//! Every application §1/§5 attributes to EEL (or its predecessors), as a
//! working tool on this reproduction's stack:
//!
//! | Module | Paper tool | What it does here |
//! |---|---|---|
//! | [`qpt2`] | qpt rewritten on EEL (§5, Table 1, Figures 1–2) | block/edge/entry profiling via EEL edits |
//! | [`qpt1`] | the original ad-hoc qpt (Table 1's baseline) | standalone block profiler with the classic fragile assumptions |
//! | [`active_memory`] | Active Memory [Lebeck & Wood] | inline cache-tag tests before every reference (the "2–7× slowdown" tool) |
//! | [`blizzard`] | Blizzard-S fine-grain access control | inline state-table tests before stores, liveness-tuned |
//! | [`elsie`] | Elsie direct-execution simulator | replaces system calls with simulator calls; accounts loads/stores |
//! | [`tracer`] | qpt's abstract-execution tracing | Figure 4 backward address slices, program-wide |
//! | [`shrink`] | §1's optimization use (OM/ATOM lineage) | call-graph-driven dead-routine elimination |
//!
//! ## Example: profile edges (the paper's Figure 1 tool)
//!
//! ```
//! use eel_tools::qpt2::{instrument, Granularity};
//!
//! let image = eel_cc::compile_str(
//!     "fn main() { var i; var t = 0;
//!        for (i = 0; i < 7; i = i + 1) { t = t + i; } return t; }",
//!     &eel_cc::Options::default(),
//! )?;
//! let profiled = instrument(image, Granularity::Edges)?;
//! let run = profiled.run()?;
//! assert_eq!(run.outcome.exit_code, 21);
//! assert!(run.total() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod active_memory;
pub mod blizzard;
pub mod cli;
pub mod elsie;
pub mod qpt1;
pub mod qpt2;
pub mod shrink;
pub mod tracer;

use std::fmt;

/// Errors from the tool layer.
#[derive(Debug)]
pub enum ToolError {
    /// An EEL analysis/editing failure.
    Eel(eel_core::EelError),
    /// An emulator failure while running an instrumented program.
    Run(eel_emu::RunError),
    /// The input violates a tool's (documented) assumptions — qpt1's
    /// specialty.
    Unsupported(String),
    /// A tool bug surfaced as an error.
    Internal(String),
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::Eel(e) => write!(f, "eel error: {e}"),
            ToolError::Run(e) => write!(f, "run error: {e}"),
            ToolError::Unsupported(m) => write!(f, "unsupported input: {m}"),
            ToolError::Internal(m) => write!(f, "internal tool error: {m}"),
        }
    }
}

impl std::error::Error for ToolError {}

impl From<eel_core::EelError> for ToolError {
    fn from(e: eel_core::EelError) -> ToolError {
        ToolError::Eel(e)
    }
}

impl From<eel_emu::RunError> for ToolError {
    fn from(e: eel_emu::RunError) -> ToolError {
        ToolError::Run(e)
    }
}

/// Instrumentation jobs for delay-slot memory references: per-edge and
/// before-transfer placements.
pub(crate) type DelaySlotJobs = (
    Vec<(eel_core::EdgeId, eel_isa::Insn)>,
    Vec<(u32, eel_isa::Insn)>,
);

/// Finds memory references hiding in delay-slot blocks and returns where
/// to instrument them instead: `(editable edges, before-transfer sites)`.
/// This is the paper's "find an alternative location to edit" (§3.3).
pub(crate) fn delay_slot_memory_jobs(
    cfg: &eel_core::Cfg,
    want: impl Fn(&eel_isa::Insn) -> bool,
) -> DelaySlotJobs {
    let mut edges = Vec::new();
    let mut before = Vec::new();
    for (_, block) in cfg.blocks() {
        if block.kind != eel_core::BlockKind::DelaySlot {
            continue;
        }
        let Some(first) = block.insns.first() else {
            continue;
        };
        if !first.insn.is_memory() || !want(&first.insn) {
            continue;
        }
        for e in block.pred() {
            if cfg.edge(e).editable {
                edges.push((e, first.insn));
            } else if let Some(term) = cfg.block(cfg.edge(e).from).terminator() {
                if let Some(a) = term.addr {
                    before.push((a, first.insn));
                }
            }
        }
    }
    (edges, before)
}

/// Shared observability glue for the CLI binaries: `EEL_OBS` start-up and
/// the common `--trace FILE` flag.
pub mod obs_cli {
    use std::path::PathBuf;

    /// Per-invocation observability state. Construct with [`ObsSession::begin`]
    /// before argument parsing, route `--trace FILE` to
    /// [`ObsSession::set_trace_path`], and call [`ObsSession::finish`] on the
    /// success path.
    pub struct ObsSession {
        trace: Option<PathBuf>,
    }

    impl ObsSession {
        /// Reads `EEL_OBS` and starts a session.
        pub fn begin() -> ObsSession {
            eel_obs::init_from_env();
            ObsSession { trace: None }
        }

        /// Notes a `--trace FILE` request; turns recording on (Chrome
        /// trace format) when `EEL_OBS` did not already pick a mode.
        pub fn set_trace_path(&mut self, path: &str) {
            if eel_obs::mode() == eel_obs::Mode::Off {
                eel_obs::set_mode(eel_obs::Mode::Chrome);
            }
            self.trace = Some(PathBuf::from(path));
        }

        /// Emits whatever the mode calls for: the trace file when one was
        /// requested, otherwise the mode's report on stderr.
        pub fn finish(&self, tool: &str) {
            if let Some(report) = self.finish_report(tool) {
                eprint!("{report}");
            }
        }

        /// Like [`ObsSession::finish`], but hands back the rendered report
        /// (when no trace file was requested) instead of printing it, for
        /// tools whose report *is* their primary output.
        pub fn finish_report(&self, tool: &str) -> Option<String> {
            match (self.trace.as_deref(), eel_obs::mode()) {
                (_, eel_obs::Mode::Off | eel_obs::Mode::Metrics) => None,
                (Some(path), _) => {
                    if let Err(e) = eel_obs::write_trace_file(path) {
                        eprintln!("{tool}: cannot write trace {}: {e}", path.display());
                    }
                    None
                }
                (None, eel_obs::Mode::Summary) => Some(eel_obs::render_summary()),
                (None, eel_obs::Mode::Json) => Some(eel_obs::render_json_lines()),
                (None, eel_obs::Mode::Chrome) => Some(eel_obs::render_chrome_trace()),
            }
        }
    }
}

/// Counts non-comment, non-blank lines — the Table 1 "tool size" metric.
pub fn source_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!") && !l.starts_with('!')
        })
        .count()
}

/// qpt2's own source (for the Table 1 tool-size comparison).
pub const QPT2_SOURCE: &str = include_str!("qpt2.rs");
/// qpt1's own source.
pub const QPT1_SOURCE: &str = include_str!("qpt1.rs");
