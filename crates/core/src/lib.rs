//! # eel-core: the Executable Editing Library
//!
//! The Rust reproduction of **EEL** (Larus & Schnarr, *EEL:
//! Machine-Independent Executable Editing*, PLDI 1995): a library for
//! building tools that analyze and modify fully-linked executables without
//! source code or relocation information.
//!
//! The five abstractions from §3 of the paper map onto this crate as:
//!
//! | Paper | Here |
//! |---|---|
//! | `executable` | [`Executable`] — open, [`Executable::read_contents`] (four-stage symbol-table refinement, hidden-routine discovery), write an edited executable |
//! | `routine` | [`Routine`] — name, extent, entry points |
//! | CFG | [`Cfg`] — delay-slot-normalized basic blocks and edges, uneditable marking, dominators / loops / liveness / slicing, dispatch-table recovery; an immutable, shareable [`CfgShape`] plus the tool's own edits |
//! | instruction | [`eel_isa::Insn`] — category + effect inquiries, decoded from the image when a CFG block's instructions are read; identical words recur about 5× (§3.4's sharing, measured by `eel-bench`'s E-OBJ rather than allocated) |
//! | snippet | [`Snippet`] — foreign code with scavenged register allocation, spill wrapping, and placement call-backs |
//!
//! Editing is *batch*: a tool records edits against the original CFG
//! ([`Cfg::delete_insn`], [`Cfg::add_code_before`], [`Cfg::add_code_along`],
//! ...), then [`Executable::install_edits`] produces the edited routine and
//! [`Executable::write_edited`] lays out the new executable, adjusting every
//! displacement, rewriting dispatch tables, and falling back to run-time
//! address translation for unanalyzable indirect jumps.
//!
//! ## Shapes and edits
//!
//! A [`Cfg`] is a [`CfgShape`] behind an `Arc` plus its own edit list,
//! and dereferences to the shape. The shape is the graph: immutable,
//! `Send + Sync`, with blocks as address ranges over the image (so
//! [`Block::insns`] decodes on read) and edges in compressed
//! successor/predecessor rows. The edits belong to whoever edits the
//! CFG; snippets are not `Sync`, so they never enter the shape. An
//! executable keeps one shape cell per discovered routine — its own, or
//! the shared [`Analysis`]' it was opened from — and
//! [`Executable::build_cfg`], the one way to get a CFG, goes through
//! it: the first build of a routine stores its shape, and every later
//! one (a batch of [`Executable::build_all_cfgs`] or
//! [`Executable::build_all_cfgs_probed`], a tool, an eel-edit session,
//! [`Executable::write_edited`]'s pass-through layout) borrows it and
//! replays the build's §3.1 side effects. A routine's
//! liveness is solved once per stored shape and kept next to it
//! ([`Executable::liveness`] reads it; layout places snippets with it).
//! [`Analysis::shape_bytes`] is what the shapes and their liveness retain — a term eel-serve
//! charges to its analysis cache apart from [`Analysis::approx_bytes`].
//!
//! ## Example: count every routine entry
//!
//! ```
//! use eel_core::{Executable, Snippet};
//!
//! let image = eel_cc::compile_str(
//!     "fn main() { var i; var t = 0;
//!        for (i = 0; i < 3; i = i + 1) { t = t + i; } return t; }",
//!     &eel_cc::Options::default(),
//! )?;
//! let mut exec = Executable::from_image(image)?;
//! exec.read_contents()?;
//!
//! let counters = exec.reserve_data(4 * 64); // a counter array
//! for id in exec.routine_ids() {
//!     let mut cfg = exec.build_cfg(id)?;
//!     let entry = cfg.entry_block();
//!     let snippet = Snippet::counter_increment(counters + 4 * id.index() as u32);
//!     cfg.add_code_at_block_start(entry, snippet)?;
//!     exec.install_edits(cfg)?;
//! }
//! let edited = exec.write_edited()?;
//! assert_eq!(eel_emu::run_image(&edited)?.exit_code, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod cfg;
mod error;
mod executable;
mod fragment;
mod generic;
mod layout;
mod machine;
mod routine;
mod shared;
mod snippet;

pub use analysis::callgraph::{CallGraph, CallSite};
pub use analysis::dom::Dominators;
pub use analysis::jumptable::{JumpResolution, JumpTarget};
pub use analysis::live::{LiveIn, Liveness};
pub use analysis::loops::{natural_loops, NaturalLoop};
pub use analysis::slice::{SliceMark, Slicer};
pub use cfg::{
    Block, BlockId, BlockKind, Cfg, CfgShape, CfgStats, DataRange, Edge, EdgeId, EdgeIter,
    EdgeKind, EdgeList, Edit, EditPoint, InsnAt, InsnIter, Insns,
};
pub use error::EelError;
pub use executable::{
    CfgBatchItem, CfgOutcome, DiscoverySource, Executable, FragmentSource, Replay, RoutineId,
};
pub use fragment::routine_key;
pub use generic::{
    generic_cfg, generic_liveness, instrument_block_counters, uses_generic_pipeline, BlockCounter,
};
pub use machine::{machine_ops, BranchCond, Convention, Flow, MachineOps};
pub use routine::Routine;
pub use shared::Analysis;
pub use snippet::{Callback, RegAssignment, Snippet};
