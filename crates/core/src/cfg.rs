//! Control-flow graphs with explicit delay-slot normalization (paper §3.3).
//!
//! A [`Cfg`] represents one routine. Machine-level internal control flow is
//! made explicit so tools never see it:
//!
//! * A **delay-slot instruction** is moved out of the instruction stream
//!   into its own single-instruction [`BlockKind::DelaySlot`] block, placed
//!   on the edge(s) along which it executes — duplicated along both edges
//!   of a non-annulled branch, on the taken edge only for an annulled
//!   branch (Figure 3), and never for `ba,a`.
//! * A **subroutine call** gets a zero-length [`BlockKind::CallSurrogate`]
//!   block standing in for the callee's body, after the call's (uneditable)
//!   delay block.
//! * Virtual [`BlockKind::Entry`]/[`BlockKind::Exit`] blocks anchor the
//!   graph.
//!
//! Blocks and edges that transfer control out of the routine are marked
//! **uneditable** (§3.3 reports 15–20% of blocks/edges are; [`CfgStats`]
//! measures ours).
//!
//! Editing is batch ([`Cfg::delete_insn`], [`Cfg::add_code_before`]/
//! [`Cfg::add_code_after`], [`Cfg::add_code_along`]): edits accumulate
//! without changing the graph, and are applied by
//! [`crate::Executable::install_edits`].

use crate::analysis::jumptable::JumpResolution;
use crate::error::EelError;
use crate::snippet::Snippet;
use eel_isa::{Category, Insn};

mod build;

pub(crate) use build::build_cfg;

/// Index of a block within its CFG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockId(pub(crate) usize);

/// Index of an edge within its CFG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) usize);

impl BlockId {
    /// Raw index (stable for the life of the CFG).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index (must be `< block_count()`).
    pub fn from_index(i: usize) -> BlockId {
        BlockId(i)
    }
}

impl EdgeId {
    /// Raw index (stable for the life of the CFG).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index (must be `< edge_count()`).
    pub fn from_index(i: usize) -> EdgeId {
        EdgeId(i)
    }
}

/// What kind of block this is (the census in §5's footnote counts these:
/// 12,774 delay-slot blocks, 920 entry/exit, 1,942 call surrogates).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockKind {
    /// The virtual routine-entry block (zero-length).
    Entry,
    /// The virtual routine-exit block (zero-length).
    Exit,
    /// An ordinary straight-line block of instructions.
    Normal,
    /// A single duplicated delay-slot instruction living on an edge.
    DelaySlot,
    /// A zero-length placeholder for a callee's body (§3.3).
    CallSurrogate,
}

/// An instruction together with its original address (`None` for
/// synthesized instructions that have no original location).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InsnAt {
    /// Original address in the unedited executable.
    pub addr: Option<u32>,
    /// The instruction.
    pub insn: Insn,
}

/// Why an edge exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Sequential fall-through (or the link from a delay block onward).
    Fall,
    /// The taken direction of a conditional branch or `ba`.
    Taken,
    /// Reached through a dispatch-table entry.
    Table,
    /// The internal linkage around a call: block → delay → surrogate.
    CallFlow,
    /// Return to the exit block.
    ReturnFlow,
    /// Control leaves the routine to a known address (interprocedural
    /// branch or frame-popped tail call with a resolved target).
    Escape {
        /// The (original) destination address in another routine.
        target: u32,
    },
    /// Control leaves through an unanalyzable indirect jump; the edited
    /// program translates the target at run time (§3.3).
    RuntimeIndirect,
}

/// A directed CFG edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Classification.
    pub kind: EdgeKind,
    /// May a tool add code along this edge?
    pub editable: bool,
}

/// A basic block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Kind (normal / delay-slot / surrogate / entry / exit).
    pub kind: BlockKind,
    /// Representative address: first instruction for normal blocks, the
    /// associated site for synthetic blocks.
    pub addr: u32,
    /// The instructions (empty for zero-length kinds).
    pub insns: Vec<InsnAt>,
    /// May a tool add code inside / delete from this block?
    pub editable: bool,
    pub(crate) preds: Vec<EdgeId>,
    pub(crate) succs: Vec<EdgeId>,
}

impl Block {
    /// Successor edges.
    pub fn succ(&self) -> &[EdgeId] {
        &self.succs
    }

    /// Predecessor edges.
    pub fn pred(&self) -> &[EdgeId] {
        &self.preds
    }

    /// The terminating control transfer, if the block ends in one.
    pub fn terminator(&self) -> Option<InsnAt> {
        self.insns
            .last()
            .copied()
            .filter(|i| i.insn.is_control_transfer())
    }
}

/// How an indirect jump in this CFG resolved.
#[derive(Clone, Debug)]
pub(crate) struct IndirectJumpInfo {
    /// Address of the `jmpl`.
    pub addr: u32,
    /// Outcome of the slicing analysis.
    pub resolution: JumpResolution,
}

/// A range of text-segment addresses identified as data (dispatch tables).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataRange {
    /// First byte.
    pub start: u32,
    /// One past the last byte.
    pub end: u32,
}

/// A recorded, not-yet-applied edit (§3.3.1's batch model).
#[derive(Debug)]
pub struct Edit {
    /// Where the edit applies.
    pub point: EditPoint,
    /// The code to insert (`None` = delete the instruction at the point).
    pub snippet: Option<Snippet>,
}

/// Where an edit applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EditPoint {
    /// Before the instruction at this original address.
    Before(u32),
    /// After the instruction at this original address.
    After(u32),
    /// Along a CFG edge.
    Edge(EdgeId),
    /// At the very start of a block (used for entry instrumentation).
    BlockStart(BlockId),
}

/// Aggregate CFG statistics (experiments E-BB and E-UE).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CfgStats {
    /// Normal blocks.
    pub normal_blocks: usize,
    /// Delay-slot blocks.
    pub delay_slot_blocks: usize,
    /// Call-surrogate blocks.
    pub call_surrogate_blocks: usize,
    /// Entry + exit blocks.
    pub entry_exit_blocks: usize,
    /// Blocks marked uneditable.
    pub uneditable_blocks: usize,
    /// Total edges.
    pub edges: usize,
    /// Edges marked uneditable.
    pub uneditable_edges: usize,
    /// Instructions across all blocks (delay-slot duplicates counted).
    pub instructions: usize,
}

impl CfgStats {
    /// Total blocks of every kind.
    pub fn total_blocks(&self) -> usize {
        self.normal_blocks
            + self.delay_slot_blocks
            + self.call_surrogate_blocks
            + self.entry_exit_blocks
    }

    /// Fraction of edges that are uneditable (§3.3: 15–20% expected).
    pub fn uneditable_edge_fraction(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.uneditable_edges as f64 / self.edges as f64
        }
    }

    /// Merges another routine's stats into a program total.
    pub fn accumulate(&mut self, other: &CfgStats) {
        self.normal_blocks += other.normal_blocks;
        self.delay_slot_blocks += other.delay_slot_blocks;
        self.call_surrogate_blocks += other.call_surrogate_blocks;
        self.entry_exit_blocks += other.entry_exit_blocks;
        self.uneditable_blocks += other.uneditable_blocks;
        self.edges += other.edges;
        self.uneditable_edges += other.uneditable_edges;
        self.instructions += other.instructions;
    }
}

/// The control-flow graph of one routine.
#[derive(Debug)]
pub struct Cfg {
    pub(crate) routine: crate::executable::RoutineId,
    pub(crate) blocks: Vec<Block>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) entry: BlockId,
    pub(crate) exit: BlockId,
    /// Entry points (original addresses) in ascending order.
    pub(crate) entry_addrs: Vec<u32>,
    /// Data ranges discovered inside the routine (dispatch tables).
    pub(crate) data_ranges: Vec<DataRange>,
    /// Indirect jumps and how they resolved.
    pub(crate) indirect_jumps: Vec<IndirectJumpInfo>,
    /// Indirect calls and how their callee resolved (literal or unknown).
    pub(crate) indirect_calls: Vec<IndirectJumpInfo>,
    /// Direct call sites: (call address, original target address).
    pub(crate) call_sites: Vec<(u32, u32)>,
    /// True when some control flow could not be analyzed statically.
    pub(crate) incomplete: bool,
    /// Extent of the routine in the original text segment.
    pub(crate) extent: (u32, u32),
    /// Accumulated edits (batch model).
    pub(crate) edits: Vec<Edit>,
}

impl Cfg {
    /// The routine this CFG describes.
    pub fn routine_id(&self) -> crate::executable::RoutineId {
        self.routine
    }

    /// All blocks, indexable by [`BlockId`].
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i), b))
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// An edge by id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Number of blocks (including virtual and synthetic ones).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The virtual entry block.
    pub fn entry_block(&self) -> BlockId {
        self.entry
    }

    /// The virtual exit block.
    pub fn exit_block(&self) -> BlockId {
        self.exit
    }

    /// The routine's entry-point addresses (≥1; Fortran-style multiple
    /// entries appear here, §3.1).
    pub fn entry_addrs(&self) -> &[u32] {
        &self.entry_addrs
    }

    /// Was any control flow unanalyzable (run-time translation needed)?
    pub fn is_incomplete(&self) -> bool {
        self.incomplete
    }

    /// Data ranges (dispatch tables) found inside the routine.
    pub fn data_ranges(&self) -> &[DataRange] {
        &self.data_ranges
    }

    /// Direct call sites `(call_addr, target_addr)`.
    pub fn call_sites(&self) -> &[(u32, u32)] {
        &self.call_sites
    }

    /// How each indirect jump resolved: `(jump_addr, resolution)`.
    pub fn indirect_jumps(&self) -> impl Iterator<Item = (u32, &JumpResolution)> {
        self.indirect_jumps.iter().map(|i| (i.addr, &i.resolution))
    }

    /// The block containing the instruction at `addr`, with its index
    /// within the block. Only normal blocks are searched.
    pub fn block_at(&self, addr: u32) -> Option<(BlockId, usize)> {
        for (i, b) in self.blocks.iter().enumerate() {
            if b.kind != BlockKind::Normal {
                continue;
            }
            if let Some(pos) = b.insns.iter().position(|ia| ia.addr == Some(addr)) {
                return Some((BlockId(i), pos));
            }
        }
        None
    }

    /// Census of blocks, edges, and editability.
    pub fn stats(&self) -> CfgStats {
        let mut s = CfgStats::default();
        for b in &self.blocks {
            match b.kind {
                BlockKind::Normal => s.normal_blocks += 1,
                BlockKind::DelaySlot => s.delay_slot_blocks += 1,
                BlockKind::CallSurrogate => s.call_surrogate_blocks += 1,
                BlockKind::Entry | BlockKind::Exit => s.entry_exit_blocks += 1,
            }
            if !b.editable {
                s.uneditable_blocks += 1;
            }
            s.instructions += b.insns.len();
        }
        s.edges = self.edges.len();
        s.uneditable_edges = self.edges.iter().filter(|e| !e.editable).count();
        s
    }

    // ----- batch editing (§3.3.1) --------------------------------------

    /// Records deletion of the (non-control-transfer) instruction at
    /// `addr`.
    ///
    /// # Errors
    ///
    /// [`EelError::BadEditTarget`] if `addr` is not in an editable normal
    /// block, or names a control transfer (delete would require graph
    /// surgery; restructure with edge edits instead).
    pub fn delete_insn(&mut self, addr: u32) -> Result<(), EelError> {
        let (bid, pos) = self.check_insn_point(addr)?;
        let block = &self.blocks[bid.0];
        if block.insns[pos].insn.is_control_transfer() {
            return Err(EelError::BadEditTarget(format!(
                "cannot delete the control transfer at {addr:#x}"
            )));
        }
        self.edits.push(Edit {
            point: EditPoint::Before(addr),
            snippet: None,
        });
        Ok(())
    }

    /// Records insertion of `snippet` immediately before the instruction
    /// at `addr`.
    ///
    /// # Errors
    ///
    /// [`EelError::BadEditTarget`] / [`EelError::Uneditable`] when the
    /// point cannot hold code.
    pub fn add_code_before(&mut self, addr: u32, snippet: Snippet) -> Result<(), EelError> {
        self.check_insn_point(addr)?;
        self.edits.push(Edit {
            point: EditPoint::Before(addr),
            snippet: Some(snippet),
        });
        Ok(())
    }

    /// Records insertion of `snippet` immediately after the instruction at
    /// `addr`.
    ///
    /// # Errors
    ///
    /// As [`Cfg::add_code_before`]; additionally rejects control transfers
    /// (add along their out-edges instead, as the paper's model does).
    pub fn add_code_after(&mut self, addr: u32, snippet: Snippet) -> Result<(), EelError> {
        let (bid, pos) = self.check_insn_point(addr)?;
        if self.blocks[bid.0].insns[pos].insn.is_control_transfer() {
            return Err(EelError::BadEditTarget(format!(
                "cannot add after the control transfer at {addr:#x}; edit its edges"
            )));
        }
        self.edits.push(Edit {
            point: EditPoint::After(addr),
            snippet: Some(snippet),
        });
        Ok(())
    }

    /// Records insertion of `snippet` along a CFG edge (the paper's
    /// `e->add_code_along`).
    ///
    /// # Errors
    ///
    /// [`EelError::Uneditable`] for uneditable edges.
    pub fn add_code_along(&mut self, edge: EdgeId, snippet: Snippet) -> Result<(), EelError> {
        let e = self
            .edges
            .get(edge.0)
            .ok_or_else(|| EelError::BadEditTarget(format!("no edge {edge:?}")))?;
        if !e.editable {
            return Err(EelError::Uneditable {
                what: "edge",
                addr: self.blocks[e.from.0].addr,
            });
        }
        self.edits.push(Edit {
            point: EditPoint::Edge(edge),
            snippet: Some(snippet),
        });
        Ok(())
    }

    /// Records insertion of `snippet` at the start of a block. For the
    /// virtual entry block this instruments every routine entry.
    ///
    /// # Errors
    ///
    /// [`EelError::Uneditable`] for uneditable blocks;
    /// [`EelError::BadEditTarget`] for delay-slot/surrogate/exit blocks.
    pub fn add_code_at_block_start(
        &mut self,
        block: BlockId,
        snippet: Snippet,
    ) -> Result<(), EelError> {
        let b = self
            .blocks
            .get(block.0)
            .ok_or_else(|| EelError::BadEditTarget(format!("no block {block:?}")))?;
        match b.kind {
            BlockKind::Normal | BlockKind::Entry => {}
            other => {
                return Err(EelError::BadEditTarget(format!(
                    "cannot add at start of {other:?} block; edit its edges"
                )))
            }
        }
        if !b.editable {
            return Err(EelError::Uneditable {
                what: "block",
                addr: b.addr,
            });
        }
        self.edits.push(Edit {
            point: EditPoint::BlockStart(block),
            snippet: Some(snippet),
        });
        Ok(())
    }

    /// Number of edits recorded so far.
    pub fn edit_count(&self) -> usize {
        self.edits.len()
    }

    fn check_insn_point(&self, addr: u32) -> Result<(BlockId, usize), EelError> {
        let (bid, pos) = self.block_at(addr).ok_or_else(|| {
            EelError::BadEditTarget(format!("no instruction at {addr:#x} in this routine"))
        })?;
        let b = &self.blocks[bid.0];
        if !b.editable {
            return Err(EelError::Uneditable {
                what: "block",
                addr,
            });
        }
        Ok((bid, pos))
    }

    /// Figure 1's edge-profiling placement: the editable out-edges of
    /// every `Normal` block with more than one successor, in block order
    /// and then successor order. Each edge comes with its source block's
    /// address and its index among that block's successors (uneditable
    /// successors count), which is how profiles name the edge.
    pub fn profiled_edges(&self) -> Vec<(u32, u32, EdgeId)> {
        let mut out = Vec::new();
        for b in &self.blocks {
            if b.kind != BlockKind::Normal || b.succs.len() < 2 {
                continue;
            }
            for (i, &e) in b.succs.iter().enumerate() {
                if self.edges[e.0].editable {
                    out.push((b.addr, i as u32, e));
                }
            }
        }
        out
    }

    /// Finds registers that are completely unused by this routine —
    /// never read, never written, and not part of the calling convention
    /// surface. A snippet may use such a register anywhere in the routine
    /// without saving it. (The paper's §3.5 footnote promised "a
    /// mechanism to free a register" in later releases; this is its safe,
    /// whole-routine form.)
    pub fn free_registers(&self) -> eel_isa::RegSet {
        let mut used = eel_isa::RegSet::of(&[
            eel_isa::Reg::G0,
            eel_isa::Reg::SP,
            eel_isa::Reg::FP,
            eel_isa::Reg::O7,
        ]);
        // The convention surface: arguments and results flow through
        // %o0-%o5 and callees may clobber the caller-saved set.
        used = used.union(crate::analysis::live::call_uses());
        used = used.union(crate::analysis::live::call_defs());
        for b in &self.blocks {
            for ia in &b.insns {
                used = used.union(ia.insn.reads()).union(ia.insn.writes());
            }
        }
        eel_isa::RegSet::all_gprs().without(used)
    }

    /// All load/store instruction sites in normal blocks (used by memory
    /// instrumenting tools like Active Memory).
    pub fn memory_sites(&self) -> Vec<InsnAt> {
        let mut out = Vec::new();
        for b in &self.blocks {
            if b.kind != BlockKind::Normal {
                continue;
            }
            for ia in &b.insns {
                if matches!(ia.insn.category(), Category::Load | Category::Store) {
                    out.push(*ia);
                }
            }
        }
        out
    }
}
