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
//! A `Cfg` is two parts:
//!
//! * its [`CfgShape`] — the graph itself, immutable and shared behind an
//!   [`Arc`]. The shape stores no instructions: a normal block is an
//!   address range over the image and a delay-slot block names its one
//!   address, so [`Block::insns`] decodes from the image on read. Blocks
//!   and edges are flat records, with successor and predecessor lists in
//!   compressed sparse rows (per-block offsets into one edge-id array).
//!   One eel-serve analysis builds each routine's shape once and every op
//!   borrows it.
//! * its **edits**, which belong to the one tool or session editing it.
//!   Editing is batch ([`Cfg::delete_insn`], [`Cfg::add_code_before`]/
//!   [`Cfg::add_code_after`], [`Cfg::add_code_along`]): edits accumulate
//!   without changing the graph, and are applied by
//!   [`crate::Executable::install_edits`].
//!
//! A `Cfg` dereferences to its shape, so every read accessor is on
//! [`CfgShape`].

use crate::analysis::jumptable::JumpResolution;
use crate::error::EelError;
use crate::shared::ALLOC_OVERHEAD;
use crate::snippet::Snippet;
use eel_exe::Image;
use eel_isa::{Category, Insn};
use std::sync::Arc;

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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

/// A basic block, read through its CFG's shape.
#[derive(Clone, Copy, Debug)]
pub struct Block<'a> {
    /// Kind (normal / delay-slot / surrogate / entry / exit).
    pub kind: BlockKind,
    /// Representative address: first instruction for normal blocks, the
    /// associated site for synthetic blocks.
    pub addr: u32,
    /// The instructions (empty for zero-length kinds), decoded from the
    /// image on read.
    pub insns: Insns<'a>,
    /// May a tool add code inside / delete from this block?
    pub editable: bool,
    succs: EdgeList<'a>,
    preds: EdgeList<'a>,
}

impl<'a> Block<'a> {
    /// Successor edges.
    pub fn succ(&self) -> EdgeList<'a> {
        self.succs
    }

    /// Predecessor edges.
    pub fn pred(&self) -> EdgeList<'a> {
        self.preds
    }

    /// The terminating control transfer, if the block ends in one.
    pub fn terminator(&self) -> Option<InsnAt> {
        self.insns.last().filter(|i| i.insn.is_control_transfer())
    }
}

/// A block's instructions: consecutive words of the image, decoded on
/// read. Cheap to copy.
#[derive(Clone, Copy)]
pub struct Insns<'a> {
    /// The instructions' big-endian bytes in the text segment.
    bytes: &'a [u8],
    /// Address of the first instruction.
    start: u32,
}

impl std::fmt::Debug for Insns<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> Insns<'a> {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// Does the block hold no instructions?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`th instruction.
    pub fn get(&self, i: usize) -> Option<InsnAt> {
        (i < self.len()).then(|| self.decode(i))
    }

    /// The first instruction.
    pub fn first(&self) -> Option<InsnAt> {
        self.get(0)
    }

    /// The last instruction.
    pub fn last(&self) -> Option<InsnAt> {
        self.len().checked_sub(1).map(|i| self.decode(i))
    }

    /// The instructions' addresses, without decoding them.
    pub fn addrs(&self) -> impl Iterator<Item = u32> {
        let start = self.start;
        (0..self.len() as u32).map(move |i| start + 4 * i)
    }

    /// The instructions' `(address, word)` pairs, without decoding them.
    pub fn words(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        let start = self.start;
        let words = self.bytes.chunks_exact(4);
        let words = words.map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
        (0..).map(move |i| start + 4 * i).zip(words)
    }

    /// The instructions in address order.
    pub fn iter(&self) -> InsnIter<'a> {
        InsnIter {
            insns: *self,
            front: 0,
            back: self.len(),
        }
    }

    fn decode(&self, i: usize) -> InsnAt {
        let b = &self.bytes[4 * i..4 * i + 4];
        InsnAt {
            addr: Some(self.start + 4 * i as u32),
            insn: eel_isa::decode(u32::from_be_bytes([b[0], b[1], b[2], b[3]])),
        }
    }
}

impl<'a> IntoIterator for Insns<'a> {
    type Item = InsnAt;
    type IntoIter = InsnIter<'a>;
    fn into_iter(self) -> InsnIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Insns<'a> {
    type Item = InsnAt;
    type IntoIter = InsnIter<'a>;
    fn into_iter(self) -> InsnIter<'a> {
        self.iter()
    }
}

/// Iterator over [`Insns`], decoding each word as it is reached.
#[derive(Clone, Debug)]
pub struct InsnIter<'a> {
    insns: Insns<'a>,
    front: usize,
    back: usize,
}

impl Iterator for InsnIter<'_> {
    type Item = InsnAt;
    fn next(&mut self) -> Option<InsnAt> {
        (self.front < self.back).then(|| {
            self.front += 1;
            self.insns.decode(self.front - 1)
        })
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for InsnIter<'_> {
    fn next_back(&mut self) -> Option<InsnAt> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.insns.decode(self.back)
        })
    }
}

impl ExactSizeIterator for InsnIter<'_> {}

/// A block's successor or predecessor edges: one row of the shape's
/// compressed adjacency. Cheap to copy.
#[derive(Clone, Copy, Debug)]
pub struct EdgeList<'a>(&'a [u32]);

/// Iterator over an [`EdgeList`].
pub type EdgeIter<'a> =
    std::iter::Map<std::iter::Copied<std::slice::Iter<'a, u32>>, fn(u32) -> EdgeId>;

fn edge_id(e: u32) -> EdgeId {
    EdgeId(e as usize)
}

impl<'a> EdgeList<'a> {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `i`th edge.
    pub fn get(&self, i: usize) -> Option<EdgeId> {
        self.0.get(i).copied().map(edge_id)
    }

    /// The first edge.
    pub fn first(&self) -> Option<EdgeId> {
        self.get(0)
    }

    /// Is `e` in the list?
    pub fn contains(&self, e: &EdgeId) -> bool {
        self.iter().any(|x| x == *e)
    }

    /// The edges in order.
    pub fn iter(&self) -> EdgeIter<'a> {
        self.0.iter().copied().map(edge_id as fn(u32) -> EdgeId)
    }

    /// The edges, collected.
    pub fn to_vec(&self) -> Vec<EdgeId> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for EdgeList<'a> {
    type Item = EdgeId;
    type IntoIter = EdgeIter<'a>;
    fn into_iter(self) -> EdgeIter<'a> {
        self.iter()
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

// ---- the shape's record encoding --------------------------------------------

/// The entry block is always block 0, the exit block 1, and the normal
/// blocks follow in address order; synthetic blocks come last.
const ENTRY: usize = 0;
const EXIT: usize = 1;
const FIRST_NORMAL: usize = 2;

/// Block meta byte: the kind in the low bits, then the editable bit.
const BLOCK_KINDS: [BlockKind; 5] = [
    BlockKind::Entry,
    BlockKind::Exit,
    BlockKind::Normal,
    BlockKind::DelaySlot,
    BlockKind::CallSurrogate,
];
const EDITABLE: u8 = 8;

fn block_meta(kind: BlockKind, editable: bool) -> u8 {
    let code = BLOCK_KINDS.iter().position(|&k| k == kind).unwrap_or(0) as u8;
    code | if editable { EDITABLE } else { 0 }
}

/// Edge meta byte: the kind code in the low bits, then the editable bit.
/// An escape edge's target is stored in place of its destination block,
/// which is always the exit.
const EDGE_FALL: u8 = 0;
const EDGE_TAKEN: u8 = 1;
const EDGE_TABLE: u8 = 2;
const EDGE_CALL_FLOW: u8 = 3;
const EDGE_RETURN_FLOW: u8 = 4;
const EDGE_ESCAPE: u8 = 5;
const EDGE_RUNTIME: u8 = 6;

fn edge_meta(kind: EdgeKind, editable: bool) -> u8 {
    let code = match kind {
        EdgeKind::Fall => EDGE_FALL,
        EdgeKind::Taken => EDGE_TAKEN,
        EdgeKind::Table => EDGE_TABLE,
        EdgeKind::CallFlow => EDGE_CALL_FLOW,
        EdgeKind::ReturnFlow => EDGE_RETURN_FLOW,
        EdgeKind::Escape { .. } => EDGE_ESCAPE,
        EdgeKind::RuntimeIndirect => EDGE_RUNTIME,
    };
    code | if editable { EDITABLE } else { 0 }
}

/// The sections of a shape's word arena, in order.
#[derive(Clone, Copy)]
enum Sec {
    /// Per block: its address.
    BlockAddr,
    /// Per block: its meta byte, four to a word.
    BlockMeta,
    /// Per normal block: its instruction count.
    NormalLen,
    /// Per block, plus one: offset of its row in `Succ`.
    SuccOff,
    /// Per block, plus one: offset of its row in `Pred`.
    PredOff,
    /// Per edge: its source block.
    From,
    /// Per edge: its destination block, or an escape's target.
    To,
    /// Per edge: its meta byte, four to a word.
    EdgeMeta,
    /// Successor edge ids, grouped by source block.
    Succ,
    /// Predecessor edge ids, grouped by destination block.
    Pred,
    /// The entry addresses the routine was built with.
    Entries,
    /// Direct call sites, `(call, target)` word pairs.
    Calls,
    /// The routine as the build saw it: its end, then its entries.
    Snapshot,
    /// The §3.1 stage-3 escape targets the build registered.
    Escapes,
    /// The §3.1 stage-4 trailing splits the build performed.
    Splits,
}
const SECTIONS: usize = Sec::Splits as usize + 1;

/// The §3.1 side effects of one routine's build, as a shape records them
/// for a later executable to replay.
#[derive(Debug, Default)]
pub(crate) struct BuildEffects {
    /// The routine's end and entries when the build started (its start is
    /// the shape's).
    pub snapshot_end: u32,
    pub snapshot_entries: Vec<u32>,
    /// Escape targets registered, sorted and deduplicated.
    pub escapes: Vec<u32>,
    /// Trailing-split addresses, in order.
    pub splits: Vec<u32>,
    /// Did jump analysis read a word outside the extent?
    pub external_reads: bool,
}

/// The immutable part of a routine's CFG: blocks, edges, adjacency,
/// dispatch tables and call sites, plus the record of the build that made
/// it. `Send + Sync`; shared behind an [`Arc`] by every [`Cfg`] over it.
///
/// Blocks, edges and lists are fixed-width records in one word arena
/// (block and edge ids index its sections); instructions are not stored
/// but decoded from the image on read.
pub struct CfgShape {
    image: Arc<Image>,
    extent: (u32, u32),
    words: Box<[u32]>,
    /// Start of each section in `words`, plus the end.
    at: [u32; SECTIONS + 1],
    /// Indirect jumps, then indirect calls, each in scan order.
    indirect: Box<[IndirectJumpInfo]>,
    indirect_jumps: u32,
    incomplete: bool,
    external_reads: bool,
}

impl std::fmt::Debug for CfgShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CfgShape")
            .field("extent", &self.extent)
            .field("blocks", &self.block_count())
            .field("edges", &self.edge_count())
            .finish_non_exhaustive()
    }
}

/// The graph a build materializes, before it is packed into a shape.
#[derive(Default)]
pub(crate) struct ShapeDraft {
    pub block_addr: Vec<u32>,
    pub block_meta: Vec<u8>,
    pub normal_len: Vec<u32>,
    pub from: Vec<u32>,
    pub to: Vec<u32>,
    pub edge_meta: Vec<u8>,
    pub entries: Vec<u32>,
    pub calls: Vec<(u32, u32)>,
    pub indirect_jumps: Vec<IndirectJumpInfo>,
    pub indirect_calls: Vec<IndirectJumpInfo>,
    pub incomplete: bool,
}

impl ShapeDraft {
    pub(crate) fn push_block(&mut self, kind: BlockKind, addr: u32, editable: bool) -> BlockId {
        self.block_addr.push(addr);
        self.block_meta.push(block_meta(kind, editable));
        BlockId(self.block_addr.len() - 1)
    }

    pub(crate) fn fix_block(&mut self, b: BlockId) {
        self.block_meta[b.0] &= !EDITABLE;
    }

    pub(crate) fn add_edge(&mut self, from: BlockId, to: BlockId, kind: EdgeKind, editable: bool) {
        self.from.push(from.0 as u32);
        self.to.push(match kind {
            EdgeKind::Escape { target } => target,
            _ => to.0 as u32,
        });
        self.edge_meta.push(edge_meta(kind, editable));
    }

    /// Packs the draft into a shape: one arena allocation sized exactly,
    /// with the adjacency rows filled by a counting pass over the edges
    /// (creation order within each row).
    pub(crate) fn finish(
        self,
        image: &Arc<Image>,
        extent: (u32, u32),
        effects: BuildEffects,
    ) -> CfgShape {
        let blocks = self.block_addr.len();
        let edges = self.from.len();
        let dest = |e: usize| {
            if self.edge_meta[e] & 7 == EDGE_ESCAPE {
                EXIT
            } else {
                self.to[e] as usize
            }
        };
        let mut lens = [0usize; SECTIONS];
        lens[Sec::BlockAddr as usize] = blocks;
        lens[Sec::BlockMeta as usize] = blocks.div_ceil(4);
        lens[Sec::NormalLen as usize] = self.normal_len.len();
        lens[Sec::SuccOff as usize] = blocks + 1;
        lens[Sec::PredOff as usize] = blocks + 1;
        lens[Sec::From as usize] = edges;
        lens[Sec::To as usize] = edges;
        lens[Sec::EdgeMeta as usize] = edges.div_ceil(4);
        lens[Sec::Succ as usize] = edges;
        lens[Sec::Pred as usize] = edges;
        lens[Sec::Entries as usize] = self.entries.len();
        lens[Sec::Calls as usize] = 2 * self.calls.len();
        lens[Sec::Snapshot as usize] = 1 + effects.snapshot_entries.len();
        lens[Sec::Escapes as usize] = effects.escapes.len();
        lens[Sec::Splits as usize] = effects.splits.len();
        let mut at = [0u32; SECTIONS + 1];
        for s in 0..SECTIONS {
            at[s + 1] = at[s] + lens[s] as u32;
        }
        let mut words = vec![0u32; at[SECTIONS] as usize].into_boxed_slice();
        let sec = |s: Sec| at[s as usize] as usize..at[s as usize + 1] as usize;
        words[sec(Sec::BlockAddr)].copy_from_slice(&self.block_addr);
        pack_bytes(&mut words[sec(Sec::BlockMeta)], &self.block_meta);
        words[sec(Sec::NormalLen)].copy_from_slice(&self.normal_len);
        // Row offsets: count, then prefix-sum; then place each edge.
        {
            let (succ_off, pred_off) = (sec(Sec::SuccOff).start, sec(Sec::PredOff).start);
            for e in 0..edges {
                words[succ_off + self.from[e] as usize + 1] += 1;
                words[pred_off + dest(e) + 1] += 1;
            }
            for b in 0..blocks {
                words[succ_off + b + 1] += words[succ_off + b];
                words[pred_off + b + 1] += words[pred_off + b];
            }
            let mut succ_fill: Vec<u32> = words[succ_off..succ_off + blocks].to_vec();
            let mut pred_fill: Vec<u32> = words[pred_off..pred_off + blocks].to_vec();
            let (succ, pred) = (sec(Sec::Succ).start, sec(Sec::Pred).start);
            for e in 0..edges {
                let s = &mut succ_fill[self.from[e] as usize];
                words[succ + *s as usize] = e as u32;
                *s += 1;
                let p = &mut pred_fill[dest(e)];
                words[pred + *p as usize] = e as u32;
                *p += 1;
            }
        }
        words[sec(Sec::From)].copy_from_slice(&self.from);
        words[sec(Sec::To)].copy_from_slice(&self.to);
        pack_bytes(&mut words[sec(Sec::EdgeMeta)], &self.edge_meta);
        words[sec(Sec::Entries)].copy_from_slice(&self.entries);
        for (k, &(site, target)) in self.calls.iter().enumerate() {
            words[sec(Sec::Calls).start + 2 * k] = site;
            words[sec(Sec::Calls).start + 2 * k + 1] = target;
        }
        let snapshot = sec(Sec::Snapshot);
        words[snapshot.start] = effects.snapshot_end;
        words[snapshot.start + 1..snapshot.end].copy_from_slice(&effects.snapshot_entries);
        words[sec(Sec::Escapes)].copy_from_slice(&effects.escapes);
        words[sec(Sec::Splits)].copy_from_slice(&effects.splits);
        let indirect_jumps = self.indirect_jumps.len() as u32;
        let mut indirect = self.indirect_jumps;
        indirect.extend(self.indirect_calls);
        CfgShape {
            image: Arc::clone(image),
            extent,
            words,
            at,
            indirect: indirect.into_boxed_slice(),
            indirect_jumps,
            incomplete: self.incomplete,
            external_reads: effects.external_reads,
        }
    }
}

/// Packs bytes four to a little-endian word.
fn pack_bytes(words: &mut [u32], bytes: &[u8]) {
    for (i, &b) in bytes.iter().enumerate() {
        words[i / 4] |= u32::from(b) << (8 * (i % 4));
    }
}

impl CfgShape {
    fn sec(&self, s: Sec) -> &[u32] {
        &self.words[self.at[s as usize] as usize..self.at[s as usize + 1] as usize]
    }

    fn byte(&self, s: Sec, i: usize) -> u8 {
        (self.sec(s)[i / 4] >> (8 * (i % 4))) as u8
    }

    /// Row `i` of a compressed adjacency.
    fn row(&self, off: Sec, list: Sec, i: usize) -> EdgeList<'_> {
        let off = self.sec(off);
        EdgeList(&self.sec(list)[off[i] as usize..off[i + 1] as usize])
    }

    /// All blocks, indexable by [`BlockId`].
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, Block<'_>)> {
        (0..self.block_count()).map(|i| (BlockId(i), self.block(BlockId(i))))
    }

    /// A block by id.
    ///
    /// # Panics
    ///
    /// Panics on an id from another CFG that is out of range here.
    pub fn block(&self, id: BlockId) -> Block<'_> {
        let i = id.0;
        let meta = self.byte(Sec::BlockMeta, i);
        let kind = BLOCK_KINDS[usize::from(meta & 7)];
        let addr = self.sec(Sec::BlockAddr)[i];
        let len = match kind {
            BlockKind::Normal => self.sec(Sec::NormalLen)[i - FIRST_NORMAL] as usize,
            BlockKind::DelaySlot => 1,
            _ => 0,
        };
        let bytes = if len == 0 {
            &[][..]
        } else {
            let off = (addr - self.image.text_addr) as usize;
            &self.image.text[off..off + 4 * len]
        };
        Block {
            kind,
            addr,
            insns: Insns { bytes, start: addr },
            editable: meta & EDITABLE != 0,
            succs: self.row(Sec::SuccOff, Sec::Succ, i),
            preds: self.row(Sec::PredOff, Sec::Pred, i),
        }
    }

    /// An edge by id.
    ///
    /// # Panics
    ///
    /// Panics on an id from another CFG that is out of range here.
    pub fn edge(&self, id: EdgeId) -> Edge {
        let e = id.0;
        let meta = self.byte(Sec::EdgeMeta, e);
        let to = self.sec(Sec::To)[e];
        let kind = match meta & 7 {
            EDGE_FALL => EdgeKind::Fall,
            EDGE_TAKEN => EdgeKind::Taken,
            EDGE_TABLE => EdgeKind::Table,
            EDGE_CALL_FLOW => EdgeKind::CallFlow,
            EDGE_RETURN_FLOW => EdgeKind::ReturnFlow,
            EDGE_ESCAPE => EdgeKind::Escape { target: to },
            _ => EdgeKind::RuntimeIndirect,
        };
        Edge {
            from: BlockId(self.sec(Sec::From)[e] as usize),
            to: BlockId(if meta & 7 == EDGE_ESCAPE {
                EXIT
            } else {
                to as usize
            }),
            kind,
            editable: meta & EDITABLE != 0,
        }
    }

    /// The successor rows as block indices: per-block offsets (one more
    /// than there are blocks) into the destination block of each
    /// successor edge. For fixpoints that sweep every row many times.
    pub(crate) fn succ_blocks(&self) -> (&[u32], Vec<u32>) {
        let to = self.sec(Sec::To);
        let dest = self.sec(Sec::Succ).iter().map(|&e| {
            let e = e as usize;
            if self.byte(Sec::EdgeMeta, e) & 7 == EDGE_ESCAPE {
                EXIT as u32
            } else {
                to[e]
            }
        });
        (self.sec(Sec::SuccOff), dest.collect())
    }

    /// Number of blocks (including virtual and synthetic ones).
    pub fn block_count(&self) -> usize {
        self.sec(Sec::BlockAddr).len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.sec(Sec::From).len()
    }

    /// The virtual entry block.
    pub fn entry_block(&self) -> BlockId {
        BlockId(ENTRY)
    }

    /// The virtual exit block.
    pub fn exit_block(&self) -> BlockId {
        BlockId(EXIT)
    }

    /// The routine's entry-point addresses (≥1; Fortran-style multiple
    /// entries appear here, §3.1).
    pub fn entry_addrs(&self) -> &[u32] {
        self.sec(Sec::Entries)
    }

    /// Extent of the routine in the original text segment.
    pub(crate) fn extent(&self) -> (u32, u32) {
        self.extent
    }

    /// The machine the routine's image targets.
    pub(crate) fn machine(&self) -> eel_exe::Machine {
        self.image.machine
    }

    /// Was any control flow unanalyzable (run-time translation needed)?
    pub fn is_incomplete(&self) -> bool {
        self.incomplete
    }

    /// Data ranges (dispatch tables) found inside the routine, one per
    /// table-resolved indirect jump, clipped to the extent.
    pub fn data_ranges(&self) -> impl Iterator<Item = DataRange> + '_ {
        self.jump_infos()
            .iter()
            .filter_map(|i| match &i.resolution {
                JumpResolution::Table {
                    table_addr,
                    targets,
                    ..
                } => Some(DataRange {
                    start: *table_addr,
                    end: (table_addr + 4 * targets.len() as u32).min(self.extent.1),
                }),
                _ => None,
            })
    }

    /// Direct call sites `(call_addr, target_addr)`.
    pub fn call_sites(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.sec(Sec::Calls).chunks_exact(2).map(|c| (c[0], c[1]))
    }

    /// How each indirect jump resolved: `(jump_addr, resolution)`.
    pub fn indirect_jumps(&self) -> impl Iterator<Item = (u32, &JumpResolution)> {
        self.jump_infos().iter().map(|i| (i.addr, &i.resolution))
    }

    /// The indirect jumps in scan order.
    pub(crate) fn jump_infos(&self) -> &[IndirectJumpInfo] {
        &self.indirect[..self.indirect_jumps as usize]
    }

    /// The indirect calls in scan order.
    pub(crate) fn call_infos(&self) -> &[IndirectJumpInfo] {
        &self.indirect[self.indirect_jumps as usize..]
    }

    /// The routine's end and entries when the build started.
    pub(crate) fn snapshot(&self) -> (u32, &[u32]) {
        let s = self.sec(Sec::Snapshot);
        (s[0], &s[1..])
    }

    /// The escape targets the build registered (sorted, deduplicated).
    pub(crate) fn escapes(&self) -> &[u32] {
        self.sec(Sec::Escapes)
    }

    /// The trailing splits the build performed, in order.
    pub(crate) fn splits(&self) -> &[u32] {
        self.sec(Sec::Splits)
    }

    /// Did jump analysis read a word outside the extent? Such a build is
    /// not a pure function of the routine's content key.
    pub(crate) fn external_reads(&self) -> bool {
        self.external_reads
    }

    /// Bytes this shape keeps resident, allocator bookkeeping and the
    /// [`Arc`] header included: what an analysis cache charges for it.
    pub(crate) fn retained_bytes(&self) -> usize {
        let arc = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<CfgShape>();
        let words = 4 * self.words.len();
        let indirect: usize = self
            .indirect
            .iter()
            .map(|i| {
                std::mem::size_of_val(i)
                    + match &i.resolution {
                        JumpResolution::Table {
                            targets,
                            base_insns,
                            ..
                        } => 4 * (targets.len() + base_insns.len()) + 2 * ALLOC_OVERHEAD,
                        JumpResolution::Literal { base_insns, .. } => {
                            4 * base_insns.len() + ALLOC_OVERHEAD
                        }
                        JumpResolution::Unknown => 0,
                    }
            })
            .sum();
        let indirect_block = if self.indirect.is_empty() {
            0
        } else {
            ALLOC_OVERHEAD
        };
        arc + ALLOC_OVERHEAD + words + ALLOC_OVERHEAD + indirect + indirect_block
    }

    /// The block containing the instruction at `addr`, with its index
    /// within the block. Only normal blocks are searched: they are in
    /// address order and disjoint, so this is a binary search.
    pub fn block_at(&self, addr: u32) -> Option<(BlockId, usize)> {
        let normal = &self.sec(Sec::BlockAddr)[FIRST_NORMAL..FIRST_NORMAL + self.normal_count()];
        let k = normal.partition_point(|&a| a <= addr).checked_sub(1)?;
        let off = addr - normal[k];
        let len = self.sec(Sec::NormalLen)[k];
        (off.is_multiple_of(4) && off / 4 < len)
            .then(|| (BlockId(FIRST_NORMAL + k), (off / 4) as usize))
    }

    fn normal_count(&self) -> usize {
        self.sec(Sec::NormalLen).len()
    }

    /// Census of blocks, edges, and editability.
    pub fn stats(&self) -> CfgStats {
        let mut s = CfgStats::default();
        for (_, b) in self.blocks() {
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
        s.edges = self.edge_count();
        s.uneditable_edges = (0..s.edges)
            .filter(|&e| self.byte(Sec::EdgeMeta, e) & EDITABLE == 0)
            .count();
        s
    }

    /// Figure 1's edge-profiling placement: the editable out-edges of
    /// every `Normal` block with more than one successor, in block order
    /// and then successor order. Each edge comes with its source block's
    /// address and its index among that block's successors (uneditable
    /// successors count), which is how profiles name the edge.
    pub fn profiled_edges(&self) -> Vec<(u32, u32, EdgeId)> {
        let mut out = Vec::new();
        for (_, b) in self.blocks() {
            if b.kind != BlockKind::Normal || b.succ().len() < 2 {
                continue;
            }
            for (i, e) in b.succ().iter().enumerate() {
                if self.edge(e).editable {
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
        let conv = crate::machine::sparc_convention();
        used = used.union(conv.call_uses).union(conv.call_defs);
        for (_, b) in self.blocks() {
            for ia in b.insns {
                used = used.union(ia.insn.reads()).union(ia.insn.writes());
            }
        }
        eel_isa::RegSet::all_gprs().without(used)
    }

    /// All load/store instruction sites in normal blocks (used by memory
    /// instrumenting tools like Active Memory).
    pub fn memory_sites(&self) -> Vec<InsnAt> {
        let mut out = Vec::new();
        for (_, b) in self.blocks() {
            if b.kind != BlockKind::Normal {
                continue;
            }
            for ia in b.insns {
                if matches!(ia.insn.category(), Category::Load | Category::Store) {
                    out.push(ia);
                }
            }
        }
        out
    }
}

/// The control-flow graph of one routine: a shared [`CfgShape`] plus this
/// CFG's own batch of edits. Dereferences to the shape.
#[derive(Debug)]
pub struct Cfg {
    routine: crate::executable::RoutineId,
    shape: Arc<CfgShape>,
    /// Accumulated edits (batch model).
    pub(crate) edits: Vec<Edit>,
}

impl std::ops::Deref for Cfg {
    type Target = CfgShape;
    fn deref(&self) -> &CfgShape {
        &self.shape
    }
}

impl Cfg {
    /// An unedited CFG of `routine` over a (possibly shared) shape.
    pub(crate) fn new(routine: crate::executable::RoutineId, shape: Arc<CfgShape>) -> Cfg {
        Cfg {
            routine,
            shape,
            edits: Vec::new(),
        }
    }

    /// The routine this CFG describes.
    pub fn routine_id(&self) -> crate::executable::RoutineId {
        self.routine
    }

    /// The shared, immutable graph under this CFG's edits.
    pub fn shape(&self) -> &Arc<CfgShape> {
        &self.shape
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
        if self.check_insn_point(addr)?.insn.is_control_transfer() {
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
        if self.check_insn_point(addr)?.insn.is_control_transfer() {
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
        if edge.0 >= self.edge_count() {
            return Err(EelError::BadEditTarget(format!("no edge {edge:?}")));
        }
        let e = self.edge(edge);
        if !e.editable {
            return Err(EelError::Uneditable {
                what: "edge",
                addr: self.block(e.from).addr,
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
        if block.0 >= self.block_count() {
            return Err(EelError::BadEditTarget(format!("no block {block:?}")));
        }
        let b = self.block(block);
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

    /// The instruction at an editable point.
    fn check_insn_point(&self, addr: u32) -> Result<InsnAt, EelError> {
        let (bid, pos) = self.block_at(addr).ok_or_else(|| {
            EelError::BadEditTarget(format!("no instruction at {addr:#x} in this routine"))
        })?;
        let b = self.block(bid);
        if !b.editable {
            return Err(EelError::Uneditable {
                what: "block",
                addr,
            });
        }
        Ok(b.insns.get(pos).expect("block_at indexes inside the block"))
    }
}
