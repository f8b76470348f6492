//! Live-register analysis (paper §3.3, §3.5).
//!
//! EEL's snippet machinery allocates *dead* registers at each insertion
//! point (register scavenging, §3.5); Blizzard's fast-path optimization
//! depends on knowing whether the condition codes are live (§5). Liveness
//! is a standard backward bit-vector dataflow over [`RegSet`]s, solved
//! once for every machine: each block's uses and definitions come
//! through the machine seam ([`crate::MachineOps::regs`]).
//!
//! Calling-convention knowledge (the paper notes spawn leaves conventions
//! to "additional processing") is a per-machine answer too
//! ([`crate::MachineOps::convention`]): what a callee may read and
//! clobber at a [`BlockKind::CallSurrogate`] block, and the conservative
//! live set at routine exit.

use crate::cfg::{Block, BlockId, BlockKind, CfgShape, EdgeId};
use crate::machine::{machine_ops, Convention, MachineOps};
use crate::shared::ALLOC_OVERHEAD;
use eel_isa::RegSet;
use std::sync::Arc;

/// Block-level liveness results with point queries.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

fn block_use_def(block: &Block, ops: &dyn MachineOps, conv: &Convention) -> (RegSet, RegSet) {
    if block.kind == BlockKind::CallSurrogate {
        return (conv.call_uses, conv.call_defs);
    }
    let mut uses = RegSet::new();
    let mut defs = RegSet::new();
    for (_, word) in block.insns.words() {
        let (reads, writes) = ops.regs(word);
        uses = uses.union(reads.without(defs));
        defs = defs.union(writes);
    }
    (uses, defs)
}

impl Liveness {
    /// Runs the backward fixpoint over the whole CFG.
    pub fn compute(cfg: &CfgShape) -> Liveness {
        let _obs = eel_obs::span("core.liveness");
        let ops = machine_ops(cfg.machine());
        let conv = ops.convention();
        let use_def: Vec<(RegSet, RegSet)> = cfg
            .blocks()
            .map(|(_, b)| block_use_def(&b, ops, &conv))
            .collect();
        let (off, dest) = cfg.succ_blocks();
        let n = use_def.len();
        let exit = cfg.exit_block().index();
        let mut live_in = vec![RegSet::new(); n];
        let mut live_out = vec![RegSet::new(); n];
        // The exit block keeps the convention's live set and is never
        // recomputed.
        live_in[exit] = conv.exit_live;
        let mut changed = true;
        while changed {
            changed = false;
            // Iterating in reverse index order approximates reverse topological
            // order well enough; the fixpoint is correct regardless.
            for b in (0..n).rev() {
                if b == exit {
                    continue;
                }
                let mut out = RegSet::new();
                for &s in &dest[off[b] as usize..off[b + 1] as usize] {
                    out = out.union(live_in[s as usize]);
                }
                let (uses, defs) = use_def[b];
                let inn = uses.union(out.without(defs));
                if out != live_out[b] || inn != live_in[b] {
                    live_out[b] = out;
                    live_in[b] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to a block.
    pub fn live_in(&self, b: BlockId) -> RegSet {
        self.live_in[b.index()]
    }

    /// Registers live on exit from a block.
    pub fn live_out(&self, b: BlockId) -> RegSet {
        self.live_out[b.index()]
    }

    /// Registers live immediately *before* instruction `idx` of block `b`.
    pub fn live_before(&self, cfg: &CfgShape, b: BlockId, idx: usize) -> RegSet {
        live_before(cfg, b, idx, self.live_out[b.index()])
    }

    /// Registers live immediately *after* instruction `idx` of block `b`.
    pub fn live_after(&self, cfg: &CfgShape, b: BlockId, idx: usize) -> RegSet {
        self.live_before(cfg, b, idx + 1)
    }

    /// Registers live along an edge (live-in of its destination).
    pub fn live_on_edge(&self, cfg: &CfgShape, e: EdgeId) -> RegSet {
        self.live_in[cfg.edge(e).to.index()]
    }
}

/// Registers live before instruction `idx` of block `b`, whose live-out
/// is `live`: a backward walk over the block's tail.
fn live_before(cfg: &CfgShape, b: BlockId, idx: usize, mut live: RegSet) -> RegSet {
    for ia in cfg.block(b).insns.iter().skip(idx).rev() {
        live = live.without(ia.insn.writes()).union(ia.insn.reads());
    }
    live
}

/// A routine's solved liveness as its CFG shape keeps it: the live-in
/// set of every block, and nothing more. A block's live-out is the union
/// of its successors' live-in (the fixpoint's own equation), so it is
/// derived from the shape's successor rows on read. Cheap to clone: one
/// eel-serve analysis solves it once per shape and every op shares it.
#[derive(Debug, Clone)]
pub struct LiveIn(Arc<[RegSet]>);

impl LiveIn {
    /// Runs [`Liveness::compute`]'s fixpoint and keeps its live-in sets.
    pub fn compute(cfg: &CfgShape) -> LiveIn {
        LiveIn(Liveness::compute(cfg).live_in.into())
    }

    /// Registers live on entry to a block.
    pub fn live_in(&self, b: BlockId) -> RegSet {
        self.0[b.index()]
    }

    /// Registers live on exit from a block: its successors' live-in.
    pub fn live_out(&self, cfg: &CfgShape, b: BlockId) -> RegSet {
        let succ = cfg.block(b).succ().iter();
        succ.fold(RegSet::new(), |out, e| {
            out.union(self.0[cfg.edge(e).to.index()])
        })
    }

    /// Registers live immediately *before* instruction `idx` of block `b`.
    pub fn live_before(&self, cfg: &CfgShape, b: BlockId, idx: usize) -> RegSet {
        live_before(cfg, b, idx, self.live_out(cfg, b))
    }

    /// Registers live immediately *after* instruction `idx` of block `b`.
    pub fn live_after(&self, cfg: &CfgShape, b: BlockId, idx: usize) -> RegSet {
        self.live_before(cfg, b, idx + 1)
    }

    /// Registers live along an edge (live-in of its destination).
    pub fn live_on_edge(&self, cfg: &CfgShape, e: EdgeId) -> RegSet {
        self.0[cfg.edge(e).to.index()]
    }

    /// Bytes this result keeps resident, allocator bookkeeping and the
    /// [`Arc`] header included.
    pub(crate) fn retained_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&*self.0) + ALLOC_OVERHEAD
    }
}
