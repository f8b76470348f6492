//! Backward slicing over EEL instructions (paper §3.3 and Figure 4).
//!
//! A backward slice from an instruction's registers finds the instructions
//! that compute a value — the paper uses it to find dispatch tables and,
//! in qpt, to compute *backward address slices* for abstract-execution
//! tracing [Larus 1990]. This module reproduces Figure 4's algorithm,
//! including its three-way marking: **easy** instructions read nothing
//! (constants), **hard** instructions read registers that must be sliced
//! further, and **impossible** instructions read floating-point state (the
//! tracer refuses to follow them).

use crate::cfg::{BlockId, BlockKind, CfgShape};
use eel_isa::Reg;
use std::collections::{HashMap, HashSet};

/// Figure 4's instruction classification within a slice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SliceMark {
    /// Reads nothing: can be replayed from the instruction alone.
    Easy,
    /// Reads registers: replaying requires its inputs (sliced further).
    Hard,
    /// Reads floating-point state: not traced.
    Impossible,
}

/// A backward slicer over one CFG, accumulating marks (the paper's
/// `mark_as_easy` / `mark_as_hard` / `mark_as_impossible`).
#[derive(Debug)]
pub struct Slicer<'a> {
    cfg: &'a CfgShape,
    marks: HashMap<(BlockId, usize), SliceMark>,
    /// `(block, reg)` pairs whose backward walk from block end has
    /// already been performed (loop termination).
    visited: HashSet<(BlockId, Reg)>,
}

impl<'a> Slicer<'a> {
    /// Creates a slicer for a CFG.
    pub fn new(cfg: &'a CfgShape) -> Slicer<'a> {
        Slicer {
            cfg,
            marks: HashMap::new(),
            visited: HashSet::new(),
        }
    }

    /// Computes a backward slice with respect to register `reg`, starting
    /// *above* instruction `idx` of `block`. Returns `true` if a defining
    /// instruction was found on every examined path (the paper's
    /// `backward_slice` returns whether the instruction defined R).
    pub fn backward_slice(&mut self, block: BlockId, idx: usize, reg: Reg) -> bool {
        if reg == Reg::G0 {
            return true; // constant zero needs no slice
        }
        let b = self.cfg.block(block);
        // Walk backwards within the block.
        for i in (0..idx.min(b.insns.len())).rev() {
            if let Some(found) = self.examine(block, i, reg) {
                return found;
            }
        }
        // Call surrogates define the convention's clobber set.
        if b.kind == BlockKind::CallSurrogate && super::live::call_defs().contains(reg) {
            // The value comes from a callee: hard to replay, but defined.
            return true;
        }
        // Continue into predecessors (from their ends).
        if !self.visited.insert((block, reg)) {
            return true; // already walking this (loop); assume defined
        }
        let preds: Vec<BlockId> = b.pred().iter().map(|e| self.cfg.edge(e).from).collect();
        if preds.is_empty() {
            return false; // reached entry: an argument or global state
        }
        let mut all = true;
        for p in preds {
            let len = self.cfg.block(p).insns.len();
            all &= self.backward_slice(p, len, reg);
        }
        all
    }

    /// Figure 4's body for one candidate instruction: does instruction
    /// `(block, i)` define `reg`, and if so, how is it marked?
    /// `Some(found)` ends the in-block walk; `None` continues it.
    fn examine(&mut self, block: BlockId, i: usize, reg: Reg) -> Option<bool> {
        let insn = self.cfg.block(block).insns.get(i).expect("in range").insn;
        if !insn.writes().contains(reg) {
            return None;
        }
        if let Some(mark) = self.marks.get(&(block, i)) {
            // "Already in earlier slice."
            let _ = mark;
            return Some(true);
        }
        if insn.reads_fp() {
            self.marks.insert((block, i), SliceMark::Impossible);
        } else if insn.reads().is_empty() {
            self.marks.insert((block, i), SliceMark::Easy);
        } else {
            self.marks.insert((block, i), SliceMark::Hard);
            for read_reg in insn.reads().iter() {
                self.backward_slice(block, i, read_reg);
            }
        }
        Some(true)
    }

    /// Slices the *address* operands of the memory reference at
    /// instruction `idx` of `block` (the tracer's per-reference entry
    /// point). Returns `false` when some path lacked a definition.
    pub fn slice_address(&mut self, block: BlockId, idx: usize) -> bool {
        let insn = self.cfg.block(block).insns.get(idx).expect("in range").insn;
        let mut ok = true;
        for reg in insn.address_reads().iter() {
            ok &= self.backward_slice(block, idx, reg);
        }
        ok
    }

    /// The accumulated marks: `((block, index), mark)`.
    pub fn marks(&self) -> impl Iterator<Item = ((BlockId, usize), SliceMark)> + '_ {
        self.marks.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of instructions in the slice so far.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Is the slice empty?
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Count of marks of a given kind.
    pub fn count(&self, mark: SliceMark) -> usize {
        self.marks.values().filter(|&&m| m == mark).count()
    }
}
