//! Natural-loop detection from back edges (paper §3.3).

use crate::analysis::dom::Dominators;
use crate::cfg::{BlockId, CfgShape, EdgeId};
use std::collections::BTreeSet;

/// A natural loop: a back edge plus the set of blocks that reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the loop).
    pub header: BlockId,
    /// The back edge `latch → header` that defines the loop.
    pub back_edge: EdgeId,
    /// All blocks in the loop body (header included).
    pub blocks: BTreeSet<BlockId>,
}

impl NaturalLoop {
    /// Number of blocks in the loop.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Always false (a loop has at least its header).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Does the loop contain this block?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// Finds all natural loops: edges `t → h` where `h` dominates `t`.
///
/// Loops sharing a header are reported separately (one per back edge), as
/// in the classical construction.
pub fn natural_loops(cfg: &CfgShape, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops = Vec::new();
    for eid in 0..cfg.edge_count() {
        let edge = cfg.edge(EdgeId(eid));
        let (t, h) = (edge.from, edge.to);
        if !dom.is_reachable(t) || !dom.dominates(h, t) {
            continue;
        }
        // Collect the loop body: h plus all blocks that reach t without
        // passing through h (backward walk from t).
        let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
        blocks.insert(h);
        let mut stack = vec![t];
        while let Some(b) = stack.pop() {
            if !blocks.insert(b) {
                continue;
            }
            for pe in cfg.block(b).pred() {
                let p = cfg.edge(pe).from;
                if dom.is_reachable(p) {
                    stack.push(p);
                }
            }
        }
        loops.push(NaturalLoop {
            header: h,
            back_edge: EdgeId(eid),
            blocks,
        });
    }
    loops
}
