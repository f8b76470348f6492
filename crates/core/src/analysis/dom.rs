//! Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).
//!
//! Dominators underpin EEL's natural-loop detection and give tools a
//! standard way to reason about control structure (§3.3).

use crate::cfg::{BlockId, CfgShape};

/// The dominator tree of a [`crate::Cfg`], rooted at the virtual entry block.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of block `b` (`idom[entry] =
    /// entry`); `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes dominators for every block reachable from the entry.
    pub fn compute(cfg: &CfgShape) -> Dominators {
        let n = cfg.block_count();
        // Reverse postorder over the successor graph.
        let mut order: Vec<BlockId> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        // Iterative DFS with an explicit post stack.
        let mut stack: Vec<(BlockId, usize)> = vec![(cfg.entry_block(), 0)];
        seen[cfg.entry_block().index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = cfg.block(b).succ();
            if let Some(e) = succs.get(*i) {
                *i += 1;
                let to = cfg.edge(e).to;
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push((to, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse(); // now reverse postorder

        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in order.iter().enumerate() {
            rpo_index[b.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[cfg.entry_block().index()] = Some(cfg.entry_block());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                // Intersect dominators of all processed predecessors.
                let mut new_idom: Option<BlockId> = None;
                for e in cfg.block(b).pred() {
                    let p = cfg.edge(e).from;
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator of `b` (`None` for unreachable blocks and
    /// for the entry, whose idom is itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.index()]?;
        if d == b {
            None
        } else {
            Some(d)
        }
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Is the block reachable from the entry?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }
}

fn intersect(idom: &[Option<BlockId>], rpo: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while rpo[a.index()] > rpo[b.index()] {
            a = idom[a.index()].expect("processed pred has idom");
        }
        while rpo[b.index()] > rpo[a.index()] {
            b = idom[b.index()].expect("processed pred has idom");
        }
    }
    a
}
