//! The program call graph (paper §3, footnote: "EEL also supports
//! interprocedural analysis and call graphs").
//!
//! Nodes are routines; edges are call sites (direct calls, resolved
//! indirect calls, and frame-popping tail transfers whose target is
//! known). Unresolved indirect calls are recorded as *unknown* call sites
//! so interprocedural tools know where their information is incomplete.

use crate::executable::{Executable, RoutineId};
use crate::EelError;
use std::collections::{BTreeMap, BTreeSet};

/// One call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallSite {
    /// The calling routine.
    pub caller: RoutineId,
    /// Address of the call/transfer instruction.
    pub site: u32,
    /// The callee, when statically known.
    pub callee: Option<RoutineId>,
}

/// A whole-program call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    sites: Vec<CallSite>,
    callees: BTreeMap<RoutineId, BTreeSet<RoutineId>>,
    callers: BTreeMap<RoutineId, BTreeSet<RoutineId>>,
}

impl CallGraph {
    /// Builds the call graph by analyzing every routine.
    ///
    /// # Errors
    ///
    /// Propagates CFG-construction failures.
    pub fn build(exec: &mut Executable) -> Result<CallGraph, EelError> {
        let mut graph = CallGraph::default();
        for caller in exec.all_routine_ids() {
            let cfg = exec.build_cfg(caller)?;
            let mut sites: Vec<(u32, Option<u32>)> =
                cfg.call_sites().map(|(a, t)| (a, Some(t))).collect();
            // Unresolved indirect calls.
            for (addr, res) in cfg.call_infos().iter().map(|i| (i.addr, &i.resolution)) {
                match res {
                    crate::JumpResolution::Literal { target, .. } => {
                        sites.push((addr, Some(*target)))
                    }
                    _ => sites.push((addr, None)),
                }
            }
            // Tail transfers leaving the routine to a known entry.
            for (addr, res) in cfg.indirect_jumps() {
                if let crate::JumpResolution::Literal { target, .. } = res {
                    if exec.routine_containing(*target) != Some(caller) {
                        sites.push((addr, Some(*target)));
                    }
                }
            }
            for (site, target) in sites {
                let callee = target.and_then(|t| exec.routine_containing(t));
                graph.sites.push(CallSite {
                    caller,
                    site,
                    callee,
                });
                if let Some(callee) = callee {
                    graph.callees.entry(caller).or_default().insert(callee);
                    graph.callers.entry(callee).or_default().insert(caller);
                }
            }
        }
        graph.sites.sort();
        graph.sites.dedup();
        Ok(graph)
    }

    /// All call sites.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Routines this routine calls (statically known).
    pub fn callees(&self, r: RoutineId) -> Vec<RoutineId> {
        self.callees
            .get(&r)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Routines that call this routine.
    pub fn callers(&self, r: RoutineId) -> Vec<RoutineId> {
        self.callers
            .get(&r)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Call sites whose callee is unknown (interprocedural blind spots).
    pub fn unknown_sites(&self) -> Vec<CallSite> {
        self.sites
            .iter()
            .copied()
            .filter(|s| s.callee.is_none())
            .collect()
    }

    /// Is `r` (transitively) reachable from `from` in the call graph?
    pub fn reachable(&self, from: RoutineId, r: RoutineId) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == r {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            stack.extend(self.callees(x));
        }
        false
    }

    /// Routines that (transitively) may recurse (lie on a call-graph
    /// cycle).
    pub fn recursive_routines(&self) -> Vec<RoutineId> {
        let mut out = Vec::new();
        for &r in self.callees.keys() {
            if self.callees(r).iter().any(|&c| self.reachable(c, r)) {
                out.push(r);
            }
        }
        out
    }
}
