//! Producing an edited routine (paper §3.3.1).
//!
//! After a tool records its edits, EEL "produces a new version of the
//! routine that incorporates the changes ... laying out its blocks and
//! snippets to minimize unnecessary jumps and adjusting displacements and
//! addresses in control-transfer instructions". This module performs that
//! per-routine step: it walks the routine's units (blocks, dispatch
//! tables, unreached padding) in original address order and emits
//! position-independent [`Item`]s whose control-transfer targets are
//! symbolic; [`crate::Executable::write_edited`] later assigns final
//! addresses and encodes everything.
//!
//! Key responsibilities reproduced from the paper:
//!
//! * **Delay-slot folding** — unedited transfers keep their delay
//!   instruction in the slot; edited ones get an emptied (`nop`) slot and
//!   the delay instruction is replayed on each outgoing path (stubs),
//!   together with the per-edge snippets.
//! * **Dispatch-table relocation** — the instructions materializing a
//!   table's address are re-pointed at the relocated table, and each slot
//!   is rewritten to the edited target (or to a per-edge stub when the
//!   edge carries instrumentation).
//! * **Run-time translation** — unanalyzable indirect jumps/calls are
//!   rewritten to translate their (original) target through the
//!   `__eel_translate` run-time routine.

use crate::analysis::jumptable::JumpResolution;
use crate::analysis::live::Liveness;
use crate::cfg::{BlockId, BlockKind, Cfg, Edge, EdgeId, EdgeKind, EditPoint};
use crate::error::EelError;
use crate::snippet::{RegAssignment, Snippet};
use eel_exe::Image;
use eel_isa::{Builder, Cond, Insn, Op, Reg, RegSet, Src2};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Name of the run-time translation routine.
pub(crate) const TRANSLATOR: &str = "__eel_translate";

/// A symbolic control-transfer target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tgt {
    /// A label local to this routine's layout.
    Local(usize),
    /// An original address, resolved through the global old→new map.
    Orig(u32),
    /// A run-time routine added to the edited executable.
    Runtime(String),
}

/// One unit of emitted layout.
#[derive(Debug)]
pub(crate) enum Item {
    /// Binds local label `0` here.
    Label(usize),
    /// Binds the original address (an entry point or instruction) here in
    /// the old→new map, emitting nothing.
    MapOrig(u32),
    /// An original instruction, kept verbatim (and mapped).
    Orig {
        /// The instruction.
        insn: Insn,
        /// Its original address.
        addr: u32,
    },
    /// A synthesized, position-independent instruction.
    New(Insn),
    /// A PC-relative branch to a symbolic target.
    BranchTo {
        cond: Cond,
        annul: bool,
        target: Tgt,
        /// Original address, when this re-encodes an original branch.
        orig: Option<u32>,
    },
    /// A `call` to a symbolic target.
    CallTo { target: Tgt, orig: Option<u32> },
    /// `sethi %hi(target), rd` with a symbolic target.
    SethiHiOf {
        rd: Reg,
        target: Tgt,
        orig: Option<u32>,
    },
    /// `or rs1, %lo(target), rd` with a symbolic target.
    OrLoOf {
        rd: Reg,
        rs1: Reg,
        target: Tgt,
        orig: Option<u32>,
    },
    /// A 32-bit dispatch-table slot holding a symbolic address.
    TableWord { target: Tgt, orig: Option<u32> },
    /// A verbatim data word from the original text segment.
    RawWord { word: u32, addr: u32 },
    /// A materialized snippet (indexes [`RoutineLayout::snippets`]).
    SnippetRef(usize),
}

impl Item {
    /// Size in bytes (labels and map bindings are zero-sized).
    pub(crate) fn size(&self, snippets: &[PlacedSnippet]) -> u32 {
        match self {
            Item::Label(_) | Item::MapOrig(_) => 0,
            Item::SnippetRef(i) => 4 * snippets[*i].insns.len() as u32,
            _ => 4,
        }
    }
}

/// A snippet materialized at a specific placement.
pub(crate) struct PlacedSnippet {
    /// Placement-ready instructions (registers allocated, spill-wrapped).
    pub insns: Vec<Insn>,
    /// The register assignment (for the call-back).
    pub assignment: RegAssignment,
    /// `(index into insns, runtime routine)` calls to patch.
    pub calls: Vec<(usize, String)>,
    /// Which stored snippet this came from (for the call-back).
    pub source: usize,
}

/// The laid-out form of one routine.
pub(crate) struct RoutineLayout {
    /// The routine this lays out.
    #[allow(dead_code)]
    pub routine: crate::executable::RoutineId,
    /// Emission items in order.
    pub items: Vec<Item>,
    /// Placed snippets referenced by [`Item::SnippetRef`].
    pub snippets: Vec<PlacedSnippet>,
    /// The snippet objects (owning call-backs), indexed by
    /// [`PlacedSnippet::source`].
    pub snippet_store: Vec<Snippet>,
    /// Whether this routine requires the run-time translator.
    pub needs_translator: bool,
}

/// Per-address-ordered emission unit.
enum Unit {
    Block(BlockId),
    Table { table_addr: u32, slots: Vec<u32> },
    Raw(u32),
}

/// Lays out one routine from its (possibly edited) CFG.
pub(crate) fn lay_out_routine(image: &Image, mut cfg: Cfg) -> Result<RoutineLayout, EelError> {
    let _obs = eel_obs::span("core.layout");
    let liveness = Liveness::compute(&cfg);
    let mut lay = Layouter {
        image,
        liveness,
        items: Vec::new(),
        placed: Vec::new(),
        snippet_store: Vec::new(),
        labels: 0,
        needs_translator: false,
        block_label: HashMap::new(),
        table_label: HashMap::new(),
        stub_items: Vec::new(),
        before: HashMap::new(),
        after: HashMap::new(),
        deleted: HashSet::new(),
        edge_sn: HashMap::new(),
        block_sn: HashMap::new(),
        entry_sn: Vec::new(),
        base_groups: HashMap::new(),
        table_stubs: HashMap::new(),
    };

    // ---- organize edits --------------------------------------------------
    let edits = std::mem::take(&mut cfg.edits);
    for edit in edits {
        match (edit.point, edit.snippet) {
            (EditPoint::Before(addr), None) => {
                lay.deleted.insert(addr);
            }
            (EditPoint::Before(addr), Some(s)) => {
                let (b, i) = cfg
                    .block_at(addr)
                    .ok_or_else(|| EelError::BadEditTarget(format!("{addr:#x}")))?;
                let live = lay.liveness.live_before(&cfg, b, i);
                let p = lay.place(s, live)?;
                lay.before.entry(addr).or_default().push(p);
            }
            (EditPoint::After(addr), Some(s)) => {
                let (b, i) = cfg
                    .block_at(addr)
                    .ok_or_else(|| EelError::BadEditTarget(format!("{addr:#x}")))?;
                let live = lay.liveness.live_after(&cfg, b, i);
                let p = lay.place(s, live)?;
                lay.after.entry(addr).or_default().push(p);
            }
            (EditPoint::Edge(e), Some(s)) => {
                let live = lay.liveness.live_on_edge(&cfg, e);
                let p = lay.place(s, live)?;
                lay.edge_sn.entry(e).or_default().push(p);
            }
            (EditPoint::BlockStart(b), Some(s)) => {
                if b == cfg.entry_block() {
                    // Entry instrumentation: placed at every entry point.
                    let store = lay.store_snippet(s);
                    lay.entry_sn.push(store);
                } else {
                    let live = lay.liveness.live_in(b);
                    let p = lay.place(s, live)?;
                    lay.block_sn.entry(b).or_default().push(p);
                }
            }
            (_, None) => return Err(EelError::BadEditTarget("delete without address".into())),
        }
    }

    // ---- base-materialization groups (tables & literals) -----------------
    let all_resolutions: Vec<&crate::cfg::IndirectJumpInfo> = cfg
        .indirect_jumps
        .iter()
        .chain(cfg.indirect_calls.iter())
        .collect();
    for info in &all_resolutions {
        let (base_insns, target) = match &info.resolution {
            JumpResolution::Table {
                table_addr,
                base_insns,
                ..
            } => (base_insns.clone(), TgtSpec::Table(*table_addr)),
            JumpResolution::Literal { target, base_insns } => {
                (base_insns.clone(), TgtSpec::Addr(*target))
            }
            JumpResolution::Unknown => continue,
        };
        lay.register_base_group(&cfg, base_insns, target)?;
    }

    // ---- build address-ordered units --------------------------------------
    let mut units: BTreeMap<u32, Unit> = BTreeMap::new();
    let mut used: HashSet<u32> = HashSet::new();
    for (bid, b) in cfg.blocks() {
        if b.kind != BlockKind::Normal || b.insns.is_empty() {
            continue;
        }
        units.insert(b.addr, Unit::Block(bid));
        for ia in &b.insns {
            if let Some(a) = ia.addr {
                used.insert(a);
            }
        }
        // Delay-slot words are consumed by their transfer site.
        if let Some(last) = b.insns.last() {
            if last.insn.is_delayed() {
                if let Some(a) = last.addr {
                    used.insert(a + 4);
                }
            }
        }
    }
    // Dispatch tables (dedup by address).
    let mut tables_seen: HashSet<u32> = HashSet::new();
    for info in &all_resolutions {
        if let JumpResolution::Table {
            table_addr,
            targets,
            ..
        } = &info.resolution
        {
            if tables_seen.insert(*table_addr) {
                units.insert(
                    *table_addr,
                    Unit::Table {
                        table_addr: *table_addr,
                        slots: targets.clone(),
                    },
                );
                for i in 0..targets.len() as u32 {
                    used.insert(table_addr + 4 * i);
                }
            }
        }
    }
    // Unreached words: preserved verbatim.
    let (start, end) = cfg.extent;
    let mut a = start;
    while a < end {
        if !used.contains(&a) && !units.contains_key(&a) {
            units.insert(a, Unit::Raw(a));
        }
        a += 4;
    }

    // Pre-assign block labels.
    let block_ids: Vec<BlockId> = units
        .values()
        .filter_map(|u| match u {
            Unit::Block(b) => Some(*b),
            _ => None,
        })
        .collect();
    for b in block_ids {
        let l = lay.fresh_label();
        lay.block_label.insert(b, l);
    }
    for (addr, u) in &units {
        if matches!(u, Unit::Table { .. }) {
            let l = lay.fresh_label();
            lay.table_label.insert(*addr, l);
        }
    }

    // ---- emit --------------------------------------------------------------
    let ordered: Vec<(u32, Unit)> = {
        let mut v: Vec<(u32, Unit)> = Vec::new();
        for (a, u) in units {
            v.push((a, u));
        }
        v
    };
    for (k, (addr, unit)) in ordered.iter().enumerate() {
        let next_addr = ordered.get(k + 1).map(|(a, _)| *a);
        match unit {
            Unit::Raw(a) => {
                let word = image.word_at(*a).unwrap_or(0);
                lay.items.push(Item::RawWord { word, addr: *a });
            }
            Unit::Table { table_addr, slots } => {
                let label = lay.table_label[table_addr];
                lay.items.push(Item::Label(label));
                for (slot, t) in slots.iter().enumerate() {
                    let target = match lay.table_stubs.get(&(*table_addr, *t)) {
                        Some(stub) => Tgt::Local(*stub),
                        None => lay.code_tgt(&cfg, *t),
                    };
                    lay.items.push(Item::TableWord {
                        target,
                        orig: Some(table_addr + 4 * slot as u32),
                    });
                }
            }
            Unit::Block(bid) => {
                lay.emit_block(&cfg, *bid, *addr, next_addr)?;
            }
        }
    }
    // Append collected stubs.
    let stubs = std::mem::take(&mut lay.stub_items);
    lay.items.extend(stubs);

    Ok(RoutineLayout {
        routine: cfg.routine,
        items: lay.items,
        snippets: lay.placed,
        snippet_store: lay.snippet_store,
        needs_translator: lay.needs_translator,
    })
}

/// What a base-materialization group should point at after relocation.
#[derive(Clone, Debug)]
enum TgtSpec {
    Table(u32),
    Addr(u32),
}

struct Layouter<'a> {
    image: &'a Image,
    liveness: Liveness,
    items: Vec<Item>,
    placed: Vec<PlacedSnippet>,
    snippet_store: Vec<Snippet>,
    labels: usize,
    needs_translator: bool,
    block_label: HashMap<BlockId, usize>,
    table_label: HashMap<u32, usize>,
    stub_items: Vec<Item>,
    before: HashMap<u32, Vec<usize>>,
    after: HashMap<u32, Vec<usize>>,
    deleted: HashSet<u32>,
    edge_sn: HashMap<EdgeId, Vec<usize>>,
    block_sn: HashMap<BlockId, Vec<usize>>,
    entry_sn: Vec<usize>, // snippet_store indices (placed per entry)
    /// insn addr → (group leader addr, rd, target). Only the leader emits.
    base_groups: HashMap<u32, (u32, Reg, TgtSpec)>,
    /// (table_addr, target) → stub label, for edited table edges.
    table_stubs: HashMap<(u32, u32), usize>,
}

impl<'a> Layouter<'a> {
    fn fresh_label(&mut self) -> usize {
        self.labels += 1;
        self.labels - 1
    }

    fn store_snippet(&mut self, s: Snippet) -> usize {
        self.snippet_store.push(s);
        self.snippet_store.len() - 1
    }

    /// Materializes a snippet at a point with the given live set; returns
    /// an index into `placed`.
    fn place(&mut self, s: Snippet, live: RegSet) -> Result<usize, EelError> {
        let store = self.store_snippet(s);
        self.place_stored(store, live)
    }

    fn place_stored(&mut self, store: usize, live: RegSet) -> Result<usize, EelError> {
        let (insns, assignment, calls) = self.snippet_store[store].materialize(live)?;
        self.placed.push(PlacedSnippet {
            insns,
            assignment,
            calls,
            source: store,
        });
        Ok(self.placed.len() - 1)
    }

    fn emit_placements(&mut self, list: &[usize]) {
        for &p in list {
            self.items.push(Item::SnippetRef(p));
        }
    }

    /// The symbolic target for an original code address: a local label if
    /// it starts a block here, else a global original address.
    fn code_tgt(&self, cfg: &Cfg, addr: u32) -> Tgt {
        for (bid, b) in cfg.blocks() {
            if b.kind == BlockKind::Normal && b.addr == addr && !b.insns.is_empty() {
                if let Some(l) = self.block_label.get(&bid) {
                    return Tgt::Local(*l);
                }
            }
        }
        Tgt::Orig(addr)
    }

    /// Registers a `sethi`(+`or`) materialization group for re-pointing.
    fn register_base_group(
        &mut self,
        cfg: &Cfg,
        mut base_insns: Vec<u32>,
        target: TgtSpec,
    ) -> Result<(), EelError> {
        base_insns.sort_unstable();
        base_insns.dedup();
        if base_insns.is_empty() {
            return Ok(());
        }
        // Determine the destination register from the last materializing
        // instruction; all must agree.
        let mut rd = None;
        for &a in &base_insns {
            let word = self.image.word_at(a).ok_or(EelError::BadAddress {
                addr: a,
                expected: "a text address (base materialization)",
            })?;
            let r = match eel_isa::decode(word).op {
                Op::Sethi { rd, .. } => rd,
                Op::Alu { rd, .. } => rd,
                other => {
                    return Err(EelError::Internal(format!(
                        "unexpected base-materializing instruction {other:?} at {a:#x}"
                    )))
                }
            };
            match rd {
                None => rd = Some(r),
                Some(prev) if prev == r => {}
                Some(prev) => {
                    return Err(EelError::Internal(format!(
                        "base materialization splits registers {prev} vs {r}"
                    )))
                }
            }
        }
        let _ = cfg;
        let leader = base_insns[0];
        let rd = rd.expect("nonempty group");
        for a in base_insns {
            self.base_groups.insert(a, (leader, rd, target.clone()));
        }
        Ok(())
    }

    fn base_tgt(&self, cfg: &Cfg, spec: &TgtSpec) -> Tgt {
        match spec {
            TgtSpec::Table(t) => Tgt::Local(self.table_label[t]),
            TgtSpec::Addr(a) => self.code_tgt(cfg, *a),
        }
    }

    // ---- block emission ---------------------------------------------------

    fn emit_block(
        &mut self,
        cfg: &Cfg,
        bid: BlockId,
        addr: u32,
        next_unit_addr: Option<u32>,
    ) -> Result<(), EelError> {
        let label = self.block_label[&bid];
        self.items.push(Item::Label(label));
        let block = cfg.block(bid).clone();

        // Entry points bind here; entry snippets are placed per entry.
        if cfg.entry_addrs.contains(&addr) {
            self.items.push(Item::MapOrig(addr));
            let entry_stores: Vec<usize> = self.entry_sn.clone();
            for store in entry_stores {
                let live = self.liveness.live_in(bid);
                let p = self.place_stored(store, live)?;
                self.items.push(Item::SnippetRef(p));
            }
        }
        if let Some(list) = self.block_sn.get(&bid).cloned() {
            self.emit_placements(&list);
        }

        let n = block.insns.len();
        for (i, ia) in block.insns.iter().enumerate() {
            let iaddr = ia.addr.expect("normal block instruction has an address");
            if let Some(list) = self.before.get(&iaddr).cloned() {
                self.emit_placements(&list);
            }
            let is_term = i == n - 1 && ia.insn.is_control_transfer();
            if is_term {
                self.emit_terminator(cfg, bid, iaddr, ia.insn, next_unit_addr)?;
                break;
            }
            if !self.deleted.contains(&iaddr) {
                if let Some((leader, rd, spec)) = self.base_groups.get(&iaddr).cloned() {
                    if iaddr == leader {
                        let target = self.base_tgt(cfg, &spec);
                        self.items.push(Item::SethiHiOf {
                            rd,
                            target: target.clone(),
                            orig: Some(iaddr),
                        });
                        self.items.push(Item::OrLoOf {
                            rd,
                            rs1: rd,
                            target,
                            orig: None,
                        });
                    }
                    // Non-leader group members vanish (folded into the pair).
                } else {
                    self.items.push(Item::Orig {
                        insn: ia.insn,
                        addr: iaddr,
                    });
                }
            } else {
                self.items.push(Item::MapOrig(iaddr));
            }
            if let Some(list) = self.after.get(&iaddr).cloned() {
                self.emit_placements(&list);
            }
        }

        // Blocks that do not end in a control transfer fall through.
        let ends_with_cti = block
            .insns
            .last()
            .map(|ia| ia.insn.is_control_transfer())
            .unwrap_or(false);
        if !ends_with_cti {
            // Find the fall edge, if any.
            let fall = block.succs.iter().find_map(|&e| {
                let edge = cfg.edge(e);
                (edge.kind == EdgeKind::Fall).then_some((e, edge.to))
            });
            if let Some((e, to)) = fall {
                if let Some(list) = self.edge_sn.get(&e).cloned() {
                    self.emit_placements(&list);
                }
                let to_addr = cfg.block(to).addr;
                if next_unit_addr != Some(to_addr) {
                    let tgt = self.code_tgt(cfg, to_addr);
                    self.items.push(Item::BranchTo {
                        cond: Cond::Always,
                        annul: false,
                        target: tgt,
                        orig: None,
                    });
                    self.items.push(Item::New(Builder::nop()));
                }
            }
        }
        Ok(())
    }

    // ---- terminator emission ------------------------------------------------

    /// Walks one outgoing path: `bid --e1--> [delay] --e2--> dest`.
    fn walk_path(&self, cfg: &Cfg, e1: EdgeId) -> (Vec<EdgeId>, Option<Insn>, PathDest) {
        let mut edges = vec![e1];
        let edge = cfg.edge(e1);
        let to = cfg.block(edge.to);
        if to.kind == BlockKind::DelaySlot {
            let delay = to.insns.first().map(|ia| ia.insn);
            match to.succs.first() {
                Some(&e2) => {
                    edges.push(e2);
                    let edge2 = cfg.edge(e2);
                    (edges, delay, self.edge_dest(cfg, edge2))
                }
                None => (edges, delay, PathDest::DeadEnd),
            }
        } else {
            (edges, None, self.edge_dest(cfg, edge))
        }
    }

    fn edge_dest(&self, cfg: &Cfg, edge: &Edge) -> PathDest {
        match edge.kind {
            EdgeKind::Escape { target } => PathDest::Escape(target),
            EdgeKind::RuntimeIndirect => PathDest::Runtime,
            _ if edge.to == cfg.exit_block() => PathDest::Exit,
            _ => PathDest::Block(edge.to),
        }
    }

    fn path_snippets(&self, edges: &[EdgeId]) -> Vec<usize> {
        let mut out = Vec::new();
        for e in edges {
            if let Some(list) = self.edge_sn.get(e) {
                out.extend(list.iter().copied());
            }
        }
        out
    }

    /// The symbolic target for a block: its label, or — for a block that
    /// lost its unit to another at the same address, which only a
    /// malformed image produces — its original address, which write
    /// time maps or rejects.
    fn block_tgt(&self, cfg: &Cfg, b: BlockId) -> Tgt {
        match self.block_label.get(&b) {
            Some(&l) => Tgt::Local(l),
            None => Tgt::Orig(cfg.block(b).addr),
        }
    }

    fn dest_tgt(&self, cfg: &Cfg, dest: &PathDest) -> Tgt {
        match dest {
            PathDest::Block(b) => self.block_tgt(cfg, *b),
            PathDest::Escape(t) => Tgt::Orig(*t),
            _ => Tgt::Orig(0),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_terminator(
        &mut self,
        cfg: &Cfg,
        bid: BlockId,
        addr: u32,
        insn: Insn,
        next_unit_addr: Option<u32>,
    ) -> Result<(), EelError> {
        match insn.op {
            Op::Branch { cond, annul, .. } => {
                self.emit_branch(cfg, bid, addr, insn, cond, annul, next_unit_addr)
            }
            Op::Call { .. } => self.emit_call(cfg, bid, addr, insn, None),
            Op::Jmpl { .. } => match insn.jump_kind() {
                Some(eel_isa::JumpKind::Return) => self.emit_return(cfg, bid, addr, insn),
                Some(eel_isa::JumpKind::IndirectCall) => {
                    let res = cfg
                        .indirect_calls
                        .iter()
                        .find(|r| r.addr == addr)
                        .map(|r| r.resolution.clone())
                        .unwrap_or(JumpResolution::Unknown);
                    self.emit_call(cfg, bid, addr, insn, Some(res))
                }
                _ => self.emit_indirect_jump(cfg, bid, addr, insn),
            },
            other => Err(EelError::Internal(format!("non-terminator {other:?}"))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_branch(
        &mut self,
        cfg: &Cfg,
        bid: BlockId,
        addr: u32,
        _insn: Insn,
        cond: Cond,
        annul: bool,
        next_unit_addr: Option<u32>,
    ) -> Result<(), EelError> {
        let block = cfg.block(bid);
        let taken = block
            .succs
            .iter()
            .find(|&&e| cfg.edge(e).kind == EdgeKind::Taken)
            .copied();
        let fall = block
            .succs
            .iter()
            .find(|&&e| cfg.edge(e).kind == EdgeKind::Fall)
            .copied();

        let taken_path = taken.map(|e| self.walk_path(cfg, e));
        let fall_path = fall.map(|e| self.walk_path(cfg, e));
        let delay_insn = taken_path
            .as_ref()
            .and_then(|(_, d, _)| *d)
            .or_else(|| fall_path.as_ref().and_then(|(_, d, _)| *d));

        let edited = taken_path
            .as_ref()
            .map(|(es, _, _)| !self.path_snippets(es).is_empty())
            .unwrap_or(false)
            || fall_path
                .as_ref()
                .map(|(es, _, _)| !self.path_snippets(es).is_empty())
                .unwrap_or(false);

        if !edited {
            // Fold the delay instruction back into the slot (§3.3).
            let target = match &taken_path {
                Some((_, _, dest)) => self.dest_tgt(cfg, dest),
                None => self.block_tgt(cfg, bid), // `bn`: target unused
            };
            self.items.push(Item::BranchTo {
                cond,
                annul,
                target,
                orig: Some(addr),
            });
            match delay_insn {
                Some(d) => self.items.push(Item::Orig {
                    insn: d,
                    addr: addr + 4,
                }),
                None => self.items.push(Item::New(Builder::nop())),
            }
            // Fall continuation.
            if let Some((_, _, dest)) = &fall_path {
                self.emit_fall_continuation(cfg, dest, next_unit_addr);
            }
            return Ok(());
        }

        // Edited: split the paths.
        match cond {
            Cond::Always => {
                let (edges, delay, dest) = taken_path.expect("ba has a taken path");
                let sn = self.path_snippets(&edges);
                self.emit_placements(&sn);
                // `ba,a` never executes its delay slot.
                if !annul {
                    if let Some(d) = delay {
                        self.items.push(Item::Orig {
                            insn: d,
                            addr: addr + 4,
                        });
                    }
                }
                let target = self.dest_tgt(cfg, &dest);
                self.items.push(Item::BranchTo {
                    cond: Cond::Always,
                    annul: false,
                    target,
                    orig: Some(addr),
                });
                self.items.push(Item::New(Builder::nop()));
            }
            Cond::Never => {
                let (edges, delay, dest) = fall_path.expect("bn has a fall path");
                let sn = self.path_snippets(&edges);
                self.emit_placements(&sn);
                if !annul {
                    if let Some(d) = delay {
                        self.items.push(Item::Orig {
                            insn: d,
                            addr: addr + 4,
                        });
                    }
                }
                self.items.push(Item::MapOrig(addr));
                self.emit_fall_continuation(cfg, &dest, next_unit_addr);
            }
            _ => {
                let stub = self.fresh_label();
                self.items.push(Item::BranchTo {
                    cond,
                    annul: false,
                    target: Tgt::Local(stub),
                    orig: Some(addr),
                });
                self.items.push(Item::New(Builder::nop()));
                // Fall path inline.
                if let Some((edges, delay, dest)) = &fall_path {
                    let sn = self.path_snippets(edges);
                    self.emit_placements(&sn);
                    if !annul {
                        if let Some(d) = delay {
                            self.items.push(Item::Orig {
                                insn: *d,
                                addr: addr + 4,
                            });
                        }
                    }
                    self.emit_fall_continuation(cfg, dest, next_unit_addr);
                }
                // Taken path out of line.
                if let Some((edges, delay, dest)) = &taken_path {
                    let mut stub_items = vec![Item::Label(stub)];
                    let sn = self.path_snippets(edges);
                    for p in sn {
                        stub_items.push(Item::SnippetRef(p));
                    }
                    if let Some(d) = delay {
                        stub_items.push(Item::Orig {
                            insn: *d,
                            addr: addr + 4,
                        });
                    }
                    let target = self.dest_tgt(cfg, dest);
                    stub_items.push(Item::BranchTo {
                        cond: Cond::Always,
                        annul: false,
                        target,
                        orig: None,
                    });
                    stub_items.push(Item::New(Builder::nop()));
                    self.stub_items.extend(stub_items);
                }
            }
        }
        Ok(())
    }

    fn emit_fall_continuation(&mut self, cfg: &Cfg, dest: &PathDest, next_unit_addr: Option<u32>) {
        match dest {
            PathDest::Block(b) => {
                let to_addr = cfg.block(*b).addr;
                if next_unit_addr != Some(to_addr) {
                    self.items.push(Item::BranchTo {
                        cond: Cond::Always,
                        annul: false,
                        target: self.block_tgt(cfg, *b),
                        orig: None,
                    });
                    self.items.push(Item::New(Builder::nop()));
                }
            }
            PathDest::Escape(t) => {
                self.items.push(Item::BranchTo {
                    cond: Cond::Always,
                    annul: false,
                    target: Tgt::Orig(*t),
                    orig: None,
                });
                self.items.push(Item::New(Builder::nop()));
            }
            PathDest::Exit | PathDest::Runtime | PathDest::DeadEnd => {}
        }
    }

    /// Calls (direct, and indirect with/without a resolved literal).
    fn emit_call(
        &mut self,
        cfg: &Cfg,
        bid: BlockId,
        addr: u32,
        insn: Insn,
        indirect: Option<JumpResolution>,
    ) -> Result<(), EelError> {
        let block = cfg.block(bid);
        // Chain: bid → delay? → surrogate → return block.
        let e1 = block
            .succs
            .iter()
            .find(|&&e| cfg.edge(e).kind == EdgeKind::CallFlow)
            .copied()
            .ok_or_else(|| EelError::Internal(format!("call at {addr:#x} has no flow edge")))?;
        let mut cur = cfg.edge(e1).to;
        let mut delay = None;
        if cfg.block(cur).kind == BlockKind::DelaySlot {
            delay = cfg.block(cur).insns.first().map(|ia| ia.insn);
            cur = cfg
                .block(cur)
                .succs
                .first()
                .map(|&e| cfg.edge(e).to)
                .ok_or_else(|| EelError::Internal("dangling call delay".into()))?;
        }
        // `cur` is the surrogate; its out-edge leads to the return block.
        let ret_edge = cfg.block(cur).succs.first().copied();

        match insn.op {
            Op::Call { .. } => {
                let target = cfg
                    .call_sites
                    .iter()
                    .find(|(a, _)| *a == addr)
                    .map(|(_, t)| *t)
                    .ok_or_else(|| EelError::Internal(format!("unrecorded call {addr:#x}")))?;
                self.items.push(Item::CallTo {
                    target: Tgt::Orig(target),
                    orig: Some(addr),
                });
                match delay {
                    Some(d) => self.items.push(Item::Orig {
                        insn: d,
                        addr: addr + 4,
                    }),
                    None => self.items.push(Item::New(Builder::nop())),
                }
            }
            Op::Jmpl { rd: _, rs1, src2 } => {
                match indirect {
                    Some(JumpResolution::Literal { target, base_insns }) => {
                        if base_insns.is_empty() {
                            // Known callee but no patchable materialization:
                            // replace the jmpl with a direct call (§3.3's
                            // literal-jump resolution; the dead register
                            // still holds the old address, harmlessly).
                            self.items.push(Item::CallTo {
                                target: Tgt::Orig(target),
                                orig: Some(addr),
                            });
                        } else {
                            // Base instructions were re-pointed at the new
                            // address; the jmpl is position-independent.
                            self.items.push(Item::Orig { insn, addr });
                        }
                        match delay {
                            Some(d) => self.items.push(Item::Orig {
                                insn: d,
                                addr: addr + 4,
                            }),
                            None => self.items.push(Item::New(Builder::nop())),
                        }
                    }
                    _ => {
                        // Run-time translation: the register holds an
                        // ORIGINAL address.
                        self.emit_translated_transfer(addr, rs1, src2, delay, /*link=*/ true)?;
                    }
                }
            }
            other => return Err(EelError::Internal(format!("emit_call on {other:?}"))),
        }

        // Snippets on the surrogate → return edge go right after the call.
        if let Some(e) = ret_edge {
            if let Some(list) = self.edge_sn.get(&e).cloned() {
                self.emit_placements(&list);
            }
            // Continue to the return block (normally the next unit).
            // The return block is addr+8, which is emitted next in
            // address order, so no explicit jump is needed; if the return
            // site is elsewhere (odd layouts), branch explicitly.
            let dest = self.edge_dest(cfg, cfg.edge(e));
            if let PathDest::Block(b) = dest {
                let to_addr = cfg.block(b).addr;
                if to_addr != addr + 8 {
                    self.items.push(Item::BranchTo {
                        cond: Cond::Always,
                        annul: false,
                        target: self.block_tgt(cfg, b),
                        orig: None,
                    });
                    self.items.push(Item::New(Builder::nop()));
                }
            }
        }
        Ok(())
    }

    fn emit_return(
        &mut self,
        cfg: &Cfg,
        bid: BlockId,
        addr: u32,
        insn: Insn,
    ) -> Result<(), EelError> {
        let _ = &insn;
        let block = cfg.block(bid);
        let delay = block
            .succs
            .iter()
            .map(|&e| cfg.edge(e).to)
            .find(|b| cfg.block(*b).kind == BlockKind::DelaySlot)
            .and_then(|b| cfg.block(b).insns.first().map(|ia| ia.insn));
        self.items.push(Item::Orig { insn, addr });
        match delay {
            Some(d) => self.items.push(Item::Orig {
                insn: d,
                addr: addr + 4,
            }),
            None => self.items.push(Item::New(Builder::nop())),
        }
        Ok(())
    }

    fn emit_indirect_jump(
        &mut self,
        cfg: &Cfg,
        bid: BlockId,
        addr: u32,
        insn: Insn,
    ) -> Result<(), EelError> {
        let resolution = cfg
            .indirect_jumps
            .iter()
            .find(|r| r.addr == addr)
            .map(|r| r.resolution.clone())
            .unwrap_or(JumpResolution::Unknown);
        let block = cfg.block(bid).clone();

        match resolution {
            JumpResolution::Table {
                table_addr,
                targets,
                ..
            } => {
                // Gather per-target paths.
                let mut per_target: Vec<(u32, Vec<EdgeId>, Option<Insn>)> = Vec::new();
                for &e in &block.succs {
                    let (edges, delay, dest) = self.walk_path(cfg, e);
                    let t = match dest {
                        PathDest::Block(b) => cfg.block(b).addr,
                        PathDest::Escape(t) => t,
                        _ => continue,
                    };
                    per_target.push((t, edges, delay));
                }
                let delay_insn = per_target.iter().find_map(|(_, _, d)| *d);
                let any_edits = per_target
                    .iter()
                    .any(|(_, es, _)| !self.path_snippets(es).is_empty());

                if !any_edits {
                    self.items.push(Item::Orig { insn, addr });
                    match delay_insn {
                        Some(d) => self.items.push(Item::Orig {
                            insn: d,
                            addr: addr + 4,
                        }),
                        None => self.items.push(Item::New(Builder::nop())),
                    }
                } else {
                    // Empty the slot; each target gets a stub replaying the
                    // delay instruction plus its edge snippets.
                    self.items.push(Item::Orig { insn, addr });
                    self.items.push(Item::New(Builder::nop()));
                    for (t, edges, _) in &per_target {
                        let stub = self.fresh_label();
                        self.table_stubs.insert((table_addr, *t), stub);
                        let mut si = vec![Item::Label(stub)];
                        for p in self.path_snippets(edges) {
                            si.push(Item::SnippetRef(p));
                        }
                        if let Some(d) = delay_insn {
                            si.push(Item::Orig {
                                insn: d,
                                addr: addr + 4,
                            });
                        }
                        si.push(Item::BranchTo {
                            cond: Cond::Always,
                            annul: false,
                            target: self.code_tgt(cfg, *t),
                            orig: None,
                        });
                        si.push(Item::New(Builder::nop()));
                        self.stub_items.extend(si);
                    }
                }
                let _ = targets;
            }
            JumpResolution::Literal { target, base_insns } => {
                // Edge snippets (single known target) go before the jump.
                for &e in &block.succs {
                    let (edges, _, _) = self.walk_path(cfg, e);
                    let sn = self.path_snippets(&edges);
                    self.emit_placements(&sn);
                }
                let delay = block
                    .succs
                    .iter()
                    .map(|&e| cfg.edge(e).to)
                    .find(|b| cfg.block(*b).kind == BlockKind::DelaySlot)
                    .and_then(|b| cfg.block(b).insns.first().map(|ia| ia.insn));
                if base_insns.is_empty() {
                    // Unpatchable materialization: replace the jump with a
                    // direct branch to the (relocated) literal target.
                    self.items.push(Item::BranchTo {
                        cond: Cond::Always,
                        annul: false,
                        target: self.code_tgt(cfg, target),
                        orig: Some(addr),
                    });
                } else {
                    self.items.push(Item::Orig { insn, addr });
                }
                match delay {
                    Some(d) => self.items.push(Item::Orig {
                        insn: d,
                        addr: addr + 4,
                    }),
                    None => self.items.push(Item::New(Builder::nop())),
                }
            }
            JumpResolution::Unknown => {
                let Op::Jmpl { rs1, src2, .. } = insn.op else {
                    return Err(EelError::Internal("indirect jump is not jmpl".into()));
                };
                let delay = block
                    .succs
                    .iter()
                    .map(|&e| cfg.edge(e).to)
                    .find(|b| cfg.block(*b).kind == BlockKind::DelaySlot)
                    .and_then(|b| cfg.block(b).insns.first().map(|ia| ia.insn));
                // Scratch registers must be dead here.
                let last = block.insns.len() - 1;
                let live = self.liveness.live_before(cfg, bid, last);
                if live.contains(Reg(6)) || live.contains(Reg(7)) {
                    return Err(EelError::TranslationClash { addr });
                }
                self.emit_translated_transfer(addr, rs1, src2, delay, false)?;
            }
        }
        Ok(())
    }

    /// The run-time translation sequence for an unanalyzable transfer:
    ///
    /// ```text
    /// add  rs1, src2, %g6      ! capture the ORIGINAL target
    /// <original delay insn>    ! it ran before the transfer, so replay now
    /// sethi %hi(__eel_translate), %g7
    /// or    %g7, %lo(__eel_translate), %g7
    /// jmpl  %g7, %g7           ! translator: %g6 ← new address
    /// nop
    /// jmpl  %g6, %o7|%g0       ! the real transfer
    /// nop
    /// ```
    fn emit_translated_transfer(
        &mut self,
        addr: u32,
        rs1: Reg,
        src2: Src2,
        delay: Option<Insn>,
        link: bool,
    ) -> Result<(), EelError> {
        if let Some(d) = delay {
            let w = d.writes();
            if w.contains(Reg(6)) || w.contains(Reg(7)) {
                return Err(EelError::TranslationClash { addr });
            }
            if link && d.reads().contains(Reg::O7) {
                return Err(EelError::TranslationClash { addr });
            }
        }
        self.needs_translator = true;
        self.items.push(Item::MapOrig(addr));
        self.items.push(Item::New(Builder::add(Reg(6), rs1, src2)));
        if let Some(d) = delay {
            self.items.push(Item::Orig {
                insn: d,
                addr: addr + 4,
            });
        }
        self.items.push(Item::SethiHiOf {
            rd: Reg(7),
            target: Tgt::Runtime(TRANSLATOR.into()),
            orig: None,
        });
        self.items.push(Item::OrLoOf {
            rd: Reg(7),
            rs1: Reg(7),
            target: Tgt::Runtime(TRANSLATOR.into()),
            orig: None,
        });
        self.items
            .push(Item::New(Builder::jmpl(Reg(7), Reg(7), Src2::Imm(0))));
        self.items.push(Item::New(Builder::nop()));
        let link_reg = if link { Reg::O7 } else { Reg::G0 };
        self.items
            .push(Item::New(Builder::jmpl(link_reg, Reg(6), Src2::Imm(0))));
        self.items.push(Item::New(Builder::nop()));
        Ok(())
    }
}

/// Where a path out of a terminator lands.
#[derive(Clone, Debug, PartialEq, Eq)]
enum PathDest {
    Block(BlockId),
    Escape(u32),
    Exit,
    Runtime,
    DeadEnd,
}
