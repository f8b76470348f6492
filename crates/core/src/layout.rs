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
//!
//! The layout state is positional, like the CFG builder's: a per-block
//! vector holds block labels, snippet placements are compressed rows
//! keyed by word, block and edge, and one per-word vector over the
//! routine's extent holds what is known about each original address
//! (deletion, base-materialization group, whether a unit consumed it, and
//! the block unit starting there), so resolving a code target is an index
//! lookup. The units themselves are one address-sorted list. Kept
//! original instructions are emitted as their words: only a block's last
//! instruction (is it a terminator?) and delay-slot instructions are
//! decoded. The sequences the emission rules repeat — a terminator's
//! delay instruction, "delay instruction or `nop`", and "branch; `nop`" —
//! each have one helper.

use crate::analysis::jumptable::JumpResolution;
use crate::analysis::live::LiveIn;
use crate::cfg::{BlockId, BlockKind, Cfg, Edge, EdgeId, EdgeKind, EditPoint, IndirectJumpInfo};
use crate::error::EelError;
use crate::snippet::{RegAssignment, Snippet};
use eel_exe::Image;
use eel_isa::{Builder, Cond, Insn, Op, Reg, RegSet, Src2};

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
    /// An original instruction word, kept verbatim (and mapped).
    Orig {
        /// The instruction's encoding.
        word: u32,
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

    /// The original address this item binds in the old→new map.
    pub(crate) fn orig(&self) -> Option<u32> {
        match self {
            Item::MapOrig(a)
            | Item::Orig { addr: a, .. }
            | Item::RawWord { addr: a, .. }
            | Item::BranchTo { orig: Some(a), .. }
            | Item::CallTo { orig: Some(a), .. }
            | Item::SethiHiOf { orig: Some(a), .. }
            | Item::OrLoOf { orig: Some(a), .. }
            | Item::TableWord { orig: Some(a), .. } => Some(*a),
            _ => None,
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

/// An emission unit, kept with its original address in one
/// address-sorted list.
enum Unit {
    Block(BlockId),
    /// A dispatch table: its label, and per slot the original target and
    /// the stub an edited table edge routes the slot through.
    Table {
        label: usize,
        slots: Vec<(u32, Option<usize>)>,
    },
    /// An unreached word, preserved verbatim.
    Raw,
}

/// What layout knows about one word of the routine's extent (the
/// snippets placed before and after it are in [`Layouter::at_word`]).
#[derive(Clone, Copy, Default)]
struct Word {
    deleted: bool,
    /// Consumed by a block, a delay slot or a table: no raw unit.
    used: bool,
    /// The block unit starting here (a later block at the same address,
    /// which only a malformed image produces, replaces an earlier one; a
    /// table replaces both).
    block: Option<BlockId>,
    /// Index into [`Layouter::groups`] of the base-materialization group
    /// the instruction belongs to.
    group: Option<u32>,
}

/// Placements grouped by where they go, each group in edit order:
/// compressed rows (per-key offsets into one list), built once every
/// edit is placed.
#[derive(Default)]
struct Rows {
    /// Per key, plus one: the offset of its row in `placed`.
    off: Vec<u32>,
    placed: Vec<usize>,
}

impl Rows {
    /// Groups `(key, placement)` pairs over keys `0..keys`. No pairs
    /// make no rows (every row reads empty).
    fn new(keys: usize, pairs: &[(usize, usize)]) -> Rows {
        if pairs.is_empty() {
            return Rows::default();
        }
        // Counts, summed so `off[k]` is the end of row `k`; then each row
        // fills from its end, leaving `off[k]` at its start.
        let mut off = vec![0u32; keys + 1];
        for &(k, _) in pairs {
            off[k] += 1;
        }
        for k in 1..=keys {
            off[k] += off[k - 1];
        }
        let mut placed = vec![0; pairs.len()];
        for &(k, p) in pairs.iter().rev() {
            off[k] -= 1;
            placed[off[k] as usize] = p;
        }
        Rows { off, placed }
    }

    /// The placements of key `k` (none for a key beyond the rows).
    fn row(&self, k: usize) -> &[usize] {
        match (self.off.get(k), self.off.get(k + 1)) {
            (Some(&a), Some(&b)) => &self.placed[a as usize..b as usize],
            _ => &[],
        }
    }
}

/// Lays out one routine from its (possibly edited) CFG. `liveness`
/// supplies the routine's liveness (shared with other ops when the shape
/// is), asked for at most once.
pub(crate) fn lay_out_routine(
    image: &Image,
    mut cfg: Cfg,
    liveness: &dyn Fn(&Cfg) -> LiveIn,
) -> Result<RoutineLayout, EelError> {
    let _obs = eel_obs::span("core.layout");
    // Placement: liveness (asked for on first need, so a pass-through
    // routine never pays for it) plus every edit's snippet
    // materialization.
    let place_obs = eel_obs::span("core.layout.place");
    let edits = std::mem::take(&mut cfg.edits);
    let (start, end) = cfg.extent();
    let words = (end - start).div_ceil(4) as usize;
    let cfg = &cfg;
    let mut lay = Layouter {
        image,
        cfg,
        liveness,
        live: std::cell::OnceCell::new(),
        // Every original word and placement is at least one item.
        items: Vec::with_capacity(words + edits.len()),
        placed: Vec::with_capacity(edits.len()),
        snippet_store: Vec::with_capacity(edits.len()),
        labels: 0,
        needs_translator: false,
        stub_items: Vec::new(),
        start,
        words: vec![Word::default(); words],
        block_label: vec![None; cfg.block_count()],
        at_word: Rows::default(),
        at_block: Rows::default(),
        on_edge: Rows::default(),
        entry_sn: Vec::new(),
        groups: Vec::new(),
        units: Vec::new(),
    };

    // ---- organize edits --------------------------------------------------
    // Placements by word (before: `2w`, after: `2w + 1`), block and edge.
    let (mut at_word, mut at_block, mut on_edge) = (Vec::new(), Vec::new(), Vec::new());
    for edit in edits {
        match (edit.point, edit.snippet) {
            (EditPoint::Before(addr), None) => {
                if let Some(i) = lay.slot(addr) {
                    lay.words[i].deleted = true;
                }
            }
            (EditPoint::Before(addr), Some(s)) => {
                let (b, i, w) = lay.insn_point(addr)?;
                let p = lay.place(s, lay.live().live_before(cfg, b, i))?;
                at_word.push((2 * w, p));
            }
            (EditPoint::After(addr), Some(s)) => {
                let (b, i, w) = lay.insn_point(addr)?;
                let p = lay.place(s, lay.live().live_after(cfg, b, i))?;
                at_word.push((2 * w + 1, p));
            }
            (EditPoint::Edge(e), Some(s)) => {
                let live = lay.live().live_on_edge(cfg, e);
                let p = lay.place(s, live)?;
                on_edge.push((e.index(), p));
            }
            (EditPoint::BlockStart(b), Some(s)) => {
                if b == cfg.entry_block() {
                    // Entry instrumentation: placed at every entry point.
                    let store = lay.store_snippet(s);
                    lay.entry_sn.push(store);
                } else {
                    let live = lay.live().live_in(b);
                    let p = lay.place(s, live)?;
                    at_block.push((b.index(), p));
                }
            }
            (_, None) => return Err(EelError::BadEditTarget("delete without address".into())),
        }
    }
    lay.at_word = Rows::new(2 * lay.words.len(), &at_word);
    lay.at_block = Rows::new(cfg.block_count(), &at_block);
    lay.on_edge = Rows::new(cfg.edge_count(), &on_edge);

    // ---- address-ordered units --------------------------------------------
    drop(place_obs);
    let _emit_obs = eel_obs::span("core.layout.emit");
    for (bid, b) in cfg.blocks() {
        if b.kind != BlockKind::Normal || b.insns.is_empty() {
            continue;
        }
        if let Some(i) = lay.slot(b.addr) {
            lay.words[i].block = Some(bid);
        }
        // Delay-slot words are consumed by their transfer site.
        let delay = b.insns.last().filter(|ia| ia.insn.is_delayed());
        let delay = delay.and_then(|ia| ia.addr).map(|a| a + 4);
        for a in b.insns.addrs().chain(delay) {
            if let Some(i) = lay.slot(a) {
                lay.words[i].used = true;
            }
        }
    }
    // Dispatch tables, deduplicated by address. The slicer may find a
    // table in another routine's text; it still takes its address-ordered
    // place among the units.
    let mut tables: Vec<(u32, Unit)> = Vec::new();
    for info in resolutions(cfg) {
        let JumpResolution::Table {
            table_addr,
            targets,
            ..
        } = &info.resolution
        else {
            continue;
        };
        if tables.iter().any(|(a, _)| a == table_addr) {
            continue;
        }
        if let Some(i) = lay.slot(*table_addr) {
            lay.words[i].block = None;
        }
        for k in 0..targets.len() as u32 {
            if let Some(i) = lay.slot(table_addr + 4 * k) {
                lay.words[i].used = true;
            }
        }
        let slots = targets.iter().map(|&t| (t, None)).collect();
        tables.push((*table_addr, Unit::Table { label: 0, slots }));
    }
    let mut units: Vec<(u32, Unit)> = Vec::new();
    for (i, w) in lay.words.iter().enumerate() {
        let addr = start + 4 * i as u32;
        match w.block {
            Some(b) => units.push((addr, Unit::Block(b))),
            None if !w.used => units.push((addr, Unit::Raw)),
            None => {}
        }
    }
    tables.sort_by_key(|(a, _)| *a);
    units.extend(tables);
    // Both runs are sorted and share no address, so this is one merge.
    units.sort_by_key(|(a, _)| *a);

    // Labels: blocks in address order, then tables, then stubs as emitted.
    for (_, u) in &units {
        if let Unit::Block(b) = u {
            lay.block_label[b.index()] = Some(lay.fresh_label());
        }
    }
    for (_, u) in &mut units {
        if let Unit::Table { label, .. } = u {
            *label = lay.fresh_label();
        }
    }
    lay.units = units;

    // ---- base-materialization groups (tables & literals) -----------------
    for info in resolutions(cfg) {
        let (base_insns, target) = match &info.resolution {
            JumpResolution::Table {
                table_addr,
                base_insns,
                ..
            } => (base_insns, lay.table_tgt(*table_addr)),
            JumpResolution::Literal { target, base_insns } => (base_insns, lay.code_tgt(*target)),
            JumpResolution::Unknown => continue,
        };
        lay.register_base_group(base_insns.clone(), target)?;
    }

    // ---- emit --------------------------------------------------------------
    for k in 0..lay.units.len() {
        let addr = lay.units[k].0;
        let next = lay.units.get(k + 1).map(|(a, _)| *a);
        match lay.units[k].1 {
            Unit::Raw => {
                let word = image.word_at(addr).unwrap_or(0);
                lay.items.push(Item::RawWord { word, addr });
            }
            Unit::Table { label, ref slots } => {
                lay.items.push(Item::Label(label));
                for (slot, &(t, stub)) in slots.iter().enumerate() {
                    let target = stub.map_or_else(|| lay.code_tgt(t), Tgt::Local);
                    lay.items.push(Item::TableWord {
                        target,
                        orig: Some(addr + 4 * slot as u32),
                    });
                }
            }
            Unit::Block(bid) => lay.emit_block(bid, addr, next)?,
        }
    }
    // Append collected stubs.
    let stubs = std::mem::take(&mut lay.stub_items);
    lay.items.extend(stubs);

    Ok(RoutineLayout {
        items: lay.items,
        snippets: lay.placed,
        snippet_store: lay.snippet_store,
        needs_translator: lay.needs_translator,
    })
}

/// The CFG's resolved indirect jumps, then its indirect calls.
fn resolutions(cfg: &Cfg) -> impl Iterator<Item = &IndirectJumpInfo> {
    cfg.jump_infos().iter().chain(cfg.call_infos())
}

/// How the indirect transfer at `addr` resolved.
fn resolution(list: &[IndirectJumpInfo], addr: u32) -> &JumpResolution {
    static UNKNOWN: JumpResolution = JumpResolution::Unknown;
    list.iter()
        .find(|r| r.addr == addr)
        .map_or(&UNKNOWN, |r| &r.resolution)
}

/// The first successor edge of `bid` of the given kind.
fn succ_of_kind(cfg: &Cfg, bid: BlockId, kind: EdgeKind) -> Option<EdgeId> {
    cfg.block(bid)
        .succ()
        .iter()
        .find(|&e| cfg.edge(e).kind == kind)
}

/// The instruction of `b` when it is a delay-slot block.
fn delay_slot_insn(cfg: &Cfg, b: BlockId) -> Option<Insn> {
    let block = cfg.block(b);
    (block.kind == BlockKind::DelaySlot)
        .then(|| block.insns.first().map(|ia| ia.insn))
        .flatten()
}

/// The delay instruction of the transfer ending `bid`: the one in its
/// first delay-slot successor.
fn terminator_delay(cfg: &Cfg, bid: BlockId) -> Option<Insn> {
    cfg.block(bid)
        .succ()
        .iter()
        .find_map(|e| delay_slot_insn(cfg, cfg.edge(e).to))
}

/// The delay instruction of the transfer at `addr`, replayed at its own
/// original address.
fn replay(delay: Insn, addr: u32) -> Item {
    Item::Orig {
        word: delay.word,
        addr: addr + 4,
    }
}

/// `b<cond> target; nop`.
fn branch_nop(out: &mut Vec<Item>, cond: Cond, target: Tgt, orig: Option<u32>) {
    out.push(Item::BranchTo {
        cond,
        annul: false,
        target,
        orig,
    });
    out.push(Item::New(Builder::nop()));
}

/// References to a list of placed snippets.
fn refs(list: &[usize]) -> impl Iterator<Item = Item> + '_ {
    list.iter().map(|&p| Item::SnippetRef(p))
}

struct Layouter<'a> {
    image: &'a Image,
    cfg: &'a Cfg,
    liveness: &'a dyn Fn(&Cfg) -> LiveIn,
    live: std::cell::OnceCell<LiveIn>,
    items: Vec<Item>,
    placed: Vec<PlacedSnippet>,
    snippet_store: Vec<Snippet>,
    labels: usize,
    needs_translator: bool,
    stub_items: Vec<Item>,
    /// First address of the extent, which `words` indexes from.
    start: u32,
    words: Vec<Word>,
    /// Per block: its unit's label (none for blocks that are no unit).
    block_label: Vec<Option<usize>>,
    /// Per word: placements before (row `2w`) and after (`2w + 1`) it.
    at_word: Rows,
    /// Per block: placements at its start.
    at_block: Rows,
    /// Per edge: placements along it.
    on_edge: Rows,
    /// `snippet_store` indices placed at every entry point.
    entry_sn: Vec<usize>,
    /// Base-materialization groups: (leader address, rd, target). Only
    /// the leader emits.
    groups: Vec<(u32, Reg, Tgt)>,
    units: Vec<(u32, Unit)>,
}

/// One outgoing path of a terminator: `bid --e1--> [delay] --e2--> dest`.
struct Path {
    e1: EdgeId,
    e2: Option<EdgeId>,
    delay: Option<Insn>,
    dest: PathDest,
}

impl Path {
    fn edges(&self) -> impl Iterator<Item = EdgeId> {
        std::iter::once(self.e1).chain(self.e2)
    }
}

/// References to the snippets placed along a path's edges.
fn path_refs<'r>(on_edge: &'r Rows, path: &Path) -> impl Iterator<Item = Item> + 'r {
    path.edges().flat_map(|e| refs(on_edge.row(e.index())))
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

impl<'a> Layouter<'a> {
    /// The routine's liveness, asked for on first use.
    fn live(&self) -> &LiveIn {
        self.live.get_or_init(|| (self.liveness)(self.cfg))
    }

    fn fresh_label(&mut self) -> usize {
        self.labels += 1;
        self.labels - 1
    }

    /// The index of an original address in `words`.
    fn slot(&self, addr: u32) -> Option<usize> {
        let off = addr.checked_sub(self.start)?;
        let i = (off / 4) as usize;
        (off.is_multiple_of(4) && i < self.words.len()).then_some(i)
    }

    /// The block, position and word of an edited instruction.
    fn insn_point(&self, addr: u32) -> Result<(BlockId, usize, usize), EelError> {
        let at = |(b, i)| Some((b, i, self.slot(addr)?));
        let point = self.cfg.block_at(addr).and_then(at);
        point.ok_or_else(|| EelError::BadEditTarget(format!("{addr:#x}")))
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

    /// The symbolic target for an original code address: a local label if
    /// a block unit starts there, else a global original address.
    fn code_tgt(&self, addr: u32) -> Tgt {
        self.slot(addr)
            .and_then(|i| self.words[i].block)
            .and_then(|b| self.block_label[b.index()])
            .map_or(Tgt::Orig(addr), Tgt::Local)
    }

    /// The symbolic target for a block: its label, or — for a block that
    /// lost its unit to another at the same address, which only a
    /// malformed image produces — its original address, which write
    /// time maps or rejects.
    fn block_tgt(&self, b: BlockId) -> Tgt {
        self.block_label[b.index()].map_or(Tgt::Orig(self.cfg.block(b).addr), Tgt::Local)
    }

    fn unit_at(&mut self, addr: u32) -> Option<&mut Unit> {
        let k = self.units.binary_search_by_key(&addr, |(a, _)| *a).ok()?;
        Some(&mut self.units[k].1)
    }

    /// The label of the dispatch table at `addr`.
    fn table_tgt(&mut self, addr: u32) -> Tgt {
        match self.unit_at(addr) {
            Some(Unit::Table { label, .. }) => Tgt::Local(*label),
            _ => Tgt::Orig(addr),
        }
    }

    /// Registers a `sethi`(+`or`) materialization group for re-pointing.
    fn register_base_group(
        &mut self,
        mut base_insns: Vec<u32>,
        target: Tgt,
    ) -> Result<(), EelError> {
        base_insns.sort_unstable();
        base_insns.dedup();
        let Some(&leader) = base_insns.first() else {
            return Ok(());
        };
        // The destination register: all materializing instructions must
        // agree on it.
        let rd_of = |a: u32| {
            let word = self.image.word_at(a).ok_or(EelError::BadAddress {
                addr: a,
                expected: "a text address (base materialization)",
            })?;
            match eel_isa::decode(word).op {
                Op::Sethi { rd, .. } | Op::Alu { rd, .. } => Ok(rd),
                other => Err(EelError::Internal(format!(
                    "unexpected base-materializing instruction {other:?} at {a:#x}"
                ))),
            }
        };
        let rd = rd_of(leader)?;
        for &a in &base_insns[1..] {
            let r = rd_of(a)?;
            if r != rd {
                return Err(EelError::Internal(format!(
                    "base materialization splits registers {rd} vs {r}"
                )));
            }
        }
        let group = self.groups.len();
        self.groups.push((leader, rd, target));
        for a in base_insns {
            if let Some(i) = self.slot(a) {
                self.words[i].group = Some(group as u32);
            }
        }
        Ok(())
    }

    // ---- block emission ---------------------------------------------------

    fn emit_block(&mut self, bid: BlockId, addr: u32, next: Option<u32>) -> Result<(), EelError> {
        let cfg = self.cfg;
        let block = cfg.block(bid);
        self.items
            .extend(self.block_label[bid.index()].map(Item::Label));

        // Entry points bind here; entry snippets are placed per entry.
        if cfg.entry_addrs().contains(&addr) {
            self.items.push(Item::MapOrig(addr));
            for k in 0..self.entry_sn.len() {
                let live = self.live().live_in(bid);
                let p = self.place_stored(self.entry_sn[k], live)?;
                self.items.push(Item::SnippetRef(p));
            }
        }
        self.items.extend(refs(self.at_block.row(bid.index())));

        // Kept instructions are emitted as words: only the last one is
        // decoded, to see whether it is the block's terminator.
        let n = block.insns.len();
        for (i, (iaddr, word)) in block.insns.words().enumerate() {
            let w = self.slot(iaddr);
            if let Some(w) = w {
                self.items.extend(refs(self.at_word.row(2 * w)));
            }
            if i == n - 1 {
                let insn = eel_isa::decode(word);
                if insn.is_control_transfer() {
                    return self.emit_terminator(bid, iaddr, insn, next);
                }
            }
            let (deleted, group) = w.map_or((false, None), |w| {
                (self.words[w].deleted, self.words[w].group)
            });
            match group.map(|g| &self.groups[g as usize]) {
                _ if deleted => self.items.push(Item::MapOrig(iaddr)),
                // Only the leader emits the re-pointed pair; the other
                // members vanish into it.
                Some((leader, rd, target)) => {
                    if iaddr == *leader {
                        self.items.push(Item::SethiHiOf {
                            rd: *rd,
                            target: target.clone(),
                            orig: Some(iaddr),
                        });
                        self.items.push(Item::OrLoOf {
                            rd: *rd,
                            rs1: *rd,
                            target: target.clone(),
                            orig: None,
                        });
                    }
                }
                None => self.items.push(Item::Orig { word, addr: iaddr }),
            }
            if let Some(w) = w {
                self.items.extend(refs(self.at_word.row(2 * w + 1)));
            }
        }

        // The block does not end in a control transfer: it falls through.
        if let Some(e) = succ_of_kind(cfg, bid, EdgeKind::Fall) {
            self.items.extend(refs(self.on_edge.row(e.index())));
            let to_addr = cfg.block(cfg.edge(e).to).addr;
            if next != Some(to_addr) {
                let target = self.code_tgt(to_addr);
                branch_nop(&mut self.items, Cond::Always, target, None);
            }
        }
        Ok(())
    }

    // ---- terminator emission ------------------------------------------------

    /// Walks one outgoing path.
    fn walk_path(&self, e1: EdgeId) -> Path {
        let cfg = self.cfg;
        let edge = cfg.edge(e1);
        let delay = delay_slot_insn(cfg, edge.to);
        let to = cfg.block(edge.to);
        let (e2, dest) = match (to.kind, to.succ().first()) {
            (BlockKind::DelaySlot, Some(e2)) => (Some(e2), self.edge_dest(&cfg.edge(e2))),
            (BlockKind::DelaySlot, None) => (None, PathDest::DeadEnd),
            _ => (None, self.edge_dest(&edge)),
        };
        Path {
            e1,
            e2,
            delay,
            dest,
        }
    }

    fn edge_dest(&self, edge: &Edge) -> PathDest {
        match edge.kind {
            EdgeKind::Escape { target } => PathDest::Escape(target),
            EdgeKind::RuntimeIndirect => PathDest::Runtime,
            _ if edge.to == self.cfg.exit_block() => PathDest::Exit,
            _ => PathDest::Block(edge.to),
        }
    }

    fn path_edited(&self, path: &Path) -> bool {
        path.edges()
            .any(|e| !self.on_edge.row(e.index()).is_empty())
    }

    fn dest_tgt(&self, dest: &PathDest) -> Tgt {
        match dest {
            PathDest::Block(b) => self.block_tgt(*b),
            PathDest::Escape(t) => Tgt::Orig(*t),
            _ => Tgt::Orig(0),
        }
    }

    /// The delay instruction of the transfer at `addr` in its slot, or a
    /// `nop` when there is none.
    fn push_delay_or_nop(&mut self, delay: Option<Insn>, addr: u32) {
        let item = delay.map_or(Item::New(Builder::nop()), |d| replay(d, addr));
        self.items.push(item);
    }

    /// An edited path inline: its snippets, then its delay instruction
    /// unless the branch annuls it.
    fn push_path(&mut self, path: &Path, annul: bool, addr: u32) {
        self.items.extend(path_refs(&self.on_edge, path));
        if !annul {
            self.items.extend(path.delay.map(|d| replay(d, addr)));
        }
    }

    /// An out-of-line stub after the routine's units: its label, the
    /// path's snippets, the replayed delay instruction, and a branch on.
    fn push_stub(&mut self, stub: usize, path: &Path, delay: Option<Insn>, addr: u32, to: Tgt) {
        self.stub_items.push(Item::Label(stub));
        self.stub_items.extend(path_refs(&self.on_edge, path));
        self.stub_items.extend(delay.map(|d| replay(d, addr)));
        branch_nop(&mut self.stub_items, Cond::Always, to, None);
    }

    fn emit_terminator(
        &mut self,
        bid: BlockId,
        addr: u32,
        insn: Insn,
        next: Option<u32>,
    ) -> Result<(), EelError> {
        let cfg = self.cfg;
        match insn.op {
            Op::Branch { cond, annul, .. } => self.emit_branch(bid, addr, cond, annul, next),
            Op::Call { .. } => self.emit_call(bid, addr, insn, None),
            Op::Jmpl { .. } => match insn.jump_kind() {
                Some(eel_isa::JumpKind::Return) => {
                    self.items.push(Item::Orig {
                        word: insn.word,
                        addr,
                    });
                    self.push_delay_or_nop(terminator_delay(cfg, bid), addr);
                    Ok(())
                }
                Some(eel_isa::JumpKind::IndirectCall) => {
                    let res = resolution(cfg.call_infos(), addr);
                    self.emit_call(bid, addr, insn, Some(res))
                }
                _ => self.emit_indirect_jump(bid, addr, insn),
            },
            other => Err(EelError::Internal(format!("non-terminator {other:?}"))),
        }
    }

    fn emit_branch(
        &mut self,
        bid: BlockId,
        addr: u32,
        cond: Cond,
        annul: bool,
        next: Option<u32>,
    ) -> Result<(), EelError> {
        let cfg = self.cfg;
        let taken = succ_of_kind(cfg, bid, EdgeKind::Taken).map(|e| self.walk_path(e));
        let fall = succ_of_kind(cfg, bid, EdgeKind::Fall).map(|e| self.walk_path(e));
        let edited = [&taken, &fall]
            .into_iter()
            .flatten()
            .any(|p| self.path_edited(p));

        if !edited {
            // Fold the delay instruction back into the slot (§3.3).
            let target = match &taken {
                Some(p) => self.dest_tgt(&p.dest),
                None => self.block_tgt(bid), // `bn`: target unused
            };
            self.items.push(Item::BranchTo {
                cond,
                annul,
                target,
                orig: Some(addr),
            });
            let delay = [&taken, &fall].into_iter().flatten().find_map(|p| p.delay);
            self.push_delay_or_nop(delay, addr);
            if let Some(p) = &fall {
                self.emit_fall_continuation(&p.dest, next);
            }
            return Ok(());
        }

        // Edited: split the paths. `ba,a` and `bn,a` never execute their
        // delay slot.
        let missing = |what: &str| EelError::Internal(format!("branch at {addr:#x} has no {what}"));
        match cond {
            Cond::Always => {
                let path = taken.ok_or_else(|| missing("taken path"))?;
                self.push_path(&path, annul, addr);
                let target = self.dest_tgt(&path.dest);
                branch_nop(&mut self.items, Cond::Always, target, Some(addr));
            }
            Cond::Never => {
                let path = fall.ok_or_else(|| missing("fall path"))?;
                self.push_path(&path, annul, addr);
                self.items.push(Item::MapOrig(addr));
                self.emit_fall_continuation(&path.dest, next);
            }
            _ => {
                let stub = self.fresh_label();
                branch_nop(&mut self.items, cond, Tgt::Local(stub), Some(addr));
                // Fall path inline, taken path out of line.
                if let Some(path) = &fall {
                    self.push_path(path, annul, addr);
                    self.emit_fall_continuation(&path.dest, next);
                }
                if let Some(path) = &taken {
                    let to = self.dest_tgt(&path.dest);
                    self.push_stub(stub, path, path.delay, addr, to);
                }
            }
        }
        Ok(())
    }

    fn emit_fall_continuation(&mut self, dest: &PathDest, next: Option<u32>) {
        let target = match *dest {
            PathDest::Block(b) if next != Some(self.cfg.block(b).addr) => self.block_tgt(b),
            PathDest::Escape(t) => Tgt::Orig(t),
            _ => return,
        };
        branch_nop(&mut self.items, Cond::Always, target, None);
    }

    /// Calls (direct, and indirect with/without a resolved literal).
    fn emit_call(
        &mut self,
        bid: BlockId,
        addr: u32,
        insn: Insn,
        indirect: Option<&JumpResolution>,
    ) -> Result<(), EelError> {
        let cfg = self.cfg;
        // Chain: bid → delay? → surrogate → return block.
        let flow = succ_of_kind(cfg, bid, EdgeKind::CallFlow)
            .ok_or_else(|| EelError::Internal(format!("call at {addr:#x} has no flow edge")))?;
        let Path { delay, dest, .. } = self.walk_path(flow);
        let PathDest::Block(surrogate) = dest else {
            return Err(EelError::Internal("dangling call delay".into()));
        };

        match (insn.op, indirect) {
            (Op::Call { .. }, _) => {
                let target = cfg
                    .call_sites()
                    .find(|(a, _)| *a == addr)
                    .map(|(_, t)| t)
                    .ok_or_else(|| EelError::Internal(format!("unrecorded call {addr:#x}")))?;
                self.items.push(Item::CallTo {
                    target: Tgt::Orig(target),
                    orig: Some(addr),
                });
                self.push_delay_or_nop(delay, addr);
            }
            (Op::Jmpl { .. }, Some(JumpResolution::Literal { target, base_insns })) => {
                if base_insns.is_empty() {
                    // Known callee but no patchable materialization:
                    // replace the jmpl with a direct call (§3.3's
                    // literal-jump resolution; the dead register still
                    // holds the old address, harmlessly).
                    self.items.push(Item::CallTo {
                        target: Tgt::Orig(*target),
                        orig: Some(addr),
                    });
                } else {
                    // Base instructions were re-pointed at the new
                    // address; the jmpl is position-independent.
                    self.items.push(Item::Orig {
                        word: insn.word,
                        addr,
                    });
                }
                self.push_delay_or_nop(delay, addr);
            }
            // Run-time translation: the register holds an ORIGINAL address.
            (Op::Jmpl { rs1, src2, .. }, _) => {
                self.emit_translated_transfer(addr, rs1, src2, delay, true)?;
            }
            (other, _) => return Err(EelError::Internal(format!("emit_call on {other:?}"))),
        }

        // Snippets on the surrogate → return edge go right after the call.
        if let Some(e) = cfg.block(surrogate).succ().first() {
            self.items.extend(refs(self.on_edge.row(e.index())));
            // The return block is addr+8, which is emitted next in address
            // order, so no explicit jump is needed; if the return site is
            // elsewhere (odd layouts), branch explicitly.
            if let PathDest::Block(b) = self.edge_dest(&cfg.edge(e)) {
                if cfg.block(b).addr != addr + 8 {
                    let target = self.block_tgt(b);
                    branch_nop(&mut self.items, Cond::Always, target, None);
                }
            }
        }
        Ok(())
    }

    fn emit_indirect_jump(&mut self, bid: BlockId, addr: u32, insn: Insn) -> Result<(), EelError> {
        let cfg = self.cfg;
        let block = cfg.block(bid);
        match resolution(cfg.jump_infos(), addr) {
            JumpResolution::Table { table_addr, .. } => {
                // Gather per-target paths.
                let mut paths: Vec<(u32, Path)> = Vec::new();
                for e in block.succ() {
                    let path = self.walk_path(e);
                    let t = match path.dest {
                        PathDest::Block(b) => cfg.block(b).addr,
                        PathDest::Escape(t) => t,
                        _ => continue,
                    };
                    paths.push((t, path));
                }
                let delay = paths.iter().find_map(|(_, p)| p.delay);
                self.items.push(Item::Orig {
                    word: insn.word,
                    addr,
                });
                if !paths.iter().any(|(_, p)| self.path_edited(p)) {
                    self.push_delay_or_nop(delay, addr);
                    return Ok(());
                }
                // Empty the slot; each target gets a stub replaying the
                // delay instruction plus its edge snippets, and the
                // table's slots for that target route through it.
                self.items.push(Item::New(Builder::nop()));
                for (t, path) in &paths {
                    let stub = self.fresh_label();
                    if let Some(Unit::Table { slots, .. }) = self.unit_at(*table_addr) {
                        for slot in slots.iter_mut().filter(|(target, _)| target == t) {
                            slot.1 = Some(stub);
                        }
                    }
                    let to = self.code_tgt(*t);
                    self.push_stub(stub, path, delay, addr, to);
                }
            }
            JumpResolution::Literal { target, base_insns } => {
                // Edge snippets (single known target) go before the jump.
                for e in block.succ() {
                    let path = self.walk_path(e);
                    self.items.extend(path_refs(&self.on_edge, &path));
                }
                if base_insns.is_empty() {
                    // Unpatchable materialization: replace the jump with a
                    // direct branch to the (relocated) literal target.
                    self.items.push(Item::BranchTo {
                        cond: Cond::Always,
                        annul: false,
                        target: self.code_tgt(*target),
                        orig: Some(addr),
                    });
                } else {
                    self.items.push(Item::Orig {
                        word: insn.word,
                        addr,
                    });
                }
                self.push_delay_or_nop(terminator_delay(cfg, bid), addr);
            }
            JumpResolution::Unknown => {
                let Op::Jmpl { rs1, src2, .. } = insn.op else {
                    return Err(EelError::Internal("indirect jump is not jmpl".into()));
                };
                // Scratch registers must be dead here.
                let live = self.live().live_before(cfg, bid, block.insns.len() - 1);
                if live.contains(Reg(6)) || live.contains(Reg(7)) {
                    return Err(EelError::TranslationClash { addr });
                }
                self.emit_translated_transfer(addr, rs1, src2, terminator_delay(cfg, bid), false)?;
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
        self.items.extend(delay.map(|d| replay(d, addr)));
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
