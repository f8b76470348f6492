//! The executable abstraction (paper §3.1).
//!
//! An [`Executable`] wraps a WEF image and provides EEL's top-level
//! workflow:
//!
//! 1. [`Executable::read_contents`] — refine the (unreliable) symbol table
//!    into a set of [`Routine`]s using the paper's four-stage analysis:
//!    label cleanup, stripped-executable call-target discovery,
//!    interprocedural entry-point discovery, and (lazily, during CFG
//!    construction) hidden-routine discovery from unreachable tails.
//! 2. [`Executable::build_cfg`] / [`Executable::install_edits`] — analyze
//!    and edit routines one at a time (the Figure 1 driver pattern, with
//!    [`Executable::pop_hidden`] draining newly discovered routines).
//! 3. [`Executable::write_edited`] — lay out the edited program, fix every
//!    displacement and dispatch table, append run-time support (the
//!    address translator and tool-added routines), and emit a new image.

use crate::analysis::live::LiveIn;
use crate::cfg::{build_cfg as cfg_build, BuildEffects, Cfg, CfgShape};
use crate::error::EelError;
use crate::fragment::{self, FragmentMeta};
use crate::layout::{lay_out_routine, Item, RoutineLayout, Tgt, TRANSLATOR};
use crate::machine::{BranchCond, Flow};
use crate::routine::Routine;
use crate::shared::{self, Analysis, ShapeCells};
use eel_exe::{Image, Symbol, SymbolKind};
use eel_isa::{Builder, Insn, Op};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The largest bss [`Executable::write_edited`] turns into initialized
/// data.
pub(crate) const MAX_MATERIALIZED_BSS: u32 = 64 << 20;

/// Stable identifier of a routine within an [`Executable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RoutineId(usize);

impl RoutineId {
    /// The raw index (stable across discovery).
    pub fn index(self) -> usize {
        self.0
    }
}

/// An executable opened for analysis and editing.
///
/// The image is held behind an [`Arc`] so several `Executable`s (e.g. one
/// per concurrent eel-serve request) can share one loaded image without
/// copying; see [`Executable::from_analysis`] for sharing the routine
/// discovery as well.
pub struct Executable {
    image: Arc<Image>,
    routines: Vec<Routine>,
    analyzed: bool,
    /// Where the routine set came from (symbol table vs. inference).
    discovery: DiscoverySource,
    hidden_queue: Vec<RoutineId>,
    /// Per routine, by index: what [`Executable::write_edited`] emits.
    slots: Vec<Slot>,
    runtime_routines: Vec<(String, String)>,
    reserved_len: u32,
    reserved_init: Vec<(u32, Vec<u8>)>,
    written: Written,
    /// Whether any observable edit was requested: an installed CFG with
    /// recorded edits, reserved data, a runtime routine, or a removal.
    /// While false, [`Executable::write_edited`] reproduces the input
    /// image byte for byte instead of re-laying the program out.
    dirty: bool,
    /// The per-routine shape cells [`Executable::build_cfg`] shares
    /// shapes through: the analysis' for an executable opened with
    /// [`Executable::from_analysis`], its own otherwise.
    shapes: Arc<ShapeCells>,
    /// Per routine, by index: the analysis' content key while the routine
    /// is still as discovery left it, `None` once a §3.1 side effect
    /// changed it (or for an executable not opened from an analysis).
    keys: Vec<Option<u64>>,
}

/// What [`Executable::write_edited`] emits for one routine.
enum Slot {
    /// Laid out pass-through at write time.
    Pending,
    /// An installed layout.
    Laid(RoutineLayout),
    /// Omitted ([`Executable::remove_routine`]).
    Removed,
}

/// What [`Executable::write_edited`] produced, if it ran.
enum Written {
    No,
    /// The input image, byte for byte: every text word maps to itself.
    Unchanged,
    /// A relaid image.
    Relaid(AddrMap),
}

/// Marks a text word no item binds; edited addresses are word-aligned.
const UNMAPPED: u32 = u32::MAX;

/// The original → edited address map of a relaid image, dense over the
/// original text words. An original address outside them has no entry.
struct AddrMap {
    text_addr: u32,
    edited: Vec<u32>,
}

impl AddrMap {
    fn slot(&self, orig: u32) -> Option<usize> {
        let i = (orig.checked_sub(self.text_addr)? / 4) as usize;
        (orig.is_multiple_of(4) && i < self.edited.len()).then_some(i)
    }

    fn get(&self, orig: u32) -> Option<u32> {
        let edited = self.edited[self.slot(orig)?];
        (edited != UNMAPPED).then_some(edited)
    }

    /// Binds `orig` to `edited` unless an earlier item bound it.
    fn bind(&mut self, orig: u32, edited: u32) {
        if let Some(i) = self.slot(orig) {
            if self.edited[i] == UNMAPPED {
                self.edited[i] = edited;
            }
        }
    }

    /// The bound `(original, edited)` pairs in original address order.
    fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let bound = self
            .edited
            .iter()
            .enumerate()
            .filter(|(_, &e)| e != UNMAPPED);
        bound.map(|(i, &e)| (self.text_addr + 4 * i as u32, e))
    }
}

/// One routine as [`Executable::build_all_cfgs_probed`] hands it over.
#[derive(Debug)]
pub struct CfgBatchItem {
    /// The routine's id in this executable.
    pub id: RoutineId,
    /// Snapshot of the routine after all earlier routines' discovery
    /// side effects.
    pub routine: Routine,
    /// The routine's content key ([`crate::routine_key`]); `None` for a
    /// batch without a fragment source, which hashes no keys.
    pub key: Option<u64>,
    /// A build or a validated fragment hit.
    pub outcome: CfgOutcome,
    /// For a clean build in a batch with a fragment source — one that
    /// read no words outside its extent, so it is a pure function of the
    /// key — the record its fragment is stored with. `None` for hits,
    /// for the build of a declined hit, and for other builds.
    pub replay: Option<Replay>,
}

/// How [`Executable::build_all_cfgs_probed`] produced a routine.
#[derive(Debug)]
pub enum CfgOutcome {
    /// Built, or shared from the routine's shape cell.
    Built(Cfg),
    /// A validated fragment hit, carrying the op payload the fragment
    /// held: the build was skipped and its side effects replayed.
    Hit(Vec<u8>),
}

/// The §3.1 side effects of a clean build — its start, the escape
/// targets it registered, the trailing splits it performed — as a later
/// hit must replay them.
#[derive(Debug)]
pub struct Replay(FragmentMeta);

impl Replay {
    /// The fragment to store under the routine's key: this record
    /// wrapped around the op's payload.
    pub fn fragment(&self, payload: &[u8]) -> Vec<u8> {
        fragment::encode_fragment(&self.0, payload)
    }
}

/// The fragment source of [`Executable::build_all_cfgs_probed`]: the
/// tier's `load` by content key, and the op's check of a stored payload.
pub type FragmentSource<'a> = (
    &'a mut dyn FnMut(u64) -> Option<Vec<u8>>,
    &'a dyn Fn(&[u8]) -> bool,
);

/// The fragment side of a probed batch: the tier's load, the op's
/// payload check, and the memo that loads, decodes and checks each key
/// at most once per batch.
struct Probe<'a> {
    load: &'a mut dyn FnMut(u64) -> Option<Vec<u8>>,
    payload_ok: &'a dyn Fn(&[u8]) -> bool,
    loaded: HashMap<u64, Option<(FragmentMeta, Vec<u8>)>>,
}

impl Probe<'_> {
    /// The fragment stored under `key`, if it decodes, the op accepts its
    /// payload, and it was rendered at `r`'s start: the key is
    /// position-independent, but payloads and escape targets hold
    /// absolute addresses.
    fn hit(&mut self, r: &Routine, key: u64) -> Option<&(FragmentMeta, Vec<u8>)> {
        let (load, payload_ok) = (&mut self.load, self.payload_ok);
        self.loaded
            .entry(key)
            .or_insert_with(|| {
                load(key)
                    .and_then(fragment::decode_fragment)
                    .filter(|(_, payload)| payload_ok(payload))
            })
            .as_ref()
            .filter(|(meta, _)| meta.start == r.start)
    }
}

impl std::fmt::Debug for Executable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executable")
            .field("routines", &self.routines.len())
            .field("analyzed", &self.analyzed)
            .finish_non_exhaustive()
    }
}

impl Executable {
    /// Opens an in-memory image.
    ///
    /// # Errors
    ///
    /// [`EelError::BadImage`] when the image fails validation.
    pub fn from_image(image: Image) -> Result<Executable, EelError> {
        Executable::from_shared_image(Arc::new(image))
    }

    /// Opens an image already shared behind an [`Arc`]: the constructor
    /// behind [`Executable::from_image`] and [`Executable::from_analysis`].
    /// It has no shape cells until its routines are known.
    fn from_shared_image(image: Arc<Image>) -> Result<Executable, EelError> {
        image.validate()?;
        Ok(Executable {
            image,
            routines: Vec::new(),
            analyzed: false,
            discovery: DiscoverySource::Symbols,
            hidden_queue: Vec::new(),
            slots: Vec::new(),
            runtime_routines: Vec::new(),
            reserved_len: 0,
            reserved_init: Vec::new(),
            written: Written::No,
            dirty: false,
            shapes: ShapeCells::none(),
            keys: Vec::new(),
        })
    }

    /// Opens an executable file.
    ///
    /// # Errors
    ///
    /// Propagates I/O, parse, and validation failures.
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> Result<Executable, EelError> {
        Executable::from_image(Image::read_file(path)?)
    }

    /// The underlying image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The original program entry point.
    pub fn start_address(&self) -> u32 {
        self.image.entry
    }

    /// Opens an executable whose contents were already read: the routine
    /// set comes from a shared, immutable [`Analysis`] and the image is
    /// reference-counted, so nothing is re-parsed or re-discovered. This
    /// is how concurrent eel-serve requests get their own editable
    /// `Executable` from one cached analysis.
    pub fn from_analysis(analysis: &Analysis) -> Executable {
        let mut exec = Executable::from_shared_image(Arc::clone(analysis.image()))
            .expect("Analysis holds a validated image");
        exec.routines = analysis.routines().to_vec();
        exec.hidden_queue = analysis.hidden_queue().to_vec();
        exec.discovery = analysis.discovery();
        exec.analyzed = true;
        exec.shapes = Arc::clone(analysis.shape_cells());
        exec.keys = analysis.routine_keys().iter().copied().map(Some).collect();
        exec
    }

    /// Reads and refines the program's contents (§3.1's staged analysis),
    /// establishing the routine set.
    ///
    /// Idempotent: repeated calls (the server's hot path re-entering the
    /// driver loop) return immediately without re-scanning the text
    /// segment or re-running the refinement stages. To share the result
    /// across `Executable`s, compute an [`Analysis`] once and construct
    /// with [`Executable::from_analysis`].
    ///
    /// # Errors
    ///
    /// [`EelError::BadImage`] for structurally impossible inputs.
    pub fn read_contents(&mut self) -> Result<(), EelError> {
        if self.analyzed {
            return Ok(());
        }
        let _obs = eel_obs::span("core.read_contents");
        let discovery = discover_routines(&self.image)?;
        self.routines = discovery.routines;
        self.hidden_queue = discovery.hidden;
        self.discovery = discovery.source;
        self.shapes = ShapeCells::new(self.routines.len());
        self.analyzed = true;
        Ok(())
    }

    /// Where the routine set came from — meaningful after
    /// [`Executable::read_contents`].
    pub fn discovery_source(&self) -> DiscoverySource {
        self.discovery
    }

    /// Ids of the routines known from the symbol table (the paper's
    /// `exec->routines()`); hidden routines arrive via
    /// [`Executable::pop_hidden`].
    pub fn routine_ids(&self) -> Vec<RoutineId> {
        self.routines
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.hidden)
            .map(|(i, _)| RoutineId(i))
            .collect()
    }
}

/// Where an analysis' routine set came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoverySource {
    /// §3.1's symbol-table refinement (the image had routine symbols).
    Symbols,
    /// `eel-strip`'s inference rules (the symbol table was empty).
    Inferred,
}

impl DiscoverySource {
    /// The lowercase spelling used in reports and on the wire
    /// (`discovery: inferred`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiscoverySource::Symbols => "symbols",
            DiscoverySource::Inferred => "inferred",
        }
    }
}

/// The outcome of §3.1's routine discovery: the refined routine set plus
/// the queue of hidden routines awaiting the Figure 1 drain loop.
pub(crate) struct Discovery {
    pub(crate) routines: Vec<Routine>,
    pub(crate) hidden: Vec<RoutineId>,
    pub(crate) source: DiscoverySource,
}

/// Bridges `eel-strip`'s inference to the §3.3 jump-table slicer: the
/// sweep hands each reached indirect jump to [`resolve_indirect`], and
/// resolved dispatch targets re-enter the sweep. eel-strip stays
/// machine-independent of eel-core this way (a callback, not a
/// dependency).
fn infer_stripped(image: &Image) -> eel_strip::InferredDiscovery {
    use crate::analysis::jumptable::{resolve_indirect, JumpResolution};
    let mut resolver = |extent: (u32, u32), addr: u32, insn: Insn| {
        let mut external_reads = false;
        match resolve_indirect(image, extent, addr, insn, &mut external_reads) {
            JumpResolution::Table {
                table_addr,
                targets,
                ..
            } => eel_strip::ResolvedDispatch {
                table: Some((table_addr, table_addr + 4 * targets.len() as u32)),
                targets,
            },
            JumpResolution::Literal { target, .. } => eel_strip::ResolvedDispatch {
                table: None,
                targets: vec![target],
            },
            JumpResolution::Unknown => eel_strip::ResolvedDispatch::default(),
        }
    };
    eel_strip::infer(image, &mut resolver)
}

/// §3.1's staged symbol-table refinement as a pure function of the image:
/// the shared implementation behind [`Executable::read_contents`] and
/// [`Analysis::compute`]. When the symbol table yields no routine labels,
/// stage 2 runs `eel-strip`'s inference.
pub(crate) fn discover_routines(image: &Image) -> Result<Discovery, EelError> {
    let text = (image.text_addr, image.text_end());
    let ops = crate::machine::backend(image.machine)?;

    // Pre-scan: classify every text word once through the machine seam;
    // collect direct-call targets and branch targets (with their
    // sources; always-taken branches included, so SPARC `ba` and MIPS
    // `j` both count as intra-routine flow, and SPARC `bn`, an elaborate
    // nop, excluded, as the pre-seam pipeline had it).
    let mut call_targets: Vec<u32> = Vec::new();
    let mut branch_edges: Vec<(u32, u32)> = Vec::new(); // (src, target)
    for (addr, word) in image.text_words() {
        match ops.flow(word, addr) {
            Flow::Call { target: Some(t) } if t >= text.0 && t < text.1 && t % 4 == 0 => {
                call_targets.push(t);
            }
            Flow::Branch {
                target: t, cond, ..
            } if cond != BranchCond::Never && t >= text.0 && t < text.1 => {
                branch_edges.push((addr, t));
            }
            _ => {}
        }
    }

    // Stage 1: clean the symbol table's candidate labels.
    let mut candidates: BTreeMap<u32, Option<String>> = BTreeMap::new();
    if !image.is_stripped() {
        let mut raw: Vec<&Symbol> = image
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Routine && s.value >= text.0 && s.value < text.1)
            .collect();
        raw.sort_by_key(|s| s.value);
        // Misaligned labels are dropped; duplicates keep the first name.
        raw.retain(|s| s.value % 4 == 0);
        // Drop labels that are branch targets from the region since the
        // previous surviving candidate (probably internal labels, §3.1).
        let mut branch_targets: HashMap<u32, Vec<u32>> = HashMap::new();
        for (src, t) in &branch_edges {
            branch_targets.entry(*t).or_default().push(*src);
        }
        let mut prev_start = text.0;
        for s in raw {
            let internal = branch_targets
                .get(&s.value)
                .map(|srcs| srcs.iter().any(|&src| src >= prev_start && src < s.value))
                .unwrap_or(false);
            if internal {
                continue;
            }
            candidates
                .entry(s.value)
                .or_insert_with(|| Some(s.name.clone()));
            prev_start = s.value;
        }
    }

    // Stage 2: a stripped executable has no labels to refine, so the
    // routine set comes from inference — eel-strip's speculative sweep
    // and rule fixpoint (entry point, call targets, prologue matches,
    // dispatch-table feedback, data-pointer promotion).
    let source = if candidates.is_empty() {
        if image.machine == eel_exe::Machine::Sparc {
            let inferred = infer_stripped(image);
            for s in &inferred.starts {
                candidates.entry(s.addr).or_insert(None);
            }
        } else {
            // Non-SPARC stripped images: seed from the machine's prologue
            // signature (eel-strip's rule 3 through the seam; the full
            // sweep-and-fixpoint is SPARC-only today). Call targets join
            // in stage 3.
            let mut addr = text.0;
            while addr < text.1 {
                if ops.is_prologue(image, addr) {
                    candidates.entry(addr).or_insert(None);
                }
                addr += 4;
            }
        }
        candidates.insert(image.entry, None);
        candidates.entry(text.0).or_insert(None);
        DiscoverySource::Inferred
    } else {
        DiscoverySource::Symbols
    };
    // The program's entry point is always a routine.
    candidates.entry(image.entry).or_insert(None);

    // Stage 3: call targets not in the set become (hidden) routines.
    for &t in &call_targets {
        candidates.entry(t).or_insert(None);
    }

    // Materialize routines in address order; extent = next start.
    let mut routines: Vec<Routine> = Vec::new();
    let mut hidden_queue: Vec<RoutineId> = Vec::new();
    let starts: Vec<(u32, Option<String>)> = candidates.into_iter().collect();
    for (i, (start, name)) in starts.iter().enumerate() {
        let end = starts.get(i + 1).map(|(s, _)| *s).unwrap_or(text.1);
        if end <= *start {
            continue;
        }
        let hidden = name.is_none() && !image.is_stripped();
        let id = RoutineId(routines.len());
        routines.push(Routine {
            name: name.clone(),
            start: *start,
            end,
            entries: vec![*start],
            hidden,
            inferred: source == DiscoverySource::Inferred && name.is_none(),
        });
        if hidden {
            hidden_queue.push(id);
        }
    }
    if routines.is_empty() {
        return Err(EelError::BadImage(
            "no routines found in text segment".into(),
        ));
    }
    Ok(Discovery {
        routines,
        hidden: hidden_queue,
        source,
    })
}

impl Executable {
    /// Guard for the paths still implemented directly on `eel-isa`:
    /// layout and relayout, which read SPARC decodings of the CFG's
    /// instructions. Analyses (CFGs, liveness) go through the
    /// [`crate::machine_ops`] seam for every machine.
    fn require_sparc(&self, what: &str) -> Result<(), EelError> {
        if self.image.machine == eel_exe::Machine::Sparc {
            Ok(())
        } else {
            Err(EelError::BadImage(format!(
                "{what} is sparc-only; a {} image is instrumented by \
                 eel_core::instrument_block_counters",
                self.image.machine
            )))
        }
    }

    /// Ids of every routine currently known (named and hidden).
    pub fn all_routine_ids(&self) -> Vec<RoutineId> {
        (0..self.routines.len()).map(RoutineId).collect()
    }

    /// Pops the next discovered-but-unprocessed hidden routine (the
    /// paper's `exec->hidden_routines()` drain loop, Figure 1).
    pub fn pop_hidden(&mut self) -> Option<RoutineId> {
        self.hidden_queue.pop()
    }

    /// The routine for an id.
    ///
    /// # Panics
    ///
    /// Panics on a stale id from a different executable.
    pub fn routine(&self, id: RoutineId) -> &Routine {
        &self.routines[id.0]
    }

    /// All routines, in discovery order.
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// The routine containing an address.
    pub fn routine_containing(&self, addr: u32) -> Option<RoutineId> {
        self.routines
            .iter()
            .position(|r| r.contains(addr))
            .map(RoutineId)
    }

    /// The routine's delay-slot-normalized CFG. Every executable keeps
    /// one shape cell per discovered routine (shared with the
    /// [`Analysis`] it was opened from, if any): when the routine's cell
    /// holds a shape built from the same routine snapshot, that shape is
    /// shared and the §3.1 side effects its build performed are
    /// replayed; otherwise the routine is built live, and the live build
    /// fills an empty cell. The cell's lock makes the fill single-flight:
    /// a concurrent caller waits for the shape instead of building it
    /// again. Routines split off since discovery build live outside the
    /// cells.
    ///
    /// Side effects reproduce §3.1's late stages: a trailing unreachable
    /// region splits off as a new hidden routine (stage 4), and
    /// interprocedural targets register as entry points of the routines
    /// containing them (stage 3).
    ///
    /// # Errors
    ///
    /// [`EelError::NotAnalyzed`] before [`Executable::read_contents`];
    /// [`EelError::DelaySlotTransfer`] for the documented unsupported
    /// shape.
    pub fn build_cfg(&mut self, id: RoutineId) -> Result<Cfg, EelError> {
        if !self.analyzed {
            return Err(EelError::NotAnalyzed);
        }
        let r = self.routines.get(id.0).ok_or(EelError::BadRoutine(id.0))?;
        let cells = Arc::clone(&self.shapes);
        let Some(cell) = cells.cell(id.0) else {
            return self.build_live(id);
        };
        let mut slot = shared::lock(cell);
        if let Some(shape) = slot.shape.as_ref() {
            if shape.extent().0 != r.start || shape.snapshot() != (r.end, r.entries.as_slice()) {
                // Built from another routine snapshot: no sharing.
                drop(slot);
                let cfg = self.build_live(id)?;
                cells.built(None);
                return Ok(cfg);
            }
            let shape = Arc::clone(shape);
            drop(slot);
            // Splits first, as the live build performed them before its
            // final round of registrations.
            for &t in shape.splits() {
                self.split_trailing(id, t);
            }
            self.register_entries(shape.escapes());
            return Ok(Cfg::new(id, shape));
        }
        let cfg = self.build_live(id)?;
        slot.shape = Some(Arc::clone(cfg.shape()));
        cells.built(Some(cfg.shape()));
        Ok(cfg)
    }

    /// The live build behind [`Executable::build_cfg`], into a shape of
    /// its own, performing the §3.1 side effects it records.
    fn build_live(&mut self, id: RoutineId) -> Result<Cfg, EelError> {
        let _obs = eel_obs::span("core.build_cfg");
        let r = &self.routines[id.0];
        let mut effects = BuildEffects {
            snapshot_end: r.end,
            snapshot_entries: r.entries.clone(),
            ..BuildEffects::default()
        };
        loop {
            let r = &self.routines[id.0];
            let extent = (r.start, r.end);
            let out = cfg_build(&self.image, extent, &r.entries)?;
            effects.external_reads |= out.external_reads;
            effects.escapes.extend_from_slice(&out.escape_targets);
            self.register_entries(&out.escape_targets);
            if let Some(t) = out.trailing_unreachable {
                if self.split_trailing(id, t) {
                    effects.splits.push(t);
                    // Rebuild with the shrunk extent so the CFG and the
                    // later layout agree.
                    continue;
                }
            }
            eel_obs::counter!("core.cfg.blocks").add(out.draft.block_addr.len() as u64);
            eel_obs::counter!("core.cfg.edges").add(out.draft.from.len() as u64);
            effects.escapes.sort_unstable();
            effects.escapes.dedup();
            let shape = out.draft.finish(&self.image, extent, effects);
            return Ok(Cfg::new(id, Arc::new(shape)));
        }
    }

    /// §3.1 stage 3: each interprocedural target becomes an entry point
    /// of the routine containing it.
    fn register_entries(&mut self, targets: &[u32]) {
        for &t in targets {
            if let Some(cid) = self.routine_containing(t) {
                let cr = &mut self.routines[cid.0];
                if !cr.entries.contains(&t) {
                    cr.entries.push(t);
                    cr.entries.sort_unstable();
                    self.forget_key(cid);
                }
            }
        }
    }

    /// §3.1 stage 4: unreachable code from `t` to the end of routine
    /// `id` becomes a new hidden routine, and `id` shrinks to end at
    /// `t`. Returns whether the split happened (`t` must lie strictly
    /// inside the routine).
    fn split_trailing(&mut self, id: RoutineId, t: u32) -> bool {
        let r = &self.routines[id.0];
        if t <= r.start || t >= r.end || self.routine_containing(t) != Some(id) {
            return false;
        }
        let (end, inferred) = (r.end, r.inferred);
        self.forget_key(id);
        self.routines[id.0].end = t;
        self.routines[id.0].entries.retain(|&e| e < t);
        self.hidden_queue.push(RoutineId(self.routines.len()));
        self.routines.push(Routine {
            name: None,
            start: t,
            end,
            entries: vec![t],
            hidden: true,
            inferred,
        });
        true
    }

    /// Routine `id` changed since discovery: its analysis key is stale.
    fn forget_key(&mut self, id: RoutineId) {
        if let Some(key) = self.keys.get_mut(id.0) {
            *key = None;
        }
    }

    /// Routine `id`'s content key: the analysis' when the routine is
    /// unchanged since discovery, hashed otherwise.
    fn routine_key(&self, id: RoutineId) -> u64 {
        let known = self.keys.get(id.0).copied().flatten();
        known.unwrap_or_else(|| fragment::routine_key(&self.image, &self.routines[id.0]))
    }

    /// Builds the CFG of **every** currently known routine and returns
    /// `(routine snapshot, CFG)` pairs **in routine order**: the batch of
    /// [`Executable::build_all_cfgs_probed`] without a fragment source.
    ///
    /// `_threads` is ignored; it stays until the benchmark, which passes
    /// it, drops it.
    ///
    /// # Errors
    ///
    /// As [`Executable::build_all_cfgs_probed`].
    pub fn build_all_cfgs(&mut self, _threads: usize) -> Result<Vec<(Routine, Cfg)>, EelError> {
        let mut out = Vec::new();
        self.build_all_cfgs_probed(None, |_, item| {
            if let CfgOutcome::Built(cfg) = item.outcome {
                out.push((item.routine, cfg));
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// Builds the CFG of every currently known routine in routine order
    /// with [`Executable::build_cfg`], consulting a per-routine fragment
    /// source first when one is given, and hands each routine to `each`
    /// in routine order. Without a fragment source, every routine is
    /// [`CfgOutcome::Built`] and no routine's content key is hashed.
    ///
    /// Consecutive builds are handed over together once the run of them
    /// ends, which keeps first the builder's code and then the caller's
    /// hot in the instruction cache.
    ///
    /// A fragment source is a `load` and a `payload_ok` check. For each
    /// routine, `load` returns the fragment bytes stored under its
    /// content key ([`crate::routine_key`]); each key is loaded at most
    /// once per batch. A fragment is a hit only when it decodes,
    /// `payload_ok` accepts the op payload it carries, and it was
    /// rendered at the routine's current start. A hit is handed to `each`
    /// as a [`CfgOutcome::Hit`] carrying the payload once every earlier
    /// routine was handed over, and before anything happens to it or to
    /// a later routine. When `each` takes it (returns
    /// `true`), the build is skipped and its recorded §3.1 side effects —
    /// stage-4 trailing splits, then stage-3 entry registrations — are
    /// *replayed*, so later routines and the eventual layout see exactly
    /// the routine table the build would have produced. When `each`
    /// declines it (returns `false`: the payload does not fit this
    /// program), the routine is built where a batch without the fragment
    /// builds it, and handed to `each` again. A build carries the
    /// [`Replay`] record its fragment is stored with when it is clean and
    /// was not a declined hit, whose stored fragment stays valid. What
    /// `each` returns for a build is ignored. The composed result is
    /// therefore byte-identical to building every routine.
    ///
    /// Each item's [`Routine`] is a snapshot taken after all *earlier*
    /// routines' side effects but before this routine's own build.
    ///
    /// # Errors
    ///
    /// As [`Executable::build_cfg`]; the first failing routine in
    /// routine order wins. An error from `each` stops the batch and is
    /// returned.
    pub fn build_all_cfgs_probed(
        &mut self,
        fragments: Option<FragmentSource<'_>>,
        mut each: impl FnMut(&mut Executable, CfgBatchItem) -> Result<bool, EelError>,
    ) -> Result<(), EelError> {
        if !self.analyzed {
            return Err(EelError::NotAnalyzed);
        }
        let mut probe = fragments.map(|(load, payload_ok)| Probe {
            load,
            payload_ok,
            loaded: HashMap::new(),
        });
        let mut built = Vec::new();
        for id in self.all_routine_ids() {
            let routine = self.routines[id.0].clone();
            let key = probe.is_some().then(|| self.routine_key(id));
            let hit = probe
                .as_mut()
                .zip(key)
                .and_then(|(p, key)| p.hit(&routine, key));
            if let Some((meta, payload)) = hit {
                for item in built.drain(..) {
                    each(self, item)?;
                }
                let item = CfgBatchItem {
                    id,
                    routine: routine.clone(),
                    key,
                    outcome: CfgOutcome::Hit(payload.clone()),
                    replay: None,
                };
                if each(self, item)? {
                    // Same bytes, same relative entries, same absolute
                    // start ⇒ the skipped build would have performed
                    // exactly the recorded side effects. Splits replay
                    // first, since a registration may target a split-off
                    // region.
                    for &t in &meta.splits {
                        self.split_trailing(id, t);
                    }
                    self.register_entries(&meta.escapes);
                    continue;
                }
            }
            let declined = hit.is_some();
            let cfg = self.build_cfg(id)?;
            let replay = key
                .filter(|_| !declined)
                .and_then(|_| replay_meta(cfg.shape()))
                .map(Replay);
            let item = CfgBatchItem {
                id,
                routine,
                key,
                outcome: CfgOutcome::Built(cfg),
                replay,
            };
            built.push(item);
        }
        for item in built {
            each(self, item)?;
        }
        Ok(())
    }

    /// Serializes the installed layout of a routine (its instrumentation
    /// plan) for fragment storage. `None` when no layout is installed or
    /// when it cannot round-trip (a snippet carries a placement
    /// call-back).
    pub fn serialize_layout(&self, id: RoutineId) -> Option<Vec<u8>> {
        let routine = self.routines.get(id.0)?;
        let Some(Slot::Laid(layout)) = self.slots.get(id.0) else {
            return None;
        };
        fragment::encode_layout(layout, &self.image, (routine.start, routine.end))
    }

    /// Installs a layout serialized by [`Executable::serialize_layout`]
    /// (necessarily from an identical routine in a near-duplicate image),
    /// skipping CFG construction, liveness, and snippet materialization.
    ///
    /// # Errors
    ///
    /// [`EelError::Internal`] when the bytes do not decode; the caller
    /// falls back to the live path.
    pub fn install_serialized_layout(
        &mut self,
        id: RoutineId,
        bytes: &[u8],
    ) -> Result<(), EelError> {
        let layout = fragment::decode_layout(bytes, &self.image)
            .ok_or_else(|| EelError::Internal("corrupt serialized layout".into()))?;
        self.install(id, layout);
        Ok(())
    }

    /// Installs a routine's layout; a removed routine stays removed. A
    /// layout that needs run-time translation is observable even with
    /// zero edits: installing it commits the rewrite to carry the
    /// translator, so the clean fast path must not skip it.
    fn install(&mut self, id: RoutineId, layout: RoutineLayout) {
        if layout.needs_translator {
            self.dirty = true;
        }
        let slot = self.slot_mut(id);
        if !matches!(slot, Slot::Removed) {
            *slot = Slot::Laid(layout);
        }
    }

    /// The routine's slot; routines discovered since the last install
    /// start out pending.
    fn slot_mut(&mut self, id: RoutineId) -> &mut Slot {
        if self.slots.len() <= id.0 {
            self.slots.resize_with(id.0 + 1, || Slot::Pending);
        }
        &mut self.slots[id.0]
    }

    /// The liveness of `cfg`'s shape. A shape held in its routine's cell
    /// keeps its liveness next to it, solved by the first caller of any
    /// executable sharing the cells (all those opened from one
    /// [`Analysis`]); any other shape's is solved on each call.
    pub fn liveness(&self, cfg: &Cfg) -> LiveIn {
        self.shapes.live_in(cfg)
    }

    /// The content key ([`crate::routine_key`]) of every currently known
    /// routine, in discovery order.
    pub fn routine_keys(&self) -> Vec<u64> {
        let ids = 0..self.routines.len();
        ids.map(|i| self.routine_key(RoutineId(i))).collect()
    }

    /// Installs a routine's (possibly edited) CFG, producing its edited
    /// layout (the paper's `produce_edited_routine`).
    ///
    /// # Errors
    ///
    /// Layout failures: register pressure, translation clashes, bad edit
    /// targets.
    pub fn install_edits(&mut self, cfg: Cfg) -> Result<(), EelError> {
        self.require_sparc("install_edits")?;
        let id = cfg.routine_id();
        if cfg.edit_count() > 0 {
            self.dirty = true;
        }
        let layout = lay_out_routine(&self.image, cfg, &|cfg| self.liveness(cfg))?;
        self.install(id, layout);
        Ok(())
    }

    /// Reserves zero-initialized space in the edited executable's data
    /// segment (counter arrays, tool state) and returns its address.
    pub fn reserve_data(&mut self, bytes: u32) -> u32 {
        if bytes > 0 {
            self.dirty = true;
        }
        let base = self.image.data_end() + self.reserved_len;
        self.reserved_len += bytes.next_multiple_of(8);
        base
    }

    /// Reserves initialized data; `bytes` are copied into the edited
    /// executable.
    pub fn reserve_data_init(&mut self, bytes: &[u8]) -> u32 {
        let addr = self.reserve_data(bytes.len() as u32);
        let off = addr - self.image.data_end();
        self.reserved_init.push((off, bytes.to_vec()));
        addr
    }

    /// Adds a run-time routine (assembly fragment) to the edited
    /// executable. Snippets may call it via [`crate::Snippet::with_call`];
    /// Active Memory's handlers and Elsie's simulator calls use this to
    /// add "another program" to the executable (§5).
    pub fn add_runtime_routine(&mut self, name: &str, asm: &str) {
        self.dirty = true;
        self.runtime_routines
            .push((name.to_string(), asm.to_string()));
    }

    /// Marks a routine for removal: [`Executable::write_edited`] omits
    /// its code entirely (§1's *optimization* use of executable editing —
    /// whole-program dead-code elimination that per-file compilers cannot
    /// do). The caller is responsible for unreachability; prefer
    /// [`crate::CallGraph`]-driven tools (`eel-tools`) which refuse when
    /// unknown indirect call sites exist.
    ///
    /// # Errors
    ///
    /// [`EelError::BadRoutine`] for stale ids;
    /// [`EelError::BadEditTarget`] when the routine holds the program's
    /// entry point.
    pub fn remove_routine(&mut self, id: RoutineId) -> Result<(), EelError> {
        let r = self.routines.get(id.0).ok_or(EelError::BadRoutine(id.0))?;
        if r.contains(self.image.entry) {
            return Err(EelError::BadEditTarget(
                "cannot remove the routine containing the entry point".into(),
            ));
        }
        self.dirty = true;
        *self.slot_mut(id) = Slot::Removed;
        Ok(())
    }

    /// The edited address corresponding to an original address (valid
    /// after [`Executable::write_edited`]).
    pub fn edited_addr(&self, orig: u32) -> Option<u32> {
        match &self.written {
            Written::No => None,
            Written::Unchanged => {
                (self.image.in_text(orig) && orig.is_multiple_of(4)).then_some(orig)
            }
            Written::Relaid(map) => map.get(orig),
        }
    }

    /// Produces the edited executable: routines not explicitly edited are
    /// laid out pass-through from their [`Executable::build_cfg`] CFGs,
    /// every displacement and dispatch table is adjusted, and run-time
    /// support is appended.
    ///
    /// # Errors
    ///
    /// Any analysis or layout failure; also if called twice.
    pub fn write_edited(&mut self) -> Result<Image, EelError> {
        let _obs = eel_obs::span("core.write_edited");
        if !matches!(self.written, Written::No) {
            return Err(EelError::Internal(
                "write_edited may only be called once".into(),
            ));
        }
        if !self.analyzed {
            return Err(EelError::NotAnalyzed);
        }
        self.require_sparc("write_edited")?;
        if !self.dirty {
            // Nothing observable was edited: reproduce the input image byte
            // for byte rather than re-laying the program out (which would
            // materialise bss into data and rebuild the symbol table).
            self.written = Written::Unchanged;
            return Ok((*self.image).clone());
        }
        // The edited image carries bss as initialized data (reservations
        // follow it), so a hostile header's multi-gigabyte bss would
        // become a multi-gigabyte allocation.
        if self.image.bss_size > MAX_MATERIALIZED_BSS {
            return Err(EelError::LayoutOverflow(format!(
                "bss of {} bytes exceeds the {MAX_MATERIALIZED_BSS}-byte limit for materializing it",
                self.image.bss_size
            )));
        }
        // Lay out every remaining routine (building a CFG may discover
        // more, appended to the list).
        let mut i = 0;
        while i < self.routines.len() {
            if matches!(self.slots.get(i), None | Some(Slot::Pending)) {
                let cfg = self.build_cfg(RoutineId(i))?;
                self.install_edits(cfg)?;
            }
            i += 1;
        }
        let mut layouts: Vec<(usize, RoutineLayout)> = std::mem::take(&mut self.slots)
            .into_iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Laid(layout) => Some((i, layout)),
                _ => None,
            })
            .collect();
        layouts.sort_by_key(|(i, _)| self.routines[*i].start);

        // The translation table holds the FULL original→edited map: any
        // original text address can live in a register or data word and
        // reach an unanalyzable transfer, so entries-only tables miss
        // function pointers in stripped binaries. Its address goes into
        // the translator's code; its size is known once the map is.
        let xlate_table = layouts
            .iter()
            .any(|(_, l)| l.needs_translator)
            .then(|| self.image.data_end() + self.reserved_len);
        let mut runtime: Vec<(String, String)> = Vec::new();
        if let Some(t) = xlate_table {
            runtime.push((TRANSLATOR.to_string(), translator_asm(t)));
        }
        runtime.extend(self.runtime_routines.iter().cloned());

        // ---- pass 1: sizes and addresses ----------------------------------
        // Each layout's label addresses, and the original → edited map
        // (first occurrence wins), in one walk.
        let text_base = self.image.text_addr;
        let mut map = AddrMap {
            text_addr: text_base,
            edited: vec![UNMAPPED; self.image.text.len() / 4],
        };
        let mut labels: Vec<Vec<u32>> = Vec::with_capacity(layouts.len());
        let mut addr = text_base;
        for (_, layout) in &layouts {
            // Labels are numbered from 0, fewer than the items.
            let mut label_addr = vec![UNMAPPED; layout.items.len()];
            for item in &layout.items {
                match (item, item.orig()) {
                    (Item::Label(l), _) => {
                        if let Some(a) = label_addr.get_mut(*l) {
                            *a = addr;
                        }
                    }
                    (_, Some(orig)) => map.bind(orig, addr),
                    _ => {}
                }
                addr += item.size(&layout.snippets);
            }
            labels.push(label_addr);
        }
        // Runtime routines: size by assembling at base 0 (set-shape is
        // stable), then place.
        let assemble = |name: &str, src: &str, base: u32| {
            eel_asm::assemble_fragment(src, base)
                .map_err(|e| EelError::Internal(format!("runtime routine {name}: {e}")))
        };
        let mut runtime_addr: Vec<u32> = Vec::with_capacity(runtime.len());
        for (name, src) in &runtime {
            runtime_addr.push(addr);
            addr += 4 * assemble(name, src, 0)?.len() as u32;
        }
        let runtime_code = runtime
            .iter()
            .zip(&runtime_addr)
            .map(|((name, src), &base)| assemble(name, src, base))
            .collect::<Result<Vec<_>, _>>()?;
        let text_end = addr;
        if text_end > self.image.data_addr && self.image.data_addr > text_base {
            return Err(EelError::LayoutOverflow(format!(
                "edited text ({} bytes) would overlap the data segment",
                text_end - text_base
            )));
        }
        // A later routine of the same name shadows an earlier one.
        let runtime_at = |name: &str| {
            let k = runtime.iter().rposition(|(n, _)| n == name)?;
            Some(runtime_addr[k])
        };

        // ---- pass 2: resolve and encode ------------------------------------
        let resolve = |tgt: &Tgt, labels: &[u32]| -> Result<u32, EelError> {
            match tgt {
                Tgt::Local(l) => labels
                    .get(*l)
                    .copied()
                    .filter(|&a| a != UNMAPPED)
                    .ok_or_else(|| EelError::Internal(format!("unbound label {l}"))),
                Tgt::Orig(a) => map.get(*a).ok_or(EelError::BadAddress {
                    addr: *a,
                    expected: "a mapped original address",
                }),
                Tgt::Runtime(name) => runtime_at(name)
                    .ok_or_else(|| EelError::Internal(format!("unknown runtime routine {name}"))),
            }
        };

        let mut text = Vec::with_capacity((text_end - text_base) as usize);
        let push_word = |text: &mut Vec<u8>, w: u32| text.extend_from_slice(&w.to_be_bytes());
        let mut here = text_base;
        for ((_, layout), labels) in layouts.iter_mut().zip(&labels) {
            let RoutineLayout {
                items,
                snippets,
                snippet_store,
                ..
            } = layout;
            for item in items.iter() {
                match item {
                    Item::Label(_) | Item::MapOrig(_) => {}
                    Item::Orig { word, .. } => push_word(&mut text, *word),
                    Item::New(insn) => push_word(&mut text, insn.word),
                    Item::RawWord { word, .. } => push_word(&mut text, *word),
                    Item::BranchTo {
                        cond,
                        annul,
                        target,
                        ..
                    } => {
                        let t = resolve(target, labels)?;
                        let disp = branch_disp(here, t)?;
                        push_word(
                            &mut text,
                            eel_isa::encode(&Op::Branch {
                                cond: *cond,
                                annul: *annul,
                                disp22: disp,
                                fp: false,
                            }),
                        );
                    }
                    Item::CallTo { target, .. } => {
                        let t = resolve(target, labels)?;
                        let disp = (t.wrapping_sub(here) as i32) >> 2;
                        push_word(&mut text, eel_isa::encode(&Op::Call { disp30: disp }));
                    }
                    Item::SethiHiOf { rd, target, .. } => {
                        let t = resolve(target, labels)?;
                        push_word(&mut text, Builder::sethi_hi(*rd, t).word);
                    }
                    Item::OrLoOf {
                        rd, rs1, target, ..
                    } => {
                        let t = resolve(target, labels)?;
                        push_word(&mut text, Builder::or_lo(*rd, *rs1, t).word);
                    }
                    Item::TableWord { target, .. } => {
                        let t = resolve(target, labels)?;
                        push_word(&mut text, t);
                    }
                    Item::SnippetRef(si) => {
                        // Patch runtime calls, then run the call-back
                        // (which may modify but not resize).
                        let p = &snippets[*si];
                        let mut insns = p.insns.clone();
                        for (idx, name) in &p.calls {
                            let t = resolve(&Tgt::Runtime(name.clone()), labels)?;
                            let site = here + 4 * *idx as u32;
                            let disp = (t.wrapping_sub(site) as i32) >> 2;
                            insns[*idx] =
                                Insn::from_word(eel_isa::encode(&Op::Call { disp30: disp }));
                        }
                        snippet_store[p.source].run_callback(&mut insns, here, &p.assignment);
                        for i in &insns {
                            push_word(&mut text, i.word);
                        }
                    }
                }
                here += item.size(snippets);
            }
        }
        for code in &runtime_code {
            for i in code {
                push_word(&mut text, i.word);
            }
        }
        debug_assert_eq!(text.len() as u32, text_end - text_base);

        // ---- data segment ---------------------------------------------------
        if xlate_table.is_some() {
            let count = map.pairs().count() as u32;
            self.reserve_data(4 + 8 * count);
        }
        let mut data = self.image.data.clone();
        data.extend(std::iter::repeat_n(0, self.image.bss_size as usize));
        let reserved_base = data.len();
        data.extend(std::iter::repeat_n(0, self.reserved_len as usize));
        for (off, bytes) in &self.reserved_init {
            let at = reserved_base + *off as usize;
            data[at..at + bytes.len()].copy_from_slice(bytes);
        }
        if let Some(taddr) = xlate_table {
            let off = (taddr - self.image.data_addr) as usize;
            let mut at = off + 4;
            for (old, new) in map.pairs() {
                data[at..at + 4].copy_from_slice(&old.to_be_bytes());
                data[at + 4..at + 8].copy_from_slice(&new.to_be_bytes());
                at += 8;
            }
            let count = ((at - off - 4) / 8) as u32;
            data[off..off + 4].copy_from_slice(&count.to_be_bytes());
        }

        // ---- symbols (EEL maintains them for the edited program, §3.1) ----
        let mut symbols: Vec<Symbol> = Vec::new();
        for r in &self.routines {
            if let Some(new) = map.get(r.start) {
                let mut s = Symbol::routine(&r.name(), new);
                s.global = !r.hidden;
                symbols.push(s);
            }
        }
        for (k, (name, _)) in runtime.iter().enumerate() {
            if runtime[k + 1..].iter().all(|(n, _)| n != name) {
                symbols.push(Symbol::routine(name, runtime_addr[k]));
            }
        }
        for s in &self.image.symbols {
            if self.image.in_data(s.value) {
                symbols.push(s.clone());
            }
        }
        if let Some(t) = xlate_table {
            symbols.push(Symbol::object("__eel_xlate_table", t, 0));
        }

        let entry = map.get(self.image.entry).ok_or(EelError::BadAddress {
            addr: self.image.entry,
            expected: "a mapped entry point",
        })?;

        let edited = Image {
            entry,
            text_addr: text_base,
            text,
            data_addr: self.image.data_addr,
            data,
            bss_size: 0,
            symbols,
            machine: self.image.machine,
        };
        edited.validate()?;
        self.written = Written::Relaid(map);
        Ok(edited)
    }
}

/// The fragment meta recording a shape's §3.1 side effects for a hit to
/// replay — present only for a clean build, one that read no words
/// outside its extent, content the routine's key does not hash.
fn replay_meta(shape: &CfgShape) -> Option<FragmentMeta> {
    (!shape.external_reads()).then(|| FragmentMeta {
        start: shape.extent().0,
        escapes: shape.escapes().to_vec(),
        splits: shape.splits().to_vec(),
    })
}

fn branch_disp(here: u32, target: u32) -> Result<i32, EelError> {
    let disp = (target.wrapping_sub(here) as i32) >> 2;
    if !(-(1 << 21)..(1 << 21)).contains(&disp) {
        return Err(EelError::LayoutOverflow(format!(
            "branch from {here:#x} to {target:#x} exceeds 22-bit displacement"
        )));
    }
    Ok(disp)
}

/// The run-time address translator: binary-searches the full
/// original→edited address table, mapping `%g6` in place. `%g7` is the
/// call linkage; everything else (including the condition codes, via
/// `%psr`) is preserved using scratch slots below `%sp`.
fn translator_asm(table_addr: u32) -> String {
    format!(
        r#"
__eel_translate:
    st %o0, [%sp - 56]
    st %o1, [%sp - 64]
    st %o2, [%sp - 72]
    st %o3, [%sp - 80]
    st %o4, [%sp - 88]
    st %o5, [%sp - 96]
    rd %psr, %o5
    set {table_addr}, %o0
    ld [%o0], %o1        ! hi = n
    add %o0, 4, %o0      ! pair base
    mov 0, %o2           ! lo
xl_loop:
    cmp %o2, %o1
    bgeu xl_miss
    nop
    add %o2, %o1, %o3
    srl %o3, 1, %o3      ! mid
    sll %o3, 3, %o4
    add %o0, %o4, %o4
    ld [%o4], %o4        ! old[mid]
    cmp %o4, %g6
    be xl_hit
    nop
    bgu xl_upper
    nop
    ba xl_loop
    add %o3, 1, %o2      ! lo = mid + 1
xl_upper:
    ba xl_loop
    mov %o3, %o1         ! hi = mid
xl_hit:
    sll %o3, 3, %o4
    add %o0, %o4, %o4
    ld [%o4 + 4], %g6
    wr %o5, %g0, %psr
    ld [%sp - 56], %o0
    ld [%sp - 64], %o1
    ld [%sp - 72], %o2
    ld [%sp - 80], %o3
    ld [%sp - 88], %o4
    ld [%sp - 96], %o5
    jmpl %g7 + 8, %g0
    nop
xl_miss:
    unimp 1023
"#
    )
}
