//! Shareable analysis artifacts.
//!
//! EEL as the paper describes it is a per-process library: one
//! [`crate::Executable`] owns its image, and every analysis mutates that owner.
//! A long-running service (eel-serve) instead wants the expensive,
//! deterministic artifacts — the loaded image and §3.1's routine
//! discovery — computed once, then shared read-only across many
//! concurrent requests. [`Analysis`] is that artifact: immutable, `Send +
//! Sync`, cheap to fan out behind an [`Arc`], and convertible back into a
//! private editable executable with [`crate::Executable::from_analysis`].
//!
//! An `Analysis` also keeps one single-flight build cell per discovered
//! routine. The first [`crate::Executable::build_cfg`] of a routine by
//! any executable opened from the analysis stores its immutable
//! [`CfgShape`] there, with the §3.1 side effects of the build; every
//! later build shares the shape and replays the side effects, so each
//! routine is built once per image.
//! The first op that needs the routine's liveness solves it into the
//! same cell ([`LiveIn`]), so it too is solved once per shape.

use crate::analysis::live::LiveIn;
use crate::cfg::{Cfg, CfgShape};
use crate::error::EelError;
use crate::executable::{discover_routines, DiscoverySource, RoutineId};
use crate::fragment::routine_key;
use crate::routine::Routine;
use eel_exe::Image;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

/// Per-heap-block bookkeeping: malloc header plus size-class rounding.
pub(crate) const ALLOC_OVERHEAD: usize = 16;

/// One routine's build cell: its shared shape, and the shape's liveness
/// once an op solved it.
#[derive(Default)]
pub(crate) struct ShapeCell {
    pub(crate) shape: Option<Arc<CfgShape>>,
    live: Option<LiveIn>,
}

/// One build cell per routine an [`Analysis`] discovered, indexed like
/// its routines, plus the bytes the filled cells retain. A cell's lock is
/// held while its routine builds or its liveness is solved, so both are
/// single-flight.
pub(crate) struct ShapeCells {
    cells: Box<[Mutex<ShapeCell>]>,
    bytes: AtomicUsize,
    /// Live builds of discovered routines through the cells: those that
    /// filled a cell, and those whose snapshot differed from the cell's.
    builds: AtomicUsize,
    /// The shape readers that finished ([`Analysis::finish_shape_reader`]).
    finished: AtomicU32,
}

impl ShapeCells {
    /// One empty cell per discovered routine of an image for `machine`;
    /// none unless it is SPARC, the one pipeline that builds editable
    /// CFGs.
    pub(crate) fn new(machine: eel_exe::Machine, routines: usize) -> Arc<ShapeCells> {
        let routines = if machine == eel_exe::Machine::Sparc {
            routines
        } else {
            0
        };
        let cells: Box<[_]> = (0..routines)
            .map(|_| Mutex::new(ShapeCell::default()))
            .collect();
        let bytes =
            std::mem::size_of::<ShapeCells>() + std::mem::size_of_val(&*cells) + 2 * ALLOC_OVERHEAD;
        Arc::new(ShapeCells {
            cells,
            bytes: AtomicUsize::new(bytes),
            builds: AtomicUsize::new(0),
            finished: AtomicU32::new(0),
        })
    }

    /// No cells, shared: what an executable holds until
    /// [`crate::Executable::read_contents`] discovers its routines.
    pub(crate) fn none() -> Arc<ShapeCells> {
        static NONE: LazyLock<Arc<ShapeCells>> =
            LazyLock::new(|| ShapeCells::new(eel_exe::Machine::Sparc, 0));
        Arc::clone(&NONE)
    }

    /// The cell of routine `i`, if the analysis discovered it.
    pub(crate) fn cell(&self, i: usize) -> Option<&Mutex<ShapeCell>> {
        self.cells.get(i)
    }

    /// Empties every cell. Executables holding a shape or a liveness
    /// keep it alive; a later batch rebuilds what it needs.
    fn clear(&self) {
        for cell in self.cells.iter() {
            let taken = std::mem::take(&mut *lock(cell));
            let shape = taken.shape.map_or(0, |s| s.retained_bytes());
            let live = taken.live.map_or(0, |l| l.retained_bytes());
            self.bytes.fetch_sub(shape + live, Ordering::Relaxed);
        }
    }

    /// The liveness of `cfg`'s shape. When the shape is the one its
    /// routine's cell holds, the result is solved once, stored next to
    /// the shape and charged with it; any other shape's is solved here.
    pub(crate) fn live_in(&self, cfg: &Cfg) -> LiveIn {
        let Some(cell) = self.cell(cfg.routine_id().index()) else {
            return LiveIn::compute(cfg);
        };
        {
            let mut slot = lock(cell);
            let ShapeCell { shape, live } = &mut *slot;
            if let Some(shape) = shape.as_ref().filter(|s| Arc::ptr_eq(s, cfg.shape())) {
                let live = live.get_or_insert_with(|| {
                    let solved = LiveIn::compute(shape);
                    self.bytes
                        .fetch_add(solved.retained_bytes(), Ordering::Relaxed);
                    solved
                });
                return live.clone();
            }
        }
        LiveIn::compute(cfg)
    }

    /// Accounts a live build, and the shape it stored in a cell, if any.
    pub(crate) fn built(&self, stored: Option<&CfgShape>) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        if let Some(shape) = stored {
            self.bytes
                .fetch_add(shape.retained_bytes(), Ordering::Relaxed);
        }
    }
}

/// Locks a cell. A cell changes in one store after its build or solve,
/// so one that panicked under the lock left it valid.
pub(crate) fn lock(cell: &Mutex<ShapeCell>) -> std::sync::MutexGuard<'_, ShapeCell> {
    cell.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The immutable result of loading an image and running §3.1's routine
/// discovery, packaged for sharing across threads and cache entries.
///
/// ```
/// use eel_core::{Analysis, Executable};
/// use std::sync::Arc;
///
/// let image = eel_cc::compile_str(
///     "fn main() { return 7; }",
///     &eel_cc::Options::default(),
/// )?;
/// let analysis = Arc::new(Analysis::compute(Arc::new(image))?);
/// // Two independent, concurrently usable executables; neither re-parses
/// // the image or re-runs discovery.
/// let a = Executable::from_analysis(&analysis);
/// let b = Executable::from_analysis(&analysis);
/// assert_eq!(a.routines().len(), b.routines().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Analysis {
    image: Arc<Image>,
    routines: Vec<Routine>,
    hidden: Vec<RoutineId>,
    /// Distinct machine words in the text segment, the per-word term of
    /// [`Analysis::approx_bytes`]. (A `u32`, which text sizes allow, so
    /// the shape cells fit in the struct without changing its size, a
    /// term of `approx_bytes`.)
    distinct_words: u32,
    /// Per-routine content keys ([`crate::routine_key`]), in discovery
    /// order — the identities the serve-side fragment tier caches under.
    routine_keys: Vec<u64>,
    /// Where the routine set came from (symbols vs. inference).
    discovery: DiscoverySource,
    /// The routines' CFG shapes, built once by whichever op needs them
    /// first.
    shapes: Arc<ShapeCells>,
}

impl std::fmt::Debug for ShapeCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapeCells")
            .field("cells", &self.cells.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Analysis {
    /// Validates the image and runs the §3.1 refinement once.
    ///
    /// # Errors
    ///
    /// [`EelError::BadImage`] when validation or discovery fails.
    pub fn compute(image: Arc<Image>) -> Result<Analysis, EelError> {
        let _obs = eel_obs::span("core.analysis.compute");
        image.validate()?;
        let discovery = discover_routines(&image)?;
        let mut words: Vec<u32> = image.text_words().map(|(_, w)| w).collect();
        words.sort_unstable();
        words.dedup();
        let routine_keys = discovery
            .routines
            .iter()
            .map(|r| routine_key(&image, r))
            .collect();
        let shapes = ShapeCells::new(image.machine, discovery.routines.len());
        Ok(Analysis {
            image,
            routines: discovery.routines,
            hidden: discovery.hidden,
            distinct_words: u32::try_from(words.len()).unwrap_or(u32::MAX),
            routine_keys,
            discovery: discovery.source,
            shapes,
        })
    }

    /// Where the routine set came from: the symbol table, or (for a
    /// symbol-less image) `eel-strip`'s inference rules. Serve-side ops
    /// report this as `discovery: inferred` so clients of a stripped
    /// image know the routine names are synthetic.
    pub fn discovery(&self) -> DiscoverySource {
        self.discovery
    }

    /// Distinct machine words in the text segment, the measure behind
    /// §3.4's one-object-per-word sharing. CFG blocks decode their
    /// instructions from the image on read, so this is a count, not a
    /// pool of objects.
    pub fn distinct_words(&self) -> usize {
        self.distinct_words as usize
    }

    /// Bytes the routines' shared CFG shapes retain: the filled build
    /// cells, their records, the liveness stored with them and the cell
    /// table itself. This grows as ops
    /// build routines, so it is deliberately not part of
    /// [`Analysis::approx_bytes`] (which `stat` reports and which must not
    /// depend on which op ran first); eel-serve charges it to its
    /// analysis cache as a separate term.
    pub fn shape_bytes(&self) -> usize {
        self.shapes.bytes.load(Ordering::Relaxed)
    }

    /// How many routine CFGs were built live through this analysis'
    /// cells: one per discovered routine once every routine is built,
    /// however many ops or threads shared them (a batch whose routine
    /// snapshot differs from the cell's builds privately and counts too).
    pub fn shape_builds(&self) -> usize {
        self.shapes.builds.load(Ordering::Relaxed)
    }

    /// Records that shape reader `k` of a fixed set of `readers` (at
    /// most 32 — for eel-serve, its four CFG ops) is done with this
    /// analysis' CFG shapes, and drops every stored shape, with its
    /// liveness, once all of them are. An image's shapes then live from its first CFG op to its
    /// last; [`Analysis::shape_bytes`] falls back to the cell table, and
    /// a reader that runs again later rebuilds what it needs and releases
    /// it again when done.
    pub fn finish_shape_reader(&self, k: usize, readers: usize) {
        let all = u32::MAX >> (32 - readers.clamp(1, 32));
        let done = self
            .shapes
            .finished
            .fetch_or(1 << (k % 32), Ordering::AcqRel)
            | 1 << (k % 32);
        if done & all == all {
            self.shapes.clear();
        }
    }

    /// The per-routine shape cells, which executables opened from this
    /// analysis share.
    pub(crate) fn shape_cells(&self) -> &Arc<ShapeCells> {
        &self.shapes
    }

    /// The machine the image targets (the WEF header tag). Serve-side
    /// dispatch — which op implementations run, which cache keys are
    /// valid — keys on this.
    pub fn machine(&self) -> eel_exe::Machine {
        self.image.machine
    }

    /// The shared image.
    pub fn image(&self) -> &Arc<Image> {
        &self.image
    }

    /// The discovered routines, in discovery order (same indices as the
    /// [`RoutineId`]s a [`crate::Executable::from_analysis`] hands out).
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// The hidden routines awaiting the Figure 1 drain loop.
    pub(crate) fn hidden_queue(&self) -> &[RoutineId] {
        &self.hidden
    }

    /// Per-routine content keys, in discovery order (same indices as
    /// [`Analysis::routines`]). These are what the eel-serve fragment
    /// tier caches per-routine artifacts under.
    pub fn routine_keys(&self) -> &[u64] {
        &self.routine_keys
    }

    /// Approximate resident size in bytes — the currency of eel-serve's
    /// LRU byte budget. Counts the image segments, the symbol and routine
    /// tables (every routine name, synthetic ones included, since every
    /// consumer materializes them), per-heap-block allocator overhead,
    /// and a fixed allowance per distinct machine word. Calibrated
    /// against the measured ~1.7–1.9× text-size retention from the
    /// cache-budget experiments; deliberately still an estimate.
    pub fn approx_bytes(&self) -> usize {
        // Per-heap-block bookkeeping (`ALLOC_OVERHEAD`): undercounting
        // it was the bulk of the old estimate's gap to measured retention.
        // A calibrated allowance per distinct word, sized as one shared
        // instruction object (`Rc` header, decoded `Insn`, map entry).
        // It stays so the analysis LRU holds the same images and
        // `stat`'s `analysis-bytes` line does not change.
        const PER_DISTINCT_WORD: usize = 16
            + std::mem::size_of::<eel_isa::Insn>()
            + std::mem::size_of::<(u32, usize)>()
            + ALLOC_OVERHEAD;
        let image = self.image.text.len()
            + self.image.data.len()
            + self
                .image
                .symbols
                .iter()
                .map(|s| std::mem::size_of_val(s) + s.name.len() + ALLOC_OVERHEAD)
                .sum::<usize>();
        let routines = self
            .routines
            .iter()
            .map(|r| {
                std::mem::size_of_val(r)
                    + std::mem::size_of_val(r.entries())
                    + ALLOC_OVERHEAD
                    + r.name().len()
                    + ALLOC_OVERHEAD
            })
            .sum::<usize>();
        let per_word = self.distinct_words as usize * PER_DISTINCT_WORD;
        // The per-routine content keys the fragment tier shares with
        // whole-image entries: one u64 per routine plus the Vec's own
        // heap block.
        let fragment_keys = self.routine_keys.len() * std::mem::size_of::<u64>() + ALLOC_OVERHEAD;
        std::mem::size_of::<Analysis>()
            + image
            + routines
            + self.hidden.len() * std::mem::size_of::<RoutineId>()
            + per_word
            + fragment_keys
    }
}
