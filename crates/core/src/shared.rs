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

use crate::error::EelError;
use crate::executable::{discover_routines, DiscoverySource, RoutineId};
use crate::fragment::routine_key;
use crate::routine::Routine;
use eel_exe::Image;
use std::sync::Arc;

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
    /// [`Analysis::approx_bytes`].
    distinct_words: usize,
    /// Per-routine content keys ([`crate::routine_key`]), in discovery
    /// order — the identities the serve-side fragment tier caches under.
    routine_keys: Vec<u64>,
    /// Where the routine set came from (symbols vs. inference).
    discovery: DiscoverySource,
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
        Ok(Analysis {
            image,
            routines: discovery.routines,
            hidden: discovery.hidden,
            distinct_words: words.len(),
            routine_keys,
            discovery: discovery.source,
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
    /// §3.4's one-object-per-word sharing. CFG blocks store decoded
    /// instructions inline, so this is a count, not a pool of objects.
    pub fn distinct_words(&self) -> usize {
        self.distinct_words
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
        // Per-heap-block bookkeeping: malloc header plus size-class
        // rounding. Undercounting this was the bulk of the old
        // estimate's gap to measured retention.
        const ALLOC_OVERHEAD: usize = 16;
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
        let per_word = self.distinct_words * PER_DISTINCT_WORD;
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
