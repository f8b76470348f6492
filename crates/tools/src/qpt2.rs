//! qpt2 — the EEL-based profiler (paper §5, Figures 1–2).
//!
//! The paper rewrote qpt on EEL and it "dropped from 14,500 non-comment
//! lines of C code to 6,276 lines of C++": the tool shrinks because EEL
//! owns the hard parts. This module is the reproduction: block- and
//! edge-count profiling in a couple hundred lines, because `eel-core`
//! does the analysis, layout, and relocation.

use crate::ToolError;
use eel_core::{BlockId, BlockKind, Executable, Snippet};
use eel_emu::Machine;
use eel_exe::Image;
use std::collections::HashMap;

/// What qpt2 instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One counter per basic block (what qpt1 also supports).
    Blocks,
    /// One counter per out-edge of multi-successor blocks (Figure 1's
    /// optimal placement; qpt's signature technique).
    Edges,
    /// One counter per routine entry.
    Entries,
}

/// A profiled program: the edited image plus the counter directory.
#[derive(Debug)]
pub struct Profiled {
    /// The instrumented executable.
    pub image: Image,
    /// Counter directory: `(routine name, site address) → counter addr`.
    pub counters: Vec<CounterSite>,
}

/// One profile counter's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSite {
    /// Containing routine.
    pub routine: String,
    /// Site address in the ORIGINAL executable (block start, edge source,
    /// or entry point).
    pub site: u32,
    /// The counter's data address in the edited executable.
    pub counter: u32,
    /// Disambiguates multiple counters at one site (edge index).
    pub index: u32,
}

/// Instruments an executable for profiling.
///
/// # Errors
///
/// Propagates analysis/editing failures.
pub fn instrument(image: Image, granularity: Granularity) -> Result<Profiled, ToolError> {
    let mut exec = Executable::from_image(image)?;
    exec.read_contents()?;

    // Counters are reserved per routine, exactly as many as needed.
    let mut sites: Vec<CounterSite> = Vec::new();

    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id)?;
        let routine = exec.routine(id).name();
        // Collect this routine's counter sites first, then reserve their
        // storage in one block.
        let mut jobs: Vec<(Job, u32, u32)> = Vec::new(); // (where, site, index)
        match granularity {
            Granularity::Blocks => {
                for (bid, b) in cfg.blocks() {
                    if b.kind == BlockKind::Normal && b.editable && !b.insns.is_empty() {
                        jobs.push((Job::Block(bid), b.addr, 0));
                    }
                }
            }
            Granularity::Edges => {
                for (addr, i, e) in cfg.profiled_edges() {
                    jobs.push((Job::Edge(e), addr, i));
                }
            }
            Granularity::Entries => {
                let addr = cfg.entry_addrs().first().copied().unwrap_or_default();
                jobs.push((Job::Block(cfg.entry_block()), addr, 0));
            }
        }
        let base = exec.reserve_data(4 * jobs.len().max(1) as u32);
        for (k, (job, site, index)) in jobs.into_iter().enumerate() {
            let counter = base + 4 * k as u32;
            sites.push(CounterSite {
                routine: routine.clone(),
                site,
                counter,
                index,
            });
            match job {
                Job::Block(bid) => {
                    cfg.add_code_at_block_start(bid, Snippet::counter_increment(counter))?
                }
                Job::Edge(e) => cfg.add_code_along(e, Snippet::counter_increment(counter))?,
            }
        }
        exec.install_edits(cfg)?;
    }

    let image = exec.write_edited()?;
    Ok(Profiled {
        image,
        counters: sites,
    })
}

impl Profiled {
    /// Runs the instrumented program and returns its counts.
    ///
    /// # Errors
    ///
    /// Propagates emulator failures.
    pub fn run(&self) -> Result<ProfileRun, ToolError> {
        let mut machine = Machine::load(&self.image)?;
        let outcome = machine.run()?;
        let mut counts = HashMap::new();
        for site in &self.counters {
            counts.insert(
                (site.routine.clone(), site.site, site.index),
                machine.read_word(site.counter),
            );
        }
        Ok(ProfileRun { outcome, counts })
    }
}

enum Job {
    Block(BlockId),
    Edge(eel_core::EdgeId),
}

/// A completed profile run.
#[derive(Debug)]
pub struct ProfileRun {
    /// The program's own outcome (exit code, dynamic counts).
    pub outcome: eel_emu::Outcome,
    /// `(routine, site, index) → execution count`.
    pub counts: HashMap<(String, u32, u32), u32>,
}

impl ProfileRun {
    /// Total of all counters.
    pub fn total(&self) -> u64 {
        self.counts.values().map(|&c| c as u64).sum()
    }

    /// Counts for a routine, summed.
    pub fn routine_total(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|((r, _, _), _)| r == name)
            .map(|(_, &c)| c as u64)
            .sum()
    }
}
