//! Machine-generic analyses over the [`crate::MachineOps`] seam.
//!
//! The SPARC pipeline in this crate predates the seam and keeps its
//! richer, edit-capable [`crate::Cfg`]. This module is the
//! machine-independent counterpart that any described machine gets for
//! free: basic-block CFGs, backward liveness, disassembly listings, and
//! qpt2-style block-counter instrumentation — enough for the service's
//! stat/disasm/instrument ops on a non-SPARC image. It is exercised
//! end-to-end by MIPS today; a future alpha backend reuses it untouched.
//!
//! Each pass classifies the words of its range once (kind plus the step
//! over a delay slot) and finds block leaders with one shared pass.
//! Liveness runs on the seam's register sets through the same fixpoint
//! as [`Liveness::compute`]; register names appear only where output is
//! rendered, through [`crate::MachineOps::reg_name`].

use crate::analysis::live::Liveness;
use crate::error::EelError;
use crate::executable::MAX_MATERIALIZED_BSS;
use crate::machine::{machine_ops, InsnKind, MachineOps};
use crate::routine::Routine;
use eel_exe::{Image, Machine, Symbol, SymbolKind};
use eel_isa::{write_hex, RegSet};
use std::ops::Range;

/// A basic block in a [`GenericCfg`].
#[derive(Debug, Clone)]
pub struct GenericBlock {
    /// First instruction address.
    pub start: u32,
    /// One past the last instruction (delay slot included).
    pub end: u32,
    /// Successor block starts (taken targets first, then fall-through).
    pub succs: Vec<u32>,
    /// The block ends in a transfer with an unknowable target set.
    pub has_indirect_exit: bool,
}

/// A routine-scoped control-flow graph built through the machine seam.
///
/// Delay slots are normalized the same way the SPARC CFG normalizes
/// them: a transfer and its delay slot stay in the transfer's block, and
/// the next block starts after the slot.
#[derive(Debug, Clone)]
pub struct GenericCfg {
    /// Blocks in ascending start order; the first is the entry block.
    pub blocks: Vec<GenericBlock>,
}

impl GenericCfg {
    /// The block starting at `addr`, if any.
    pub fn block_at(&self, addr: u32) -> Option<&GenericBlock> {
        self.blocks.iter().find(|b| b.start == addr)
    }
}

/// One word with its control-flow class and the bytes from it to the
/// next instruction in sequence: 8 over a delay slot, else 4.
#[derive(Clone, Copy)]
struct Classified {
    word: u32,
    kind: InsnKind,
    step: u32,
}

/// Classifies each word of `range` once.
fn classify(image: &Image, ops: &dyn MachineOps, range: Range<u32>) -> Vec<Classified> {
    range
        .step_by(4)
        .map(|pc| {
            let word = image.word_at(pc).unwrap_or(0);
            Classified {
                word,
                kind: ops.kind(word, pc),
                step: if ops.has_delay_slot(word, pc) { 8 } else { 4 },
            }
        })
        .collect()
}

/// The block leaders of `range`, ascending: every word-aligned seed in
/// the range, every transfer target in the range, and the word after
/// each transfer's delay slot. `words` classifies the range, word by
/// word; the scan follows the steps from the range's first word.
fn leaders(
    words: &[Classified],
    range: Range<u32>,
    seeds: impl IntoIterator<Item = u32>,
) -> Vec<u32> {
    let at = |addr: u32| {
        let offset = addr.wrapping_sub(range.start);
        (range.contains(&addr) && offset.is_multiple_of(4)).then_some((offset / 4) as usize)
    };
    let mut is_leader = vec![false; words.len()];
    let mut mark = |addr: u32| {
        if let Some(i) = at(addr) {
            is_leader[i] = true;
        }
    };
    seeds.into_iter().for_each(&mut mark);
    let mut addr = range.start;
    while addr < range.end {
        let Classified { kind, step, .. } = words[((addr - range.start) / 4) as usize];
        match kind {
            InsnKind::Branch { target } | InsnKind::Jump { target, .. } => {
                mark(target);
                mark(addr + step);
            }
            InsnKind::IndirectJump { .. } => mark(addr + step),
            _ => {}
        }
        addr += step;
    }
    (range.start..range.end)
        .step_by(4)
        .zip(is_leader)
        .filter_map(|(addr, leads)| leads.then_some(addr))
        .collect()
}

/// Builds a [`GenericCfg`] for one routine extent via the machine seam.
///
/// # Errors
///
/// [`EelError::BadAddress`] when the routine extent is outside the text
/// segment.
pub fn generic_cfg(image: &Image, routine: &Routine) -> Result<GenericCfg, EelError> {
    let _obs = eel_obs::span("core.generic.cfg");
    let ops = machine_ops(image.machine);
    let (start, end) = (routine.start(), routine.end());
    if start < image.text_addr || end > image.text_end() {
        return Err(EelError::BadAddress {
            addr: start,
            expected: "a routine extent inside the text segment",
        });
    }
    let words = classify(image, ops, start..end);
    let seeds = std::iter::once(start).chain(routine.entries().iter().copied());
    let starts = leaders(&words, start..end, seeds);

    // Blocks between leaders, each with the successor edges of the
    // transfer that ends it. A call returns to the post-slot address, so
    // it is straight-line code, as the SPARC CFG treats it.
    let blocks = starts
        .iter()
        .enumerate()
        .map(|(i, &bstart)| {
            let bend = starts.get(i + 1).copied().unwrap_or(end);
            let mut exit = None;
            let mut addr = bstart;
            while addr < bend && exit.is_none() {
                let Classified { kind, step, .. } = words[((addr - start) / 4) as usize];
                if let InsnKind::Branch { .. }
                | InsnKind::Jump { links: false, .. }
                | InsnKind::IndirectJump { links: false } = kind
                {
                    exit = Some(kind);
                }
                addr += step;
            }
            // `addr` is past the exit's delay slot now.
            let (succs, has_indirect_exit) = match exit {
                Some(InsnKind::Branch { target }) => (vec![target, addr], false),
                Some(InsnKind::Jump { target, .. }) => (vec![target], false),
                Some(_) => (Vec::new(), true),
                None => (vec![bend], false),
            };
            GenericBlock {
                start: bstart,
                end: bend,
                succs: succs
                    .into_iter()
                    .filter(|&a| a >= start && a < end)
                    .collect(),
                has_indirect_exit,
            }
        })
        .collect();
    Ok(GenericCfg { blocks })
}

/// Computes backward liveness for a [`GenericCfg`] over the machine
/// seam's register sets, through the same fixpoint as
/// [`Liveness::compute`]. Block indices follow [`GenericCfg::blocks`];
/// delay slots are plain instructions for dataflow purposes.
pub fn generic_liveness(image: &Image, cfg: &GenericCfg) -> Liveness {
    let _obs = eel_obs::span("core.generic.liveness");
    let ops = machine_ops(image.machine);
    let use_def: Vec<(RegSet, RegSet)> = cfg
        .blocks
        .iter()
        .map(|b| {
            let (mut uses, mut defs) = (RegSet::new(), RegSet::new());
            for addr in (b.start..b.end).step_by(4) {
                let word = image.word_at(addr).unwrap_or(0);
                uses = uses.union(ops.reads(word).without(defs));
                defs = defs.union(ops.writes(word));
            }
            (uses, defs)
        })
        .collect();
    let index_of = |addr: u32| cfg.blocks.binary_search_by_key(&addr, |b| b.start).ok();
    Liveness::solve(
        &use_def,
        |b| cfg.blocks[b].succs.iter().filter_map(move |&s| index_of(s)),
        None,
    )
}

/// Appends a routine extent's disassembly listing to `out` through the
/// machine seam: one `  addr: word  text` line per word.
pub fn generic_disasm(image: &Image, routine: &Routine, out: &mut String) {
    let ops = machine_ops(image.machine);
    for addr in (routine.start()..routine.end()).step_by(4) {
        let word = image.word_at(addr).unwrap_or(0);
        out.push_str("  0x");
        let _ = write_hex(out, addr, 8);
        out.push_str(": ");
        let _ = write_hex(out, word, 8);
        out.push_str("  ");
        ops.disasm(word, addr, out);
        out.push('\n');
    }
}

// ---- MIPS block-counter instrumentation --------------------------------

/// Where one block's execution counter lives in the instrumented image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCounter {
    /// The block's first instruction address in the *original* image.
    pub orig_start: u32,
    /// The counter word's address (valid in the instrumented image).
    pub counter_addr: u32,
}

/// qpt2-style basic-block execution counting for a MIPS image: prepends
/// a four-word counter increment to every block and relocates all code
/// below it, repatching every `beq`/`bne`/`blez`/`bgtz` displacement and
/// `j`/`jal` target. The counter sequence uses `$k0`/`$k1` — reserved by
/// this reproduction's MIPS ABI exactly as `%g2`/`%g3` are reserved on
/// SPARC — so no program register is disturbed and no liveness scavenge
/// is needed:
///
/// ```text
/// lui   $k0, %hi(counter)
/// lw    $k1, %lo(counter)($k0)
/// addiu $k1, $k1, 1
/// sw    $k1, %lo(counter)($k0)
/// ```
///
/// Relocation is safe because the MIPS generator emits no jump tables
/// and never materializes a text address into a register (`&function`
/// is rejected); return addresses come from relocated `jal`s at run
/// time, so `jr $ra` needs no translation.
///
/// # Errors
///
/// [`EelError::BadImage`] for a non-MIPS image; [`EelError::LayoutOverflow`]
/// if a relocated branch no longer reaches its target or the bss is too
/// large to turn into data.
pub fn instrument_block_counters(image: &Image) -> Result<(Image, Vec<BlockCounter>), EelError> {
    let _obs = eel_obs::span("core.generic.instrument");
    if image.machine != Machine::Mips {
        return Err(EelError::BadImage(format!(
            "block-counter rewriter supports mips images, not {}",
            image.machine
        )));
    }
    // The counter array follows the data, with bss materialized as
    // zeroed data (as `Executable::write_edited` does), so no counter
    // lands on a bss variable.
    if image.bss_size > MAX_MATERIALIZED_BSS {
        return Err(EelError::LayoutOverflow(format!(
            "bss of {} bytes exceeds the {MAX_MATERIALIZED_BSS}-byte limit for materializing it",
            image.bss_size
        )));
    }
    let text = image.text_addr..image.text_end();
    let words = classify(image, machine_ops(image.machine), text.clone());
    let routines = image
        .symbols
        .iter()
        .filter(|s| s.kind == SymbolKind::Routine)
        .map(|s| s.value);
    let seeds = [text.start, image.entry].into_iter().chain(routines);
    let starts = leaders(&words, text.clone(), seeds);

    let mut out = image.clone();
    out.data
        .resize(image.data.len() + image.bss_size as usize, 0);
    out.data.resize(out.data.len().next_multiple_of(4), 0);
    out.bss_size = 0;
    let counters_base = out.data_addr + out.data.len() as u32;

    // Every block grows by the same four-word preamble, so the word at
    // `a` in block `b` moves to `a + 16(b+1)`, and a transfer to leader
    // `b` lands on its preamble at `leader + 16b`.
    let preamble = |leader: u32| {
        let b = starts.binary_search(&leader).ok()?;
        Some(leader + 16 * b as u32)
    };
    let mut new_text: Vec<u8> = Vec::with_capacity(image.text.len() + starts.len() * 16);
    let mut counters = Vec::with_capacity(starts.len());
    for (b, &bstart) in starts.iter().enumerate() {
        let bend = starts.get(b + 1).copied().unwrap_or(text.end);
        let counter_addr = counters_base + 4 * b as u32;
        counters.push(BlockCounter {
            orig_start: bstart,
            counter_addr,
        });
        // %hi carries when %lo's sign bit is set.
        let (hi, lo) = (
            counter_addr.wrapping_add(0x8000) >> 16,
            counter_addr & 0xffff,
        );
        for w in [
            (15 << 26) | (26 << 16) | hi,              // lui   $k0, %hi(counter)
            (35 << 26) | (26 << 21) | (27 << 16) | lo, // lw    $k1, %lo(counter)($k0)
            (9 << 26) | (27 << 21) | (27 << 16) | 1,   // addiu $k1, $k1, 1
            (43 << 26) | (26 << 21) | (27 << 16) | lo, // sw    $k1, %lo(counter)($k0)
        ] {
            new_text.extend_from_slice(&w.to_be_bytes());
        }
        for a in (bstart..bend).step_by(4) {
            let Classified { word: w, kind, .. } = words[((a - text.start) / 4) as usize];
            let here = a + 16 * (b as u32 + 1);
            let patched = match kind {
                InsnKind::Branch { target } | InsnKind::Jump { target, .. }
                    if text.contains(&target) =>
                {
                    let nt = preamble(target).ok_or_else(|| {
                        EelError::Internal(format!("transfer target {target:#x} is not a leader"))
                    })?;
                    if w >> 26 <= 3 && w >> 26 >= 2 {
                        // j / jal: absolute target26.
                        (w & 0xfc00_0000) | ((nt >> 2) & 0x03ff_ffff)
                    } else {
                        // I-type branch: recompute the displacement.
                        let disp = (nt as i64 - (here as i64 + 4)) >> 2;
                        if !(-0x8000..0x8000).contains(&disp) {
                            return Err(EelError::LayoutOverflow(format!(
                                "instrumented branch at {here:#x} cannot reach {nt:#x}"
                            )));
                        }
                        (w & 0xffff_0000) | (disp as u32 & 0xffff)
                    }
                }
                _ => w,
            };
            new_text.extend_from_slice(&patched.to_be_bytes());
        }
    }

    out.text = new_text;
    out.entry = preamble(image.entry)
        .ok_or_else(|| EelError::Internal("entry point is not a block leader".into()))?;
    out.data.resize(out.data.len() + 4 * starts.len(), 0);
    for s in out
        .symbols
        .iter_mut()
        .filter(|s| s.kind == SymbolKind::Routine)
    {
        s.value = preamble(s.value).unwrap_or(s.value);
    }
    out.symbols.push(Symbol::object(
        "__eel_counters",
        counters_base,
        4 * starts.len() as u32,
    ));
    out.validate()?;
    eel_obs::counter!("core.machine.mips_blocks_instrumented").add(starts.len() as u64);
    Ok((out, counters))
}

/// Convenience dispatch used by the service's generic ops: `true` when
/// the image's machine is served by this module rather than the SPARC
/// [`crate::Executable`] pipeline.
pub fn uses_generic_pipeline(machine: Machine) -> bool {
    machine != Machine::Sparc
}
