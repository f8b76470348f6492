//! MIPS block-counter instrumentation, and the benchmark's names for
//! the shared CFG and liveness passes.
//!
//! Every machine's CFGs and liveness come from the one builder and the
//! one solver, through the [`crate::MachineOps`] seam. What stays here
//! is qpt2-style block-counter instrumentation for a MIPS image
//! ([`instrument_block_counters`]), which rewrites the whole text
//! segment rather than editing per-routine CFGs; it classifies the
//! words of the text once through [`crate::MachineOps::flow`] and finds
//! block leaders with one pass.

use crate::analysis::live::Liveness;
use crate::cfg::{build_cfg, BuildEffects, CfgShape};
use crate::error::EelError;
use crate::executable::MAX_MATERIALIZED_BSS;
use crate::machine::{machine_ops, Flow, MachineOps};
use crate::routine::Routine;
use eel_exe::{Image, Machine, Symbol, SymbolKind};
use std::ops::Range;
use std::sync::Arc;

/// Each word of `range` with how it moves control, classified once.
fn classify(image: &Image, ops: &dyn MachineOps, range: Range<u32>) -> Vec<(u32, Flow)> {
    let classify = |pc| {
        let word = image.word_at(pc).unwrap_or(0);
        (word, ops.flow(word, pc))
    };
    range.step_by(4).map(classify).collect()
}

/// A direct transfer's target.
fn direct_target(flow: Flow) -> Option<u32> {
    match flow {
        Flow::Branch { target, .. }
        | Flow::Call {
            target: Some(target),
        } => Some(target),
        _ => None,
    }
}

/// The block leaders of `range`, ascending: every word-aligned seed in
/// the range, every transfer target in the range, and the word after
/// each transfer's delay slot. `words` classifies the range, word by
/// word; the scan steps over delay slots from the range's first word.
fn leaders(
    words: &[(u32, Flow)],
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
        let (_, flow) = words[((addr - range.start) / 4) as usize];
        if !flow.is_delayed() {
            addr += 4;
            continue;
        }
        if let Some(target) = direct_target(flow) {
            mark(target);
        }
        addr += 8;
        mark(addr);
    }
    (range.start..range.end)
        .step_by(4)
        .zip(is_leader)
        .filter_map(|(addr, leads)| leads.then_some(addr))
        .collect()
}

/// One routine's CFG shape from the shared builder, built once and
/// without §3.1 side effects, under the benchmark's `core.generic.cfg`
/// span.
///
/// # Errors
///
/// As [`crate::Executable::build_cfg`].
pub fn generic_cfg(image: &Arc<Image>, routine: &Routine) -> Result<CfgShape, EelError> {
    let _obs = eel_obs::span("core.generic.cfg");
    let extent = (routine.start(), routine.end());
    let out = build_cfg(image, extent, routine.entries())?;
    let effects = BuildEffects {
        snapshot_end: routine.end(),
        snapshot_entries: routine.entries().to_vec(),
        ..BuildEffects::default()
    };
    Ok(out.draft.finish(image, extent, effects))
}

/// [`Liveness::compute`] under the benchmark's `core.generic.liveness`
/// span; `_image` keeps the signature the benchmark calls.
pub fn generic_liveness(_image: &Image, cfg: &CfgShape) -> Liveness {
    let _obs = eel_obs::span("core.generic.liveness");
    Liveness::compute(cfg)
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
            let (w, flow) = words[((a - text.start) / 4) as usize];
            let here = a + 16 * (b as u32 + 1);
            let patched = match direct_target(flow) {
                Some(target) if text.contains(&target) => {
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

/// `true` when the image's machine is instrumented by
/// [`instrument_block_counters`] rather than edited through the SPARC
/// layout pipeline ([`crate::Executable::install_edits`] and
/// [`crate::Executable::write_edited`]).
pub fn uses_generic_pipeline(machine: Machine) -> bool {
    machine != Machine::Sparc
}
