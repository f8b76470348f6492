//! Machine-generic analyses over the [`crate::MachineOps`] seam.
//!
//! The SPARC pipeline in this crate predates the seam and keeps its
//! richer, edit-capable [`crate::Cfg`]. This module is the
//! machine-independent counterpart that any described machine gets for
//! free: basic-block CFGs, backward liveness, disassembly listings, and
//! qpt2-style block-counter instrumentation — enough for the service's
//! stat/disasm/instrument ops on a non-SPARC image. It is exercised
//! end-to-end by MIPS today; a future alpha backend reuses it untouched.

use crate::error::EelError;
use crate::machine::{machine_ops, InsnKind};
use crate::routine::Routine;
use eel_exe::{Image, Machine, Symbol, SymbolKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

    let word_at = |addr: u32| image.word_at(addr).unwrap_or(0);
    // Pass 1: leaders. The entry, every in-extent transfer target, and
    // the instruction after each transfer's delay slot.
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    leaders.insert(start);
    for &e in routine.entries() {
        leaders.insert(e);
    }
    let mut addr = start;
    while addr < end {
        let kind = ops.kind(word_at(addr), addr);
        let step = if ops.has_delay_slot(word_at(addr), addr) {
            8
        } else {
            4
        };
        match kind {
            InsnKind::Branch { target } | InsnKind::Jump { target, .. } => {
                if target >= start && target < end {
                    leaders.insert(target);
                }
                if addr + step < end {
                    leaders.insert(addr + step);
                }
            }
            InsnKind::IndirectJump { .. } if addr + step < end => {
                leaders.insert(addr + step);
            }
            _ => {}
        }
        addr += step;
    }

    // Pass 2: blocks between leaders, with successor edges.
    let starts: Vec<u32> = leaders.into_iter().collect();
    let mut blocks = Vec::with_capacity(starts.len());
    for (i, &bstart) in starts.iter().enumerate() {
        let bend = starts.get(i + 1).copied().unwrap_or(end);
        // Find the terminating transfer (if any) within the block.
        let mut succs = Vec::new();
        let mut has_indirect_exit = false;
        let mut addr = bstart;
        let mut fell_off = true;
        while addr < bend {
            let word = word_at(addr);
            let kind = ops.kind(word, addr);
            let delayed = ops.has_delay_slot(word, addr);
            let step = if delayed { 8 } else { 4 };
            match kind {
                InsnKind::Branch { target } => {
                    if target >= start && target < end {
                        succs.push(target);
                    }
                    if addr + step < end {
                        succs.push(addr + step);
                    }
                    fell_off = false;
                }
                InsnKind::Jump { target, links } => {
                    if links {
                        // A call returns to the post-slot address: treat
                        // it as straight-line, like the SPARC CFG does.
                        addr += step;
                        continue;
                    }
                    if target >= start && target < end {
                        succs.push(target);
                    }
                    fell_off = false;
                }
                InsnKind::IndirectJump { links } => {
                    if links {
                        addr += step;
                        continue;
                    }
                    has_indirect_exit = true;
                    fell_off = false;
                }
                _ => {
                    addr += step;
                    continue;
                }
            }
            break;
        }
        if fell_off && bend < end {
            succs.push(bend);
        }
        blocks.push(GenericBlock {
            start: bstart,
            end: bend,
            succs,
            has_indirect_exit,
        });
    }
    Ok(GenericCfg { blocks })
}

/// Per-block liveness over the machine seam's register names: backward
/// may-analysis to a fixed point, like [`crate::Liveness`] but keyed on
/// opaque names so it works for any described machine.
#[derive(Debug)]
pub struct GenericLiveness {
    /// Live-in sets, indexed like [`GenericCfg::blocks`].
    pub live_in: Vec<BTreeSet<String>>,
    /// Live-out sets, indexed like [`GenericCfg::blocks`].
    pub live_out: Vec<BTreeSet<String>>,
}

/// Computes backward liveness for a [`GenericCfg`].
pub fn generic_liveness(image: &Image, cfg: &GenericCfg) -> GenericLiveness {
    let _obs = eel_obs::span("core.generic.liveness");
    let ops = machine_ops(image.machine);
    let n = cfg.blocks.len();
    let index_of: HashMap<u32, usize> = cfg
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.start, i))
        .collect();

    // Per-block gen (use before def) and kill (def) sets, scanning
    // forward; delay slots are plain instructions for dataflow purposes.
    let mut gens: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut kills: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (i, b) in cfg.blocks.iter().enumerate() {
        let mut addr = b.start;
        while addr < b.end {
            let word = image.word_at(addr).unwrap_or(0);
            for r in ops.reads(word) {
                if !kills[i].contains(&r) {
                    gens[i].insert(r);
                }
            }
            for r in ops.writes(word) {
                kills[i].insert(r);
            }
            addr += 4;
        }
    }

    let mut live_in: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut live_out: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out: BTreeSet<String> = BTreeSet::new();
            for s in &cfg.blocks[i].succs {
                if let Some(&j) = index_of.get(s) {
                    out.extend(live_in[j].iter().cloned());
                }
            }
            let mut inn = gens[i].clone();
            for r in out.difference(&kills[i]) {
                inn.insert(r.clone());
            }
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    GenericLiveness { live_in, live_out }
}

/// Disassembles a routine extent into `addr: word  text` lines through
/// the machine seam.
pub fn generic_disasm(image: &Image, routine: &Routine) -> Vec<String> {
    let ops = machine_ops(image.machine);
    let mut out = Vec::new();
    let mut addr = routine.start();
    while addr < routine.end() {
        let word = image.word_at(addr).unwrap_or(0);
        out.push(format!(
            "{addr:#010x}: {word:08x}  {}",
            ops.disasm(word, addr)
        ));
        addr += 4;
    }
    out
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
/// if a relocated branch no longer reaches its target.
pub fn instrument_block_counters(image: &Image) -> Result<(Image, Vec<BlockCounter>), EelError> {
    let _obs = eel_obs::span("core.generic.instrument");
    if image.machine != Machine::Mips {
        return Err(EelError::BadImage(format!(
            "block-counter rewriter supports mips images, not {}",
            image.machine
        )));
    }
    let ops = machine_ops(image.machine);
    let text = image.text_addr;
    let n_words = image.text.len() / 4;
    let words: Vec<u32> = (0..n_words)
        .map(|i| image.word_at(text + 4 * i as u32).unwrap())
        .collect();

    // Leaders over the whole text segment: segment start, the entry,
    // every routine symbol, every transfer target, and every
    // post-transfer (post-delay-slot) address.
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    leaders.insert(text);
    leaders.insert(image.entry);
    for s in &image.symbols {
        if s.kind == SymbolKind::Routine && image.in_text(s.value) {
            leaders.insert(s.value);
        }
    }
    let mut i = 0usize;
    while i < n_words {
        let addr = text + 4 * i as u32;
        let kind = ops.kind(words[i], addr);
        let step = if ops.has_delay_slot(words[i], addr) {
            2
        } else {
            1
        };
        match kind {
            InsnKind::Branch { target } | InsnKind::Jump { target, .. } => {
                if image.in_text(target) {
                    leaders.insert(target);
                }
                if i + step < n_words {
                    leaders.insert(addr + 4 * step as u32);
                }
            }
            InsnKind::IndirectJump { .. } if i + step < n_words => {
                leaders.insert(addr + 4 * step as u32);
            }
            _ => {}
        }
        i += step;
    }

    // Counter array: appended to the data segment, word-aligned.
    let starts: Vec<u32> = leaders.into_iter().collect();
    let pad = (4 - image.data.len() % 4) % 4;
    let counters_base = image.data_addr + (image.data.len() + pad) as u32;

    // Pass 1: new addresses. Each block grows by the 4-word preamble.
    let mut new_addr_of: BTreeMap<u32, u32> = BTreeMap::new(); // old insn → new insn
    let mut block_of_leader: HashMap<u32, usize> = HashMap::new();
    let mut new_pc = text;
    for (b, &bstart) in starts.iter().enumerate() {
        let bend = starts
            .get(b + 1)
            .copied()
            .unwrap_or(text + 4 * n_words as u32);
        block_of_leader.insert(bstart, b);
        new_pc += 16; // the preamble
        let mut a = bstart;
        while a < bend {
            new_addr_of.insert(a, new_pc);
            new_pc += 4;
            a += 4;
        }
    }

    // Pass 2: emit. Jumping to a block lands on its preamble, so
    // transfer targets map to `preamble(start)` = new_addr_of[start]-16.
    let target_map = |old: u32| -> Option<u32> {
        block_of_leader.get(&old)?;
        new_addr_of.get(&old).map(|&a| a - 16)
    };
    let mut new_text: Vec<u8> = Vec::with_capacity(image.text.len() + starts.len() * 16);
    let push = |w: u32, out: &mut Vec<u8>| out.extend_from_slice(&w.to_be_bytes());
    let mut counters = Vec::with_capacity(starts.len());
    for (b, &bstart) in starts.iter().enumerate() {
        let bend = starts
            .get(b + 1)
            .copied()
            .unwrap_or(text + 4 * n_words as u32);
        let counter_addr = counters_base + 4 * b as u32;
        counters.push(BlockCounter {
            orig_start: bstart,
            counter_addr,
        });
        let lo = (counter_addr & 0xffff) as i32;
        let lo = if lo >= 0x8000 { lo - 0x10000 } else { lo };
        let hi = counter_addr.wrapping_sub(lo as u32) >> 16;
        push((15 << 26) | (26 << 16) | (hi & 0xffff), &mut new_text); // lui $k0
        push(
            (35 << 26) | (26 << 21) | (27 << 16) | (lo as u32 & 0xffff),
            &mut new_text,
        ); // lw $k1
        push((9 << 26) | (27 << 21) | (27 << 16) | 1, &mut new_text); // addiu $k1,$k1,1
        push(
            (43 << 26) | (26 << 21) | (27 << 16) | (lo as u32 & 0xffff),
            &mut new_text,
        ); // sw $k1

        let mut a = bstart;
        while a < bend {
            let w = words[((a - text) / 4) as usize];
            let here = new_addr_of[&a];
            let patched = match ops.kind(w, a) {
                InsnKind::Branch { target } | InsnKind::Jump { target, links: _ }
                    if image.in_text(target) =>
                {
                    let nt = target_map(target).ok_or_else(|| {
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
            push(patched, &mut new_text);
            a += 4;
        }
    }

    let mut out = image.clone();
    out.text = new_text;
    out.entry = target_map(image.entry)
        .ok_or_else(|| EelError::Internal("entry point is not a block leader".into()))?;
    out.data.extend(std::iter::repeat_n(0u8, pad));
    out.data.extend(std::iter::repeat_n(0u8, 4 * starts.len()));
    for s in &mut out.symbols {
        if s.kind == SymbolKind::Routine && image.in_text(s.value) {
            if let Some(nt) = target_map(s.value) {
                s.value = nt;
            }
        }
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
