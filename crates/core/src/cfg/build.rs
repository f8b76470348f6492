//! CFG construction with delay-slot normalization (paper §3.3, Figure 3).
//!
//! Construction is two-phase:
//!
//! 1. **Scan** — a worklist reachability pass from the routine's entry
//!    points over the raw instruction stream. Control-transfer sites are
//!    recorded, indirect jumps are resolved ([`resolve_indirect`]) so
//!    dispatch-table targets extend reachability, and table storage is
//!    marked as data.
//! 2. **Materialize** — leaders split the covered addresses into normal
//!    blocks; delay-slot blocks, call surrogates, entry/exit blocks, and
//!    edges are synthesized per the normalization rules; uneditable
//!    blocks/edges are marked. Blocks and edges go straight into the flat
//!    record arrays of a [`ShapeDraft`] — a normal block is its leader and
//!    length, a delay-slot block its one address — with no per-block
//!    allocation and no instruction copies.
//!
//! The scan also reports the paper's §3.1 stage-3/4 discoveries to the
//! caller: escape targets (entry points of *other* routines) and a
//! trailing unreachable region (a *hidden routine* candidate).

use super::*;
use crate::analysis::jumptable::resolve_indirect;
use eel_exe::Image;
use eel_isa::{Cond, JumpKind, Op};

/// What the builder learned beyond the CFG itself.
pub(crate) struct BuildOutput {
    /// The materialized graph, packed into a [`CfgShape`] once the
    /// caller knows the build's §3.1 side effects.
    pub draft: ShapeDraft,
    /// First address of a trailing unreachable valid-code region — a
    /// hidden-routine candidate (§3.1 stage 4).
    pub trailing_unreachable: Option<u32>,
    /// Known control-transfer targets *outside* this routine (new entry
    /// points for the routines containing them, §3.1 stage 3).
    pub escape_targets: Vec<u32>,
    /// Jump analysis read a word outside the extent (a cross-routine
    /// literal load or a dispatch table spilling past the boundary), so
    /// this CFG is not a pure function of the routine's own bytes and
    /// must not be cached under its content key.
    pub external_reads: bool,
}

/// How a scanned control-transfer site behaves.
enum CtiSucc {
    /// Conditional or unconditional PC-relative branch.
    Branch {
        cond: Cond,
        annul: bool,
        /// Taken target (`None` for `bn`, which never takes).
        taken: Option<Target>,
        /// Fall-through address (`None` for `ba`).
        fall: Option<u32>,
    },
    /// Direct or indirect call (see `call_sites` / `indirect_calls`).
    Call,
    /// Subroutine return.
    Return,
    /// Indirect jump with its resolution.
    IndirectJump { resolution: JumpResolution },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    /// Inside this routine.
    In(u32),
    /// In some other routine.
    Out(u32),
}

struct CtiRec {
    /// The delay-slot instruction, unless the transfer sits at the very
    /// end of the extent.
    delay: Option<Insn>,
    succ: CtiSucc,
}

// Per-word scan state, one byte per word of the extent.
const LEADER: u8 = 1;
const SCANNED: u8 = 2;
const COVERED: u8 = 4;
/// A covered word that decodes as invalid: its block dead-ends there.
const INVALID: u8 = 8;

pub(crate) fn build_cfg(
    image: &Image,
    extent: (u32, u32),
    entries: &[u32],
) -> Result<BuildOutput, EelError> {
    let (start, end) = extent;
    // Discovery keeps extents inside text (and validation keeps the entry
    // point there), which bounds the dense per-word state by text size.
    if start < image.text_addr || end > image.text_end() {
        return Err(EelError::BadAddress {
            addr: start,
            expected: "a routine extent inside the text segment",
        });
    }
    // Per-word state starts at the extent's first aligned word. Misaligned
    // and out-of-extent addresses have no slot: never leaders or blocks.
    let base = start.next_multiple_of(4);
    let words = (end.saturating_sub(base) as usize).div_ceil(4);
    let slot =
        |a: u32| (a >= base && a < end && a.is_multiple_of(4)).then(|| ((a - base) / 4) as usize);
    let mut flags: Vec<u8> = vec![0; words];
    // Words inside `data_ranges`; the `ctis` index of each word's transfer.
    let mut in_table: Vec<bool> = vec![false; words];
    let mut cti_at: Vec<Option<u32>> = vec![None; words];
    let mut ctis: Vec<CtiRec> = Vec::new();
    let mut worklist: Vec<u32> = entries.to_vec();
    for i in entries.iter().filter_map(|&e| slot(e)) {
        flags[i] |= LEADER;
    }
    let mut data_ranges: Vec<DataRange> = Vec::new();
    let mut escape_targets: Vec<u32> = Vec::new();
    let mut indirect_jumps: Vec<IndirectJumpInfo> = Vec::new();
    let mut indirect_calls: Vec<IndirectJumpInfo> = Vec::new();
    let mut call_sites: Vec<(u32, u32)> = Vec::new();
    let mut incomplete = false;
    let mut external_reads = false;

    let in_extent = |a: u32| a >= start && a < end;
    let classify = |a: u32| {
        if in_extent(a) {
            Target::In(a)
        } else {
            Target::Out(a)
        }
    };

    // ---- phase 1: scan --------------------------------------------------

    let scan_obs = eel_obs::span("core.cfg.scan");
    while let Some(leader) = worklist.pop() {
        if let Some(i) = slot(leader) {
            if flags[i] & SCANNED != 0 {
                continue;
            }
            flags[i] |= SCANNED;
        }
        let mut pc = leader;
        loop {
            if !in_extent(pc) {
                // Fell off the extent: control flows into the next routine
                // (treated as an escape; extremely unusual).
                if pc == end && pc > start {
                    escape_targets.push(pc);
                }
                break;
            }
            // A misaligned word has nothing to decode.
            let Some(i) = slot(pc) else { break };
            if in_table[i] {
                break; // ran into a dispatch table
            }
            // Stop on reaching another block's leader, or code another
            // scan already covered (its CTIs and coverage are recorded;
            // block splitting at branch targets is handled by leaders).
            if pc != leader && flags[i] & (LEADER | COVERED) != 0 {
                break;
            }
            let Some(word) = image.word_at(pc) else { break };
            let insn = eel_isa::decode(word);
            flags[i] |= COVERED;
            if insn.category() == eel_isa::Category::Invalid {
                // Reachable invalid instruction: the routine contains data
                // (§3.1 stage 4). Dead-end the block.
                flags[i] |= INVALID;
                break;
            }
            if !insn.is_delayed() {
                pc += 4;
                continue;
            }

            // A delayed control transfer: capture its delay slot.
            let delay_addr = pc + 4;
            let delay = if in_extent(delay_addr) {
                image.word_at(delay_addr).map(eel_isa::decode)
            } else {
                None
            };
            let annulled_always = matches!(
                insn.op,
                Op::Branch {
                    cond: Cond::Always,
                    annul: true,
                    ..
                }
            );
            if let Some(d) = delay {
                if d.is_delayed() && !annulled_always {
                    return Err(EelError::DelaySlotTransfer { addr: delay_addr });
                }
                // The slot word belongs to this transfer even when
                // annulled-always (it just never executes).
                flags[i + 1] |= COVERED;
                if d.category() == eel_isa::Category::Invalid {
                    flags[i + 1] |= INVALID;
                }
            }

            let mut push_leader = |a: u32, worklist: &mut Vec<u32>| {
                if let Some(j) = slot(a) {
                    if flags[j] & LEADER == 0 {
                        flags[j] |= LEADER;
                        worklist.push(a);
                    }
                }
            };

            let succ = match insn.op {
                // FP branches are never emitted; they are treated as
                // two-way branches on an unknown condition.
                Op::Branch {
                    cond,
                    annul,
                    disp22,
                    ..
                } => {
                    let target_addr = pc.wrapping_add((disp22 as u32) << 2);
                    let taken = if cond == Cond::Never {
                        None
                    } else {
                        let t = classify(target_addr);
                        match t {
                            Target::In(a) => push_leader(a, &mut worklist),
                            Target::Out(a) => escape_targets.push(a),
                        }
                        Some(t)
                    };
                    let fall = if cond == Cond::Always {
                        None
                    } else {
                        push_leader(pc + 8, &mut worklist);
                        Some(pc + 8)
                    };
                    CtiSucc::Branch {
                        cond,
                        annul,
                        taken,
                        fall,
                    }
                }
                Op::Call { disp30 } => {
                    // Out of the extent, or a recursive call to an entry
                    // of this routine: an escape either way.
                    let target = pc.wrapping_add((disp30 as u32) << 2);
                    call_sites.push((pc, target));
                    escape_targets.push(target);
                    push_leader(pc + 8, &mut worklist);
                    CtiSucc::Call
                }
                Op::Jmpl { .. } => match insn.jump_kind() {
                    Some(JumpKind::Return) => CtiSucc::Return,
                    Some(JumpKind::IndirectCall) => {
                        let resolution =
                            resolve_indirect(image, extent, pc, insn, &mut external_reads);
                        if let JumpResolution::Literal { target, .. } = &resolution {
                            escape_targets.push(*target);
                        }
                        indirect_calls.push(IndirectJumpInfo {
                            addr: pc,
                            resolution,
                        });
                        push_leader(pc + 8, &mut worklist);
                        CtiSucc::Call
                    }
                    _ => {
                        let resolution =
                            resolve_indirect(image, extent, pc, insn, &mut external_reads);
                        match &resolution {
                            JumpResolution::Table {
                                table_addr,
                                targets,
                                ..
                            } => {
                                let table_end = table_addr + 4 * targets.len() as u32;
                                data_ranges.push(DataRange {
                                    start: *table_addr,
                                    end: table_end.min(end),
                                });
                                // Tables are word-aligned (`resolve_indirect`).
                                let table = (*table_addr..table_end.min(end)).step_by(4);
                                for k in table.filter_map(slot) {
                                    in_table[k] = true;
                                }
                                for &t in targets {
                                    match classify(t) {
                                        Target::In(a) => push_leader(a, &mut worklist),
                                        Target::Out(a) => escape_targets.push(a),
                                    }
                                }
                            }
                            JumpResolution::Literal { target, .. } => match classify(*target) {
                                Target::In(a) => push_leader(a, &mut worklist),
                                Target::Out(a) => escape_targets.push(a),
                            },
                            JumpResolution::Unknown => incomplete = true,
                        }
                        indirect_jumps.push(IndirectJumpInfo {
                            addr: pc,
                            resolution: resolution.clone(),
                        });
                        CtiSucc::IndirectJump { resolution }
                    }
                },
                _ => unreachable!("is_delayed covers branch/call/jmpl"),
            };
            cti_at[i] = Some(ctis.len() as u32);
            ctis.push(CtiRec { delay, succ });
            break;
        }
    }

    // ---- phase 2: materialize blocks (delay-slot normalization) --------

    drop(scan_obs);
    let _obs = eel_obs::span("core.cfg.normalize");
    let mut cfg = ShapeDraft {
        entries: entries.to_vec(),
        calls: call_sites,
        indirect_jumps,
        indirect_calls,
        incomplete,
        ..ShapeDraft::default()
    };
    let entry = cfg.push_block(BlockKind::Entry, start, true);
    let exit = cfg.push_block(BlockKind::Exit, end, false);

    // Covered leaders start normal blocks, in address order. Measure each
    // and record how it ends.
    enum Ending {
        Cti(u32, usize),
        FallTo(u32),
        DeadEnd,
    }
    let is_block = |f: u8| f & (LEADER | COVERED) == LEADER | COVERED;
    let mut block_at: Vec<Option<BlockId>> = vec![None; words];
    let mut endings: Vec<(BlockId, Ending)> = Vec::new();
    for i in (0..words).filter(|&i| is_block(flags[i])) {
        let leader = base + 4 * i as u32;
        let bid = cfg.push_block(BlockKind::Normal, leader, true);
        block_at[i] = Some(bid);
        let mut pc = leader;
        let ending = loop {
            let Some(j) = slot(pc) else {
                break Ending::DeadEnd;
            };
            if pc != leader && is_block(flags[j]) {
                break Ending::FallTo(pc);
            }
            if in_table[j] || flags[j] & COVERED == 0 {
                break Ending::DeadEnd;
            }
            pc += 4;
            if let Some(k) = cti_at[j] {
                break Ending::Cti(pc - 4, k as usize);
            }
            if flags[j] & INVALID != 0 {
                break Ending::DeadEnd;
            }
        };
        cfg.normal_len.push((pc - leader) / 4);
        endings.push((bid, ending));
    }
    let block_of = |a: u32| slot(a).and_then(|i| block_at[i]);

    // Entry edges.
    for &e in entries {
        if let Some(b) = block_of(e) {
            cfg.add_edge(entry, b, EdgeKind::Fall, true);
        }
    }

    // Successor structure per ending.
    for (bid, ending) in endings {
        match ending {
            Ending::DeadEnd => {}
            Ending::FallTo(a) => {
                if let Some(to) = block_of(a) {
                    cfg.add_edge(bid, to, EdgeKind::Fall, true);
                }
            }
            Ending::Cti(addr, k) => {
                connect_cti(&mut cfg, &block_of, bid, addr, &ctis[k], exit, in_extent);
            }
        }
    }

    // ---- trailing unreachable region (hidden routine candidate) --------
    let last_used = flags
        .iter()
        .rposition(|f| f & COVERED != 0)
        .map_or(start, |i| base + 4 * i as u32 + 4); // delay slots are covered too
    let last_data = data_ranges.iter().map(|r| r.end).max().unwrap_or(start);
    let mut tail = last_used.max(last_data).max(start);
    // Skip padding (invalid words) to the first plausible instruction.
    let mut trailing_unreachable = None;
    while tail < end {
        let word = image.word_at(tail).unwrap_or(0);
        if eel_isa::decode(word).category() != eel_isa::Category::Invalid {
            trailing_unreachable = Some(tail);
            break;
        }
        tail += 4;
    }

    escape_targets.sort_unstable();
    escape_targets.dedup();
    Ok(BuildOutput {
        draft: cfg,
        trailing_unreachable,
        escape_targets,
        external_reads,
    })
}

/// Creates a delay-slot block holding `delay` on the way from `from`,
/// returning it (or `from` when there is no delay instruction to place).
fn delay_block(
    cfg: &mut ShapeDraft,
    from: BlockId,
    site: u32,
    delay: Option<Insn>,
    kind: EdgeKind,
    editable: bool,
) -> BlockId {
    match delay {
        Some(_) => {
            let b = cfg.push_block(BlockKind::DelaySlot, site + 4, editable);
            cfg.add_edge(from, b, kind, editable);
            b
        }
        None => from,
    }
}

/// Connects the block ending in the transfer at `addr`; `target_block`
/// resolves an in-routine address to its block (present iff covered).
fn connect_cti(
    cfg: &mut ShapeDraft,
    target_block: &impl Fn(u32) -> Option<BlockId>,
    bid: BlockId,
    addr: u32,
    rec: &CtiRec,
    exit: BlockId,
    in_extent: impl Fn(u32) -> bool,
) {
    let delay = rec.delay;

    match &rec.succ {
        CtiSucc::Branch {
            cond,
            annul,
            taken,
            fall,
        } => {
            // Taken path.
            if let Some(t) = taken {
                // Delay executes on the taken path unless `ba,a`.
                let executes = !(*annul && *cond == Cond::Always);
                let src = if executes {
                    delay_block(cfg, bid, addr, delay, EdgeKind::Taken, true)
                } else {
                    bid
                };
                let kind_from_src = if src == bid {
                    EdgeKind::Taken
                } else {
                    EdgeKind::Fall
                };
                match t {
                    Target::In(a) => {
                        if let Some(tb) = target_block(*a) {
                            cfg.add_edge(src, tb, kind_from_src, true);
                        }
                    }
                    Target::Out(a) => {
                        // Interprocedural branch: escapes the routine.
                        if src != bid {
                            // delay block on an escaping path is uneditable
                            cfg.fix_block(src);
                        }
                        cfg.add_edge(src, exit, EdgeKind::Escape { target: *a }, false);
                    }
                }
            }
            // Fall-through path.
            if let Some(f) = fall {
                // Delay executes on fall-through only if not annulled.
                let src = if !*annul {
                    delay_block(cfg, bid, addr, delay, EdgeKind::Fall, true)
                } else {
                    bid
                };
                if let Some(fb) = target_block(*f) {
                    cfg.add_edge(src, fb, EdgeKind::Fall, true);
                } else if !in_extent(*f) {
                    cfg.add_edge(src, exit, EdgeKind::Escape { target: *f }, false);
                }
            }
        }
        CtiSucc::Call => {
            // block → delay (uneditable) → surrogate → return site.
            let dly = delay_block(cfg, bid, addr, delay, EdgeKind::CallFlow, false);
            if dly != bid {
                cfg.fix_block(dly);
            }
            let surr = cfg.push_block(BlockKind::CallSurrogate, addr, false);
            cfg.add_edge(dly, surr, EdgeKind::CallFlow, false);
            let ret_site = addr + 8;
            if let Some(rb) = target_block(ret_site) {
                cfg.add_edge(surr, rb, EdgeKind::Fall, true);
            } else {
                // Callee never returns here (e.g. call at extent end).
                cfg.add_edge(surr, exit, EdgeKind::Fall, false);
            }
        }
        CtiSucc::Return => {
            let dly = delay_block(cfg, bid, addr, delay, EdgeKind::ReturnFlow, false);
            if dly != bid {
                cfg.fix_block(dly);
            }
            cfg.add_edge(dly, exit, EdgeKind::ReturnFlow, false);
        }
        CtiSucc::IndirectJump { resolution } => match resolution {
            JumpResolution::Table { targets, .. } => {
                let mut distinct = targets.clone();
                distinct.sort_unstable();
                distinct.dedup();
                for t in distinct {
                    let dly = delay_block(cfg, bid, addr, delay, EdgeKind::Table, true);
                    match target_block(t) {
                        Some(tb) => {
                            let kind = if dly == bid {
                                EdgeKind::Table
                            } else {
                                EdgeKind::Fall
                            };
                            cfg.add_edge(dly, tb, kind, true);
                        }
                        None => {
                            if dly != bid {
                                cfg.fix_block(dly);
                            }
                            cfg.add_edge(dly, exit, EdgeKind::Escape { target: t }, false);
                        }
                    }
                }
            }
            JumpResolution::Literal { target, .. } => {
                let dly = delay_block(cfg, bid, addr, delay, EdgeKind::Taken, true);
                match target_block(*target) {
                    Some(tb) => {
                        let kind = if dly == bid {
                            EdgeKind::Taken
                        } else {
                            EdgeKind::Fall
                        };
                        cfg.add_edge(dly, tb, kind, true);
                    }
                    None => {
                        if dly != bid {
                            cfg.fix_block(dly);
                        }
                        cfg.add_edge(dly, exit, EdgeKind::Escape { target: *target }, false);
                    }
                }
            }
            JumpResolution::Unknown => {
                let dly = delay_block(cfg, bid, addr, delay, EdgeKind::RuntimeIndirect, false);
                if dly != bid {
                    cfg.fix_block(dly);
                }
                cfg.add_edge(dly, exit, EdgeKind::RuntimeIndirect, false);
            }
        },
    }
}
