//! The machine-dispatch seam.
//!
//! The paper's claim (§2) is that EEL's analyses are machine-independent:
//! everything ISA-specific sits behind a small description-derived layer.
//! [`MachineOps`] is that layer's interface in this reproduction — the
//! complete set of questions routine discovery, CFG construction,
//! liveness, disassembly, and eel-strip's prologue rule ask of a machine.
//! [`machine_ops`] dispatches on the WEF header's machine tag.
//!
//! Two implementations exist today:
//!
//! * [`Machine::Sparc`]: the hand-built `eel-isa` decoder (the seed
//!   backend, kept byte-for-byte compatible with the original pipeline).
//! * [`Machine::Mips`]: derived entirely from
//!   `crates/spawn/descriptions/mips.spawn` by `eel-spawn` — zero
//!   handwritten MIPS decode logic lives in this crate or `eel-isa`.
//!
//! Porting to a third machine (alpha) means writing a description and
//! adding a `machine_ops` arm; `docs/MACHINES.md` walks through it.

use crate::error::EelError;
use eel_exe::{Image, Machine};
use eel_isa::{write_dec, write_hex, Cond, Op, Reg, RegSet};
use std::sync::OnceLock;

/// What a machine word does to control flow — the classification every
/// machine-independent analysis in this crate consumes. The grouping
/// deliberately mirrors §4's spawn classes, flattened to what CFG
/// construction actually branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsnKind {
    /// Falls through to the next instruction (computation, load, store,
    /// system — anything that is not a transfer).
    Fall,
    /// Conditional PC-relative transfer: taken edge to `target`, plus a
    /// fall-through edge.
    Branch {
        /// Taken-edge target.
        target: u32,
    },
    /// Unconditional direct transfer. `links` distinguishes calls
    /// (SPARC `call`, MIPS `jal`) from plain jumps (`ba`, `j`).
    Jump {
        /// Transfer target.
        target: u32,
        /// Does the instruction save a return address?
        links: bool,
    },
    /// Register-indirect transfer (SPARC `jmpl`, MIPS `jr`/`jalr`).
    IndirectJump {
        /// Does the instruction save a return address?
        links: bool,
    },
    /// No valid decoding: data masquerading as code (§3.1's signal).
    Invalid,
}

/// The per-machine operations the machine-independent layers dispatch
/// through. Everything takes raw words (plus a pc where encodings are
/// PC-relative) so implementations stay stateless and `'static`.
pub trait MachineOps: Send + Sync {
    /// Which machine this implements.
    fn machine(&self) -> Machine;

    /// Control-flow classification of one word.
    fn kind(&self, word: u32, pc: u32) -> InsnKind;

    /// Does this instruction have an architectural delay slot? (On both
    /// SPARC V8 and MIPS-I every delayed transfer exposes one; a machine
    /// without delay slots — alpha — returns `false` throughout.)
    fn has_delay_slot(&self, word: u32, pc: u32) -> bool;

    /// Registers the instruction reads. Register `k` is the `k`-th
    /// register the machine's description declares, counting an array's
    /// elements in order: `R[32]` is 0–31, then the scalars (SPARC's
    /// `ICC` is 32 and `Y` 33; MIPS's `HI` is 32 and `LO` 33). The
    /// hardwired zero register is never reported.
    fn reads(&self, word: u32) -> RegSet;

    /// Registers the instruction writes (numbered as for
    /// [`MachineOps::reads`]).
    fn writes(&self, word: u32) -> RegSet;

    /// The machine-conventional spelling of a register (`%o0` on SPARC,
    /// `$4`/`$hi` on MIPS), for rendering output.
    fn reg_name(&self, r: Reg) -> String;

    /// Appends one line of disassembly, without its newline, to `out`,
    /// in the machine's conventional syntax.
    fn disasm(&self, word: u32, pc: u32, out: &mut String);

    /// Does a compiler-shaped routine prologue start at `addr`? This is
    /// the signature eel-strip's inference rule 3 keys on; per-machine
    /// shapes are tabulated in `docs/STRIPPED.md`.
    fn is_prologue(&self, image: &Image, addr: u32) -> bool;
}

/// The ops table for a machine tag.
///
/// # Panics
///
/// For a tag with no registered backend (alpha). Routine discovery
/// rejects such images first, so every analysis of an image that got
/// that far has a backend.
pub fn machine_ops(machine: Machine) -> &'static dyn MachineOps {
    backend(machine).unwrap_or_else(|e| panic!("{e}"))
}

/// The ops table for a machine tag, or [`EelError::BadImage`] for a tag
/// with no registered backend.
pub(crate) fn backend(machine: Machine) -> Result<&'static dyn MachineOps, EelError> {
    eel_obs::counter!("core.machine.dispatch").add(1);
    match machine {
        Machine::Sparc => Ok(&SparcOps),
        Machine::Mips => Ok(&MipsOps),
        // Registering alpha here (backed by an `alpha.spawn` description)
        // is the final step of the MACHINES.md porting recipe.
        Machine::Alpha => Err(EelError::BadImage(
            "no alpha backend registered yet (see docs/MACHINES.md)".into(),
        )),
    }
}

/// SPARC V8 via the hand-built `eel-isa` layer.
struct SparcOps;

impl MachineOps for SparcOps {
    fn machine(&self) -> Machine {
        Machine::Sparc
    }

    fn kind(&self, word: u32, pc: u32) -> InsnKind {
        let insn = eel_isa::decode(word);
        match insn.op {
            Op::Call { disp30 } => InsnKind::Jump {
                target: pc.wrapping_add((disp30 as u32) << 2),
                links: true,
            },
            // `bn` (branch never) is an elaborate nop; `ba` is an
            // unconditional jump. Both orderings here keep discovery's
            // branch-edge set identical to the pre-seam pipeline.
            Op::Branch {
                cond: Cond::Never, ..
            } => InsnKind::Fall,
            Op::Branch {
                cond: Cond::Always,
                disp22,
                ..
            } => InsnKind::Jump {
                target: pc.wrapping_add((disp22 as u32) << 2),
                links: false,
            },
            Op::Branch { disp22, .. } => InsnKind::Branch {
                target: pc.wrapping_add((disp22 as u32) << 2),
            },
            Op::Jmpl { rd, .. } => InsnKind::IndirectJump {
                links: rd != Reg::G0,
            },
            Op::Invalid => InsnKind::Invalid,
            _ => InsnKind::Fall,
        }
    }

    fn has_delay_slot(&self, word: u32, _pc: u32) -> bool {
        eel_isa::decode(word).is_delayed()
    }

    fn reads(&self, word: u32) -> RegSet {
        eel_isa::decode(word).reads()
    }

    fn writes(&self, word: u32) -> RegSet {
        eel_isa::decode(word).writes()
    }

    fn reg_name(&self, r: Reg) -> String {
        r.name()
    }

    fn disasm(&self, word: u32, _pc: u32, out: &mut String) {
        let _ = eel_isa::decode(word).write_to(out);
    }

    fn is_prologue(&self, image: &Image, addr: u32) -> bool {
        eel_strip::is_prologue(image, addr)
    }
}

/// MIPS-I, derived from `mips.spawn` — no handwritten decode tables.
struct MipsOps;

/// The process-wide spawn-derived MIPS machine (shared with eel-emu).
pub(crate) fn mips_machine() -> &'static eel_spawn::Machine {
    eel_spawn::shared_mips_machine(|| eel_obs::counter!("spawn.machine.built").add(1))
}

/// The operand fields MIPS disassembly spells, in output order: the
/// register fields, then the immediate.
const MIPS_DISASM_FIELDS: [&str; 4] = ["rs", "rt", "rdf", "imm16"];

/// [`MIPS_DISASM_FIELDS`] by declaration index, resolved once.
fn mips_listing() -> &'static [usize; 4] {
    static LISTING: OnceLock<[usize; 4]> = OnceLock::new();
    LISTING.get_or_init(|| {
        let fields = &mips_machine().description().fields;
        MIPS_DISASM_FIELDS.map(|name| {
            fields
                .iter()
                .position(|f| f.name == name)
                .unwrap_or_else(|| panic!("mips.spawn declares field {name}"))
        })
    })
}

impl MachineOps for MipsOps {
    fn machine(&self) -> Machine {
        Machine::Mips
    }

    fn kind(&self, word: u32, pc: u32) -> InsnKind {
        let m = mips_machine();
        let Some(d) = m.decode(word) else {
            return InsnKind::Invalid;
        };
        match d.spec.class {
            eel_spawn::Class::DirectJump => match m.static_target(&d, pc) {
                Some(target) => InsnKind::Jump {
                    target,
                    links: d.spec.links,
                },
                None => InsnKind::IndirectJump {
                    links: d.spec.links,
                },
            },
            eel_spawn::Class::Branch => match m.static_target(&d, pc) {
                Some(target) => InsnKind::Branch { target },
                // A branch whose target the evaluator cannot fold is a
                // description bug, not a program property; be conservative.
                None => InsnKind::IndirectJump { links: false },
            },
            eel_spawn::Class::IndirectJump => InsnKind::IndirectJump {
                links: d.spec.links,
            },
            eel_spawn::Class::Invalid => InsnKind::Invalid,
            _ => InsnKind::Fall,
        }
    }

    fn has_delay_slot(&self, word: u32, _pc: u32) -> bool {
        // MIPS-I: every transfer is delayed, with no annul bit.
        use eel_spawn::Class::{Branch, DirectJump, IndirectJump};
        let class = mips_machine().decode(word).map(|d| d.spec.class);
        matches!(class, Some(DirectJump | Branch | IndirectJump))
    }

    fn reads(&self, word: u32) -> RegSet {
        let m = mips_machine();
        m.decode(word).map_or_else(RegSet::new, |d| m.reads(&d))
    }

    fn writes(&self, word: u32) -> RegSet {
        let m = mips_machine();
        m.decode(word).map_or_else(RegSet::new, |d| m.writes(&d))
    }

    fn reg_name(&self, r: Reg) -> String {
        match mips_machine().register(r) {
            Some(("R", i)) => format!("${i}"),
            Some((set, _)) => format!("${}", set.to_ascii_lowercase()),
            None => format!("$r{}", r.index()),
        }
    }

    fn disasm(&self, word: u32, pc: u32, out: &mut String) {
        let m = mips_machine();
        let Some(d) = m.decode(word) else {
            out.push_str(".word 0x");
            let _ = write_hex(out, word, 8);
            return;
        };
        if word == 0 {
            out.push_str("nop");
            return;
        }
        out.push_str(&d.spec.name);
        // Operand spelling straight from the description's field values:
        // terse, but mechanical for any described machine.
        let fields = &m.description().fields;
        let [regs @ .., imm] = mips_listing();
        let mut sep = " ";
        let mut operand = |out: &mut String| {
            out.push_str(sep);
            sep = ", ";
        };
        for &k in regs {
            if d.spec.operand_fields & (1 << k) != 0 {
                operand(out);
                out.push('$');
                let _ = write_dec(out, fields[k].extract(word).into());
            }
        }
        // Branches skip the immediate: the folded `-> target` below says
        // more than the raw displacement.
        if d.spec.mentioned_fields & (1 << imm) != 0
            && !matches!(d.spec.class, eel_spawn::Class::Branch)
        {
            operand(out);
            let _ = write_dec(out, (fields[*imm].extract(word) as u16 as i16).into());
        }
        if let Some(target) = m.static_target(&d, pc) {
            operand(out);
            out.push_str("-> 0x");
            let _ = write_hex(out, target, 1);
        }
    }

    fn is_prologue(&self, image: &Image, addr: u32) -> bool {
        // The MIPS compiler prologue signature (docs/STRIPPED.md):
        //   addiu $sp, $sp, -frame      (op 9, rs = rt = 29, imm < 0)
        // followed within two words by
        //   sw $ra, off($sp)            (op 43, base 29, rt 31, small off)
        let Some(w0) = image.word_at(addr) else {
            return false;
        };
        let is_sp_drop = w0 >> 26 == 9
            && (w0 >> 21) & 31 == 29
            && (w0 >> 16) & 31 == 29
            && (w0 as u16 as i16) < 0;
        if !is_sp_drop {
            return false;
        }
        (1..=2).any(|k| {
            image.word_at(addr + 4 * k).is_some_and(|w| {
                w >> 26 == 43
                    && (w >> 21) & 31 == 29
                    && (w >> 16) & 31 == 31
                    && (0..256).contains(&(w as u16 as i16))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disasm(ops: &dyn MachineOps, word: u32, pc: u32) -> String {
        let mut out = String::new();
        ops.disasm(word, pc, &mut out);
        out
    }

    #[test]
    fn sparc_kinds_match_isa() {
        let ops = machine_ops(Machine::Sparc);
        assert_eq!(ops.machine(), Machine::Sparc);
        // call .+8
        let call = eel_isa::encode(&Op::Call { disp30: 2 });
        assert_eq!(
            ops.kind(call, 0x1000),
            InsnKind::Jump {
                target: 0x1008,
                links: true
            }
        );
        assert!(ops.has_delay_slot(call, 0x1000));
        // A nop falls through and reads/writes nothing interesting.
        assert_eq!(ops.kind(0x0100_0000, 0x1000), InsnKind::Fall);
        assert!(disasm(ops, 0x0100_0000, 0).contains("nop"));
    }

    #[test]
    fn mips_kinds_from_description() {
        let ops = machine_ops(Machine::Mips);
        assert_eq!(ops.machine(), Machine::Mips);
        // beq $0, $0, .+4 → branch, target pc+8.
        assert_eq!(
            ops.kind(0x1000_0001, 0x1000),
            InsnKind::Branch { target: 0x1008 }
        );
        // j 0x10000 (target26 = 0x4000)
        assert_eq!(
            ops.kind((2 << 26) | 0x4000, 0x1000),
            InsnKind::Jump {
                target: 0x10000,
                links: false
            }
        );
        // jal links, jr is an indirect jump, addu falls through.
        assert!(matches!(
            ops.kind((3 << 26) | 0x4000, 0x1000),
            InsnKind::Jump { links: true, .. }
        ));
        assert_eq!(
            ops.kind(0x03e0_0008, 0),
            InsnKind::IndirectJump { links: false }
        );
        assert_eq!(ops.kind(0x0085_1021, 0), InsnKind::Fall);
        assert!(ops.has_delay_slot(0x1000_0001, 0x1000));
        assert!(!ops.has_delay_slot(0x0085_1021, 0));
    }

    #[test]
    fn mips_reads_writes_have_machine_names() {
        let ops = machine_ops(Machine::Mips);
        let spell = |set: RegSet| set.iter().map(|r| ops.reg_name(r)).collect::<Vec<_>>();
        // addu $v0, $a0, $a1
        assert_eq!(spell(ops.reads(0x0085_1021)), ["$4", "$5"]);
        assert_eq!(spell(ops.writes(0x0085_1021)), ["$2"]);
        // mflo $a0 reads $lo, register 33 after R[32] and HI.
        assert_eq!(ops.reads(0x0000_2012), RegSet::of(&[Reg(33)]));
        assert_eq!(ops.reg_name(Reg(33)), "$lo");
        assert_eq!(ops.reg_name(Reg(32)), "$hi");
    }

    #[test]
    fn mips_disasm_names_instructions() {
        let ops = machine_ops(Machine::Mips);
        assert!(disasm(ops, 0x0085_1021, 0).starts_with("addu"));
        assert_eq!(disasm(ops, 0, 0), "nop");
        assert!(disasm(ops, 0x03e0_0008, 0).starts_with("jr"));
        // An undecodable word prints as data.
        assert_eq!(disasm(ops, 0xffff_ffff, 0), ".word 0xffffffff");
    }

    #[test]
    fn mips_prologue_signature() {
        use eel_exe::{DATA_BASE, TEXT_BASE};
        let mut image = Image::new(TEXT_BASE, DATA_BASE).with_machine(Machine::Mips);
        // addiu $sp,$sp,-24; sw $ra,20($sp); jr $ra; nop
        for w in [0x27bd_ffe8u32, 0xafbf_0014, 0x03e0_0008, 0] {
            image.text.extend_from_slice(&w.to_be_bytes());
        }
        let ops = machine_ops(Machine::Mips);
        assert!(ops.is_prologue(&image, TEXT_BASE));
        assert!(!ops.is_prologue(&image, TEXT_BASE + 8));
    }
}
