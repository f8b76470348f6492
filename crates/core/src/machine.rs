//! The machine-dispatch seam.
//!
//! The paper's claim (§2) is that EEL's analyses are machine-independent:
//! everything ISA-specific sits behind a small description-derived layer.
//! [`MachineOps`] is that layer's interface in this reproduction — the
//! complete set of questions routine discovery, CFG construction,
//! liveness, disassembly, and eel-strip's prologue rule ask of a machine.
//! [`machine_ops`] dispatches on the WEF header's machine tag. One CFG
//! builder, one liveness solver and one set of service renderers serve
//! every machine through it.
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

use crate::analysis::jumptable::{resolve_indirect, JumpResolution};
use crate::error::EelError;
use eel_exe::{Image, Machine};
use eel_isa::{write_dec, write_hex, Category, Cond, JumpKind, Op, Reg, RegSet};
use std::sync::OnceLock;

/// How one word moves control: every question §3.1 routine discovery,
/// CFG construction (§3.3) and the block-counter rewriter ask of a
/// machine about it. The grouping mirrors §4's spawn classes, split
/// where delay-slot normalization needs it. Each transfer here is
/// delayed, as every transfer is on both described machines; the
/// builder normalizes its delay slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Not a transfer: executes and falls through.
    Straight,
    /// No valid decoding: a reached one dead-ends its block (§3.1 stage 4).
    Invalid,
    /// A PC-relative branch (SPARC `b*`, MIPS `beq`; also MIPS `j`,
    /// which always takes).
    Branch {
        /// Taken-edge target.
        target: u32,
        /// Which of its two edges the branch can take.
        cond: BranchCond,
        /// Does the delay slot execute only when the branch is taken
        /// (never for an always-taken one)? SPARC's annul bit; MIPS-I
        /// has none.
        annul: bool,
    },
    /// A call (SPARC `call` or `jmpl` linking `%o7`, MIPS `jal`/`jalr`).
    Call {
        /// The callee, when the call is direct.
        target: Option<u32>,
    },
    /// A subroutine return (SPARC `ret`/`retl`, MIPS `jr $31`).
    Return,
    /// Any other register-indirect jump: a dispatch through a table, or
    /// one that [`MachineOps::resolve_jump`] may fold to a constant.
    IndirectJump,
}

impl Flow {
    /// Is this a (delayed) control transfer?
    pub fn is_delayed(self) -> bool {
        !matches!(self, Flow::Straight | Flow::Invalid)
    }
}

/// Which edges a [`Flow::Branch`] has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchCond {
    /// Never taken (SPARC `bn`): falls through only.
    Never,
    /// Always taken (SPARC `ba`, MIPS `j`): no fall-through.
    Always,
    /// Either edge.
    Maybe,
}

/// The calling-convention knowledge liveness needs (the paper notes
/// spawn leaves conventions to "additional processing"). A machine with
/// no convention answers empty sets: a call is then transparent to
/// liveness and nothing is live at routine exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Convention {
    /// Registers a callee may read, assumed at a call surrogate.
    pub call_uses: RegSet,
    /// Registers a callee may clobber.
    pub call_defs: RegSet,
    /// Registers conservatively live at routine exit.
    pub exit_live: RegSet,
}

/// The per-machine operations the machine-independent layers dispatch
/// through. Everything takes raw words (plus a pc where encodings are
/// PC-relative) so implementations stay stateless and `'static`.
pub trait MachineOps: Send + Sync {
    /// Which machine this implements.
    fn machine(&self) -> Machine;

    /// How one word moves control.
    fn flow(&self, word: u32, pc: u32) -> Flow;

    /// §3.3's resolution of the indirect jump or call `word` at `pc`
    /// inside the routine `extent`, which may read other words of the
    /// image; `external_reads` is set when one lay outside the extent.
    fn resolve_jump(
        &self,
        image: &Image,
        extent: (u32, u32),
        pc: u32,
        word: u32,
        external_reads: &mut bool,
    ) -> JumpResolution;

    /// The registers the instruction reads, then those it writes.
    /// Register `k` is the `k`-th register the machine's description
    /// declares, counting an array's elements in order: `R[32]` is 0–31,
    /// then the scalars (SPARC's `ICC` is 32 and `Y` 33; MIPS's `HI` is
    /// 32 and `LO` 33). The hardwired zero register is never reported.
    fn regs(&self, word: u32) -> (RegSet, RegSet);

    /// The calling convention liveness assumes.
    fn convention(&self) -> Convention;

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

    fn flow(&self, word: u32, pc: u32) -> Flow {
        let insn = eel_isa::decode(word);
        match insn.op {
            // FP branches are never emitted; they count as two-way
            // branches on an unknown condition.
            Op::Branch {
                cond,
                annul,
                disp22,
                ..
            } => Flow::Branch {
                target: pc.wrapping_add((disp22 as u32) << 2),
                cond: match cond {
                    Cond::Never => BranchCond::Never,
                    Cond::Always => BranchCond::Always,
                    _ => BranchCond::Maybe,
                },
                annul,
            },
            Op::Call { disp30 } => Flow::Call {
                target: Some(pc.wrapping_add((disp30 as u32) << 2)),
            },
            Op::Jmpl { .. } => match insn.jump_kind() {
                Some(JumpKind::Return) => Flow::Return,
                Some(JumpKind::IndirectCall) => Flow::Call { target: None },
                _ => Flow::IndirectJump,
            },
            _ if insn.category() == Category::Invalid => Flow::Invalid,
            _ => Flow::Straight,
        }
    }

    fn resolve_jump(
        &self,
        image: &Image,
        extent: (u32, u32),
        pc: u32,
        word: u32,
        external_reads: &mut bool,
    ) -> JumpResolution {
        let jump = eel_isa::decode(word);
        resolve_indirect(image, extent, pc, jump, external_reads)
    }

    fn regs(&self, word: u32) -> (RegSet, RegSet) {
        let insn = eel_isa::decode(word);
        (insn.reads(), insn.writes())
    }

    fn convention(&self) -> Convention {
        sparc_convention()
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

/// SPARC's flat calling convention: arguments in `%o0–%o5`, everything
/// caller-saved except `%sp`/`%fp`/`%i*`.
pub(crate) fn sparc_convention() -> Convention {
    let set = |fixed: &[Reg], more: std::ops::Range<u8>| {
        let mut s = RegSet::of(fixed);
        more.for_each(|r| s.insert(Reg(r)));
        s
    };
    Convention {
        // A callee's arguments (%o0-%o5) and the stack pointer.
        call_uses: set(&[Reg::SP, Reg::O7], 8..14),
        // Globals, out-registers, locals, condition codes and %y.
        call_defs: set(&[Reg::ICC, Reg::Y, Reg::O7], 1..14).union(set(&[], 16..24)),
        // The result pair, the stack and frame pointers, the
        // in-registers and the return path.
        exit_live: set(&[Reg::O0, Reg(9), Reg::SP, Reg::FP, Reg::O7], 24..32),
    }
}

/// MIPS-I, derived from `mips.spawn` — no handwritten decode tables.
struct MipsOps;

/// The process-wide spawn-derived MIPS machine (shared with eel-emu).
pub(crate) fn mips_machine() -> &'static eel_spawn::Machine {
    eel_spawn::shared_mips_machine(|| eel_obs::counter!("spawn.machine.built").add(1))
}

/// The operand fields MIPS disassembly spells, in output order: the
/// register fields, the shift amount, then the immediate.
const MIPS_DISASM_FIELDS: [&str; 5] = ["rs", "rt", "rdf", "shamt", "imm16"];

/// [`MIPS_DISASM_FIELDS`] by declaration index, resolved once.
fn mips_listing() -> &'static [usize; 5] {
    static LISTING: OnceLock<[usize; 5]> = OnceLock::new();
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

    fn flow(&self, word: u32, pc: u32) -> Flow {
        // MIPS-I: every transfer is delayed, with no annul bit.
        use eel_spawn::Class;
        let m = mips_machine();
        let Some(d) = m.decode(word) else {
            return Flow::Invalid;
        };
        let transfer = |cond| match m.static_target(&d, pc) {
            Some(target) => Flow::Branch {
                target,
                cond,
                annul: false,
            },
            // A target the evaluator cannot fold is a description bug,
            // not a program property; be conservative.
            None => Flow::IndirectJump,
        };
        match d.spec.class {
            Class::DirectJump | Class::IndirectJump if d.spec.links => Flow::Call {
                target: m.static_target(&d, pc),
            },
            Class::Branch => transfer(BranchCond::Maybe),
            Class::DirectJump => transfer(BranchCond::Always),
            // `jr $31` returns through the register `jal` links.
            Class::IndirectJump if m.reads(&d) == RegSet::of(&[Reg(31)]) => Flow::Return,
            Class::IndirectJump => Flow::IndirectJump,
            Class::Invalid => Flow::Invalid,
            _ => Flow::Straight,
        }
    }

    fn resolve_jump(
        &self,
        _: &Image,
        _: (u32, u32),
        _: u32,
        _: u32,
        _: &mut bool,
    ) -> JumpResolution {
        // The MIPS generator emits compare chains, never dispatch tables.
        JumpResolution::Unknown
    }

    fn regs(&self, word: u32) -> (RegSet, RegSet) {
        let m = mips_machine();
        m.decode(word)
            .map_or_else(Default::default, |d| (m.reads(&d), m.writes(&d)))
    }

    fn convention(&self) -> Convention {
        // No convention yet: a `jal` is straight-line code to liveness.
        Convention::default()
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
        let [regs @ .., shamt, imm] = mips_listing();
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
        if d.spec.mentioned_fields & (1 << shamt) != 0 {
            operand(out);
            let _ = write_dec(out, fields[*shamt].extract(word).into());
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
    fn sparc_flow_matches_isa() {
        let ops = machine_ops(Machine::Sparc);
        assert_eq!(ops.machine(), Machine::Sparc);
        // call .+8
        let call = eel_isa::encode(&Op::Call { disp30: 2 });
        assert_eq!(
            ops.flow(call, 0x1000),
            Flow::Call {
                target: Some(0x1008)
            }
        );
        // A nop falls through.
        assert_eq!(ops.flow(0x0100_0000, 0x1000), Flow::Straight);
        // `bn` is a branch that never takes (it has a delay slot);
        // `ret` is a return.
        let bn = eel_isa::encode(&Op::Branch {
            cond: Cond::Never,
            annul: false,
            disp22: 4,
            fp: false,
        });
        assert_eq!(
            ops.flow(bn, 0x1000),
            Flow::Branch {
                target: 0x1010,
                cond: BranchCond::Never,
                annul: false
            }
        );
        assert_eq!(ops.flow(0x81c7_e008, 0), Flow::Return);
        assert!(disasm(ops, 0x0100_0000, 0).contains("nop"));
    }

    #[test]
    fn mips_flow_from_description() {
        let ops = machine_ops(Machine::Mips);
        assert_eq!(ops.machine(), Machine::Mips);
        // `beq $0, $0, .+4` may go either way (to pc+8) with no annul
        // bit, `j 0x10000` (target26 = 0x4000) always takes, `jal` calls,
        // `jr $31` returns, `jalr` is an indirect call, `jr $5` an
        // indirect jump and `addu` falls through.
        assert_eq!(
            ops.flow(0x1000_0001, 0x1000),
            Flow::Branch {
                target: 0x1008,
                cond: BranchCond::Maybe,
                annul: false
            }
        );
        assert_eq!(
            ops.flow((2 << 26) | 0x4000, 0x1000),
            Flow::Branch {
                target: 0x10000,
                cond: BranchCond::Always,
                annul: false
            }
        );
        assert_eq!(
            ops.flow((3 << 26) | 0x4000, 0x1000),
            Flow::Call {
                target: Some(0x10000)
            }
        );
        assert_eq!(ops.flow(0x03e0_0008, 0), Flow::Return);
        assert_eq!(ops.flow(0x00a0_f809, 0), Flow::Call { target: None });
        assert_eq!(ops.flow(0x00a0_0008, 0), Flow::IndirectJump);
        assert_eq!(ops.flow(0x0085_1021, 0), Flow::Straight);
        assert_eq!(ops.flow(0xffff_ffff, 0), Flow::Invalid);
        assert!(ops.flow(0x1000_0001, 0x1000).is_delayed());
        assert!(!ops.flow(0x0085_1021, 0).is_delayed());
    }

    #[test]
    fn mips_reads_writes_have_machine_names() {
        let ops = machine_ops(Machine::Mips);
        let spell = |set: RegSet| set.iter().map(|r| ops.reg_name(r)).collect::<Vec<_>>();
        // addu $v0, $a0, $a1
        let (reads, writes) = ops.regs(0x0085_1021);
        assert_eq!(spell(reads), ["$4", "$5"]);
        assert_eq!(spell(writes), ["$2"]);
        // mflo $a0 reads $lo, register 33 after R[32] and HI.
        assert_eq!(ops.regs(0x0000_2012).0, RegSet::of(&[Reg(33)]));
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
    fn mips_disasm_spells_the_shift_amount() {
        let ops = machine_ops(Machine::Mips);
        // sll $8, $5, 3: rt = 5, rd = 8, shamt = 3.
        assert_eq!(disasm(ops, 0x0005_40c0, 0), "sll $5, $8, 3");
        // sllv names no shift amount (its pattern pins shamt to 0).
        assert_eq!(disasm(ops, 0x00a4_4004, 0), "sllv $5, $4, $8");
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
