//! Decoded instruction representation.
//!
//! [`Insn`] pairs the raw 32-bit word with a structured [`Op`]. The `Op`
//! variants correspond to SPARC V8 instruction formats; classification into
//! EEL's machine-independent *categories* (call / jump / branch / load /
//! store / computation / invalid, §3.4 of the paper) lives in
//! [`crate::class`].

use crate::reg::Reg;
use std::fmt;

/// Branch / trap condition over the integer condition codes.
///
/// The discriminants are the 4-bit `cond` field encodings from the SPARC V8
/// manual (and from the `cond=[0..15]` matrix in the paper's Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Cond {
    /// `bn` — never.
    Never = 0,
    /// `be` — equal (Z).
    Eq = 1,
    /// `ble` — less or equal, signed (Z or (N xor V)).
    Le = 2,
    /// `bl` — less, signed (N xor V).
    Lt = 3,
    /// `bleu` — less or equal, unsigned (C or Z).
    Leu = 4,
    /// `bcs` / `blu` — carry set (C).
    CarrySet = 5,
    /// `bneg` — negative (N).
    Neg = 6,
    /// `bvs` — overflow set (V).
    OverflowSet = 7,
    /// `ba` — always.
    Always = 8,
    /// `bne` — not equal (not Z).
    Ne = 9,
    /// `bg` — greater, signed.
    Gt = 10,
    /// `bge` — greater or equal, signed.
    Ge = 11,
    /// `bgu` — greater, unsigned.
    Gtu = 12,
    /// `bcc` / `bgeu` — carry clear (not C).
    CarryClear = 13,
    /// `bpos` — positive (not N).
    Pos = 14,
    /// `bvc` — overflow clear (not V).
    OverflowClear = 15,
}

impl Cond {
    /// All sixteen conditions in encoding order.
    pub const ALL: [Cond; 16] = [
        Cond::Never,
        Cond::Eq,
        Cond::Le,
        Cond::Lt,
        Cond::Leu,
        Cond::CarrySet,
        Cond::Neg,
        Cond::OverflowSet,
        Cond::Always,
        Cond::Ne,
        Cond::Gt,
        Cond::Ge,
        Cond::Gtu,
        Cond::CarryClear,
        Cond::Pos,
        Cond::OverflowClear,
    ];

    /// Decodes a 4-bit `cond` field.
    pub fn from_bits(bits: u32) -> Cond {
        Cond::ALL[(bits & 0xf) as usize]
    }

    /// The 4-bit encoding.
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// The condition that is true exactly when `self` is false.
    pub fn negate(self) -> Cond {
        // The SPARC encoding pairs each condition with its complement by
        // flipping bit 3.
        Cond::from_bits(self.bits() ^ 0b1000)
    }

    /// Branch mnemonic suffix (`ne`, `e`, `g`, ... as in `bne`).
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Never => "n",
            Cond::Eq => "e",
            Cond::Le => "le",
            Cond::Lt => "l",
            Cond::Leu => "leu",
            Cond::CarrySet => "cs",
            Cond::Neg => "neg",
            Cond::OverflowSet => "vs",
            Cond::Always => "a",
            Cond::Ne => "ne",
            Cond::Gt => "g",
            Cond::Ge => "ge",
            Cond::Gtu => "gu",
            Cond::CarryClear => "cc",
            Cond::Pos => "pos",
            Cond::OverflowClear => "vc",
        }
    }
}

/// Arithmetic / logic / shift operations (format-3, `op=10`).
///
/// The discriminants are the 6-bit `op3` field values *without* the `cc`
/// bit: the condition-code-setting variants (`addcc`, ...) set bit 4 of
/// `op3` and are represented by `cc: true` on [`Op::Alu`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum AluOp {
    /// Integer add.
    Add = 0b000000,
    /// Bitwise and.
    And = 0b000001,
    /// Bitwise or. `or %g0, x, rd` is the canonical `mov`.
    Or = 0b000010,
    /// Bitwise exclusive or.
    Xor = 0b000011,
    /// Integer subtract. `subcc` is the canonical compare.
    Sub = 0b000100,
    /// And-not (`rs1 & !src2`).
    Andn = 0b000101,
    /// Or-not.
    Orn = 0b000110,
    /// Exclusive-nor.
    Xnor = 0b000111,
    /// Unsigned multiply (low 32 bits to `rd`, high 32 to `%y`).
    Umul = 0b001010,
    /// Signed multiply.
    Smul = 0b001011,
    /// Unsigned divide (`%y:rs1 / src2`; we model the 32-bit quotient).
    Udiv = 0b001110,
    /// Signed divide.
    Sdiv = 0b001111,
    /// Shift left logical (by low 5 bits of src2).
    Sll = 0b100101,
    /// Shift right logical.
    Srl = 0b100110,
    /// Shift right arithmetic.
    Sra = 0b100111,
    /// Read `%y` into `rd` (`rd %y, rd`).
    Rdy = 0b101000,
    /// Read the processor state register (condition codes in bits 20–23)
    /// into `rd`. Unprivileged here so tools can save `icc`.
    Rdpsr = 0b101001,
    /// Write `rs1 ^ src2` to `%y`.
    Wry = 0b110000,
    /// Write `rs1 ^ src2` into the PSR (condition codes from bits 20–23).
    Wrpsr = 0b110001,
    /// Register-window save; modeled as `add` on a flat register file.
    Save = 0b111100,
    /// Register-window restore; modeled as `add`.
    Restore = 0b111101,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 21] = [
        AluOp::Add,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sub,
        AluOp::Andn,
        AluOp::Orn,
        AluOp::Xnor,
        AluOp::Umul,
        AluOp::Smul,
        AluOp::Udiv,
        AluOp::Sdiv,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Rdy,
        AluOp::Rdpsr,
        AluOp::Wry,
        AluOp::Wrpsr,
        AluOp::Save,
        AluOp::Restore,
    ];

    /// Mnemonic without any `cc` suffix.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sub => "sub",
            AluOp::Andn => "andn",
            AluOp::Orn => "orn",
            AluOp::Xnor => "xnor",
            AluOp::Umul => "umul",
            AluOp::Smul => "smul",
            AluOp::Udiv => "udiv",
            AluOp::Sdiv => "sdiv",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Rdy => "rd",
            AluOp::Rdpsr => "rd",
            AluOp::Wry => "wr",
            AluOp::Wrpsr => "wr",
            AluOp::Save => "save",
            AluOp::Restore => "restore",
        }
    }

    /// May this op also be encoded with the `cc` bit (setting `icc`)?
    pub fn supports_cc(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::And
                | AluOp::Or
                | AluOp::Xor
                | AluOp::Sub
                | AluOp::Andn
                | AluOp::Orn
                | AluOp::Xnor
                | AluOp::Umul
                | AluOp::Smul
                | AluOp::Udiv
                | AluOp::Sdiv
        )
    }
}

/// Memory access width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// One byte.
    Byte,
    /// Two bytes (halfword).
    Half,
    /// Four bytes (word).
    Word,
    /// Eight bytes (doubleword: register pair `rd`, `rd|1`).
    Double,
}

impl MemWidth {
    /// Access size in bytes — the `{{WIDTH}}` spawn annotation of Figure 6.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// The second ALU / address operand: a register or a 13-bit signed
/// immediate, selected by the `i` bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src2 {
    /// Register operand (`i = 0`).
    Reg(Reg),
    /// Sign-extended 13-bit immediate (`i = 1`).
    Imm(i32),
}

impl Src2 {
    /// The immediate value, if this operand is one.
    pub fn imm(self) -> Option<i32> {
        match self {
            Src2::Imm(v) => Some(v),
            Src2::Reg(_) => None,
        }
    }

    /// The register, if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Src2::Reg(r) => Some(r),
            Src2::Imm(_) => None,
        }
    }

    /// Does a 32-bit value fit in the 13-bit signed immediate field?
    pub fn fits_simm13(value: i32) -> bool {
        (-4096..=4095).contains(&value)
    }
}

impl fmt::Display for Src2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src2::Reg(r) => write!(f, "{r}"),
            Src2::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// A structured SPARC V8 instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `sethi %hi(imm22 << 10), rd`. With `rd = %g0, imm = 0` this is `nop`.
    Sethi {
        /// Destination register.
        rd: Reg,
        /// The 22-bit immediate (shifted left 10 on execution).
        imm22: u32,
    },
    /// Conditional branch on integer (`fp = false`) or floating-point
    /// (`fp = true`) condition codes, PC-relative, delayed, with annul bit.
    Branch {
        /// Condition tested.
        cond: Cond,
        /// Annul bit: if set, the delay slot executes only when the branch
        /// is taken (never, for `ba,a`).
        annul: bool,
        /// Word displacement (sign-extended 22 bits); target is
        /// `pc + 4*disp22`.
        disp22: i32,
        /// True for `fb*` (floating-point condition codes).
        fp: bool,
    },
    /// `call target` — PC-relative delayed call; writes `%o7 = pc`.
    Call {
        /// Word displacement; target is `pc + 4*disp30`.
        disp30: i32,
    },
    /// Arithmetic / logic / shift (format 3, `op = 10`).
    Alu {
        /// Operation.
        op: AluOp,
        /// Whether the `cc` variant was encoded (sets `icc`).
        cc: bool,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source (register or simm13).
        src2: Src2,
    },
    /// `jmpl rs1 + src2, rd` — delayed indirect jump; writes `rd = pc`.
    /// Overloaded as indirect call (`rd = %o7`), return (`jmpl %i7+8, %g0`
    /// or `jmpl %o7+8, %g0`), or plain indirect jump.
    Jmpl {
        /// Link destination (receives the jump instruction's own address).
        rd: Reg,
        /// Base register of the target address.
        rs1: Reg,
        /// Offset register or immediate.
        src2: Src2,
    },
    /// Integer or floating-point load.
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend sub-word loads?
        signed: bool,
        /// Destination register.
        rd: Reg,
        /// Address base.
        rs1: Reg,
        /// Address offset.
        src2: Src2,
        /// Floating-point register file destination (decode-only; never
        /// emitted by our compiler).
        fp: bool,
    },
    /// Integer or floating-point store.
    Store {
        /// Access width.
        width: MemWidth,
        /// Source register holding the stored value.
        rd: Reg,
        /// Address base.
        rs1: Reg,
        /// Address offset.
        src2: Src2,
        /// Floating-point register file source.
        fp: bool,
    },
    /// `t<cond> rs1 + src2` — conditional trap; the system-call gateway
    /// (`ta 0` with the syscall number in `%g1` by convention).
    Trap {
        /// Trap condition over `icc`.
        cond: Cond,
        /// Trap-number base register.
        rs1: Reg,
        /// Trap-number offset.
        src2: Src2,
    },
    /// `unimp const22` — architecturally defined illegal instruction.
    Unimp {
        /// Payload bits.
        const22: u32,
    },
    /// Any word that matches no defined encoding. EEL's control-flow
    /// analysis uses reachable invalid instructions to detect data in the
    /// text segment (§3.1, §4).
    Invalid,
}

/// A decoded instruction: raw word plus structured operation.
///
/// `Insn` is `Copy` and small; `eel-core`'s CFG blocks store it inline
/// rather than sharing one object per distinct word (§3.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// The raw 32-bit encoding.
    pub word: u32,
    /// The structured operation.
    pub op: Op,
}

impl Insn {
    /// Decodes a raw word (alias of [`crate::decode`]).
    pub fn from_word(word: u32) -> Insn {
        crate::decode(word)
    }

    /// Does this instruction have a delay slot (delayed control transfer)?
    pub fn is_delayed(&self) -> bool {
        matches!(
            self.op,
            Op::Branch { .. } | Op::Call { .. } | Op::Jmpl { .. }
        )
    }

    /// The PC-relative control-transfer target, if statically known.
    pub fn direct_target(&self, pc: u32) -> Option<u32> {
        match self.op {
            Op::Branch { disp22, .. } => Some(pc.wrapping_add((disp22 as u32) << 2)),
            Op::Call { disp30 } => Some(pc.wrapping_add((disp30 as u32) << 2)),
            _ => None,
        }
    }
}

impl fmt::Debug for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Insn({:#010x}: {})", self.word, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            assert_ne!(c.negate(), c);
        }
        assert_eq!(Cond::Always.negate(), Cond::Never);
        assert_eq!(Cond::Eq.negate(), Cond::Ne);
        assert_eq!(Cond::Lt.negate(), Cond::Ge);
        assert_eq!(Cond::Leu.negate(), Cond::Gtu);
    }

    #[test]
    fn cond_bits_round_trip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_bits(c.bits()), c);
        }
    }

    #[test]
    fn simm13_bounds() {
        assert!(Src2::fits_simm13(0));
        assert!(Src2::fits_simm13(-4096));
        assert!(Src2::fits_simm13(4095));
        assert!(!Src2::fits_simm13(4096));
        assert!(!Src2::fits_simm13(-4097));
    }

    #[test]
    fn widths() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
        assert_eq!(MemWidth::Double.bytes(), 8);
    }

    #[test]
    fn direct_targets() {
        let b = Insn::from_word(crate::encode(&Op::Branch {
            cond: Cond::Ne,
            annul: false,
            disp22: -2,
            fp: false,
        }));
        assert_eq!(b.direct_target(0x1000), Some(0x1000 - 8));
        let c = Insn::from_word(crate::encode(&Op::Call { disp30: 16 }));
        assert_eq!(c.direct_target(0x1000), Some(0x1040));
    }
}
