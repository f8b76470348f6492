//! Disassembly: [`Insn::write_to`] (which `Display` calls), in SPARC
//! assembler syntax, and the number writers every machine's listing
//! uses.
//!
//! The output round-trips through `eel-asm`'s parser (a property-tested
//! invariant over in `eel-asm`), with PC-relative targets printed as
//! `.+N`/`.-N` word offsets.

use crate::insn::{AluOp, Insn, MemWidth, Op, Src2};
use crate::reg::Reg;
use std::fmt::{self, Write};

/// Writes `v` in decimal: what `{v}` prints, without the formatting
/// machinery. Listings of every machine spell their numbers through
/// this and [`write_hex`].
///
/// # Errors
///
/// Only those `out` returns.
pub fn write_dec<W: Write>(out: &mut W, v: i64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.write_char('-')?;
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"))
}

/// Writes `v` in lowercase hex, without a `0x` prefix, zero-padded to
/// `min_digits` (at most 8): what `{v:08x}` prints for `min_digits` 8,
/// and `{v:x}` for 1.
///
/// # Errors
///
/// Only those `out` returns.
pub fn write_hex<W: Write>(out: &mut W, v: u32, min_digits: usize) -> fmt::Result {
    let mut digits = [0u8; 8];
    for (k, digit) in digits.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(v >> (28 - 4 * k)) as usize & 15];
    }
    let significant = 8 - (v.leading_zeros() / 4) as usize;
    let from = 8 - significant.max(min_digits.clamp(1, 8));
    out.write_str(std::str::from_utf8(&digits[from..]).expect("hex digits are ASCII"))
}

fn write_src2<W: Write>(out: &mut W, src2: Src2) -> fmt::Result {
    match src2 {
        Src2::Reg(r) => r.write_to(out),
        Src2::Imm(v) => write_dec(out, v.into()),
    }
}

/// Writes `a, b`: two operands and their separator.
fn write_pair<W: Write>(out: &mut W, a: Reg, b: Src2) -> fmt::Result {
    a.write_to(out)?;
    out.write_str(", ")?;
    write_src2(out, b)
}

/// Writes `rs1 + src2`, the register-plus-operand form of `jmpl` and
/// `t<cond>`.
fn write_sum<W: Write>(out: &mut W, rs1: Reg, src2: Src2) -> fmt::Result {
    rs1.write_to(out)?;
    out.write_str(" + ")?;
    write_src2(out, src2)
}

fn write_addr<W: Write>(out: &mut W, rs1: Reg, src2: Src2) -> fmt::Result {
    // Only the zero-immediate form may be abbreviated: register operands
    // (even %g0) must print in full so reassembly reproduces the exact
    // encoding (the i bit and operand roles).
    out.write_char('[')?;
    rs1.write_to(out)?;
    match src2 {
        Src2::Reg(r) => {
            out.write_str(" + ")?;
            r.write_to(out)?;
        }
        Src2::Imm(0) => {}
        Src2::Imm(v) if v < 0 => {
            out.write_str(" - ")?;
            write_dec(out, -i64::from(v))?;
        }
        Src2::Imm(v) => {
            out.write_str(" + ")?;
            write_dec(out, v.into())?;
        }
    }
    out.write_char(']')
}

fn write_disp<W: Write>(out: &mut W, disp: i32) -> fmt::Result {
    out.write_str(if disp < 0 { ".-" } else { ".+" })?;
    write_dec(out, (i64::from(disp) * 4).abs())
}

impl Insn {
    /// Writes the instruction in assembler syntax, the text `Display`
    /// prints, piece by piece into `out`: a listing that appends to a
    /// `String` skips the formatting machinery between the pieces.
    ///
    /// # Errors
    ///
    /// Only those `out` returns.
    pub fn write_to<W: Write>(&self, out: &mut W) -> fmt::Result {
        match self.op {
            Op::Sethi {
                rd: Reg::G0,
                imm22: 0,
            } => out.write_str("nop"),
            Op::Sethi { rd, imm22 } => {
                out.write_str("sethi 0x")?;
                write_hex(out, imm22, 1)?;
                out.write_str(", ")?;
                rd.write_to(out)
            }
            Op::Branch {
                cond,
                annul,
                disp22,
                fp,
            } => {
                out.write_str(if fp { "fb" } else { "b" })?;
                out.write_str(cond.suffix())?;
                out.write_str(if annul { ",a " } else { " " })?;
                write_disp(out, disp22)
            }
            Op::Call { disp30 } => {
                out.write_str("call ")?;
                write_disp(out, disp30)
            }
            Op::Alu {
                op,
                cc,
                rd,
                rs1,
                src2,
            } => match op {
                AluOp::Rdy => {
                    out.write_str("rd %y, ")?;
                    rd.write_to(out)
                }
                AluOp::Rdpsr => {
                    out.write_str("rd %psr, ")?;
                    rd.write_to(out)
                }
                AluOp::Wry | AluOp::Wrpsr => {
                    out.write_str("wr ")?;
                    write_pair(out, rs1, src2)?;
                    out.write_str(if op == AluOp::Wry { ", %y" } else { ", %psr" })
                }
                // Synthetic forms the assembler understands.
                AluOp::Or if !cc && rs1 == Reg::G0 => {
                    out.write_str("mov ")?;
                    write_src2(out, src2)?;
                    out.write_str(", ")?;
                    rd.write_to(out)
                }
                AluOp::Sub if cc && rd == Reg::G0 => {
                    out.write_str("cmp ")?;
                    write_pair(out, rs1, src2)
                }
                _ => {
                    out.write_str(op.mnemonic())?;
                    out.write_str(if cc { "cc " } else { " " })?;
                    write_pair(out, rs1, src2)?;
                    out.write_str(", ")?;
                    rd.write_to(out)
                }
            },
            Op::Jmpl { rd, rs1, src2 } => {
                if rd == Reg::G0 && rs1 == Reg::O7 && src2 == Src2::Imm(8) {
                    out.write_str("retl")
                } else if rd == Reg::G0 && rs1 == Reg::I7 && src2 == Src2::Imm(8) {
                    out.write_str("ret")
                } else {
                    out.write_str("jmpl ")?;
                    match src2 {
                        Src2::Imm(0) => rs1.write_to(out)?,
                        _ => write_sum(out, rs1, src2)?,
                    }
                    out.write_str(", ")?;
                    rd.write_to(out)
                }
            }
            Op::Load {
                width,
                signed,
                rd,
                rs1,
                src2,
                fp,
            } => {
                let mnem = match (width, signed, fp) {
                    (MemWidth::Word, _, true) => "ldf ",
                    (MemWidth::Word, _, false) => "ld ",
                    (MemWidth::Byte, false, _) => "ldub ",
                    (MemWidth::Byte, true, _) => "ldsb ",
                    (MemWidth::Half, false, _) => "lduh ",
                    (MemWidth::Half, true, _) => "ldsh ",
                    (MemWidth::Double, _, _) => "ldd ",
                };
                out.write_str(mnem)?;
                write_addr(out, rs1, src2)?;
                out.write_str(", ")?;
                rd.write_to(out)
            }
            Op::Store {
                width,
                rd,
                rs1,
                src2,
                fp,
            } => {
                let mnem = match (width, fp) {
                    (MemWidth::Word, true) => "stf ",
                    (MemWidth::Word, false) => "st ",
                    (MemWidth::Byte, _) => "stb ",
                    (MemWidth::Half, _) => "sth ",
                    (MemWidth::Double, _) => "std ",
                };
                out.write_str(mnem)?;
                rd.write_to(out)?;
                out.write_str(", ")?;
                write_addr(out, rs1, src2)
            }
            Op::Trap { cond, rs1, src2 } => {
                out.write_char('t')?;
                out.write_str(cond.suffix())?;
                out.write_char(' ')?;
                match (rs1, src2) {
                    // Immediate-only form prints bare; anything involving
                    // a register prints the full `rs1 + src2` form so the
                    // assembler reconstructs the exact encoding.
                    (Reg::G0, Src2::Imm(_)) => write_src2(out, src2),
                    _ => write_sum(out, rs1, src2),
                }
            }
            Op::Unimp { const22 } => {
                out.write_str("unimp 0x")?;
                write_hex(out, const22, 1)
            }
            Op::Invalid => {
                out.write_str(".word 0x")?;
                write_hex(out, self.word, 8)
            }
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Builder;
    use crate::insn::Cond;

    #[test]
    fn representative_disassembly() {
        assert_eq!(Builder::nop().to_string(), "nop");
        assert_eq!(Builder::mov(Reg(9), Src2::Imm(7)).to_string(), "mov 7, %o1");
        assert_eq!(
            Builder::cmp(Reg(16), Src2::Imm(0)).to_string(),
            "cmp %l0, 0"
        );
        assert_eq!(
            Builder::add(Reg(17), Reg(16), Src2::Reg(Reg(18))).to_string(),
            "add %l0, %l2, %l1"
        );
        assert_eq!(Builder::branch(Cond::Ne, true, 4).to_string(), "bne,a .+16");
        assert_eq!(Builder::ba(-2).to_string(), "ba .-8");
        assert_eq!(Builder::retl().to_string(), "retl");
        assert_eq!(
            Builder::ld(Reg(8), Reg::SP, Src2::Imm(64)).to_string(),
            "ld [%sp + 64], %o0"
        );
        assert_eq!(
            Builder::st(Reg(8), Reg::SP, Src2::Imm(-4)).to_string(),
            "st %o0, [%sp - 4]"
        );
        assert_eq!(Builder::ta(Src2::Imm(0)).to_string(), "ta 0");
        assert_eq!(Builder::call(2).to_string(), "call .+8");
        assert_eq!(
            Builder::jmpl(Reg::G0, Reg(9), Src2::Imm(0)).to_string(),
            "jmpl %o1, %g0"
        );
        assert_eq!(crate::decode(0xffffffff).to_string(), ".word 0xffffffff");
    }

    #[test]
    fn number_writers_match_format() {
        let samples = [
            0u32,
            1,
            9,
            10,
            15,
            16,
            255,
            0x3ff,
            0x12345,
            0x8000_0000,
            u32::MAX,
        ];
        for v in samples {
            for min in [1, 8] {
                let mut s = String::new();
                write_hex(&mut s, v, min).unwrap();
                let want = if min == 8 {
                    format!("{v:08x}")
                } else {
                    format!("{v:x}")
                };
                assert_eq!(s, want, "{v:#x} at {min} digits");
            }
        }
        for v in [
            0i64,
            7,
            -7,
            10,
            -4096,
            i64::from(i32::MIN),
            i64::MIN,
            i64::MAX,
        ] {
            let mut s = String::new();
            write_dec(&mut s, v).unwrap();
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn sethi_prints_immediate() {
        let i = Builder::sethi_hi(Reg(6), 0x12345678);
        assert_eq!(
            i.to_string(),
            format!("sethi {:#x}, %g6", 0x12345678u32 >> 10)
        );
    }

    #[test]
    fn zero_offset_address_omits_offset() {
        assert_eq!(
            Builder::ld(Reg(8), Reg(9), Src2::Imm(0)).to_string(),
            "ld [%o1], %o0"
        );
        assert_eq!(
            Builder::ld(Reg(8), Reg(9), Src2::Reg(Reg::G0)).to_string(),
            "ld [%o1 + %g0], %o0"
        );
    }

    #[test]
    fn register_indexed_address() {
        assert_eq!(
            Builder::ld(Reg(8), Reg(9), Src2::Reg(Reg(10))).to_string(),
            "ld [%o1 + %o2], %o0"
        );
    }
}
