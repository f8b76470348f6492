//! # eel-spawn: the machine-description system (paper §4)
//!
//! The paper's `spawn` tool turns a concise machine description — fields,
//! registers, instruction encodings, and register-transfer semantics
//! (Figure 7) — into the machine-specific layer that EEL needs: a decoder
//! that reliably detects invalid instructions, a classifier, per-instance
//! reads/writes analysis, and code that replicates instruction
//! computation. Handwritten, that layer was 2,268 lines; described, 145.
//!
//! This crate reproduces the design:
//!
//! * [`parse`] reads the description language ([`ast`]).
//! * [`Machine::build`] derives the decoder ([`Machine::decode`]),
//!   classifier, dataflow analysis ([`Machine::reads`] /
//!   [`Machine::writes`]), and a semantic interpreter
//!   ([`Machine::execute`]) — all differentially tested against the
//!   handwritten `eel-isa` layer.
//! * [`generate_rust`] emits standalone Rust source, the analog of
//!   spawn's generated C++ (experiment E-LOC counts its lines).
//!
//! Shipped descriptions: [`SPARC`], [`MIPS`], [`ALPHA`] (the three
//! machines the paper measured description sizes for).
//!
//! ## Example
//!
//! ```
//! let machine = eel_spawn::sparc_machine()?;
//! // `bne,a .+16` — decode and classify without any handwritten code.
//! let d = machine.decode(0x32800004).expect("valid");
//! assert_eq!(d.spec.name, "bne");
//! assert_eq!(d.spec.class, eel_spawn::Class::Branch);
//! assert_eq!(machine.field("cond", d.word), 9);
//! # Ok::<(), eel_spawn::SpawnError>(())
//! ```

pub mod ast;
mod codegen;
mod eval;
mod machine;
mod parse;
pub mod sparc_shim;

pub use codegen::generate_rust;
pub use eval::{SpawnEvent, SpawnState};
pub use machine::{Class, Decoded, InsnSpec, Machine};
pub use parse::parse;

use std::fmt;

/// The SPARC V8 subset description (the target machine of this repo).
pub const SPARC: &str = include_str!("../descriptions/sparc.spawn");
/// The MIPS R2000 subset description.
pub const MIPS: &str = include_str!("../descriptions/mips.spawn");
/// The Digital Alpha subset description.
pub const ALPHA: &str = include_str!("../descriptions/alpha.spawn");

/// Errors from parsing or deriving a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// Lexical/syntactic problem.
    Parse {
        /// 1-based line.
        line: usize,
        /// Description.
        message: String,
    },
    /// Name-resolution or consistency problem.
    Semantic(String),
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpawnError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SpawnError::Semantic(m) => write!(f, "description error: {m}"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// Parses and derives the shipped SPARC machine.
///
/// # Errors
///
/// Only if the bundled description is broken (a crate bug).
pub fn sparc_machine() -> Result<Machine, SpawnError> {
    Machine::build(parse(SPARC)?)
}

/// Parses and derives the shipped MIPS machine.
///
/// # Errors
///
/// Only if the bundled description is broken (a crate bug).
pub fn mips_machine() -> Result<Machine, SpawnError> {
    Machine::build(parse(MIPS)?)
}

/// The shipped MIPS machine, derived on the first call in a process and
/// shared by every later one. `on_build` runs in the one call that
/// derives it: eel-core and eel-emu count `spawn.machine.built` there,
/// since this crate has no metrics dependency.
pub fn shared_mips_machine(on_build: impl FnOnce()) -> &'static Machine {
    static MACHINE: std::sync::OnceLock<Machine> = std::sync::OnceLock::new();
    MACHINE.get_or_init(|| {
        on_build();
        mips_machine().expect("the bundled mips.spawn is well-formed")
    })
}

/// Parses and derives the shipped Alpha machine.
///
/// # Errors
///
/// Only if the bundled description is broken (a crate bug).
pub fn alpha_machine() -> Result<Machine, SpawnError> {
    Machine::build(parse(ALPHA)?)
}

/// Counts non-comment, non-blank lines of a description (the paper's
/// conciseness metric: SPARC 145, MIPS 128, Alpha 138).
pub fn description_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('!'))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_isa::{Reg, RegSet};

    #[test]
    fn all_shipped_descriptions_build() {
        sparc_machine().unwrap();
        mips_machine().unwrap();
        alpha_machine().unwrap();
    }

    #[test]
    fn description_line_counts_are_concise() {
        // The paper: SPARC 145, MIPS 128, Alpha 138. Ours are in the same
        // ballpark (smaller subsets, smaller counts).
        let s = description_lines(SPARC);
        let m = description_lines(MIPS);
        let a = description_lines(ALPHA);
        assert!((60..=160).contains(&s), "sparc: {s}");
        assert!((50..=140).contains(&m), "mips: {m}");
        assert!((40..=140).contains(&a), "alpha: {a}");
    }

    #[test]
    fn generated_rust_is_substantial() {
        let machine = sparc_machine().unwrap();
        let src = generate_rust(&machine);
        assert!(src.contains("pub fn decode"));
        assert!(src.contains("field_op3"));
        assert!(src.contains("\"jmpl\""));
        // The generated file dwarfs the description (paper: 6,178 vs 145).
        assert!(
            src.lines().count() > 3 * description_lines(SPARC),
            "generated: {} lines",
            src.lines().count()
        );
    }

    #[test]
    fn mips_decode_spot_checks() {
        let m = mips_machine().unwrap();
        // addu $v0, $a0, $a1 = 0x00851021
        let d = m.decode(0x0085_1021).unwrap();
        assert_eq!(d.spec.name, "addu");
        assert_eq!(d.spec.class, Class::Computation);
        // lw $t0, 4($sp) = 0x8fa80004
        let d = m.decode(0x8fa8_0004).unwrap();
        assert_eq!(d.spec.name, "lw");
        assert_eq!(d.spec.class, Class::Load);
        // jr $ra = 0x03e00008
        let d = m.decode(0x03e0_0008).unwrap();
        assert_eq!(d.spec.name, "jr");
        assert_eq!(d.spec.class, Class::IndirectJump);
        // jal 0x100 = 0x0c000040
        let d = m.decode(0x0c00_0040).unwrap();
        assert_eq!(d.spec.name, "jal");
        assert_eq!(d.spec.class, Class::DirectJump);
        assert!(d.spec.links);
        // beq $zero, $zero, +1
        let d = m.decode(0x1000_0001).unwrap();
        assert_eq!(d.spec.name, "beq");
        assert_eq!(d.spec.class, Class::Branch);
        // sw $t0, 0($sp)
        let d = m.decode(0xafa8_0000).unwrap();
        assert_eq!(d.spec.name, "sw");
        assert_eq!(d.spec.class, Class::Store);
    }

    #[test]
    fn alpha_decode_spot_checks() {
        let m = alpha_machine().unwrap();
        // lda r1, 8(r2) : opcode 8, ra=1, rb=2, disp=8
        let w = (8 << 26) | (1 << 21) | (2 << 16) | 8;
        let d = m.decode(w).unwrap();
        assert_eq!(d.spec.name, "lda");
        assert_eq!(d.spec.class, Class::Computation);
        // ldl r3, 0(r4)
        let w = (40 << 26) | (3 << 21) | (4 << 16);
        assert_eq!(m.decode(w).unwrap().spec.name, "ldl");
        // ret (opcode 26, jkind=2)
        let w = (26 << 26) | (2 << 14);
        let d = m.decode(w).unwrap();
        assert_eq!(d.spec.name, "ret");
        assert_eq!(d.spec.class, Class::IndirectJump);
        // bsr links
        let w = 52 << 26;
        assert!(m.decode(w).unwrap().spec.links);
    }

    #[test]
    fn mips_reads_writes() {
        let m = mips_machine().unwrap();
        // addu $2, $4, $5
        let d = m.decode(0x0085_1021).unwrap();
        let reads = m.reads(&d);
        assert!(reads.contains(Reg(4)));
        assert!(reads.contains(Reg(5)));
        assert_eq!(m.writes(&d), RegSet::of(&[Reg(2)]));
        // sw reads both address base and the stored value.
        let d = m.decode(0xafa8_0000).unwrap();
        let reads = m.reads(&d);
        assert!(reads.contains(Reg(29)));
        assert!(reads.contains(Reg(8)));
        assert!(m.writes(&d).is_empty());
    }

    #[test]
    fn mips_static_targets() {
        let m = mips_machine().unwrap();
        // beq $0, $0, +1 at 0x1000: target = pc + 4 + (1 << 2).
        let d = m.decode(0x1000_0001).unwrap();
        assert_eq!(m.static_target(&d, 0x1000), Some(0x1008));
        // bne with a negative displacement (-2).
        let d = m.decode(0x1485_fffe).unwrap();
        assert_eq!(d.spec.name, "bne");
        assert_eq!(m.static_target(&d, 0x1000), Some(0x1000 + 4 - 8));
        // jal 0x100: pseudo-absolute within the current 256 MB region.
        let d = m.decode(0x0c00_0040).unwrap();
        assert_eq!(m.static_target(&d, 0x1000), Some(0x100));
        // jr $ra has no static target; addu has none at all.
        let d = m.decode(0x03e0_0008).unwrap();
        assert_eq!(m.static_target(&d, 0x1000), None);
        let d = m.decode(0x0085_1021).unwrap();
        assert_eq!(m.static_target(&d, 0x1000), None);
    }

    #[test]
    fn sparc_static_targets() {
        let m = sparc_machine().unwrap();
        // call .+16 — disp30 of 4.
        let d = m.decode(0x4000_0004).unwrap();
        assert_eq!(m.static_target(&d, 0x2000), Some(0x2010));
        // bne .+16 — conditional targets resolve too.
        let d = m.decode(0x3280_0004).unwrap();
        assert_eq!(m.static_target(&d, 0x2000), Some(0x2010));
    }

    #[test]
    fn mips_divide_semantics() {
        struct NoMem;
        impl eel_isa::Memory for NoMem {
            fn load(&mut self, _: u32, _: u32) -> Option<u32> {
                None
            }
            fn store(&mut self, _: u32, _: u32, _: u32) -> Option<()> {
                None
            }
        }
        let m = mips_machine().unwrap();
        let div = 0x008f_001a; // div $4, $15 (funct 26)
        let divu = 0x008f_001b;
        let cases: [(u32, u32); 6] = [
            (7, 2),
            (0x8000_0000, 2),
            ((-7i32) as u32, 2),
            (7, (-2i32) as u32),
            (0x8000_0000, (-1i32) as u32),
            (0xffff_fff1, 3),
        ];
        for (a, b) in cases {
            let mut st = SpawnState::new(0x1000);
            st.r[4] = a;
            st.r[15] = b;
            let d = m.decode(div).unwrap();
            assert_eq!(m.execute(&d, &mut st, &mut NoMem).unwrap(), SpawnEvent::Ok);
            // LO/HI mirror i64 truncating division clamped to i32, with a
            // consistent remainder (a == q*b + r).
            let q = ((a as i32 as i64) / (b as i32 as i64)).clamp(i32::MIN as i64, i32::MAX as i64)
                as i32;
            assert_eq!(st.lo, q as u32, "div {a:#x}/{b:#x} quotient");
            assert_eq!(
                st.hi,
                (a as i32).wrapping_sub(q.wrapping_mul(b as i32)) as u32,
                "div {a:#x}/{b:#x} remainder"
            );
            let mut st = SpawnState::new(0x1000);
            st.r[4] = a;
            st.r[15] = b;
            let d = m.decode(divu).unwrap();
            assert_eq!(m.execute(&d, &mut st, &mut NoMem).unwrap(), SpawnEvent::Ok);
            assert_eq!(st.lo, a / b, "divu {a:#x}/{b:#x} quotient");
            assert_eq!(st.hi, a % b, "divu {a:#x}/{b:#x} remainder");
        }
        // Division by zero surfaces as the DivZero event, like SPARC sdiv.
        let mut st = SpawnState::new(0x1000);
        st.r[4] = 5;
        let d = m.decode(div).unwrap();
        assert_eq!(
            m.execute(&d, &mut st, &mut NoMem).unwrap(),
            SpawnEvent::DivZero
        );
        // div now reports HI and LO as written, so liveness sees both.
        let writes = m.writes(&d);
        assert_eq!(m.register(Reg(32)), Some(("HI", 0)));
        assert_eq!(m.register(Reg(33)), Some(("LO", 0)));
        assert!(writes.contains(Reg(32)));
        assert!(writes.contains(Reg(33)));
    }

    #[test]
    fn errors_display() {
        for e in [
            SpawnError::Parse {
                line: 3,
                message: "x".into(),
            },
            SpawnError::Semantic("y".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
