//! # eel-isa: the target instruction set
//!
//! A faithful subset of the SPARC V8 instruction set — the architecture the
//! EEL paper (Larus & Schnarr, PLDI 1995) targets. This crate is the
//! *handwritten* machine-specific layer: bit-exact instruction encodings, a
//! total decoder (every 32-bit word decodes to something, possibly
//! [`Op::Invalid`]), an encoder, a disassembler, and per-instruction
//! semantic helpers used by the emulator and by EEL's analyses.
//!
//! The paper's `spawn` tool generates an equivalent layer from a concise
//! machine description; the `eel-spawn` crate reproduces that and is tested
//! differentially against this crate.
//!
//! ## Architecture summary
//!
//! * 32 general-purpose 32-bit integer registers `%g0–%g7`, `%o0–%o7`,
//!   `%l0–%l7`, `%i0–%i7`; `%g0` reads as zero and ignores writes.
//! * Integer condition codes (`icc`: N, Z, V, C) set by `cc`-suffixed ALU
//!   ops; the `Y` register for multiply/divide.
//! * Delayed control transfers: `call`, `jmpl`, and conditional branches all
//!   execute the following instruction (the *delay slot*) before the
//!   transfer takes effect. Branches carry an *annul* bit: an annulled
//!   conditional branch executes its delay slot only when taken; `ba,a`
//!   never executes it.
//! * Register windows are **not** modeled (`save`/`restore` decode as plain
//!   ALU ops); see DESIGN.md for why this preserves the paper's behaviour.
//!
//! ## Example
//!
//! ```
//! use eel_isa::{decode, Op, Reg};
//! // `bne,a +4 words` — annulled branch-not-equal.
//! let insn = decode(0x32800004);
//! match insn.op {
//!     Op::Branch { annul, disp22, .. } => {
//!         assert!(annul);
//!         assert_eq!(disp22, 4);
//!     }
//!     _ => panic!("decoded wrong class"),
//! }
//! assert!(insn.is_delayed());
//! assert_eq!(decode(0x01000000).to_string(), "nop");
//! # let _ = Reg::G0;
//! ```

mod class;
mod decode;
mod disasm;
mod encode;
mod insn;
mod reg;
mod semantics;

pub use class::{Category, JumpKind};
pub use decode::decode;
pub use disasm::{write_dec, write_hex};
pub use encode::{encode, Builder};
pub use insn::{AluOp, Cond, Insn, MemWidth, Op, Src2};
pub use reg::{Reg, RegSet};
pub use semantics::{eval_alu, eval_cond, step, MachineState, Memory, StepEvent};

/// Size of every instruction in bytes. SPARC V8 is a fixed-width ISA.
pub const INSN_BYTES: u32 = 4;

/// Extracts the upper 22 bits of a value, as `sethi` materializes them.
///
/// ```
/// assert_eq!(eel_isa::hi22(0x12345678), 0x12345678 >> 10);
/// ```
pub fn hi22(value: u32) -> u32 {
    value >> 10
}

/// Extracts the low 10 bits of a value, the `%lo()` immediate that pairs
/// with a `sethi` to materialize a full 32-bit constant.
///
/// ```
/// assert_eq!(eel_isa::lo10(0x12345678), 0x12345678 & 0x3ff);
/// ```
pub fn lo10(value: u32) -> u32 {
    value & 0x3ff
}
