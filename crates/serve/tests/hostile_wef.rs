//! Hostile WEF bytes never panic: a seeded mutation loop over real
//! images. Each mutant — bit flips, a truncation, an overwritten word or
//! an overwritten header word of a SPARC gcc, SPARC SunPro, stripped
//! SPARC or MIPS image — goes through `Image::from_bytes`, then
//! `Analysis::compute`, then every cacheable op, exactly as the daemon
//! would take it off the wire. Every step must return `Ok` or `Err`.

mod common;

use eel_core::Analysis;
use eel_exe::Image;
use eel_serve::{run_op, CACHED_OPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Mutants per base image.
const CASES: u64 = 50;

/// The WEF header: ten big-endian words (magic, flags, entry, text
/// address and size, data address and size, bss size, symbol count,
/// string-table size).
const HEADER_WORDS: usize = 10;

/// xorshift64*: a tiny deterministic generator, so every failure names a
/// reproducible `(shape, seed, case)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A word worth writing into a header or text slot: boundary values,
    /// small nudges of the old value, or noise.
    fn word(&mut self, old: u32) -> u32 {
        match self.below(4) {
            0 => [0, 1, 4, 0x8000_0000, u32::MAX][self.below(5)],
            1 => old
                .wrapping_add(4 * (self.below(9) as u32))
                .wrapping_sub(16),
            2 => old ^ (1 << self.below(32)),
            _ => self.next() as u32,
        }
    }
}

fn put_word(bytes: &mut [u8], at: usize, rng: &mut Rng) {
    let old = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
    let new = rng.word(old);
    bytes[at..at + 4].copy_from_slice(&new.to_be_bytes());
}

fn mutate(base: &[u8], rng: &mut Rng) -> (&'static str, Vec<u8>) {
    let mut bytes = base.to_vec();
    let kind = match rng.below(4) {
        0 => {
            for _ in 0..=rng.below(8) {
                let bit = rng.below(8 * bytes.len());
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            "bit flips"
        }
        1 => {
            bytes.truncate(rng.below(bytes.len()));
            "truncation"
        }
        2 => {
            let at = 4 * rng.below(bytes.len() / 4);
            put_word(&mut bytes, at, rng);
            "word overwrite"
        }
        _ => {
            let at = 4 * rng.below(HEADER_WORDS);
            put_word(&mut bytes, at, rng);
            "header overwrite"
        }
    };
    (kind, bytes)
}

/// Takes one mutant the whole way through; errors are fine.
fn serve(bytes: &[u8]) {
    let Ok(image) = Image::from_bytes(bytes) else {
        return;
    };
    let Ok(analysis) = Analysis::compute(Arc::new(image)) else {
        return;
    };
    for op in CACHED_OPS {
        let _ = run_op(op, &analysis);
    }
}

#[test]
fn mutated_images_error_instead_of_panicking() {
    let mut panics = Vec::new();
    for (n, shape) in (0u64..).zip(["gcc", "sunpro", "stripped", "mips"]) {
        for seed in [2u64, 10] {
            let base = common::image(shape, seed).to_bytes();
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (seed << 8 | n));
            for case in 0..CASES {
                let (kind, mutant) = mutate(&base, &mut rng);
                if catch_unwind(AssertUnwindSafe(|| serve(&mutant))).is_err() {
                    panics.push(format!("{shape} seed {seed} case {case}: {kind}"));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "mutants panicked:\n{}",
        panics.join("\n")
    );
}

/// The shape behind the first panic the loop found: a branch into the
/// middle of a dispatch table, scanned as code before the table was
/// resolved. The table owns those words, so the block the branch starts
/// there holds no instructions and gets no layout unit of its own;
/// instrumenting must still lay the routine out.
#[test]
fn branch_into_a_dispatch_table_is_laid_out() {
    let image = eel_asm::assemble(
        "
        .global main
    main:
        cmp %o0, 2
        bgeu dispatch
        nop
        ba inside
        nop
    dispatch:
        sll %o0, 2, %o0
        set table, %o1
        ld [%o1 + %o0], %o1
        jmp %o1
        nop
    table:
        .word case0
    inside:
        .word case1
    case0:
        retl
        mov 1, %o0
    case1:
        retl
        mov 2, %o0
    ",
    )
    .expect("assemble");
    let analysis = Analysis::compute(Arc::new(image)).expect("analyze");
    for op in CACHED_OPS {
        let _ = run_op(op, &analysis);
    }
}
