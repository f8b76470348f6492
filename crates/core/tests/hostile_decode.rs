//! The decoders see every word of every image, text that is really data
//! included, so no 32-bit word may panic them. A seeded, std-only loop
//! feeds random words and bit-flipped words of progen images (SPARC and
//! its MIPS twin) through `eel_isa::decode` and the instruction queries,
//! and through both machines' `MachineOps`, each at a random word-aligned
//! pc (wrap-around included), under `catch_unwind`. Each word's MIPS
//! register sets, spelled through the seam, must also name exactly the
//! registers spawn's per-word reference reports.

use eel_core::machine_ops;
use eel_exe::Machine;
use eel_isa::RegSet;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// xorshift64*: a few lines of deterministic randomness, no crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }
}

/// Random words each decoder sees.
const RANDOM_WORDS: usize = 100_000;
/// Image words with one to three bits flipped.
const FLIPPED_WORDS: usize = 100_000;

fn corpus(rng: &mut Rng) -> Vec<u32> {
    let program = eel_progen::random_program(7, &eel_progen::GenConfig::default());
    let sparc = eel_cc::compile_ast(&program, &eel_cc::Options::default()).expect("compile");
    let mips = eel_progen::compile_mips(&program).expect("compile mips");
    let text: Vec<u32> = sparc
        .text_words()
        .chain(mips.text_words())
        .map(|(_, w)| w)
        .collect();
    let mut words: Vec<u32> = (0..RANDOM_WORDS).map(|_| rng.next()).collect();
    for _ in 0..FLIPPED_WORDS {
        let mut w = text[rng.next() as usize % text.len()];
        for _ in 0..=rng.next() % 3 {
            w ^= 1 << (rng.next() % 32);
        }
        words.push(w);
    }
    words
}

/// Runs every decoder query on `word`; the results only need to exist.
fn exercise(word: u32, pc: u32) {
    let insn = eel_isa::decode(word);
    let _ = insn.to_string();
    let _ = (
        insn.reads(),
        insn.writes(),
        insn.jump_kind(),
        insn.is_delayed(),
    );
    for machine in [Machine::Sparc, Machine::Mips] {
        let ops = machine_ops(machine);
        let _ = (ops.flow(word, pc), ops.regs(word));
        ops.disasm(word, pc, &mut String::new());
    }
}

/// Does the MIPS seam's register numbering spell the registers spawn's
/// per-word `(set, index)` reference names, `$<index>` for `R` and
/// `$<lowercase set>` otherwise?
fn mips_regs_agree(spawn: &eel_spawn::Machine, word: u32) -> bool {
    let ops = machine_ops(Machine::Mips);
    let seam = |set: RegSet| set.iter().map(|r| ops.reg_name(r)).collect::<BTreeSet<_>>();
    let spell = |regs: RegSet| {
        regs.iter()
            .map(|r| match spawn.register(r).expect("a declared register") {
                ("R", i) => format!("${i}"),
                (other, _) => format!("${}", other.to_ascii_lowercase()),
            })
            .collect::<BTreeSet<_>>()
    };
    let (reads, writes) = match spawn.decode(word) {
        Some(d) => (spell(spawn.reads(&d)), spell(spawn.writes(&d))),
        None => (BTreeSet::new(), BTreeSet::new()),
    };
    let (seam_reads, seam_writes) = ops.regs(word);
    seam(seam_reads) == reads && seam(seam_writes) == writes
}

#[test]
fn decoders_never_panic() {
    let mut rng = Rng(0x5eed_dec0_de00_0001);
    let words = corpus(&mut rng);
    let spawn = eel_spawn::mips_machine().expect("mips.spawn");
    let mut panics = Vec::new();
    let mut disagreements = Vec::new();
    for &word in &words {
        let pc = rng.next() & !3;
        if catch_unwind(AssertUnwindSafe(|| exercise(word, pc))).is_err() {
            panics.push(format!("{word:#010x} at pc {pc:#010x}"));
        } else if !mips_regs_agree(&spawn, word) {
            disagreements.push(format!("{word:#010x}"));
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {} words panicked a decoder: {}",
        panics.len(),
        words.len(),
        panics.join(", ")
    );
    assert!(
        disagreements.is_empty(),
        "{} of {} words spell MIPS registers unlike spawn: {}",
        disagreements.len(),
        words.len(),
        disagreements.join(", ")
    );
}
