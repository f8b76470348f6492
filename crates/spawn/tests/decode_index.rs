//! The decode index is only a faster route to the same answer:
//! `Machine::decode` must pick, for every word, the instruction a linear
//! first match over `Machine::instructions()` picks. Checked on both
//! shipped descriptions over the words `core`'s hostile-decode loop
//! feeds the decoders (random words and bit-flipped words of a progen
//! image pair), plus, for every instruction, its fixed bits under random
//! don't-care bits, so each bucket sees words meant for each of its
//! instructions.
//!
//! The same corpus pins what spawn derives per word: one FNV digest per
//! description folds every word's decoded index, class, links, register
//! reads and writes, static targets and memory width, and a second pins
//! `generate_rust`'s text. Both hold across any refactor of the
//! derivation.

use eel_isa::RegSet;
use eel_spawn::{alpha_machine, generate_rust, mips_machine, sparc_machine, Machine};

/// xorshift64*, seeded as in `crates/core/tests/hostile_decode.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }
}

/// The hostile-decode corpus: 100,000 random words, then 100,000 words
/// of a SPARC image and its MIPS twin with one to three bits flipped.
fn hostile_words(rng: &mut Rng) -> Vec<u32> {
    let program = eel_progen::random_program(7, &eel_progen::GenConfig::default());
    let sparc = eel_cc::compile_ast(&program, &eel_cc::Options::default()).expect("compile");
    let mips = eel_progen::compile_mips(&program).expect("compile mips");
    let text: Vec<u32> = sparc
        .text_words()
        .chain(mips.text_words())
        .map(|(_, w)| w)
        .collect();
    let mut words: Vec<u32> = (0..100_000).map(|_| rng.next()).collect();
    for _ in 0..100_000 {
        let mut w = text[rng.next() as usize % text.len()];
        for _ in 0..=rng.next() % 3 {
            w ^= 1 << (rng.next() % 32);
        }
        words.push(w);
    }
    words
}

/// Each instruction's fixed bits, 64 times, under random other bits.
fn spec_words(m: &Machine, rng: &mut Rng) -> Vec<u32> {
    m.instructions()
        .iter()
        .flat_map(|spec| {
            let (mask, value) = spec.fixed_bits();
            (0..64)
                .map(|_| (rng.next() & !mask) | value)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn linear_first_match(m: &Machine, word: u32) -> Option<usize> {
    m.instructions().iter().position(|spec| spec.matches(word))
}

fn assert_index_agrees(name: &str, m: &Machine) {
    let mut rng = Rng(0x5eed_dec0_de00_0001);
    let mut words = hostile_words(&mut rng);
    words.extend(spec_words(m, &mut rng));
    let mut decoded = 0;
    let mut disagreements = Vec::new();
    for &word in &words {
        let indexed = m.decode(word).map(|d| d.index);
        decoded += usize::from(indexed.is_some());
        let linear = linear_first_match(m, word);
        if indexed != linear {
            disagreements.push(format!("{word:#010x}: {indexed:?} vs {linear:?}"));
        }
    }
    assert!(
        disagreements.is_empty(),
        "{name}: {} of {} words decode unlike a linear first match: {}",
        disagreements.len(),
        words.len(),
        disagreements.join(", ")
    );
    // The spec words alone decode: the corpus exercises every bucket.
    assert!(
        decoded >= 64 * m.instructions().len(),
        "{name}: only {decoded} words decoded"
    );
}

#[test]
fn mips_index_picks_the_linear_first_match() {
    assert_index_agrees("mips.spawn", &mips_machine().expect("mips.spawn"));
}

#[test]
fn sparc_index_picks_the_linear_first_match() {
    assert_index_agrees("sparc.spawn", &sparc_machine().expect("sparc.spawn"));
}

/// FNV-1a, 64-bit.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Registers as `(set, index)` pairs in sorted order.
fn pairs(m: &Machine, regs: RegSet) -> Vec<(String, u32)> {
    let mut regs: Vec<(String, u32)> = regs
        .iter()
        .map(|r| {
            let (set, i) = m.register(r).expect("a declared register");
            (set.to_string(), i)
        })
        .collect();
    regs.sort();
    regs
}

/// One digest over every corpus word's derived facts.
fn facts_digest(m: &Machine) -> u64 {
    let mut rng = Rng(0x5eed_dec0_de00_0001);
    let mut words = hostile_words(&mut rng);
    words.extend(spec_words(m, &mut rng));
    words.iter().fold(FNV_BASIS, |h, &word| {
        let line = match m.decode(word) {
            None => format!("{word:08x} invalid\n"),
            Some(d) => format!(
                "{word:08x} {} {:?} {} {:?} {:?} {:?} {:?} {:?}\n",
                d.index,
                d.spec.class,
                d.spec.links,
                pairs(m, m.reads(&d)),
                pairs(m, m.writes(&d)),
                m.static_target(&d, 0x0001_0000),
                m.static_target(&d, 0xffff_fffc),
                m.mem_width(&d),
            ),
        };
        fnv(h, line.as_bytes())
    })
}

#[test]
fn derived_facts_are_pinned() {
    let digests = [
        (
            "sparc.spawn",
            facts_digest(&sparc_machine().expect("sparc.spawn")),
        ),
        (
            "mips.spawn",
            facts_digest(&mips_machine().expect("mips.spawn")),
        ),
        (
            "alpha.spawn",
            facts_digest(&alpha_machine().expect("alpha.spawn")),
        ),
    ];
    assert_eq!(
        digests,
        [
            ("sparc.spawn", 0x7714_c5d5_e619_2bf3),
            ("mips.spawn", 0xfcf0_1635_0973_20ee),
            ("alpha.spawn", 0x77ea_9a33_5506_49d3),
        ]
    );
}

#[test]
fn generated_rust_is_pinned() {
    let digest = |m: Machine| fnv(FNV_BASIS, generate_rust(&m).as_bytes());
    let digests = [
        ("sparc.spawn", digest(sparc_machine().expect("sparc.spawn"))),
        ("mips.spawn", digest(mips_machine().expect("mips.spawn"))),
        ("alpha.spawn", digest(alpha_machine().expect("alpha.spawn"))),
    ];
    assert_eq!(
        digests,
        [
            ("sparc.spawn", 0x35ac_258d_b4a7_2a3c),
            ("mips.spawn", 0xc274_a298_7f08_65e2),
            ("alpha.spawn", 0x9e47_f925_1caa_4323),
        ]
    );
}
