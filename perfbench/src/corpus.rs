//! Seeded inputs for the three workloads.
//!
//! Every image is a progen program compiled for one of four shapes. The
//! size of each image is steered into a band around a target text size,
//! so two seeds give different programs but the same amount of work.

use eel_cc::ast::Program;
use eel_exe::Image;
use eel_progen::GenConfig;
use std::sync::Arc;

/// The image shapes the daemon sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// SPARC, gcc code shape (every indirect jump is a dispatch table).
    Gcc,
    /// SPARC, SunPro code shape (tail-call indirect jumps need the
    /// run-time translator in `write_edited`).
    SunPro,
    /// SPARC gcc with its symbol table stripped (eel-strip discovery).
    Stripped,
    /// MIPS (the generic, description-derived pipeline).
    Mips,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Gcc, Kind::SunPro, Kind::Stripped, Kind::Mips];
}

/// MIPS images stay below this WEF size. Generic `instrument` fails with
/// `layout overflow: instrumented branch … cannot reach` on MIPS WEFs of
/// about 475 KB and larger, and no operation of a workload may fail.
pub const MIPS_WEF_CAP: usize = 320 * 1024;

/// Text size of the largest MIPS image the size steering aims for.
const MIPS_TEXT_CAP: usize = 200 * 1024;

/// Text bytes one generated statement adds, roughly; the starting point
/// of the size steering.
const BYTES_PER_STMT: usize = 1100;

/// One generated image.
#[derive(Clone)]
pub struct Item {
    pub kind: Kind,
    /// The progen seed and shape of the program it was compiled from, so
    /// the replay can build its twins on the other machine without the
    /// corpus holding every AST.
    pub program: (u64, GenConfig),
    pub image: Arc<Image>,
    pub wef: Arc<Vec<u8>>,
}

impl Item {
    /// The program this image was compiled from.
    pub fn program(&self) -> Program {
        eel_progen::random_program(self.program.0, &self.program.1)
    }
}

/// A small deterministic generator (splitmix64).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Mixes two numbers into one well-spread seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32) ^ 0x5851_f42d_4c95_7f2d).next_u64()
}

/// Statements per generated function: tiny targets come out closer with
/// shorter bodies.
fn stmts_for(target: usize) -> usize {
    if target < 12 * 1024 {
        2
    } else {
        4
    }
}

fn compile(kind: Kind, program: &Program) -> Option<Image> {
    let personality = match kind {
        Kind::SunPro => eel_cc::Personality::SunPro,
        _ => eel_cc::Personality::Gcc,
    };
    match kind {
        Kind::Mips => eel_progen::compile_mips(program).ok(),
        _ => {
            let options = eel_cc::Options {
                personality,
                ..eel_cc::Options::default()
            };
            let mut image = eel_cc::compile_ast(program, &options).ok()?;
            if kind == Kind::Stripped {
                image.strip();
            }
            Some(image)
        }
    }
}

/// Draws a program of `kind` with `stmts` statements per function whose
/// text is within a band around `target` bytes. Deterministic in `seed`.
pub fn draw(kind: Kind, target: usize, stmts: usize, seed: u64) -> Item {
    let target = if kind == Kind::Mips {
        target.min(MIPS_TEXT_CAP)
    } else {
        target
    };
    let mut functions = (target / (BYTES_PER_STMT * stmts)).max(1);
    for attempt in 0u64.. {
        // The band starts at ±1/16 and widens every 128 misses.
        let slack = target / 16 * (1 + attempt as usize / 128);
        let (lo, hi) = (target.saturating_sub(slack), target + slack);
        let config = GenConfig {
            functions,
            stmts_per_fn: stmts,
            max_depth: 2,
            globals: 3,
            arrays: 2,
        };
        let program_seed = mix(seed, attempt);
        let program = eel_progen::random_program(program_seed, &config);
        let predicted = predicted_text(&program);
        if !(lo..=hi).contains(&predicted) {
            // Steer the function count halfway toward the target.
            let scaled = functions * target / predicted.max(1);
            functions = ((functions + scaled) / 2).max(1);
            if predicted < lo && scaled > functions {
                functions += 1;
            }
            continue;
        }
        let Some(image) = compile(kind, &program) else {
            continue;
        };
        let wef = image.to_bytes();
        if kind == Kind::Mips && wef.len() > MIPS_WEF_CAP {
            continue;
        }
        return Item {
            kind,
            program: (program_seed, config),
            image: Arc::new(image),
            wef: Arc::new(wef),
        };
    }
    unreachable!("the draw loop only ends by returning")
}

/// The text size a program compiles to, predicted from the length of
/// its AST's debug rendering: compiled text runs at 0.735 bytes per
/// rendered byte, within a few percent, at a small fraction of the cost
/// of compiling.
fn predicted_text(program: &Program) -> usize {
    struct Count(usize);
    impl std::fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    let _ = std::fmt::Write::write_fmt(&mut count, format_args!("{program:?}"));
    count.0 * 735 / 1000
}

/// Draws `specs` (kind, target text bytes) on two threads; item `i` is
/// seeded from `(seed, i)`, so the result does not depend on timing.
pub fn draw_all(seed: u64, specs: &[(Kind, usize)]) -> Vec<Item> {
    let mut out: Vec<Option<Item>> = vec![None; specs.len()];
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) =
            out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
        for half in [even, odd] {
            s.spawn(move || {
                for (i, slot) in half {
                    let (kind, target) = specs[i];
                    *slot = Some(draw(kind, target, stmts_for(target), mix(seed, i as u64)));
                }
            });
        }
    });
    out.into_iter()
        .map(|item| item.expect("every slot drawn"))
        .collect()
}

/// Text-size targets of cold-mix, in KiB: a block of twelve, weighted
/// toward small images so a ten-second run has enough samples for a p99.
const COLD_SIZES_KB: [usize; 12] = [7, 7, 7, 7, 15, 15, 15, 30, 30, 60, 120, 250];

/// The cold-mix images: `count` distinct programs, every size class in
/// every shape, in a seeded order.
pub fn cold_mix(seed: u64, count: usize) -> Vec<Item> {
    let mut rng = Rng::new(mix(seed, 0xc01d));
    let mut specs = Vec::with_capacity(count);
    let mut block = 0usize;
    while specs.len() < count {
        let mut slots: Vec<(Kind, usize)> = COLD_SIZES_KB
            .iter()
            .enumerate()
            .map(|(i, &kb)| (Kind::ALL[(i + block) % 4], kb * 1024))
            .collect();
        rng.shuffle(&mut slots);
        specs.extend(slots);
        block += 1;
    }
    specs.truncate(count);
    dedupe(draw_all(seed, &specs))
}

/// Text-size targets of the warm-hits working set, in KiB: small up to
/// about 1 MB of WEF.
const WARM_SIZES_KB: [usize; 24] = [
    2, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 64, 80, 100, 128, 200, 320, 680,
];

/// The warm-hits working set.
pub fn warm_set(seed: u64) -> Vec<Item> {
    let specs: Vec<(Kind, usize)> = WARM_SIZES_KB
        .iter()
        .enumerate()
        // The shape of each slot is fixed, so every seed has the same
        // mix of shapes and sizes; the largest slots stay SPARC, under
        // the MIPS size cap.
        .map(|(i, &kb)| {
            let kind = Kind::ALL[i % 4];
            let kind = if kind == Kind::Mips && kb * 1024 > MIPS_TEXT_CAP {
                Kind::Gcc
            } else {
                kind
            };
            (kind, kb * 1024)
        })
        .collect();
    dedupe(draw_all(mix(seed, 0x3a53), &specs))
}

/// Text size of a near-dup-edit base image: two-statement functions
/// give it about forty routines, so a twin's one changed routine (and
/// the odd routine that is never cached) leave a fragment hit ratio
/// well above 0.9.
const BASE_TEXT: usize = 96 * 1024;

/// The near-dup-edit base images. A base must run to its exit under
/// eel-emu within `step_limit`, so the emulator check has twins to
/// compare against.
pub fn dup_bases(seed: u64, count: usize, step_limit: u64) -> Vec<Item> {
    let mut bases: Vec<Item> = Vec::with_capacity(count);
    for attempt in 0u64.. {
        if bases.len() == count {
            break;
        }
        let base = draw(Kind::Gcc, BASE_TEXT, 2, mix(seed ^ 0xd0b, attempt));
        let fresh = bases.iter().all(|b| b.wef != base.wef);
        if fresh && crate::check::emulate(&base.image, step_limit).is_some() {
            bases.push(base);
        }
    }
    bases
}

/// Drops repeated images (two seeds can compile to the same bytes), so
/// no `(image, op)` pair of a workload repeats by accident.
fn dedupe(items: Vec<Item>) -> Vec<Item> {
    let mut seen = std::collections::HashSet::new();
    items
        .into_iter()
        .filter(|item| seen.insert(eel_serve::content_hash(&item.wef)))
        .collect()
}

/// Routines of `image` that [`eel_progen::mutate_routine`] can change.
pub fn mutable_routines(image: &Image) -> usize {
    let mut probe = image.clone();
    let mut names = std::collections::HashSet::new();
    for k in 0..4096 {
        match eel_progen::mutate_routine(&mut probe, k) {
            Some((name, _)) => {
                if !names.insert(name) {
                    break;
                }
            }
            None => break,
        }
    }
    names.len()
}

/// Twin `n` of a base: routine `n % routines` changed, its immediate
/// bumped `n / routines + 1` times, so every twin is distinct.
pub fn twin(base: &Image, routines: usize, n: usize) -> Image {
    let mut image = base.clone();
    for _ in 0..=n / routines.max(1) {
        eel_progen::mutate_routine(&mut image, n % routines.max(1));
    }
    image
}
