//! Golden outputs of the machine seam: FNV-1a digests of what the
//! generic pipeline computes for the first twelve progen seeds that
//! compile for MIPS (and for SPARC gcc, since a deep expression can
//! exhaust SPARC's temporaries), and of SPARC liveness over each seed's
//! gcc twin.
//!
//! Per MIPS image, one digest each covers:
//! * every routine's `generic_cfg` blocks (start, end, successors and
//!   the indirect-exit flag);
//! * every block's live-in and live-out registers, spelled and sorted
//!   as strings;
//! * the `instrument_block_counters` image bytes and counter list.
//!
//! Per SPARC twin, one digest covers `Liveness::compute`'s per-block
//! live-in and live-out sets over `build_all_cfgs(1)`. Any change to the
//! seam, the leader pass, the liveness solver or the block-counter
//! rewriter that moves a single output shows up here.

use eel_core::{
    generic_cfg, generic_liveness, instrument_block_counters, machine_ops, Analysis, BlockId,
    Executable, Liveness,
};
use eel_isa::RegSet;
use eel_progen::{random_program, GenConfig};
use std::fmt::Write;
use std::sync::Arc;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config() -> GenConfig {
    GenConfig {
        functions: 3,
        stmts_per_fn: 6,
        max_depth: 2,
        globals: 2,
        arrays: 2,
    }
}

/// The first twelve seeds whose program compiles for both machines, with
/// the MIPS image and its SPARC gcc twin.
fn images() -> Vec<(u64, eel_exe::Image, eel_exe::Image)> {
    let mut out = Vec::new();
    for seed in 0u64.. {
        if out.len() == 12 {
            break;
        }
        let program = random_program(seed, &config());
        let mips = eel_progen::compile_mips(&program);
        let sparc = eel_cc::compile_ast(&program, &eel_cc::Options::default());
        if let (Ok(mips), Ok(sparc)) = (mips, sparc) {
            out.push((seed, mips, sparc));
        }
    }
    out
}

fn mips_digests(seed: u64, image: &eel_exe::Image) -> Vec<String> {
    let analysis = Analysis::compute(Arc::new(image.clone())).expect("analyze");
    let ops = machine_ops(image.machine);
    let (mut cfgs, mut live) = (String::new(), String::new());
    for routine in analysis.routines() {
        let cfg = match generic_cfg(image, routine) {
            Ok(cfg) => cfg,
            Err(e) => {
                let _ = writeln!(cfgs, "{}: err:{e}", routine.name());
                continue;
            }
        };
        let _ = writeln!(cfgs, "{}:", routine.name());
        for b in &cfg.blocks {
            let _ = writeln!(
                cfgs,
                "{:#x} {:#x} {:x?} {}",
                b.start, b.end, b.succs, b.has_indirect_exit
            );
        }
        let sets = generic_liveness(image, &cfg);
        for i in 0..cfg.blocks.len() {
            let spell = |set: RegSet| {
                let mut names: Vec<String> = set.iter().map(|r| ops.reg_name(r)).collect();
                names.sort();
                names.join(" ")
            };
            let b = BlockId::from_index(i);
            let _ = writeln!(
                live,
                "{i}: in {{{}}} out {{{}}}",
                spell(sets.live_in(b)),
                spell(sets.live_out(b))
            );
        }
    }
    let instrumented = match instrument_block_counters(image) {
        Ok((edited, counters)) => {
            let mut text = format!("{:x}\n", fnv(&edited.to_bytes()));
            for c in &counters {
                let _ = writeln!(text, "{:#x} {:#x}", c.orig_start, c.counter_addr);
            }
            text
        }
        Err(e) => format!("err:{e}"),
    };
    vec![
        format!("{seed} mips cfg {:016x}", fnv(cfgs.as_bytes())),
        format!("{seed} mips liveness {:016x}", fnv(live.as_bytes())),
        format!(
            "{seed} mips instrument {:016x}",
            fnv(instrumented.as_bytes())
        ),
    ]
}

fn sparc_digest(seed: u64, image: eel_exe::Image) -> String {
    let mut exec = Executable::from_image(image).expect("open");
    exec.read_contents().expect("discover");
    let mut text = String::new();
    for (routine, cfg) in exec.build_all_cfgs(1).expect("cfgs") {
        let live = Liveness::compute(&cfg);
        let _ = writeln!(text, "{}:", routine.name());
        for (id, _) in cfg.blocks() {
            let _ = writeln!(
                text,
                "{}: {:x} {:x}",
                id.index(),
                live.live_in(id).bits(),
                live.live_out(id).bits()
            );
        }
    }
    format!("{seed} sparc liveness {:016x}", fnv(text.as_bytes()))
}

fn digests() -> Vec<String> {
    let mut lines = Vec::new();
    for (seed, mips, sparc) in images() {
        lines.extend(mips_digests(seed, &mips));
        lines.push(sparc_digest(seed, sparc));
    }
    lines
}

/// Recorded before the seam carried register sets; every line must stay
/// byte-identical.
const GOLDEN: &str = "\
0 mips cfg d1cb62c8cb1b1708
0 mips liveness 020de0e9c7f9f970
0 mips instrument 67443100364705ce
0 sparc liveness 97ef659439b6fdc6
1 mips cfg edc57f6e17717f2f
1 mips liveness 346c50239dd7df7a
1 mips instrument 26e3a999c0ec88c1
1 sparc liveness 43fc386589588ffa
2 mips cfg 3e94de38673fb398
2 mips liveness 79c92511e4e5fb87
2 mips instrument 2bc6b170d6f6e01d
2 sparc liveness 4945f61dd6df7e27
3 mips cfg 2eec9f559d46ba01
3 mips liveness 5b9c4216c2b34675
3 mips instrument 90a7f07894e5867f
3 sparc liveness 92ac7a3ec9ab4727
4 mips cfg 8ed0666f28286e43
4 mips liveness 4fa210f7d31c6419
4 mips instrument b96ad5b1a34c501c
4 sparc liveness 8f15e7d9672f9a27
5 mips cfg 55bdbc3ad52bef56
5 mips liveness fdab6cb800ffed3e
5 mips instrument 752e90b425ecbcea
5 sparc liveness 64442b552b2ac46e
6 mips cfg 20ca6387a145317b
6 mips liveness 31f3f443c65e853a
6 mips instrument c9767cd84754250b
6 sparc liveness 57218a54d0fb0719
7 mips cfg 7532dc29757a3bb8
7 mips liveness 56143a462a0537b5
7 mips instrument 971916a1cd94f65d
7 sparc liveness f7a1a2a267caf6fe
8 mips cfg 07cb923dbea35dd4
8 mips liveness cbded1bd166d54fd
8 mips instrument adfa894daacc21e9
8 sparc liveness 84c0ec0c7fc14603
9 mips cfg 61ca06d5719af488
9 mips liveness 2f058aa3f2827c89
9 mips instrument 9c0e42e725971213
9 sparc liveness 3069968a3c301c68
10 mips cfg 70bea20e33bd7e3b
10 mips liveness 8b987c43b819eb0b
10 mips instrument 9d196655d509880f
10 sparc liveness 6218ce9b828dc3e2
12 mips cfg b51d88326b8cdc37
12 mips liveness 21b28454870ecb00
12 mips instrument 1f32883a4590ad24
12 sparc liveness 0c84ae5ec8280c37
";

#[test]
fn seam_outputs_match_the_recorded_digests() {
    let got = digests();
    let want: Vec<&str> = GOLDEN.lines().collect();
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        panic!("seam digests moved; now:\n{}", got.join("\n"));
    }
}
