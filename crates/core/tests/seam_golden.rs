//! Golden outputs of the machine seam: FNV-1a digests of what the
//! shared CFG builder and liveness solver compute for the first twelve
//! progen seeds that compile for MIPS (and for SPARC gcc, since a deep
//! expression can exhaust SPARC's temporaries), and of SPARC liveness
//! over each seed's gcc twin.
//!
//! Per MIPS image, one digest each covers:
//! * every routine's CFG shape from `build_all_cfgs(1)`: each block's
//!   kind, address and length, and each successor edge's kind and
//!   destination;
//! * every block's live-in and live-out registers, spelled in register
//!   order;
//! * the `instrument_block_counters` image bytes and counter list.
//!
//! Per SPARC twin, one digest covers `Liveness::compute`'s per-block
//! live-in and live-out sets over `build_all_cfgs(1)`. Any change to the
//! seam, the builder, the liveness solver or the block-counter rewriter
//! that moves a single output shows up here.

use eel_core::{instrument_block_counters, machine_ops, Analysis, Executable, Liveness};
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
    let spell = |set: RegSet| {
        let names: Vec<String> = set.iter().map(|r| ops.reg_name(r)).collect();
        names.join(" ")
    };
    let (mut cfgs, mut live) = (String::new(), String::new());
    let mut exec = Executable::from_analysis(&analysis);
    match exec.build_all_cfgs(1) {
        Ok(built) => {
            for (routine, cfg) in built {
                let _ = writeln!(cfgs, "{}:", routine.name());
                let sets = Liveness::compute(&cfg);
                for (id, b) in cfg.blocks() {
                    let _ = write!(cfgs, "{:?} {:#x} {}", b.kind, b.addr, b.insns.len());
                    for e in b.succ() {
                        let e = cfg.edge(e);
                        let _ = write!(cfgs, " {:?}>{}", e.kind, e.to.index());
                    }
                    cfgs.push('\n');
                    let _ = writeln!(
                        live,
                        "{}: in {{{}}} out {{{}}}",
                        id.index(),
                        spell(sets.live_in(id)),
                        spell(sets.live_out(id))
                    );
                }
            }
        }
        Err(e) => {
            let _ = writeln!(cfgs, "err:{e}");
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

/// The MIPS `cfg` and `liveness` lines were recorded when MIPS moved onto
/// the shared CFG builder and liveness solver; every other line dates from
/// before the seam carried register sets. Every line must stay
/// byte-identical.
const GOLDEN: &str = "\
0 mips cfg 57096f0471843ab9
0 mips liveness 1ae386c8f4b24c11
0 mips instrument 67443100364705ce
0 sparc liveness 97ef659439b6fdc6
1 mips cfg e26cde4feb3f3a04
1 mips liveness db550b896f6464ac
1 mips instrument 26e3a999c0ec88c1
1 sparc liveness 43fc386589588ffa
2 mips cfg 305607f33cd5a16b
2 mips liveness 48c93ca068b83d69
2 mips instrument 2bc6b170d6f6e01d
2 sparc liveness 4945f61dd6df7e27
3 mips cfg 7d78d7e324a87859
3 mips liveness 3738774596ae9ccb
3 mips instrument 90a7f07894e5867f
3 sparc liveness 92ac7a3ec9ab4727
4 mips cfg 3724b45bb8451af6
4 mips liveness de1e5a2439f55f6f
4 mips instrument b96ad5b1a34c501c
4 sparc liveness 8f15e7d9672f9a27
5 mips cfg 30ba132dcd67a38e
5 mips liveness b1eb08a604b3bdbd
5 mips instrument 752e90b425ecbcea
5 sparc liveness 64442b552b2ac46e
6 mips cfg 2830c2fcfbcba584
6 mips liveness 78a56940f8cb3b2e
6 mips instrument c9767cd84754250b
6 sparc liveness 57218a54d0fb0719
7 mips cfg 14f6fcb2fe0886ac
7 mips liveness 7a3e06d8977e6bf7
7 mips instrument 971916a1cd94f65d
7 sparc liveness f7a1a2a267caf6fe
8 mips cfg 4b82e4806a39eefd
8 mips liveness d83343c471d49e82
8 mips instrument adfa894daacc21e9
8 sparc liveness 84c0ec0c7fc14603
9 mips cfg 5075289a501228ff
9 mips liveness 36e52ebe34a63709
9 mips instrument 9c0e42e725971213
9 sparc liveness 3069968a3c301c68
10 mips cfg 1cd35afe357cbe11
10 mips liveness ebbbb794be5f4667
10 mips instrument 9d196655d509880f
10 sparc liveness 6218ce9b828dc3e2
12 mips cfg 7cdad37fcc7a767d
12 mips liveness 57af6ce07a26e314
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
