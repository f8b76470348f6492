//! Golden op outputs: FNV-1a digests of every cacheable op body (and of
//! an `edit` script's output image) for small seeded progen programs in
//! the four image shapes the daemon serves — SPARC gcc, SPARC SunPro,
//! stripped SPARC gcc and MIPS — at one and two analysis threads.
//!
//! Any change to CFG construction, disassembly, liveness, layout or the
//! op renderers that moves a single output byte shows up here.

use eel_core::Analysis;
use eel_progen::GenConfig;
use std::sync::Arc;

const OPS: [&str; 5] = ["disasm", "cfg-summary", "liveness", "stat", "instrument"];

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
        stmts_per_fn: 4,
        max_depth: 2,
        globals: 2,
        arrays: 1,
    }
}

fn image(shape: &str, seed: u64) -> eel_exe::Image {
    let program = eel_progen::random_program(seed, &config());
    let sparc = |personality| {
        let options = eel_cc::Options {
            personality,
            ..eel_cc::Options::default()
        };
        eel_cc::compile_ast(&program, &options).expect("compile")
    };
    match shape {
        "gcc" => sparc(eel_cc::Personality::Gcc),
        "sunpro" => sparc(eel_cc::Personality::SunPro),
        "stripped" => {
            let mut image = sparc(eel_cc::Personality::Gcc);
            image.strip();
            image
        }
        "mips" => eel_progen::compile_mips(&program).expect("compile mips"),
        other => unreachable!("unknown shape {other}"),
    }
}

/// One line per output: `shape seed what threads digest`, where an error
/// result is digested as its message prefixed by `err:`.
fn digests() -> Vec<String> {
    let mut lines = Vec::new();
    for shape in ["gcc", "sunpro", "stripped", "mips"] {
        for seed in [2u64, 10] {
            let analysis =
                Arc::new(Analysis::compute(Arc::new(image(shape, seed))).expect("analyze"));
            let digest = |r: Result<Vec<u8>, String>| match r {
                Ok(body) => format!("{:016x}", fnv(&body)),
                Err(msg) => format!("err:{:016x}", fnv(msg.as_bytes())),
            };
            for op in OPS {
                for threads in [1, 2] {
                    let body = eel_serve::run_op_with(op, &analysis, threads);
                    lines.push(format!("{shape} {seed} {op} {threads} {}", digest(body)));
                }
            }
            if shape != "mips" {
                // Targets by address so the stripped shape edits too.
                let entry = analysis.image().entry;
                let script = format!(
                    "counter @{entry:#x}\ninsert-before @{entry:#x} {{\n  add %g0, %g0, %g0\n}}\napply\n"
                );
                let edited = eel_edit::EditSession::from_analysis(Arc::clone(&analysis))
                    .run_script_to_image(&script)
                    .map(|applied| applied.image.to_bytes())
                    .map_err(|e| e.to_string());
                lines.push(format!("{shape} {seed} edit 1 {}", digest(edited)));
            }
        }
    }
    lines
}

/// Recorded from the seed pipeline, except the MIPS `disasm`,
/// `cfg-summary` and `liveness` lines, re-recorded when MIPS moved onto
/// the shared CFG pipeline and renderers (listings lost the hex-word
/// column and spell shift amounts, summaries count normalized blocks,
/// live-in sets print in register order). Every line must stay
/// byte-identical.
const GOLDEN: &str = "
gcc 2 disasm 1 742b4a8f95dcd105
gcc 2 disasm 2 742b4a8f95dcd105
gcc 2 cfg-summary 1 494ee8b81fb5c790
gcc 2 cfg-summary 2 494ee8b81fb5c790
gcc 2 liveness 1 f640c9155709344e
gcc 2 liveness 2 f640c9155709344e
gcc 2 stat 1 d9a6e6fecc8e5ee2
gcc 2 stat 2 d9a6e6fecc8e5ee2
gcc 2 instrument 1 a2eed8f25a24f0d3
gcc 2 instrument 2 a2eed8f25a24f0d3
gcc 2 edit 1 d352c2c7a562d02d
gcc 10 disasm 1 339ab2c8d1eafc76
gcc 10 disasm 2 339ab2c8d1eafc76
gcc 10 cfg-summary 1 cb99404a83175ad1
gcc 10 cfg-summary 2 cb99404a83175ad1
gcc 10 liveness 1 f640c9155709344e
gcc 10 liveness 2 f640c9155709344e
gcc 10 stat 1 372aabf45413b84e
gcc 10 stat 2 372aabf45413b84e
gcc 10 instrument 1 951bb787d8499b15
gcc 10 instrument 2 951bb787d8499b15
gcc 10 edit 1 9e7099602e572851
sunpro 2 disasm 1 742b4a8f95dcd105
sunpro 2 disasm 2 742b4a8f95dcd105
sunpro 2 cfg-summary 1 494ee8b81fb5c790
sunpro 2 cfg-summary 2 494ee8b81fb5c790
sunpro 2 liveness 1 f640c9155709344e
sunpro 2 liveness 2 f640c9155709344e
sunpro 2 stat 1 d9a6e6fecc8e5ee2
sunpro 2 stat 2 d9a6e6fecc8e5ee2
sunpro 2 instrument 1 a2eed8f25a24f0d3
sunpro 2 instrument 2 a2eed8f25a24f0d3
sunpro 2 edit 1 d352c2c7a562d02d
sunpro 10 disasm 1 c096d88ee5a84422
sunpro 10 disasm 2 c096d88ee5a84422
sunpro 10 cfg-summary 1 c1bb1cc668bb4e62
sunpro 10 cfg-summary 2 c1bb1cc668bb4e62
sunpro 10 liveness 1 f640c9155709344e
sunpro 10 liveness 2 f640c9155709344e
sunpro 10 stat 1 0785514f5b4554c8
sunpro 10 stat 2 0785514f5b4554c8
sunpro 10 instrument 1 b0b9b2ded988928a
sunpro 10 instrument 2 b0b9b2ded988928a
sunpro 10 edit 1 22cb8554ba8b5229
stripped 2 disasm 1 ebb20bf038722c2f
stripped 2 disasm 2 ebb20bf038722c2f
stripped 2 cfg-summary 1 55fcb17977b90b7e
stripped 2 cfg-summary 2 55fcb17977b90b7e
stripped 2 liveness 1 4bba3f0b1992fc76
stripped 2 liveness 2 4bba3f0b1992fc76
stripped 2 stat 1 8ad570194b857d23
stripped 2 stat 2 8ad570194b857d23
stripped 2 instrument 1 a5d5910bbe2bca5f
stripped 2 instrument 2 a5d5910bbe2bca5f
stripped 2 edit 1 ca8296fe144838e1
stripped 10 disasm 1 3ca8d75fce167dad
stripped 10 disasm 2 3ca8d75fce167dad
stripped 10 cfg-summary 1 ea7b7721821f57a2
stripped 10 cfg-summary 2 ea7b7721821f57a2
stripped 10 liveness 1 7020270b1732cebd
stripped 10 liveness 2 7020270b1732cebd
stripped 10 stat 1 6db1d3da775c7c2e
stripped 10 stat 2 6db1d3da775c7c2e
stripped 10 instrument 1 2136e5a355a12382
stripped 10 instrument 2 2136e5a355a12382
stripped 10 edit 1 fd296e42ba59ea86
mips 2 disasm 1 343594d85125304a
mips 2 disasm 2 343594d85125304a
mips 2 cfg-summary 1 bd4ab333535ee579
mips 2 cfg-summary 2 bd4ab333535ee579
mips 2 liveness 1 8324dadda5872511
mips 2 liveness 2 8324dadda5872511
mips 2 stat 1 c7f9b4913e30ee91
mips 2 stat 2 c7f9b4913e30ee91
mips 2 instrument 1 f4eb80e467b3c475
mips 2 instrument 2 f4eb80e467b3c475
mips 10 disasm 1 52f525d375470b97
mips 10 disasm 2 52f525d375470b97
mips 10 cfg-summary 1 1c7154079d20b1b0
mips 10 cfg-summary 2 1c7154079d20b1b0
mips 10 liveness 1 8324dadda5872511
mips 10 liveness 2 8324dadda5872511
mips 10 stat 1 4c0c571b606c8afa
mips 10 stat 2 4c0c571b606c8afa
mips 10 instrument 1 d948814dc1c319c2
mips 10 instrument 2 d948814dc1c319c2
";

#[test]
fn op_outputs_match_the_recorded_digests() {
    let got = digests().join("\n");
    assert_eq!(got, GOLDEN.trim(), "\n--- got ---\n{got}\n");
}
