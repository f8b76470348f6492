//! Seeded test images shared by the serve test suites: small progen
//! programs in the four image shapes the daemon serves — SPARC gcc,
//! SPARC SunPro, stripped SPARC gcc and MIPS. The programs match the
//! ones `op_golden.rs` pins.

use eel_progen::GenConfig;

fn config() -> GenConfig {
    GenConfig {
        functions: 3,
        stmts_per_fn: 4,
        max_depth: 2,
        globals: 2,
        arrays: 1,
    }
}

/// The image of progen program `seed` in `shape` (`gcc`, `sunpro`,
/// `stripped` or `mips`).
pub fn image(shape: &str, seed: u64) -> eel_exe::Image {
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
