//! Golden write-path outputs: FNV-1a digests of the `write_edited` image
//! and of every routine's `serialize_layout` bytes, for seeded progen
//! programs compiled with both compiler personalities, with jump analysis
//! on and off.
//!
//! One run applies every edit kind at once: block-start snippets (the
//! entry block and other blocks), `add_code_before`, `add_code_after`,
//! `add_code_along` on every editable edge (call-return edges,
//! dispatch-table edges and the edges around translated transfers
//! included) and, in a second run per program, `delete_insn`. Any change
//! to layout or to `write_edited` that moves a single output byte shows
//! up here. Delete-free edits with jump analysis on must also keep the
//! program's behaviour; with analysis off, editing breaks dispatch tables
//! (see `Executable::set_jump_analysis`), so those runs pin bytes only.

use eel_cc::{compile_ast, Options, Personality};
use eel_core::{BlockKind, EdgeId, Executable, Snippet};
use eel_emu::run_image;
use eel_exe::Image;
use eel_progen::{random_program, GenConfig};

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn config() -> GenConfig {
    GenConfig {
        functions: 3,
        stmts_per_fn: 6,
        max_depth: 2,
        globals: 2,
        arrays: 2,
    }
}

/// Applies every edit kind to every routine known after discovery, then
/// writes the image. Returns the edited image and the digest of each
/// routine's serialized layout, taken before the write.
fn edit(image: Image, jump_analysis: bool, deletes: bool) -> Result<(Image, u64), String> {
    let e = |err: eel_core::EelError| err.to_string();
    let mut exec = Executable::from_image(image).map_err(e)?;
    exec.set_jump_analysis(jump_analysis);
    exec.read_contents().map_err(e)?;
    let counters = exec.reserve_data(4 * 8192);
    let mut n = 0u32;
    let mut counter = || {
        n += 1;
        Snippet::counter_increment(counters + 4 * (n - 1))
    };
    let ids = exec.all_routine_ids();
    for &id in &ids {
        let mut cfg = exec.build_cfg(id).map_err(e)?;
        let entry = cfg.entry_block();
        if cfg.block(entry).editable {
            cfg.add_code_at_block_start(entry, counter()).map_err(e)?;
        }
        let blocks: Vec<_> = cfg
            .blocks()
            .filter(|(_, b)| b.kind == BlockKind::Normal && b.editable && !b.insns.is_empty())
            .map(|(bid, b)| {
                let plain: Vec<u32> = b
                    .insns
                    .iter()
                    .filter(|ia| !ia.insn.is_control_transfer())
                    .filter_map(|ia| ia.addr)
                    .collect();
                (bid, plain)
            })
            .collect();
        for (k, (bid, plain)) in blocks.into_iter().enumerate() {
            if k % 2 == 0 {
                cfg.add_code_at_block_start(bid, counter()).map_err(e)?;
            }
            if let Some(&first) = plain.first() {
                match k % 3 {
                    0 => cfg.add_code_before(first, counter()).map_err(e)?,
                    1 => cfg.add_code_after(first, counter()).map_err(e)?,
                    _ => {}
                }
            }
            if deletes && k % 4 == 3 {
                if let Some(&last) = plain.last() {
                    cfg.delete_insn(last).map_err(e)?;
                }
            }
        }
        for i in 0..cfg.edge_count() {
            let edge = EdgeId::from_index(i);
            if cfg.edge(edge).editable {
                cfg.add_code_along(edge, counter()).map_err(e)?;
            }
        }
        exec.install_edits(cfg).map_err(e)?;
    }
    let mut layouts = FNV_BASIS;
    for &id in &ids {
        fnv(&mut layouts, &(id.index() as u32).to_be_bytes());
        match exec.serialize_layout(id) {
            Some(bytes) => {
                fnv(&mut layouts, &(bytes.len() as u32).to_be_bytes());
                fnv(&mut layouts, &bytes);
            }
            None => fnv(&mut layouts, b"none"),
        }
    }
    let edited = exec.write_edited().map_err(e)?;
    Ok((edited, layouts))
}

/// One line per run: `personality seed analysis deletes image layouts`,
/// where a failed run is digested as its message prefixed by `err:`.
fn digests() -> Vec<String> {
    let mut lines = Vec::new();
    // The first twelve seeds whose programs compile under both
    // personalities (the generator can nest expressions deeper than the
    // compiler's temporaries allow).
    let programs = (0u64..)
        .filter_map(|seed| {
            let program = random_program(seed, &config());
            let images = [Personality::Gcc, Personality::SunPro].map(|personality| {
                let options = Options {
                    personality,
                    ..Options::default()
                };
                compile_ast(&program, &options).ok()
            });
            match images {
                [Some(gcc), Some(sunpro)] => Some((seed, [gcc, sunpro])),
                _ => None,
            }
        })
        .take(12);
    for (seed, images) in programs {
        for (personality, image) in [Personality::Gcc, Personality::SunPro]
            .into_iter()
            .zip(images)
        {
            let before = run_image(&image).expect("original runs");
            for jump_analysis in [true, false] {
                for deletes in [false, true] {
                    let result = match edit(image.clone(), jump_analysis, deletes) {
                        Ok((edited, layouts)) => {
                            if jump_analysis && !deletes {
                                let after = run_image(&edited).unwrap_or_else(|err| {
                                    panic!("seed {seed} {personality:?}: edited run failed: {err}")
                                });
                                assert_eq!(
                                    (before.exit_code, &before.output),
                                    (after.exit_code, &after.output),
                                    "seed {seed} {personality:?}: edited behaviour differs"
                                );
                            }
                            let mut h = FNV_BASIS;
                            fnv(&mut h, &edited.to_bytes());
                            format!("{h:016x} {layouts:016x}")
                        }
                        Err(msg) => {
                            let mut h = FNV_BASIS;
                            fnv(&mut h, msg.as_bytes());
                            format!("err:{h:016x}")
                        }
                    };
                    let name = match personality {
                        Personality::Gcc => "gcc",
                        Personality::SunPro => "sunpro",
                    };
                    let analysis = if jump_analysis { "on" } else { "off" };
                    let deletes = if deletes { "del" } else { "keep" };
                    lines.push(format!("{name} {seed} {analysis} {deletes} {result}"));
                }
            }
        }
    }
    lines
}

/// Recorded from the pipeline before the write path went positional;
/// every line must stay byte-identical.
const GOLDEN: &str = "
gcc 0 on keep 09c1ced4d246203b 9927551ff3598d2e
gcc 0 on del 8df9624232395269 5b2831e40122c4cc
gcc 0 off keep dc05d96dc036bbed 07c7b2a0f46d8a66
gcc 0 off del d46bd8239b621600 80bf398a5eac5316
sunpro 0 on keep 09c1ced4d246203b 9927551ff3598d2e
sunpro 0 on del 8df9624232395269 5b2831e40122c4cc
sunpro 0 off keep dc05d96dc036bbed 07c7b2a0f46d8a66
sunpro 0 off del d46bd8239b621600 80bf398a5eac5316
gcc 1 on keep 24fc9cd85c681e33 e466bbbbf944d72f
gcc 1 on del 7ce6fef051afbe0a cd05e9ebf6a56f06
gcc 1 off keep 67fb2b9b2dd8d3e4 8414c1a92f602f57
gcc 1 off del c90ef93a5fdfb79f f43b6428fc921bc1
sunpro 1 on keep 2567e38ac6939d72 6f7c66ae648ec5f4
sunpro 1 on del 0500f4478df7958f 4a10e74408e90767
sunpro 1 off keep 571c0c39d15ebdca 91aaaabb46ad8976
sunpro 1 off del d23bda7c98e4ef56 3e4972d57c10daeb
gcc 2 on keep 39ef050a82ccd308 b29e8e26d88b0dce
gcc 2 on del dcb7a92576da1c30 3b4ea066926cb316
gcc 2 off keep 3509a72eb7b921b7 697845be45ff8258
gcc 2 off del e889f9fc67e08be1 36ed4d3694710479
sunpro 2 on keep 39ef050a82ccd308 b29e8e26d88b0dce
sunpro 2 on del dcb7a92576da1c30 3b4ea066926cb316
sunpro 2 off keep 3509a72eb7b921b7 697845be45ff8258
sunpro 2 off del e889f9fc67e08be1 36ed4d3694710479
gcc 3 on keep 7ec706104e683d64 6436552c4aede9a0
gcc 3 on del 1632cfb2ca7b300e ed5ebd4e657948aa
gcc 3 off keep 14ab5aa7dab70be3 d9b122a3ceb22835
gcc 3 off del 286bbbb125976ac6 350dbbee4e72f59d
sunpro 3 on keep de37863f8e97509f 3c9cac2bbe87768f
sunpro 3 on del e5923c06233f12af 58aa33703844cf20
sunpro 3 off keep a547ca5cdefe77ed 94f1c8dcf57fc5a3
sunpro 3 off del 88e921ba16097245 8b248ca9a05661d1
gcc 4 on keep af494ceefd0d686d bcdf46e81f762217
gcc 4 on del cbf22bc7da0a00a1 a65c01e102b91d94
gcc 4 off keep 9ad3c018aa4f648f b5709ac494569963
gcc 4 off del a26f7892b7c16b33 a4edfdf6f0bcd0db
sunpro 4 on keep af494ceefd0d686d bcdf46e81f762217
sunpro 4 on del cbf22bc7da0a00a1 a65c01e102b91d94
sunpro 4 off keep 9ad3c018aa4f648f b5709ac494569963
sunpro 4 off del a26f7892b7c16b33 a4edfdf6f0bcd0db
gcc 5 on keep efaa62dc604ababa 0d1edd2223dc0a05
gcc 5 on del 90184efd9a3d0420 f5502d7682cc6ca2
gcc 5 off keep 30a68af424a45d41 34a885c6bef3ec15
gcc 5 off del cd5e9e3ad86a7523 a0a713bee9fb57b0
sunpro 5 on keep b5a591d760c65752 149a89e45fd29aed
sunpro 5 on del f1b30ed61c602444 d3fd5ea1ca2f3f7e
sunpro 5 off keep 700165ce483351ec 39f14efb21c12540
sunpro 5 off del a18ccea8e67640ac c1e6318871f37d91
gcc 6 on keep dca6bcd4973e66e2 b50fe79632291594
gcc 6 on del 72dc83bda91c5448 5a43ec68910b690a
gcc 6 off keep 1faa5926b542d25a 558860f4113865b5
gcc 6 off del e3907803fdfccaed 15a9f00e1af18ce1
sunpro 6 on keep e49292eb4af0dd43 156f0351b3be6294
sunpro 6 on del 0364c30fe0b83e96 a7b7c9b2b1034f8a
sunpro 6 off keep 3079f435926f0a97 14e338a6c4c50c85
sunpro 6 off del aa2277004c6dbd1e 91c78009de314ff9
gcc 7 on keep 292086ec5530975c c9c1aa37bebf1329
gcc 7 on del 95c0a6dec87f4776 d5f787cdd974bfe1
gcc 7 off keep 0162e62f74de2f48 6d5a46bb44444050
gcc 7 off del bdb447718cda41f8 89724847339801ac
sunpro 7 on keep 67bdfa90dee6fc03 7ab52a6cd6fa28ef
sunpro 7 on del a6304c358e62edcd 52ed070de31f3499
sunpro 7 off keep 575fcd4b8016d86d 18bcfc761be5db48
sunpro 7 off del d69a6161d18bacd2 8043703b1316d229
gcc 8 on keep d1d591bc65a7abd4 ad2a29d089f19423
gcc 8 on del 35168f44117cdd18 bac7e3535e4dff46
gcc 8 off keep a792eb2891af75a8 0b01780d184810ae
gcc 8 off del 912d6e944543b6f3 6203306bc1287ccb
sunpro 8 on keep d1d591bc65a7abd4 ad2a29d089f19423
sunpro 8 on del 35168f44117cdd18 bac7e3535e4dff46
sunpro 8 off keep a792eb2891af75a8 0b01780d184810ae
sunpro 8 off del 912d6e944543b6f3 6203306bc1287ccb
gcc 9 on keep e98153d470a11e7f 68dd1a9766c6696e
gcc 9 on del 8fead38db82745cf a4cc4bf4acf5c6ff
gcc 9 off keep 472b1940695896c1 9cacf826bb2c6b77
gcc 9 off del 382af67194f7b015 1811b506b2068bea
sunpro 9 on keep 0a895370c8c3ec5b 0d9b7bab94cc5baf
sunpro 9 on del ca2cbcc233f1093f 3bb1782802eedcec
sunpro 9 off keep cf444561dc45ec83 0e0d7c8d7f7c8059
sunpro 9 off del 870163dfb1ff520d d84d1d789d22a84f
gcc 10 on keep 795a171ea6fe6647 963372a2639c2f7f
gcc 10 on del a342b190e58c299f f20335fdee5f135e
gcc 10 off keep 795a171ea6fe6647 963372a2639c2f7f
gcc 10 off del a342b190e58c299f f20335fdee5f135e
sunpro 10 on keep 2799168c85c8c12c f4779a8e24d33180
sunpro 10 on del 840b29028cb1bf11 008dbbf5e3f01d4d
sunpro 10 off keep 2799168c85c8c12c f4779a8e24d33180
sunpro 10 off del 840b29028cb1bf11 008dbbf5e3f01d4d
gcc 12 on keep 79ad4831dffda69b 13830a2e6768ff88
gcc 12 on del 4a046baaefd4dc64 95444475034d2666
gcc 12 off keep d61a6e528240989d d81344cffe646955
gcc 12 off del b753714d56ea92da 366a207addb27c02
sunpro 12 on keep 79ad4831dffda69b 13830a2e6768ff88
sunpro 12 on del 4a046baaefd4dc64 95444475034d2666
sunpro 12 off keep d61a6e528240989d d81344cffe646955
sunpro 12 off del b753714d56ea92da 366a207addb27c02
";

#[test]
fn write_path_is_byte_identical() {
    let got = digests();
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    let got_refs: Vec<&str> = got.iter().map(String::as_str).collect();
    assert_eq!(got_refs, want, "\nactual digests:\n{}\n", got.join("\n"));
}
