//! # eel-bench: the paper's experiments, regenerated
//!
//! One function per table/figure/in-text measurement from the paper's
//! evaluation (see DESIGN.md's experiment index). Each returns structured
//! results; the `report` binary prints them as paper-vs-measured tables
//! (the source of EXPERIMENTS.md). Wall-clock benchmarks live in the
//! `eelbench` binary, which records them in `BENCH_serve.json`.

use eel_cc::Personality;
use eel_core::{CfgStats, Executable, JumpResolution};
use eel_emu::run_image;
use eel_exe::Image;
use eel_progen::{suite_sized, Workload};
use eel_tools::{active_memory, blizzard, elsie, qpt1, qpt2};

/// Runs `f` under an eel-obs span and returns its wall time in
/// milliseconds, read back from the recorded span. Recording is forced on
/// for the duration, so measurements work however `EEL_OBS` is set; the
/// nested pipeline spans (CFG build, liveness, layout) land in the global
/// collector for the report's phase-timing section.
fn obs_timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let was = eel_obs::mode();
    if matches!(was, eel_obs::Mode::Off | eel_obs::Mode::Metrics) {
        eel_obs::set_mode(eel_obs::Mode::Summary);
    }
    let out = {
        let _span = eel_obs::span(name);
        f()
    };
    let ms = eel_obs::snapshot_spans()
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.dur_ns as f64 / 1e6);
    eel_obs::set_mode(was);
    (out, ms)
}

/// Compiles the whole suite under one personality.
fn compiled_suite(personality: Personality, scale: u32) -> Vec<(Workload, Image)> {
    suite_sized(scale)
        .into_iter()
        .map(|w| {
            let image = eel_progen::compile(&w, personality).expect("suite compiles");
            (w, image)
        })
        .collect()
}

// ===================================================================
// E-IJ: indirect-jump analyzability (§3.3 in-text)
// ===================================================================

/// Per-configuration indirect-jump statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectJumpStats {
    /// Compiler personality measured.
    pub personality: &'static str,
    /// Static instructions examined.
    pub instructions: u64,
    /// Routines analyzed.
    pub routines: u64,
    /// Indirect jumps found.
    pub indirect_jumps: u64,
    /// Jumps resolved to dispatch tables.
    pub tables: u64,
    /// Jumps resolved to literals.
    pub literals: u64,
    /// Unanalyzable jumps (run-time translation).
    pub unanalyzable: u64,
}

/// Reproduces the paper's measurement: gcc-like code has no unanalyzable
/// indirect jumps (0 of 1,325 in the paper); SunPro-like code's
/// unanalyzable jumps all come from frame-popping tail calls (138 of
/// 1,244).
pub fn exp_indirect_jumps() -> Vec<IndirectJumpStats> {
    let mut out = Vec::new();
    for (personality, name) in [
        (Personality::Gcc, "gcc-like"),
        (Personality::SunPro, "sunpro-like"),
    ] {
        let mut stats = IndirectJumpStats {
            personality: name,
            instructions: 0,
            routines: 0,
            indirect_jumps: 0,
            tables: 0,
            literals: 0,
            unanalyzable: 0,
        };
        for (_, image) in compiled_suite(personality, 1) {
            stats.instructions += (image.text.len() / 4) as u64;
            let mut exec = Executable::from_image(image).expect("valid image");
            exec.read_contents().expect("analyzable");
            for id in exec.all_routine_ids() {
                stats.routines += 1;
                let cfg = exec.build_cfg(id).expect("cfg");
                for (_, res) in cfg.indirect_jumps() {
                    stats.indirect_jumps += 1;
                    match res {
                        JumpResolution::Table { .. } => stats.tables += 1,
                        JumpResolution::Literal { .. } => stats.literals += 1,
                        JumpResolution::Unknown => stats.unanalyzable += 1,
                    }
                }
            }
        }
        out.push(stats);
    }
    out
}

/// The same measurement over a generated corpus of `n` random programs —
/// a larger population, closer in spirit to the paper's 11,975-routine
/// SPEC92 sweep.
pub fn exp_indirect_jumps_corpus(n: u64) -> Vec<IndirectJumpStats> {
    let mut out = Vec::new();
    for (personality, name) in [
        (Personality::Gcc, "gcc-like corpus"),
        (Personality::SunPro, "sunpro-like corpus"),
    ] {
        let mut stats = IndirectJumpStats {
            personality: name,
            instructions: 0,
            routines: 0,
            indirect_jumps: 0,
            tables: 0,
            literals: 0,
            unanalyzable: 0,
        };
        for seed in 0..n {
            let program = eel_progen::random_program(seed, &eel_progen::GenConfig::default());
            let options = eel_cc::Options {
                personality,
                ..Default::default()
            };
            let Ok(image) = eel_cc::compile_ast(&program, &options) else {
                continue;
            };
            stats.instructions += (image.text.len() / 4) as u64;
            let mut exec = Executable::from_image(image).expect("valid image");
            exec.read_contents().expect("analyzable");
            for id in exec.all_routine_ids() {
                stats.routines += 1;
                let cfg = exec.build_cfg(id).expect("cfg");
                for (_, res) in cfg.indirect_jumps() {
                    stats.indirect_jumps += 1;
                    match res {
                        JumpResolution::Table { .. } => stats.tables += 1,
                        JumpResolution::Literal { .. } => stats.literals += 1,
                        JumpResolution::Unknown => stats.unanalyzable += 1,
                    }
                }
            }
        }
        out.push(stats);
    }
    out
}

// ===================================================================
// E-BB / E-UE: CFG census (§5 footnote; §3.3 in-text 15–20%)
// ===================================================================

/// Whole-suite CFG census.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CfgCensus {
    /// EEL block/edge statistics summed over the suite.
    pub stats: CfgStats,
    /// "Old-style" block count (leaders only, no delay/surrogate/virtual
    /// blocks) for the 26,912-vs-15,441 comparison.
    pub old_style_blocks: usize,
}

/// Counts EEL's normalized blocks vs old-style linear blocks.
pub fn exp_cfg_census() -> CfgCensus {
    let mut census = CfgCensus::default();
    for (_, image) in compiled_suite(Personality::Gcc, 1) {
        let mut exec = Executable::from_image(image).expect("valid image");
        exec.read_contents().expect("analyzable");
        for id in exec.all_routine_ids() {
            let cfg = exec.build_cfg(id).expect("cfg");
            let s = cfg.stats();
            census.stats.accumulate(&s);
            // Old-style: normal blocks only (qpt's definition, which did
            // not split at calls or materialize delay slots). EEL blocks
            // end at calls, so merge call-separated runs back together:
            // old blocks ≈ normal blocks − call surrogates.
            census.old_style_blocks += s.normal_blocks.saturating_sub(s.call_surrogate_blocks);
        }
    }
    census
}

// ===================================================================
// E-OBJ: object allocation / instruction sharing (§5 in-text)
// ===================================================================

/// §3.4's instruction sharing over the suite, counted as
/// `(sites, distinct)`: every text word plus every instruction of every
/// built CFG, and the distinct words among them per image — the objects
/// one shared instance per word would allocate. CFG blocks store decoded
/// instructions inline, so this measures the factor rather than
/// allocating shared objects.
pub fn exp_allocations() -> (usize, usize) {
    let (mut sites, mut distinct) = (0, 0);
    for (_, image) in compiled_suite(Personality::Gcc, 1) {
        let mut words: Vec<u32> = image.text_words().map(|(_, w)| w).collect();
        let mut exec = Executable::from_image(image).expect("valid image");
        exec.read_contents().expect("analyzable");
        for id in exec.all_routine_ids() {
            for (_, block) in exec.build_cfg(id).expect("cfg").blocks() {
                words.extend(block.insns.iter().map(|ia| ia.insn.word));
            }
        }
        sites += words.len();
        words.sort_unstable();
        words.dedup();
        distinct += words.len();
    }
    (sites, distinct)
}

// ===================================================================
// E-LOC: description conciseness (§4 in-text)
// ===================================================================

/// Line counts for the spawn conciseness comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnLoc {
    /// Our SPARC description (paper: 145).
    pub sparc_desc: usize,
    /// Our MIPS description (paper: 128).
    pub mips_desc: usize,
    /// Our Alpha description (paper: 138).
    pub alpha_desc: usize,
    /// Handwritten machine-specific layer (paper: 2,268).
    pub handwritten: usize,
    /// spawn-generated output lines (paper: 6,178).
    pub generated: usize,
    /// spawn-generated Rust for the MIPS description — the second-ISA
    /// data point: there is no handwritten MIPS layer to compare
    /// against, so the ratio is generated-vs-description alone.
    pub mips_generated: usize,
}

/// Measures description vs handwritten vs generated code sizes.
pub fn exp_spawn_loc() -> SpawnLoc {
    let machine = eel_spawn::sparc_machine().expect("bundled description");
    let generated = eel_spawn::generate_rust(&machine).lines().count();
    // The handwritten layer is eel-isa's decode/encode/class/disasm
    // modules (its semantics module is the emulator's, counted separately
    // in the paper too).
    let handwritten = [
        include_str!("../../isa/src/decode.rs"),
        include_str!("../../isa/src/encode.rs"),
        include_str!("../../isa/src/class.rs"),
        include_str!("../../isa/src/disasm.rs"),
        include_str!("../../isa/src/insn.rs"),
    ]
    .iter()
    .map(|s| eel_tools::source_lines(s))
    .sum();
    let mips = eel_spawn::mips_machine().expect("bundled description");
    let mips_generated = eel_spawn::generate_rust(&mips).lines().count();
    SpawnLoc {
        sparc_desc: eel_spawn::description_lines(eel_spawn::SPARC),
        mips_desc: eel_spawn::description_lines(eel_spawn::MIPS),
        alpha_desc: eel_spawn::description_lines(eel_spawn::ALPHA),
        handwritten,
        generated,
        mips_generated,
    }
}

// ===================================================================
// T1: Table 1 — qpt vs qpt2 on the spim workload
// ===================================================================

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Tool name.
    pub tool: &'static str,
    /// Tool source size (non-comment lines) — the engineering cost axis.
    pub tool_lines: usize,
    /// Instrumentation wall time in milliseconds.
    pub instrument_ms: f64,
    /// Input text+data bytes.
    pub input_bytes: usize,
    /// Output (instrumented) text+data bytes.
    pub output_bytes: usize,
    /// Dynamic slowdown of the instrumented program (cycles ratio).
    pub run_slowdown: f64,
}

/// Instruments the spim-like interpreter with both profilers and
/// measures tool size, instrumentation time, and output size/slowdown.
pub fn exp_table1() -> Vec<Table1Row> {
    let w = eel_progen::spim_like(2000);
    let image = eel_progen::compile(&w, Personality::Gcc).expect("compiles");
    let input_bytes = image.text.len() + image.data.len();
    let plain = run_image(&image).expect("baseline runs");

    let (p1, qpt1_ms) = obs_timed("bench.qpt1.instrument", || qpt1::instrument(image.clone()));
    let p1 = p1.expect("qpt1 instruments");
    let o1 = run_image(&p1.image).expect("qpt1 output runs");

    let (p2, qpt2_ms) = obs_timed("bench.qpt2.instrument", || {
        qpt2::instrument(image, qpt2::Granularity::Blocks)
    });
    let p2 = p2.expect("qpt2 instruments");
    let o2 = run_image(&p2.image).expect("qpt2 output runs");

    vec![
        Table1Row {
            tool: "qpt (ad-hoc)",
            tool_lines: eel_tools::source_lines(eel_tools::QPT1_SOURCE),
            instrument_ms: qpt1_ms,
            input_bytes,
            output_bytes: p1.image.text.len() + p1.image.data.len(),
            run_slowdown: o1.cycles as f64 / plain.cycles as f64,
        },
        Table1Row {
            tool: "qpt2 (EEL)",
            tool_lines: eel_tools::source_lines(eel_tools::QPT2_SOURCE),
            instrument_ms: qpt2_ms,
            input_bytes,
            output_bytes: p2.image.text.len() + p2.image.data.len(),
            run_slowdown: o2.cycles as f64 / plain.cycles as f64,
        },
    ]
}

// ===================================================================
// E-OVH: instrumentation overheads (§1/§5 in-text)
// ===================================================================

/// One tool-on-workload overhead measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Workload name.
    pub workload: &'static str,
    /// Tool name.
    pub tool: &'static str,
    /// Dynamic-cycle ratio (instrumented / original).
    pub slowdown: f64,
}

/// Measures dynamic slowdowns for every tool over the suite (the paper's
/// "2–7× slowdown" Active Memory claim, and profiling overheads).
pub fn exp_overheads(scale: u32) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for (w, image) in compiled_suite(Personality::Gcc, scale) {
        let plain = run_image(&image).expect("baseline");
        let base = plain.cycles as f64;

        let p2 = qpt2::instrument(image.clone(), qpt2::Granularity::Edges).expect("qpt2");
        let c = run_image(&p2.image).expect("runs").cycles as f64;
        rows.push(OverheadRow {
            workload: w.name,
            tool: "qpt2-edges",
            slowdown: c / base,
        });

        let am = active_memory::instrument(image.clone()).expect("active memory");
        let c = am.run().expect("runs").cycles as f64;
        rows.push(OverheadRow {
            workload: w.name,
            tool: "active-memory",
            slowdown: c / base,
        });

        let bz = blizzard::instrument(image.clone()).expect("blizzard");
        let c = bz.run().expect("runs").cycles as f64;
        rows.push(OverheadRow {
            workload: w.name,
            tool: "blizzard",
            slowdown: c / base,
        });

        let el = elsie::instrument(image).expect("elsie");
        let mut m = eel_emu::Machine::load(&el.image).expect("loads");
        let c = m.run().expect("runs").cycles as f64;
        rows.push(OverheadRow {
            workload: w.name,
            tool: "elsie",
            slowdown: c / base,
        });
    }
    rows
}

// ===================================================================
// Ablations (DESIGN.md)
// ===================================================================

/// Result of one ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which design choice.
    pub name: &'static str,
    /// Metric with the feature ON.
    pub with_feature: f64,
    /// Metric with the feature OFF.
    pub without_feature: f64,
    /// What the metric is.
    pub metric: &'static str,
}

/// Runs the design-choice ablations from DESIGN.md.
pub fn exp_ablations() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let w = eel_progen::sc_like(4);

    // 1. Delay-slot folding (compiler fills slots; EEL folds back): edited
    //    size with filled vs nop-filled slots.
    let filled = eel_cc::compile_str(&w.source, &eel_cc::Options::default()).unwrap();
    let unfilled = eel_cc::compile_str(
        &w.source,
        &eel_cc::Options {
            fill_delay_slots: false,
            ..Default::default()
        },
    )
    .unwrap();
    let pass = |image: Image| -> usize {
        let mut exec = Executable::from_image(image).unwrap();
        exec.read_contents().unwrap();
        exec.write_edited().unwrap().text.len()
    };
    rows.push(AblationRow {
        name: "delay-slot folding (vs nop slots)",
        with_feature: pass(filled.clone()) as f64,
        without_feature: pass(unfilled) as f64,
        metric: "edited text bytes",
    });

    // 2. Register scavenging vs forced spilling in snippets.
    let overhead_with = {
        let p = qpt2::instrument(filled.clone(), qpt2::Granularity::Blocks).unwrap();
        run_image(&p.image).unwrap().cycles as f64
    };
    let overhead_without = {
        // Forcing every snippet register to spill: forbid all GPRs.
        let mut exec = Executable::from_image(filled.clone()).unwrap();
        exec.read_contents().unwrap();
        let base = exec.reserve_data(4 * 4096);
        let mut n = 0u32;
        for id in exec.all_routine_ids() {
            let mut cfg = exec.build_cfg(id).unwrap();
            let blocks: Vec<_> = cfg
                .blocks()
                .filter(|(_, b)| {
                    b.kind == eel_core::BlockKind::Normal && b.editable && !b.insns.is_empty()
                })
                .map(|(bid, _)| bid)
                .collect();
            for bid in blocks {
                let s = eel_core::Snippet::counter_increment(base + 4 * n).with_forced_spill();
                n += 1;
                cfg.add_code_at_block_start(bid, s).unwrap();
            }
            exec.install_edits(cfg).unwrap();
        }
        let image = exec.write_edited().unwrap();
        run_image(&image).unwrap().cycles as f64
    };
    let baseline = run_image(&filled).unwrap().cycles as f64;
    rows.push(AblationRow {
        name: "register scavenging (vs always-spill)",
        with_feature: overhead_with / baseline,
        without_feature: overhead_without / baseline,
        metric: "block-profiling slowdown",
    });

    // 3. Static jump resolution vs run-time translation. Dispatch tables
    //    *must* be analyzed statically (the table lives in the moved text,
    //    so no run-time target translation can save an unfound table —
    //    the same reason the paper's EEL treats slicing as load-bearing).
    //    The measurable cost of falling back to translation is the
    //    SunPro tail-call path: statically-resolvable transfers (gcc
    //    personality) relayout at ~1.0×, translated ones pay per transfer.
    let tail = eel_progen::li_like(40);
    let pass_ratio = |personality: Personality| -> f64 {
        let image = eel_progen::compile(&tail, personality).unwrap();
        let before = run_image(&image).unwrap().cycles as f64;
        let mut exec = Executable::from_image(image).unwrap();
        exec.read_contents().unwrap();
        // An observable (but text-neutral) edit defeats the clean
        // fast path, so write_edited actually relays out the text and
        // the translation cost is measurable.
        let _ = exec.reserve_data(4);
        let edited = exec.write_edited().unwrap();
        run_image(&edited).unwrap().cycles as f64 / before
    };
    rows.push(AblationRow {
        name: "static jump resolution (vs run-time translation)",
        with_feature: pass_ratio(Personality::Gcc),
        without_feature: pass_ratio(Personality::SunPro),
        metric: "pass-through slowdown",
    });

    // 4. Liveness-driven condition-code save (Blizzard's fast path): how
    //    many Active Memory sites needed the slow sequence.
    let am = active_memory::instrument(filled).unwrap();
    rows.push(AblationRow {
        name: "cc-liveness fast path (sites needing psr save)",
        with_feature: am.cc_saved_sites as f64,
        without_feature: am.sites as f64,
        metric: "slow-path sites / total sites",
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indirect_jump_shape_matches_paper() {
        let stats = exp_indirect_jumps();
        let gcc = &stats[0];
        let sunpro = &stats[1];
        assert!(gcc.indirect_jumps > 0);
        assert_eq!(gcc.unanalyzable, 0, "paper: 0 of 1,325 on gcc");
        assert!(sunpro.unanalyzable > 0, "paper: 138 of 1,244 on SunPro");
        // And the unanalyzable fraction is a minority, like 138/1,244.
        assert!(sunpro.unanalyzable * 2 < sunpro.indirect_jumps + sunpro.unanalyzable * 2);
    }

    #[test]
    fn cfg_census_shape_matches_paper() {
        let c = exp_cfg_census();
        assert!(
            c.stats.total_blocks() > c.old_style_blocks,
            "normalization adds blocks: {} vs {}",
            c.stats.total_blocks(),
            c.old_style_blocks
        );
        assert!(c.stats.delay_slot_blocks > 0);
        assert!(c.stats.call_surrogate_blocks > 0);
        let f = c.stats.uneditable_edge_fraction();
        assert!((0.05..0.5).contains(&f), "uneditable fraction {f}");
    }

    #[test]
    fn allocations_share() {
        assert_eq!(exp_allocations(), (4312, 856));
    }

    #[test]
    fn spawn_loc_shape() {
        let l = exp_spawn_loc();
        assert!(l.handwritten > 5 * l.sparc_desc, "{l:?}");
        assert!(l.generated > 2 * l.sparc_desc, "{l:?}");
    }

    #[test]
    fn table1_shape_matches_paper() {
        let rows = exp_table1();
        let (q1, q2) = (&rows[0], &rows[1]);
        // The paper's direction: the ad-hoc tool is bigger in code, the
        // EEL tool is slower to instrument (4.3× unoptimized, 2.4× at
        // -O2) and produces similar instrumented programs.
        assert!(q1.tool_lines > q2.tool_lines, "{q1:?} vs {q2:?}");
        assert!(
            q2.instrument_ms > q1.instrument_ms,
            "EEL does more analysis"
        );
        assert!(q1.run_slowdown > 1.0 && q2.run_slowdown > 1.0);
        assert!(q1.output_bytes > q1.input_bytes);
        assert!(q2.output_bytes > q2.input_bytes);
    }

    #[test]
    fn ablations_point_the_right_way() {
        let rows = exp_ablations();
        let folding = &rows[0];
        // Folding keeps edited code no larger than nop-slot code.
        assert!(
            folding.with_feature <= folding.without_feature * 1.05,
            "{folding:?}"
        );
        let scavenging = &rows[1];
        assert!(
            scavenging.with_feature < scavenging.without_feature,
            "spilling must cost more: {scavenging:?}"
        );
        let slicing = &rows[2];
        assert!(
            slicing.with_feature < slicing.without_feature,
            "run-time translation must cost more: {slicing:?}"
        );
    }
}
