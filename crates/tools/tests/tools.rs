//! Integration tests for the paper's tools, validated against emulator
//! ground truth on the progen workload suite.

use eel_cc::{compile_str, Options, Personality};
use eel_emu::{run_image, Machine};
use eel_progen::{compile, degrade_symbols, suite};
use eel_tools::{active_memory, blizzard, elsie, qpt1, qpt2, tracer};

fn small_program() -> &'static str {
    r#"
    global data[64];
    fn touch(i) { data[i & 63] = data[i & 63] + i; return data[i & 63]; }
    fn main() {
        var i; var t = 0;
        for (i = 0; i < 30; i = i + 1) {
            if (i % 3 == 0) { t = t + touch(i); } else { t = t - 1; }
        }
        print(t);
        return t & 255;
    }"#
}

// ---------------------------------------------------------------- qpt2

#[test]
fn qpt2_block_counts_match_reality() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let profiled = qpt2::instrument(image, qpt2::Granularity::Blocks).unwrap();
    let run = profiled.run().unwrap();
    assert_eq!(run.outcome.exit_code, plain.exit_code);
    assert_eq!(run.outcome.output, plain.output);
    // touch() is called 10 times: its entry block count must be 10.
    let touch_entry = run
        .counts
        .iter()
        .filter(|((r, _, _), _)| r == "touch")
        .map(|((_, site, _), &c)| (site, c))
        .min()
        .map(|(_, c)| c);
    assert_eq!(touch_entry, Some(10));
}

#[test]
fn qpt2_edge_counts_sum_to_branch_executions() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let profiled = qpt2::instrument(image, qpt2::Granularity::Edges).unwrap();
    let run = profiled.run().unwrap();
    // Every counted edge execution corresponds to a multi-way transfer.
    assert!(
        run.total() >= 30,
        "loop branches run 30+ times: {}",
        run.total()
    );
}

#[test]
fn qpt2_entry_counts() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let profiled = qpt2::instrument(image, qpt2::Granularity::Entries).unwrap();
    let run = profiled.run().unwrap();
    assert_eq!(run.routine_total("touch"), 10);
    assert_eq!(run.routine_total("main"), 1);
}

#[test]
fn qpt2_handles_what_qpt1_cannot() {
    // SunPro tail calls: qpt2 instruments them (run-time translation),
    // qpt1 refuses — the paper's robustness argument.
    let tail_src = r#"
        fn helper(x) { return x * 2 + 1; }
        fn caller(x) { return helper(x + 3); }
        fn main() { return caller(10); }"#;
    let opts = Options {
        personality: Personality::SunPro,
        ..Options::default()
    };
    let image = compile_str(tail_src, &opts).unwrap();
    let plain = run_image(&image).unwrap();

    let qpt1_result = qpt1::instrument(image.clone());
    assert!(
        matches!(qpt1_result, Err(eel_tools::ToolError::Unsupported(_))),
        "qpt1 must reject the unanalyzable tail-call jump"
    );

    let profiled = qpt2::instrument(image, qpt2::Granularity::Blocks).unwrap();
    let run = profiled.run().unwrap();
    assert_eq!(run.outcome.exit_code, plain.exit_code);

    // Degraded symbol table: same story.
    let opts = Options::default();
    let plain_small = run_image(&compile_str(small_program(), &opts).unwrap()).unwrap();
    let mut degraded = compile_str(small_program(), &opts).unwrap();
    degrade_symbols(&mut degraded, 7);
    let profiled = qpt2::instrument(degraded, qpt2::Granularity::Blocks).unwrap();
    assert_eq!(
        profiled.run().unwrap().outcome.exit_code,
        plain_small.exit_code
    );
}

// ---------------------------------------------------------------- qpt1

#[test]
fn qpt1_block_counts_match_qpt2() {
    // On inputs satisfying its assumptions, the ad-hoc tool agrees with
    // the EEL tool.
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();

    let p1 = qpt1::instrument(image.clone()).unwrap();
    let mut m1 = Machine::load(&p1.image).unwrap();
    let o1 = m1.run().unwrap();
    assert_eq!(o1.exit_code, plain.exit_code, "qpt1 preserved behavior");
    assert_eq!(o1.output, plain.output);
    let c1 = qpt1::read_counters(&p1, &mut m1);
    let total1: u64 = c1.values().map(|&v| v as u64).sum();

    let p2 = qpt2::instrument(image, qpt2::Granularity::Blocks).unwrap();
    let run2 = p2.run().unwrap();
    let total2 = run2.total();
    // qpt1 counts every leader-started region, qpt2 counts EEL basic
    // blocks; totals are close but not defined identically — both must
    // at least count the 30 loop iterations in main.
    assert!(total1 >= 30, "qpt1 total {total1}");
    assert!(total2 >= 30, "qpt2 total {total2}");
    // main's loop body block: both tools must report exactly 30 for the
    // instruction at the loop's addition site. Compare the max counters,
    // which for this program is the inner loop block.
    let max1 = c1.values().max().copied().unwrap_or(0);
    let max2 = run2.counts.values().max().copied().unwrap_or(0);
    assert_eq!(max1, max2, "hottest block count agrees");
}

#[test]
fn qpt1_works_on_jump_tables() {
    let src = r#"
        fn classify(x) {
            switch (x % 5) {
                case 0: { return 1; }
                case 1: { return 2; }
                case 2: { return 3; }
                case 3: { return 4; }
                default: { return 9; }
            }
        }
        fn main() {
            var i; var t = 0;
            for (i = 0; i < 25; i = i + 1) { t = t + classify(i); }
            return t;
        }"#;
    let image = compile_str(src, &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let p = qpt1::instrument(image).unwrap();
    let out = run_image(&p.image).unwrap();
    assert_eq!(out.exit_code, plain.exit_code);
}

#[test]
fn qpt1_refuses_stripped_binaries_qpt2_does_not() {
    // Refusal path 1: no symbol table. qpt1's whole discovery is "trust
    // the symbols", so it must refuse outright — with the documented
    // message, pinned here — while qpt2 profiles the same image via
    // EEL's hidden-routine discovery and preserves behavior.
    let opts = Options {
        strip: true,
        ..Options::default()
    };
    let image = compile_str(small_program(), &opts).unwrap();
    assert!(image.is_stripped());
    let plain = run_image(&image).unwrap();

    match qpt1::instrument(image.clone()) {
        Err(eel_tools::ToolError::Unsupported(msg)) => {
            assert!(
                msg.contains("stripped executables are not supported"),
                "refusal must name the assumption: {msg}"
            );
            assert!(msg.contains("trusts the symbol table"), "{msg}");
        }
        other => panic!("qpt1 must refuse stripped input: {other:?}"),
    }

    let profiled = qpt2::instrument(image, qpt2::Granularity::Blocks).unwrap();
    let run = profiled.run().unwrap();
    assert_eq!(run.outcome.exit_code, plain.exit_code);
    assert_eq!(run.outcome.output, plain.output);
    assert!(
        run.total() >= 30,
        "qpt2 still counts the loop: {}",
        run.total()
    );
}

#[test]
fn qpt1_refusal_message_pins_the_tail_call_divergence() {
    // Refusal path 2: SunPro tail calls produce an indirect jump outside
    // qpt1's single dispatch pattern. Pin the exact divergence: qpt1's
    // error names the jump and its lack of a run-time fallback; qpt2
    // handles the same image (run-time address translation, §3.2).
    let tail_src = r#"
        fn helper(x) { return x * 2 + 1; }
        fn caller(x) { return helper(x + 3); }
        fn main() { return caller(10); }"#;
    let opts = Options {
        personality: Personality::SunPro,
        ..Options::default()
    };
    let image = compile_str(tail_src, &opts).unwrap();

    match qpt1::instrument(image.clone()) {
        Err(eel_tools::ToolError::Unsupported(msg)) => {
            assert!(
                msg.contains("unanalyzable indirect jump"),
                "refusal must name the jump: {msg}"
            );
            assert!(
                msg.contains("no run-time fallback"),
                "refusal must name the missing capability qpt2 has: {msg}"
            );
        }
        other => panic!("qpt1 must refuse the tail call: {other:?}"),
    }
    assert!(
        qpt2::instrument(image, qpt2::Granularity::Blocks).is_ok(),
        "qpt2 instruments the same image"
    );
}

// ------------------------------------------------------- active memory

#[test]
fn active_memory_matches_reference_cache_exactly() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    // Ground truth: reference cache fed by the emulator's memory trace.
    let mut machine = Machine::load(&image).unwrap().with_mem_trace();
    let plain = machine.run().unwrap();
    let trace = machine.take_mem_trace();
    let mut reference = active_memory::ReferenceCache::new();
    for r in &trace {
        reference.access(r.addr);
    }

    let sim = active_memory::instrument(image).unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(stats.exit_code, plain.exit_code);
    assert_eq!(
        stats.hits + stats.misses,
        (plain.loads + plain.stores) as u32,
        "every reference checked exactly once"
    );
    assert_eq!(
        stats.hits, reference.hits,
        "hit counts agree with ground truth"
    );
    assert_eq!(
        stats.misses, reference.misses,
        "miss counts agree with ground truth"
    );
}

#[test]
fn active_memory_slowdown_in_paper_range() {
    // The paper quotes a 2–7× slowdown for Active Memory. Measure the
    // dynamic-cycle ratio on a real workload.
    let w = &suite()[1]; // compress-like
    let image = compile(w, Personality::Gcc).unwrap();
    let plain = run_image(&image).unwrap();
    let sim = active_memory::instrument(image).unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(stats.exit_code, plain.exit_code);
    let slowdown = stats.cycles as f64 / plain.cycles as f64;
    assert!(
        (1.5..=12.0).contains(&slowdown),
        "slowdown {slowdown:.2}x out of plausible range"
    );
}

// ------------------------------------------------------------ blizzard

#[test]
fn blizzard_counts_every_store_and_faults_once_per_line() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let ac = blizzard::instrument(image).unwrap();
    let stats = ac.run().unwrap();
    assert_eq!(stats.exit_code, plain.exit_code);
    assert_eq!(stats.checks as u64, plain.stores, "every store checked");
    assert!(stats.faults > 0, "first touches fault");
    assert!(stats.faults <= stats.checks);
}

// --------------------------------------------------------------- elsie

#[test]
fn elsie_accounts_memory_and_syscalls() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let sim = elsie::instrument(image).unwrap();
    let counts = sim.run().unwrap();
    assert_eq!(counts.exit_code, plain.exit_code);
    assert_eq!(counts.loads as u64, plain.loads, "simulator saw every load");
    assert_eq!(
        counts.stores as u64, plain.stores,
        "simulator saw every store"
    );
    // print() issues one write; exit is one more trap.
    assert_eq!(counts.syscalls, 2, "write + exit");
}

// -------------------------------------------------------------- tracer

#[test]
fn tracer_slices_most_references() {
    let image = compile_str(small_program(), &Options::default()).unwrap();
    let analysis = tracer::analyze(image).unwrap();
    assert!(analysis.references() > 20);
    assert!(
        analysis.fully_sliced_fraction() > 0.5,
        "most addresses statically recomputable: {}",
        analysis.fully_sliced_fraction()
    );
    let easy: usize = analysis.routines.iter().map(|r| r.easy).sum();
    let impossible: usize = analysis.routines.iter().map(|r| r.impossible).sum();
    assert!(
        easy > 0,
        "sethi-style roots are easy somewhere in the program"
    );
    assert_eq!(impossible, 0, "no floating point here");
}

// ------------------------------------------------------------ the suite

#[test]
fn all_tools_preserve_suite_behavior() {
    // The heavyweight cross-product: every tool on a couple of suite
    // programs, behavior preserved.
    for w in suite().into_iter().take(3) {
        let image = compile(&w, Personality::Gcc).unwrap();
        let plain = run_image(&image).unwrap();

        let p2 = qpt2::instrument(image.clone(), qpt2::Granularity::Edges).unwrap();
        let r2 = p2.run().unwrap();
        assert_eq!(r2.outcome.exit_code, plain.exit_code, "{} qpt2", w.name);
        assert_eq!(r2.outcome.output, plain.output, "{} qpt2", w.name);

        let am = active_memory::instrument(image.clone()).unwrap();
        let s = am.run().unwrap();
        assert_eq!(s.exit_code, plain.exit_code, "{} active-memory", w.name);
        assert_eq!(
            (s.hits + s.misses) as u64,
            plain.loads + plain.stores,
            "{} reference count",
            w.name
        );

        let bz = blizzard::instrument(image.clone()).unwrap();
        let b = bz.run().unwrap();
        assert_eq!(b.exit_code, plain.exit_code, "{} blizzard", w.name);

        let el = elsie::instrument(image).unwrap();
        let e = el.run().unwrap();
        assert_eq!(e.exit_code, plain.exit_code, "{} elsie", w.name);
        assert_eq!(e.loads as u64, plain.loads, "{} elsie loads", w.name);
    }
}

#[test]
fn tool_sizes_tell_the_papers_story() {
    // Table 1 context: the ad-hoc tool is much bigger than the EEL tool,
    // because EEL owns the analysis (qpt: 14,500 lines → qpt2: 6,276).
    let q1 = eel_tools::source_lines(eel_tools::QPT1_SOURCE);
    let q2 = eel_tools::source_lines(eel_tools::QPT2_SOURCE);
    assert!(
        q1 > q2,
        "ad-hoc qpt1 ({q1} lines) should dwarf EEL-based qpt2 ({q2} lines)"
    );
}

#[test]
fn active_memory_cc_save_path_works_when_icc_is_live() {
    // Hand-written code keeps the condition codes live ACROSS a load
    // (cmp ... ld ... bne): the inline cache test writes icc, so snippet
    // materialization must wrap it with rd/wr %psr — and the loop must
    // still terminate correctly.
    let image = eel_asm::assemble(
        r#"
        .global main
    main:
        mov 0, %l0
        set cell, %l2
    loop:
        add %l0, 1, %l0
        cmp %l0, 5
        ld [%l2], %l1       ! icc live across this load
        bne loop
        nop
        mov %l1, %o0
        add %o0, %l0, %o0   ! 42 + 5
        mov 1, %g1
        ta 0
        nop
        .data
    cell:
        .word 42
    "#,
    )
    .unwrap();
    let plain = run_image(&image).unwrap();
    assert_eq!(plain.exit_code, 47);

    let sim = active_memory::instrument(image).unwrap();
    assert!(
        sim.cc_saved_sites >= 1,
        "the load between cmp and bne needs the slow (psr-saving) sequence"
    );
    let stats = sim.run().unwrap();
    assert_eq!(
        stats.exit_code, 47,
        "condition codes preserved through the check"
    );
    assert_eq!(
        (stats.hits + stats.misses) as u64,
        plain.loads + plain.stores
    );
}

// -------------------------------------------------------------- shrink

#[test]
fn shrink_removes_dead_routines_soundly() {
    let src = r#"
        fn used(x) { return x * 2; }
        fn dead1(x) { return x + 1; }
        fn dead2(x) { return dead1(x) + 2; }
        fn main() { print(used(21)); return used(21); }
    "#;
    let image = compile_str(src, &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let shrunk = eel_tools::shrink::strip_dead_routines(image).unwrap();
    assert!(
        shrunk.removed.contains(&"dead1".to_string()),
        "{:?}",
        shrunk.removed
    );
    assert!(shrunk.removed.contains(&"dead2".to_string()));
    assert!(!shrunk.removed.contains(&"used".to_string()));
    assert!(!shrunk.removed.contains(&"__print_int".to_string()));
    assert!(
        shrunk.text_after < shrunk.text_before,
        "{} -> {}",
        shrunk.text_before,
        shrunk.text_after
    );
    let out = run_image(&shrunk.image).unwrap();
    assert_eq!(out.exit_code, plain.exit_code);
    assert_eq!(out.output, plain.output);
}

#[test]
fn shrink_refuses_programs_with_function_pointers() {
    let src = r#"
        fn maybe(x) { return x; }
        fn main() { var p = &maybe; return (*p)(3); }
    "#;
    let image = compile_str(src, &Options::default()).unwrap();
    match eel_tools::shrink::strip_dead_routines(image) {
        Err(eel_tools::ToolError::Unsupported(msg)) => {
            assert!(msg.contains("unknown indirect"), "{msg}");
        }
        other => panic!("must refuse: {other:?}"),
    }
}

// ------------------------------------------------------------ stripped

/// Non-zero counts keyed by `(site, index)` — comparable across a
/// stripped/unstripped twin pair, whose routine *names* necessarily
/// differ (`fib` vs `sub_10234`).
fn nonzero_by_site(run: &qpt2::ProfileRun) -> std::collections::BTreeMap<(u32, u32), u32> {
    run.counts
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|(&(_, site, index), &c)| ((site, index), c))
        .collect()
}

#[test]
fn qpt2_stripped_twin_block_counts_match_unstripped() {
    // The eel-strip acceptance bar, at the tool level: profiling a
    // stripped image is emu-equivalent to profiling its unstripped twin.
    // suite()[0] (the spim-like interpreter) carries dispatch tables, so
    // this also exercises jump-table resolution inside inference.
    let w = &suite()[0];
    let image = compile(w, Personality::Gcc).unwrap();
    let mut stripped = image.clone();
    stripped.strip();
    assert!(stripped.is_stripped());

    let base = qpt2::instrument(image, qpt2::Granularity::Blocks)
        .unwrap()
        .run()
        .unwrap();
    let twin = qpt2::instrument(stripped, qpt2::Granularity::Blocks)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(base.outcome.exit_code, twin.outcome.exit_code);
    assert_eq!(base.outcome.output, twin.outcome.output);
    let base_counts = nonzero_by_site(&base);
    assert_eq!(base_counts, nonzero_by_site(&twin), "block counts diverge");
    assert!(!base_counts.is_empty(), "profile counted nothing");
}

#[test]
fn wisc_strip_mode_is_deterministic_and_twins_the_normal_build() {
    // Satellite: `wisc --strip` must be a deterministic twin of the
    // normal build — same text and data, empty symbol table.
    let dir = std::env::temp_dir().join(format!("eel-wisc-strip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("p.wisc");
    std::fs::write(&src, small_program()).unwrap();
    let build = |args: &[&str], out: &std::path::Path| {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_wisc"))
            .arg(&src)
            .arg("-o")
            .arg(out)
            .args(args)
            .status()
            .unwrap();
        assert!(status.success(), "wisc {args:?} failed");
        std::fs::read(out).unwrap()
    };
    let plain = build(&[], &dir.join("plain.wef"));
    let s1 = build(&["--strip"], &dir.join("s1.wef"));
    let s2 = build(&["--strip"], &dir.join("s2.wef"));
    assert_eq!(s1, s2, "--strip builds are not byte-identical");

    let plain = eel_exe::Image::from_bytes(&plain).unwrap();
    let stripped = eel_exe::Image::from_bytes(&s1).unwrap();
    assert!(!plain.is_stripped());
    assert!(stripped.is_stripped());
    assert_eq!(plain.text, stripped.text, "--strip changed the text");
    assert_eq!(plain.data, stripped.data, "--strip changed the data");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eelstat_and_eelobjdump_work_on_stripped_images() {
    // Satellite: the offline tools must fall back to inferred discovery
    // and synthetic names on a symbol-less image rather than erroring or
    // printing an empty report.
    let dir = std::env::temp_dir().join(format!("eel-stripped-tools-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = Options {
        strip: true,
        ..Options::default()
    };
    let image = compile_str(small_program(), &opts).unwrap();
    let wef = dir.join("stripped.wef");
    std::fs::write(&wef, image.to_bytes()).unwrap();

    let stat = std::process::Command::new(env!("CARGO_BIN_EXE_eelstat"))
        .arg(&wef)
        .output()
        .unwrap();
    assert!(stat.status.success(), "eelstat failed on a stripped image");
    let err = String::from_utf8_lossy(&stat.stderr);
    assert!(err.contains("discovery: inferred"), "{err}");

    let dump = std::process::Command::new(env!("CARGO_BIN_EXE_eelobjdump"))
        .arg(&wef)
        .output()
        .unwrap();
    assert!(
        dump.status.success(),
        "eelobjdump failed on a stripped image"
    );
    let out = String::from_utf8_lossy(&dump.stdout);
    assert!(out.contains("discovery: inferred"), "missing header note");
    assert!(out.contains("<sub_"), "no synthetic routine names:\n{out}");
    // main, touch, and the print runtime all execute: the listing must
    // cover at least those three routines.
    assert!(out.matches("<sub_").count() >= 3, "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------- offline tools over the op layer

/// A program whose dense switch compiles to a dispatch table on SPARC.
const SWITCH_PROGRAM: &str = r#"
    fn classify(x) {
        switch (x % 4) {
            case 0: { return 10; }
            case 1: { return 11; }
            case 2: { return 12; }
            case 3: { return 13; }
            default: { return 99; }
        }
    }
    fn helper(x) { return classify(x) * 2 + 1; }
    fn main() {
        var i; var t = 0;
        for (i = 0; i < 40; i = i + 1) { t = t + helper(i); }
        print(t);
        return t % 251;
    }"#;

/// [`SWITCH_PROGRAM`] in the four image shapes the analysis service
/// serves: SPARC gcc, SPARC SunPro, stripped SPARC gcc and MIPS.
fn served_shapes() -> Vec<(&'static str, eel_exe::Image)> {
    let sparc = |personality, strip| {
        let opts = Options {
            personality,
            strip,
            ..Options::default()
        };
        compile_str(SWITCH_PROGRAM, &opts).unwrap()
    };
    let workload = eel_progen::Workload {
        name: "switch",
        source: SWITCH_PROGRAM.into(),
    };
    let mips =
        eel_progen::compile_machine(&workload, Personality::Gcc, eel_exe::Machine::Mips).unwrap();
    vec![
        ("gcc", sparc(Personality::Gcc, false)),
        ("sunpro", sparc(Personality::SunPro, false)),
        ("stripped", sparc(Personality::Gcc, true)),
        ("mips", mips),
    ]
}

/// Runs one tool binary on `wef` with `EEL_OBS` unset.
fn run_tool(bin: &str, wef: &std::path::Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(bin)
        .arg(wef)
        .args(args)
        .env_remove("EEL_OBS")
        .output()
        .unwrap()
}

/// Drops eelobjdump's leading `;` header notes, each followed by a blank
/// line.
fn without_header_notes(listing: &str) -> &str {
    let mut rest = listing;
    while rest.starts_with(';') {
        let line_end = rest.find('\n').map_or(rest.len(), |i| i + 1);
        rest = rest[line_end..]
            .strip_prefix('\n')
            .unwrap_or(&rest[line_end..]);
    }
    rest
}

#[test]
fn eelobjdump_prints_the_served_disasm_and_cfg_summary() {
    let dir = std::env::temp_dir().join(format!("eel-objdump-ops-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (shape, image) in served_shapes() {
        let wef = dir.join(format!("{shape}.wef"));
        std::fs::write(&wef, image.to_bytes()).unwrap();
        let analysis = eel_core::Analysis::compute(std::sync::Arc::new(image)).unwrap();
        let op = |name| String::from_utf8(eel_serve::run_op(name, &analysis).unwrap()).unwrap();
        let (disasm, summary) = (op("disasm"), op("cfg-summary"));

        let plain = run_tool(env!("CARGO_BIN_EXE_eelobjdump"), &wef, &[]);
        assert!(plain.status.success(), "{shape}: eelobjdump failed");
        let plain = String::from_utf8(plain.stdout).unwrap();
        assert_eq!(without_header_notes(&plain), disasm, "{shape}: listing");
        assert!(plain.starts_with(';'), "{shape}: no header notes\n{plain}");

        let cfg = run_tool(env!("CARGO_BIN_EXE_eelobjdump"), &wef, &["--cfg"]);
        assert!(cfg.status.success(), "{shape}: eelobjdump --cfg failed");
        let cfg = String::from_utf8(cfg.stdout).unwrap();
        assert_eq!(
            without_header_notes(&cfg),
            format!("{disasm}{summary}"),
            "{shape}: --cfg listing"
        );
        if shape == "sunpro" {
            assert!(disasm.contains("; dispatch table"), "{disasm}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eelstat_reports_the_cold_request_spans_on_both_machines() {
    let dir = std::env::temp_dir().join(format!("eel-stat-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let expected: &[(&str, &[&str])] = &[
        (
            "gcc",
            &[
                "core.build_cfg",
                "core.liveness",
                "core.layout",
                "core.write_edited",
            ],
        ),
        (
            "mips",
            &[
                "core.generic.cfg",
                "core.generic.liveness",
                "core.generic.instrument",
            ],
        ),
    ];
    let shapes = served_shapes();
    for &(shape, spans) in expected {
        let image = &shapes.iter().find(|(s, _)| *s == shape).unwrap().1;
        let wef = dir.join(format!("{shape}.wef"));
        std::fs::write(&wef, image.to_bytes()).unwrap();
        let stat = run_tool(env!("CARGO_BIN_EXE_eelstat"), &wef, &[]);
        assert!(stat.status.success(), "{shape}: eelstat failed");
        let report = String::from_utf8(stat.stdout).unwrap();
        for span in spans {
            assert!(report.contains(span), "{shape}: no {span} in\n{report}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value column of eelstat's top-level line for `name` (two-space
/// indent: a span tree root or a counter).
fn top_level(report: &str, name: &str) -> Option<String> {
    report.lines().find_map(|line| {
        let rest = line.strip_prefix("  ")?.strip_prefix(name)?;
        rest.starts_with(' ')
            .then(|| rest.split_whitespace().next().unwrap_or("").to_string())
    })
}

/// The `Nx` counts of every span-tree line for `name`, at any depth,
/// summed.
fn span_count(report: &str, name: &str) -> u32 {
    report
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(name)).then(|| words.next())?
        })
        .filter_map(|count| count.strip_suffix('x')?.parse::<u32>().ok())
        .sum()
}

#[test]
fn eelstat_builds_each_routine_cfg_once_per_image() {
    // The 4-routine twin program of CI's machine-smoke job: the four
    // CFG ops share one analysis, so each routine is built once and its
    // liveness solved once (the `liveness` op solves it, `instrument`'s
    // layout reads it), and a cold `run_op` hashes no routine keys
    // beyond the analysis' own.
    let twin = "fn helper(x) { return x * 3 + 1; }
        fn main() {
          var i; var t = 0;
          for (i = 0; i < 5; i = i + 1) { t = t + helper(i); }
          print(t);
          return t;
        }";
    let image = compile_str(twin, &Options::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("eel-stat-once-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wef = dir.join("twin.sparc.wef");
    std::fs::write(&wef, image.to_bytes()).unwrap();
    let stat = run_tool(env!("CARGO_BIN_EXE_eelstat"), &wef, &[]);
    assert!(stat.status.success(), "eelstat failed");
    let note = String::from_utf8_lossy(&stat.stderr);
    assert!(note.contains(": 4 routines"), "{note}");
    let report = String::from_utf8(stat.stdout).unwrap();
    assert_eq!(
        top_level(&report, "core.build_cfg").as_deref(),
        Some("4x"),
        "{report}"
    );
    assert_eq!(
        top_level(&report, "core.routine_key.computed").as_deref(),
        Some("4"),
        "{report}"
    );
    assert_eq!(span_count(&report, "core.liveness"), 4, "{report}");
    // Plus the two tails the builds split off, built by write_edited.
    assert_eq!(span_count(&report, "core.build_cfg"), 6, "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn offline_tools_reject_malformed_images_without_panicking() {
    let dir = std::env::temp_dir().join(format!("eel-malformed-tools-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = compile_str(small_program(), &Options::default())
        .unwrap()
        .to_bytes();
    let with_word = |index: usize, value: u32| {
        let mut bytes = good.clone();
        bytes[4 * index..4 * index + 4].copy_from_slice(&value.to_be_bytes());
        bytes
    };
    // Header words: 1 is the flags (machine tag in the low byte), 7 the
    // bss size.
    let cases: &[(&str, Vec<u8>, &[&str])] = &[
        (
            "truncated",
            good[..good.len() / 2].to_vec(),
            &["eelstat", "eelobjdump"],
        ),
        ("alpha-tagged", with_word(1, 2), &["eelstat", "eelobjdump"]),
        (
            "wrapping bss",
            with_word(7, u32::MAX),
            &["eelstat", "eelobjdump"],
        ),
        // Discovery and disassembly never touch the bss, but the cold
        // path's `instrument` must refuse to materialize a gigabyte of it.
        ("gigabyte bss", with_word(7, 1 << 30), &["eelstat"]),
    ];
    for (name, bytes, tools) in cases {
        let wef = dir.join("bad.wef");
        std::fs::write(&wef, bytes).unwrap();
        for tool in *tools {
            let bin = match *tool {
                "eelstat" => env!("CARGO_BIN_EXE_eelstat"),
                _ => env!("CARGO_BIN_EXE_eelobjdump"),
            };
            let out = run_tool(bin, &wef, &[]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{tool} on {name}: {err}");
            assert!(
                err.starts_with(&format!("{tool}: ")),
                "{tool} on {name}: {err}"
            );
            assert!(!err.contains("panicked"), "{tool} on {name}: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
