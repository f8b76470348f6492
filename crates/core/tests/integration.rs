//! End-to-end integration tests for the EEL core: compile real Wisc
//! programs, analyze and edit them, write edited executables, and verify
//! behavioral equivalence (plus instrumentation correctness) under the
//! emulator.

use eel_cc::{compile_str, Options, Personality};
use eel_core::{BlockKind, EdgeKind, Executable, Snippet};
use eel_emu::{run_image, Machine};
use eel_exe::Image;
use eel_isa::Reg;

/// A battery of representative programs. Each returns a deterministic
/// exit code and some print output.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "loops",
        r#"
        fn main() {
            var i; var t = 0;
            for (i = 0; i < 50; i = i + 1) {
                if (i % 3 == 0) { t = t + i; } else { t = t - 1; }
            }
            print(t);
            return t;
        }"#,
    ),
    (
        "calls",
        r#"
        fn fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() { print(fib(12)); return fib(12); }"#,
    ),
    (
        "switch",
        r#"
        global hits[8];
        fn classify(x) {
            switch (x % 7) {
                case 0: { return 10; }
                case 1: { return 11; }
                case 2: { return 12; }
                case 3: { return 13; }
                case 4: { return 14; }
                case 6: { return 16; }
                default: { return 99; }
            }
        }
        fn main() {
            var i; var acc = 0;
            for (i = 0; i < 40; i = i + 1) {
                acc = acc + classify(i);
                hits[i % 8] = hits[i % 8] + 1;
            }
            print(acc);
            return acc % 251;
        }"#,
    ),
    (
        "funptr",
        r#"
        fn twice(x) { return x * 2; }
        fn thrice(x) { return x * 3; }
        fn apply(f, x) { return (*f)(x); }
        fn main() {
            var a = apply(&twice, 10);
            var b = apply(&thrice, 10);
            print(a + b);
            return a * 100 + b;
        }"#,
    ),
    (
        "tail",
        r#"
        fn add1(x) { return x + 1; }
        fn chain3(x) { return add1(x * 2); }
        fn chain2(x) { return chain3(x + 5); }
        fn chain1(x) { return chain2(x); }
        fn main() { print(chain1(7)); return chain1(7); }"#,
    ),
    (
        "memory",
        r#"
        global buf[32];
        fn main() {
            var i; var sum = 0;
            for (i = 0; i < 32; i = i + 1) { buf[i] = i * i % 17; }
            for (i = 0; i < 32; i = i + 1) { sum = sum + buf[i]; }
            print(sum);
            return sum;
        }"#,
    ),
];

fn all_option_combos() -> Vec<Options> {
    let mut v = Vec::new();
    for personality in [Personality::Gcc, Personality::SunPro] {
        for fill in [true, false] {
            v.push(Options {
                personality,
                fill_delay_slots: fill,
                strip: false,
            });
        }
    }
    v
}

fn passthrough(image: Image) -> Image {
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    exec.write_edited().unwrap()
}

#[test]
fn passthrough_preserves_behavior_for_all_programs() {
    for (name, src) in PROGRAMS {
        for opts in all_option_combos() {
            let image = compile_str(src, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let before = run_image(&image).unwrap_or_else(|e| panic!("{name} original: {e}"));
            let edited = passthrough(image);
            let after =
                run_image(&edited).unwrap_or_else(|e| panic!("{name} edited ({opts:?}): {e}"));
            assert_eq!(before.exit_code, after.exit_code, "{name} {opts:?}");
            assert_eq!(before.output, after.output, "{name} {opts:?}");
        }
    }
}

#[test]
fn write_edited_with_zero_edits_is_byte_identical() {
    // No observable edit ⇒ the rewrite is the identity on WEF bytes, not
    // merely behavior-preserving (no bss materialization, no symbol
    // rebuild). Both the bare pass-through and the install-everything
    // pass-through (edit-free CFGs) must take the clean fast path.
    for (name, src) in PROGRAMS {
        let image = compile_str(src, &Options::default()).unwrap();
        let bytes = image.to_bytes();
        let edited = passthrough(image.clone());
        assert_eq!(edited.to_bytes(), bytes, "{name}: clean pass-through");

        let mut exec = Executable::from_image(image.clone()).unwrap();
        exec.read_contents().unwrap();
        for id in exec.all_routine_ids() {
            let cfg = exec.build_cfg(id).unwrap();
            exec.install_edits(cfg).unwrap();
        }
        let edited = exec.write_edited().unwrap();
        if *name == "funptr" {
            // Installing a layout that needs run-time translation (the
            // function-pointer dispatch) commits the rewrite to carry
            // the translator, so the identity fast path must NOT fire.
            assert_ne!(edited.to_bytes(), bytes, "{name}: translator expected");
            let before = run_image(&image).unwrap();
            let after = run_image(&edited).unwrap();
            assert_eq!(before.exit_code, after.exit_code, "{name}");
            assert_eq!(before.output, after.output, "{name}");
        } else {
            assert_eq!(edited.to_bytes(), bytes, "{name}: edit-free install");
            // The identity map is still available for address queries.
            assert_eq!(exec.edited_addr(edited.entry), Some(edited.entry));
        }
    }
}

#[test]
fn zero_byte_reservation_keeps_the_clean_fast_path() {
    let image = compile_str(PROGRAMS[0].1, &Options::default()).unwrap();
    let bytes = image.to_bytes();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    assert_eq!(exec.reserve_data(0) % 8, 0);
    let edited = exec.write_edited().unwrap();
    assert_eq!(edited.to_bytes(), bytes);
}

#[test]
fn any_real_edit_disables_the_fast_path() {
    let image = compile_str(PROGRAMS[0].1, &Options::default()).unwrap();
    let bytes = image.to_bytes();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let counter = exec.reserve_data(4);
    let id = exec.routine_containing(exec.image().entry).unwrap();
    let mut cfg = exec.build_cfg(id).unwrap();
    let addr = exec.routine(id).start();
    cfg.add_code_before(addr, Snippet::counter_increment(counter))
        .unwrap();
    exec.install_edits(cfg).unwrap();
    let edited = exec.write_edited().unwrap();
    assert_ne!(edited.to_bytes(), bytes, "an edit must change the image");
}

#[test]
fn passthrough_preserves_behavior_for_stripped_binaries() {
    for (name, src) in PROGRAMS {
        let opts = Options {
            strip: true,
            ..Options::default()
        };
        let image = compile_str(src, &opts).unwrap();
        assert!(image.is_stripped());
        let before = run_image(&image).unwrap();
        let edited = passthrough(image);
        let after = run_image(&edited).unwrap_or_else(|e| panic!("{name} stripped: {e}"));
        assert_eq!(before.exit_code, after.exit_code, "{name} stripped");
        assert_eq!(before.output, after.output, "{name} stripped");
    }
}

#[test]
fn read_contents_finds_compiler_routines() {
    let image = compile_str(PROGRAMS[1].1, &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let names: Vec<String> = exec.routines().iter().map(|r| r.name()).collect();
    assert!(names.contains(&"main".to_string()), "{names:?}");
    assert!(names.contains(&"fib".to_string()), "{names:?}");
    assert!(names.contains(&"__start".to_string()), "{names:?}");
    assert!(names.contains(&"__print_int".to_string()), "{names:?}");
}

#[test]
fn stripped_discovery_finds_called_routines() {
    let src = PROGRAMS[1].1;
    let opts = Options {
        strip: true,
        ..Options::default()
    };
    let image = compile_str(src, &opts).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    // __start, main, fib, __print_int all reachable through calls.
    assert!(
        exec.routines().len() >= 4,
        "stripped discovery found only {:?}",
        exec.routines()
            .iter()
            .map(|r| r.start())
            .collect::<Vec<_>>()
    );
    // Names cannot be recreated (§3.1).
    assert!(exec.routines().iter().all(|r| !r.has_symbol_name()));
}

#[test]
fn entry_counting_matches_call_counts() {
    // fib(10) makes 177 calls to fib total (fib called 177 times).
    let src = r#"
        fn fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() { return fib(10); }"#;
    let image = compile_str(src, &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();

    let counters = exec.reserve_data(4 * 16);
    let mut fib_slot = None;
    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id).unwrap();
        let slot = counters + 4 * id.index() as u32;
        if exec.routine(id).name() == "fib" {
            fib_slot = Some(slot);
        }
        let entry = cfg.entry_block();
        cfg.add_code_at_block_start(entry, Snippet::counter_increment(slot))
            .unwrap();
        exec.install_edits(cfg).unwrap();
    }
    let edited = exec.write_edited().unwrap();
    let mut machine = Machine::load(&edited).unwrap();
    let outcome = machine.run().unwrap();
    assert_eq!(outcome.exit_code, 55, "fib(10)");
    let fib_count = machine.read_word(fib_slot.expect("fib instrumented"));
    assert_eq!(fib_count, 177, "fib entry count");
}

#[test]
fn edge_counting_on_branches() {
    // Count every out-edge of multi-successor blocks (Figure 1's tool);
    // the loop branch should fire a known number of times.
    let src = r#"
        fn main() {
            var i; var t = 0;
            for (i = 0; i < 10; i = i + 1) { t = t + i; }
            return t;
        }"#;
    let image = compile_str(src, &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();

    let counters = exec.reserve_data(4 * 256);
    let mut num = 0u32;
    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id).unwrap();
        let mut edits = Vec::new();
        for (bid, block) in cfg.blocks() {
            if block.kind != BlockKind::Normal || block.succ().len() < 2 {
                continue;
            }
            for e in block.succ() {
                if cfg.edge(e).editable {
                    edits.push(e);
                }
            }
            let _ = bid;
        }
        for e in edits {
            cfg.add_code_along(e, Snippet::counter_increment(counters + 4 * num))
                .unwrap();
            num += 1;
        }
        exec.install_edits(cfg).unwrap();
    }
    assert!(num > 0, "instrumented some edges");
    let edited = exec.write_edited().unwrap();
    let mut machine = Machine::load(&edited).unwrap();
    let outcome = machine.run().unwrap();
    assert_eq!(outcome.exit_code, plain.exit_code);
    // Sum of all edge counters must be positive and deterministic.
    let total: u32 = (0..num).map(|i| machine.read_word(counters + 4 * i)).sum();
    assert!(total >= 10, "edge executions recorded: {total}");
}

#[test]
fn jump_table_edges_can_be_instrumented() {
    let src = PROGRAMS[2].1; // switch program
    let image = compile_str(src, &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();

    let counters = exec.reserve_data(4 * 64);
    let mut num = 0u32;
    let mut found_table = false;
    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id).unwrap();
        let table_edges: Vec<_> = cfg
            .blocks()
            .flat_map(|(_, b)| b.succ().to_vec())
            .filter(|&e| cfg.edge(e).kind == EdgeKind::Table && cfg.edge(e).editable)
            .collect();
        if !table_edges.is_empty() {
            found_table = true;
        }
        for e in table_edges {
            cfg.add_code_along(e, Snippet::counter_increment(counters + 4 * num))
                .unwrap();
            num += 1;
        }
        exec.install_edits(cfg).unwrap();
    }
    assert!(
        found_table,
        "the switch program must contain a dispatch table"
    );
    let edited = exec.write_edited().unwrap();
    let mut machine = Machine::load(&edited).unwrap();
    let outcome = machine.run().unwrap();
    assert_eq!(outcome.exit_code, plain.exit_code);
    assert_eq!(outcome.output, plain.output);
    let total: u32 = (0..num).map(|i| machine.read_word(counters + 4 * i)).sum();
    // classify() is called 40 times; every call dispatches through the table
    // (or its bounds-check default path for case 5).
    assert!(total >= 30, "table edge executions: {total}");
}

#[test]
fn sunpro_tail_calls_run_through_translation() {
    let src = PROGRAMS[4].1; // tail-call chain
    let opts = Options {
        personality: Personality::SunPro,
        ..Options::default()
    };
    let image = compile_str(src, &opts).unwrap();
    let plain = run_image(&image).unwrap();

    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    // The tail jumps must be unanalyzable → incomplete CFGs somewhere.
    let mut any_incomplete = false;
    let mut cfgs = Vec::new();
    for id in exec.all_routine_ids() {
        let cfg = exec.build_cfg(id).unwrap();
        any_incomplete |= cfg.is_incomplete();
        cfgs.push(cfg);
    }
    assert!(
        any_incomplete,
        "SunPro tail calls must defeat static analysis"
    );
    for cfg in cfgs {
        exec.install_edits(cfg).unwrap();
    }
    let edited = exec.write_edited().unwrap();
    // The edited program still works: targets translate at run time.
    let after = run_image(&edited).unwrap();
    assert_eq!(plain.exit_code, after.exit_code);
    assert_eq!(plain.output, after.output);
    // Translation costs cycles.
    assert!(
        after.cycles > plain.cycles,
        "{} vs {}",
        after.cycles,
        plain.cycles
    );
}

#[test]
fn gcc_mode_has_no_unanalyzable_jumps_sunpro_does() {
    let count = |personality: Personality| -> (usize, usize) {
        let mut total = 0;
        let mut unknown = 0;
        for (_, src) in PROGRAMS {
            let opts = Options {
                personality,
                ..Options::default()
            };
            let image = compile_str(src, &opts).unwrap();
            let mut exec = Executable::from_image(image).unwrap();
            exec.read_contents().unwrap();
            for id in exec.all_routine_ids() {
                let cfg = exec.build_cfg(id).unwrap();
                for (_, res) in cfg.indirect_jumps() {
                    total += 1;
                    if matches!(res, eel_core::JumpResolution::Unknown) {
                        unknown += 1;
                    }
                }
            }
        }
        (total, unknown)
    };
    let (gcc_total, gcc_unknown) = count(Personality::Gcc);
    let (sp_total, sp_unknown) = count(Personality::SunPro);
    assert!(
        gcc_total > 0,
        "gcc programs contain indirect jumps (tables)"
    );
    assert_eq!(gcc_unknown, 0, "paper: 0 of 1,325 unanalyzable on gcc");
    assert!(sp_unknown > 0, "paper: 138 of 1,244 unanalyzable on SunPro");
    let _ = sp_total;
}

#[test]
fn add_code_before_every_memory_reference() {
    // Active-Memory shape: insert a counter before every load and store.
    let src = PROGRAMS[5].1;
    let image = compile_str(src, &Options::default()).unwrap();
    let plain = run_image(&image).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let counter = exec.reserve_data(4);
    let mut sites = 0u64;
    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id).unwrap();
        // Normal-block references: straight insertion before the access.
        for site in cfg.memory_sites() {
            if let Some(addr) = site.addr {
                cfg.add_code_before(addr, Snippet::counter_increment(counter))
                    .unwrap();
                sites += 1;
            }
        }
        // Delay-slot references: count them on each path they execute on
        // (editable branch-path delay blocks), or — for uneditable call
        // delay slots — at the paper's "alternative location", before the
        // call itself (the delay executes exactly once per call).
        let mut edge_edits: Vec<eel_core::EdgeId> = Vec::new();
        let mut before_calls: Vec<u32> = Vec::new();
        for (bid, block) in cfg.blocks() {
            if block.kind != BlockKind::DelaySlot {
                continue;
            }
            let is_mem = block
                .insns
                .first()
                .map(|ia| ia.insn.is_memory())
                .unwrap_or(false);
            if !is_mem {
                continue;
            }
            let incoming = block.pred().to_vec();
            for e in incoming {
                if cfg.edge(e).editable {
                    edge_edits.push(e);
                } else {
                    // Call/return delay: hook the transfer instruction.
                    let from = cfg.edge(e).from;
                    if let Some(term) = cfg.block(from).terminator() {
                        if let Some(a) = term.addr {
                            before_calls.push(a);
                        }
                    }
                }
            }
            let _ = bid;
        }
        for e in edge_edits {
            cfg.add_code_along(e, Snippet::counter_increment(counter))
                .unwrap();
            sites += 1;
        }
        for a in before_calls {
            cfg.add_code_before(a, Snippet::counter_increment(counter))
                .unwrap();
            sites += 1;
        }
        exec.install_edits(cfg).unwrap();
    }
    assert!(sites > 10, "plenty of memory sites: {sites}");
    let edited = exec.write_edited().unwrap();
    let mut machine = Machine::load(&edited).unwrap();
    let outcome = machine.run().unwrap();
    assert_eq!(outcome.exit_code, plain.exit_code);
    assert_eq!(outcome.output, plain.output);
    let dynamic_refs = machine.read_word(counter) as u64;
    assert_eq!(
        dynamic_refs,
        plain.loads + plain.stores,
        "the counter must equal the emulator's ground-truth reference count"
    );
}

#[test]
fn deleting_a_dead_instruction_preserves_behavior() {
    // Hand-written program with a provably dead instruction.
    let image = eel_asm::assemble(
        r#"
        .global main
    main:
        mov 5, %o0
        mov 9, %l3          ! dead: %l3 never read
        mov 1, %g1
        ta 0
        nop
    "#,
    )
    .unwrap();
    let addr = image.text_addr + 4;
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let id = exec.routine_containing(addr).unwrap();
    let mut cfg = exec.build_cfg(id).unwrap();
    cfg.delete_insn(addr).unwrap();
    exec.install_edits(cfg).unwrap();
    let edited = exec.write_edited().unwrap();
    assert_eq!(run_image(&edited).unwrap().exit_code, 5);
    // The edited text is one word shorter than a pass-through would be.
    assert!(edited.text.len() <= 5 * 4 + 64, "deletion shrank the code");
}

#[test]
fn hidden_routine_discovered_from_call() {
    // `helper` has no symbol-table entry; it is discovered from the call.
    let image = eel_asm::assemble(
        r#"
        .global main
    main:
        call helper
        nop
        mov 1, %g1
        ta 0
        nop
        .type helper, temp   ! stage 1 discards temp labels
    helper:
        retl
        mov 42, %o0
    "#,
    )
    .unwrap();
    let helper_addr = image.find_symbol("helper").unwrap().value;
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let id = exec.routine_containing(helper_addr).unwrap();
    assert!(
        exec.routine(id).is_hidden(),
        "helper must be a hidden routine"
    );
    assert_eq!(exec.routine(id).start(), helper_addr);
    // The hidden queue surfaces it (Figure 1's drain loop).
    let mut from_queue = Vec::new();
    while let Some(h) = exec.pop_hidden() {
        from_queue.push(h);
    }
    assert!(from_queue.contains(&id));
    // And the program still runs after editing.
    let edited = exec.write_edited().unwrap();
    assert_eq!(run_image(&edited).unwrap().exit_code, 42);
}

#[test]
fn trailing_unreachable_code_becomes_hidden_routine() {
    // `main` ends in an unconditional return; `tail` is reachable only
    // through a pointer no analysis sees — stage 4 splits it off as
    // hidden.
    let image = eel_asm::assemble(
        r#"
        .global main
    main:
        mov 7, %o0
        mov 1, %g1
        ta 0
        nop
        retl
        nop
    tail:
        retl
        mov 9, %o0
    "#,
    )
    .unwrap();
    let tail_addr = image.find_symbol("tail").unwrap().value;
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let main_id = exec.routine_containing(tail_addr).unwrap();
    // Building main's CFG triggers the stage-4 split.
    let _ = exec.build_cfg(main_id).unwrap();
    let tail_id = exec.routine_containing(tail_addr).unwrap();
    assert_ne!(main_id, tail_id, "tail split into its own routine");
    assert!(exec.routine(tail_id).is_hidden());
    let edited = exec.write_edited().unwrap();
    assert_eq!(run_image(&edited).unwrap().exit_code, 7);
}

#[test]
fn cfg_stats_show_normalization_blocks() {
    let src = PROGRAMS[0].1;
    let image = compile_str(src, &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let mut total = eel_core::CfgStats::default();
    for id in exec.all_routine_ids() {
        let cfg = exec.build_cfg(id).unwrap();
        total.accumulate(&cfg.stats());
    }
    assert!(
        total.delay_slot_blocks > 0,
        "delay-slot blocks exist: {total:?}"
    );
    assert!(
        total.call_surrogate_blocks > 0,
        "surrogates exist: {total:?}"
    );
    assert!(total.entry_exit_blocks >= 2, "{total:?}");
    let f = total.uneditable_edge_fraction();
    assert!(f > 0.02 && f < 0.6, "uneditable fraction plausible: {f}");
}

#[test]
fn dominators_and_loops_on_a_real_cfg() {
    let src = PROGRAMS[0].1; // has a for loop
    let image = compile_str(src, &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let main_id = exec
        .all_routine_ids()
        .into_iter()
        .find(|&id| exec.routine(id).name() == "main")
        .unwrap();
    let cfg = exec.build_cfg(main_id).unwrap();
    let dom = eel_core::Dominators::compute(&cfg);
    assert!(dom.is_reachable(cfg.exit_block()));
    let loops = eel_core::natural_loops(&cfg, &dom);
    assert!(
        !loops.is_empty(),
        "the for loop must appear as a natural loop"
    );
    for l in &loops {
        assert!(l.contains(l.header));
        assert!(dom.dominates(l.header, cfg.edge(l.back_edge).from));
    }
}

#[test]
fn liveness_and_slicing_on_a_real_cfg() {
    let src = PROGRAMS[5].1;
    let image = compile_str(src, &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let main_id = exec
        .all_routine_ids()
        .into_iter()
        .find(|&id| exec.routine(id).name() == "main")
        .unwrap();
    let cfg = exec.build_cfg(main_id).unwrap();
    let live = eel_core::Liveness::compute(&cfg);
    // The stack pointer is live basically everywhere in compiled code.
    assert!(live.live_in(cfg.entry_block()).contains(Reg::SP));

    let mut slicer = eel_core::Slicer::new(&cfg);
    let mut sliced_any = false;
    for (bid, block) in cfg.blocks() {
        for (i, ia) in block.insns.iter().enumerate() {
            if ia.insn.is_memory() {
                slicer.slice_address(bid, i);
                sliced_any = true;
            }
        }
    }
    assert!(sliced_any);
    assert!(!slicer.is_empty(), "address slices are nonempty");
    assert!(
        slicer.count(eel_core::SliceMark::Easy) > 0,
        "sethi-style roots are easy"
    );
}

#[test]
fn edited_addr_maps_entries() {
    let image = compile_str("fn main() { return 3; }", &Options::default()).unwrap();
    let entry = image.entry;
    let main_sym = image.find_symbol("main").unwrap().value;
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let edited = exec.write_edited().unwrap();
    let new_entry = exec.edited_addr(entry).unwrap();
    assert_eq!(edited.entry, new_entry);
    assert!(exec.edited_addr(main_sym).is_some());
    assert_eq!(run_image(&edited).unwrap().exit_code, 3);
}

#[test]
fn multiple_snippets_at_one_point_compose() {
    let image = compile_str("fn main() { return 1; }", &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let c1 = exec.reserve_data(4);
    let c2 = exec.reserve_data(4);
    let main_id = exec
        .all_routine_ids()
        .into_iter()
        .find(|&id| exec.routine(id).name() == "main")
        .unwrap();
    let mut cfg = exec.build_cfg(main_id).unwrap();
    let entry = cfg.entry_block();
    cfg.add_code_at_block_start(entry, Snippet::counter_increment(c1))
        .unwrap();
    cfg.add_code_at_block_start(entry, Snippet::counter_increment(c2))
        .unwrap();
    exec.install_edits(cfg).unwrap();
    let edited = exec.write_edited().unwrap();
    let mut m = Machine::load(&edited).unwrap();
    assert_eq!(m.run().unwrap().exit_code, 1);
    assert_eq!(m.read_word(c1), 1);
    assert_eq!(m.read_word(c2), 1);
}

#[test]
fn uneditable_points_are_rejected() {
    let src = "fn f(x) { return x + 1; } fn main() { return f(1); }";
    let image = compile_str(src, &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let main_id = exec
        .all_routine_ids()
        .into_iter()
        .find(|&id| exec.routine(id).name() == "main")
        .unwrap();
    let mut cfg = exec.build_cfg(main_id).unwrap();
    // Find an uneditable edge (call flow / return flow) and try to edit it.
    let uneditable = (0..cfg.edge_count())
        .map(eel_core::EdgeId::from_index)
        .find(|&e| !cfg.edge(e).editable)
        .expect("calls create uneditable edges");
    let err = cfg
        .add_code_along(uneditable, Snippet::counter_increment(0x40_0000))
        .unwrap_err();
    assert!(matches!(err, eel_core::EelError::Uneditable { .. }));
}
