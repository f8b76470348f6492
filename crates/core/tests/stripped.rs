//! Inference-based routine discovery on stripped executables.
//!
//! The acceptance bar for the eel-strip subsystem: a `--strip`ped progen
//! image with a substantial routine population must analyze with high
//! routine-start F1 against its unstripped twin, and instrumenting the
//! stripped image must be emu-equivalent (identical non-zero block
//! counts) to instrumenting the twin.

use eel_cc::{Options, Personality};
use eel_core::{DiscoverySource, Executable, Snippet};
use eel_emu::Machine;
use eel_exe::Image;
use eel_progen::{compile, random_program, suite, GenConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic progen image with a large routine population
/// (`functions` user functions plus `main` and the runtime).
fn big_image() -> Image {
    // Seed chosen so the program also terminates quickly under the
    // emulator (the instrumentation-equivalence tests below run it).
    let program = random_program(
        5,
        &GenConfig {
            functions: 40,
            stmts_per_fn: 6,
            max_depth: 2,
            globals: 4,
            arrays: 2,
        },
    );
    eel_cc::compile_ast(&program, &Options::default()).expect("progen program compiles")
}

fn routine_starts(image: Image) -> BTreeSet<u32> {
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    exec.all_routine_ids()
        .into_iter()
        .map(|id| exec.routine(id).start())
        .collect()
}

#[test]
fn stripped_routine_start_f1_is_at_least_095() {
    let image = big_image();
    let truth = routine_starts(image.clone());
    assert!(
        truth.len() >= 30,
        "ground-truth twin has only {} routines",
        truth.len()
    );

    let mut stripped = image;
    stripped.strip();
    assert!(stripped.is_stripped());
    let inferred = routine_starts(stripped);

    let tp = inferred.intersection(&truth).count() as f64;
    let precision = tp / inferred.len() as f64;
    let recall = tp / truth.len() as f64;
    let f1 = 2.0 * precision * recall / (precision + recall);
    assert!(
        f1 >= 0.95,
        "routine-start F1 {f1:.3} (precision {precision:.3}, recall {recall:.3}; \
         {} true, {} inferred)",
        truth.len(),
        inferred.len()
    );
}

/// Instruments every editable normal block with a counter and runs the
/// image, returning `(exit, output, block addr → count)` for the
/// non-zero counters. Keys are ORIGINAL text addresses, so the maps are
/// comparable across the stripped/unstripped twins even though the two
/// editors reserve counter storage independently.
fn block_profile(image: Image) -> (u32, Vec<u8>, BTreeMap<u32, u32>) {
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let mut sites: Vec<(u32, u32)> = Vec::new(); // (block addr, counter addr)
    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id).unwrap();
        let blocks: Vec<_> = cfg
            .blocks()
            .filter(|(_, b)| {
                b.kind == eel_core::BlockKind::Normal && b.editable && !b.insns.is_empty()
            })
            .map(|(bid, b)| (bid, b.addr))
            .collect();
        let base = exec.reserve_data(4 * blocks.len().max(1) as u32);
        for (k, (bid, addr)) in blocks.into_iter().enumerate() {
            let counter = base + 4 * k as u32;
            sites.push((addr, counter));
            cfg.add_code_at_block_start(bid, Snippet::counter_increment(counter))
                .unwrap();
        }
        exec.install_edits(cfg).unwrap();
    }
    let edited = exec.write_edited().unwrap();
    // Counters on every block roughly double the dynamic instruction
    // count; leave generous headroom over the ~3M-cycle base program.
    let mut machine = Machine::load(&edited).unwrap().with_step_limit(50_000_000);
    let outcome = machine.run().unwrap();
    let counts = sites
        .into_iter()
        .filter_map(|(addr, counter)| {
            let c = machine.read_word(counter);
            (c != 0).then_some((addr, c))
        })
        .collect();
    (outcome.exit_code, outcome.output, counts)
}

#[test]
fn stripped_twin_instrumentation_is_emu_equivalent() {
    let image = big_image();
    let mut stripped = image.clone();
    stripped.strip();

    let (exit_a, out_a, counts_a) = block_profile(image);
    let (exit_b, out_b, counts_b) = block_profile(stripped);
    assert_eq!(exit_a, exit_b, "exit codes diverge");
    assert_eq!(out_a, out_b, "print output diverges");
    // Identical non-zero block counts: every block the program actually
    // executes was found by inference and counted identically. (Zero
    // counters cover dead code — e.g. an uncalled runtime helper the
    // symbol table names but no instruction references.)
    assert_eq!(counts_a, counts_b, "dynamic block counts diverge");
    assert!(!counts_a.is_empty(), "profile counted nothing");
}

#[test]
fn suite_workloads_stay_emu_equivalent_when_stripped() {
    // The fixed suite exercises dispatch tables — the inference path
    // must route jump-table targets back into the sweep to keep these
    // twins equivalent.
    for w in suite().iter().take(3) {
        let image = compile(w, Personality::Gcc).unwrap();
        let mut stripped = image.clone();
        stripped.strip();
        let (exit_a, out_a, counts_a) = block_profile(image);
        let (exit_b, out_b, counts_b) = block_profile(stripped);
        assert_eq!(exit_a, exit_b, "{}: exit codes diverge", w.name);
        assert_eq!(out_a, out_b, "{}: print output diverges", w.name);
        assert_eq!(counts_a, counts_b, "{}: block counts diverge", w.name);
    }
}

#[test]
fn discovery_source_reports_symbols_vs_inference() {
    let image = big_image();
    let mut exec = Executable::from_image(image.clone()).unwrap();
    exec.read_contents().unwrap();
    assert_eq!(exec.discovery_source(), DiscoverySource::Symbols);
    assert!(exec
        .all_routine_ids()
        .into_iter()
        .all(|id| !exec.routine(id).is_inferred()));

    let mut stripped = image;
    stripped.strip();
    let mut exec = Executable::from_image(stripped).unwrap();
    exec.read_contents().unwrap();
    assert_eq!(exec.discovery_source(), DiscoverySource::Inferred);
    let ids = exec.all_routine_ids();
    assert!(ids.iter().all(|&id| exec.routine(id).is_inferred()));
    // Names cannot be recreated (§3.1): inferred routines carry the
    // conventional stripped-binary spelling.
    assert!(ids
        .iter()
        .any(|&id| exec.routine(id).name().starts_with("sub_")));
}
