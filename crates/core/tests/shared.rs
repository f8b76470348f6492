//! Regression tests for the shareable-analysis surgery: idempotent
//! `read_contents`, `Analysis`/`from_analysis` equivalence, and
//! cross-thread sharing.

use eel_cc::{compile_str, Options, Personality};
use eel_core::{Analysis, Executable, Liveness};
use std::sync::Arc;

fn program() -> &'static str {
    r#"
    global data[32];
    fn helper(x) { data[x & 31] = x; return data[x & 31] * 2; }
    fn main() {
        var i; var t = 0;
        for (i = 0; i < 12; i = i + 1) { t = t + helper(i); }
        return t & 255;
    }"#
}

#[test]
fn read_contents_is_idempotent() {
    // The server calls analysis paths repeatedly on shared state; a
    // second read_contents must be a no-op, not a duplicate discovery
    // (or worse, duplicated routines).
    let image = compile_str(program(), &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let routines: Vec<String> = exec.routines().iter().map(|r| r.name()).collect();
    let entries: Vec<Vec<u32>> = exec
        .routines()
        .iter()
        .map(|r| r.entries().to_vec())
        .collect();

    exec.read_contents().unwrap();
    exec.read_contents().unwrap();
    let again: Vec<String> = exec.routines().iter().map(|r| r.name()).collect();
    let entries_again: Vec<Vec<u32>> = exec
        .routines()
        .iter()
        .map(|r| r.entries().to_vec())
        .collect();
    assert_eq!(routines, again, "repeat read_contents left routines alone");
    assert_eq!(entries, entries_again);
}

#[test]
fn from_analysis_matches_fresh_read_contents() {
    let image = compile_str(program(), &Options::default()).unwrap();

    let mut fresh = Executable::from_image(image.clone()).unwrap();
    fresh.read_contents().unwrap();

    let analysis = Analysis::compute(Arc::new(image)).unwrap();
    let shared = Executable::from_analysis(&analysis);

    let names = |e: &Executable| -> Vec<(String, Vec<u32>, bool)> {
        e.routines()
            .iter()
            .map(|r| (r.name(), r.entries().to_vec(), r.is_hidden()))
            .collect()
    };
    assert_eq!(names(&fresh), names(&shared));
    assert_eq!(analysis.routines().len(), fresh.routines().len());
}

#[test]
fn one_analysis_serves_concurrent_editors() {
    // The service's whole premise: one Analysis fans out to many threads,
    // each building its own Executable and editing independently, and
    // every edited executable still behaves like the original.
    for personality in [Personality::Gcc, Personality::SunPro] {
        let opts = Options {
            personality,
            ..Options::default()
        };
        let image = compile_str(program(), &opts).unwrap();
        let plain = eel_emu::run_image(&image).unwrap();
        let analysis = Arc::new(Analysis::compute(Arc::new(image)).unwrap());

        let mut handles = Vec::new();
        for _ in 0..4 {
            let analysis = Arc::clone(&analysis);
            handles.push(std::thread::spawn(move || {
                let mut exec = Executable::from_analysis(&analysis);
                for id in exec.all_routine_ids() {
                    let cfg = exec.build_cfg(id).unwrap();
                    exec.install_edits(cfg).unwrap();
                }
                exec.write_edited().unwrap()
            }));
        }
        for h in handles {
            let edited = h.join().expect("editor thread panicked");
            let outcome = eel_emu::run_image(&edited).unwrap();
            assert_eq!(outcome.exit_code, plain.exit_code);
            assert_eq!(outcome.output, plain.output);
        }
    }
}

#[test]
fn approx_bytes_tracks_image_size() {
    let small = compile_str("fn main() { return 1; }", &Options::default()).unwrap();
    let big = compile_str(program(), &Options::default()).unwrap();
    let a_small = Analysis::compute(Arc::new(small)).unwrap();
    let a_big = Analysis::compute(Arc::new(big)).unwrap();
    assert!(a_small.approx_bytes() > 0);
    assert!(
        a_big.approx_bytes() > a_small.approx_bytes(),
        "bigger program, bigger estimate"
    );
}

#[test]
fn approx_bytes_covers_names_pool_and_measured_retention() {
    let image = compile_str(program(), &Options::default()).unwrap();
    let analysis = Analysis::compute(Arc::new(image)).unwrap();
    let image = analysis.image();

    // The estimate must at least cover what we can count exactly: both
    // segments, every routine name (synthetic ones included — consumers
    // materialize those too), and one interned object per distinct word.
    let names: usize = analysis.routines().iter().map(|r| r.name().len()).sum();
    assert!(analysis.distinct_words() > 0);
    assert!(analysis.distinct_words() <= image.text.len() / 4);
    let floor = image.text.len() + image.data.len() + names + analysis.distinct_words() * 4;
    assert!(
        analysis.approx_bytes() > floor,
        "estimate {} must exceed the countable floor {floor}",
        analysis.approx_bytes()
    );

    // ROADMAP's cache-budget measurements put real retention at
    // ~1.7–1.9× text size; the old estimate sat well under that band
    // and starved the LRU. Keep the estimate at or above it (small
    // images carry proportionally more fixed overhead, so only the
    // lower bound is load-bearing).
    assert!(
        analysis.approx_bytes() as f64 >= 1.7 * image.text.len() as f64,
        "estimate {} must not undershoot 1.7x text ({} bytes)",
        analysis.approx_bytes(),
        image.text.len()
    );
}

#[test]
fn build_all_cfgs_matches_sequential_at_any_thread_count() {
    let image = compile_str(program(), &Options::default()).unwrap();
    let analysis = Analysis::compute(Arc::new(image)).unwrap();

    // The sequential truth: routine snapshot taken before each build,
    // exactly the pairs build_all_cfgs promises to reproduce. A fresh
    // executable of its own has empty cells, so each of its builds is
    // live and the analysis' cells stay empty for the batches below.
    let mut seq = Executable::from_image(analysis.image().as_ref().clone()).unwrap();
    seq.read_contents().unwrap();
    let mut expected = Vec::new();
    for id in seq.all_routine_ids() {
        let routine = seq.routine(id).clone();
        let cfg = seq.build_cfg(id).unwrap();
        expected.push((routine, cfg.stats(), cfg.blocks().count(), cfg.edge_count()));
    }

    for threads in [0, 1, 2, 5] {
        let mut exec = Executable::from_analysis(&analysis);
        let built = exec.build_all_cfgs(threads).unwrap();
        assert_eq!(built.len(), expected.len(), "threads={threads}");
        for ((routine, cfg), (exp_routine, exp_stats, exp_blocks, exp_edges)) in
            built.iter().zip(&expected)
        {
            assert_eq!(routine, exp_routine, "threads={threads}");
            assert_eq!(&cfg.stats(), exp_stats, "threads={threads}");
            assert_eq!(cfg.blocks().count(), *exp_blocks, "threads={threads}");
            assert_eq!(cfg.edge_count(), *exp_edges, "threads={threads}");
        }
    }
}

/// The progen suite's images under both personalities.
fn suite_images() -> Vec<eel_exe::Image> {
    let mut images = Vec::new();
    for w in eel_progen::suite() {
        for personality in [Personality::Gcc, Personality::SunPro] {
            images.push(eel_progen::compile(&w, personality).unwrap());
        }
    }
    images
}

#[test]
fn shared_shapes_retain_at_most_16_bytes_per_text_instruction() {
    // What eel-serve charges its analysis cache for the CFG shapes, once
    // every routine is built, against the text size.
    let (mut bytes, mut insns) = (0usize, 0usize);
    for image in suite_images() {
        insns += image.text.len() / 4;
        let analysis = Analysis::compute(Arc::new(image)).unwrap();
        Executable::from_analysis(&analysis)
            .build_all_cfgs(1)
            .unwrap();
        bytes += analysis.shape_bytes();
    }
    let per_insn = bytes as f64 / insns as f64;
    assert!(
        per_insn <= 16.0,
        "{per_insn:.2} shape bytes per text instruction ({bytes} over {insns})"
    );
}

#[test]
fn stored_liveness_retains_at_most_4_bytes_per_text_instruction() {
    // The liveness stored next to each shape, charged on top of the
    // shapes once every routine's is solved, against the text size.
    let (mut bytes, mut insns) = (0usize, 0usize);
    for image in suite_images() {
        insns += image.text.len() / 4;
        let analysis = Analysis::compute(Arc::new(image)).unwrap();
        let mut exec = Executable::from_analysis(&analysis);
        let cfgs = exec.build_all_cfgs(1).unwrap();
        let shapes = analysis.shape_bytes();
        for (_, cfg) in &cfgs {
            exec.liveness(cfg);
        }
        bytes += analysis.shape_bytes() - shapes;
    }
    let per_insn = bytes as f64 / insns as f64;
    assert!(
        per_insn <= 4.0,
        "{per_insn:.2} liveness bytes per text instruction ({bytes} over {insns})"
    );
}

#[test]
fn stored_liveness_equals_a_fresh_solve() {
    for image in suite_images() {
        let analysis = Analysis::compute(Arc::new(image)).unwrap();
        let mut exec = Executable::from_analysis(&analysis);
        let cfgs = exec.build_all_cfgs(1).unwrap();
        for (routine, cfg) in &cfgs {
            let stored = exec.liveness(cfg);
            let fresh = Liveness::compute(cfg);
            for (b, block) in cfg.blocks() {
                let at = || format!("{} block {}", routine.name(), b.index());
                assert_eq!(stored.live_in(b), fresh.live_in(b), "{}", at());
                assert_eq!(stored.live_out(cfg, b), fresh.live_out(b), "{}", at());
                for i in 0..block.insns.len() {
                    let (s, f) = (stored.live_before(cfg, b, i), fresh.live_before(cfg, b, i));
                    assert_eq!(s, f, "{} insn {i}", at());
                }
            }
            for e in 0..cfg.edge_count() {
                let e = eel_core::EdgeId::from_index(e);
                assert_eq!(stored.live_on_edge(cfg, e), fresh.live_on_edge(cfg, e));
            }
        }
        // Solved once per shape: another executable over the same
        // analysis reads the stored results and charges nothing more.
        let solved = analysis.shape_bytes();
        let other = Executable::from_analysis(&analysis);
        for (_, cfg) in &cfgs {
            other.liveness(cfg);
        }
        assert_eq!(analysis.shape_bytes(), solved);
    }
}

#[test]
fn batches_share_one_shape_per_routine() {
    let image = compile_str(program(), &Options::default()).unwrap();
    let analysis = Analysis::compute(Arc::new(image)).unwrap();
    assert!(analysis.shape_bytes() > 0, "the cell table itself");
    let empty = analysis.shape_bytes();
    let first = Executable::from_analysis(&analysis)
        .build_all_cfgs(1)
        .unwrap();
    let filled = analysis.shape_bytes();
    assert!(filled > empty, "the first batch fills the cells");
    let mut second_exec = Executable::from_analysis(&analysis);
    let second = second_exec.build_all_cfgs(1).unwrap();
    assert_eq!(
        analysis.shape_bytes(),
        filled,
        "the second batch builds nothing"
    );
    for ((r1, c1), (r2, c2)) in first.iter().zip(&second) {
        assert_eq!(r1, r2);
        assert!(
            Arc::ptr_eq(c1.shape(), c2.shape()),
            "{} is shared",
            r1.name()
        );
    }
    // The replayed side effects leave the same routine table as a live
    // batch that never saw the cells.
    let mut image_exec = Executable::from_image(analysis.image().as_ref().clone()).unwrap();
    image_exec.read_contents().unwrap();
    let live = image_exec.build_all_cfgs(1).unwrap();
    assert_eq!(second_exec.routines(), image_exec.routines());
    for ((_, shared), (_, own)) in second.iter().zip(&live) {
        assert_eq!(shared.stats(), own.stats());
    }
}

#[test]
fn an_executable_from_an_image_shares_each_routine_shape() {
    let image = compile_str(program(), &Options::default()).unwrap();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let discovered = exec.routines().len();
    let first = exec.build_all_cfgs(1).unwrap();
    // A discovered routine that no later build changed has the snapshot
    // its cell was filled from, so building it again shares the shape.
    let unchanged: Vec<_> = first
        .iter()
        .filter(|(r, cfg)| {
            cfg.routine_id().index() < discovered && exec.routine(cfg.routine_id()) == r
        })
        .collect();
    assert!(!unchanged.is_empty());
    for (routine, cfg) in unchanged {
        let again = exec.build_cfg(cfg.routine_id()).unwrap();
        assert!(
            Arc::ptr_eq(cfg.shape(), again.shape()),
            "{} is built once",
            routine.name()
        );
    }
}

#[test]
fn write_edited_lays_out_pass_through_routines_from_the_shared_shapes() {
    let image = compile_str(program(), &Options::default()).unwrap();
    let analysis = Analysis::compute(Arc::new(image)).unwrap();
    // Edit one routine; write_edited lays every other out pass-through,
    // through the analysis' cells.
    let mut exec = Executable::from_analysis(&analysis);
    let id = exec.routine_ids()[0];
    let mut cfg = exec.build_cfg(id).unwrap();
    let counter = exec.reserve_data(4);
    let entry = cfg.entry_block();
    cfg.add_code_at_block_start(entry, eel_core::Snippet::counter_increment(counter))
        .unwrap();
    exec.install_edits(cfg).unwrap();
    exec.write_edited().unwrap();
    let routines = analysis.routines().len();
    assert_eq!(analysis.shape_builds(), routines, "every cell is filled");
    // A later batch over the analysis builds nothing.
    Executable::from_analysis(&analysis)
        .build_all_cfgs(1)
        .unwrap();
    assert_eq!(analysis.shape_builds(), routines);
}

#[test]
fn block_at_agrees_with_a_scan_of_every_block() {
    for image in suite_images() {
        let (start, end) = (image.text_addr, image.text_end());
        let mut exec = Executable::from_image(image).unwrap();
        exec.read_contents().unwrap();
        for (_, cfg) in exec.build_all_cfgs(1).unwrap() {
            let scan = |addr: u32| {
                cfg.blocks()
                    .filter(|(_, b)| b.kind == eel_core::BlockKind::Normal)
                    .find_map(|(id, b)| {
                        let pos = b.insns.iter().position(|ia| ia.addr == Some(addr))?;
                        Some((id, pos))
                    })
            };
            // Every word of the text, plus misaligned probes.
            for addr in (start..end).step_by(2) {
                assert_eq!(cfg.block_at(addr), scan(addr), "{addr:#x}");
            }
        }
    }
}
