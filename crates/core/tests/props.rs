//! Property-based tests over eel-core: CFG structural invariants,
//! dominator correctness against a naive definition, and an edit-fuzzing
//! battery (random instrumentation placements must preserve behavior).

use eel_cc::{compile_ast, Options, Personality};
use eel_core::{BlockKind, Dominators, EdgeKind, Executable, Liveness, Snippet};
use eel_emu::run_image;
use eel_progen::{random_program, GenConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_all(image: eel_exe::Image) -> (Executable, Vec<eel_core::Cfg>) {
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let mut cfgs = Vec::new();
    for id in exec.all_routine_ids() {
        cfgs.push(exec.build_cfg(id).unwrap());
    }
    (exec, cfgs)
}

/// Naive dominator check: `a` dominates `b` iff `b` is unreachable from
/// the entry once `a` is removed.
fn naive_dominates(cfg: &eel_core::Cfg, a: eel_core::BlockId, b: eel_core::BlockId) -> bool {
    if a == b {
        return true;
    }
    let mut seen = vec![false; cfg.block_count()];
    let mut stack = vec![cfg.entry_block()];
    seen[cfg.entry_block().index()] = true;
    if cfg.entry_block() == a {
        return true; // entry dominates everything reachable
    }
    while let Some(x) = stack.pop() {
        for e in cfg.block(x).succ() {
            let to = cfg.edge(e).to;
            if to == a || seen[to.index()] {
                continue;
            }
            seen[to.index()] = true;
            stack.push(to);
        }
    }
    !seen[b.index()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// CFG structural invariants over random compiled programs.
    #[test]
    fn cfg_structural_invariants(seed in 0u64..500) {
        let program = random_program(seed, &GenConfig::default());
        let Ok(image) = compile_ast(&program, &Options::default()) else {
            return Ok(());
        };
        let (_, cfgs) = build_all(image);
        for cfg in &cfgs {
            for (bid, block) in cfg.blocks() {
                // Edge lists are mutually consistent.
                for e in block.succ() {
                    prop_assert_eq!(cfg.edge(e).from, bid);
                    prop_assert!(cfg.block(cfg.edge(e).to).pred().contains(&e));
                }
                for e in block.pred() {
                    prop_assert_eq!(cfg.edge(e).to, bid);
                    prop_assert!(cfg.block(cfg.edge(e).from).succ().contains(&e));
                }
                match block.kind {
                    BlockKind::DelaySlot => {
                        prop_assert_eq!(block.insns.len(), 1);
                        prop_assert_eq!(block.pred().len(), 1);
                    }
                    BlockKind::CallSurrogate | BlockKind::Entry | BlockKind::Exit => {
                        prop_assert!(block.insns.is_empty());
                    }
                    BlockKind::Normal => {
                        prop_assert!(!block.insns.is_empty());
                        // Only the last instruction may be a control
                        // transfer.
                        for ia in block.insns.iter().take(block.insns.len() - 1) {
                            prop_assert!(!ia.insn.is_control_transfer(), "{}", ia.insn);
                        }
                        // All addresses inside the routine extent, in order.
                        let addrs: Vec<u32> =
                            block.insns.iter().filter_map(|ia| ia.addr).collect();
                        for w in addrs.windows(2) {
                            prop_assert_eq!(w[1], w[0] + 4);
                        }
                    }
                }
            }
            // The exit block has no successors; the entry no predecessors.
            prop_assert!(cfg.block(cfg.exit_block()).succ().is_empty());
            prop_assert!(cfg.block(cfg.entry_block()).pred().is_empty());
            // Escape/runtime edges are uneditable.
            for i in 0..cfg.edge_count() {
                let e = cfg.edge(eel_core::EdgeId::from_index(i));
                if matches!(e.kind, EdgeKind::Escape { .. } | EdgeKind::RuntimeIndirect) {
                    prop_assert!(!e.editable);
                }
            }
        }
    }

    /// The iterative dominator algorithm agrees with the naive
    /// reachability definition.
    #[test]
    fn dominators_match_naive_definition(seed in 0u64..200) {
        let program = random_program(seed, &GenConfig {
            functions: 2, stmts_per_fn: 5, ..GenConfig::default()
        });
        let Ok(image) = compile_ast(&program, &Options::default()) else {
            return Ok(());
        };
        let (_, cfgs) = build_all(image);
        for cfg in cfgs.iter().take(3) {
            let dom = Dominators::compute(cfg);
            let n = cfg.block_count();
            // Sample pairs rather than all O(n^2) for big graphs.
            let step = (n / 12).max(1);
            for ai in (0..n).step_by(step) {
                for bi in (0..n).step_by(step) {
                    let a = eel_core::BlockId::from_index(ai);
                    let b = eel_core::BlockId::from_index(bi);
                    if !dom.is_reachable(b) || !dom.is_reachable(a) {
                        continue;
                    }
                    prop_assert_eq!(
                        dom.dominates(a, b),
                        naive_dominates(cfg, a, b),
                        "dominates({:?}, {:?})", a, b
                    );
                }
            }
        }
    }

    /// Liveness sanity: a register read by the first instruction of a
    /// block with no prior definition is live-in.
    #[test]
    fn liveness_includes_immediate_uses(seed in 0u64..200) {
        let program = random_program(seed, &GenConfig::default());
        let Ok(image) = compile_ast(&program, &Options::default()) else {
            return Ok(());
        };
        let (_, cfgs) = build_all(image);
        for cfg in &cfgs {
            let live = Liveness::compute(cfg);
            for (bid, block) in cfg.blocks() {
                if let Some(first) = block.insns.first() {
                    for r in first.insn.reads().iter() {
                        prop_assert!(
                            live.live_in(bid).contains(r),
                            "{r} read by {} but not live-in",
                            first.insn
                        );
                    }
                }
            }
        }
    }
}

/// Edit fuzzing: sprinkle counter snippets over random editable points of
/// random programs; the edited program must behave identically, under
/// both compiler personalities.
#[test]
fn random_edit_battery_preserves_behavior() {
    for seed in 0..8u64 {
        let program = random_program(seed, &GenConfig::default());
        for personality in [Personality::Gcc, Personality::SunPro] {
            let options = Options {
                personality,
                ..Options::default()
            };
            let Ok(image) = compile_ast(&program, &options) else {
                continue;
            };
            let Ok(before) = run_image(&image) else {
                continue;
            };
            if before.cycles > 3_000_000 {
                continue; // keep the battery fast; heavy seeds add nothing
            }
            let mut exec = Executable::from_image(image).unwrap();
            exec.read_contents().unwrap();
            let counters = exec.reserve_data(4 * 4096);
            let mut n = 0u32;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            for id in exec.all_routine_ids() {
                let mut cfg = exec.build_cfg(id).unwrap();
                // Random block-start edits.
                let blocks: Vec<_> = cfg
                    .blocks()
                    .filter(|(_, b)| {
                        b.kind == BlockKind::Normal && b.editable && !b.insns.is_empty()
                    })
                    .map(|(bid, _)| bid)
                    .collect();
                for bid in blocks {
                    if rng.gen_bool(0.4) {
                        cfg.add_code_at_block_start(
                            bid,
                            Snippet::counter_increment(counters + 4 * n),
                        )
                        .unwrap();
                        n += 1;
                    }
                }
                // Random edge edits.
                let edges: Vec<_> = (0..cfg.edge_count())
                    .map(eel_core::EdgeId::from_index)
                    .filter(|&e| cfg.edge(e).editable)
                    .collect();
                for e in edges {
                    if rng.gen_bool(0.25) {
                        cfg.add_code_along(e, Snippet::counter_increment(counters + 4 * n))
                            .unwrap();
                        n += 1;
                    }
                }
                // Random before/after edits on non-transfer instructions.
                let sites: Vec<u32> = cfg
                    .blocks()
                    .filter(|(_, b)| b.kind == BlockKind::Normal && b.editable)
                    .flat_map(|(_, b)| {
                        b.insns
                            .iter()
                            .filter(|ia| !ia.insn.is_control_transfer())
                            .filter_map(|ia| ia.addr)
                            .collect::<Vec<_>>()
                    })
                    .collect();
                for addr in sites {
                    if rng.gen_bool(0.1) {
                        let s = Snippet::counter_increment(counters + 4 * n);
                        n += 1;
                        if rng.gen_bool(0.5) {
                            cfg.add_code_before(addr, s).unwrap();
                        } else {
                            cfg.add_code_after(addr, s).unwrap();
                        }
                    }
                }
                exec.install_edits(cfg).unwrap();
            }
            let edited = exec.write_edited().unwrap();
            let after = eel_emu::Machine::load(&edited)
                .unwrap()
                .with_step_limit(2_000_000_000)
                .run()
                .unwrap_or_else(|e| {
                    panic!("seed {seed} ({personality:?}): edited program failed: {e}")
                });
            assert_eq!(
                before.exit_code, after.exit_code,
                "seed {seed} {personality:?}"
            );
            assert_eq!(before.output, after.output, "seed {seed} {personality:?}");
            assert!(
                n == 0 || after.cycles >= before.cycles,
                "instrumentation costs cycles"
            );
        }
    }
}
