//! Cross-machine integration: the MIPS path through the machine seam.
//!
//! The tentpole acceptance test lives here: a progen-generated MIPS WEF
//! round-trips load → disasm → CFG → liveness → block-counter
//! instrumentation → emulation, with the instrumented run's counters
//! matching the uninstrumented run's block execution counts — all
//! through the spawn-derived backend.

use eel_core::{
    instrument_block_counters, machine_ops, routine_key, Analysis, BlockKind, Executable, Flow,
};
use eel_exe::Machine;
use eel_isa::Category;
use std::sync::Arc;

fn mips_workload() -> eel_exe::Image {
    let w = eel_progen::Workload {
        name: "machines-rt",
        source: "
            global acc;
            fn weigh(x, y) {
                var t = 0;
                while (x > 0) {
                    t = t + y % 7 - (x & 3);
                    x = x - 1;
                    if (t > 100) { t = t - 90; }
                }
                return t;
            }
            fn main() {
                var i;
                acc = 0;
                for (i = 1; i < 40; i = i + 1) {
                    acc = acc + weigh(i, i * 3);
                    print(acc);
                }
                return acc & 127;
            }
        "
        .into(),
    };
    eel_progen::compile_machine(&w, eel_cc::Personality::Gcc, Machine::Mips).unwrap()
}

/// Load → discovery → disasm → CFG → liveness → instrument → run: block
/// counters agree exactly with the uninstrumented execution.
#[test]
fn mips_round_trip_with_block_counters() {
    let image = mips_workload();
    assert_eq!(image.machine, Machine::Mips);

    // Discovery through the seam: routine set from the symbol table.
    let analysis = Analysis::compute(Arc::new(image.clone())).unwrap();
    assert_eq!(analysis.machine(), Machine::Mips);
    let names: Vec<String> = analysis.routines().iter().map(|r| r.name()).collect();
    assert!(names.iter().any(|n| n == "main"), "{names:?}");
    assert!(names.iter().any(|n| n == "weigh"), "{names:?}");

    // Disassembly comes from the description-derived decoder.
    let main = analysis
        .routines()
        .iter()
        .find(|r| r.name() == "main")
        .unwrap();
    let ops = machine_ops(Machine::Mips);
    let mut text = String::new();
    for addr in (main.start()..main.end()).step_by(4) {
        ops.disasm(image.word_at(addr).unwrap(), addr, &mut text);
        text.push('\n');
    }
    for mnemonic in ["addiu", "sw", "lw", "jal"] {
        assert!(text.contains(mnemonic), "missing {mnemonic} in:\n{text}");
    }

    // CFG through the shared builder: the while/if/for structure yields
    // real branching, and `jal`s get call surrogates.
    let mut exec = Executable::from_analysis(&analysis);
    let id = exec.routine_containing(main.start()).unwrap();
    let cfg = exec.build_cfg(id).unwrap();
    let stats = cfg.stats();
    assert!(stats.normal_blocks >= 4, "{stats:?}");
    assert!(stats.call_surrogate_blocks >= 1, "{stats:?}");
    assert!(cfg
        .blocks()
        .any(|(_, b)| b.kind == BlockKind::Normal && b.succ().len() == 2));

    // Liveness over description-derived reads/writes: the sp-relative
    // stack machine keeps $29 live everywhere.
    let live = exec.liveness(&cfg);
    let entry_live: Vec<String> = live
        .live_in(cfg.entry_block())
        .iter()
        .map(|r| ops.reg_name(r))
        .collect();
    assert!(entry_live.iter().any(|r| r == "$29"), "{entry_live:?}");

    // Uninstrumented run, watching every block leader of every routine.
    let leaders: Vec<u32> = {
        let mut v = Vec::new();
        for (_, c) in exec.build_all_cfgs(1).unwrap() {
            let normal = c.blocks().filter(|(_, b)| b.kind == BlockKind::Normal);
            v.extend(normal.map(|(_, b)| b.addr));
        }
        v
    };
    let mut base = eel_emu::MipsMachine::load(&image)
        .unwrap()
        .with_pc_watch(&leaders);
    let before = base.run().unwrap();
    let base_counts = base.take_pc_counts();

    // Instrumented run: same observable behavior.
    let (edited, counters) = instrument_block_counters(&image).unwrap();
    assert_eq!(edited.machine, Machine::Mips);
    let mut insned = eel_emu::MipsMachine::load(&edited).unwrap();
    let after = insned.run().unwrap();
    assert_eq!(after.exit_code, before.exit_code);
    assert_eq!(after.output, before.output);

    // Counters match the uninstrumented block execution counts. The
    // rewriter's blocks cover whole-text leaders, a superset of the
    // per-routine CFG leaders; compare on the intersection and make
    // sure something nontrivial was counted.
    let mut compared = 0;
    let mut nonzero = 0;
    for c in &counters {
        if let Some(&n) = base_counts.get(&c.orig_start) {
            let counted = u64::from(insned.read_word(c.counter_addr));
            assert_eq!(
                counted, n,
                "block {:#x}: counter {counted} != executed {n}",
                c.orig_start
            );
            compared += 1;
            if n > 0 {
                nonzero += 1;
            }
        }
    }
    assert!(compared >= 8, "only {compared} blocks compared");
    assert!(nonzero >= 4, "only {nonzero} blocks executed");
}

/// The block counters follow bss instead of overlaying it: the rewriter
/// turns bss into zeroed data before appending them, so no counter
/// shares a word with a bss variable.
#[test]
fn block_counters_land_past_bss() {
    let mut image = mips_workload();
    image.bss_size = 64;
    let (edited, counters) = instrument_block_counters(&image).unwrap();
    assert!(!counters.is_empty());
    for c in &counters {
        assert!(
            c.counter_addr >= image.data_end(),
            "counter for {:#x} at {:#x} is inside the original data or bss (end {:#x})",
            c.orig_start,
            c.counter_addr,
            image.data_end()
        );
    }
    edited.validate().unwrap();
    assert_eq!(edited.bss_size, 0);
}

/// Identical bytes under different machine tags are different programs:
/// routine keys (the fragment-cache identity) must differ for every
/// routine of a real image when only the tag changes.
#[test]
fn machine_tag_separates_routine_keys() {
    let mips = mips_workload();
    let mut sparc_twin = mips.clone();
    sparc_twin.machine = Machine::Sparc;
    assert_eq!(mips.text, sparc_twin.text);

    let analysis = Analysis::compute(Arc::new(mips.clone())).unwrap();
    for r in analysis.routines() {
        assert_ne!(
            routine_key(&mips, r),
            routine_key(&sparc_twin, r),
            "{} shares a key across machine tags",
            r.name()
        );
    }
}

/// A stripped MIPS image still yields a routine set, via `jal` targets
/// and the `addiu $sp`/`sw $ra` prologue signature through the seam.
#[test]
fn stripped_mips_discovery() {
    let mut image = mips_workload();
    image
        .symbols
        .retain(|s| s.kind != eel_exe::SymbolKind::Routine);
    let starts: Vec<u32> = {
        let a = Analysis::compute(Arc::new(image.clone())).unwrap();
        assert_eq!(a.discovery(), eel_core::DiscoverySource::Inferred);
        a.routines().iter().map(|r| r.start()).collect()
    };
    // The named image knows where main and weigh start; inference must
    // find those starts too (they are jal targets with prologues).
    let named = Analysis::compute(Arc::new(mips_workload())).unwrap();
    for r in named.routines() {
        if ["main", "weigh"].contains(&r.name().as_str()) {
            assert!(
                starts.contains(&r.start()),
                "inference missed {} at {:#x}",
                r.name(),
                r.start()
            );
        }
    }
}

/// A MIPS image builds CFGs through the shared builder, but the SPARC
/// layout pipeline rejects it with a directive toward the block-counter
/// rewriter, instead of mis-decoding it.
#[test]
fn sparc_pipeline_guards_against_mips() {
    let image = mips_workload();
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let id = exec.all_routine_ids()[0];
    let cfg = exec.build_cfg(id).expect("mips builds through the seam");
    let err = exec.install_edits(cfg).unwrap_err().to_string();
    assert!(err.contains("sparc-only"), "{err}");
    let err = exec.write_edited().unwrap_err().to_string();
    assert!(err.contains("sparc-only"), "{err}");
}

/// The dispatch seam agrees with the raw eel-isa classification on a
/// real SPARC image (the seed pipeline is unchanged).
#[test]
fn sparc_seam_matches_isa_on_real_image() {
    let w = &eel_progen::suite()[0];
    let image = eel_progen::compile(w, eel_cc::Personality::Gcc).unwrap();
    let ops = machine_ops(Machine::Sparc);
    for (addr, word) in image.text_words() {
        let insn = eel_isa::decode(word);
        let flow = ops.flow(word, addr);
        match insn.category() {
            Category::Call => assert_eq!(
                flow,
                Flow::Call {
                    target: insn.direct_target(addr)
                }
            ),
            Category::IndirectCall => assert_eq!(flow, Flow::Call { target: None }),
            Category::Return => assert_eq!(flow, Flow::Return),
            Category::IndirectJump => assert_eq!(flow, Flow::IndirectJump),
            Category::Branch => assert!(matches!(flow, Flow::Branch { .. })),
            Category::Invalid => assert_eq!(flow, Flow::Invalid),
            _ => assert_eq!(flow, Flow::Straight),
        }
        assert_eq!(flow.is_delayed(), insn.is_delayed());
    }
}

/// `routine_key` is sensitive to the machine byte even for a fabricated
/// routine over identical bytes (unit-level version of the serve-side
/// cache separation).
#[test]
fn routine_key_folds_machine_byte() {
    use eel_exe::{DATA_BASE, TEXT_BASE};
    let mut a = eel_exe::Image::new(TEXT_BASE, DATA_BASE);
    for w in [0x0085_1021u32, 0x03e0_0008, 0] {
        a.text.extend_from_slice(&w.to_be_bytes());
    }
    a.symbols.push(eel_exe::Symbol::routine("f", TEXT_BASE));
    let b = a.clone().with_machine(Machine::Mips);
    let an_a = Analysis::compute(Arc::new(a)).unwrap();
    let an_b = Analysis::compute(Arc::new(b)).unwrap();
    let ra = &an_a.routines()[0];
    let rb = &an_b.routines()[0];
    assert_eq!((ra.start(), ra.end()), (rb.start(), rb.end()));
    assert_ne!(routine_key(an_a.image(), ra), routine_key(an_b.image(), rb));
}

/// An image tagged for a machine with no registered backend is rejected
/// by discovery instead of reaching the machine seam.
#[test]
fn images_for_machines_without_a_backend_are_errors() {
    use eel_exe::{DATA_BASE, TEXT_BASE};
    let mut image = eel_exe::Image::new(TEXT_BASE, DATA_BASE);
    image.text.extend_from_slice(&0x0100_0000u32.to_be_bytes());
    let image = image.with_machine(Machine::Alpha);
    let err = Analysis::compute(Arc::new(image.clone())).unwrap_err();
    assert!(err.to_string().contains("no alpha backend"), "{err}");
    let mut exec = Executable::from_image(image).unwrap();
    assert!(exec.read_contents().is_err());
}

/// The shared builder rejects a MIPS transfer in a delay slot exactly as
/// it rejects a SPARC one.
#[test]
fn mips_transfer_in_a_delay_slot_is_rejected() {
    use eel_exe::{Symbol, DATA_BASE, TEXT_BASE};
    let mut image = eel_exe::Image::new(TEXT_BASE, DATA_BASE).with_machine(Machine::Mips);
    // beq $0, $0, +2; beq $0, $0, +1 (in the slot); nop; jr $31; nop
    for w in [0x1000_0002u32, 0x1000_0001, 0, 0x03e0_0008, 0] {
        image.text.extend_from_slice(&w.to_be_bytes());
    }
    image.symbols.push(Symbol::routine("f", TEXT_BASE));
    let mut exec = Executable::from_image(image).unwrap();
    exec.read_contents().unwrap();
    let id = exec.all_routine_ids()[0];
    match exec.build_cfg(id) {
        Err(eel_core::EelError::DelaySlotTransfer { addr }) => assert_eq!(addr, TEXT_BASE + 4),
        other => panic!("expected a delay-slot transfer error, got {other:?}"),
    }
}
