//! Regenerates every table and figure measurement from the paper's
//! evaluation as markdown (the source of EXPERIMENTS.md):
//!
//! ```text
//! cargo run --release -p eel-bench --bin report
//! ```

use eel_bench::*;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    // Record every pipeline span/counter the experiments produce; the
    // closing section prints the aggregated phase timings.
    eel_obs::set_mode(eel_obs::Mode::Summary);

    println!("# EEL reproduction — experiment report (scale {scale})\n");

    // ---- T1 ----------------------------------------------------------
    println!("## Table 1 — qpt vs qpt2 (instrumenting the spim-like interpreter)\n");
    println!("Paper: qpt2 is the far smaller *tool* (6,276 vs 14,500 lines counting its");
    println!("EEL-independent code), but instruments 2.4–4.3× slower than ad-hoc qpt.\n");
    println!("| tool | tool lines | instrument (ms) | input bytes | output bytes | run slowdown |");
    println!("|---|---|---|---|---|---|");
    for r in exp_table1() {
        println!(
            "| {} | {} | {:.2} | {} | {} | {:.2}x |",
            r.tool, r.tool_lines, r.instrument_ms, r.input_bytes, r.output_bytes, r.run_slowdown
        );
    }

    // ---- E-IJ ----------------------------------------------------------
    println!("\n## §3.3 — indirect-jump analyzability\n");
    println!("Paper: SunOS/gcc: 0 unanalyzable of 1,325 indirect jumps (1,027,148 insts,");
    println!("11,975 routines). Solaris/SunPro: 138 of 1,244, all from frame-popping tail");
    println!("calls.\n");
    println!(
        "| config | instructions | routines | indirect jumps | tables | literals | unanalyzable |"
    );
    println!("|---|---|---|---|---|---|---|");
    for s in exp_indirect_jumps()
        .into_iter()
        .chain(exp_indirect_jumps_corpus(40 * scale as u64))
    {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            s.personality,
            s.instructions,
            s.routines,
            s.indirect_jumps,
            s.tables,
            s.literals,
            s.unanalyzable
        );
    }

    // ---- E-BB / E-UE -----------------------------------------------------
    println!("\n## §5 footnote — CFG census; §3.3 — uneditable fraction\n");
    println!("Paper: 26,912 EEL blocks vs 15,441 old-style (12,774 delay-slot, 920");
    println!("entry/exit, 1,942 call-surrogate blocks); 15–20% of edges/blocks uneditable.\n");
    let c = exp_cfg_census();
    println!("| metric | value |");
    println!("|---|---|");
    println!("| EEL blocks (all kinds) | {} |", c.stats.total_blocks());
    println!("| old-style blocks | {} |", c.old_style_blocks);
    println!("| delay-slot blocks | {} |", c.stats.delay_slot_blocks);
    println!("| entry/exit blocks | {} |", c.stats.entry_exit_blocks);
    println!(
        "| call-surrogate blocks | {} |",
        c.stats.call_surrogate_blocks
    );
    println!("| edges | {} |", c.stats.edges);
    println!(
        "| uneditable edge fraction | {:.1}% |",
        100.0 * c.stats.uneditable_edge_fraction()
    );
    println!(
        "| uneditable block fraction | {:.1}% |",
        100.0 * c.stats.uneditable_blocks as f64 / c.stats.total_blocks() as f64
    );

    // ---- E-OBJ ----------------------------------------------------------
    println!("\n## §5 — instruction-object sharing\n");
    println!("Paper: sharing reduces allocated instruction objects ~4×.\n");
    let (sites, distinct) = exp_allocations();
    println!("| metric | value |");
    println!("|---|---|");
    println!("| instruction sites | {sites} |");
    println!("| distinct words | {distinct} |");
    let factor = sites as f64 / distinct as f64;
    println!("| sharing factor | {factor:.2}x |");

    // ---- E-LOC ----------------------------------------------------------
    println!("\n## §4 — machine-description conciseness\n");
    println!("Paper: SPARC 145 lines, MIPS 128, Alpha 138; handwritten 2,268; generated");
    println!("6,178.\n");
    let l = exp_spawn_loc();
    println!("| artifact | lines |");
    println!("|---|---|");
    println!("| sparc.spawn | {} |", l.sparc_desc);
    println!("| mips.spawn | {} |", l.mips_desc);
    println!("| alpha.spawn | {} |", l.alpha_desc);
    println!(
        "| handwritten machine layer (eel-isa) | {} |",
        l.handwritten
    );
    println!("| spawn-generated Rust (sparc) | {} |", l.generated);
    println!("| spawn-generated Rust (mips) | {} |", l.mips_generated);

    // ---- E-OVH ----------------------------------------------------------
    println!("\n## §1/§5 — instrumentation overheads (dynamic-cycle ratios)\n");
    println!("Paper: Active Memory achieves cache simulation at a 2–7× slowdown.\n");
    println!("| workload | tool | slowdown |");
    println!("|---|---|---|");
    for r in exp_overheads(scale) {
        println!("| {} | {} | {:.2}x |", r.workload, r.tool, r.slowdown);
    }

    // ---- ablations ---------------------------------------------------------
    println!("\n## Ablations (design choices from DESIGN.md)\n");
    println!("| design choice | with | without | metric |");
    println!("|---|---|---|---|");
    for r in exp_ablations() {
        println!(
            "| {} | {:.2} | {:.2} | {} |",
            r.name, r.with_feature, r.without_feature, r.metric
        );
    }

    // ---- pipeline phases -------------------------------------------------
    println!("\n## Pipeline phase timings (eel-obs, cumulative over this report)\n");
    println!("```text");
    print!("{}", eel_obs::render_summary());
    println!("```");
}
