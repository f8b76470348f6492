//! The paper's Figures 1 and 2: the branch-counting tool, written with
//! the same structure as the published EEL code — iterate the routines,
//! drain `hidden_routines()`, add a counter snippet along every out-edge
//! of multi-way blocks, patch each snippet's `sethi`/`%lo` fields with
//! the counter address (the `SET_SETHI_HI`/`SET_SETHI_LOW` macros), and
//! write the edited executable.
//!
//! ```text
//! cargo run --example branch_count
//! ```

use eel::core::{BlockKind, Cfg, Executable, RoutineId, Snippet};
use eel::emu::Machine;

/// Figure 2's `incr_count`: the Figure 5 snippet body with the counter
/// address patched into instructions 1 (sethi), 2 (ld), and 4 (st).
fn incr_count(counter_addr: u32) -> Snippet {
    let mut snippet = Snippet::from_asm(
        r#"
        sethi 0x1, %g6            ! upper bits of &counter
        ld [%lo(0x1) + %g6], %g7  ! load counter
        add %g7, 1, %g7           ! increment
        st %g7, [%lo(0x1) + %g6]  ! store counter
    "#,
    )
    .expect("snippet assembles")
    .with_scavenged(&[eel::isa::Reg(6), eel::isa::Reg(7)]);
    snippet.set_sethi_hi(0, counter_addr);
    snippet.set_sethi_low(1, counter_addr);
    snippet.set_sethi_low(3, counter_addr);
    snippet
}

/// Figure 1's `instrument(routine*)`.
fn instrument(
    exec: &mut Executable,
    id: RoutineId,
    counters_base: u32,
    num: &mut u32,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg: Cfg = exec.build_cfg(id)?;
    let mut edits = Vec::new();
    for (_, b) in cfg.blocks() {
        if b.kind == BlockKind::Normal && b.succ().len() > 1 {
            for e in b.succ() {
                if cfg.edge(e).editable {
                    edits.push(e);
                }
            }
        }
    }
    for e in edits {
        cfg.add_code_along(e, incr_count(counters_base + 4 * *num))?;
        *num += 1;
    }
    exec.install_edits(cfg)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = eel::progen::spim_like(300);
    let image = eel::progen::compile(&workload, eel::cc::Personality::Gcc)?;
    let baseline = eel::emu::run_image(&image)?;

    // Figure 1's main(): routines, then the hidden-routine drain loop.
    let mut exec = Executable::from_image(image)?;
    exec.read_contents()?;
    let counters_base = exec.reserve_data(4 * 4096);
    let mut num = 0u32;
    for id in exec.routine_ids() {
        instrument(&mut exec, id, counters_base, &mut num)?;
    }
    while let Some(id) = exec.pop_hidden() {
        instrument(&mut exec, id, counters_base, &mut num)?;
    }
    let edited = exec.write_edited()?;

    let mut machine = Machine::load(&edited)?;
    let outcome = machine.run()?;
    assert_eq!(outcome.exit_code, baseline.exit_code, "behavior preserved");

    let counts: Vec<u32> = (0..num)
        .map(|i| machine.read_word(counters_base + 4 * i))
        .collect();
    let taken: u64 = counts.iter().map(|&c| c as u64).sum();
    let hot = counts.iter().max().copied().unwrap_or(0);
    println!("instrumented {num} branch edges");
    println!("dynamic multi-way transfers counted: {taken}");
    println!("hottest edge executed {hot} times");
    println!(
        "profiling overhead: {:.2}x",
        outcome.cycles as f64 / baseline.cycles as f64
    );
    Ok(())
}
