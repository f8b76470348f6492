//! Figure 3: CFG normalization of delay slots. An `add` in the delay
//! slot of an *annulled* conditional branch executes only when the branch
//! is taken, so EEL places it in its own block along the taken edge only;
//! for a non-annulled branch it is duplicated along both edges.
//!
//! ```text
//! cargo run --example cfg_normalize
//! ```

use eel::core::{BlockKind, Executable};

fn show(title: &str, asm: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("== {title} ==");
    for line in asm.lines().filter(|l| !l.trim().is_empty()) {
        println!("    | {}", line.trim());
    }
    let image = eel::asm::assemble(asm)?;
    let mut exec = Executable::from_image(image)?;
    exec.read_contents()?;
    let id = exec.all_routine_ids()[0];
    let cfg = exec.build_cfg(id)?;
    println!("  normalized CFG:");
    for (bid, block) in cfg.blocks() {
        let kind = format!("{:?}", block.kind);
        let insns: Vec<String> = block.insns.iter().map(|ia| ia.insn.to_string()).collect();
        let succs: Vec<String> = block
            .succ()
            .iter()
            .map(|e| format!("→b{}", cfg.edge(e).to.index()))
            .collect();
        println!(
            "    b{:<2} {:<13} [{}]  {}",
            bid.index(),
            kind,
            insns.join("; "),
            succs.join(" ")
        );
    }
    // Count where the delay instruction landed.
    let delay_blocks = cfg
        .blocks()
        .filter(|(_, b)| b.kind == BlockKind::DelaySlot)
        .count();
    println!("  delay-slot blocks: {delay_blocks}\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The figure's case: `bne,a L1` with `add %l1, %l2, %l1` in the slot.
    // Annulled ⇒ the add appears along the TAKEN edge only (1 copy).
    show(
        "annulled branch (Figure 3)",
        r#"
        main:
            cmp %l0, 0
            bne,a L1
            add %l1, %l2, %l1
            mov 9, %o0
        L1:
            mov 1, %g1
            ta 0
            nop
        "#,
    )?;

    // Non-annulled ⇒ the add executes on BOTH paths: two copies, one per
    // edge.
    show(
        "non-annulled branch (duplicated along both edges)",
        r#"
        main:
            cmp %l0, 0
            bne L1
            add %l1, %l2, %l1
            mov 9, %o0
        L1:
            mov 1, %g1
            ta 0
            nop
        "#,
    )?;

    // `ba,a` never executes its slot: no delay block at all.
    show(
        "ba,a (slot never executes)",
        r#"
        main:
            ba,a L1
            add %l1, %l2, %l1
        L1:
            mov 1, %g1
            ta 0
            nop
        "#,
    )?;
    Ok(())
}
