//! Elsie — a direct-execution architectural simulator front end (paper
//! §5: "Elsie replaces loads, stores, and system calls in a program with
//! simulator calls (using EEL) and then loads the edited executable into
//! the simulator").
//!
//! This reproduction demonstrates the *replacement* editing mode (delete
//! plus insert, not just insert): system calls are deleted and replaced
//! by a call into an added run-time routine that accounts for the event
//! and performs the system call itself; loads and stores get accounting
//! calls alongside them. The run-time routine is "another program" added
//! to the executable, as §5 says Active Memory does.

use crate::ToolError;
use eel_core::{Executable, Snippet};
use eel_emu::Machine;
use eel_exe::Image;
use eel_isa::Op;

/// The simulator-instrumented program.
#[derive(Debug)]
pub struct Simulated {
    /// The edited executable.
    pub image: Image,
    /// Address of the (loads, stores, syscalls) counter triple.
    pub counters_addr: u32,
}

/// Event counts after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Program exit code.
    pub exit_code: u32,
    /// Loads observed by the simulator hooks.
    pub loads: u32,
    /// Stores observed.
    pub stores: u32,
    /// System calls observed.
    pub syscalls: u32,
}

/// Instruments a program Elsie-style.
///
/// # Errors
///
/// Propagates analysis/editing failures.
pub fn instrument(image: Image) -> Result<Simulated, ToolError> {
    let mut exec = Executable::from_image(image)?;
    exec.read_contents()?;
    let counters_addr = exec.reserve_data(12);
    let loads_c = counters_addr;
    let stores_c = counters_addr + 4;
    let sys_c = counters_addr + 8;

    // The simulator routine for system calls: count, then perform the
    // trap on the program's behalf, then return. All program registers
    // are preserved except what the kernel itself clobbers.
    exec.add_runtime_routine(
        "__elsie_syscall",
        &format!(
            r#"
        __elsie_syscall:
            st %g6, [%sp - 120]
            st %g7, [%sp - 128]
            sethi %hi({sys_c}), %g6
            ld [%lo({sys_c}) + %g6], %g7
            add %g7, 1, %g7
            st %g7, [%lo({sys_c}) + %g6]
            ld [%sp - 120], %g6
            ld [%sp - 128], %g7
            ta 0
            retl
            nop
        "#
        ),
    );

    for id in exec.all_routine_ids() {
        let mut cfg = exec.build_cfg(id)?;
        // Memory accounting (simulator "calls" inlined as counters).
        let mems = cfg.memory_sites();
        for m in mems {
            let Some(addr) = m.addr else { continue };
            let counter = match m.insn.op {
                Op::Load { .. } => loads_c,
                Op::Store { .. } => stores_c,
                _ => continue,
            };
            cfg.add_code_before(addr, Snippet::counter_increment(counter))?;
        }
        // Memory references hiding in delay slots.
        let (edge_jobs, call_jobs) = crate::delay_slot_memory_jobs(&cfg, |_| true);
        for (e, insn) in edge_jobs {
            let counter = if matches!(insn.op, Op::Load { .. }) {
                loads_c
            } else {
                stores_c
            };
            cfg.add_code_along(e, Snippet::counter_increment(counter))?;
        }
        for (a, insn) in call_jobs {
            let counter = if matches!(insn.op, Op::Load { .. }) {
                loads_c
            } else {
                stores_c
            };
            cfg.add_code_before(a, Snippet::counter_increment(counter))?;
        }
        // System calls: replace `ta 0` with a call to the simulator
        // routine (which re-issues the trap itself).
        let traps: Vec<u32> = cfg
            .blocks()
            .flat_map(|(_, b)| b.insns)
            .filter(|ia| matches!(ia.insn.op, Op::Trap { .. }))
            .filter_map(|ia| ia.addr)
            .collect();
        for addr in traps {
            cfg.delete_insn(addr)?;
            // The call clobbers %o7, which may be live: preserve it
            // around the call. (The callee returns past its own delay.)
            let snippet = Snippet::from_asm(
                r#"
                st %o7, [%sp - 112]
                call .
                nop
                ld [%sp - 112], %o7
            "#,
            )?
            .with_call(1, "__elsie_syscall");
            cfg.add_code_before(addr, snippet)?;
        }
        exec.install_edits(cfg)?;
    }
    let image = exec.write_edited()?;
    Ok(Simulated {
        image,
        counters_addr,
    })
}

impl Simulated {
    /// Runs the program and reads the simulator's event counts.
    ///
    /// # Errors
    ///
    /// Propagates emulator failures.
    pub fn run(&self) -> Result<SimCounts, ToolError> {
        let mut machine = Machine::load(&self.image)?;
        let outcome = machine.run()?;
        Ok(SimCounts {
            exit_code: outcome.exit_code,
            loads: machine.read_word(self.counters_addr),
            stores: machine.read_word(self.counters_addr + 4),
            syscalls: machine.read_word(self.counters_addr + 8),
        })
    }
}
