//! MIPS-I execution through the spawn-derived machine.
//!
//! Unlike the SPARC path, which steps the handwritten `eel_isa`
//! semantics, this interpreter has **no handwritten decode or execute
//! code at all**: every instruction is decoded, classified, and executed
//! by the [`eel_spawn::Machine`] derived from
//! `crates/spawn/descriptions/mips.spawn`. The emulator supplies only
//! what a description cannot know: the load format, the system-call
//! convention, and dynamic counting.
//!
//! System calls use the MIPS o32-style convention: number in `$v0`
//! (`$2`), arguments in `$a0`–`$a2` (`$4`–`$6`), result in `$v0`. The
//! numbers are the same [`crate::sys`] set the SPARC runtime uses.

use crate::{sys, Outcome, PagedMem, RunError, STACK_TOP};
use eel_exe::Image;
use eel_isa::Memory;
use eel_spawn::{Class, SpawnEvent, SpawnState};
use std::collections::HashMap;

/// The process-wide spawn-derived MIPS machine (shared with eel-core).
pub fn spawn_machine() -> &'static eel_spawn::Machine {
    eel_spawn::shared_mips_machine(|| eel_obs::counter!("spawn.machine.built").add(1))
}

/// The MIPS emulator: spawn state + paged memory + counters.
pub struct MipsMachine {
    state: SpawnState,
    mem: PagedMem,
    /// pc → index into `spawn_machine().instructions()`, text only.
    decode_cache: HashMap<u32, usize>,
    brk: u32,
    step_limit: u64,
    outcome: Outcome,
    text_range: (u32, u32),
    /// Optional per-address execution counts (block-leader verification).
    pc_watch: Option<HashMap<u32, u64>>,
}

impl MipsMachine {
    /// Loads a MIPS-tagged image: segments copied in, `$sp` below
    /// [`STACK_TOP`], PC at the entry point.
    ///
    /// # Errors
    ///
    /// [`RunError::BadImage`] when validation fails or the image is not
    /// tagged [`eel_exe::Machine::Mips`].
    pub fn load(image: &Image) -> Result<MipsMachine, RunError> {
        if image.machine != eel_exe::Machine::Mips {
            return Err(RunError::BadImage(format!(
                "{} image on the mips emulator",
                image.machine
            )));
        }
        image
            .validate()
            .map_err(|e| RunError::BadImage(e.to_string()))?;
        let mut mem = PagedMem::default();
        mem.write_bytes(image.text_addr, &image.text);
        mem.write_bytes(image.data_addr, &image.data);
        let mut state = SpawnState::new(image.entry);
        state.r[29] = STACK_TOP - 64; // $sp
        Ok(MipsMachine {
            state,
            mem,
            decode_cache: HashMap::new(),
            brk: image.data_end().next_multiple_of(8),
            step_limit: crate::DEFAULT_STEP_LIMIT,
            outcome: Outcome::default(),
            text_range: (image.text_addr, image.text_end()),
            pc_watch: None,
        })
    }

    /// Replaces the default step budget.
    pub fn with_step_limit(mut self, limit: u64) -> MipsMachine {
        self.step_limit = limit;
        self
    }

    /// Counts executions of each given address (block-leader profiling
    /// ground truth for instrumentation tests).
    pub fn with_pc_watch(mut self, pcs: &[u32]) -> MipsMachine {
        self.pc_watch = Some(pcs.iter().map(|&pc| (pc, 0)).collect());
        self
    }

    /// The current spawn state (registers, pc/npc, HI/LO).
    pub fn state(&self) -> &SpawnState {
        &self.state
    }

    /// Reads a word of emulated memory (counter inspection).
    pub fn read_word(&mut self, addr: u32) -> u32 {
        self.mem.load(addr, 4).unwrap_or(0)
    }

    /// Takes the per-address execution counts collected by
    /// [`MipsMachine::with_pc_watch`].
    pub fn take_pc_counts(&mut self) -> HashMap<u32, u64> {
        self.pc_watch.take().unwrap_or_default()
    }

    /// Runs until `exit`, returning the dynamic counts.
    ///
    /// # Errors
    ///
    /// Any [`RunError`]; the state is left at the fault for inspection.
    pub fn run(&mut self) -> Result<Outcome, RunError> {
        let machine = spawn_machine();
        let specs = machine.instructions();
        loop {
            if self.outcome.cycles >= self.step_limit {
                return Err(RunError::StepLimit);
            }
            let pc = self.state.pc;
            if !pc.is_multiple_of(4) {
                return Err(RunError::BadFetch { pc });
            }
            let word = self.mem.load(pc, 4).ok_or(RunError::BadFetch { pc })?;
            let index = match self.decode_cache.get(&pc) {
                Some(&i) => i,
                None => {
                    let i = machine
                        .decode(word)
                        .ok_or(RunError::Illegal { pc, word })?
                        .index;
                    if pc >= self.text_range.0 && pc < self.text_range.1 {
                        self.decode_cache.insert(pc, i);
                    }
                    i
                }
            };
            let spec = &specs[index];
            // MIPS-I has no annul: every slot executes and costs a cycle.
            self.outcome.cycles += 1;
            self.outcome.executed += 1;
            if let Some(watch) = self.pc_watch.as_mut() {
                if let Some(n) = watch.get_mut(&pc) {
                    *n += 1;
                }
            }
            match spec.class {
                Class::Load => self.outcome.loads += 1,
                Class::Store => self.outcome.stores += 1,
                Class::DirectJump | Class::IndirectJump | Class::Branch => {
                    self.outcome.transfers += 1
                }
                _ => {}
            }
            let d = eel_spawn::Decoded { spec, index, word };
            match machine
                .execute(&d, &mut self.state, &mut self.mem)
                .map_err(|e| RunError::BadImage(format!("description bug: {e}")))?
            {
                SpawnEvent::Ok => {}
                SpawnEvent::Trap(n) => {
                    if n != 0 {
                        return Err(RunError::BadTrap { pc, number: n });
                    }
                    if self.syscall(pc)? {
                        let outcome = std::mem::take(&mut self.outcome);
                        crate::flush_obs_counters(&outcome);
                        return Ok(outcome);
                    }
                }
                SpawnEvent::Illegal => return Err(RunError::Illegal { pc, word }),
                SpawnEvent::MemFault(addr) => return Err(RunError::MemFault { pc, addr }),
                SpawnEvent::DivZero => return Err(RunError::DivZero { pc }),
                SpawnEvent::BadJump(target) => return Err(RunError::BadJump { pc, target }),
            }
        }
    }

    /// Services a `syscall` instruction. Returns `true` on `exit`.
    fn syscall(&mut self, pc: u32) -> Result<bool, RunError> {
        let number = self.state.r[2]; // $v0
        let arg = |i: usize| self.state.r[4 + i]; // $a0..$a2
        match number {
            sys::EXIT => {
                self.outcome.exit_code = arg(0);
                return Ok(true);
            }
            sys::WRITE => {
                let (buf, len) = (arg(1), arg(2));
                for i in 0..len.min(1 << 20) {
                    let b = self.mem.read_byte(buf.wrapping_add(i));
                    self.outcome.output.push(b);
                }
                self.state.r[2] = len;
            }
            sys::SBRK => {
                let old = self.brk;
                self.brk = self.brk.wrapping_add(arg(0));
                self.state.r[2] = old;
            }
            sys::TICKS => {
                self.state.r[2] = self.outcome.cycles as u32;
            }
            other => return Err(RunError::BadSyscall { pc, number: other }),
        }
        Ok(false)
    }
}

impl std::fmt::Debug for MipsMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MipsMachine")
            .field("pc", &format_args!("{:#010x}", self.state.pc))
            .field("cycles", &self.outcome.cycles)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_image;

    fn mips_image(words: &[u32]) -> Image {
        let mut image =
            Image::new(eel_exe::TEXT_BASE, eel_exe::DATA_BASE).with_machine(eel_exe::Machine::Mips);
        image.text = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        image
    }

    #[test]
    fn exit_code_via_syscall_convention() {
        // li $a0, 42; li $v0, EXIT; syscall; nop
        let out = run_image(&mips_image(&[
            0x2404_002a, // addiu $a0, $zero, 42
            0x2402_0001, // addiu $v0, $zero, 1
            0x0000_000c, // syscall
            0x0000_0000, // nop
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.executed, 3);
        assert_eq!(out.cycles, 3, "mips has no annulled slots");
    }

    #[test]
    fn branch_delay_slot_executes() {
        let out = run_image(&mips_image(&[
            0x1000_0002, // beq $0, $0, +2  (to 0x1000c)
            0x2404_0007, // addiu $a0, $zero, 7   -- delay slot, executes
            0x2404_0009, // addiu $a0, $zero, 9   -- skipped
            0x2402_0001, // addiu $v0, $zero, 1
            0x0000_000c, // syscall
            0x0000_0000,
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 7);
        assert_eq!(out.transfers, 1);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let out = run_image(&mips_image(&[
            0x0c00_4005, // jal 0x10014
            0x0000_0000, // nop (delay)
            0x2402_0001, // addiu $v0, $zero, 1   -- return lands here
            0x0000_000c, // syscall
            0x0000_0000, // nop
            0x2404_0005, // 0x10014: addiu $a0, $zero, 5
            0x03e0_0008, // jr $ra
            0x0000_0000, // nop (delay)
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 5);
        assert_eq!(out.transfers, 2);
    }

    #[test]
    fn hi_lo_through_mult_and_mflo() {
        let out = run_image(&mips_image(&[
            0x2404_0006, // addiu $a0, $zero, 6
            0x2405_0007, // addiu $a1, $zero, 7
            0x0085_0018, // mult $a0, $a1
            0x0000_2012, // mflo $a0
            0x2402_0001, // addiu $v0, $zero, 1
            0x0000_000c, // syscall
            0x0000_0000,
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 42);
    }

    #[test]
    fn loads_stores_counted_and_memory_works() {
        let out = run_image(&mips_image(&[
            0x2404_007b, // addiu $a0, $zero, 123
            0x3c08_0040, // lui $t0, 0x40     ($t0 = 0x400000 = data base)
            0xad04_0004, // sw $a0, 4($t0)
            0x2404_0000, // addiu $a0, $zero, 0
            0x8d04_0004, // lw $a0, 4($t0)
            0x2402_0001, // addiu $v0, $zero, 1
            0x0000_000c, // syscall
            0x0000_0000,
        ]))
        .unwrap();
        assert_eq!(out.exit_code, 123);
        assert_eq!(out.loads, 1);
        assert_eq!(out.stores, 1);
    }

    #[test]
    fn pc_watch_counts_executions() {
        let image = mips_image(&[
            0x2404_0003, // addiu $a0, $zero, 3      0x10000
            0x2484_ffff, // loop: addiu $a0, $a0, -1 0x10004
            0x1c80_fffe, // bgtz $a0, loop (-2)      0x10008
            0x0000_0000, // nop (delay)              0x1000c
            0x2402_0001, // addiu $v0, $zero, 1      0x10010
            0x0000_000c, // syscall
            0x0000_0000,
        ]);
        let mut m = MipsMachine::load(&image)
            .unwrap()
            .with_pc_watch(&[0x10004, 0x10010]);
        let out = m.run().unwrap();
        assert_eq!(out.exit_code, 0);
        let counts = m.take_pc_counts();
        assert_eq!(counts[&0x10004], 3);
        assert_eq!(counts[&0x10010], 1);
    }

    #[test]
    fn wrong_machine_rejected_cleanly() {
        let image = mips_image(&[0]).with_machine(eel_exe::Machine::Sparc);
        assert!(matches!(
            MipsMachine::load(&image),
            Err(RunError::BadImage(_))
        ));
        let mips = mips_image(&[0]);
        assert!(matches!(
            crate::Machine::load(&mips),
            Err(RunError::BadImage(_))
        ));
        let alpha = mips_image(&[0]).with_machine(eel_exe::Machine::Alpha);
        assert!(matches!(
            crate::AnyMachine::load(&alpha),
            Err(RunError::BadImage(_))
        ));
    }

    #[test]
    fn illegal_word_faults() {
        // op=1 (REGIMM) is outside the described MIPS-I subset.
        let err = run_image(&mips_image(&[0x0400_0000])).unwrap_err();
        assert!(matches!(err, RunError::Illegal { pc: 0x10000, .. }));
    }

    #[test]
    fn div_by_zero_faults() {
        let err = run_image(&mips_image(&[
            0x2404_0005, // addiu $a0, $zero, 5
            0x0080_001a, // div $a0, $zero
            0x0000_0000,
        ]))
        .unwrap_err();
        assert!(matches!(err, RunError::DivZero { .. }));
    }

    #[test]
    fn determinism() {
        let image = mips_image(&[
            0x2404_000a, // addiu $a0, $zero, 10
            0x2405_0000, // addiu $a1, $zero, 0
            0x00a4_2821, // loop: addu $a1, $a1, $a0
            0x2484_ffff, // addiu $a0, $a0, -1
            0x1c80_fffd, // bgtz $a0, loop (-3)
            0x0000_0000, // nop
            0x00a0_2021, // addu $a0, $a1, $zero
            0x2402_0001, // addiu $v0, $zero, 1
            0x0000_000c, // syscall
            0x0000_0000,
        ]);
        let a = run_image(&image).unwrap();
        let b = run_image(&image).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.exit_code, 55, "sum 1..=10");
    }
}
