//! Differential tests: the spawn-derived SPARC machine layer must agree
//! with the handwritten `eel-isa` layer — decode validity, classification
//! (through the Figure 6 shim), per-instance reads/writes, and execution
//! semantics. This is the reproduction's evidence for the paper's claim
//! that a 145-line description replaces 2,268 handwritten lines, and that
//! "the spawn-generated code ran at the same speed" — functionally, here,
//! *behaved identically*.

use eel_isa::{decode as hw_decode, Category, MachineState, Memory, Reg, RegSet, StepEvent};
use eel_spawn::{sparc_machine, sparc_shim, Machine, SpawnEvent, SpawnState};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(|| sparc_machine().unwrap())
}

fn spawn_category(m: &Machine, word: u32) -> Category {
    match m.decode(word) {
        None => Category::Invalid,
        Some(d) => sparc_shim::category(m, &d),
    }
}

/// Maps spawn's (set, index) register naming to eel-isa resources.
fn to_reg(set: &str, i: u32) -> Option<Reg> {
    match set {
        "R" => Some(Reg(i as u8)),
        "ICC" => Some(Reg::ICC),
        "Y" => Some(Reg::Y),
        _ => None,
    }
}

fn regset(set: RegSet) -> BTreeSet<Reg> {
    set.iter()
        .filter_map(|r| machine().register(r))
        .filter_map(|(s, i)| to_reg(s, i))
        .collect()
}

#[derive(Default, Clone, PartialEq, Debug)]
struct TestMem(HashMap<u32, u8>);

impl Memory for TestMem {
    fn load(&mut self, addr: u32, bytes: u32) -> Option<u32> {
        let mut v = 0u32;
        for i in 0..bytes {
            v = (v << 8) | *self.0.get(&addr.wrapping_add(i)).unwrap_or(&0) as u32;
        }
        Some(v)
    }
    fn store(&mut self, addr: u32, bytes: u32, value: u32) -> Option<()> {
        for i in 0..bytes {
            self.0
                .insert(addr.wrapping_add(i), (value >> (8 * (bytes - 1 - i))) as u8);
        }
        Some(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4096,
        max_global_rejects: 262144,
        ..ProptestConfig::default()
    })]

    /// Validity: a word decodes in spawn iff it decodes in the handwritten
    /// layer (total agreement on what is an instruction vs data).
    #[test]
    fn decode_validity_agrees(word in any::<u32>()) {
        let machine = sparc_machine().unwrap();
        // `unimp` is a defined encoding with no executable semantics, so
        // validity is judged at the category level in both layers.
        let hw_valid = !matches!(hw_decode(word).category(), Category::Invalid);
        let sp = machine.decode(word);
        let sp_valid = sp
            .map(|d| d.spec.class != eel_spawn::Class::Invalid)
            .unwrap_or(false);
        prop_assert_eq!(hw_valid, sp_valid, "word {:#010x}", word);
    }

    /// Classification: identical EEL categories through the Figure 6 shim.
    #[test]
    fn classification_agrees(word in any::<u32>()) {
        let machine = machine();
        let hw = hw_decode(word).category();
        let sp = spawn_category(machine, word);
        prop_assert_eq!(hw, sp, "word {:#010x} ({})", word, hw_decode(word));
    }

    /// Dataflow: identical reads/writes sets for every non-system valid
    /// instruction (system calls involve kernel conventions the paper
    /// handles in the annotated shim, not in descriptions).
    #[test]
    fn reads_writes_agree(word in any::<u32>()) {
        let machine = machine();
        let hw = hw_decode(word);
        let cat = hw.category();
        prop_assume!(!matches!(cat, Category::Invalid | Category::SystemCall));
        prop_assume!(!hw.reads_fp());
        let Some(d) = machine.decode(word) else {
            return Err(TestCaseError::fail("spawn failed to decode a valid word"));
        };
        // Decode-only overrides (fp) have no semantics: skip.
        if matches!(d.spec.name.as_str(), "ldf" | "stf") || d.spec.name.starts_with("fb") {
            return Ok(());
        }
        let hw_reads: BTreeSet<Reg> = hw.reads().iter().collect();
        let hw_writes: BTreeSet<Reg> = hw.writes().iter().collect();
        let sp_reads = regset(machine.reads(&d));
        let sp_writes = regset(machine.writes(&d));
        prop_assert_eq!(&hw_reads, &sp_reads, "reads of {} ({:#010x})", hw, word);
        prop_assert_eq!(&hw_writes, &sp_writes, "writes of {} ({:#010x})", hw, word);
    }

    /// Memory width: identical `{{WIDTH}}` attribute (Figure 6's
    /// annotation) wherever the handwritten layer reports one.
    #[test]
    fn mem_width_agrees(word in any::<u32>()) {
        let machine = machine();
        let hw = hw_decode(word);
        prop_assume!(hw.mem_width().is_some());
        // Doubleword transfers are described as two word accesses.
        let hw_w = hw.mem_width().unwrap().min(4);
        let Some(d) = machine.decode(word) else {
            return Err(TestCaseError::fail("spawn failed to decode"));
        };
        if matches!(d.spec.name.as_str(), "ldf" | "stf") {
            return Ok(());
        }
        prop_assert_eq!(Some(hw_w), machine.mem_width(&d));
    }

    /// Execution: running an instruction through the spawn evaluator
    /// produces the same state and memory as the handwritten semantics.
    #[test]
    fn execution_agrees(
        word in any::<u32>(),
        regs in prop::array::uniform32(any::<u32>()),
        icc in 0u8..16,
        y in any::<u32>(),
    ) {
        let machine = machine();
        let hw = hw_decode(word);
        prop_assume!(!matches!(hw.category(), Category::Invalid));
        prop_assume!(!hw.reads_fp());
        let Some(d) = machine.decode(word) else {
            return Err(TestCaseError::fail("spawn failed to decode"));
        };
        if matches!(d.spec.name.as_str(), "ldf" | "stf") || d.spec.name.starts_with("fb") {
            return Ok(());
        }

        let pc = 0x0001_0000u32;
        let mut hw_state = MachineState::new(pc);
        hw_state.regs = regs;
        hw_state.regs[0] = 0;
        // Keep addresses aligned enough that ldd/std (modeled as two word
        // accesses) agree on faults with the hardware's 8-byte rule.
        for r in hw_state.regs.iter_mut() {
            *r &= !7;
        }
        hw_state.icc = icc;
        hw_state.y = y;
        let mut sp_state = SpawnState::new(pc);
        sp_state.r = hw_state.regs;
        sp_state.icc = icc;
        sp_state.y = y;

        let mut hw_mem = TestMem::default();
        let mut sp_mem = hw_mem.clone();
        let hw_ev = eel_isa::step(&mut hw_state, &mut hw_mem, hw);
        let sp_ev = machine.execute(&d, &mut sp_state, &mut sp_mem).unwrap();

        // Documented modeling difference: the description expresses
        // doubleword transfers as two word accesses, so it misses the
        // hardware's 8-byte alignment rule.
        if matches!(d.spec.name.as_str(), "ldd" | "std")
            && matches!(hw_ev, StepEvent::MemFault(_))
        {
            return Ok(());
        }
        let same_event = match (hw_ev, sp_ev) {
            (StepEvent::Ok, SpawnEvent::Ok) => true,
            (StepEvent::Trap(a), SpawnEvent::Trap(b)) => a == b,
            (StepEvent::Illegal, SpawnEvent::Illegal) => true,
            (StepEvent::MemFault(a), SpawnEvent::MemFault(b)) => a == b,
            (StepEvent::DivZero, SpawnEvent::DivZero) => true,
            (StepEvent::BadJump(a), SpawnEvent::BadJump(b)) => a == b,
            _ => false,
        };
        prop_assert!(
            same_event,
            "event mismatch for {} ({:#010x}): hw {:?} vs spawn {:?}",
            hw, word, hw_ev, sp_ev
        );
        // Full state comparison only for completed instructions (faulting
        // paths differ benignly in how much partial state they leave).
        if matches!(hw_ev, StepEvent::Ok | StepEvent::Trap(_)) {
            prop_assert_eq!(hw_state.regs, sp_state.r, "registers after {} ({:#010x})", hw, word);
            prop_assert_eq!(hw_state.icc, sp_state.icc, "icc after {}", hw);
            prop_assert_eq!(hw_state.y, sp_state.y, "y after {}", hw);
            prop_assert_eq!(hw_state.pc, sp_state.pc, "pc after {}", hw);
            prop_assert_eq!(hw_state.npc, sp_state.npc, "npc after {} ({:#010x})", hw, word);
            prop_assert_eq!(hw_state.annul, sp_state.annul, "annul after {}", hw);
            prop_assert_eq!(&hw_mem, &sp_mem, "memory after {}", hw);
        }
    }
}

#[test]
fn decoder_is_unambiguous_on_a_large_sample() {
    // No word may match two different spawn patterns (the derived decoder
    // must be a function). Exhaustive is too slow; a structured sweep over
    // op/op2/op3 values with random other bits covers every opcode cell.
    let machine = machine();
    let mut rng: u32 = 0x12345678;
    for op in 0..4u32 {
        for sub in 0..64u32 {
            for _ in 0..64 {
                rng = rng.wrapping_mul(1664525).wrapping_add(1013904223);
                let word = (op << 30) | (sub << 19) | (rng & 0x7ffff) | (rng & 0x3fc00000) >> 1;
                let matches: Vec<&str> = machine
                    .instructions()
                    .iter()
                    .filter(|i| {
                        machine
                            .decode(word)
                            .map(|d| std::ptr::eq(d.spec, *i))
                            .unwrap_or(false)
                    })
                    .map(|i| i.name.as_str())
                    .collect();
                assert!(matches.len() <= 1, "{word:#x} matched {matches:?}");
            }
        }
    }
}

#[test]
fn spawn_decodes_whole_compiled_programs() {
    // Every instruction the compiler emits must decode and classify
    // identically in both layers (an end-to-end sweep, not just random
    // words).
    let machine = machine();
    let image = eel_cc::compile_str(
        r#"
        global table[16];
        fn f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); }
        fn main() {
            var i;
            for (i = 0; i < 10; i = i + 1) {
                switch (i % 4) {
                    case 0: { table[i] = f(i); }
                    case 1: { table[i] = i * 3; }
                    case 2: { table[i] = i / 2; }
                    default: { table[i] = 0 - i; }
                }
            }
            print(table[9]);
            return table[5];
        }"#,
        &eel_cc::Options::default(),
    )
    .unwrap();
    let mut checked = 0;
    for (_, word) in image.text_words() {
        let hw = hw_decode(word).category();
        let sp = spawn_category(machine, word);
        assert_eq!(hw, sp, "word {word:#010x}");
        checked += 1;
    }
    assert!(checked > 100);
}
