//! Differential test for the MIPS description: the analysis surface
//! spawn derives from `mips.spawn` (decode, class, reads/writes, static
//! targets, memory widths) against the *same description's* execute
//! semantics, observed instruction by instruction.
//!
//! The two sides are independently derived artifacts — the analysis
//! reads the per-instruction tables `Machine::build` derives from one
//! symbolic walk of the semantic AST (register uses and defs, `npc`
//! forms, widths), the evaluator interprets the AST — so disagreement means
//! a bug in one derivation or the other, exactly the property the SPARC
//! suite checks against the handwritten `eel_isa` twin. MIPS has no
//! handwritten twin (that is the point of the port), so the oracle here
//! is observation:
//!
//! * registers that change under `execute` must be in the declared
//!   write set, and loads/stores must match the declared class;
//! * perturbing any register *outside* the declared read set must not
//!   change any observable effect (written registers, stores, next PC);
//! * the observed next PC must obey the declared class and
//!   `static_target` (sequential for computation, taken-or-fallthrough
//!   for branches, a read register for indirect jumps, the link
//!   register getting `pc + 8` when the instruction links).
//!
//! One witness encoding per instruction pattern keeps the table honest:
//! adding a `pat` line to `mips.spawn` fails the coverage assertion
//! until a witness (and therefore a differential run) exists for it.
//! A second test feeds every distinct text word of a progen-generated
//! MIPS image through the same harness, then runs the image end to end
//! under the emulator.

use eel_emu::mips::spawn_machine;
use eel_emu::MipsMachine;
use eel_isa::{Memory, RegSet};
use eel_spawn::{Class, Decoded, Machine, SpawnEvent, SpawnState};
use std::collections::{BTreeSet, HashMap};

const PC: u32 = 0x0001_0000;

/// Memory with every address mapped (zero-filled), recording traffic so
/// the harness can compare effects across runs and check class claims.
#[derive(Default, Clone)]
struct TotalMem {
    bytes: HashMap<u32, u8>,
    loads: u32,
    stores: Vec<(u32, u32, u32)>,
}

impl Memory for TotalMem {
    fn load(&mut self, addr: u32, bytes: u32) -> Option<u32> {
        self.loads += 1;
        let mut v = 0u32;
        for k in 0..bytes {
            v = (v << 8) | u32::from(*self.bytes.get(&addr.wrapping_add(k)).unwrap_or(&0));
        }
        Some(v)
    }

    fn store(&mut self, addr: u32, bytes: u32, value: u32) -> Option<()> {
        self.stores.push((addr, bytes, value));
        for k in 0..bytes {
            let b = (value >> (8 * (bytes - 1 - k))) as u8;
            self.bytes.insert(addr.wrapping_add(k), b);
        }
        Some(())
    }
}

/// Everything observable about one execution of one instruction.
struct Obs {
    event: SpawnEvent,
    post: SpawnState,
    loads: u32,
    stores: Vec<(u32, u32, u32)>,
}

fn observe(m: &Machine, d: &Decoded<'_>, pre: &SpawnState) -> Obs {
    let mut state = pre.clone();
    let mut mem = TotalMem::default();
    let event = m.execute(d, &mut state, &mut mem).expect("well-formed sem");
    Obs {
        event,
        post: state,
        loads: mem.loads,
        stores: mem.stores,
    }
}

/// Register seed A: distinct, positive, word-aligned values (aligned so
/// indirect-jump targets never fault as misaligned).
fn seed_a() -> SpawnState {
    let mut st = SpawnState::new(PC);
    for j in 1..32 {
        st.r[j] = 0x0100_0000 + (j as u32) * 64;
    }
    st.hi = 0x0200_0000;
    st.lo = 0x0200_0040;
    st
}

/// Register seed B: the comparison operands equal and negative, so
/// branches take the arm seed A falls through (and vice versa).
fn seed_b() -> SpawnState {
    let mut st = seed_a();
    st.r[4] = 0x8000_0040;
    st.r[5] = 0x8000_0040;
    st
}

/// A register set as spawn's `(set name, index)` pairs.
fn cells(m: &Machine, regs: RegSet) -> Vec<(String, u32)> {
    regs.iter()
        .map(|r| {
            let (set, i) = m.register(r).expect("a declared register");
            (set.to_string(), i)
        })
        .collect()
}

fn reg_cell(set: &str, i: u32) -> String {
    match set {
        "R" => format!("R[{i}]"),
        other => other.to_string(),
    }
}

/// Cells of `post` that differ from `pre` (R1..R31, HI, LO).
fn changed_cells(pre: &SpawnState, post: &SpawnState) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for j in 1..32 {
        if pre.r[j] != post.r[j] {
            out.insert(format!("R[{j}]"));
        }
    }
    if pre.hi != post.hi {
        out.insert("HI".into());
    }
    if pre.lo != post.lo {
        out.insert("LO".into());
    }
    out
}

/// Runs the full differential battery for one word under one seed and
/// returns the observed next PC (for branch both-arms accounting).
fn check_word(m: &Machine, word: u32, pre: &SpawnState) -> u32 {
    let d = m.decode(word).unwrap_or_else(|| {
        panic!("word {word:#010x} does not decode");
    });
    let name = &d.spec.name;
    let base = observe(m, &d, pre);

    // Events: the only trap gateway is `syscall` (class System); the
    // seeds are aligned and divisors nonzero, so nothing else fires.
    match base.event {
        SpawnEvent::Ok => assert_ne!(d.spec.class, Class::System, "{name}: System must trap"),
        SpawnEvent::Trap(_) => {
            assert_eq!(d.spec.class, Class::System, "{name}: trap from non-System")
        }
        other => panic!("{name}: unexpected event {other:?} for word {word:#010x}"),
    }

    // PC discipline: execute commits pc <- npc and computes the new npc
    // (the delay-slot model), for traps included.
    assert_eq!(base.post.pc, pre.npc, "{name}: pc must advance to npc");
    let seq = pre.npc.wrapping_add(4);
    let next = base.post.npc;

    // Class vs observed control flow vs static_target.
    let target = m.static_target(&d, pre.pc);
    let reads = cells(m, m.reads(&d));
    match d.spec.class {
        Class::Computation | Class::Load | Class::Store | Class::System => {
            assert_eq!(next, seq, "{name}: non-transfer must fall through");
            assert_eq!(target, None, "{name}: non-transfer has no static target");
        }
        Class::DirectJump => {
            let t = target.unwrap_or_else(|| panic!("{name}: direct jump needs a static target"));
            assert_eq!(next, t, "{name}: direct jump must reach its static target");
        }
        Class::IndirectJump => {
            assert_eq!(target, None, "{name}: indirect jump has no static target");
            assert!(
                reads
                    .iter()
                    .any(|(set, i)| set == "R" && pre.r[*i as usize] == next),
                "{name}: indirect target {next:#x} must come from a declared read register"
            );
        }
        Class::Branch => {
            let t = target.unwrap_or_else(|| panic!("{name}: branch needs a static target"));
            assert!(
                next == seq || next == t,
                "{name}: branch must fall through ({seq:#x}) or take ({t:#x}), got {next:#x}"
            );
        }
        Class::Invalid => panic!("{name}: Invalid class reached execute"),
    }

    // Link discipline: a linking transfer writes pc + 8 (the return
    // point past the delay slot) into exactly one register.
    if d.spec.links {
        let links: Vec<u32> = cells(m, m.writes(&d))
            .iter()
            .filter(|(set, i)| set == "R" && base.post.r[*i as usize] == pre.pc.wrapping_add(8))
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(
            links.len(),
            1,
            "{name}: links must write pc+8 to one register"
        );
    }

    // Write soundness: every changed cell is declared.
    let declared: BTreeSet<String> = cells(m, m.writes(&d))
        .iter()
        .map(|(set, i)| reg_cell(set, *i))
        .collect();
    for cell in changed_cells(pre, &base.post) {
        assert!(
            declared.contains(&cell),
            "{name}: {cell} changed but is not in the declared write set {declared:?}"
        );
    }

    // Memory discipline: loads only from Load-class, stores only from
    // Store-class, and widths match the declared mem_width.
    let width = m.mem_width(&d);
    match d.spec.class {
        Class::Load => {
            assert!(base.loads > 0, "{name}: Load must load");
            assert!(base.stores.is_empty(), "{name}: Load must not store");
            assert!(matches!(width, Some(1 | 2 | 4)), "{name}: width {width:?}");
        }
        Class::Store => {
            assert_eq!(base.loads, 0, "{name}: Store must not load");
            let w = width.unwrap_or_else(|| panic!("{name}: Store needs a width"));
            assert!(
                base.stores.iter().all(|(_, bytes, _)| *bytes == w),
                "{name}: store width disagrees with mem_width {w}"
            );
            assert!(!base.stores.is_empty(), "{name}: Store must store");
        }
        _ => {
            assert_eq!(base.loads, 0, "{name}: unexpected load");
            assert!(base.stores.is_empty(), "{name}: unexpected store");
        }
    }

    // Read soundness: perturbing any cell outside the declared read set
    // must leave every observable effect identical. (A perturbed cell
    // that is also written ends up recomputed; comparing post values
    // covers that case too.)
    let read_set: BTreeSet<String> = reads.iter().map(|(set, i)| reg_cell(set, *i)).collect();
    let mut perturbed = Vec::new();
    for j in 1..32 {
        if !read_set.contains(&format!("R[{j}]")) {
            perturbed.push(format!("R[{j}]"));
        }
    }
    for special in ["HI", "LO"] {
        if !read_set.contains(special) {
            perturbed.push(special.to_string());
        }
    }
    for cell in perturbed {
        let mut pre2 = pre.clone();
        // Aligned flip, so a perturbed cell feeding nothing but an
        // (undeclared) jump target would still stay word-aligned.
        match cell.as_str() {
            "HI" => pre2.hi ^= 0x5a5a_a5a4,
            "LO" => pre2.lo ^= 0x5a5a_a5a4,
            _ => {
                let j: usize = cell[2..cell.len() - 1].parse().unwrap();
                pre2.r[j] ^= 0x5a5a_a5a4;
            }
        }
        let alt = observe(m, &d, &pre2);
        assert_eq!(
            alt.event, base.event,
            "{name}: event depends on unread {cell}"
        );
        assert_eq!(
            alt.post.npc, next,
            "{name}: next pc depends on unread {cell}"
        );
        assert_eq!(
            alt.stores, base.stores,
            "{name}: stores depend on unread {cell}"
        );
        for (set, i) in cells(m, m.writes(&d)) {
            let (got, want) = match set.as_str() {
                "R" => (alt.post.r[i as usize], base.post.r[i as usize]),
                "HI" => (alt.post.hi, base.post.hi),
                "LO" => (alt.post.lo, base.post.lo),
                other => panic!("{name}: unexpected write set {other}"),
            };
            // The perturbed cell itself keeps its flip when the write
            // to it never fires (conditional arms); skip that one cell.
            if reg_cell(&set, i) == cell {
                continue;
            }
            assert_eq!(
                got, want,
                "{name}: written {set}[{i}] depends on unread {cell}"
            );
        }
    }
    next
}

/// One concrete encoding per pattern. rs=$4, rt=$5, rd=$8 throughout so
/// the seeds exercise real operand traffic.
fn witnesses() -> Vec<(&'static str, u32)> {
    let r = |funct: u32, rs: u32, rt: u32, rd: u32, sh: u32| {
        (rs << 21) | (rt << 16) | (rd << 11) | (sh << 6) | funct
    };
    let i =
        |op: u32, rs: u32, rt: u32, imm: u32| (op << 26) | (rs << 21) | (rt << 16) | (imm & 0xffff);
    vec![
        ("sll", r(0, 0, 5, 8, 3)),
        ("srl", r(2, 0, 5, 8, 3)),
        ("sra", r(3, 0, 5, 8, 3)),
        ("sllv", r(4, 4, 5, 8, 0)),
        ("srlv", r(6, 4, 5, 8, 0)),
        ("srav", r(7, 4, 5, 8, 0)),
        ("jr", r(8, 4, 0, 0, 0)),
        ("jalr", r(9, 4, 0, 31, 0)),
        ("syscall", r(12, 0, 0, 0, 0)),
        ("mfhi", r(16, 0, 0, 8, 0)),
        ("mflo", r(18, 0, 0, 8, 0)),
        ("mult", r(24, 4, 5, 0, 0)),
        ("multu", r(25, 4, 5, 0, 0)),
        ("div", r(26, 4, 5, 0, 0)),
        ("divu", r(27, 4, 5, 0, 0)),
        ("add", r(32, 4, 5, 8, 0)),
        ("addu", r(33, 4, 5, 8, 0)),
        ("sub", r(34, 4, 5, 8, 0)),
        ("subu", r(35, 4, 5, 8, 0)),
        ("and", r(36, 4, 5, 8, 0)),
        ("or", r(37, 4, 5, 8, 0)),
        ("xor", r(38, 4, 5, 8, 0)),
        ("nor", r(39, 4, 5, 8, 0)),
        ("slt", r(42, 4, 5, 8, 0)),
        ("sltu", r(43, 4, 5, 8, 0)),
        ("j", (2 << 26) | 0x40),
        ("jal", (3 << 26) | 0x40),
        ("beq", i(4, 4, 5, 5)),
        ("bne", i(5, 4, 5, 5)),
        ("blez", i(6, 4, 0, 5)),
        ("bgtz", i(7, 4, 0, 5)),
        ("addi", i(8, 4, 5, 7)),
        ("addiu", i(9, 4, 5, 0xfff8)),
        ("slti", i(10, 4, 5, 7)),
        ("sltiu", i(11, 4, 5, 7)),
        ("andi", i(12, 4, 5, 0x0f0f)),
        ("ori", i(13, 4, 5, 0x0f0f)),
        ("xori", i(14, 4, 5, 0x0f0f)),
        ("lui", i(15, 0, 5, 0x1234)),
        ("lb", i(32, 4, 5, 8)),
        ("lh", i(33, 4, 5, 8)),
        ("lw", i(35, 4, 5, 8)),
        ("lbu", i(36, 4, 5, 8)),
        ("lhu", i(37, 4, 5, 8)),
        ("sb", i(40, 4, 5, 8)),
        ("sh", i(41, 4, 5, 8)),
        ("sw", i(43, 4, 5, 8)),
    ]
}

#[test]
fn every_pattern_in_the_description_has_a_differential_witness() {
    let m = spawn_machine();
    let table = witnesses();
    let covered: BTreeSet<&str> = table.iter().map(|(n, _)| *n).collect();
    for spec in m.instructions() {
        assert!(
            covered.contains(spec.name.as_str()),
            "no differential witness for pattern {:?} — extend witnesses()",
            spec.name
        );
    }
    for (name, word) in &table {
        let d = m
            .decode(*word)
            .unwrap_or_else(|| panic!("witness {word:#010x} for {name} does not decode"));
        assert_eq!(
            &d.spec.name, name,
            "witness {word:#010x} decodes to the wrong pattern"
        );
        // Both seeds, and branches must show both arms between them.
        let next_a = check_word(m, *word, &seed_a());
        let next_b = check_word(m, *word, &seed_b());
        if d.spec.class == Class::Branch {
            let t = m.static_target(&d, PC).unwrap();
            let seq = PC + 8;
            let arms: BTreeSet<u32> = [next_a, next_b].into();
            assert_eq!(
                arms,
                BTreeSet::from([seq, t]),
                "{name}: seeds must exercise both the taken and fall-through arms"
            );
        }
    }
}

#[test]
fn progen_mips_text_agrees_with_execute_semantics() {
    let w = eel_progen::Workload {
        name: "mips-differential",
        source: "
            global acc;
            fn step(x) {
                var t = 0;
                while (x > 0) { t = t + x % 5; x = x - 1; }
                return t;
            }
            fn main() {
                var i;
                acc = 0;
                for (i = 1; i < 12; i = i + 1) { acc = acc + step(i); print(acc); }
                return acc & 63;
            }
        "
        .into(),
    };
    let image = eel_progen::compile_machine(&w, eel_cc::Personality::Gcc, eel_exe::Machine::Mips)
        .expect("compile mips");
    let m = spawn_machine();

    // Every generated text word decodes, and every *distinct* word
    // passes the full differential battery under both seeds.
    let mut words = BTreeSet::new();
    let mut names = BTreeSet::new();
    for off in (0..image.text.len()).step_by(4) {
        let addr = image.text_addr + off as u32;
        let word = image.word_at(addr).expect("text word");
        let d = m
            .decode(word)
            .unwrap_or_else(|| panic!("generated word {word:#010x} at {addr:#x} does not decode"));
        names.insert(d.spec.name.clone());
        words.insert(word);
    }
    for word in &words {
        check_word(m, *word, &seed_a());
        check_word(m, *word, &seed_b());
    }
    // The generator should exercise a healthy slice of the description,
    // not just a mov/branch core.
    assert!(
        names.len() >= 12,
        "progen text uses only {} distinct patterns: {names:?}",
        names.len()
    );

    // And the image still runs end to end through the same description.
    let outcome = MipsMachine::load(&image)
        .expect("load")
        .run()
        .expect("run mips image");
    assert!(!outcome.output_str().is_empty(), "program must print");
    assert_eq!(outcome.exit_code, 131 & 63, "main returns acc & 63");
}
