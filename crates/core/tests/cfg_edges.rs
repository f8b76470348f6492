//! CFG edge shapes at routine boundaries, on hand-assembled SPARC images:
//! dispatch-table entries that leave the extent or are unusable, a
//! delayed transfer as the extent's last word, branches to the extent
//! end, trailing padding that splits off a hidden routine, and an entry
//! point registered in the middle of a routine.
//!
//! Each case renders every routine's CFG (blocks with kinds, edges with
//! kinds and escapes, tables, call sites) and compares against the
//! expected text, so the builder's handling of addresses at and past
//! the extent boundary is pinned exactly.

use eel_core::{Cfg, Executable, JumpResolution};
use std::fmt::Write as _;

fn render(asm: &str, threads: usize) -> String {
    let image = eel_asm::assemble(asm).expect("assemble");
    let mut exec = Executable::from_image(image).expect("load");
    exec.read_contents().expect("discover");
    let mut out = String::new();
    for (routine, cfg) in &exec.build_all_cfgs(threads).expect("build") {
        writeln!(
            out,
            "routine {} {:#x}..{:#x} entries {:x?}{}",
            routine.name(),
            routine.start(),
            routine.end(),
            routine.entries(),
            if routine.is_hidden() { " hidden" } else { "" }
        )
        .unwrap();
        render_cfg(cfg, &mut out);
    }
    // The routine table after every build: stage-3 entries and stage-4
    // splits show up here.
    for id in exec.all_routine_ids() {
        let r = exec.routine(id);
        writeln!(
            out,
            "final {} {:#x}..{:#x} entries {:x?}",
            r.name(),
            r.start(),
            r.end(),
            r.entries()
        )
        .unwrap();
    }
    out
}

fn render_cfg(cfg: &Cfg, out: &mut String) {
    for (id, b) in cfg.blocks() {
        let addrs: Vec<String> = b
            .insns
            .iter()
            .map(|i| format!("{:x}", i.addr.unwrap_or(0)))
            .collect();
        writeln!(
            out,
            "  b{} {:?} {:#x}{} [{}]",
            id.index(),
            b.kind,
            b.addr,
            if b.editable { "" } else { " fixed" },
            addrs.join(" ")
        )
        .unwrap();
        for e in b.succ() {
            let edge = cfg.edge(e);
            let kind = match edge.kind {
                eel_core::EdgeKind::Escape { target } => format!("Escape({target:#x})"),
                k => format!("{k:?}"),
            };
            writeln!(
                out,
                "    -> b{} {kind}{}",
                edge.to.index(),
                if edge.editable { "" } else { " fixed" }
            )
            .unwrap();
        }
    }
    for r in cfg.data_ranges() {
        writeln!(out, "  data {:#x}..{:#x}", r.start, r.end).unwrap();
    }
    for (site, target) in cfg.call_sites() {
        writeln!(out, "  call {site:#x} -> {target:#x}").unwrap();
    }
    for (site, resolution) in cfg.indirect_jumps() {
        let what = match resolution {
            JumpResolution::Table { targets, .. } => format!("table {targets:x?}"),
            JumpResolution::Literal { target, .. } => format!("literal {target:#x}"),
            JumpResolution::Unknown => "unknown".into(),
        };
        writeln!(out, "  jump {site:#x} {what}").unwrap();
    }
    if cfg.is_incomplete() {
        writeln!(out, "  incomplete").unwrap();
    }
}

fn check(asm: &str, expected: &str) {
    let got = render(asm, 1);
    assert_eq!(got.trim(), expected.trim(), "\n--- got ---\n{got}");
    assert_eq!(render(asm, 2), got, "the parallel builder disagrees");
}

#[test]
fn dispatch_table_entries_outside_the_extent_escape() {
    // Slot 1 lands in another routine, slot 2 exactly on the extent end.
    check(
        r#"
        .global main
    main:
        cmp %o0, 3
        bgeu dflt
        nop
        sll %o0, 2, %o0
        set table, %o1
        ld [%o1 + %o0], %o1
        jmp %o1
        nop
    table:
        .word case0, other, after
    case0:
        retl
        mov 1, %o0
    dflt:
        retl
        mov 0, %o0
        .global after
    after:
        retl
        mov 2, %o0
        .global other
    other:
        retl
        mov 3, %o0
    "#,
        EXPECT_TABLE_OUT,
    );
}

#[test]
fn misaligned_dispatch_table_entry_falls_back_to_run_time_translation() {
    check(
        r#"
        .global main
    main:
        cmp %o0, 2
        bgeu dflt
        nop
        sll %o0, 2, %o0
        set table, %o1
        ld [%o1 + %o0], %o1
        jmp %o1
        nop
    table:
        .word case0, case0 + 2
    case0:
        retl
        mov 1, %o0
    dflt:
        retl
        mov 0, %o0
    "#,
        EXPECT_TABLE_MISALIGNED,
    );
}

#[test]
fn delayed_transfer_as_the_last_word_of_an_extent() {
    // `bne` is main's last word: its delay slot belongs to `next`, so
    // the CFG has no delay block and the fall-through escapes.
    check(
        r#"
        .global main
    main:
        cmp %o0, 1
        bne main
        .global next
    next:
        retl
        nop
    "#,
        EXPECT_LAST_WORD_CTI,
    );
}

#[test]
fn branches_to_the_extent_end_escape() {
    // `next` is a branch target inside main's region, so stage 1 drops
    // its label; the call makes it a routine again (stage 3), and main's
    // extent ends exactly where both branches go.
    check(
        r#"
        .global main
    main:
        call next
        nop
        cmp %o0, 1
        be next
        nop
        ba,a next
        nop
        .global next
    next:
        retl
        nop
    "#,
        EXPECT_BRANCH_TO_END,
    );
}

#[test]
fn trailing_invalid_padding_still_splits_a_hidden_routine() {
    check(
        r#"
        .global main
    main:
        retl
        mov 7, %o0
        .word 0, 0
        mov 1, %o0
        retl
        nop
        .global last
    last:
        retl
        nop
    "#,
        EXPECT_TRAILING_SPLIT,
    );
}

#[test]
fn entry_registered_in_the_middle_of_a_routine() {
    // main branches into the middle of `callee`; the target becomes a
    // second entry of callee and starts a block of its own.
    check(
        r#"
        .global main
    main:
        cmp %o0, 0
        be mid
        nop
        retl
        nop
        .global callee
    callee:
        add %o0, 1, %o0
        add %o0, 2, %o0
    mid:
        add %o0, 3, %o0
        retl
        nop
    "#,
        EXPECT_MID_ENTRY,
    );
}

const EXPECT_TABLE_OUT: &str = "
routine main 0x10000..0x10040 entries [10000]
  b0 Entry 0x10000 []
    -> b2 Fall
  b1 Exit 0x10040 fixed []
  b2 Normal 0x10000 [10000 10004]
    -> b6 Taken
    -> b7 Fall
  b3 Normal 0x1000c [1000c 10010 10014 10018 1001c]
    -> b8 Table
    -> b9 Table
    -> b10 Table
  b4 Normal 0x10030 [10030]
    -> b11 ReturnFlow fixed
  b5 Normal 0x10038 [10038]
    -> b12 ReturnFlow fixed
  b6 DelaySlot 0x10008 [10008]
    -> b5 Fall
  b7 DelaySlot 0x10008 [10008]
    -> b3 Fall
  b8 DelaySlot 0x10020 [10020]
    -> b4 Fall
  b9 DelaySlot 0x10020 fixed [10020]
    -> b1 Escape(0x10040) fixed
  b10 DelaySlot 0x10020 fixed [10020]
    -> b1 Escape(0x10048) fixed
  b11 DelaySlot 0x10034 fixed [10034]
    -> b1 ReturnFlow fixed
  b12 DelaySlot 0x1003c fixed [1003c]
    -> b1 ReturnFlow fixed
  data 0x10024..0x10030
  jump 0x1001c table [10030, 10048, 10040]
routine after 0x10040..0x10048 entries [10040]
  b0 Entry 0x10040 []
    -> b2 Fall
  b1 Exit 0x10048 fixed []
  b2 Normal 0x10040 [10040]
    -> b3 ReturnFlow fixed
  b3 DelaySlot 0x10044 fixed [10044]
    -> b1 ReturnFlow fixed
routine other 0x10048..0x10050 entries [10048]
  b0 Entry 0x10048 []
    -> b2 Fall
  b1 Exit 0x10050 fixed []
  b2 Normal 0x10048 [10048]
    -> b3 ReturnFlow fixed
  b3 DelaySlot 0x1004c fixed [1004c]
    -> b1 ReturnFlow fixed
final main 0x10000..0x10040 entries [10000]
final after 0x10040..0x10048 entries [10040]
final other 0x10048..0x10050 entries [10048]
";
const EXPECT_TABLE_MISALIGNED: &str = "
routine main 0x10000..0x1003c entries [10000]
  b0 Entry 0x10000 []
    -> b2 Fall
  b1 Exit 0x1003c fixed []
  b2 Normal 0x10000 [10000 10004]
    -> b5 Taken
    -> b6 Fall
  b3 Normal 0x1000c [1000c 10010 10014 10018 1001c]
    -> b7 RuntimeIndirect fixed
  b4 Normal 0x10034 [10034]
    -> b8 ReturnFlow fixed
  b5 DelaySlot 0x10008 [10008]
    -> b4 Fall
  b6 DelaySlot 0x10008 [10008]
    -> b3 Fall
  b7 DelaySlot 0x10020 fixed [10020]
    -> b1 RuntimeIndirect fixed
  b8 DelaySlot 0x10038 fixed [10038]
    -> b1 ReturnFlow fixed
  jump 0x1001c unknown
  incomplete
final main 0x10000..0x1003c entries [10000]
";
const EXPECT_LAST_WORD_CTI: &str = "
routine main 0x10000..0x10008 entries [10000]
  b0 Entry 0x10000 []
    -> b2 Fall
  b1 Exit 0x10008 fixed []
  b2 Normal 0x10000 [10000 10004]
    -> b2 Taken
    -> b1 Escape(0x1000c) fixed
routine next 0x10008..0x10010 entries [10008]
  b0 Entry 0x10008 []
    -> b2 Fall
  b1 Exit 0x10010 fixed []
  b2 Normal 0x10008 [10008]
    -> b3 ReturnFlow fixed
  b3 DelaySlot 0x1000c fixed [1000c]
    -> b1 ReturnFlow fixed
final main 0x10000..0x10008 entries [10000]
final next 0x10008..0x10010 entries [10008]
";
const EXPECT_BRANCH_TO_END: &str = "
routine main 0x10000..0x1001c entries [10000]
  b0 Entry 0x10000 []
    -> b2 Fall
  b1 Exit 0x1001c fixed []
  b2 Normal 0x10000 [10000]
    -> b5 CallFlow fixed
  b3 Normal 0x10008 [10008 1000c]
    -> b7 Taken
    -> b8 Fall
  b4 Normal 0x10014 [10014]
    -> b1 Escape(0x1001c) fixed
  b5 DelaySlot 0x10004 fixed [10004]
    -> b6 CallFlow fixed
  b6 CallSurrogate 0x10000 fixed []
    -> b3 Fall
  b7 DelaySlot 0x10010 fixed [10010]
    -> b1 Escape(0x1001c) fixed
  b8 DelaySlot 0x10010 [10010]
    -> b4 Fall
  call 0x10000 -> 0x1001c
routine fn_1001c 0x1001c..0x10024 entries [1001c] hidden
  b0 Entry 0x1001c []
    -> b2 Fall
  b1 Exit 0x10024 fixed []
  b2 Normal 0x1001c [1001c]
    -> b3 ReturnFlow fixed
  b3 DelaySlot 0x10020 fixed [10020]
    -> b1 ReturnFlow fixed
final main 0x10000..0x1001c entries [10000]
final fn_1001c 0x1001c..0x10024 entries [1001c]
";
const EXPECT_TRAILING_SPLIT: &str = "
routine main 0x10000..0x1001c entries [10000]
  b0 Entry 0x10000 []
    -> b2 Fall
  b1 Exit 0x10010 fixed []
  b2 Normal 0x10000 [10000]
    -> b3 ReturnFlow fixed
  b3 DelaySlot 0x10004 fixed [10004]
    -> b1 ReturnFlow fixed
routine last 0x1001c..0x10024 entries [1001c]
  b0 Entry 0x1001c []
    -> b2 Fall
  b1 Exit 0x10024 fixed []
  b2 Normal 0x1001c [1001c]
    -> b3 ReturnFlow fixed
  b3 DelaySlot 0x10020 fixed [10020]
    -> b1 ReturnFlow fixed
final main 0x10000..0x10010 entries [10000]
final last 0x1001c..0x10024 entries [1001c]
final fn_10010 0x10010..0x1001c entries [10010]
";
const EXPECT_MID_ENTRY: &str = "
routine main 0x10000..0x10014 entries [10000]
  b0 Entry 0x10000 []
    -> b2 Fall
  b1 Exit 0x10014 fixed []
  b2 Normal 0x10000 [10000 10004]
    -> b4 Taken
    -> b5 Fall
  b3 Normal 0x1000c [1000c]
    -> b6 ReturnFlow fixed
  b4 DelaySlot 0x10008 fixed [10008]
    -> b1 Escape(0x1001c) fixed
  b5 DelaySlot 0x10008 [10008]
    -> b3 Fall
  b6 DelaySlot 0x10010 fixed [10010]
    -> b1 ReturnFlow fixed
routine callee 0x10014..0x10028 entries [10014, 1001c]
  b0 Entry 0x10014 []
    -> b2 Fall
    -> b3 Fall
  b1 Exit 0x10028 fixed []
  b2 Normal 0x10014 [10014 10018]
    -> b3 Fall
  b3 Normal 0x1001c [1001c 10020]
    -> b4 ReturnFlow fixed
  b4 DelaySlot 0x10024 fixed [10024]
    -> b1 ReturnFlow fixed
final main 0x10000..0x10014 entries [10000]
final callee 0x10014..0x10028 entries [10014, 1001c]
";
