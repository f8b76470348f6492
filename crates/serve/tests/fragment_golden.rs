//! Golden fragment bytes and the load count of the fragment tier.
//!
//! Per-routine fragments live in the result LRU and in `.eelf` disk
//! sidecars, so their bytes are a storage format: a change to the
//! fragment container or to any op's payload would silently turn every
//! existing disk cache into misses. The first test pins FNV-1a digests
//! of every fragment the fragment-cached ops store for the SPARC shapes
//! of `op_golden.rs` (gcc, SunPro, stripped gcc), plus two hand-assembled
//! programs whose fragments record §3.1 side effects: an escape into the
//! middle of another routine and a trailing split. MIPS images store
//! `disasm`, `cfg-summary` and `liveness` fragments through the same
//! stitch loop (`incremental.rs` checks their stitching); their payloads
//! are the MIPS renderings `op_golden.rs` pins. MIPS `instrument` runs
//! the whole-image block-counter rewriter and stores none.
//!
//! The second test counts tier loads: at any thread count, one request
//! loads each `(routine_key, op)` at most once. The third shows that a
//! tier which keeps nothing is never stored to, and that the bodies are
//! still `run_op`'s.

mod common;

use eel_core::Analysis;
use eel_serve::{run_op, run_op_fragments, FragmentTier};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const OPS: [&str; 4] = ["disasm", "cfg-summary", "liveness", "instrument"];

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A tier that never hits and records every store in order.
#[derive(Default)]
struct Recording(Mutex<Vec<(u64, String, Vec<u8>)>>);

impl FragmentTier for Recording {
    fn load(&self, _key: u64, _op: &str) -> Option<Vec<u8>> {
        None
    }
    fn store(&self, key: u64, op: &str, bytes: &[u8]) {
        self.0
            .lock()
            .unwrap()
            .push((key, op.to_string(), bytes.to_vec()));
    }
}

/// `main` branches into the middle of `callee`: main's fragment records
/// the escape that registers a second entry of callee.
const ESCAPE_ASM: &str = "
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
";

/// Unreachable code after main's return: main's fragment records the
/// split that turns it into a hidden routine.
const SPLIT_ASM: &str = "
    .global main
main:
    retl
    mov 7, %o0
    mov 1, %o0
    retl
    nop
    .global last
last:
    retl
    nop
";

/// Two images whose first routine, `pre`, has the same size but a
/// different number of profiled edges, followed by byte-identical
/// routines at the same addresses: a `main` that ends in a four-word
/// unreachable tail (a §3.1 trailing split), then `last`, whose body
/// may branch to `mid`, the delay slot of main's call (a §3.1 entry
/// registration made after main's build that changes main's layout).
/// Every counter base after `pre` differs between the two, so a
/// fragment recorded for `main` in one is a validated hit in the other
/// whose instrumentation plan cannot install as-is.
fn shifted_split_asm(pre: &str, last: &str) -> String {
    format!(
        "
    .global pre
pre:
{pre}
    retl
    nop
    .global main
main:
    save %sp, -96, %sp
    call pre
mid:
    nop
    ret
    restore
    mov 1, %o0
    mov 2, %o0
    mov 3, %o0
    mov 4, %o0
    .global last
last:
{last}
    retl
    nop
"
    )
}

const BRANCH_TO_MAIN: &str = "
    cmp %o0, 0
    be mid
    nop
";

const STRAIGHT_PRE: &str = "
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
    add %o0, 1, %o0
";

const BRANCHY_PRE: &str = "
    cmp %o0, 0
    be one
    nop
    add %o0, 1, %o0
one:
    cmp %o0, 1
    be two
    nop
    add %o0, 1, %o0
two:
";

fn analysis(shape: &str, seed: u64) -> Arc<Analysis> {
    let image = match shape {
        "asm-escape" => eel_asm::assemble(ESCAPE_ASM).expect("assemble"),
        "asm-split" => eel_asm::assemble(SPLIT_ASM).expect("assemble"),
        _ => common::image(shape, seed),
    };
    Arc::new(Analysis::compute(Arc::new(image)).expect("analyze"))
}

/// One line per cold request: `shape seed op threads n=<stores> digest`,
/// the digest running over each stored fragment's key, length and bytes
/// in store order.
fn digests() -> Vec<String> {
    let mut lines = Vec::new();
    let shapes = [
        ("gcc", 2),
        ("gcc", 10),
        ("sunpro", 2),
        ("sunpro", 10),
        ("stripped", 2),
        ("stripped", 10),
        ("asm-escape", 0),
        ("asm-split", 0),
    ];
    for (shape, seed) in shapes {
        let analysis = analysis(shape, seed);
        for op in OPS {
            for threads in [1, 2] {
                let tier = Recording::default();
                run_op_fragments(op, &analysis, threads, &tier).expect(op);
                let stores = tier.0.into_inner().unwrap();
                let mut h = 0xcbf2_9ce4_8422_2325;
                for (key, stored_op, bytes) in &stores {
                    assert_eq!(stored_op, op, "fragments are stored under their op");
                    h = fnv(h, &key.to_be_bytes());
                    h = fnv(h, &(bytes.len() as u64).to_be_bytes());
                    h = fnv(h, bytes);
                }
                lines.push(format!(
                    "{shape} {seed} {op} {threads} n={} {h:016x}",
                    stores.len()
                ));
            }
        }
    }
    lines
}

/// Recorded before the fragment container moved into eel-core; every
/// line must stay byte-identical so existing disk caches stay valid.
const GOLDEN: &str = "
gcc 2 disasm 1 n=6 ae31a26de1d1b959
gcc 2 disasm 2 n=6 ae31a26de1d1b959
gcc 2 cfg-summary 1 n=6 1b6498eb56ac044f
gcc 2 cfg-summary 2 n=6 1b6498eb56ac044f
gcc 2 liveness 1 n=6 7f658fde0fd072f7
gcc 2 liveness 2 n=6 7f658fde0fd072f7
gcc 2 instrument 1 n=6 6ca6e5d1777e8155
gcc 2 instrument 2 n=6 6ca6e5d1777e8155
gcc 10 disasm 1 n=6 e8a53e5b2f88c710
gcc 10 disasm 2 n=6 e8a53e5b2f88c710
gcc 10 cfg-summary 1 n=6 e871ebd33ced1865
gcc 10 cfg-summary 2 n=6 e871ebd33ced1865
gcc 10 liveness 1 n=6 6f749ea5fd9ab7fb
gcc 10 liveness 2 n=6 6f749ea5fd9ab7fb
gcc 10 instrument 1 n=6 d47e5c8b51f3cf3f
gcc 10 instrument 2 n=6 d47e5c8b51f3cf3f
sunpro 2 disasm 1 n=6 ae31a26de1d1b959
sunpro 2 disasm 2 n=6 ae31a26de1d1b959
sunpro 2 cfg-summary 1 n=6 1b6498eb56ac044f
sunpro 2 cfg-summary 2 n=6 1b6498eb56ac044f
sunpro 2 liveness 1 n=6 7f658fde0fd072f7
sunpro 2 liveness 2 n=6 7f658fde0fd072f7
sunpro 2 instrument 1 n=6 6ca6e5d1777e8155
sunpro 2 instrument 2 n=6 6ca6e5d1777e8155
sunpro 10 disasm 1 n=6 0dc39a5de75ee2cd
sunpro 10 disasm 2 n=6 0dc39a5de75ee2cd
sunpro 10 cfg-summary 1 n=6 d808dd6bdd9e9735
sunpro 10 cfg-summary 2 n=6 d808dd6bdd9e9735
sunpro 10 liveness 1 n=6 e21f90b22f4ad249
sunpro 10 liveness 2 n=6 e21f90b22f4ad249
sunpro 10 instrument 1 n=6 c8bea9dff33bd15f
sunpro 10 instrument 2 n=6 c8bea9dff33bd15f
stripped 2 disasm 1 n=6 ae31a26de1d1b959
stripped 2 disasm 2 n=6 ae31a26de1d1b959
stripped 2 cfg-summary 1 n=6 1b6498eb56ac044f
stripped 2 cfg-summary 2 n=6 1b6498eb56ac044f
stripped 2 liveness 1 n=6 7f658fde0fd072f7
stripped 2 liveness 2 n=6 7f658fde0fd072f7
stripped 2 instrument 1 n=6 6ca6e5d1777e8155
stripped 2 instrument 2 n=6 6ca6e5d1777e8155
stripped 10 disasm 1 n=6 e8a53e5b2f88c710
stripped 10 disasm 2 n=6 e8a53e5b2f88c710
stripped 10 cfg-summary 1 n=6 e871ebd33ced1865
stripped 10 cfg-summary 2 n=6 e871ebd33ced1865
stripped 10 liveness 1 n=6 6f749ea5fd9ab7fb
stripped 10 liveness 2 n=6 6f749ea5fd9ab7fb
stripped 10 instrument 1 n=6 d47e5c8b51f3cf3f
stripped 10 instrument 2 n=6 d47e5c8b51f3cf3f
asm-escape 0 disasm 1 n=2 e8e661c9a603df0f
asm-escape 0 disasm 2 n=2 e8e661c9a603df0f
asm-escape 0 cfg-summary 1 n=2 ca1ba46eb21e034b
asm-escape 0 cfg-summary 2 n=2 ca1ba46eb21e034b
asm-escape 0 liveness 1 n=2 21f588b18167c5a6
asm-escape 0 liveness 2 n=2 21f588b18167c5a6
asm-escape 0 instrument 1 n=2 2758e62c50db2dde
asm-escape 0 instrument 2 n=2 2758e62c50db2dde
asm-split 0 disasm 1 n=2 37a498f95e2ab449
asm-split 0 disasm 2 n=2 37a498f95e2ab449
asm-split 0 cfg-summary 1 n=2 e527c55583674a6b
asm-split 0 cfg-summary 2 n=2 e527c55583674a6b
asm-split 0 liveness 1 n=2 a77c2e5105add705
asm-split 0 liveness 2 n=2 a77c2e5105add705
asm-split 0 instrument 1 n=2 edd32dad15fa72c1
asm-split 0 instrument 2 n=2 edd32dad15fa72c1
";

#[test]
fn stored_fragments_match_the_recorded_digests() {
    let got = digests().join("\n");
    assert_eq!(got, GOLDEN.trim(), "\n--- got ---\n{got}\n");
}

/// A shared in-memory tier that counts loads per `(key, op)` and store
/// calls; with `drops` set it keeps nothing and says so.
#[derive(Default)]
struct Counting {
    drops: bool,
    stored: Mutex<HashMap<(u64, String), Vec<u8>>>,
    loads: Mutex<HashMap<(u64, String), u32>>,
    stores: Mutex<u32>,
}

impl FragmentTier for Counting {
    fn load(&self, key: u64, op: &str) -> Option<Vec<u8>> {
        *self
            .loads
            .lock()
            .unwrap()
            .entry((key, op.to_string()))
            .or_insert(0) += 1;
        self.stored
            .lock()
            .unwrap()
            .get(&(key, op.to_string()))
            .cloned()
    }
    fn store(&self, key: u64, op: &str, bytes: &[u8]) {
        *self.stores.lock().unwrap() += 1;
        if !self.drops {
            self.stored
                .lock()
                .unwrap()
                .insert((key, op.to_string()), bytes.to_vec());
        }
    }
    fn keeps_fragments(&self) -> bool {
        !self.drops
    }
}

#[test]
fn each_routine_key_is_loaded_at_most_once_per_request() {
    for shape in ["gcc", "stripped"] {
        let analysis = analysis(shape, 10);
        for op in OPS {
            let tier = Counting::default();
            // A cold request (every load misses), then warm ones (every
            // load hits), at each thread count.
            for threads in [1, 2, 4, 1, 2, 4] {
                tier.loads.lock().unwrap().clear();
                let (_, stats) = run_op_fragments(op, &analysis, threads, &tier).expect(op);
                assert!(stats.total > 0, "{shape} {op}: the op stitches routines");
                let loads = tier.loads.lock().unwrap();
                assert!(!loads.is_empty(), "{shape} {op}: the tier was consulted");
                for ((key, _), n) in loads.iter() {
                    assert_eq!(
                        *n, 1,
                        "{shape} {op} threads={threads}: key {key:016x} loaded {n} times"
                    );
                }
            }
        }
    }
}

#[test]
fn a_tier_that_keeps_nothing_is_never_stored_to() {
    for shape in ["gcc", "sunpro", "stripped"] {
        let analysis = analysis(shape, 10);
        for op in OPS {
            let tier = Counting {
                drops: true,
                ..Counting::default()
            };
            let (body, stats) = run_op_fragments(op, &analysis, 1, &tier).expect(op);
            assert!(stats.total > 0, "{shape} {op}: the op stitches routines");
            assert_eq!(stats.hits, 0, "{shape} {op}: nothing to hit");
            assert_eq!(*tier.stores.lock().unwrap(), 0, "{shape} {op}: stored");
            assert_eq!(body, run_op(op, &analysis).expect(op), "{shape} {op}");
            // A keeping tier is stored to for the same request.
            let keeping = Counting::default();
            run_op_fragments(op, &analysis, 1, &keeping).expect(op);
            assert!(*keeping.stores.lock().unwrap() > 0, "{shape} {op}");
        }
    }
}

#[test]
fn a_split_routine_whose_counter_base_moved_is_instrumented_as_cold() {
    // Without and with a later routine that registers an entry of main
    // once main is built: the declined hit must build main as cold does,
    // before that registration.
    for last in ["", BRANCH_TO_MAIN] {
        let [first, second] = [STRAIGHT_PRE, BRANCHY_PRE].map(|pre| {
            let image = eel_asm::assemble(&shifted_split_asm(pre, last)).expect("assemble");
            Arc::new(Analysis::compute(Arc::new(image)).expect("analyze"))
        });
        let tier = Counting::default();
        run_op_fragments("instrument", &first, 1, &tier).expect("first");
        // main is byte-identical at the same address in both images, so
        // its fragment from the first is a validated hit in the second,
        // and its plan, recorded against another counter base, is
        // declined.
        let main_key = second.routine_keys()[1];
        assert_eq!(first.routine_keys()[1], main_key);
        let stored = tier
            .stored
            .lock()
            .unwrap()
            .contains_key(&(main_key, "instrument".into()));
        assert!(stored, "main's fragment is stored");
        let (warm, _) = run_op_fragments("instrument", &second, 1, &tier).expect("second");
        let cold = run_op("instrument", &second).expect("cold");
        assert_eq!(
            warm.len(),
            cold.len(),
            "the split-off tail is laid out once"
        );
        assert_eq!(warm, cold, "branch to main: {}", !last.is_empty());
        // Every build above ran in routine order, so each routine's
        // cell holds the shape every later batch shares.
        run_op("disasm", &second).expect("disasm");
        assert_eq!(second.shape_builds(), second.routines().len());
    }
}
