//! Per-routine fragment probing: content keys, hit validation, and the
//! replay of discovery side effects that keeps a probed batch
//! byte-identical to an unprobed one.

use eel_cc::{compile_str, Options};
use eel_core::{routine_key, Analysis, CfgBatchItem, CfgOutcome, Executable, FragmentSource};
use std::collections::HashMap;
use std::sync::Arc;

/// The op payload every recorded fragment carries.
const PAYLOAD: &[u8] = b"per-routine payload";

fn program() -> &'static str {
    r#"
    global data[32];
    fn helper(x) { data[x & 31] = x; return data[x & 31] * 2; }
    fn double(x) { return x + x; }
    fn main() {
        var i; var t = 0;
        for (i = 0; i < 12; i = i + 1) { t = t + helper(i) + double(i); }
        return t & 255;
    }"#
}

/// `main` branches into the middle of `callee` (a §3.1 stage-3 entry
/// registration) and ends in unreachable code (a stage-4 split), so
/// main's fragment records both side effects and a hit must replay them.
const SIDE_EFFECTS_ASM: &str = "
    .global main
main:
    cmp %o0, 0
    be mid
    nop
    retl
    nop
    mov 1, %o0
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

fn analysis() -> Arc<Analysis> {
    let image = compile_str(program(), &Options::default()).unwrap();
    Arc::new(Analysis::compute(Arc::new(image)).unwrap())
}

fn side_effects_analysis() -> Arc<Analysis> {
    let image = eel_asm::assemble(SIDE_EFFECTS_ASM).unwrap();
    Arc::new(Analysis::compute(Arc::new(image)).unwrap())
}

/// One routine-table row: name, start, end, entries, hidden.
type TableRow = (String, u32, u32, Vec<u32>, bool);

/// Routine-table fingerprint: everything later passes consume.
fn table(exec: &Executable) -> Vec<TableRow> {
    exec.routines()
        .iter()
        .map(|r| {
            (
                r.name(),
                r.start(),
                r.end(),
                r.entries().to_vec(),
                r.is_hidden(),
            )
        })
        .collect()
}

/// Runs a batch, taking every hit, and collects its items.
fn batch(exec: &mut Executable, fragments: Option<FragmentSource>) -> Vec<CfgBatchItem> {
    let mut items = Vec::new();
    exec.build_all_cfgs_probed(fragments, |_, item| {
        items.push(item);
        Ok(true)
    })
    .unwrap();
    items
}

/// Runs a batch against an empty tier and records each clean routine's
/// fragment, in routine order, with its content key.
fn record(a: &Arc<Analysis>) -> (Vec<(u64, Vec<u8>)>, Vec<TableRow>) {
    let mut exec = Executable::from_analysis(a);
    let items = batch(&mut exec, Some((&mut |_| None, &|_| true)));
    let mut fragments = Vec::new();
    for it in &items {
        assert!(
            matches!(it.outcome, CfgOutcome::Built(_)),
            "an empty tier never hits"
        );
        if let Some(replay) = &it.replay {
            fragments.push((it.key.unwrap(), replay.fragment(PAYLOAD)));
        }
    }
    (fragments, table(&exec))
}

#[test]
fn validated_hits_replay_side_effects_exactly() {
    for a in [analysis(), side_effects_analysis()] {
        let (fragments, cold_table) = record(&a);
        assert!(!fragments.is_empty(), "some routine must be cacheable");
        let stored: HashMap<u64, Vec<u8>> = fragments.into_iter().collect();

        let mut exec = Executable::from_analysis(&a);
        let mut loads: HashMap<u64, u32> = HashMap::new();
        let mut load = |k: u64| {
            *loads.entry(k).or_insert(0) += 1;
            stored.get(&k).cloned()
        };
        let items = batch(&mut exec, Some((&mut load, &|p| p == PAYLOAD)));
        let hits: Vec<&[u8]> = items
            .iter()
            .filter_map(|it| match &it.outcome {
                CfgOutcome::Hit(payload) => Some(payload.as_slice()),
                CfgOutcome::Built(_) => None,
            })
            .collect();
        assert_eq!(hits.len(), stored.len(), "every recorded routine is a hit");
        assert!(hits.iter().all(|p| *p == PAYLOAD), "hits carry the payload");
        assert!(
            loads.values().all(|&n| n == 1),
            "each key is loaded once per batch: {loads:?}"
        );
        // The replayed side effects must leave the routine table —
        // extents, entry points, split-off hidden routines — exactly as
        // the live builds did: later layout passes consume it.
        assert_eq!(table(&exec), cold_table);
    }
}

#[test]
fn rejected_payloads_are_built_live() {
    let a = analysis();
    let (fragments, cold_table) = record(&a);
    let stored: HashMap<u64, Vec<u8>> = fragments.into_iter().collect();
    let mut exec = Executable::from_analysis(&a);
    let items = batch(
        &mut exec,
        Some((&mut |k| stored.get(&k).cloned(), &|_| false)),
    );
    assert!(
        items
            .iter()
            .all(|it| matches!(it.outcome, CfgOutcome::Built(_))),
        "a payload the op rejects is never a hit"
    );
    assert_eq!(table(&exec), cold_table);
}

#[test]
fn wrong_start_meta_is_rejected_and_rebuilt_live() {
    let a = analysis();
    let (fragments, cold_table) = record(&a);
    assert!(fragments.len() >= 2, "needs two routines to swap");

    // A lying tier: under each key it returns the fragment of the next
    // routine — right shape, wrong position. Rendered fragments embed
    // absolute addresses, so honoring one would corrupt the output.
    let lying: HashMap<u64, Vec<u8>> = fragments
        .iter()
        .zip(fragments.iter().cycle().skip(1))
        .map(|((key, _), (_, next))| (*key, next.clone()))
        .collect();
    let mut exec = Executable::from_analysis(&a);
    let items = batch(
        &mut exec,
        Some((&mut |k| lying.get(&k).cloned(), &|_| true)),
    );
    assert!(
        items
            .iter()
            .all(|it| matches!(it.outcome, CfgOutcome::Built(_))),
        "every mispositioned fragment falls back to a live build"
    );
    assert_eq!(table(&exec), cold_table);
}

#[test]
fn fragment_under_a_key_lost_to_an_earlier_registration_is_never_replayed() {
    // A fragment stored under callee's pre-batch key must not be
    // replayed: main's build registers a second entry of callee (§3.1
    // stage 3), which changes callee's key before callee's turn comes,
    // so callee is built live — never a stale fragment, never a missing
    // CFG — and the routine table equals a cold build.
    let a = side_effects_analysis();
    let (fragments, cold_table) = record(&a);
    assert!(
        cold_table
            .iter()
            .any(|row| row.0 == "callee" && row.3.len() == 2),
        "main registers a second entry of callee: {cold_table:?}"
    );
    assert!(
        cold_table.iter().any(|row| row.4),
        "main's unreachable tail splits off: {cold_table:?}"
    );
    let mut exec = Executable::from_analysis(&a);
    let callee = exec
        .routines()
        .iter()
        .position(|r| r.name() == "callee")
        .expect("callee");
    let pre_key = exec.routine_keys()[callee];
    let post_key = {
        let mut cold = Executable::from_analysis(&a);
        cold.build_all_cfgs(1).unwrap();
        cold.routine_keys()[callee]
    };
    assert_ne!(pre_key, post_key, "the registration changes callee's key");
    let callee_fragment = fragments
        .iter()
        .find(|(key, _)| *key == post_key)
        .map(|(_, f)| f.clone())
        .expect("callee is clean");
    let mut load = |k: u64| (k == pre_key).then(|| callee_fragment.clone());
    let items = batch(&mut exec, Some((&mut load, &|_| true)));
    assert!(
        items
            .iter()
            .all(|it| matches!(it.outcome, CfgOutcome::Built(_))),
        "a key miss must produce a live build"
    );
    assert_eq!(table(&exec), cold_table);
}

#[test]
fn batch_keys_are_the_content_keys_of_their_snapshots() {
    // A batch reuses the analysis' key of a routine discovery left as it
    // was and hashes any other (here callee, which main's registration
    // changes, and main's split-off tail), so every key is its
    // snapshot's.
    for a in [analysis(), side_effects_analysis()] {
        let mut exec = Executable::from_analysis(&a);
        let items = batch(&mut exec, Some((&mut |_| None, &|_| true)));
        for it in &items {
            let fresh = routine_key(a.image(), &it.routine);
            assert_eq!(it.key, Some(fresh), "{}", it.routine.name());
        }
        for (r, key) in exec.routines().iter().zip(exec.routine_keys()) {
            assert_eq!(key, routine_key(a.image(), r), "{}", r.name());
        }
    }
}

#[test]
fn a_batch_without_a_fragment_source_hashes_no_keys() {
    for a in [analysis(), side_effects_analysis()] {
        let (_, cold_table) = record(&a);
        let mut exec = Executable::from_analysis(&a);
        let items = batch(&mut exec, None);
        for it in &items {
            assert!(matches!(it.outcome, CfgOutcome::Built(_)));
            assert_eq!((it.key, it.replay.is_some()), (None, false));
        }
        assert_eq!(table(&exec), cold_table);
    }
}

#[test]
fn a_declined_hit_is_built_and_handed_over_again() {
    // The caller declines every hit (a payload that does not fit its
    // program): each routine is then built as with no fragment, handed
    // over again, and carries no replay record, so its valid stored
    // fragment is not overwritten.
    for a in [analysis(), side_effects_analysis()] {
        let (fragments, cold_table) = record(&a);
        let stored: HashMap<u64, Vec<u8>> = fragments.into_iter().collect();
        let mut exec = Executable::from_analysis(&a);
        let mut seen = Vec::new();
        let mut load = |k: u64| stored.get(&k).cloned();
        exec.build_all_cfgs_probed(Some((&mut load, &|_| true)), |_, item| {
            let hit = matches!(item.outcome, CfgOutcome::Hit(_));
            seen.push((item.id, hit, item.replay.is_some()));
            Ok(!hit)
        })
        .unwrap();
        let hits: Vec<_> = seen.iter().filter(|s| s.1).map(|s| s.0).collect();
        assert_eq!(
            hits.len(),
            stored.len(),
            "every recorded routine is offered"
        );
        for id in hits {
            let after: Vec<_> = seen.iter().filter(|s| s.0 == id).collect();
            assert_eq!(after.len(), 2, "a declined hit is handed over again");
            assert!(!after[1].1 && !after[1].2, "built, with nothing to store");
        }
        assert_eq!(table(&exec), cold_table);
    }
}
