//! The traced replay: a seeded sample of a workload's images, fed in
//! process through the public call of each layer, timed around that
//! call. It runs twice: once with eel-obs off, which gives the
//! per-layer times, and once with eel-obs on, which gives the self time
//! of the `core.cfg.*` spans core already emits and the cost of tracing.

use crate::corpus::{mix, Item, Kind, Rng, MIPS_WEF_CAP};
use crate::workloads::EDIT_SCRIPT;
use eel_core::{Analysis, Executable, Liveness, Snippet};
use eel_exe::Image;
use eel_serve::{
    content_hash, CacheTier, CostClass, Discovery, FragmentTier, Payload, Request, Response,
    SessionFrame, SessionReply, SingleFlightLru, CACHED_OPS,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SPARC text the replay samples from a workload, at most.
const REPLAY_TEXT: usize = 512 * 1024;

/// Lookups timed on the populated LRU.
const LOOKUPS: usize = 20_000;

/// One replayed program: the images each layer gets.
struct Case {
    /// The SPARC image the workload sent, or its gcc twin for a
    /// stripped or MIPS item.
    sparc: Arc<Image>,
    /// `sparc` with its symbol table stripped.
    stripped: Arc<Image>,
    /// The gcc-shaped SPARC twin (for the MIPS/SPARC ratio).
    sparc_gcc: Arc<Image>,
    /// The MIPS twin, when the program compiles for MIPS under the cap.
    mips: Option<Arc<Image>>,
}

fn gcc(program: &eel_cc::ast::Program) -> Option<Image> {
    eel_cc::compile_ast(program, &eel_cc::Options::default()).ok()
}

fn case(item: &Item) -> Option<Case> {
    let program = item.program();
    let sparc_gcc = match item.kind {
        Kind::Gcc => Arc::clone(&item.image),
        _ => Arc::new(gcc(&program)?),
    };
    let sparc = match item.kind {
        Kind::SunPro => Arc::clone(&item.image),
        _ => Arc::clone(&sparc_gcc),
    };
    let mut stripped = (*sparc).clone();
    stripped.strip();
    let mips = match item.kind {
        Kind::Mips => Some(Arc::clone(&item.image)),
        _ => eel_progen::compile_mips(&program)
            .ok()
            .filter(|m| m.to_bytes().len() <= MIPS_WEF_CAP)
            .map(Arc::new),
    };
    Some(Case {
        sparc,
        stripped: Arc::new(stripped),
        sparc_gcc,
        mips,
    })
}

/// A seeded sample of `items` within [`REPLAY_TEXT`], every kind kept
/// when the workload has it.
fn sample(items: &[Item], seed: u64) -> Vec<Case> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    Rng::new(mix(seed, 0x4e91)).shuffle(&mut order);
    // One image of each kind first, so a small budget still reaches
    // every pipeline.
    let mut seen = Vec::new();
    let (firsts, rest): (Vec<usize>, Vec<usize>) = order.into_iter().partition(|&i| {
        let first = !seen.contains(&items[i].kind);
        if first {
            seen.push(items[i].kind);
        }
        first
    });
    let order = firsts.into_iter().chain(rest);
    let mut budget = REPLAY_TEXT;
    let mut cases = Vec::new();
    for i in order {
        let text = items[i].image.text.len();
        if text > budget && !cases.is_empty() {
            continue;
        }
        if let Some(c) = case(&items[i]) {
            budget = budget.saturating_sub(text);
            cases.push(c);
        }
    }
    cases
}

/// Time and work per layer over one pass.
#[derive(Default)]
struct Pass {
    time: HashMap<&'static str, Duration>,
    work: HashMap<&'static str, u64>,
    /// Self time of each `core.cfg.*` span (eel-obs on only).
    span_self: HashMap<String, Duration>,
    wall: Duration,
    notes: Vec<String>,
}

impl Pass {
    fn timed<T>(&mut self, layer: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = black_box(f());
        *self.time.entry(layer).or_default() += t0.elapsed();
        *self.work.entry(layer).or_default() += work;
        out
    }

    /// Nanoseconds per unit of work.
    fn per(&self, layer: &str) -> f64 {
        let t = self.time.get(layer).map_or(0.0, |d| d.as_nanos() as f64);
        t / self.work.get(layer).copied().unwrap_or(0).max(1) as f64
    }

    fn covered(&self) -> Duration {
        self.time.values().sum()
    }
}

/// The in-memory fragment tier the stitch layer is measured with.
#[derive(Default)]
struct MemTier(Mutex<HashMap<(u64, String), Vec<u8>>>);

impl FragmentTier for MemTier {
    fn load(&self, key: u64, op: &str) -> Option<Vec<u8>> {
        self.0
            .lock()
            .expect("tier lock")
            .get(&(key, op.to_string()))
            .cloned()
    }
    fn store(&self, key: u64, op: &str, bytes: &[u8]) {
        self.0
            .lock()
            .expect("tier lock")
            .insert((key, op.to_string()), bytes.to_vec());
    }
}

/// Adds self time of `core.cfg.*` spans recorded since the last reset.
fn collect_spans(pass: &mut Pass) {
    let spans = eel_obs::snapshot_spans();
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        *children.entry(s.parent).or_default() += s.dur_ns;
    }
    for s in spans.iter().filter(|s| s.name.starts_with("core.cfg.")) {
        let own = s
            .dur_ns
            .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
        *pass.span_self.entry(s.name.clone()).or_default() += Duration::from_nanos(own);
    }
    eel_obs::reset();
}

fn sparc_layers(
    pass: &mut Pass,
    c: &Case,
    lru: &SingleFlightLru<(u64, String), Arc<Vec<u8>>>,
    keys: &mut Vec<(u64, String)>,
) {
    let wef = c.sparc.to_bytes();
    let insns = c.sparc.text.len() as u64 / 4;
    if !pass.timed("exe.load", wef.len() as u64, || {
        Image::from_bytes(&wef).is_ok()
    }) {
        pass.notes
            .push("exe.load: the image did not load back".into());
    }
    let hash = pass.timed("serve.cache.hash", wef.len() as u64, || content_hash(&wef));
    let Ok(analysis) = pass.timed("core.discovery", insns, || {
        Analysis::compute(Arc::clone(&c.sparc))
    }) else {
        pass.notes.push("core.discovery failed".into());
        return;
    };
    let analysis = Arc::new(analysis);
    let stripped_insns = c.stripped.text.len() as u64 / 4;
    let _ = pass.timed("strip.discovery", stripped_insns, || {
        Analysis::compute(Arc::clone(&c.stripped))
    });
    pass.timed("core.routine_key", c.sparc.text.len() as u64, || {
        analysis
            .routines()
            .iter()
            .map(|r| eel_core::routine_key(&c.sparc, r))
            .fold(0u64, u64::wrapping_add)
    });

    let tracing = eel_obs::enabled();
    if tracing {
        eel_obs::reset();
    }
    let cfgs = pass.timed("core.cfg_build", insns, || {
        Executable::from_analysis(&analysis).build_all_cfgs(1)
    });
    if tracing {
        collect_spans(pass);
    }
    match cfgs {
        Ok(cfgs) => {
            pass.timed("core.liveness", insns, || {
                cfgs.iter()
                    .map(|(_, cfg)| Liveness::compute(cfg))
                    .collect::<Vec<_>>()
            });
        }
        Err(e) => pass.notes.push(format!("core.cfg_build: {e}")),
    }

    for op in CACHED_OPS {
        let layer = match *op {
            "disasm" => "serve.ops.disasm",
            "cfg-summary" => "serve.ops.cfg-summary",
            "liveness" => "serve.ops.liveness",
            "stat" => "serve.ops.stat",
            _ => "serve.ops.instrument",
        };
        let work = if *op == "stat" { 1 } else { insns };
        match pass.timed(layer, work, || eel_serve::run_op_with(op, &analysis, 1)) {
            Ok(body) => {
                let cost = body.len();
                let key = (hash, op.to_string());
                let _ = lru.insert(key.clone(), Arc::new(body), cost, CostClass::Expensive);
                keys.push(key);
            }
            Err(e) => pass.notes.push(format!("{op}: {e}")),
        }
    }

    let tier = MemTier::default();
    for op in ["disasm", "instrument"] {
        let _ = eel_serve::run_op_fragments(op, &analysis, 1, &tier);
        let _ = pass.timed("serve.ops.stitch", insns, || {
            eel_serve::run_op_fragments(op, &analysis, 1, &tier)
        });
    }

    // Entry counters, as in the eel_core crate example; only the
    // write-out is timed.
    let mut exec = Executable::from_analysis(&analysis);
    let ids = exec.routine_ids();
    let counters = exec.reserve_data(4 * ids.len().max(1) as u32);
    let edited = ids.iter().try_for_each(|&id| {
        let mut cfg = exec.build_cfg(id)?;
        let entry = cfg.entry_block();
        cfg.add_code_at_block_start(
            entry,
            Snippet::counter_increment(counters + 4 * id.index() as u32),
        )?;
        exec.install_edits(cfg)
    });
    match edited {
        Ok(()) => {
            if let Err(e) = pass.timed("core.write_edited", insns, || exec.write_edited()) {
                pass.notes.push(format!("core.write_edited: {e}"));
            }
        }
        Err(e) => pass.notes.push(format!("entry counters: {e}")),
    }

    let edit = pass.timed("edit.script", 1, || {
        eel_edit::EditSession::from_analysis(Arc::clone(&analysis)).run_script_to_image(EDIT_SCRIPT)
    });
    if edit.is_err() {
        // Programs with fewer than two functions have no `f1` to count;
        // take the call back out of the tally.
        *pass.work.entry("edit.script").or_default() -= 1;
    }

    let request = Request {
        op: "disasm".into(),
        payload: Payload::Inline(wef),
    };
    let v1 = request.encode();
    let v2 = SessionFrame::Request { id: 7, request }.encode();
    pass.timed("serve.proto.decode", (v1.len() + v2.len()) as u64, || {
        (
            Request::decode(&v1).is_ok(),
            SessionFrame::decode(&v2).is_ok(),
        )
    });
    let body = keys
        .last()
        .and_then(|k| lru.get(k))
        .map(|b| b.to_vec())
        .unwrap_or_default();
    let response = Response::Ok {
        tier: CacheTier::Memory,
        body,
        fragments: None,
        discovery: Some(Discovery::Symbols),
        machine: Some(eel_exe::Machine::Sparc),
    };
    let bytes = pass.timed("serve.proto.encode", 0, || {
        let v1 = response.encode();
        let v2 = SessionReply::Tagged {
            id: 7,
            response: response.clone(),
        }
        .encode();
        v1.len() + v2.len()
    });
    *pass.work.entry("serve.proto.encode").or_default() += bytes as u64;
}

fn mips_layers(pass: &mut Pass, c: &Case) {
    let Some(mips) = &c.mips else { return };
    let insns = mips.text.len() as u64 / 4;
    let Ok(analysis) = Analysis::compute(Arc::clone(mips)) else {
        pass.notes.push("mips discovery failed".into());
        return;
    };
    let cfgs: Vec<_> = pass.timed("core.generic.cfg", insns, || {
        analysis
            .routines()
            .iter()
            .filter_map(|r| eel_core::generic_cfg(mips, r).ok())
            .collect()
    });
    pass.timed("core.generic.liveness", insns, || {
        cfgs.iter()
            .map(|cfg| eel_core::generic_liveness(mips, cfg))
            .collect::<Vec<_>>()
    });
    if let Err(e) = pass.timed("core.generic.instrument", insns, || {
        eel_core::instrument_block_counters(mips)
    }) {
        pass.notes.push(format!("core.generic.instrument: {e}"));
    }
    let Ok(sparc) = Analysis::compute(Arc::clone(&c.sparc_gcc)) else {
        return;
    };
    let sparc_insns = c.sparc_gcc.text.len() as u64 / 4;
    for (i, op) in CACHED_OPS.iter().enumerate() {
        let _ = pass.timed(RATIO_MIPS[i], insns, || {
            eel_serve::run_op_with(op, &analysis, 1)
        });
        let _ = pass.timed(RATIO_SPARC[i], sparc_insns, || {
            eel_serve::run_op_with(op, &sparc, 1)
        });
    }
}

const RATIO_MIPS: [&str; 5] = [
    "ratio.mips.0",
    "ratio.mips.1",
    "ratio.mips.2",
    "ratio.mips.3",
    "ratio.mips.4",
];
const RATIO_SPARC: [&str; 5] = [
    "ratio.sparc.0",
    "ratio.sparc.1",
    "ratio.sparc.2",
    "ratio.sparc.3",
    "ratio.sparc.4",
];

fn pass(cases: &[Case], tracing: bool) -> Pass {
    eel_obs::reset();
    eel_obs::set_mode(if tracing {
        eel_obs::Mode::Summary
    } else {
        eel_obs::Mode::Off
    });
    let mut pass = Pass::default();
    let lru = SingleFlightLru::new(usize::MAX / 2);
    let mut keys = Vec::new();
    let t0 = Instant::now();
    for c in cases {
        sparc_layers(&mut pass, c, &lru, &mut keys);
        mips_layers(&mut pass, c);
    }
    if !keys.is_empty() {
        pass.timed("serve.cache.lookup", LOOKUPS as u64, || {
            (0..LOOKUPS)
                .filter(|i| lru.get(&keys[i % keys.len()]).is_some())
                .count()
        });
    }
    pass.wall = t0.elapsed();
    eel_obs::set_mode(eel_obs::Mode::Off);
    eel_obs::reset();
    pass
}

/// Replays `items` and returns the in-process per-layer metrics.
pub fn run(items: &[Item], seed: u64) -> Vec<(&'static str, f64, &'static str)> {
    let cases = sample(items, seed);
    // An untimed first pass warms caches and the allocator, so the
    // eel-obs off/on comparison is not an order effect.
    pass(&cases, false);
    let off = pass(&cases, false);
    let on = pass(&cases, true);
    for note in off.notes.iter().take(5) {
        println!("perfbench: replay: {note}");
    }
    let sparc_text: usize = cases.iter().map(|c| c.sparc.text.len()).sum();
    let mips_text: usize = cases
        .iter()
        .filter_map(|c| c.mips.as_ref())
        .map(|m| m.text.len())
        .sum();
    println!(
        "perfbench: replay: {} programs, {sparc_text} bytes of SPARC text, {mips_text} of MIPS; wall {:.3}s with eel-obs off, {:.3}s on",
        cases.len(),
        off.wall.as_secs_f64(),
        on.wall.as_secs_f64()
    );

    let cfg_time = on
        .time
        .get("core.cfg_build")
        .copied()
        .unwrap_or_default()
        .as_nanos() as f64;
    let share = |name: &str| {
        on.span_self.get(name).map_or(0.0, |d| d.as_nanos() as f64) / cfg_time.max(1.0)
    };
    let ratio = (0..CACHED_OPS.len())
        .map(|i| (off.per(RATIO_MIPS[i]) / off.per(RATIO_SPARC[i]).max(f64::MIN_POSITIVE)).ln())
        .sum::<f64>()
        / CACHED_OPS.len() as f64;
    let covered = off.covered().as_secs_f64() / off.wall.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "perfbench: replay: the timed layer calls cover {:.1}% of replay wall time",
        covered * 100.0
    );
    vec![
        ("exe.load_ns_per_byte", off.per("exe.load"), "ns/B"),
        (
            "core.discovery_ns_per_insn",
            off.per("core.discovery"),
            "ns/insn",
        ),
        (
            "strip.discovery_ns_per_insn",
            off.per("strip.discovery"),
            "ns/insn",
        ),
        (
            "core.cfg_build_ns_per_insn",
            off.per("core.cfg_build"),
            "ns/insn",
        ),
        ("core.cfg.scan_share", share("core.cfg.scan"), "ratio"),
        (
            "core.cfg.normalize_share",
            share("core.cfg.normalize"),
            "ratio",
        ),
        (
            "core.cfg.jumptable_share",
            share("core.cfg.jumptable"),
            "ratio",
        ),
        (
            "core.liveness_ns_per_insn",
            off.per("core.liveness"),
            "ns/insn",
        ),
        (
            "core.write_edited_ns_per_insn",
            off.per("core.write_edited"),
            "ns/insn",
        ),
        (
            "core.generic.cfg_ns_per_insn",
            off.per("core.generic.cfg"),
            "ns/insn",
        ),
        (
            "core.generic.liveness_ns_per_insn",
            off.per("core.generic.liveness"),
            "ns/insn",
        ),
        (
            "core.generic.instrument_ns_per_insn",
            off.per("core.generic.instrument"),
            "ns/insn",
        ),
        ("core.mips_sparc_ratio", ratio.exp(), "ratio"),
        (
            "core.routine_key_ns_per_byte",
            off.per("core.routine_key"),
            "ns/B",
        ),
        (
            "serve.ops.stitch_ns_per_insn",
            off.per("serve.ops.stitch"),
            "ns/insn",
        ),
        (
            "serve.ops.disasm_ns_per_insn",
            off.per("serve.ops.disasm"),
            "ns/insn",
        ),
        (
            "serve.ops.cfg-summary_ns_per_insn",
            off.per("serve.ops.cfg-summary"),
            "ns/insn",
        ),
        (
            "serve.ops.liveness_ns_per_insn",
            off.per("serve.ops.liveness"),
            "ns/insn",
        ),
        (
            "serve.ops.instrument_ns_per_insn",
            off.per("serve.ops.instrument"),
            "ns/insn",
        ),
        ("serve.ops.stat_us", off.per("serve.ops.stat") / 1e3, "us"),
        ("edit.script_ms", off.per("edit.script") / 1e6, "ms"),
        (
            "serve.cache.hash_ns_per_byte",
            off.per("serve.cache.hash"),
            "ns/B",
        ),
        ("serve.cache.lookup_ns", off.per("serve.cache.lookup"), "ns"),
        (
            "serve.proto.decode_ns_per_byte",
            off.per("serve.proto.decode"),
            "ns/B",
        ),
        (
            "serve.proto.encode_ns_per_byte",
            off.per("serve.proto.encode"),
            "ns/B",
        ),
        (
            "obs.overhead_ratio",
            on.wall.as_secs_f64() / off.wall.as_secs_f64().max(f64::MIN_POSITIVE),
            "ratio",
        ),
        ("replay.covered_share", covered, "ratio"),
    ]
}
