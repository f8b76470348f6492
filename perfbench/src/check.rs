//! Output checks, run after the timed phase so they take no CPU from
//! the daemon while it is measured.
//!
//! Two oracles: a sampled reply must be byte-identical to the same op
//! computed cold in this process, and every sampled `instrument` and
//! `edit` output must run under eel-emu with the original's exit code
//! and output.

use eel_core::Analysis;
use eel_exe::Image;
use eel_serve::NoFragments;
use std::sync::{Arc, Mutex};

/// Dynamic-instruction budget for the original image in an emulator
/// check; originals that need more are left out of the emulator sample.
pub const EMU_STEP_LIMIT: u64 = 5_000_000;

/// Emulator checks per run at most.
pub const EMU_CHECKS: usize = 40;

/// One served body to check.
pub struct Served {
    /// The request's stream index.
    pub id: usize,
    /// The original image's WEF bytes.
    pub wef: Arc<Vec<u8>>,
    /// `disasm`, `cfg-summary`, `liveness`, `stat`, `instrument` or
    /// `edit`.
    pub op: &'static str,
    /// The reply body the daemon served.
    pub body: Vec<u8>,
}

/// What the checks found.
#[derive(Default, Debug)]
pub struct Report {
    pub compared: u64,
    pub mismatched: u64,
    pub emu_checked: u64,
    pub emu_mismatched: u64,
    /// Sampled edited outputs whose original did not exit within the
    /// step budget, so the emulator had nothing to compare against.
    pub emu_skipped: u64,
    /// Stream indices of the requests that failed a check.
    pub failed_ids: Vec<usize>,
    pub notes: Vec<String>,
}

impl Report {
    fn absorb(&mut self, other: Report) {
        self.compared += other.compared;
        self.mismatched += other.mismatched;
        self.emu_checked += other.emu_checked;
        self.emu_mismatched += other.emu_mismatched;
        self.emu_skipped += other.emu_skipped;
        self.failed_ids.extend(other.failed_ids);
        self.notes.extend(other.notes);
    }

    fn fail(&mut self, id: usize, note: String) {
        self.failed_ids.push(id);
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }
}

/// The body `op` produces on `wef`, computed cold in this process: the
/// analysis ops through `run_op_fragments` with no fragment tier, `edit`
/// through the eel-edit calls behind serve's `edit` op.
pub fn cold_body(wef: &[u8], op: &str, script: &str) -> Result<Vec<u8>, String> {
    let image = Image::from_bytes(wef).map_err(|e| e.to_string())?;
    let analysis = Arc::new(Analysis::compute(Arc::new(image)).map_err(|e| e.to_string())?);
    if op == "edit" {
        let mut session = eel_edit::EditSession::from_analysis(analysis);
        return session
            .run_script_to_image(script)
            .map(|applied| applied.image.to_bytes())
            .map_err(|e| e.to_string());
    }
    eel_serve::run_op_fragments(op, &analysis, 1, &NoFragments).map(|(body, _)| body)
}

/// Runs `image` for at most `limit` cycles.
pub fn emulate(image: &Image, limit: u64) -> Option<(u32, Vec<u8>)> {
    let mut machine = eel_emu::AnyMachine::load(image)
        .ok()?
        .with_step_limit(limit);
    machine.run().ok().map(|o| (o.exit_code, o.output))
}

/// Checks `served` on two threads: every entry against a cold
/// in-process recompute, and the first [`EMU_CHECKS`] edited outputs
/// (in the given, seeded order) under the emulator.
pub fn verify(served: Vec<Served>, script: &str) -> Report {
    let mut emu_left = EMU_CHECKS;
    let mut queue: Vec<(Served, bool)> = served
        .into_iter()
        .map(|item| {
            let emu = emu_left > 0 && (item.op == "instrument" || item.op == "edit");
            emu_left -= usize::from(emu);
            (item, emu)
        })
        .collect();
    queue.reverse();
    let queue = Mutex::new(queue);
    let reports: Vec<Report> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut report = Report::default();
                    loop {
                        let next = queue.lock().expect("check queue lock").pop();
                        let Some((item, emu)) = next else { break };
                        check_one(&item, script, emu, &mut report);
                    }
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut total = Report::default();
    for r in reports {
        total.absorb(r);
    }
    total
}

fn check_one(item: &Served, script: &str, emu: bool, report: &mut Report) {
    report.compared += 1;
    match cold_body(&item.wef, item.op, script) {
        Ok(expected) if expected == item.body => {}
        Ok(_) => {
            report.mismatched += 1;
            report.fail(
                item.id,
                format!("request {}: {} differs from a cold run", item.id, item.op),
            );
        }
        Err(e) => {
            report.mismatched += 1;
            report.fail(
                item.id,
                format!("request {}: cold {} failed: {e}", item.id, item.op),
            );
        }
    }
    if !emu {
        return;
    }
    let original = Image::from_bytes(&item.wef).ok();
    let Some(before) = original.as_ref().and_then(|i| emulate(i, EMU_STEP_LIMIT)) else {
        report.emu_skipped += 1;
        return;
    };
    report.emu_checked += 1;
    let after = Image::from_bytes(&item.body)
        .ok()
        .and_then(|edited| emulate(&edited, EMU_STEP_LIMIT * 8));
    if after.as_ref() != Some(&before) {
        report.emu_mismatched += 1;
        report.fail(
            item.id,
            format!(
                "request {}: {} output does not behave like the original under eel-emu",
                item.id, item.op
            ),
        );
    }
}
