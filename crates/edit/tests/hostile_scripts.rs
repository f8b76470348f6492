//! Edit scripts arrive from outside (the serve `edit` op), so a mangled
//! script must come back as `Ok` or `Err`, never a panic. A seeded,
//! std-only mutation loop mangles one valid multi-statement script —
//! byte flips, truncation at every character boundary, stray braces,
//! inserted newlines and NULs — and runs every mutant through
//! `EditSession::run_script_to_image`.

use eel_core::Analysis;
use eel_edit::EditSession;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SCRIPT: &str = "# one of each edit kind, queries and controls\n\
list\n\
show helper\n\
counter main\n\
counter helper:b0\n\
insert-before helper { add %g6, 1, %g6 } scavenge %g6\n\
insert-after main:b1 {\n  add %g6, 2, %g6 ; add %g6, -2, %g6\n} scavenge %g6\n\
replace helper:b0:i0 { nop }\n\
delete main:b1:i0\n\
undo\n\
dry-run\n\
apply\n";

/// xorshift64*: a few lines of deterministic randomness, no crates.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n.max(1)
    }
}

fn analysis() -> Arc<Analysis> {
    let image = eel_cc::compile_str(
        "fn helper(x) { return x * 3 + 1; }
         fn main() {
           var i; var t = 0;
           for (i = 0; i < 5; i = i + 1) { t = t + helper(i); }
           print(t);
           return t;
         }",
        &eel_cc::Options::default(),
    )
    .expect("compile");
    Arc::new(Analysis::compute(Arc::new(image)).expect("analyze"))
}

/// Every mutant of [`SCRIPT`]: the scripts arrive as bytes, so mutation
/// works on bytes and non-UTF-8 results are read lossily.
fn mutants(rng: &mut Rng) -> Vec<String> {
    let base = SCRIPT.as_bytes();
    let mut out: Vec<Vec<u8>> = (0..base.len()).map(|end| base[..end].to_vec()).collect();
    for _ in 0..200 {
        let mut flipped = base.to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(flipped.len());
            flipped[at] ^= 1 << rng.below(8);
        }
        out.push(flipped);
    }
    for insert in [&b"{"[..], b"}", b"\n", b"\0"] {
        for _ in 0..100 {
            let mut mangled = base.to_vec();
            for _ in 0..=rng.below(2) {
                let at = rng.below(mangled.len() + 1);
                mangled.splice(at..at, insert.iter().copied());
            }
            out.push(mangled);
        }
    }
    out.iter()
        .map(|m| String::from_utf8_lossy(m).into_owned())
        .collect()
}

#[test]
fn mutated_scripts_error_instead_of_panicking() {
    let analysis = analysis();
    EditSession::from_analysis(Arc::clone(&analysis))
        .run_script_to_image(SCRIPT)
        .expect("the unmutated script runs");
    let mut rng = Rng(0x5EED_0FED_1701);
    let (mut ok, mut err) = (0, 0);
    for script in mutants(&mut rng) {
        let mut session = EditSession::from_analysis(Arc::clone(&analysis));
        match catch_unwind(AssertUnwindSafe(|| session.run_script_to_image(&script))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => err += 1,
            Err(_) => panic!("edit script panicked:\n{script:?}"),
        }
    }
    // Both outcomes occur, so the loop reaches past the parser.
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}
