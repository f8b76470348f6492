//! Cross-machine service dispatch: a real server answering for a MIPS
//! image through the description-derived machine seam, and the
//! cache-separation guarantee that byte-identical text under different
//! machine tags never shares an entry.

use eel_exe::{Image, Machine, Symbol, DATA_BASE, TEXT_BASE};
use eel_serve::{CacheTier, Client, Payload, Response, Server, ServerConfig};

fn mips_wef() -> Vec<u8> {
    let w = eel_progen::Workload {
        name: "serve-machines",
        source: "
            global total;
            fn tally(n) {
                var s = 0;
                while (n > 0) { s = s + n % 3; n = n - 1; }
                return s;
            }
            fn main() {
                var i;
                total = 0;
                for (i = 1; i < 15; i = i + 1) { total = total + tally(i); print(total); }
                return total & 63;
            }
        "
        .into(),
    };
    eel_progen::compile_machine(&w, eel_cc::Personality::Gcc, Machine::Mips)
        .expect("compile mips workload")
        .to_bytes()
}

fn expect_ok(resp: Response) -> (CacheTier, Vec<u8>, Option<Machine>) {
    match resp {
        Response::Ok {
            tier,
            body,
            machine,
            ..
        } => (tier, body, machine),
        other => panic!("expected Ok, got {other:?}"),
    }
}

/// The `machine-smoke` pass: stat, disasm, cfg-summary, liveness, and
/// instrument all answer for a MIPS image, with machine-appropriate
/// content, the machine tag on the wire, and behavior preserved by the
/// instrumented executable. The write path rejects cleanly.
#[test]
fn mips_image_is_served_through_the_machine_seam() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = Client::connect(server.local_addr().to_string());
    let wef = mips_wef();

    let (tier, body, machine) = expect_ok(
        client
            .op("stat", Payload::Inline(wef.clone()))
            .expect("stat"),
    );
    assert!(!tier.is_hit(), "first stat computes");
    assert_eq!(machine, Some(Machine::Mips), "machine tag rides the wire");
    let stat = String::from_utf8(body).unwrap();
    assert!(stat.contains("machine: mips"), "{stat}");
    assert!(stat.contains("discovery: symbols"), "{stat}");

    let (_, body, _) = expect_ok(
        client
            .op("disasm", Payload::Inline(wef.clone()))
            .expect("disasm"),
    );
    let listing = String::from_utf8(body).unwrap();
    assert!(listing.contains("<main>"), "{listing}");
    for mnemonic in ["addiu", "jal", "sw"] {
        assert!(listing.contains(mnemonic), "missing {mnemonic}:\n{listing}");
    }
    assert!(
        !listing.contains("sethi"),
        "sparc mnemonics in mips listing"
    );

    let (_, body, _) = expect_ok(
        client
            .op("cfg-summary", Payload::Inline(wef.clone()))
            .expect("cfg-summary"),
    );
    let summary = String::from_utf8(body).unwrap();
    assert!(summary.contains("TOTAL: routines="), "{summary}");

    let (_, body, _) = expect_ok(
        client
            .op("liveness", Payload::Inline(wef.clone()))
            .expect("liveness"),
    );
    let live = String::from_utf8(body).unwrap();
    assert!(live.contains("entry-live-in="), "{live}");

    // Instrument returns a runnable MIPS executable with unchanged
    // observable behavior.
    let original = eel_emu::run_image(&Image::from_bytes(&wef).unwrap()).expect("run original");
    let (_, body, machine) = expect_ok(
        client
            .op("instrument", Payload::Inline(wef.clone()))
            .expect("instrument"),
    );
    assert_eq!(machine, Some(Machine::Mips));
    let edited = Image::from_bytes(&body).expect("instrumented wef parses");
    assert_eq!(edited.machine, Machine::Mips);
    let outcome = eel_emu::run_image(&edited).expect("run instrumented");
    assert_eq!(outcome.exit_code, original.exit_code);
    assert_eq!(outcome.output, original.output);

    // The command-script write path is sparc-only and says so.
    match client.edit(wef, "counter main\napply\n").expect("edit rpc") {
        Response::Err(e) => assert!(e.contains("sparc-only"), "{e}"),
        other => panic!("edit on mips must fail, got {other:?}"),
    }

    drop(client);
    server.shutdown();
    server.wait();
}

/// Identical text under different machine tags is two different
/// programs: the content hash covers the header flags word, so the
/// second machine's request computes fresh instead of hitting the first
/// machine's cache entry — and reports its own backend.
#[test]
fn byte_identical_text_does_not_share_cache_entries() {
    // A fabricated image whose three words are valid under both
    // decoders (addu / jr $ra / nop), with one named routine.
    let mut sparc = Image::new(TEXT_BASE, DATA_BASE);
    for w in [0x0085_1021u32, 0x03e0_0008, 0] {
        sparc.text.extend_from_slice(&w.to_be_bytes());
    }
    sparc.entry = TEXT_BASE;
    sparc.symbols.push(Symbol::routine("f", TEXT_BASE));
    let mips = sparc.clone().with_machine(Machine::Mips);
    assert_eq!(sparc.text, mips.text);
    let (sparc_wef, mips_wef) = (sparc.to_bytes(), mips.to_bytes());
    assert_ne!(sparc_wef, mips_wef, "the tag lives in the header");

    let server = Server::start(ServerConfig::default()).expect("start server");
    let client = Client::connect(server.local_addr().to_string());

    let (tier, sparc_body, machine) = expect_ok(
        client
            .op("stat", Payload::Inline(sparc_wef.clone()))
            .expect("stat sparc"),
    );
    assert!(!tier.is_hit());
    assert_eq!(machine, Some(Machine::Sparc));
    let (tier, _, _) = expect_ok(
        client
            .op("stat", Payload::Inline(sparc_wef))
            .expect("stat sparc warm"),
    );
    assert!(tier.is_hit(), "same bytes, same machine: a cache hit");

    // Same text, different tag: a miss, served by the other backend.
    let (tier, mips_body, machine) = expect_ok(
        client
            .op("stat", Payload::Inline(mips_wef))
            .expect("stat mips"),
    );
    assert!(!tier.is_hit(), "the machine tag separates cache entries");
    assert_eq!(machine, Some(Machine::Mips));
    assert_ne!(sparc_body, mips_body);
    let (sparc_stat, mips_stat) = (
        String::from_utf8(sparc_body).unwrap(),
        String::from_utf8(mips_body).unwrap(),
    );
    assert!(sparc_stat.contains("machine: sparc"), "{sparc_stat}");
    assert!(mips_stat.contains("machine: mips"), "{mips_stat}");

    drop(client);
    server.shutdown();
    server.wait();
}

/// A MIPS transfer in another transfer's delay slot is the shape the
/// shared CFG builder rejects on every machine: the CFG ops answer with
/// its error, and `stat`, which builds no CFG, still answers.
#[test]
fn mips_transfer_in_a_delay_slot_fails_the_cfg_ops_only() {
    let mut image = Image::new(TEXT_BASE, DATA_BASE).with_machine(Machine::Mips);
    // beq $0, $0, +2; beq $0, $0, +1 (in the slot); nop; jr $31; nop
    for w in [0x1000_0002u32, 0x1000_0001, 0, 0x03e0_0008, 0] {
        image.text.extend_from_slice(&w.to_be_bytes());
    }
    image.symbols.push(Symbol::routine("f", TEXT_BASE));
    let analysis = eel_core::Analysis::compute(std::sync::Arc::new(image)).expect("analyze");
    for op in ["disasm", "cfg-summary", "liveness"] {
        let e = eel_serve::run_op(op, &analysis).unwrap_err();
        assert!(e.contains("delay slot"), "{op}: {e}");
        assert!(e.contains(&format!("{:#010x}", TEXT_BASE + 4)), "{op}: {e}");
    }
    let stat = String::from_utf8(eel_serve::run_op("stat", &analysis).expect("stat")).unwrap();
    assert!(stat.contains("machine: mips"), "{stat}");
}
