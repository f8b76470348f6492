//! The `eeledit` command language.
//!
//! A script is a sequence of newline-separated statements. Snippet bodies
//! are brace-delimited and may span lines; inside a body, `;` separates
//! instructions (the assembler sees one instruction per line). Comments
//! run from `#` (or `!` / `//`, the assembler's comment leaders are
//! accepted uniformly) to end of line — but only *outside* a brace body,
//! where the assembler strips its own.
//!
//! ```text
//! # count how often main's second block runs
//! counter main:b1
//! insert-before fib { add %g6, 1, %g6 } scavenge %g6
//! delete @0x40000104
//! replace main:b0:i2 { add %o0, 2, %o1 ; add %o1, -1, %o1 }
//! dry-run
//! apply
//! ```
//!
//! Grammar (one statement per line, case-sensitive):
//!
//! ```text
//! statement  := list | show NAME | undo | revert | dry-run | apply
//!             | delete TARGET
//!             | counter TARGET
//!             | (insert-before | insert-after | replace) TARGET BODY [SCAVENGE]
//! TARGET     := @ADDR | NAME | NAME:bN | NAME:bN:iM
//! BODY       := '{' asm ( ';' asm )* '}'
//! SCAVENGE   := 'scavenge' %reg+
//! ```

use crate::EditError;
use eel_isa::Reg;
use std::fmt;

/// Where an edit lands: a raw text address, a routine's first instruction,
/// the first instruction of the routine's N-th normal block (in address
/// order), or the M-th instruction of that block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// `@0x40000120` or `@1073742112` — an absolute text address.
    Addr(u32),
    /// `main` — the routine's entry instruction.
    Routine(String),
    /// `main:b2` — first instruction of the routine's block #2.
    Block {
        /// Routine name.
        routine: String,
        /// Normal-block index in address order, from 0.
        block: usize,
    },
    /// `main:b2:i5` — instruction #5 of block #2.
    Insn {
        /// Routine name.
        routine: String,
        /// Normal-block index in address order, from 0.
        block: usize,
        /// Instruction index within the block, from 0.
        insn: usize,
    },
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Addr(a) => write!(f, "@{a:#010x}"),
            Target::Routine(r) => write!(f, "{r}"),
            Target::Block { routine, block } => write!(f, "{routine}:b{block}"),
            Target::Insn {
                routine,
                block,
                insn,
            } => write!(f, "{routine}:b{block}:i{insn}"),
        }
    }
}

/// One parsed session command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `list` — routines with pending edit counts.
    List,
    /// `show NAME` — the routine's blocks and instructions, with the
    /// `bN:iM` coordinates other commands accept.
    Show(String),
    /// `insert-before TARGET { asm } [scavenge %r..]`
    InsertBefore {
        /// Where the snippet lands.
        target: Target,
        /// Snippet body, one instruction per line.
        asm: String,
        /// Registers the snippet asks the scavenger to rename.
        scavenge: Vec<Reg>,
    },
    /// `insert-after TARGET { asm } [scavenge %r..]`
    InsertAfter {
        /// Where the snippet lands.
        target: Target,
        /// Snippet body, one instruction per line.
        asm: String,
        /// Registers the snippet asks the scavenger to rename.
        scavenge: Vec<Reg>,
    },
    /// `delete TARGET`
    Delete {
        /// The instruction to remove.
        target: Target,
    },
    /// `replace TARGET { asm } [scavenge %r..]` — delete the instruction
    /// and splice the snippet in its place.
    Replace {
        /// The instruction to replace.
        target: Target,
        /// Snippet body, one instruction per line.
        asm: String,
        /// Registers the snippet asks the scavenger to rename.
        scavenge: Vec<Reg>,
    },
    /// `counter TARGET` — reserve a data word and splice an increment of
    /// it before the target (the qpt building block, as one command).
    Counter {
        /// The instruction the counter fires before.
        target: Target,
    },
    /// `undo` — drop the most recent edit.
    Undo,
    /// `revert` — drop every pending edit.
    Revert,
    /// `dry-run` — lay the edited program out and report the layout
    /// without committing anything.
    DryRun,
    /// `apply` — lay out and produce the edited image.
    Apply,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn body(asm: &str) -> String {
            asm.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .collect::<Vec<_>>()
                .join(" ; ")
        }
        fn scav(regs: &[Reg]) -> String {
            if regs.is_empty() {
                String::new()
            } else {
                let list: Vec<String> = regs.iter().map(|r| r.to_string()).collect();
                format!(" scavenge {}", list.join(" "))
            }
        }
        match self {
            Command::List => write!(f, "list"),
            Command::Show(r) => write!(f, "show {r}"),
            Command::InsertBefore {
                target,
                asm,
                scavenge,
            } => write!(
                f,
                "insert-before {target} {{ {} }}{}",
                body(asm),
                scav(scavenge)
            ),
            Command::InsertAfter {
                target,
                asm,
                scavenge,
            } => write!(
                f,
                "insert-after {target} {{ {} }}{}",
                body(asm),
                scav(scavenge)
            ),
            Command::Delete { target } => write!(f, "delete {target}"),
            Command::Replace {
                target,
                asm,
                scavenge,
            } => write!(f, "replace {target} {{ {} }}{}", body(asm), scav(scavenge)),
            Command::Counter { target } => write!(f, "counter {target}"),
            Command::Undo => write!(f, "undo"),
            Command::Revert => write!(f, "revert"),
            Command::DryRun => write!(f, "dry-run"),
            Command::Apply => write!(f, "apply"),
        }
    }
}

/// Whether `buf` is a complete statement: every `{` has its `}`. The
/// REPL keeps reading lines while this is false.
pub fn statement_complete(buf: &str) -> bool {
    brace_depth(buf) <= 0
}

fn brace_depth(s: &str) -> i32 {
    let mut depth = 0;
    for c in s.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Splits a script into complete statements (brace bodies may span
/// lines), discarding blank lines and whole-line comments. Returns
/// `(line_number, statement)` pairs; line numbers are 1-based and point
/// at the statement's first line.
fn split_statements(src: &str) -> Result<Vec<(usize, String)>, EditError> {
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut start = 0usize;
    for (i, raw) in src.lines().enumerate() {
        // Outside a body, strip comments here; inside, the assembler
        // strips its own (same leaders), so passing them through is safe.
        let line = if buf.is_empty() {
            strip_comment(raw)
        } else {
            raw.to_string()
        };
        if buf.is_empty() {
            if line.trim().is_empty() {
                continue;
            }
            start = i + 1;
            buf = line;
        } else {
            buf.push('\n');
            buf.push_str(&line);
        }
        if statement_complete(&buf) {
            out.push((start, std::mem::take(&mut buf)));
        }
    }
    if !buf.is_empty() {
        return Err(EditError::Parse {
            line: start,
            message: "unterminated '{' body".into(),
        });
    }
    Ok(out)
}

fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'#' | b'!' => break,
            b'/' if bytes.get(i + 1) == Some(&b'/') => break,
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// Parses a whole script into commands.
///
/// # Errors
///
/// [`EditError::Parse`] with the 1-based line number of the offending
/// statement.
pub fn parse_script(src: &str) -> Result<Vec<Command>, EditError> {
    split_statements(src)?
        .into_iter()
        .map(|(line, stmt)| parse_statement(&stmt).map_err(|e| e.at_line(line)))
        .collect()
}

/// Parses one complete statement (braces balanced). Use
/// [`statement_complete`] to decide when an interactively built buffer
/// is ready.
///
/// # Errors
///
/// [`EditError::Parse`] (line 1) when the statement is malformed.
pub fn parse_statement(stmt: &str) -> Result<Command, EditError> {
    let bad = |message: String| EditError::Parse { line: 1, message };
    let stmt = stmt.trim();
    let (head, rest) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(i) => (&stmt[..i], stmt[i..].trim_start()),
        None => (stmt, ""),
    };
    let only = |cmd: &str| -> Result<(), EditError> {
        if rest.is_empty() {
            Ok(())
        } else {
            Err(bad(format!("{cmd} takes no arguments, got {rest:?}")))
        }
    };
    match head {
        "list" => only("list").map(|()| Command::List),
        "undo" => only("undo").map(|()| Command::Undo),
        "revert" => only("revert").map(|()| Command::Revert),
        "dry-run" => only("dry-run").map(|()| Command::DryRun),
        "apply" => only("apply").map(|()| Command::Apply),
        "show" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                Err(bad("show takes exactly one routine name".into()))
            } else {
                Ok(Command::Show(rest.to_string()))
            }
        }
        "delete" => Ok(Command::Delete {
            target: parse_target(rest)?,
        }),
        "counter" => Ok(Command::Counter {
            target: parse_target(rest)?,
        }),
        "insert-before" | "insert-after" | "replace" => {
            let (target, asm, scavenge) = parse_edit_args(head, rest)?;
            Ok(match head {
                "insert-before" => Command::InsertBefore {
                    target,
                    asm,
                    scavenge,
                },
                "insert-after" => Command::InsertAfter {
                    target,
                    asm,
                    scavenge,
                },
                _ => Command::Replace {
                    target,
                    asm,
                    scavenge,
                },
            })
        }
        other => Err(bad(format!(
            "unknown command {other:?} (expected list, show, insert-before, \
             insert-after, delete, replace, counter, undo, revert, dry-run, apply)"
        ))),
    }
}

/// `TARGET { body } [scavenge %r..]` for the three snippet commands.
fn parse_edit_args(cmd: &str, rest: &str) -> Result<(Target, String, Vec<Reg>), EditError> {
    let bad = |message: String| EditError::Parse { line: 1, message };
    let open = rest
        .find('{')
        .ok_or_else(|| bad(format!("{cmd} needs a {{ ... }} snippet body")))?;
    let close = rest
        .rfind('}')
        .ok_or_else(|| bad(format!("{cmd}: unterminated snippet body")))?;
    if close < open {
        return Err(bad(format!("{cmd}: '}}' before '{{'")));
    }
    let target = parse_target(rest[..open].trim())?;
    let body = rest[open + 1..close].replace(';', "\n");
    if body.trim().is_empty() {
        return Err(bad(format!("{cmd}: empty snippet body")));
    }
    let tail = rest[close + 1..].trim();
    let scavenge = if tail.is_empty() {
        Vec::new()
    } else if let Some(regs) = tail.strip_prefix("scavenge") {
        let mut out = Vec::new();
        for tok in regs.split_whitespace() {
            out.push(
                Reg::parse(tok).ok_or_else(|| bad(format!("scavenge: bad register {tok:?}")))?,
            );
        }
        if out.is_empty() {
            return Err(bad("scavenge needs at least one register".into()));
        }
        out
    } else {
        return Err(bad(format!("{cmd}: unexpected trailing {tail:?}")));
    };
    Ok((target, body, scavenge))
}

/// Parses a target spec: `@0xADDR`, `@DECIMAL`, `name`, `name:bN`, or
/// `name:bN:iM`.
///
/// # Errors
///
/// [`EditError::Parse`] for malformed specs.
pub fn parse_target(spec: &str) -> Result<Target, EditError> {
    let bad = |message: String| EditError::Parse { line: 1, message };
    let spec = spec.trim();
    if spec.is_empty() {
        return Err(bad("missing target".into()));
    }
    if let Some(num) = spec.strip_prefix('@') {
        let addr = if let Some(hex) = num.strip_prefix("0x").or_else(|| num.strip_prefix("0X")) {
            u32::from_str_radix(hex, 16)
        } else {
            num.parse()
        }
        .map_err(|_| bad(format!("bad address {num:?}")))?;
        if addr % 4 != 0 {
            return Err(bad(format!("address {addr:#x} is not word-aligned")));
        }
        return Ok(Target::Addr(addr));
    }
    if spec.contains(char::is_whitespace) {
        return Err(bad(format!("bad target {spec:?}")));
    }
    let mut parts = spec.split(':');
    let routine = parts.next().unwrap_or_default().to_string();
    if routine.is_empty() {
        return Err(bad(format!("bad target {spec:?}")));
    }
    let index = |part: &str, prefix: char| -> Result<usize, EditError> {
        part.strip_prefix(prefix)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("expected {prefix}N, got {part:?} in {spec:?}")))
    };
    match (parts.next(), parts.next(), parts.next()) {
        (None, _, _) => Ok(Target::Routine(routine)),
        (Some(b), None, _) => Ok(Target::Block {
            routine,
            block: index(b, 'b')?,
        }),
        (Some(b), Some(i), None) => Ok(Target::Insn {
            routine,
            block: index(b, 'b')?,
            insn: index(i, 'i')?,
        }),
        (Some(_), Some(_), Some(_)) => Err(bad(format!("too many ':' in target {spec:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_parse() {
        assert_eq!(
            parse_target("@0x40000120").unwrap(),
            Target::Addr(0x40000120)
        );
        assert_eq!(parse_target("@64").unwrap(), Target::Addr(64));
        assert_eq!(
            parse_target("main").unwrap(),
            Target::Routine("main".into())
        );
        assert_eq!(
            parse_target("main:b2").unwrap(),
            Target::Block {
                routine: "main".into(),
                block: 2
            }
        );
        assert_eq!(
            parse_target("fib:b0:i3").unwrap(),
            Target::Insn {
                routine: "fib".into(),
                block: 0,
                insn: 3
            }
        );
    }

    #[test]
    fn bad_targets_are_rejected() {
        for spec in ["", "@zz", "@0x41", "main:x2", "main:b2:j1", "a:b1:i2:i3"] {
            assert!(parse_target(spec).is_err(), "{spec:?} should fail");
        }
    }

    #[test]
    fn statements_parse() {
        assert_eq!(parse_statement("list").unwrap(), Command::List);
        assert_eq!(
            parse_statement("show main").unwrap(),
            Command::Show("main".into())
        );
        let cmd =
            parse_statement("insert-before main:b1 { add %g6, 1, %g6 } scavenge %g6").unwrap();
        match cmd {
            Command::InsertBefore {
                target,
                asm,
                scavenge,
            } => {
                assert_eq!(
                    target,
                    Target::Block {
                        routine: "main".into(),
                        block: 1
                    }
                );
                assert_eq!(asm.trim(), "add %g6, 1, %g6");
                assert_eq!(scavenge, vec![Reg::parse("%g6").unwrap()]);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn semicolons_split_snippet_instructions() {
        let cmd = parse_statement("replace @64 { add %o0, 1, %o0 ; sub %o0, 1, %o0 }").unwrap();
        match cmd {
            Command::Replace { asm, .. } => {
                assert_eq!(asm.lines().filter(|l| !l.trim().is_empty()).count(), 2);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn scripts_span_lines_and_skip_comments() {
        let script =
            "# comment\nlist\n\ninsert-after main {\n  add %g6, 1, %g6\n} scavenge %g6\napply\n";
        let cmds = parse_script(script).unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[0], Command::List);
        assert!(matches!(cmds[1], Command::InsertAfter { .. }));
        assert_eq!(cmds[2], Command::Apply);
    }

    #[test]
    fn unterminated_body_reports_its_line() {
        let err = parse_script("list\ninsert-before main { add %g6, 1, %g6\n").unwrap_err();
        match err {
            EditError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("unterminated"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_statement_line() {
        let err = parse_script("list\n\nfrobnicate main\n").unwrap_err();
        match err {
            EditError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn display_round_trips() {
        for stmt in [
            "list",
            "show main",
            "delete @0x00000040",
            "counter main:b1",
            "undo",
            "revert",
            "dry-run",
            "apply",
        ] {
            let cmd = parse_statement(stmt).unwrap();
            assert_eq!(cmd.to_string(), stmt);
            assert_eq!(parse_statement(&cmd.to_string()).unwrap(), cmd);
        }
        let cmd =
            parse_statement("insert-before main:b1 { add %g6, 1, %g6 } scavenge %g6").unwrap();
        assert_eq!(parse_statement(&cmd.to_string()).unwrap(), cmd);
    }

    #[test]
    fn repl_completion_probe() {
        assert!(statement_complete("list"));
        assert!(!statement_complete("insert-before main {"));
        assert!(statement_complete("insert-before main { nop }"));
    }
}
