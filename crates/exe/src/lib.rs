//! # eel-exe: the WEF executable file format
//!
//! EEL needs executables to edit. The paper's EEL read SunOS/Solaris
//! `a.out`/ELF files through GNU BFD; this crate plays both roles: it
//! defines **WEF** (Wisconsin Executable Format), a simple fully-linked
//! big-endian executable format, and provides the reader/writer layer that
//! isolates the rest of the system from file-format details (§4's "library
//! to read and write Unix executable files").
//!
//! A WEF image has a text segment, a data segment, an entry point, and a
//! symbol table. Symbol tables can be *stripped* — EEL's §3.1 analysis must
//! then discover routines from the program's entry point and call graph —
//! and deliberately model the paper's complaints about real symbol tables:
//! they may contain debugging and temporary labels, data tables in the text
//! segment carry entries "indistinguishable from a routine's", and multiple
//! entry points are never recorded.
//!
//! ## Example
//!
//! ```
//! use eel_exe::{Image, Symbol, SymbolKind};
//!
//! let mut image = Image::new(0x10000, 0x40000);
//! image.text = vec![0x01, 0x00, 0x00, 0x00]; // one nop
//! image.entry = 0x10000;
//! image.symbols.push(Symbol::routine("main", 0x10000));
//! let bytes = image.to_bytes();
//! let back = Image::from_bytes(&bytes)?;
//! assert_eq!(back.symbols[0].name, "main");
//! assert_eq!(back.word_at(0x10000), Some(0x01000000));
//! # let _ = SymbolKind::Routine;
//! # Ok::<(), eel_exe::WefError>(())
//! ```

use std::fmt;
use std::path::Path;

/// Default load address of the text segment.
pub const TEXT_BASE: u32 = 0x0001_0000;

/// Default load address of the data segment.
pub const DATA_BASE: u32 = 0x0040_0000;

/// Magic number identifying a WEF file (`"WEF1"` big-endian).
pub const MAGIC: u32 = 0x5745_4631;

/// The target machine of a WEF image.
///
/// Encoded in the low byte of the header's flags word (offset 4). The
/// word was written as zero by every earlier WEF emitter and ignored by
/// every earlier reader, so tag value 0 = SPARC keeps old images valid
/// and old readers keep accepting new SPARC images — the tag is a
/// backward-compatible extension, not a version bump.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Machine {
    /// The SPARC-like ISA of `eel-isa` (tag byte 0).
    #[default]
    Sparc,
    /// MIPS-I, derived from `crates/spawn/descriptions/mips.spawn` (tag 1).
    Mips,
    /// Alpha, reserved for the `alpha.spawn` description (tag 2).
    Alpha,
}

impl Machine {
    /// The tag byte stored in the header flags word.
    pub fn to_byte(self) -> u8 {
        match self {
            Machine::Sparc => 0,
            Machine::Mips => 1,
            Machine::Alpha => 2,
        }
    }

    /// Decodes a tag byte; `None` for unassigned values.
    pub fn from_byte(b: u8) -> Option<Machine> {
        Some(match b {
            0 => Machine::Sparc,
            1 => Machine::Mips,
            2 => Machine::Alpha,
            _ => return None,
        })
    }

    /// Lower-case machine name as printed by tools and the `stat` op.
    pub fn name(self) -> &'static str {
        match self {
            Machine::Sparc => "sparc",
            Machine::Mips => "mips",
            Machine::Alpha => "alpha",
        }
    }

    /// Parses a machine name as accepted by `--machine` flags.
    pub fn from_name(name: &str) -> Option<Machine> {
        Some(match name {
            "sparc" => Machine::Sparc,
            "mips" => Machine::Mips,
            "alpha" => Machine::Alpha,
            _ => return None,
        })
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors arising from reading or validating a WEF image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WefError {
    /// The file does not start with [`MAGIC`].
    BadMagic(u32),
    /// The file is shorter than its headers claim.
    Truncated {
        /// What the reader was trying to read.
        what: &'static str,
    },
    /// A symbol's name offset points outside the string table.
    BadStringOffset(u32),
    /// A header field is inconsistent (overlapping segments, misaligned
    /// addresses, entry outside text).
    Malformed(String),
    /// An underlying I/O error (message only, to keep the error `Clone`).
    Io(String),
}

impl fmt::Display for WefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WefError::BadMagic(m) => write!(f, "bad magic {m:#010x}, expected WEF1"),
            WefError::Truncated { what } => write!(f, "truncated file while reading {what}"),
            WefError::BadStringOffset(o) => write!(f, "symbol name offset {o} out of range"),
            WefError::Malformed(msg) => write!(f, "malformed image: {msg}"),
            WefError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for WefError {}

impl From<std::io::Error> for WefError {
    fn from(e: std::io::Error) -> WefError {
        WefError::Io(e.to_string())
    }
}

/// What a symbol names. Real symbol tables conflate these — EEL's §3.1
/// refinement exists precisely because `Routine` cannot be trusted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SymbolKind {
    /// Claims to name a routine in the text segment.
    Routine,
    /// A data object.
    Object,
    /// An internal label (branch target, loop head).
    Label,
    /// Compiler debugging cruft.
    Debug,
    /// A temporary the compiler forgot to discard.
    Temp,
}

impl SymbolKind {
    fn to_byte(self) -> u8 {
        match self {
            SymbolKind::Routine => 0,
            SymbolKind::Object => 1,
            SymbolKind::Label => 2,
            SymbolKind::Debug => 3,
            SymbolKind::Temp => 4,
        }
    }

    fn from_byte(b: u8) -> Option<SymbolKind> {
        Some(match b {
            0 => SymbolKind::Routine,
            1 => SymbolKind::Object,
            2 => SymbolKind::Label,
            3 => SymbolKind::Debug,
            4 => SymbolKind::Temp,
            _ => return None,
        })
    }
}

/// A symbol-table entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Symbol {
    /// The symbol's name.
    pub name: String,
    /// Its address.
    pub value: u32,
    /// Extent in bytes; 0 when unknown (common in real symbol tables —
    /// §3.1 notes tables "record only the starting point of a routine").
    pub size: u32,
    /// What the table claims this names.
    pub kind: SymbolKind,
    /// Externally visible?
    pub global: bool,
}

impl Symbol {
    /// A global routine symbol with unknown size.
    pub fn routine(name: &str, value: u32) -> Symbol {
        Symbol {
            name: name.to_string(),
            value,
            size: 0,
            kind: SymbolKind::Routine,
            global: true,
        }
    }

    /// A global data-object symbol.
    pub fn object(name: &str, value: u32, size: u32) -> Symbol {
        Symbol {
            name: name.to_string(),
            value,
            size,
            kind: SymbolKind::Object,
            global: true,
        }
    }

    /// A local label.
    pub fn label(name: &str, value: u32) -> Symbol {
        Symbol {
            name: name.to_string(),
            value,
            size: 0,
            kind: SymbolKind::Label,
            global: false,
        }
    }
}

/// A fully-linked executable image: text, data, entry point, symbols.
///
/// This is the in-memory form; [`Image::to_bytes`]/[`Image::from_bytes`]
/// and [`Image::write_file`]/[`Image::read_file`] convert to the on-disk
/// encoding.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Image {
    /// Program entry point (must lie in text).
    pub entry: u32,
    /// Load address of the text segment (word-aligned).
    pub text_addr: u32,
    /// Text segment contents (instructions, and possibly embedded data
    /// tables — EEL must cope).
    pub text: Vec<u8>,
    /// Load address of the data segment.
    pub data_addr: u32,
    /// Data segment contents.
    pub data: Vec<u8>,
    /// Extra zero-initialized bytes logically following `data` (bss).
    pub bss_size: u32,
    /// The symbol table; empty when stripped.
    pub symbols: Vec<Symbol>,
    /// The target machine; [`Machine::Sparc`] for every pre-tag image.
    pub machine: Machine,
}

impl Image {
    /// Creates an empty image with the given segment load addresses.
    pub fn new(text_addr: u32, data_addr: u32) -> Image {
        Image {
            entry: text_addr,
            text_addr,
            text: Vec::new(),
            data_addr,
            data: Vec::new(),
            bss_size: 0,
            symbols: Vec::new(),
            machine: Machine::Sparc,
        }
    }

    /// Sets the machine tag, builder-style.
    pub fn with_machine(mut self, machine: Machine) -> Image {
        self.machine = machine;
        self
    }

    /// Is this image stripped (no symbols at all)?
    pub fn is_stripped(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Removes the entire symbol table, as `strip(1)` would.
    pub fn strip(&mut self) {
        self.symbols.clear();
    }

    /// End address (exclusive) of the text segment.
    pub fn text_end(&self) -> u32 {
        self.text_addr + self.text.len() as u32
    }

    /// End address (exclusive) of the data segment including bss.
    pub fn data_end(&self) -> u32 {
        self.data_addr + self.data.len() as u32 + self.bss_size
    }

    /// Does `addr` fall inside the text segment?
    pub fn in_text(&self, addr: u32) -> bool {
        addr >= self.text_addr && addr < self.text_end()
    }

    /// Does `addr` fall inside the data segment (including bss)?
    pub fn in_data(&self, addr: u32) -> bool {
        addr >= self.data_addr && addr < self.data_end()
    }

    /// Reads the big-endian word at an absolute address from whichever
    /// segment contains it. Returns `None` outside both segments or when
    /// unaligned; bss addresses read as `Some(0)`.
    pub fn word_at(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let (base, seg) = if self.in_text(addr) {
            (self.text_addr, &self.text)
        } else if self.in_data(addr) {
            if addr >= self.data_addr + self.data.len() as u32 {
                return Some(0);
            }
            (self.data_addr, &self.data)
        } else {
            return None;
        };
        let off = (addr - base) as usize;
        let bytes = seg.get(off..off + 4)?;
        Some(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Overwrites the big-endian word at an absolute address in place.
    /// Returns `false` if the address is not a writable word in text or
    /// initialized data.
    pub fn patch_word(&mut self, addr: u32, value: u32) -> bool {
        if !addr.is_multiple_of(4) {
            return false;
        }
        let (base, seg) = if self.in_text(addr) {
            (self.text_addr, &mut self.text)
        } else if addr >= self.data_addr && addr + 4 <= self.data_addr + self.data.len() as u32 {
            (self.data_addr, &mut self.data)
        } else {
            return false;
        };
        let off = (addr - base) as usize;
        if off + 4 > seg.len() {
            return false;
        }
        seg[off..off + 4].copy_from_slice(&value.to_be_bytes());
        true
    }

    /// Iterates the text segment as `(address, word)` pairs.
    pub fn text_words(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.text.chunks_exact(4).enumerate().map(move |(i, c)| {
            (
                self.text_addr + 4 * i as u32,
                u32::from_be_bytes([c[0], c[1], c[2], c[3]]),
            )
        })
    }

    /// Finds the first symbol with this exact name.
    pub fn find_symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Checks structural invariants: aligned, non-overlapping segments and
    /// an entry point inside text.
    ///
    /// # Errors
    ///
    /// Returns [`WefError::Malformed`] describing the first violation.
    pub fn validate(&self) -> Result<(), WefError> {
        if !self.text_addr.is_multiple_of(4) {
            return Err(WefError::Malformed("text segment misaligned".into()));
        }
        if !self.text.len().is_multiple_of(4) {
            return Err(WefError::Malformed("text size not a multiple of 4".into()));
        }
        // Segment ends are u32 addresses: a segment that runs past the
        // top of the address space has no end to compute.
        let fits = |base: u32, len: u64| u64::from(base) + len <= u64::from(u32::MAX);
        if !fits(self.text_addr, self.text.len() as u64) {
            return Err(WefError::Malformed(
                "text segment wraps the address space".into(),
            ));
        }
        if !fits(
            self.data_addr,
            self.data.len() as u64 + u64::from(self.bss_size),
        ) {
            return Err(WefError::Malformed(
                "data segment wraps the address space".into(),
            ));
        }
        if !self.entry.is_multiple_of(4) || !self.in_text(self.entry) {
            return Err(WefError::Malformed(format!(
                "entry {:#x} not a text address",
                self.entry
            )));
        }
        let t = (self.text_addr as u64, self.text_end() as u64);
        let d = (self.data_addr as u64, self.data_end() as u64);
        if t.0 < d.1 && d.0 < t.1 {
            return Err(WefError::Malformed("text and data segments overlap".into()));
        }
        Ok(())
    }

    /// Serializes to the on-disk WEF encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _obs = eel_obs::span("exe.emit");
        let mut strtab = Vec::<u8>::new();
        let mut symbytes = Vec::<u8>::new();
        for sym in &self.symbols {
            let off = strtab.len() as u32;
            strtab.extend_from_slice(sym.name.as_bytes());
            strtab.push(0);
            symbytes.extend_from_slice(&off.to_be_bytes());
            symbytes.extend_from_slice(&sym.value.to_be_bytes());
            symbytes.extend_from_slice(&sym.size.to_be_bytes());
            symbytes.push(sym.kind.to_byte());
            symbytes.push(sym.global as u8);
            symbytes.extend_from_slice(&[0, 0]);
        }
        let mut out = Vec::with_capacity(40 + self.text.len() + self.data.len());
        for word in [
            MAGIC,
            self.machine.to_byte() as u32, // flags: machine tag in the low byte
            self.entry,
            self.text_addr,
            self.text.len() as u32,
            self.data_addr,
            self.data.len() as u32,
            self.bss_size,
            self.symbols.len() as u32,
            strtab.len() as u32,
        ] {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out.extend_from_slice(&self.text);
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&symbytes);
        out.extend_from_slice(&strtab);
        out
    }

    /// Parses the on-disk WEF encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`WefError`] describing the first structural problem; a
    /// successfully parsed image is *not* [`Image::validate`]d (callers
    /// that need semantic well-formedness validate explicitly).
    pub fn from_bytes(bytes: &[u8]) -> Result<Image, WefError> {
        let _obs = eel_obs::span("exe.parse");
        fn take_u32(bytes: &[u8], at: &mut usize, what: &'static str) -> Result<u32, WefError> {
            let slice = bytes
                .get(*at..*at + 4)
                .ok_or(WefError::Truncated { what })?;
            *at += 4;
            Ok(u32::from_be_bytes([slice[0], slice[1], slice[2], slice[3]]))
        }
        let mut at = 0;
        let magic = take_u32(bytes, &mut at, "magic")?;
        if magic != MAGIC {
            return Err(WefError::BadMagic(magic));
        }
        let flags = take_u32(bytes, &mut at, "flags")?;
        if flags & !0xff != 0 {
            return Err(WefError::Malformed(format!(
                "reserved flag bits set: {flags:#010x}"
            )));
        }
        let machine = Machine::from_byte((flags & 0xff) as u8)
            .ok_or_else(|| WefError::Malformed(format!("unknown machine tag {}", flags & 0xff)))?;
        let entry = take_u32(bytes, &mut at, "entry")?;
        let text_addr = take_u32(bytes, &mut at, "text_addr")?;
        let text_size = take_u32(bytes, &mut at, "text_size")? as usize;
        let data_addr = take_u32(bytes, &mut at, "data_addr")?;
        let data_size = take_u32(bytes, &mut at, "data_size")? as usize;
        let bss_size = take_u32(bytes, &mut at, "bss_size")?;
        let sym_count = take_u32(bytes, &mut at, "sym_count")? as usize;
        let str_size = take_u32(bytes, &mut at, "strtab_size")? as usize;

        let text = bytes
            .get(
                at..at.checked_add(text_size).ok_or(WefError::Truncated {
                    what: "text segment",
                })?,
            )
            .ok_or(WefError::Truncated {
                what: "text segment",
            })?
            .to_vec();
        at += text_size;
        let data = bytes
            .get(
                at..at.checked_add(data_size).ok_or(WefError::Truncated {
                    what: "data segment",
                })?,
            )
            .ok_or(WefError::Truncated {
                what: "data segment",
            })?
            .to_vec();
        at += data_size;

        let symtab_bytes = sym_count.checked_mul(16).ok_or(WefError::Truncated {
            what: "symbol table",
        })?;
        let symtab = bytes
            .get(
                at..at.checked_add(symtab_bytes).ok_or(WefError::Truncated {
                    what: "symbol table",
                })?,
            )
            .ok_or(WefError::Truncated {
                what: "symbol table",
            })?;
        at += symtab_bytes;
        let strtab = bytes
            .get(
                at..at.checked_add(str_size).ok_or(WefError::Truncated {
                    what: "string table",
                })?,
            )
            .ok_or(WefError::Truncated {
                what: "string table",
            })?;

        let mut symbols = Vec::with_capacity(sym_count.min(1 << 16));
        for entry_bytes in symtab.chunks_exact(16) {
            let name_off = u32::from_be_bytes(entry_bytes[0..4].try_into().unwrap());
            let value = u32::from_be_bytes(entry_bytes[4..8].try_into().unwrap());
            let size = u32::from_be_bytes(entry_bytes[8..12].try_into().unwrap());
            let kind = SymbolKind::from_byte(entry_bytes[12]).ok_or_else(|| {
                WefError::Malformed(format!("bad symbol kind {}", entry_bytes[12]))
            })?;
            let global = entry_bytes[13] != 0;
            let name_bytes = strtab
                .get(name_off as usize..)
                .ok_or(WefError::BadStringOffset(name_off))?;
            let end = name_bytes
                .iter()
                .position(|&b| b == 0)
                .ok_or(WefError::BadStringOffset(name_off))?;
            let name = String::from_utf8_lossy(&name_bytes[..end]).into_owned();
            symbols.push(Symbol {
                name,
                value,
                size,
                kind,
                global,
            });
        }

        Ok(Image {
            entry,
            text_addr,
            text,
            data_addr,
            data,
            bss_size,
            symbols,
            machine,
        })
    }

    /// Writes the image to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`WefError::Io`].
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> Result<(), WefError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads an image from a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and parse failures.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Image, WefError> {
        let _obs = eel_obs::span("exe.load");
        Image::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image {
        let mut img = Image::new(0x10000, 0x40000);
        img.text = vec![0; 16];
        img.text[0..4].copy_from_slice(&0x01000000u32.to_be_bytes());
        img.data = vec![1, 2, 3, 4, 5, 6, 7, 8];
        img.bss_size = 32;
        img.entry = 0x10004;
        img.symbols = vec![
            Symbol::routine("main", 0x10000),
            Symbol::object("table", 0x40000, 8),
            Symbol::label("L1", 0x10008),
            Symbol {
                name: "Ltmp.42".into(),
                value: 0x1000c,
                size: 0,
                kind: SymbolKind::Temp,
                global: false,
            },
        ];
        img
    }

    #[test]
    fn round_trip() {
        let img = sample();
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn validate_accepts_sample() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_entry_outside_text() {
        let mut img = sample();
        img.entry = 0x40000;
        assert!(matches!(img.validate(), Err(WefError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_overlap() {
        let mut img = sample();
        img.data_addr = 0x10004;
        assert!(matches!(img.validate(), Err(WefError::Malformed(_))));
    }

    #[test]
    fn word_access_across_segments() {
        let img = sample();
        assert_eq!(img.word_at(0x10000), Some(0x01000000));
        assert_eq!(img.word_at(0x40000), Some(0x01020304));
        assert_eq!(img.word_at(0x40004), Some(0x05060708));
        // bss reads as zero
        assert_eq!(img.word_at(0x40008), Some(0));
        // outside everything
        assert_eq!(img.word_at(0x90000), None);
        // misaligned
        assert_eq!(img.word_at(0x10002), None);
    }

    #[test]
    fn patch_word_updates_text_and_data() {
        let mut img = sample();
        assert!(img.patch_word(0x10004, 0xdeadbeef));
        assert_eq!(img.word_at(0x10004), Some(0xdeadbeef));
        assert!(img.patch_word(0x40004, 0xcafef00d));
        assert_eq!(img.word_at(0x40004), Some(0xcafef00d));
        // bss is not patchable (it has no backing bytes)
        assert!(!img.patch_word(0x40008, 1));
        assert!(!img.patch_word(0x10001, 1));
    }

    #[test]
    fn text_words_enumerates_in_order() {
        let img = sample();
        let words: Vec<_> = img.text_words().collect();
        assert_eq!(words.len(), 4);
        assert_eq!(words[0], (0x10000, 0x01000000));
        assert_eq!(words[3].0, 0x1000c);
    }

    #[test]
    fn strip_removes_symbols() {
        let mut img = sample();
        assert!(!img.is_stripped());
        img.strip();
        assert!(img.is_stripped());
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert!(back.is_stripped());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Image::from_bytes(&bytes),
            Err(WefError::BadMagic(_))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let bytes = sample().to_bytes();
        for cut in [2, 8, 39, 41, 50, bytes.len() - 1] {
            let err = Image::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WefError::Truncated { .. } | WefError::BadStringOffset(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn machine_tag_round_trips() {
        for machine in [Machine::Sparc, Machine::Mips, Machine::Alpha] {
            let img = sample().with_machine(machine);
            let bytes = img.to_bytes();
            assert_eq!(bytes[4..8], [0, 0, 0, machine.to_byte()]);
            let back = Image::from_bytes(&bytes).unwrap();
            assert_eq!(back.machine, machine);
            assert_eq!(back, img);
        }
    }

    #[test]
    fn zero_flags_word_reads_as_sparc() {
        // Pre-tag WEF emitters wrote flags = 0; those images must keep
        // loading, as SPARC.
        let mut bytes = sample().with_machine(Machine::Mips).to_bytes();
        bytes[4..8].copy_from_slice(&[0, 0, 0, 0]);
        let back = Image::from_bytes(&bytes).unwrap();
        assert_eq!(back.machine, Machine::Sparc);
    }

    #[test]
    fn segments_that_wrap_the_address_space_are_malformed() {
        let mut img = sample();
        img.text_addr = u32::MAX - 7;
        img.entry = img.text_addr;
        assert!(matches!(img.validate(), Err(WefError::Malformed(_))));
        let mut img = sample();
        img.bss_size = u32::MAX - 0x40000;
        assert!(matches!(img.validate(), Err(WefError::Malformed(_))));
        // Ending exactly at the top of the address space still fits.
        img.bss_size = u32::MAX - 0x40000 - 8;
        assert_eq!(img.validate(), Ok(()));
    }

    #[test]
    fn unknown_machine_tag_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[7] = 0x7f;
        assert!(matches!(
            Image::from_bytes(&bytes),
            Err(WefError::Malformed(_))
        ));
        // Reserved high bits of the flags word are also rejected, so they
        // stay available for future extensions.
        let mut bytes = sample().to_bytes();
        bytes[4] = 1;
        assert!(matches!(
            Image::from_bytes(&bytes),
            Err(WefError::Malformed(_))
        ));
    }

    #[test]
    fn machine_names_round_trip() {
        for machine in [Machine::Sparc, Machine::Mips, Machine::Alpha] {
            assert_eq!(Machine::from_name(machine.name()), Some(machine));
            assert_eq!(Machine::from_byte(machine.to_byte()), Some(machine));
            assert_eq!(machine.to_string(), machine.name());
        }
        assert_eq!(Machine::from_name("vax"), None);
        assert_eq!(Machine::from_byte(3), None);
    }

    #[test]
    fn find_symbol_by_name() {
        let img = sample();
        assert_eq!(img.find_symbol("table").unwrap().value, 0x40000);
        assert!(img.find_symbol("nope").is_none());
    }

    #[test]
    fn file_round_trip() {
        let img = sample();
        let dir = std::env::temp_dir().join("eel-exe-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.wef");
        img.write_file(&path).unwrap();
        let back = Image::read_file(&path).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn errors_display() {
        // C-GOOD-ERR: every error formats meaningfully.
        for err in [
            WefError::BadMagic(1),
            WefError::Truncated { what: "x" },
            WefError::BadStringOffset(3),
            WefError::Malformed("m".into()),
            WefError::Io("io".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
