//! Register names and register sets.
//!
//! EEL's analyses (liveness, slicing, register scavenging) all operate on
//! sets of *resources*: the 32 integer registers plus the integer condition
//! codes and the `Y` multiply/divide register. [`RegSet`] packs these into a
//! single `u64` bitset so dataflow transfer functions are a few machine ops.

use std::fmt;

/// A machine register or condition-code resource.
///
/// Values `0..32` are the integer registers; [`Reg::ICC`] and [`Reg::Y`] are
/// pseudo-registers so dataflow analyses can track condition codes and the
/// multiply/divide register uniformly (the paper's live-register analysis
/// tracks condition-code liveness — Blizzard's fast test sequence depends on
/// it, §5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// `%g0`: hardwired zero. Reads return 0, writes are discarded.
    pub const G0: Reg = Reg(0);
    /// `%g1`: volatile scratch; syscall number by convention.
    pub const G1: Reg = Reg(1);
    /// `%o0`: first argument / return value register.
    pub const O0: Reg = Reg(8);
    /// `%sp` (`%o6`): stack pointer.
    pub const SP: Reg = Reg(14);
    /// `%o7`: address of the `call` instruction; the return-address link.
    pub const O7: Reg = Reg(15);
    /// `%l0`: first callee-saved local.
    pub const L0: Reg = Reg(16);
    /// `%fp` (`%i6`): frame pointer.
    pub const FP: Reg = Reg(30);
    /// `%i7`: return address in a register-window regime (`ret` = `jmpl %i7+8`).
    pub const I7: Reg = Reg(31);
    /// Integer condition codes (N, Z, V, C) as a dataflow resource.
    pub const ICC: Reg = Reg(32);
    /// The `Y` register (high bits of multiply, dividend extension).
    pub const Y: Reg = Reg(33);
    /// The processor state register viewed as a whole (`rd %psr` /
    /// `wr %psr` move the condition codes in and out of a GPR; EEL
    /// snippets use this to save/restore `icc` when it is live).
    pub const PSR: Reg = Reg(34);

    /// Number of distinct register resources (32 integer + icc + y + psr
    /// — the paper's SPARC description declares `R[35]`).
    pub const COUNT: usize = 35;

    /// Returns the register's bitset index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Is this one of the 32 general-purpose integer registers?
    pub fn is_gpr(self) -> bool {
        self.0 < 32
    }

    /// The canonical assembly name (`%g0`, `%o3`, `%sp`, `%icc`, ...).
    pub fn name(self) -> String {
        self.to_string()
    }

    /// Writes the assembly name to `out` (what `Display` prints): a
    /// static spelling for every named resource.
    pub(crate) fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        match NAMES.get(self.index()) {
            Some(name) => out.write_str(name),
            None => {
                out.write_str("%r")?;
                crate::write_dec(out, self.0.into())
            }
        }
    }

    /// Parses an assembly register name. Accepts `%gN/%oN/%lN/%iN`, the
    /// aliases `%sp` and `%fp`, and raw `%rN` (0–31).
    pub fn parse(name: &str) -> Option<Reg> {
        let rest = name.strip_prefix('%')?;
        match rest {
            "sp" => return Some(Reg::SP),
            "fp" => return Some(Reg::FP),
            "icc" => return Some(Reg::ICC),
            "y" => return Some(Reg::Y),
            "psr" => return Some(Reg::PSR),
            _ => {}
        }
        if rest.len() < 2 || !rest.is_ascii() {
            return None;
        }
        let (bank, num) = rest.split_at(1);
        let n: u8 = num.parse().ok()?;
        if n > 7 && bank != "r" {
            return None;
        }
        match bank {
            "g" => Some(Reg(n)),
            "o" => Some(Reg(8 + n)),
            "l" => Some(Reg(16 + n)),
            "i" => Some(Reg(24 + n)),
            "r" if n < 32 => Some(Reg(n)),
            _ => None,
        }
    }
}

/// The spellings of the named resources, by register index: the
/// windowed banks with the `%sp`/`%fp` aliases, then `%icc`, `%y`, `%psr`.
const NAMES: [&str; Reg::COUNT] = [
    "%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7", //
    "%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%sp", "%o7", //
    "%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7", //
    "%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%fp", "%i7", //
    "%icc", "%y", "%psr",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A set of register resources, packed into a `u64` bitmask.
///
/// This is the currency of EEL's dataflow analyses: an instruction's
/// `reads()`/`writes()` are `RegSet`s, liveness is a fixpoint over
/// `RegSet`s, and snippet register allocation picks from the complement of
/// a live `RegSet`.
///
/// ```
/// use eel_isa::{Reg, RegSet};
/// let mut s = RegSet::new();
/// s.insert(Reg::O0);
/// s.insert(Reg::ICC);
/// assert!(s.contains(Reg::O0));
/// assert_eq!(s.len(), 2);
/// let t = s.without(RegSet::of(&[Reg::ICC]));
/// assert_eq!(t.iter().collect::<Vec<_>>(), vec![Reg::O0]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u64);

impl RegSet {
    /// Creates an empty set.
    pub fn new() -> RegSet {
        RegSet(0)
    }

    /// Creates a set holding the given registers.
    pub fn of(regs: &[Reg]) -> RegSet {
        let mut s = RegSet::new();
        for &r in regs {
            s.insert(r);
        }
        s
    }

    /// The set of all general-purpose registers except `%g0`.
    pub fn all_gprs() -> RegSet {
        RegSet(0xffff_fffe)
    }

    /// Raw bitmask (bit *i* set ⇔ register *i* present).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Builds a set from a raw bitmask.
    pub fn from_bits(bits: u64) -> RegSet {
        RegSet(bits)
    }

    /// Inserts a register. Inserting `%g0` is allowed but meaningless for
    /// dataflow (it is neither readable state nor writable).
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Membership test.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    pub fn without(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Iterates the members in ascending register-index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(Reg(i))
            }
        })
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_names_round_trip() {
        for i in 0..32 {
            let r = Reg(i);
            assert_eq!(Reg::parse(&r.name()), Some(r), "register {i}");
        }
        assert_eq!(Reg::parse("%sp"), Some(Reg(14)));
        assert_eq!(Reg::parse("%fp"), Some(Reg(30)));
        assert_eq!(Reg::parse("%o7"), Some(Reg::O7));
        assert_eq!(Reg::parse("%i7"), Some(Reg::I7));
    }

    #[test]
    fn reg_parse_rejects_garbage() {
        assert_eq!(Reg::parse("g1"), None);
        assert_eq!(Reg::parse("%x3"), None);
        assert_eq!(Reg::parse("%g8"), None);
        assert_eq!(Reg::parse("%r32"), None);
        assert_eq!(Reg::parse("%"), None);
    }

    /// The spelling rule the name table replaced, written out as rules.
    fn spelled_by_rule(n: u8) -> String {
        match n {
            14 => "%sp".to_string(),
            30 => "%fp".to_string(),
            0..=7 => format!("%g{n}"),
            8..=15 => format!("%o{}", n - 8),
            16..=23 => format!("%l{}", n - 16),
            24..=31 => format!("%i{}", n - 24),
            32 => "%icc".to_string(),
            33 => "%y".to_string(),
            34 => "%psr".to_string(),
            n => format!("%r{n}"),
        }
    }

    #[test]
    fn every_reg_spells_by_the_bank_rule() {
        for n in 0..=255u8 {
            let want = spelled_by_rule(n);
            assert_eq!(Reg(n).to_string(), want, "Display of register {n}");
            assert_eq!(Reg(n).name(), want, "name() of register {n}");
            assert_eq!(format!("{:?}", Reg(n)), want, "Debug of register {n}");
        }
    }

    #[test]
    fn aliases_print_as_aliases() {
        assert_eq!(Reg(14).name(), "%sp");
        assert_eq!(Reg(30).name(), "%fp");
        assert_eq!(Reg(15).name(), "%o7");
    }

    #[test]
    fn set_operations() {
        let a = RegSet::of(&[Reg(1), Reg(2), Reg(3)]);
        let b = RegSet::of(&[Reg(3), Reg(4)]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersect(b), RegSet::of(&[Reg(3)]));
        assert_eq!(a.without(b), RegSet::of(&[Reg(1), Reg(2)]));
        assert!(!a.is_empty());
        assert!(RegSet::new().is_empty());
    }

    #[test]
    fn set_iterates_in_order() {
        let s = RegSet::of(&[Reg(9), Reg::ICC, Reg(1)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg(1), Reg(9), Reg::ICC]);
    }

    #[test]
    fn all_gprs_excludes_g0() {
        let s = RegSet::all_gprs();
        assert!(!s.contains(Reg::G0));
        assert_eq!(s.len(), 31);
        assert!(s.contains(Reg(31)));
        assert!(!s.contains(Reg::ICC));
    }
}
