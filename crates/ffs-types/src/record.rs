//! The line-record codec every text format in the workspace is built on.
//!
//! The paper's method is a pipeline of text records — nightly snapshots
//! of "inode number, inode change time, file type, file size, and a list
//! of the disk blocks" (§3.1) — and so are this reproduction's
//! checkpoints, day series and cached artifacts. They share one grammar:
//! a document is lines, a line is whitespace-separated fields, a block
//! list is `a:b:c` (or `-` when empty), a tail fragment run is `d:n` (or
//! `-`). This module is the only reader and writer of that grammar:
//!
//! * [`records`] walks a document as numbered [`Fields`] cursors, whose
//!   typed getters name the field and the line in every error and whose
//!   [`Fields::end`] makes a trailing field an error in every format;
//! * [`push_num`], [`push_addrs`] and [`push_tail`] append digits
//!   straight into the output `String`;
//! * [`seal`] and [`unseal`] add and verify the `checksum <16 hex>`
//!   trailer (an [`fnv1a`] over every byte before it) that authenticates
//!   a stored artifact.
//!
//! Floats are written with Rust's shortest round-trip `Display` and read
//! with `str::parse`, so every value reads back bit for bit.

use std::fmt::Display;
use std::str::{FromStr, SplitAsciiWhitespace};

use crate::ids::Daddr;

/// The non-blank lines of `text` as field cursors. Lines number from 1
/// and blank lines count, so a message points into the file as an editor
/// shows it.
pub fn records(text: &str) -> impl Iterator<Item = Fields<'_>> {
    text.lines()
        .enumerate()
        .map(|(n, line)| Fields::new(line, n + 1))
        .filter(|f| f.words.clone().next().is_some())
}

/// A cursor over the whitespace-separated fields of one line.
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    line: usize,
    words: SplitAsciiWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// A cursor over `text`, reported as line `line` in errors.
    pub fn new(text: &'a str, line: usize) -> Fields<'a> {
        Fields {
            line,
            words: text.split_ascii_whitespace(),
        }
    }

    /// Prefixes `what` with this record's line number.
    pub fn err(&self, what: impl Display) -> String {
        format!("line {}: {what}", self.line)
    }

    /// The next field, verbatim.
    pub fn word(&mut self, name: &str) -> Result<&'a str, String> {
        self.words
            .next()
            .ok_or_else(|| self.err(format_args!("missing {name}")))
    }

    /// The next field, parsed.
    pub fn num<T: FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.word(name)?
            .parse()
            .map_err(|e| self.err(format_args!("bad {name}: {e}")))
    }

    /// Reads the single value of a record that may appear once per
    /// document: a second occurrence is an error, not last-wins.
    pub fn once<T: FromStr>(&mut self, slot: &mut Option<T>, name: &str) -> Result<(), String>
    where
        T::Err: Display,
    {
        if slot.is_some() {
            return Err(self.err(format_args!("repeated {name} record")));
        }
        *slot = Some(self.num(name)?);
        Ok(())
    }

    /// Consumes the words of `literal`, which must come next (a header
    /// such as `# checkpoint day`).
    pub fn tag(&mut self, literal: &str) -> Result<(), String> {
        for want in literal.split_ascii_whitespace() {
            let got = self.word(want)?;
            if got != want {
                return Err(self.err(format_args!("expected {want:?}, found {got:?}")));
            }
        }
        Ok(())
    }

    /// The next field as an address list: `a:b:c`, or `-` when empty.
    pub fn addrs<C: FromIterator<Daddr>>(&mut self, name: &str) -> Result<C, String> {
        let list = self.word(name)?;
        if list == "-" {
            return Ok(std::iter::empty().collect());
        }
        list.split(':')
            .map(|a| a.parse().map(Daddr))
            .collect::<Result<C, _>>()
            .map_err(|e| self.err(format_args!("bad {name} list: {e}")))
    }

    /// The next field as a tail fragment run: `addr:nfrags`, or `-`.
    pub fn tail(&mut self, name: &str) -> Result<Option<(Daddr, u32)>, String> {
        let run = self.word(name)?;
        if run == "-" {
            return Ok(None);
        }
        let bad = |e: &dyn Display| self.err(format_args!("bad {name}: {e}"));
        let (addr, n) = run.split_once(':').ok_or_else(|| bad(&"expected addr:n"))?;
        Ok(Some((
            Daddr(addr.parse().map_err(|e| bad(&e))?),
            n.parse().map_err(|e| bad(&e))?,
        )))
    }

    /// Ends the record: any field left over is an error.
    pub fn end(mut self) -> Result<(), String> {
        match self.words.next() {
            None => Ok(()),
            Some(w) => Err(self.err(format_args!("trailing field {w:?}"))),
        }
    }
}

/// Appends `n` in decimal.
pub fn push_num(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

/// Appends an address list in the form [`Fields::addrs`] reads.
pub fn push_addrs(out: &mut String, addrs: &[Daddr]) {
    if addrs.is_empty() {
        out.push('-');
    }
    for (i, d) in addrs.iter().enumerate() {
        if i > 0 {
            out.push(':');
        }
        push_num(out, d.0.into());
    }
}

/// Appends a tail fragment run in the form [`Fields::tail`] reads.
pub fn push_tail(out: &mut String, tail: Option<(Daddr, u32)>) {
    match tail {
        None => out.push('-'),
        Some((d, n)) => {
            push_num(out, d.0.into());
            out.push(':');
            push_num(out, n.into());
        }
    }
}

/// FNV-1a over a byte string; stable across platforms and processes
/// (unlike `std::hash`, which is seeded per process).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `checksum ` + 16 hex digits + newline.
const TRAILER_LEN: usize = 9 + 16 + 1;

/// Appends the `checksum <16 hex>` trailer line covering every byte
/// already in `text`.
pub fn seal(text: &mut String) {
    use std::fmt::Write as _;
    let sum = fnv1a(text.as_bytes());
    let _ = writeln!(text, "checksum {sum:016x}");
}

/// Verifies the trailer [`seal`] wrote and returns the text it covers.
/// FNV-1a's steps are bijections of the running state, so any one-byte
/// substitution anywhere in a sealed document is an error.
pub fn unseal(text: &str) -> Result<&str, String> {
    let (body, trailer) = text
        .len()
        .checked_sub(TRAILER_LEN)
        .and_then(|cut| text.split_at_checked(cut))
        .filter(|(body, _)| body.is_empty() || body.ends_with('\n'))
        .ok_or("missing checksum line")?;
    let recorded = trailer
        .strip_prefix("checksum ")
        .and_then(|t| t.strip_suffix('\n'))
        .ok_or("missing checksum line")?;
    let actual = format!("{:016x}", fnv1a(body.as_bytes()));
    if recorded != actual {
        return Err(format!(
            "checksum mismatch: file says {recorded}, content is {actual}"
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_fields_read_in_order() {
        let mut f = Fields::new("file 7 0.25 1:2:3 9:4 - -", 3);
        assert_eq!(f.word("kind").unwrap(), "file");
        assert_eq!(f.num::<u32>("ino").unwrap(), 7);
        assert_eq!(f.num::<f64>("score").unwrap(), 0.25);
        let blocks: Vec<Daddr> = f.addrs("blocks").unwrap();
        assert_eq!(blocks, [Daddr(1), Daddr(2), Daddr(3)]);
        assert_eq!(f.tail("tail").unwrap(), Some((Daddr(9), 4)));
        assert_eq!(f.addrs::<Vec<Daddr>>("indirects").unwrap(), []);
        assert_eq!(f.tail("tail").unwrap(), None);
        f.end().unwrap();
    }

    #[test]
    fn every_error_names_the_field_and_the_line() {
        let e = Fields::new("", 4).word("ino").unwrap_err();
        assert_eq!(e, "line 4: missing ino");
        let e = Fields::new("x", 5).num::<u32>("ino").unwrap_err();
        assert!(e.starts_with("line 5: bad ino: "), "{e}");
        let e = Fields::new("1:x", 6)
            .addrs::<Vec<Daddr>>("block")
            .unwrap_err();
        assert!(e.starts_with("line 6: bad block list: "), "{e}");
        for run in ["7", "7:", ":7", "7:x", "1:2:3"] {
            let e = Fields::new(run, 7).tail("tail").unwrap_err();
            assert!(e.starts_with("line 7: bad tail: "), "{run}: {e}");
        }
        // An empty list is spelled `-`, never an empty field between colons.
        assert!(Fields::new("1::2", 1).addrs::<Vec<Daddr>>("b").is_err());
        assert!(Fields::new(":", 1).addrs::<Vec<Daddr>>("b").is_err());
    }

    #[test]
    fn trailing_fields_are_an_error() {
        let mut f = Fields::new("dir 1 2 3 4 5 junk", 9);
        f.tag("dir").unwrap();
        for name in ["id", "cg", "block", "slot", "nfiles"] {
            f.num::<u32>(name).unwrap();
        }
        assert_eq!(f.end().unwrap_err(), "line 9: trailing field \"junk\"");
    }

    #[test]
    fn a_repeated_singleton_is_an_error_not_last_wins() {
        let mut bytes: Option<u64> = None;
        Fields::new("10", 2).once(&mut bytes, "bytes").unwrap();
        let e = Fields::new("99", 8).once(&mut bytes, "bytes").unwrap_err();
        assert_eq!(e, "line 8: repeated bytes record");
        assert_eq!(bytes, Some(10));
        // Strings are singletons too (`key <hex>`).
        let mut key: Option<String> = None;
        Fields::new("00ff", 1).once(&mut key, "key").unwrap();
        assert_eq!(key.as_deref(), Some("00ff"));
    }

    #[test]
    fn tags_match_word_by_word() {
        let mut f = Fields::new("# checkpoint day 12", 1);
        f.tag("# checkpoint day").unwrap();
        assert_eq!(f.num::<u32>("day").unwrap(), 12);
        let e = Fields::new("# snapshot day 12", 1)
            .tag("# checkpoint day")
            .unwrap_err();
        assert_eq!(e, "line 1: expected \"checkpoint\", found \"snapshot\"");
        assert!(Fields::new("#", 1).tag("# checkpoint").is_err());
    }

    #[test]
    fn records_number_lines_from_one_and_skip_blanks() {
        let lines: Vec<String> = records("a\n\n  \nb 1\r\n")
            .map(|mut f| f.word("kind").map(|w| f.err(w)).unwrap())
            .collect();
        assert_eq!(lines, ["line 1: a", "line 4: b"]);
        assert_eq!(records("").count(), 0);
    }

    #[test]
    fn writers_and_readers_are_inverse() {
        let mut s = String::new();
        for n in [0, 7, 10, 4_294_967_295, u64::MAX] {
            s.clear();
            push_num(&mut s, n);
            assert_eq!(s, n.to_string());
        }
        for addrs in [vec![], vec![Daddr(0)], vec![Daddr(8), Daddr(u32::MAX)]] {
            for tail in [None, Some((Daddr(16), 3))] {
                s.clear();
                push_addrs(&mut s, &addrs);
                s.push(' ');
                push_tail(&mut s, tail);
                let mut f = Fields::new(&s, 1);
                assert_eq!(f.addrs::<Vec<Daddr>>("blocks").unwrap(), addrs);
                assert_eq!(f.tail("tail").unwrap(), tail);
                f.end().unwrap();
            }
        }
    }

    #[test]
    fn seal_then_unseal_returns_the_body() {
        let mut text = String::from("# header\nkey 00ff\n");
        seal(&mut text);
        assert_eq!(text.len(), "# header\nkey 00ff\n".len() + TRAILER_LEN);
        assert_eq!(unseal(&text).unwrap(), "# header\nkey 00ff\n");
        let mut empty = String::new();
        seal(&mut empty);
        assert_eq!(unseal(&empty).unwrap(), "");
    }

    #[test]
    fn any_damage_to_a_sealed_document_is_an_error() {
        let mut text = String::from("# header\ndaily 2 0.9831 16677016\n");
        seal(&mut text);
        for at in 0..text.len() {
            for byte in [b'0', b'7', b' ', b'\n', b'A', b'f'] {
                let mut bad = text.clone().into_bytes();
                if bad[at] == byte {
                    continue;
                }
                bad[at] = byte;
                let bad = String::from_utf8(bad).unwrap();
                assert!(unseal(&bad).is_err(), "accepted {bad:?}");
            }
            assert!(unseal(&text[..at]).is_err(), "accepted a cut at {at}");
        }
        // A multi-byte character straddling the trailer boundary is
        // damage, not a slicing panic.
        let wide = format!("{}é{}", &text[..text.len() - 27], &text[text.len() - 25..]);
        assert!(unseal(&wide).is_err());
        assert!(unseal("").is_err());
    }
}
