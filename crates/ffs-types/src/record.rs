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
//!   [`Fields::end`] makes a trailing field an error in every format. It
//!   is one pass over the bytes: each line is found once, a field is a
//!   byte range, and an integer ([`FromField`]) is read from its digits
//!   without a generic `str::parse`. The reader it replaced is kept in
//!   `tests/record_oracle.rs`, which holds the two to the same values and
//!   the same errors on every format, valid and damaged;
//! * [`push_num`], [`push_addrs`] and [`push_tail`] append digits
//!   straight into the output `String`, two per step;
//! * [`seal`] and [`unseal`] add and verify the `checksum <16 hex>`
//!   trailer (an [`fnv1a`] over every byte before it) that authenticates
//!   a stored artifact.
//!
//! Floats are written with Rust's shortest round-trip `Display` and read
//! with `str::parse`, so every value reads back bit for bit.

use std::fmt::Display;

use crate::ids::Daddr;

/// The non-blank lines of `text` as field cursors. Lines number from 1
/// and blank lines count, so a message points into the file as an editor
/// shows it.
///
/// One pass: each line is found once (a line ends at `\n`; the `\r` of a
/// CRLF ending is a field separator like any other whitespace), and the
/// same scan that places its cursor on the first field is the one that
/// finds the line blank.
pub fn records(text: &str) -> impl Iterator<Item = Fields<'_>> {
    let mut rest = text;
    let mut line = 0;
    std::iter::from_fn(move || {
        while !rest.is_empty() {
            let (this, next) = match rest.find('\n') {
                Some(at) => (&rest[..at], &rest[at + 1..]),
                None => (rest, ""),
            };
            rest = next;
            line += 1;
            let f = Fields::new(this, line);
            if f.at < this.len() {
                return Some(f);
            }
        }
        None
    })
}

/// A byte cursor over the whitespace-separated fields of one line: the
/// separators are those of `str::split_ascii_whitespace`.
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    line: usize,
    text: &'a str,
    /// Where the next field starts, or `text.len()` when none is left.
    /// Every byte before it that is not part of a field is ASCII, so it
    /// is a character boundary.
    at: usize,
}

/// How many ASCII whitespace bytes `s` starts with.
fn space_len(s: &[u8]) -> usize {
    s.iter().take_while(|b| b.is_ascii_whitespace()).count()
}

impl<'a> Fields<'a> {
    /// A cursor over `text`, reported as line `line` in errors.
    pub fn new(text: &'a str, line: usize) -> Fields<'a> {
        Fields {
            line,
            text,
            at: space_len(text.as_bytes()),
        }
    }

    /// Prefixes `what` with this record's line number.
    pub fn err(&self, what: impl Display) -> String {
        format!("line {}: {what}", self.line)
    }

    /// The unread bytes of the line.
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.at..]
    }

    /// Steps over a field of `len` bytes and the whitespace after it.
    fn skip(&mut self, len: usize) {
        self.at += len;
        self.at += space_len(self.rest());
    }

    // The two error builders stay out of line, so the getters' hot paths
    // are small enough to inline into every parser.
    #[cold]
    #[inline(never)]
    fn missing(&self, name: &str) -> String {
        self.err(format_args!("missing {name}"))
    }

    #[cold]
    #[inline(never)]
    fn bad(&self, name: &str, e: impl Display) -> String {
        self.err(format_args!("bad {name}: {e}"))
    }

    fn next_word(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        if rest.is_empty() {
            return None;
        }
        let len = rest
            .iter()
            .position(|b| b.is_ascii_whitespace())
            .unwrap_or(rest.len());
        let word = &self.text[self.at..self.at + len];
        self.skip(len);
        Some(word)
    }

    /// The next field, verbatim.
    pub fn word(&mut self, name: &str) -> Result<&'a str, String> {
        self.next_word().ok_or_else(|| self.missing(name))
    }

    /// The next field as an unsigned integer no greater than `max`, read
    /// in the same pass that finds the field's end.
    #[inline]
    fn uint(&mut self, name: &str, max: u64) -> Result<u64, String> {
        let rest = self.rest();
        if rest.is_empty() {
            return Err(self.missing(name));
        }
        match scan_uint(rest, max, |b| b.is_ascii_whitespace()) {
            Ok((n, len)) => {
                self.skip(len);
                Ok(n)
            }
            Err(e) => Err(self.bad(name, e)),
        }
    }

    /// The next field, parsed.
    pub fn num<T: FromField>(&mut self, name: &str) -> Result<T, String> {
        T::take(self, name)
    }

    /// Reads the single value of a record that may appear once per
    /// document: a second occurrence is an error, not last-wins.
    pub fn once<T: FromField>(&mut self, slot: &mut Option<T>, name: &str) -> Result<(), String> {
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
    /// Each address is read as the scan reaches it, straight into `C`.
    pub fn addrs<C: FromIterator<Daddr>>(&mut self, name: &str) -> Result<C, String> {
        let rest = self.rest();
        match rest {
            [] => return Err(self.missing(name)),
            [b'-', after @ ..] if after.first().is_none_or(u8::is_ascii_whitespace) => {
                self.skip(1);
                return Ok(std::iter::empty().collect());
            }
            _ => {}
        }
        let mut len = 0;
        let mut more = true;
        let list = std::iter::from_fn(|| {
            more.then(|| {
                let end = |b: u8| b == b':' || b.is_ascii_whitespace();
                let (n, n_len) = scan_uint(&rest[len..], u32::MAX.into(), end)?;
                len += n_len;
                more = rest.get(len) == Some(&b':');
                len += usize::from(more);
                Ok(Daddr(n as u32))
            })
        })
        .collect::<Result<C, IntError>>()
        .map_err(|e| self.err(format_args!("bad {name} list: {e}")))?;
        self.skip(len);
        Ok(list)
    }

    /// The next field as a tail fragment run: `addr:nfrags`, or `-`.
    pub fn tail(&mut self, name: &str) -> Result<Option<(Daddr, u32)>, String> {
        let run = self.word(name)?;
        if run == "-" {
            return Ok(None);
        }
        let (addr, n) = run
            .split_once(':')
            .ok_or_else(|| self.bad(name, "expected addr:n"))?;
        let read = |s: &str| {
            scan_uint(s.as_bytes(), u32::MAX.into(), |_| false)
                .map(|(n, _)| n as u32)
                .map_err(|e| self.bad(name, e))
        };
        Ok(Some((Daddr(read(addr)?), read(n)?)))
    }

    /// Ends the record: any field left over is an error.
    pub fn end(mut self) -> Result<(), String> {
        match self.next_word() {
            None => Ok(()),
            Some(w) => Err(self.err(format_args!("trailing field {w:?}"))),
        }
    }
}

/// A value one field holds. Unsigned integers are read straight from
/// their ASCII digits, with `str::parse`'s grammar and messages; floats
/// and strings go through the field's text.
pub trait FromField: Sized {
    /// Reads the next field of `f`, naming it `name` in the error.
    fn take(f: &mut Fields<'_>, name: &str) -> Result<Self, String>;
}

macro_rules! unsigned_fields {
    ($($t:ty),*) => {$(
        impl FromField for $t {
            fn take(f: &mut Fields<'_>, name: &str) -> Result<$t, String> {
                // In range by `uint`'s bound, so the cast is exact.
                f.uint(name, <$t>::MAX as u64).map(|n| n as $t)
            }
        }
    )*};
}

unsigned_fields!(u32, u64, usize);

impl FromField for f64 {
    fn take(f: &mut Fields<'_>, name: &str) -> Result<f64, String> {
        let word = f.word(name)?;
        word.parse().map_err(|e| f.bad(name, e))
    }
}

impl FromField for String {
    fn take(f: &mut Fields<'_>, name: &str) -> Result<String, String> {
        f.word(name).map(str::to_owned)
    }
}

/// Why bytes are not an unsigned integer — the three reasons
/// `str::parse` gives, with its wording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IntError {
    /// No bytes at all (`1::2` has an empty element).
    Empty,
    /// A byte that is not a digit, or a lone `+`.
    InvalidDigit,
    /// More than the type holds.
    Overflow,
}

impl Display for IntError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IntError::Empty => "cannot parse integer from empty string",
            IntError::InvalidDigit => "invalid digit found in string",
            IntError::Overflow => "number too large to fit in target type",
        })
    }
}

/// The unsigned decimal at the start of `s`, at most `max`, running to
/// the first byte `end` accepts or to the end of `s`; returns it with the
/// number of bytes it spans. The grammar and the errors are `str::parse`'s
/// on those bytes: an optional `+`, then at least one digit; the first
/// byte that is not a digit, or the first digit that takes the value
/// past `max`, decides the error, and no bytes at all is `Empty`.
fn scan_uint(s: &[u8], max: u64, end: impl Fn(u8) -> bool) -> Result<(u64, usize), IntError> {
    let start = usize::from(s.first() == Some(&b'+'));
    let mut n: u64 = 0;
    let mut len = start;
    for &b in &s[start..] {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add(u64::from(d)))
            .filter(|&n| n <= max)
            .ok_or(IntError::Overflow)?;
        len += 1;
    }
    if s.get(len).is_some_and(|&b| !end(b)) {
        return Err(IntError::InvalidDigit);
    }
    match len {
        0 => Err(IntError::Empty),
        _ if len == start => Err(IntError::InvalidDigit),
        _ => Ok((n, len)),
    }
}

/// `"00" "01" .. "99"`: the two digits of every value below 100 at
/// `2 * value`.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `n` in decimal, two digits per step: the value splits into
/// base-100 digits from the bottom, and each is appended as a two-byte
/// slice of `DIGIT_PAIRS` from the top.
pub fn push_num(out: &mut String, mut n: u64) {
    let mut low = [0u8; 10];
    let mut k = 0;
    while n >= 100 {
        low[k] = (n % 100) as u8;
        n /= 100;
        k += 1;
    }
    if n >= 10 {
        out.push_str(pair(n as usize));
    } else {
        out.push(char::from(b'0' + n as u8));
    }
    for &p in low[..k].iter().rev() {
        out.push_str(pair(p.into()));
    }
}

/// The two digits of `v < 100`.
fn pair(v: usize) -> &'static str {
    &DIGIT_PAIRS[2 * v..2 * v + 2]
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
    fn integers_read_as_str_parse_reads_them() {
        fn same<T>(s: &str)
        where
            T: FromField + std::str::FromStr + PartialEq + std::fmt::Debug,
            <T as std::str::FromStr>::Err: Display,
        {
            let ours = Fields::new(s, 1).num::<T>("n");
            let std = s.parse::<T>().map_err(|e| format!("line 1: bad n: {e}"));
            assert_eq!(ours, std, "{s:?}");
        }
        let spellings = "+ - +-1 ++1 -0 +0 007 1x x1 ٣ 65535 65536 4294967295 4294967296 \
            42949672950x 99999x 18446744073709551615 18446744073709551616 \
            +18446744073709551615 0000000000000000000000000042 99999999999999999999x \
            1844674407370955161x 1 12 1234567 12345678 123456789 00000000 000000065536 \
            12345678x +12345678 0x10 4294967295x";
        for s in spellings.split_ascii_whitespace() {
            same::<u32>(s);
            same::<u64>(s);
            same::<usize>(s);
        }
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
        let edges = (0..20).flat_map(|k| {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1]
        });
        for n in edges.chain([4_294_967_295, u64::MAX]) {
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
