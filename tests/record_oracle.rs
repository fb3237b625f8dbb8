//! Differential oracle for the line-record reader.
//!
//! `ffs_types::record` reads every line-record format in the workspace
//! (snapshot, checkpoint, `.aged`, `.shard`, `DayStats`) with a one-pass
//! byte cursor that reads integers straight from their digits. The reader
//! it replaced — `str::lines`, a `split_ascii_whitespace` blank-line scan,
//! then `split_ascii_whitespace` and a generic `str::parse` per field — is
//! kept verbatim below as [`retired`]. One script per format drives both
//! through the same getters, and every record must come out the same:
//! the same values, or the same error naming the same line. The
//! documents are each format's real output, the same documents damaged
//! (truncated, one byte substituted, a line spliced in), random token
//! soup, and a table of the spellings the byte cursor has to read as
//! `str::parse` did.

use std::fmt::Display;

use ffs::BlockList;
use ffs_aging::prelude::*;
use ffs_types::record;
use ffs_types::Daddr;
use proptest::prelude::*;

/// The reader as it was before the byte cursor, kept as the reference.
mod retired {
    use std::fmt::Display;
    use std::str::{FromStr, SplitAsciiWhitespace};

    use ffs_types::Daddr;

    pub fn records(text: &str) -> impl Iterator<Item = Fields<'_>> {
        text.lines()
            .enumerate()
            .map(|(n, line)| Fields::new(line, n + 1))
            .filter(|f| f.words.clone().next().is_some())
    }

    #[derive(Clone, Debug)]
    pub struct Fields<'a> {
        line: usize,
        words: SplitAsciiWhitespace<'a>,
    }

    impl<'a> Fields<'a> {
        pub fn new(text: &'a str, line: usize) -> Fields<'a> {
            Fields {
                line,
                words: text.split_ascii_whitespace(),
            }
        }

        pub fn err(&self, what: impl Display) -> String {
            format!("line {}: {what}", self.line)
        }

        pub fn word(&mut self, name: &str) -> Result<&'a str, String> {
            self.words
                .next()
                .ok_or_else(|| self.err(format_args!("missing {name}")))
        }

        pub fn num<T: FromStr>(&mut self, name: &str) -> Result<T, String>
        where
            T::Err: Display,
        {
            self.word(name)?
                .parse()
                .map_err(|e| self.err(format_args!("bad {name}: {e}")))
        }

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

        pub fn tag(&mut self, literal: &str) -> Result<(), String> {
            for want in literal.split_ascii_whitespace() {
                let got = self.word(want)?;
                if got != want {
                    return Err(self.err(format_args!("expected {want:?}, found {got:?}")));
                }
            }
            Ok(())
        }

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

        pub fn end(mut self) -> Result<(), String> {
            match self.words.next() {
                None => Ok(()),
                Some(w) => Err(self.err(format_args!("trailing field {w:?}"))),
            }
        }
    }
}

/// One value a getter returned.
#[derive(Debug, PartialEq)]
enum Value {
    Int(u64),
    /// A float's bits: equal only when bit-identical.
    Float(u64),
    Text(String),
    Addrs(Vec<Daddr>),
    Tail(Option<(Daddr, u32)>),
}

/// Single-valued records already seen in a document, for `once`.
#[derive(Default)]
struct Singles {
    ints: Vec<(String, Option<u64>)>,
    key: Option<String>,
}

impl Singles {
    fn int(&mut self, name: &str) -> &mut Option<u64> {
        let at = match self.ints.iter().position(|(n, _)| n == name) {
            Some(at) => at,
            None => {
                self.ints.push((name.to_string(), None));
                self.ints.len() - 1
            }
        };
        &mut self.ints[at].1
    }
}

/// The getters both readers offer, so one script drives either.
trait Cursor<'a>: Clone {
    fn err(&self, what: impl Display) -> String;
    fn word(&mut self, name: &str) -> Result<&'a str, String>;
    fn u32(&mut self, name: &str) -> Result<u32, String>;
    fn u64(&mut self, name: &str) -> Result<u64, String>;
    fn usize(&mut self, name: &str) -> Result<usize, String>;
    fn f64(&mut self, name: &str) -> Result<f64, String>;
    fn once_u64(&mut self, slot: &mut Option<u64>, name: &str) -> Result<(), String>;
    fn once_text(&mut self, slot: &mut Option<String>, name: &str) -> Result<(), String>;
    fn tag(&mut self, literal: &str) -> Result<(), String>;
    fn blocks(&mut self, name: &str) -> Result<BlockList, String>;
    fn addrs(&mut self, name: &str) -> Result<Vec<Daddr>, String>;
    fn tail(&mut self, name: &str) -> Result<Option<(Daddr, u32)>, String>;
    fn end(self) -> Result<(), String>;
}

macro_rules! cursor {
    ($fields:ty) => {
        impl<'a> Cursor<'a> for $fields {
            fn err(&self, what: impl Display) -> String {
                <$fields>::err(self, what)
            }
            fn word(&mut self, name: &str) -> Result<&'a str, String> {
                <$fields>::word(self, name)
            }
            fn u32(&mut self, name: &str) -> Result<u32, String> {
                self.num(name)
            }
            fn u64(&mut self, name: &str) -> Result<u64, String> {
                self.num(name)
            }
            fn usize(&mut self, name: &str) -> Result<usize, String> {
                self.num(name)
            }
            fn f64(&mut self, name: &str) -> Result<f64, String> {
                self.num(name)
            }
            fn once_u64(&mut self, slot: &mut Option<u64>, name: &str) -> Result<(), String> {
                self.once(slot, name)
            }
            fn once_text(&mut self, slot: &mut Option<String>, name: &str) -> Result<(), String> {
                self.once(slot, name)
            }
            fn tag(&mut self, literal: &str) -> Result<(), String> {
                <$fields>::tag(self, literal)
            }
            fn blocks(&mut self, name: &str) -> Result<BlockList, String> {
                <$fields>::addrs(self, name)
            }
            fn addrs(&mut self, name: &str) -> Result<Vec<Daddr>, String> {
                <$fields>::addrs(self, name)
            }
            fn tail(&mut self, name: &str) -> Result<Option<(Daddr, u32)>, String> {
                <$fields>::tail(self, name)
            }
            fn end(self) -> Result<(), String> {
                <$fields>::end(self)
            }
        }
    };
}

cursor!(record::Fields<'a>);
cursor!(retired::Fields<'a>);

/// How a format's records are laid out.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// `# snapshot day N`, then one file per line.
    Snapshot,
    /// One `DayStats` per line.
    Days,
    /// A header line, then records named by their first word: the
    /// checkpoint, `.aged` (which embeds one) and `.shard` grammar.
    Tagged { header: &'static str, day: bool },
}

/// Reads one record the way its format's parser does, pushing what each
/// getter returned; the first error ends the record.
fn read_record<'a, C: Cursor<'a>>(
    layout: Layout,
    first: bool,
    mut f: C,
    singles: &mut Singles,
    out: &mut Vec<Value>,
) -> Result<(), String> {
    // The line number the reader assigned.
    out.push(Value::Text(f.err("")));
    let mut int = |v: u64| out.push(Value::Int(v));
    match layout {
        Layout::Snapshot if first => {
            f.tag("# snapshot day")?;
            int(f.u32("day")?.into());
        }
        Layout::Snapshot => {
            int(f.u32("ino")?.into());
            int(f.u32("ctime")?.into());
            int(f.u64("size")?);
            int(f.u32("cg")?.into());
            let blocks = f.blocks("block")?;
            out.push(Value::Addrs(blocks.to_vec()));
            out.push(Value::Tail(f.tail("tail")?));
        }
        Layout::Days => day_stats(&mut f, out)?,
        Layout::Tagged { header, day } if first => {
            f.tag(header)?;
            if day {
                int(f.u32("day")?.into());
            }
        }
        Layout::Tagged { .. } => {
            let kind = f.word("record")?;
            out.push(Value::Text(kind.to_string()));
            match kind {
                "bytes" | "skipped" | "fsdigest" | "days" => {
                    f.once_u64(singles.int(kind), kind)?;
                    out.push(Value::Int(singles.int(kind).unwrap_or(0)));
                }
                "key" => {
                    f.once_text(&mut singles.key, "key")?;
                    out.push(Value::Text(singles.key.clone().unwrap_or_default()));
                }
                "policy" | "checksum" => out.push(Value::Text(f.word(kind)?.to_string())),
                "daily" => day_stats(&mut f, out)?,
                "sample" => {
                    out.push(Value::Int(f.u32("day")?.into()));
                    for name in ["layout", "freefrag", "util"] {
                        out.push(Value::Float(f.f64(name)?.to_bits()));
                    }
                }
                "dir" => {
                    for name in ["dir id", "cg", "block", "ino slot", "nfiles"] {
                        out.push(Value::Int(f.u32(name)?.into()));
                    }
                }
                "file" => {
                    out.push(Value::Int(f.u32("ino")?.into()));
                    out.push(Value::Int(f.u32("dir")?.into()));
                    out.push(Value::Int(f.u64("size")?));
                    out.push(Value::Int(f.u32("mtime")?.into()));
                    out.push(Value::Addrs(f.blocks("block")?.to_vec()));
                    out.push(Value::Tail(f.tail("tail")?));
                    out.push(Value::Addrs(f.addrs("indirect")?));
                }
                "live" => {
                    out.push(Value::Int(f.u64("file id")?));
                    out.push(Value::Int(f.u32("ino")?.into()));
                }
                "rotor" => {
                    out.push(Value::Int(f.u32("rotor")?.into()));
                    out.push(Value::Int(f.u32("inode rotor")?.into()));
                    // The fragment rotor, where it left the block rotor.
                    if f.clone().end().is_err() {
                        out.push(Value::Int(f.u32("frag rotor")?.into()));
                    }
                }
                "#" => {
                    // The checkpoint an `.aged` embeds has singles of its own.
                    *singles = Singles::default();
                    f.tag("checkpoint day")?;
                    out.push(Value::Int(f.u32("day")?.into()));
                }
                other => return Err(f.err(format_args!("unknown record {other:?}"))),
            }
        }
    }
    f.end()
}

fn day_stats<'a, C: Cursor<'a>>(f: &mut C, out: &mut Vec<Value>) -> Result<(), String> {
    out.push(Value::Int(f.u32("day")?.into()));
    out.push(Value::Float(f.f64("layout score")?.to_bits()));
    out.push(Value::Float(f.f64("utilization")?.to_bits()));
    out.push(Value::Int(f.usize("nfiles")? as u64));
    for name in ["bytes written", "defrag moves", "defrag cost"] {
        out.push(Value::Int(f.u64(name)?));
    }
    Ok(())
}

/// Every record of a document: what the getters returned, and how the
/// record ended.
type Reading = Vec<(Vec<Value>, Result<(), String>)>;

fn read<'a, C: Cursor<'a>>(layout: Layout, records: impl Iterator<Item = C>) -> Reading {
    let mut singles = Singles::default();
    records
        .enumerate()
        .map(|(i, f)| {
            let mut values = Vec::new();
            let end = read_record(layout, i == 0, f, &mut singles, &mut values);
            (values, end)
        })
        .collect()
}

/// Both readers over `doc`: they must agree record by record.
fn assert_same_reading(layout: Layout, doc: &str) {
    let new = read(layout, record::records(doc));
    let old = read(layout, retired::records(doc));
    assert_eq!(new, old, "{layout:?} readers disagree on {doc:?}");
}

/// A document of one format.
struct Doc {
    layout: Layout,
    text: String,
}

/// Each format's real output, from one small aged run.
fn documents() -> &'static [Doc] {
    static DOCS: std::sync::OnceLock<Vec<Doc>> = std::sync::OnceLock::new();
    DOCS.get_or_init(|| {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(4, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let options = ReplayOptions {
            snapshot_every_days: 4,
            checkpoint_every_days: 4,
            ..ReplayOptions::default()
        };
        let aged = replay(&w, &params, AllocPolicy::Realloc, options).expect("replay");
        let key = exp::aged_key(
            &params,
            &config,
            AllocPolicy::Realloc,
            &ReplayOptions::default(),
        );
        let shard = fleet::FleetSpec::new(4, 21, 4).shard(2);
        let samples: Vec<fleet::ShardSample> = aged
            .daily
            .iter()
            .map(|d| fleet::ShardSample {
                day: d.day,
                layout: d.layout_score,
                freefrag: 1.0 - d.layout_score,
                util: d.utilization,
            })
            .collect();
        let tagged = |header| Layout::Tagged { header, day: false };
        let days: Vec<String> = aged.daily.iter().map(|d| d.to_record()).collect();
        vec![
            Doc {
                layout: Layout::Snapshot,
                text: aged.snapshots[0].to_text(),
            },
            Doc {
                layout: Layout::Tagged {
                    header: "# checkpoint day",
                    day: true,
                },
                text: aged.checkpoints[0].to_text(),
            },
            Doc {
                layout: tagged("# exp aged artifact v3"),
                text: exp::render_aged(&key, &aged).expect("render"),
            },
            Doc {
                layout: tagged("# fleet shard artifact v3"),
                text: fleet::shard::render_artifact(&shard, &samples, 3),
            },
            Doc {
                layout: Layout::Days,
                text: days.join("\n"),
            },
        ]
    })
}

#[test]
fn the_readers_agree_on_every_format_as_written() {
    for doc in documents() {
        let reading = read(doc.layout, record::records(&doc.text));
        assert!(
            reading.iter().all(|(_, end)| end.is_ok()),
            "{:?} does not read cleanly: {reading:?}",
            doc.layout
        );
        assert_same_reading(doc.layout, &doc.text);
    }
}

#[test]
fn the_readers_agree_on_the_spellings_the_byte_cursor_must_keep() {
    let snap = |body: &str| format!("# snapshot day 3\n{body}");
    let file = |blocks: &str, tail: &str| snap(&format!("1 2 3 0 {blocks} {tail}\n"));
    let mut cases = vec![
        // Line endings, separators and blank lines.
        "# snapshot day 3\r\n1 2 3 0 8:16 -\r\n\r\n2 2 3 0 - 24:2\r\n".to_string(),
        "#\tsnapshot  day\t\t3\n  1\t2   3 0\t8:16\t-  \n".to_string(),
        "\n\n# snapshot day 3\n\n \t \n5 1 1 0 - -\n   \n\n".to_string(),
        "# snapshot day 3\n5 1 1 0 - -\u{c}\n6\u{c}1 1 0 - -\r".to_string(),
        "# snapshot day 3\r7 1 1 0 - -".to_string(),
        // Not separators: a vertical tab, a no-break space.
        snap("5\u{b}1 1 0 - -\n"),
        snap("5\u{a0}1 1 0 - -\n"),
        // A leading `+` on every kind of number.
        "# snapshot day +3\n+1 +2 +3 +0 +8:+16 +7:+1\n".to_string(),
        snap("+ 2 3 0 - -\n"),
        snap("++1 2 3 0 - -\n"),
        snap("-1 2 3 0 - -\n"),
        // The widths: u32 and u64 at and past their maxima.
        snap("4294967295 0 18446744073709551615 0 4294967295 4294967295:4294967295\n"),
        snap("4294967296 0 0 0 - -\n"),
        snap("1 2 18446744073709551616 0 - -\n"),
        snap("1 2 99999999999999999999999x 0 - -\n"),
        snap("1 2 000000000000000000000000000042 0 - -\n"),
        snap("42949672950x 2 3 0 - -\n"),
        snap("1x 2 3 0 - -\n"),
        snap("\u{663} 2 3 0 - -\n"),
        // Missing and trailing fields.
        snap("1 2 3\n"),
        snap("1 2 3 0 - - extra\n"),
        snap("1 2 3 0 -\n"),
        // Rotten headers.
        "# snapshot day\n".to_string(),
        "# snapshot\n".to_string(),
        "# checkpoint day 3\n".to_string(),
        "#snapshot day 3\n".to_string(),
    ];
    for blocks in [
        "1::2",
        ":",
        "1:",
        ":1",
        "-:1",
        "1:-",
        "--",
        "-",
        "+",
        "+:1",
        "1:+",
        "1:2:3",
        "8:4294967296",
        "8:4294967295",
        "1:٣",
        "007:08",
    ] {
        cases.push(file(blocks, "-"));
    }
    for tail in [
        "7",
        "7:",
        ":7",
        "7:x",
        "1:2:3",
        "7:4294967296",
        "4294967296:1",
        "+7:+1",
        "-",
        "--",
        ":",
        "-:1",
        "7:1:",
        "7::1",
    ] {
        cases.push(file("8:16", tail));
    }
    for doc in &cases {
        assert_same_reading(Layout::Snapshot, doc);
    }
    let checkpoint = Layout::Tagged {
        header: "# checkpoint day",
        day: true,
    };
    for body in [
        "bytes 1\nbytes 2\n",
        "bytes +1\nskipped 18446744073709551616\n",
        "key a\nkey b\n",
        "live 18446744073709551615 4294967295\nlive 18446744073709551616 1\n",
        "rotor 1\n",
        "rotor 1 2 3\nrotor 1 2 x\nrotor 1 2 3 4\n",
        "frob 1\n",
        "dir 1 2 3 4\n",
        "file 5 1 4096 3 8:16:24 24:2 -\nfile 6 1 4096 3 - - 1::2\n",
        "# checkpoint day 4\n#\n",
        "daily 1 0.5 nan 3 4 5 6\ndaily 1 0.5 inf 3 4 5\n",
        "sample 1 1e400 -0 +0.5\nsample 2 0x1 . 1\n",
    ] {
        assert_same_reading(checkpoint, &format!("# checkpoint day 9\n{body}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// A real document truncated at a random byte, with one byte
    /// replaced, or with a printable line spliced in: the two readers
    /// read it the same, record by record.
    #[test]
    fn the_readers_agree_on_damaged_documents(
        which in 0usize..5,
        damage in 0u8..3,
        at in any::<u32>(),
        byte in any::<u8>(),
        line in proptest::collection::vec(0x20u8..0x7f, 0..40),
    ) {
        let doc = &documents()[which];
        let mut bytes = doc.text.clone().into_bytes();
        let at = at as usize % bytes.len();
        match damage {
            0 => bytes.truncate(at),
            1 => bytes[at] = byte,
            _ => {
                let cut = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i + 1);
                let mut spliced = line;
                spliced.push(b'\n');
                bytes.splice(cut..cut, spliced);
            }
        }
        assert_same_reading(doc.layout, &String::from_utf8_lossy(&bytes));
    }

    /// Documents made of the bytes the number and list grammar turns on:
    /// digits, signs, colons, every separator, and a few that are none
    /// of these.
    #[test]
    fn the_readers_agree_on_token_soup(
        tokens in proptest::collection::vec(0usize..16, 0..200),
        layout in 0usize..3,
    ) {
        const ALPHABET: [&str; 16] = [
            "0", "7", "9", "4294967295", "18446744073709551615", "+", "-", ":", " ", "\t",
            "\r", "\n", "\u{c}", "\u{b}", "x", "\u{663}",
        ];
        let body: String = tokens.iter().map(|&t| ALPHABET[t]).collect();
        let layout = [
            Layout::Snapshot,
            Layout::Days,
            Layout::Tagged { header: "file", day: true },
        ][layout];
        assert_same_reading(layout, &format!("# snapshot day 1\n{body}"));
        assert_same_reading(layout, &body);
    }
}
