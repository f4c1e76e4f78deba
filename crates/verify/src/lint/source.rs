//! Source-level rules: `#![forbid(unsafe_code)]` presence (RV001) and
//! panicking calls in non-test library code (RV002), plus the token scanner
//! every token rule shares.
//!
//! Rules are pure functions over `(path, content)` so unit tests can run
//! them against inline fixture snippets without touching the filesystem.
//! `lint::run` builds one [`SourceView`] per library file and hands it to
//! the `check_*_in` variant of every token rule. One byte pass per file
//! finds the test code and every match outside comments and test code of
//! the rule-grouped table `LINT_TOKENS`, each token looked for at one
//! anchor byte pair; each rule then reads only its own group's hits, and
//! lines are split only for the rules that read them.

use std::cell::OnceCell;

use crate::{Code, Diagnostic};

/// RV001: a library crate root must carry `#![forbid(unsafe_code)]`.
pub fn check_forbid_unsafe(path: &str, content: &str) -> Option<Diagnostic> {
    let has = content
        .lines()
        .any(|l| l.trim_start().starts_with("#![forbid(unsafe_code)]"));
    if has {
        None
    } else {
        Some(Diagnostic::error(
            Code::MissingForbidUnsafe,
            path,
            "crate root does not declare #![forbid(unsafe_code)]",
        ))
    }
}

/// Every token the token rules look for, grouped by rule, each with its
/// anchor: the offset of the byte pair the scan looks for it at. A rule's
/// tokens have contiguous ids, in the order given here, and its [`Group`]
/// constant names them. Each anchor is the token's byte pair that is rarest
/// in the workspace's library code and in the layerbench `lint` tree
/// (counted once, in code outside comments), so the scan stops at few
/// positions that do not start a match. Each token is split with `concat!`
/// so this file does not flag itself when the scanner runs over the verify
/// crate. No token is shorter than two bytes or holds a newline.
pub(crate) const LINT_TOKENS: [(&str, usize); 26] = [
    // RV002 (PANIC): the matched text is the call prefix, so `.unwrap_or(`
    // and `.expect_err(` pass.
    (concat!(".unw", "rap()"), 2),
    (concat!(".exp", "ect("), 2),
    (concat!("pa", "nic!"), 4),
    (concat!("to", "do!"), 3),
    (concat!("unimple", "mented!"), 12),
    // RV011 (RAW_TASKS): `.add_task_in(` does not match `.add_task(` (the
    // next character is `_`, not `(`), so categorized call sites pass.
    (concat!(".add_", "task("), 8),
    (concat!(".try_add_", "task("), 12),
    // RV012 (RAW_THREADS): the `thread::` suffix catches `std::thread::*`,
    // `crossbeam::thread::*` and `use std::thread; thread::spawn(…)` alike.
    (concat!("thread::", "spawn("), 11),
    (concat!("thread::", "scope("), 7),
    // RV015 (HASH_COLLECTIONS): the bare type name catches declarations,
    // `use` imports, turbofish collects and `with_hasher` constructions.
    (concat!("Hash", "Map"), 3),
    (concat!("Hash", "Set"), 3),
    // RV016 (REDUCTIONS): reduction calls.
    (concat!(".su", "m()"), 3),
    (concat!(".su", "m::<"), 5),
    (concat!(".fo", "ld("), 3),
    (concat!(".pro", "duct()"), 1),
    (concat!(".pro", "duct::<"), 1),
    // RV016 (POOL_MARKER): puts a file in RV016 scope. Files merely
    // mentioning the pool in diagnostics (like the verify crate) keep the
    // name out of their string literals instead of being scoped in.
    (concat!("recsim_", "pool"), 8),
    // RV017 (ENTROPY): `SystemTime` catches both `now()` and `UNIX_EPOCH`
    // arithmetic; `Instant::now` leaves the `Instant` type usable for
    // plumbing externally measured durations.
    (concat!("System", "Time"), 5),
    (concat!("Instant::", "now"), 0),
    (concat!("thread_", "rng("), 1),
    (concat!("from_", "entropy("), 10),
    (concat!("Os", "Rng"), 1),
    (concat!("rand::", "random("), 5),
    // RV018 (SWEEPS): the sweep entry points.
    (concat!("par_", "map("), 6),
    (concat!("par_map_", "with("), 7),
    (concat!("swe", "ep("), 0),
];

/// One rule's run of token ids in [`LINT_TOKENS`].
#[derive(Clone, Copy)]
pub(crate) struct Group {
    start: usize,
    end: usize,
}

impl Group {
    /// The `len` ids right after `self`.
    const fn then(self, len: usize) -> Group {
        Group {
            start: self.end,
            end: self.end + len,
        }
    }

    fn holds(self, id: usize) -> bool {
        self.start <= id && id < self.end
    }
}

pub(crate) const PANIC: Group = Group { start: 0, end: 0 }.then(5);
pub(crate) const RAW_TASKS: Group = PANIC.then(2);
pub(crate) const RAW_THREADS: Group = RAW_TASKS.then(2);
pub(crate) const HASH_COLLECTIONS: Group = RAW_THREADS.then(2);
pub(crate) const REDUCTIONS: Group = HASH_COLLECTIONS.then(5);
pub(crate) const POOL_MARKER: Group = REDUCTIONS.then(1);
pub(crate) const ENTROPY: Group = POOL_MARKER.then(6);
pub(crate) const SWEEPS: Group = ENTROPY.then(3);

/// [`LINT_TOKENS`] compiled for [`SourceView`]'s byte pass.
static LINT: TokenSet<'static> = TokenSet::new(&LINT_TOKENS);

/// Where the byte pass stops: byte pairs sorted into up to eight stop
/// classes. Bit `c` of `lead[b]` is set when a pair of class `c` may start
/// with byte `b`, and of `follow[b]` when one may end with it; a position
/// is a stop when the pair it starts is both. A class narrows where the
/// pass looks, and the pass then checks what it stopped at.
struct StopTable {
    lead: [u8; 256],
    follow: [u8; 256],
}

impl StopTable {
    const EMPTY: StopTable = StopTable {
        lead: [0; 256],
        follow: [0; 256],
    };

    /// Puts the pair `(byte, after)`, or every pair starting with `byte`,
    /// in `class`.
    const fn add(&mut self, class: u8, byte: u8, after: Option<u8>) {
        self.lead[byte as usize] |= class;
        match after {
            Some(after) => self.follow[after as usize] |= class,
            None => {
                let mut after = 0;
                while after < 256 {
                    self.follow[after] |= class;
                    after += 1;
                }
            }
        }
    }

    /// Bit `k` set when position `k` of `bytes` (of its first 64) is a
    /// stop. When `bytes` holds 64 or fewer, they end the file, and the last
    /// pairs with a `\n`. Eight positions at a time: the pairs' lead and
    /// follow classes, ANDed as one word, mark a stop with each byte that
    /// is not zero, whose bits are then gathered into one byte.
    fn stops_in(&self, bytes: &[u8]) -> u64 {
        let mut leads = [0u8; 64];
        let mut follows = [0u8; 64];
        if let Some(block) = bytes.first_chunk::<65>() {
            // Fixed trip counts, which the compiler unrolls.
            for k in 0..64 {
                leads[k] = self.lead[usize::from(block[k])];
                follows[k] = self.follow[usize::from(block[k + 1])];
            }
        } else {
            for (k, &byte) in bytes.iter().enumerate() {
                let after = bytes.get(k + 1).copied().unwrap_or(b'\n');
                leads[k] = self.lead[usize::from(byte)];
                follows[k] = self.follow[usize::from(after)];
            }
        }
        let mut stops = 0;
        for (k, (lead, follow)) in leads
            .chunks_exact(8)
            .zip(follows.chunks_exact(8))
            .enumerate()
        {
            let nonzero = nonzero_bytes(word(lead) & word(follow));
            stops |= ((nonzero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
        stops
    }
}

/// The classes of [`TokenSet::code`] besides the six token classes, and of
/// [`TokenSet::test`].
const COMMENT: u8 = 1 << 0;
const ATTRIBUTE: u8 = 1 << 1;
const LINE_END: u8 = 1 << 2;
const OPEN_BRACE: u8 = 1 << 3;
const CLOSE_BRACE: u8 = 1 << 4;

/// A token table compiled for [`SourceView`]'s byte pass. Bit `t` of
/// `first[b]` is set when token `t`'s anchor pair starts with byte `b`, and
/// bit `t` of `second[b]` when the pair's second byte is `b` (every entry,
/// for a one-byte token).
///
/// `code` stops at the anchor pairs, `//` and `#[`; `test` stops where the
/// `#[cfg(test)]` state machine looks: line ends, braces, `//` and `#[`.
/// Each distinct first byte of an anchor gets one of `code`'s six token
/// classes (they share classes past six); at a stop the candidates are
/// checked against `first`, `second` and then the whole token.
pub(crate) struct TokenSet<'t> {
    tokens: &'t [(&'t str, usize)],
    first: [u64; 256],
    second: [u64; 256],
    code: StopTable,
    test: StopTable,
}

impl<'t> TokenSet<'t> {
    /// Compiles `tokens`, `(token, anchor)` pairs: at most 64 of them, each
    /// anchored at a byte pair inside it (a one-byte token at 0). None may
    /// hold a newline, since matches lie within lines, or be made only of
    /// spaces and tabs, which the pass skips in comment lines.
    pub(crate) const fn new(tokens: &'t [(&'t str, usize)]) -> Self {
        assert!(tokens.len() <= 64, "a token set holds at most 64 tokens");
        let mut set = TokenSet {
            tokens,
            first: [0; 256],
            second: [0; 256],
            code: StopTable::EMPTY,
            test: StopTable::EMPTY,
        };
        let mut token_classes = 0;
        let mut t = 0;
        while t < tokens.len() {
            let (token, anchor) = tokens[t];
            let b = token.as_bytes();
            assert!(!b.is_empty(), "tokens are not empty");
            assert!(
                anchor + 1 < b.len() || anchor == 0,
                "the anchor lies inside the token"
            );
            let (mut k, mut blank) = (0, true);
            while k < b.len() {
                assert!(b[k] != b'\n', "tokens hold no newline");
                blank &= b[k] == b' ' || b[k] == b'\t';
                k += 1;
            }
            assert!(!blank, "tokens are not only spaces and tabs");
            let at = b[anchor];
            set.first[at as usize] |= 1 << t;
            let mut class = set.code.lead[at as usize] & !(COMMENT | ATTRIBUTE);
            if class == 0 {
                class = 1 << (2 + token_classes % 6);
                token_classes += 1;
            }
            if b.len() > 1 {
                set.second[b[anchor + 1] as usize] |= 1 << t;
                set.code.add(class, at, Some(b[anchor + 1]));
            } else {
                let mut after = 0;
                while after < 256 {
                    set.second[after] |= 1 << t;
                    after += 1;
                }
                set.code.add(class, at, None);
            }
            t += 1;
        }
        set.code.add(COMMENT, b'/', Some(b'/'));
        set.code.add(ATTRIBUTE, b'#', Some(b'['));
        set.test.add(COMMENT, b'/', Some(b'/'));
        set.test.add(ATTRIBUTE, b'#', Some(b'['));
        set.test.add(LINE_END, b'\n', None);
        set.test.add(OPEN_BRACE, b'{', None);
        set.test.add(CLOSE_BRACE, b'}', None);
        set
    }
}

/// The stops of one [`StopTable`] in a file, in order, computed 64 bytes at
/// a time.
struct Stops<'s> {
    bytes: &'s [u8],
    table: &'s StopTable,
    /// Where the current block starts.
    base: usize,
    /// The block's stops not yet yielded.
    left: u64,
}

impl<'s> Stops<'s> {
    fn new(bytes: &'s [u8], table: &'s StopTable, from: usize) -> Self {
        let mut stops = Stops {
            bytes,
            table,
            base: from,
            left: 0,
        };
        stops.load();
        stops
    }

    /// Computes the block at `base`.
    fn load(&mut self) {
        self.left = match self.bytes.get(self.base..) {
            Some(rest) if !rest.is_empty() => self.table.stops_in(rest),
            _ => 0,
        };
    }

    /// Drops the stops before `to`.
    fn skip_to(&mut self, to: usize) {
        if to >= self.base + 64 {
            self.base = to;
            self.load();
        } else if to > self.base {
            self.left &= u64::MAX << (to - self.base);
        }
    }
}

impl Iterator for Stops<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.left == 0 {
            self.base += 64;
            if self.base >= self.bytes.len() {
                return None;
            }
            self.load();
        }
        let at = self.base + self.left.trailing_zeros() as usize;
        self.left &= self.left - 1;
        Some(at)
    }
}

/// RV002 scanner: returns `(line_number, token)` for every panicking call
/// in non-test code. Line numbers are 1-based; the token is the matched
/// text (e.g. a trailing `(` marks a call prefix).
pub fn panic_sites(view: &SourceView<'_>) -> Vec<(usize, &'static str)> {
    view.token_sites(PANIC)
}

/// Where a `#[cfg(test)]` item stands before a line.
#[derive(Clone, Copy)]
enum TestItem {
    /// Saw `#[cfg(test)]`; consuming any further stacked attributes.
    Pending,
    /// The item's `{` opens on a later line.
    WaitingOpen,
    /// Inside the item's body at the given brace depth.
    Body(i64),
}

/// A line of test code: where it starts, its brace counts before the
/// comment cut, its first `//` and its first `#[`.
#[derive(Clone, Copy, Default)]
struct TestLine {
    start: usize,
    opens: i64,
    closes: i64,
    cut: Option<usize>,
    attr: Option<usize>,
}

/// The item's state after a line that leaves its body `depth` braces deep
/// (opened and closed on one line when not positive); `None` once the item
/// has ended.
fn open(depth: i64) -> Option<TestItem> {
    (depth > 0).then_some(TestItem::Body(depth))
}

/// The start of the line holding byte `at`.
fn line_start(content: &str, at: usize) -> usize {
    content[..at].rfind('\n').map_or(0, |n| n + 1)
}

/// The `\n` ending the line that holds byte `at`, or the file's end.
fn line_end(content: &str, at: usize) -> usize {
    content[at..].find('\n').map_or(content.len(), |n| at + n)
}

/// The first eight bytes of `bytes` as a little-endian word (zero when
/// there are fewer): byte `k` is bits `8k..8k + 8`.
fn word(bytes: &[u8]) -> u64 {
    bytes
        .first_chunk::<8>()
        .map_or(0, |w| u64::from_le_bytes(*w))
}

/// The low seven bits of every byte of a word.
const LOW7: u64 = u64::from_ne_bytes([0x7f; 8]);

/// The high bit of each byte of `x` that is not zero (adding `0x7f` to its
/// low bits carries into the high bit, and no byte carries into the next).
fn nonzero_bytes(x: u64) -> u64 {
    (((x & LOW7) + LOW7) | x) & !LOW7
}

/// The high bit of each byte of the eight bytes `eight` that is a `\n`: a
/// byte of `word ^ NEWLINES` is zero exactly there.
fn newline_bits(eight: &[u8]) -> u64 {
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    nonzero_bytes(word(eight) ^ NEWLINES) ^ !LOW7
}

/// The number of `\n` bytes in `bytes`, counted eight at a time.
fn line_ends(bytes: &[u8]) -> usize {
    let mut words = bytes.chunks_exact(8);
    let count: usize = words
        .by_ref()
        .map(|word| newline_bits(word).count_ones() as usize)
        .sum();
    count + words.remainder().iter().filter(|&&b| b == b'\n').count()
}

/// The offset of the first `//` in `line`, found from one `/` to the next
/// (a `str` pattern search costs more to set up than a short line takes).
fn comment_start(line: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(slash) = line[from..].find('/') {
        let at = from + slash;
        if line.as_bytes().get(at + 1) == Some(&b'/') {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Where the scan of code resumes after the `//` at byte `at`: the start
/// of the next line that is not a comment line, or the file's end. A run of
/// comment lines (a doc comment) is skipped a line at a time, with no
/// stops. No token is blank, so none can match in a comment line's
/// indentation.
fn past_comments(content: &str, at: usize) -> usize {
    let mut end = line_end(content, at);
    while end < content.len() {
        let code = content[end + 1..].trim_start_matches([' ', '\t']);
        if !code.starts_with("//") {
            return end + 1;
        }
        end = line_end(content, content.len() - code.len());
    }
    content.len()
}

/// One library file, scanned once and shared by every token rule (RV002,
/// RV011, RV012, RV015–RV018).
///
/// The raw lines are the file's lines as `str::lines` yields them, so
/// indices are `line_number - 1`. The stripped lines are the same lines
/// with comments and test code removed: lines inside `#[cfg(test)]` items
/// (and the attribute lines themselves) are empty; code lines lose any
/// trailing `//` comment. `hits` holds every match of a `LINT_TOKENS` token
/// in the stripped lines; a rule reads its own group of it.
///
/// The `#[cfg(test)]` handling: after the attribute we look for the item it
/// decorates and swallow its brace-delimited body by brace counting. String
/// literals are intentionally not parsed — a lightweight token scan is the
/// contract here, and the workspace style keeps scanned tokens out of
/// message strings.
///
/// [`SourceView::new`] finds the matches and the test code in one byte
/// pass over the file (see `TokenSet`), and does per-line work only in
/// test code. The rest is done on demand: a match's line index the first
/// time a rule asks for a group's hits (rules that only count ask for
/// none), and the line starts the first time a line is asked for (only
/// RV016 and RV018 ask, on files with a pool marker or a sweep call). On
/// the ~380k-line layerbench `lint` tree (seed 1, 1,394 files, 11.1 MB,
/// 2 vCPU), building every library file's view serially takes about 12
/// ms, against about 18.5 ms for the pass that visited every line (fastest
/// of 21 interleaved runs each).
pub struct SourceView<'a> {
    content: &'a str,
    /// The byte ranges of test code, whole lines each, in order.
    tests: Vec<std::ops::Range<usize>>,
    /// The matches, as `(byte offset in the file, token id)`, in order.
    found: Vec<(usize, usize)>,
    starts: OnceCell<Vec<usize>>,
    hits: OnceCell<Vec<(usize, usize, usize)>>,
}

impl<'a> SourceView<'a> {
    /// Scans `content` once.
    pub fn new(content: &'a str) -> Self {
        Self::scan(content, &LINT)
    }

    /// The view of `content` with `set`'s tokens as the hits: `(line index,
    /// token id, byte offset in the stripped line)`, ordered by line, then
    /// token, then offset. Per line and token these are exactly the
    /// leftmost non-overlapping matches `str::match_indices` yields on the
    /// stripped line.
    ///
    /// Code and test code alternate. In code the pass stops only where a
    /// token may start, at a `//` and at a `#[`: it records matches, jumps
    /// from a `//` to the line's end (dropping the matches that run into
    /// the comment), and hands over to [`Self::test_item_end`] at a line
    /// whose trimmed start is `#[cfg(test)]`. Line indices are counted only
    /// for the matches, once the pass is done.
    fn scan(content: &'a str, set: &TokenSet<'_>) -> Self {
        let bytes = content.as_bytes();
        // The matches in code, as (byte offset in the file, token id).
        let mut found: Vec<(usize, usize)> = Vec::new();
        let mut tests = Vec::new();
        // Per token, the first offset a match may start at.
        let mut next = [0usize; 64];
        let mut stops = Stops::new(bytes, &set.code, 0);
        while let Some(at) = stops.next() {
            let byte = bytes[at];
            let after = bytes.get(at + 1).copied().unwrap_or(b'\n');
            let mut candidates = set.first[usize::from(byte)] & set.second[usize::from(after)];
            while candidates != 0 {
                let t = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let (token, anchor) = set.tokens[t];
                let Some(start) = at.checked_sub(anchor) else {
                    continue;
                };
                if start >= next[t] && bytes[start..].starts_with(token.as_bytes()) {
                    next[t] = start + token.len();
                    // A match in code ends before its line's first `//`
                    // (the pass jumps past one that starts before `at`) and
                    // before the `\r` of a `\r\n`.
                    let tail = &bytes[start..bytes.len().min(next[t] + 1)];
                    if !tail.windows(2).any(|pair| pair == b"//") && !tail.ends_with(b"\r\n") {
                        found.push((start, t));
                    }
                }
            }
            match byte {
                b'/' if after == b'/' => stops.skip_to(past_comments(content, at)),
                b'#' if after == b'[' && bytes[at..].starts_with(b"#[cfg(test)]") => {
                    let start = line_start(content, at);
                    if content[start..at].trim_start().is_empty() {
                        while found.last().is_some_and(|&(off, _)| off >= start) {
                            found.pop();
                        }
                        let end = Self::test_item_end(content, set, at);
                        tests.push(start..end);
                        stops.skip_to(end);
                    }
                }
                _ => {}
            }
        }
        found.sort_unstable();
        SourceView {
            content,
            tests,
            found,
            starts: OnceCell::new(),
            hits: OnceCell::new(),
        }
    }

    /// Every match as `(line index, token id, byte offset in the stripped
    /// line)`, ordered by line, then token, then offset; placed on the
    /// first call by counting the line ends between consecutive matches.
    fn placed(&self) -> &[(usize, usize, usize)] {
        self.hits.get_or_init(|| {
            let bytes = self.content.as_bytes();
            let (mut line, mut counted) = (0, 0);
            let mut hits: Vec<(usize, usize, usize)> = self
                .found
                .iter()
                .map(|&(at, t)| {
                    line += line_ends(&bytes[counted..at]);
                    counted = at;
                    (line, t, at - line_start(self.content, at))
                })
                .collect();
            hits.sort_unstable();
            hits
        })
    }

    /// Where the test item whose `#[cfg(test)]` is at byte `attr` ends: the
    /// start of the first line after it, or the file's end. Steps the
    /// `#[cfg(test)]` state machine line by line from the line after the
    /// attribute, stopping only at line ends, braces, `//` and `#[`.
    fn test_item_end(content: &str, set: &TokenSet<'_>, attr: usize) -> usize {
        let bytes = content.as_bytes();
        let from = line_end(content, attr) + 1;
        let mut item = TestItem::Pending;
        let mut line = TestLine {
            start: from,
            ..TestLine::default()
        };
        let mut stops = Stops::new(bytes, &set.test, from);
        while let Some(at) = stops.next() {
            let after = bytes.get(at + 1).copied().unwrap_or(b'\n');
            match bytes[at] {
                b'\n' => {
                    let crlf = at > line.start && bytes[at - 1] == b'\r';
                    match Self::step(content, item, &line, at - usize::from(crlf)) {
                        Some(state) => item = state,
                        None => return at + 1,
                    }
                    line = TestLine {
                        start: at + 1,
                        ..TestLine::default()
                    };
                }
                b'{' => line.opens += 1,
                b'}' => line.closes += 1,
                b'/' if after == b'/' => {
                    line.cut = Some(at);
                    stops.skip_to(line_end(content, at));
                }
                b'#' if after == b'[' && line.attr.is_none() => line.attr = Some(at),
                _ => {}
            }
        }
        bytes.len()
    }

    /// Steps the `#[cfg(test)]` state machine over `line`, whose raw text
    /// ends at `end`, from `item`. Returns the item's state before the next
    /// line, or `None` when the item ended on this line.
    fn step(content: &str, item: TestItem, line: &TestLine, end: usize) -> Option<TestItem> {
        let start = line.start;
        let code = line.cut.unwrap_or(end);
        // The trimmed line starts with `#[` exactly when its first `#[`
        // follows nothing but whitespace.
        let attr = (line.attr).is_some_and(|a| content[start..a].trim_start().is_empty());
        let delta = line.opens - line.closes;
        match item {
            // stacked attributes (#[cfg(test)] #[allow(...)])
            TestItem::Pending if attr => Some(item),
            TestItem::Pending | TestItem::WaitingOpen if line.opens > 0 => open(delta),
            // `mod tests;` — out-of-line file, skip just this line
            TestItem::Pending if code > start && content[..code].ends_with(';') => None,
            TestItem::Pending => Some(TestItem::WaitingOpen),
            TestItem::WaitingOpen => Some(item),
            TestItem::Body(depth) => open(depth + delta),
        }
    }

    /// The start of every line, found on the first call, eight bytes at a
    /// time.
    fn starts(&self) -> &[usize] {
        self.starts.get_or_init(|| {
            let bytes = self.content.as_bytes();
            let mut starts = vec![0];
            let mut words = bytes.chunks_exact(8);
            for (w, word) in words.by_ref().enumerate() {
                let mut newlines = newline_bits(word);
                while newlines != 0 {
                    starts.push(8 * w + newlines.trailing_zeros() as usize / 8 + 1);
                    newlines &= newlines - 1;
                }
            }
            let tail = bytes.len() - words.remainder().len();
            for (k, &byte) in words.remainder().iter().enumerate() {
                if byte == b'\n' {
                    starts.push(tail + k + 1);
                }
            }
            // `str::lines` yields no line after the last line end.
            if starts.last() == Some(&bytes.len()) {
                starts.pop();
            }
            starts
        })
    }

    /// Line `idx` as byte offsets into the file: where it starts, where its
    /// raw text ends (before a `\n` and the `\r` of a `\r\n`) and where
    /// its stripped text ends (its start in test code, its first `//` in
    /// code with a comment).
    fn line(&self, idx: usize) -> (usize, usize, usize) {
        let (content, starts) = (self.content, self.starts());
        let start = starts[idx];
        let newline = starts
            .get(idx + 1)
            .map_or_else(|| line_end(content, start), |&next| next - 1);
        let crlf =
            newline < content.len() && newline > start && content.as_bytes()[newline - 1] == b'\r';
        let end = newline - usize::from(crlf);
        let test = self.tests.partition_point(|test| test.end <= start);
        let code = if self.tests.get(test).is_some_and(|test| test.start <= start) {
            start
        } else {
            comment_start(&content[start..end]).map_or(end, |cut| start + cut)
        };
        (start, end, code)
    }

    /// The number of lines, raw or stripped.
    pub(crate) fn line_count(&self) -> usize {
        self.starts().len()
    }

    /// Line `idx` as `str::lines` yields it, comments and test code included.
    pub(crate) fn raw_line(&self, idx: usize) -> &'a str {
        let (start, end, _) = self.line(idx);
        &self.content[start..end]
    }

    /// Line `idx` with comments and test code stripped.
    pub(crate) fn stripped_line(&self, idx: usize) -> &'a str {
        let (start, _, code) = self.line(idx);
        &self.content[start..code]
    }

    /// True when the [`POOL_MARKER`] token occurs in non-test code.
    pub(crate) fn contains_marker(&self) -> bool {
        self.count(POOL_MARKER) > 0
    }

    /// The number of matches of `group`'s tokens outside comments and test
    /// code. Needs no line index, so it places no match.
    pub(crate) fn count(&self, group: Group) -> usize {
        self.found.iter().filter(|&&(_, t)| group.holds(t)).count()
    }

    /// The matches of `group`'s tokens outside comments and test code, as
    /// `(line index, token, byte offset in the stripped line)`, ordered by
    /// line, then token, then offset. Places the file's matches when the
    /// group has any.
    pub(crate) fn hits(
        &self,
        group: Group,
    ) -> impl Iterator<Item = (usize, &'static str, usize)> + '_ {
        let placed = if self.count(group) > 0 {
            self.placed()
        } else {
            &[]
        };
        placed
            .iter()
            .filter(move |&&(_, t, _)| group.holds(t))
            .map(|&(line, t, off)| (line, LINT_TOKENS[t].0, off))
    }

    /// The matches of `group`'s tokens as `(line_number, token)` with
    /// 1-based line numbers, in [`Self::hits`] order.
    pub(crate) fn token_sites(&self, group: Group) -> Vec<(usize, &'static str)> {
        self.hits(group)
            .map(|(line, token, _)| (line + 1, token))
            .collect()
    }
}

/// RV002 with the per-file budget applied: over budget is an error, under
/// budget is an RV010 stale-allowlist warning (ratchet the budget down).
pub fn check_panic_budget(path: &str, content: &str, budget: usize) -> Vec<Diagnostic> {
    check_panic_budget_in(path, &SourceView::new(content), budget)
}

/// [`check_panic_budget`] over an already-scanned file.
pub fn check_panic_budget_in(path: &str, view: &SourceView<'_>, budget: usize) -> Vec<Diagnostic> {
    let actual = view.count(PANIC);
    let mut out = Vec::new();
    if actual > budget {
        for (line, token) in panic_sites(view) {
            out.push(Diagnostic::error(
                Code::PanicInLibrary,
                format!("{path}:{line}"),
                format!(
                    "`{token}` in library code ({actual} site(s), budget {budget}); \
                     return a Diagnostic/Result instead or raise the budget in \
                     crates/verify/panic_allowlist.txt"
                ),
            ));
        }
    } else if actual < budget {
        out.push(Diagnostic::warning(
            Code::StaleAllowlist,
            path.to_string(),
            format!(
                "allowlist budget is {budget} but only {actual} panicking site(s) remain; \
                 ratchet it down (or run `lint --write-allowlist`)"
            ),
        ));
    }
    out
}

/// Net `{` minus `}` on one line. Byte-wise: neither brace can occur inside
/// a multi-byte UTF-8 character.
pub(crate) fn brace_delta(line: &str) -> i64 {
    line.bytes().fold(0, |d, b| match b {
        b'{' => d + 1,
        b'}' => d - 1,
        _ => d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_detsan::prop::{check, Gen};

    #[test]
    fn forbid_unsafe_detected() {
        assert!(check_forbid_unsafe("a.rs", "#![forbid(unsafe_code)]\npub fn f() {}").is_none());
        let d = check_forbid_unsafe("a.rs", "pub fn f() {}").expect("missing attr");
        assert_eq!(d.code(), Code::MissingForbidUnsafe);
    }

    #[test]
    fn finds_panicking_tokens() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g() { panic!(\"boom\") }\n";
        let sites = panic_sites(&SourceView::new(src));
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].0, 2);
        assert!(sites[0].1.contains("unwrap"));
        assert_eq!(sites[1].0, 4);
        assert!(sites[1].1.contains("nic!"));
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   fn g(r: Result<u8, u8>) -> bool { r.expect_err(\"no\") == 1 }\n";
        assert!(panic_sites(&SourceView::new(src)).is_empty());
    }

    #[test]
    fn comments_and_doctests_ignored() {
        let src = "/// let v = x.unwrap();\n// y.expect(\"no\")\nfn f() {}\n";
        assert!(panic_sites(&SourceView::new(src)).is_empty());
    }

    #[test]
    fn cfg_test_modules_exempt() {
        let src = concat!(
            "fn lib() -> u8 { 1 }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use super::*;\n",
            "    #[test]\n",
            "    fn t() { assert_eq!(lib(), 1); Some(1).unwrap(); }\n",
            "}\n",
            "fn after() -> Option<u8> { None.unwrap() }\n",
        );
        let sites = panic_sites(&SourceView::new(src));
        assert_eq!(
            sites.len(),
            1,
            "only the post-module site counts: {sites:?}"
        );
        assert_eq!(sites[0].0, 8);
    }

    #[test]
    fn budget_over_and_under() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let over = check_panic_budget("f.rs", src, 0);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].code(), Code::PanicInLibrary);
        assert_eq!(over[0].severity(), crate::Severity::Error);

        let exact = check_panic_budget("f.rs", src, 1);
        assert!(exact.is_empty());

        let stale = check_panic_budget("f.rs", src, 3);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].code(), Code::StaleAllowlist);
        assert_eq!(stale[0].severity(), crate::Severity::Warning);
    }

    /// The scanner's `(line, token)` list for `src` under `tokens`, which
    /// is the same whether each token is anchored at its first or its last
    /// byte pair.
    fn sites(src: &str, tokens: &[&str]) -> Vec<(usize, String)> {
        let scan = |anchor: fn(&str) -> usize| {
            let set: Vec<(&str, usize)> = tokens.iter().map(|&t| (t, anchor(t))).collect();
            SourceView::scan(src, &TokenSet::new(&set))
                .placed()
                .to_vec()
        };
        let hits = scan(|_| 0);
        assert_eq!(
            hits,
            scan(|t| t.len().saturating_sub(2)),
            "anchors of {src:?}"
        );
        hits.into_iter()
            .map(|(line, t, _)| (line + 1, tokens[t].to_string()))
            .collect()
    }

    fn expect(pairs: &[(usize, &str)]) -> Vec<(usize, String)> {
        pairs.iter().map(|&(l, t)| (l, t.to_string())).collect()
    }

    const UNWRAP: &str = ".unwrap()";

    #[test]
    fn crlf_line_endings() {
        let src = "fn f() {\r\n    x.unwrap()\r\n}\r\n\
                   #[cfg(test)]\r\nmod tests;\r\nfn g() { y.unwrap() } // z.unwrap()\r\n";
        assert_eq!(sites(src, &[UNWRAP]), expect(&[(2, UNWRAP), (6, UNWRAP)]));
    }

    #[test]
    fn last_line_without_newline() {
        let src = "fn f() {}\nfn g() { x.unwrap() }\nlet v = y.unwrap()";
        assert_eq!(sites(src, &[UNWRAP]), expect(&[(2, UNWRAP), (3, UNWRAP)]));
    }

    #[test]
    fn repeated_token_matches_do_not_overlap() {
        let src = "let s = a.unwrap() + b.unwrap() + c.unwrap();\n";
        assert_eq!(
            sites(src, &[UNWRAP]),
            expect(&[(1, UNWRAP), (1, UNWRAP), (1, UNWRAP)])
        );
        // `aaaaa` holds two non-overlapping `aa`, not four overlapping ones.
        assert_eq!(
            sites("aaaaa\naa\n", &["aa"]),
            expect(&[(1, "aa"), (1, "aa"), (2, "aa")])
        );
        // Within a line, hits order by token, then offset.
        assert_eq!(
            sites("b a b a\n", &["a", "b"]),
            expect(&[(1, "a"), (1, "a"), (1, "b"), (1, "b")])
        );
        assert_eq!(
            SourceView::scan("x\n  ab ab\n", &TokenSet::new(&[("ab", 0)])).placed(),
            [(1, 0, 2), (1, 0, 5)]
        );
    }

    #[test]
    fn token_behind_trailing_comment_is_ignored() {
        let src = "let v = x.unwrap(); // then y.unwrap()\n// z.unwrap()\nw(); //\n";
        assert_eq!(sites(src, &[UNWRAP]), expect(&[(1, UNWRAP)]));
    }

    #[test]
    fn cfg_test_block_tokens_are_ignored() {
        let src = concat!(
            "fn lib() { a.unwrap(); }\n",
            "#[cfg(test)]\n",
            "#[allow(dead_code)]\n",
            "mod tests {\n",
            "    fn t() { b.unwrap(); }\n",
            "    fn u() {\n",
            "        c.unwrap();\n",
            "    }\n",
            "}\n",
            "fn after() { d.unwrap(); }\n",
        );
        assert_eq!(sites(src, &[UNWRAP]), expect(&[(1, UNWRAP), (10, UNWRAP)]));
    }

    #[test]
    fn out_of_line_cfg_test_module_skips_one_line() {
        let src = "#[cfg(test)]\nmod tests;\nfn f() { x.unwrap() }\n";
        assert_eq!(sites(src, &[UNWRAP]), expect(&[(3, UNWRAP)]));
    }

    #[test]
    fn categorized_task_call_is_not_a_raw_one() {
        let src = "g.add_task_in(c, x); g.add_task(y);\n\
                   g.try_add_task_in(c, x); g.try_add_task(y);\n";
        assert_eq!(
            sites(src, &[".add_task(", ".try_add_task("]),
            expect(&[(1, ".add_task("), (2, ".try_add_task(")])
        );
    }

    /// The three passes the one-pass view replaced, kept as its reference:
    /// the comment- and test-stripped copy of `lines`.
    fn reference_stripped<'a>(lines: &[&'a str]) -> Vec<&'a str> {
        enum State {
            Code,
            PendingItem,
            WaitingOpen,
            Skipping(i64),
        }
        let mut out = Vec::with_capacity(lines.len());
        let mut state = State::Code;
        for &raw in lines {
            let (line, delta) = reference_code_and_braces(raw);
            let trimmed = line.trim_start();
            let mut keep = false;
            match state {
                State::Code => {
                    if trimmed.starts_with("#[cfg(test)]") {
                        state = State::PendingItem;
                    } else {
                        keep = true;
                    }
                }
                State::PendingItem => {
                    if !trimmed.starts_with("#[") {
                        state = if line.contains('{') {
                            if delta > 0 {
                                State::Skipping(delta)
                            } else {
                                State::Code
                            }
                        } else if trimmed.ends_with(';') {
                            State::Code
                        } else {
                            State::WaitingOpen
                        };
                    }
                }
                State::WaitingOpen => {
                    if line.contains('{') {
                        state = if delta > 0 {
                            State::Skipping(delta)
                        } else {
                            State::Code
                        };
                    }
                }
                State::Skipping(depth) => {
                    let depth = depth + delta;
                    state = if depth <= 0 {
                        State::Code
                    } else {
                        State::Skipping(depth)
                    };
                }
            }
            out.push(if keep { line } else { "" });
        }
        out
    }

    /// `line` cut before its first `//`, and the net `{` minus `}` count of
    /// what is left.
    fn reference_code_and_braces(line: &str) -> (&str, i64) {
        let cut = line.find("//").unwrap_or(line.len());
        (&line[..cut], brace_delta(&line[..cut]))
    }

    /// The hits' contract, spelled out: `match_indices` per line per token.
    fn reference(lines: &[&str], tokens: &[(&str, usize)]) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (line, text) in lines.iter().enumerate() {
            for (t, (token, _)) in tokens.iter().enumerate() {
                out.extend(text.match_indices(token).map(|(off, _)| (line, t, off)));
            }
        }
        out
    }

    /// Tokens that stress the byte pass: overlapping runs, a token that
    /// extends another, multibyte UTF-8, tabs, a `\r`, a one-byte token,
    /// tokens holding the bytes the line structure stops at (one holding a
    /// `//`, one starting in a `#[cfg(test)]` line's indentation), and
    /// anchors at the start, inside and at the end of a token.
    const EDGE_TOKENS: [(&str, usize); 15] = [
        ("aa", 0),
        ("aaaaa", 3),
        ("par_map(", 6),
        ("par_map_with(", 11),
        ("é→", 1),
        ("→a", 2),
        ("\tx", 0),
        ("x\r", 0),
        ("(", 0),
        ("{a", 0),
        ("/x", 0),
        ("a/", 0),
        ("#[a", 1),
        ("x//", 1),
        (" #[c", 1),
    ];

    /// Whole lines that steer the `#[cfg(test)]` state machine: test
    /// attributes at a line's start (after spaces, tabs or U+00A0) or in its
    /// middle, with a `{` on the same line or later, comment lines with
    /// braces, and unbalanced braces.
    const STRUCTURE: [&str; 24] = [
        "#[cfg(test)]",
        "  #[cfg(test)] // tests",
        "\t#[cfg(test)]",
        " \t\u{a0}#[cfg(test)]",
        "\u{a0}#[cfg(test)]",
        "#[cfg(test)]\r",
        "x = 1; #[cfg(test)]",
        "#[cfg(test)] {",
        "#[cfg(test)] mod t {",
        "#[cfg(test)] fn t() { x.unwrap() }",
        "#[allow(dead_code)]",
        "  #[inline]",
        "mod tests;",
        "mod tests",
        "mod tests {",
        "fn t() { }",
        "// {",
        "  /// }",
        "{",
        "}",
        "{ {",
        "} }",
        "} } }",
        "\t// x.unwrap()",
    ];

    /// A file drawn from `fragments` and [`STRUCTURE`]: up to 30 lines,
    /// each a structure line or up to 11 fragments, ended by `\n` or
    /// `\r\n`, and sometimes a last line with no newline.
    fn draw_file(g: &mut Gen, fragments: &[&str]) -> String {
        let mut file = String::new();
        for _ in 0..g.range(0..30usize) {
            if g.range(0..4usize) == 0 {
                file.push_str(g.pick(&STRUCTURE));
            } else {
                for _ in 0..g.range(0..12usize) {
                    file.push_str(g.pick(fragments));
                }
            }
            file.push_str(g.pick(&["\n", "\r\n"]));
        }
        for _ in 0..g.range(0..3usize) {
            file.push_str(g.pick(fragments));
        }
        file
    }

    /// Every token of `tokens`, every proper prefix of each (so near-misses
    /// straddle real matches) and single bytes the pass treats specially.
    fn fragments<'a>(tokens: &[(&'a str, usize)]) -> Vec<&'a str> {
        let mut fragments: Vec<&str> = vec![
            "a", "aa", "aaa", "é", "→", "\t", "\r", " ", "x", "_", "(", "/", "//", "{", "}", "#",
            "#[", ";",
        ];
        for &(token, _) in tokens {
            fragments.push(token);
            fragments.extend((1..token.len()).filter_map(|n| token.get(..n)));
        }
        fragments
    }

    /// Asserts that the one-pass view of `file` under `set` has the hits,
    /// line count, raw lines and stripped lines of the three-pass
    /// reference, and returns its hits. The hits are checked before any
    /// line is asked for, and the lines of a second view are asked for
    /// last first, so neither depends on the order the line table is built
    /// in.
    fn assert_view_matches_reference(file: &str, set: &TokenSet<'_>) -> Vec<(usize, usize, usize)> {
        let raw: Vec<&str> = file.lines().collect();
        let stripped = reference_stripped(&raw);
        let view = SourceView::scan(file, set);
        assert_eq!(
            view.placed(),
            reference(&stripped, set.tokens),
            "hits of {file:?}"
        );
        assert!(
            view.starts.get().is_none(),
            "no line table before a line is asked for"
        );
        assert_eq!(view.line_count(), raw.len(), "line count of {file:?}");
        let lines: Vec<&str> = (0..raw.len()).map(|i| view.raw_line(i)).collect();
        assert_eq!(lines, raw, "raw lines of {file:?}");
        let lines: Vec<&str> = (0..raw.len()).map(|i| view.stripped_line(i)).collect();
        assert_eq!(lines, stripped, "stripped lines of {file:?}");
        let fresh = SourceView::scan(file, set);
        for i in (0..raw.len()).rev() {
            assert_eq!(
                fresh.stripped_line(i),
                stripped[i],
                "stripped line {i} of {file:?}"
            );
            assert_eq!(fresh.raw_line(i), raw[i], "raw line {i} of {file:?}");
        }
        assert_eq!(fresh.line_count(), raw.len(), "line count of {file:?}");
        view.placed().to_vec()
    }

    #[test]
    fn one_pass_view_matches_the_three_pass_reference() {
        let edge = TokenSet::new(&EDGE_TOKENS);
        let (lint_fragments, edge_fragments) = (fragments(&LINT_TOKENS), fragments(&EDGE_TOKENS));
        let mut seen = [false; LINT_TOKENS.len()];
        check("one_pass_view_matches_the_three_pass_reference", 600, |g| {
            let file = draw_file(g, &lint_fragments);
            for (_, t, _) in assert_view_matches_reference(&file, &LINT) {
                seen[t] = true;
            }
            assert_view_matches_reference(&draw_file(g, &edge_fragments), &edge);
        });
        assert!(
            seen.iter().all(|&s| s),
            "every lint token matched: {seen:?}"
        );
    }

    #[test]
    fn one_pass_view_edge_cases() {
        let edge = TokenSet::new(&EDGE_TOKENS);
        for file in [
            "",
            "\n",
            "\r\n",
            "\r",
            "a\r",
            "a\n\r",
            "a\r\r\n",
            "x\raa\r\n",
            // A token at the end of the file, and a one-byte one.
            "xaa",
            "aaaaa\naa(",
            // A `//` that splits a token, and tokens around a cut.
            "par_//map(\npar_map(//x\n/x/x//x\n",
            "é→é→\n→aé\n",
            // Stacked attributes, `mod tests;` and one-line test items.
            "#[cfg(test)]\n#[allow(x)]\nmod tests {\n aa\n}\naa\n",
            "#[cfg(test)]\nmod tests;\naa\n",
            "#[cfg(test)] fn t() { aa }\naa\n#[cfg(test)]\nfn u() { aa }\naa",
            "#[cfg(test)]\nfn v()\n{\naa }\naa\r\n",
            "\u{a0}#[cfg(test)]\n{a\n}\naa",
            // `#[` in the middle of a line, and after spaces, tabs or U+00A0.
            "x = 1; #[cfg(test)]\naa\n{\naa\n",
            " \t#[cfg(test)]\nfn t() {\naa }\naa\n",
            "\t\u{a0} #[cfg(test)]\nmod t;\naa #[a\n",
            // `#[cfg(test)]` then `{` on the same line.
            "#[cfg(test)] {\naa\n}\naa\n",
            "#[cfg(test)] mod t {\naa\n}\naa\n",
            // A test item whose `{` opens several lines later, past comment
            // lines holding braces.
            "#[cfg(test)]\nmod tests\n// {\n  /// }\n\n{\naa\n}\naa\n",
            // Unbalanced braces just after a test item.
            "#[cfg(test)]\nfn t() {}\n}\n} }\naa {\naa\n",
            "#[cfg(test)]\nfn t() {\n} } {\naa\n}\naa\n",
            // Hits on the first and last line, with and without a final
            // newline, and with CRLF line endings.
            "aa\nx\naa",
            "aa\nx\naa\n",
            "aa\r\nx\r\naa",
            "aa\r\nx\r\naa\r\n",
            "#[cfg(test)]\r\nmod tests {\r\naa\r\n}\r\naa(\r\n",
            // Runs of comment lines, and tokens around and holding a `//`.
            "/// aa\n  // aa\n\t//aa\naa // aa\n  aa\n",
            "x//\nax//x\n//\n",
        ] {
            assert_view_matches_reference(file, &edge);
            assert_view_matches_reference(file, &LINT);
        }
    }

    #[test]
    fn lint_table_invariants() {
        assert!(LINT_TOKENS.len() <= 64);
        for (token, anchor) in LINT_TOKENS {
            assert!(token.len() >= 2 && !token.contains('\n'), "{token:?}");
            assert!(anchor + 1 < token.len(), "{token:?} anchored inside");
        }
        let groups = [
            (
                PANIC,
                vec![".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"],
            ),
            (RAW_TASKS, vec![".add_task(", ".try_add_task("]),
            (RAW_THREADS, vec!["thread::spawn(", "thread::scope("]),
            (HASH_COLLECTIONS, vec!["HashMap", "HashSet"]),
            (
                REDUCTIONS,
                vec![".sum()", ".sum::<", ".fold(", ".product()", ".product::<"],
            ),
            (POOL_MARKER, vec!["recsim_pool"]),
            (
                ENTROPY,
                vec![
                    "SystemTime",
                    "Instant::now",
                    "thread_rng(",
                    "from_entropy(",
                    "OsRng",
                    "rand::random(",
                ],
            ),
            (SWEEPS, vec!["par_map(", "par_map_with(", "sweep("]),
        ];
        let mut end = 0;
        for (group, tokens) in groups {
            assert_eq!(group.start, end, "groups tile the table in order");
            let names: Vec<&str> = LINT_TOKENS[group.start..group.end]
                .iter()
                .map(|&(token, _)| token)
                .collect();
            assert_eq!(names, tokens);
            end = group.end;
        }
        assert_eq!(end, LINT_TOKENS.len());
    }

    #[test]
    fn view_reads_only_its_group() {
        let src = "use recsim_pool::par_map;\n\
                   let m: HashMap<u8, u8> = par_map(&xs, f).unwrap();\n\
                   // recsim_pool in a comment\n";
        let view = SourceView::new(src);
        assert!(view.contains_marker());
        assert_eq!(view.token_sites(HASH_COLLECTIONS), [(2, "HashMap")]);
        assert_eq!(view.token_sites(PANIC), [(2, ".unwrap()")]);
        let call = src.lines().nth(1).and_then(|l| l.find("par_map(")).unwrap();
        assert_eq!(
            view.hits(SWEEPS).collect::<Vec<_>>(),
            [(1, "par_map(", call)]
        );
        assert!(view.token_sites(ENTROPY).is_empty());
        assert!(!SourceView::new("// recsim_pool\n").contains_marker());
    }
}
