//! Source-level rules: `#![forbid(unsafe_code)]` presence (RV001) and
//! panicking calls in non-test library code (RV002), plus the token scanner
//! every token rule shares.
//!
//! Rules are pure functions over `(path, content)` so unit tests can run
//! them against inline fixture snippets without touching the filesystem.
//! `lint::run` builds one [`SourceView`] per library file and hands it to
//! the `check_*_in` variant of every token rule. One byte pass per file
//! splits the lines, strips comments and test code, and finds every token
//! of the rule-grouped table `LINT_TOKENS` behind a two-byte prefilter;
//! each rule then reads only its own group's hits.

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

/// Every token the token rules look for, grouped by rule: a rule's tokens
/// have contiguous ids, in the order given here, and its [`Group`] constant
/// names them. Each entry is split with `concat!` so this file does not
/// flag itself when the scanner runs over the verify crate. No token is
/// shorter than two bytes, so the prefilter tests both of its first bytes,
/// and none holds a newline, since [`scan`] looks within lines.
pub(crate) const LINT_TOKENS: [&str; 26] = [
    // RV002 (PANIC): the matched text is the call prefix, so `.unwrap_or(`
    // and `.expect_err(` pass.
    concat!(".unw", "rap()"),
    concat!(".exp", "ect("),
    concat!("pa", "nic!"),
    concat!("to", "do!"),
    concat!("unimple", "mented!"),
    // RV011 (RAW_TASKS): `.add_task_in(` does not match `.add_task(` (the
    // next character is `_`, not `(`), so categorized call sites pass.
    concat!(".add_", "task("),
    concat!(".try_add_", "task("),
    // RV012 (RAW_THREADS): the `thread::` suffix catches `std::thread::*`,
    // `crossbeam::thread::*` and `use std::thread; thread::spawn(…)` alike.
    concat!("thread::", "spawn("),
    concat!("thread::", "scope("),
    // RV015 (HASH_COLLECTIONS): the bare type name catches declarations,
    // `use` imports, turbofish collects and `with_hasher` constructions.
    concat!("Hash", "Map"),
    concat!("Hash", "Set"),
    // RV016 (REDUCTIONS): reduction calls.
    concat!(".su", "m()"),
    concat!(".su", "m::<"),
    concat!(".fo", "ld("),
    concat!(".pro", "duct()"),
    concat!(".pro", "duct::<"),
    // RV016 (POOL_MARKER): puts a file in RV016 scope. Files merely
    // mentioning the pool in diagnostics (like the verify crate) keep the
    // name out of their string literals instead of being scoped in.
    concat!("recsim_", "pool"),
    // RV017 (ENTROPY): `SystemTime` catches both `now()` and `UNIX_EPOCH`
    // arithmetic; `Instant::now` leaves the `Instant` type usable for
    // plumbing externally measured durations.
    concat!("System", "Time"),
    concat!("Instant::", "now"),
    concat!("thread_", "rng("),
    concat!("from_", "entropy("),
    concat!("Os", "Rng"),
    concat!("rand::", "random("),
    // RV018 (SWEEPS): the sweep entry points.
    concat!("par_", "map("),
    concat!("par_map_", "with("),
    concat!("swe", "ep("),
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

/// A token table compiled for [`SourceView`]'s byte pass: bit `t` of
/// `first[b]` is set when token `t` starts with byte `b`, and bit `t` of
/// `second[b]` when its second byte is `b`. A one-byte token has its bit set
/// in every `second` entry, so it also passes as a file's last byte, where
/// the pass looks up the `\n` entry. `stops` has one bit per (byte, next
/// byte) pair: set when some token may start there or the pair holds a
/// byte the line structure needs (`\n`, `{`, `}`, `//`, `#[`). The pass
/// looks at no other position.
pub(crate) struct TokenSet<'t> {
    tokens: &'t [&'t str],
    first: [u64; 256],
    second: [u64; 256],
    stops: [u64; 1024],
}

impl<'t> TokenSet<'t> {
    /// Compiles `tokens`: at most 64 of them, none empty. A token holding a
    /// newline never matches, since matches lie within lines.
    pub(crate) const fn new(tokens: &'t [&'t str]) -> Self {
        assert!(tokens.len() <= 64, "a token set holds at most 64 tokens");
        let mut set = TokenSet {
            tokens,
            first: [0; 256],
            second: [0; 256],
            stops: [0; 1024],
        };
        let mut t = 0;
        while t < tokens.len() {
            let b = tokens[t].as_bytes();
            assert!(!b.is_empty(), "tokens are not empty");
            set.first[b[0] as usize] |= 1 << t;
            if b.len() > 1 {
                set.second[b[1] as usize] |= 1 << t;
                set.stop(b[0], Some(b[1]));
            } else {
                let mut after = 0;
                while after < 256 {
                    set.second[after] |= 1 << t;
                    after += 1;
                }
                set.stop(b[0], None);
            }
            t += 1;
        }
        set.stop(b'\n', None);
        set.stop(b'{', None);
        set.stop(b'}', None);
        set.stop(b'/', Some(b'/'));
        set.stop(b'#', Some(b'['));
        set
    }

    /// Marks the pair `(byte, after)`, or every pair starting with `byte`.
    const fn stop(&mut self, byte: u8, after: Option<u8>) {
        let base = (byte as usize) << 8;
        match after {
            Some(after) => {
                let pair = base | after as usize;
                self.stops[pair >> 6] |= 1 << (pair & 63);
            }
            None => {
                let mut word = base >> 6;
                while word < (base + 256) >> 6 {
                    self.stops[word] = u64::MAX;
                    word += 1;
                }
            }
        }
    }

    /// Bit `k` set when position `k` of `bytes` (of its first 64) needs a
    /// look. When `bytes` holds 64 or fewer, they end the file, and the
    /// last pairs with a `\n`.
    fn stops_in(&self, bytes: &[u8]) -> u64 {
        let stop = |byte: u8, after: u8| {
            let pair = usize::from(byte) << 8 | usize::from(after);
            self.stops[pair >> 6] >> (pair & 63) & 1
        };
        let mut stops = 0;
        if let Some(block) = bytes.first_chunk::<65>() {
            // A fixed trip count, which the compiler unrolls.
            for k in 0..64 {
                stops |= stop(block[k], block[k + 1]) << k;
            }
            return stops;
        }
        for (k, pair) in bytes.windows(2).enumerate() {
            stops |= stop(pair[0], pair[1]) << k;
        }
        if let Some(&last) = bytes.last() {
            stops |= stop(last, b'\n') << (bytes.len() - 1);
        }
        stops
    }
}

/// RV002 scanner: returns `(line_number, token)` for every panicking call
/// in non-test code. Line numbers are 1-based; the token is the matched
/// text (e.g. a trailing `(` marks a call prefix).
pub fn panic_sites(view: &SourceView<'_>) -> Vec<(usize, &'static str)> {
    view.token_sites(PANIC)
}

/// One line of a [`SourceView`], as byte offsets into the file: the raw
/// line is `start..end` (no line ending), the stripped one `start..code`.
#[derive(Clone, Copy)]
struct Line {
    start: usize,
    end: usize,
    code: usize,
}

/// Where the `#[cfg(test)]` state machine stands before a line.
#[derive(Clone, Copy)]
enum TestState {
    Code,
    /// Saw `#[cfg(test)]`; consuming any further stacked attributes.
    PendingItem,
    /// The test item's `{` opens on a later line.
    WaitingOpen,
    /// Inside the test item's body at the given brace depth.
    Skipping(i64),
}

/// The line a [`SourceView`] scan is in: where it starts, its brace counts
/// before the comment cut, its first `//` and first `#[`, and where its
/// matches begin in the view's hits.
#[derive(Clone, Copy, Default)]
struct OpenLine {
    start: usize,
    opens: i64,
    closes: i64,
    cut: Option<usize>,
    attr: Option<usize>,
    found: usize,
}

/// The state after a test item's line that leaves its body `depth` braces
/// deep (opened and closed on one line when not positive).
fn open(depth: i64) -> TestState {
    if depth > 0 {
        TestState::Skipping(depth)
    } else {
        TestState::Code
    }
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
/// [`SourceView::new`] finds all of this in one byte pass over the file
/// (see `TokenSet`). On the ~380k-line layerbench `lint` tree (seed 1,
/// 1,394 files, 11.1 MB, 2 vCPU), building every file's view serially
/// takes about 24 ms, against about 34 ms for the three passes it
/// replaced (fastest of 30 interleaved rounds each).
pub struct SourceView<'a> {
    content: &'a str,
    lines: Vec<Line>,
    hits: Vec<(usize, usize, usize)>,
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
    /// One loop walks the bytes, skipping every position `set` does not
    /// mark. It counts braces and notes the first `//` and `#[` of each
    /// line, jumps from a `//` to the line's end, and records token matches
    /// as it passes them. At each line's end the `#[cfg(test)]` state
    /// machine decides whether the line is code, and the line's matches are
    /// settled: all dropped for test code, otherwise those that run past
    /// the comment cut or into a `\r\n` dropped.
    fn scan(content: &'a str, set: &TokenSet<'_>) -> Self {
        let bytes = content.as_bytes();
        let len = bytes.len();
        let mut view = SourceView {
            content,
            lines: Vec::new(),
            hits: Vec::new(),
        };
        let mut state = TestState::Code;
        // Per token, the first offset a match may start at.
        let mut next = [0usize; 64];
        let mut line = OpenLine::default();
        let mut base = 0;
        'blocks: while base < len {
            let end = len.min(base + 64);
            let mut stops = set.stops_in(&bytes[base..]);
            while stops != 0 {
                let at = base + stops.trailing_zeros() as usize;
                stops &= stops - 1;
                let byte = bytes[at];
                let after = bytes.get(at + 1).copied().unwrap_or(b'\n');
                let mut candidates = set.first[usize::from(byte)] & set.second[usize::from(after)];
                while candidates != 0 {
                    let t = candidates.trailing_zeros() as usize;
                    candidates &= candidates - 1;
                    let token = set.tokens[t].as_bytes();
                    if at >= next[t] && bytes[at..].starts_with(token) {
                        next[t] = at + token.len();
                        view.hits.push((view.lines.len(), t, at));
                    }
                }
                match byte {
                    b'\n' => {
                        let crlf = at > line.start && bytes[at - 1] == b'\r';
                        state = view.end_line(set, state, &line, at - usize::from(crlf));
                        line = OpenLine {
                            start: at + 1,
                            found: view.hits.len(),
                            ..OpenLine::default()
                        };
                    }
                    b'{' => line.opens += 1,
                    b'}' => line.closes += 1,
                    b'/' if after == b'/' => {
                        // The rest of the line is comment: resume at its end.
                        line.cut = Some(at);
                        let resume = content[at..].find('\n').map_or(len, |n| at + n);
                        if resume >= end {
                            base = resume;
                            continue 'blocks;
                        }
                        stops &= u64::MAX << (resume - base);
                    }
                    b'#' if after == b'[' && line.attr.is_none() => line.attr = Some(at),
                    _ => {}
                }
            }
            base = end;
        }
        if line.start < len {
            // A last line with no newline keeps any trailing `\r`.
            view.end_line(set, state, &line, len);
        }
        view
    }

    /// Closes `line`, whose raw text ends at `end`: steps the
    /// `#[cfg(test)]` state machine from `state`, pushes the line and
    /// settles its hits. Returns the state before the next line.
    fn end_line(
        &mut self,
        set: &TokenSet<'_>,
        state: TestState,
        line: &OpenLine,
        end: usize,
    ) -> TestState {
        let OpenLine { start, found, .. } = *line;
        let code = line.cut.unwrap_or(end);
        // The trimmed line starts with `#[` exactly when its first `#[`
        // follows nothing but whitespace.
        let attr = (line.attr).filter(|&a| self.content[start..a].trim_start().is_empty());
        let cfg_test = attr.is_some_and(|a| self.content[a..code].starts_with("#[cfg(test)]"));
        let opened = line.opens > 0;
        let delta = line.opens - line.closes;
        let (keep, state) = match state {
            TestState::Code if cfg_test => (false, TestState::PendingItem),
            TestState::Code => (true, state),
            // stacked attributes (#[cfg(test)] #[allow(...)])
            TestState::PendingItem if attr.is_some() => (false, state),
            TestState::PendingItem | TestState::WaitingOpen if opened => (false, open(delta)),
            // `mod tests;` — out-of-line file, skip just this line
            TestState::PendingItem if code > start && self.content[..code].ends_with(';') => {
                (false, TestState::Code)
            }
            TestState::PendingItem => (false, TestState::WaitingOpen),
            TestState::WaitingOpen => (false, state),
            TestState::Skipping(depth) => (false, open(depth + delta)),
        };
        self.lines.push(Line {
            start,
            end,
            code: if keep { code } else { start },
        });
        if !keep {
            self.hits.truncate(found);
            return state;
        }
        let mut kept = found;
        for at in found..self.hits.len() {
            let (idx, t, off) = self.hits[at];
            if off + set.tokens[t].len() <= code {
                self.hits[kept] = (idx, t, off - start);
                kept += 1;
            }
        }
        self.hits.truncate(kept);
        self.hits[found..].sort_unstable();
        state
    }

    /// The number of lines, raw or stripped.
    pub(crate) fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Line `idx` as `str::lines` yields it, comments and test code included.
    pub(crate) fn raw_line(&self, idx: usize) -> &'a str {
        let line = self.lines[idx];
        &self.content[line.start..line.end]
    }

    /// Line `idx` with comments and test code stripped.
    pub(crate) fn stripped_line(&self, idx: usize) -> &'a str {
        let line = self.lines[idx];
        &self.content[line.start..line.code]
    }

    /// True when the [`POOL_MARKER`] token occurs in non-test code.
    pub(crate) fn contains_marker(&self) -> bool {
        self.hits(POOL_MARKER).next().is_some()
    }

    /// The matches of `group`'s tokens outside comments and test code, as
    /// `(line index, token, byte offset in the stripped line)`, ordered by
    /// line, then token, then offset.
    pub(crate) fn hits(
        &self,
        group: Group,
    ) -> impl Iterator<Item = (usize, &'static str, usize)> + '_ {
        self.hits
            .iter()
            .filter(move |&&(_, t, _)| group.holds(t))
            .map(|&(line, t, off)| (line, LINT_TOKENS[t], off))
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
    let sites = panic_sites(view);
    let actual = sites.len();
    let mut out = Vec::new();
    if actual > budget {
        for (line, token) in &sites {
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

    /// The scanner's `(line, token)` list for `src` under `tokens`.
    fn sites(src: &str, tokens: &[&str]) -> Vec<(usize, String)> {
        SourceView::scan(src, &TokenSet::new(tokens))
            .hits
            .into_iter()
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
            SourceView::scan("x\n  ab ab\n", &TokenSet::new(&["ab"])).hits,
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
    fn reference(lines: &[&str], tokens: &[&str]) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (line, text) in lines.iter().enumerate() {
            for (t, token) in tokens.iter().enumerate() {
                out.extend(text.match_indices(token).map(|(off, _)| (line, t, off)));
            }
        }
        out
    }

    /// Tokens that stress the byte pass: overlapping runs, a token that
    /// extends another, multibyte UTF-8, tabs, a `\r`, a one-byte token and
    /// tokens holding the bytes the line structure stops at.
    const EDGE_TOKENS: [&str; 13] = [
        "aa",
        "aaaaa",
        "par_map(",
        "par_map_with(",
        "é→",
        "→a",
        "\tx",
        "x\r",
        "(",
        "{a",
        "/x",
        "a/",
        "#[a",
    ];

    /// Whole lines that steer the `#[cfg(test)]` state machine.
    const STRUCTURE: [&str; 12] = [
        "#[cfg(test)]",
        "  #[cfg(test)] // tests",
        "#[allow(dead_code)]",
        "mod tests;",
        "mod tests {",
        "#[cfg(test)] fn t() { x.unwrap() }",
        "fn t() { }",
        "{",
        "}",
        "} }",
        "\u{a0}#[cfg(test)]",
        "#[cfg(test)]\r",
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
    fn fragments<'a>(tokens: &[&'a str]) -> Vec<&'a str> {
        let mut fragments: Vec<&str> = vec![
            "a", "aa", "aaa", "é", "→", "\t", "\r", " ", "x", "_", "(", "/", "//", "{", "}", "#",
            "#[", ";",
        ];
        for &token in tokens {
            fragments.push(token);
            fragments.extend((1..token.len()).filter_map(|n| token.get(..n)));
        }
        fragments
    }

    /// Asserts that the one-pass view of `file` under `set` has the raw
    /// lines, stripped lines and hits of the three-pass reference, and
    /// returns its hits.
    fn assert_view_matches_reference(file: &str, set: &TokenSet<'_>) -> Vec<(usize, usize, usize)> {
        let view = SourceView::scan(file, set);
        let raw: Vec<&str> = file.lines().collect();
        let lines: Vec<&str> = (0..view.line_count()).map(|i| view.raw_line(i)).collect();
        assert_eq!(lines, raw, "raw lines of {file:?}");
        let stripped = reference_stripped(&raw);
        let lines: Vec<&str> = (0..view.line_count())
            .map(|i| view.stripped_line(i))
            .collect();
        assert_eq!(lines, stripped, "stripped lines of {file:?}");
        assert_eq!(
            view.hits,
            reference(&stripped, set.tokens),
            "hits of {file:?}"
        );
        view.hits
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
        ] {
            assert_view_matches_reference(file, &edge);
            assert_view_matches_reference(file, &LINT);
        }
    }

    #[test]
    fn lint_table_invariants() {
        assert!(LINT_TOKENS.len() <= 64);
        for token in LINT_TOKENS {
            assert!(token.len() >= 2 && !token.contains('\n'), "{token:?}");
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
            assert_eq!(LINT_TOKENS[group.start..group.end], tokens[..]);
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
