//! RV018: parallel sweep closures must stay pure and feed a serial fold.
//!
//! `recsim_pool::par_map`/`core::sweep` guarantee submission-order results,
//! so the deterministic pattern is: closures compute independent values, and
//! any cross-item aggregation happens *serially* over the returned `Vec`. A
//! closure that instead accumulates into shared mutable state (a `Mutex`ed
//! collector, atomics, interior mutability) makes the *side-effect order*
//! depend on worker scheduling even when the return values do not. RV018
//! scans the argument extent of every sweep call site for those hazard
//! tokens.
//!
//! The scan is a paren-balanced walk from the call's opening parenthesis
//! (string literals skipped, capped at [`MAX_EXTENT_LINES`] lines), so only
//! code textually inside the call — the closure body included — is audited.

use super::source::{SourceView, SWEEPS};
use crate::{Code, Diagnostic};

/// Longest call extent the scanner will walk before giving up. Sweep call
/// sites in this workspace are far smaller; the cap only bounds pathological
/// unbalanced-paren inputs.
const MAX_EXTENT_LINES: usize = 200;

/// Shared-mutable-state hazards searched for inside a call extent. These are
/// plain literals: they only matter *inside* a sweep call's parentheses, and
/// no such call site passes them as data.
const HAZARDS: [&str; 8] = [
    "Mutex",
    "RwLock",
    "Atomic",
    "static mut",
    "RefCell",
    "Cell::",
    ".lock()",
    "unsafe ",
];

/// True for files RV018 exempts: the pool crate implements the fan-out (its
/// own internals synchronize by design), and `core::sweep` is the thin
/// audited wrapper that forwards to it.
pub fn is_exempt(path: &str) -> bool {
    path.starts_with("crates/pool/src/") || path == "crates/core/src/sweep.rs"
}

/// Strips string literal contents from a line so quoted text cannot open or
/// close parens or fake a hazard token. Escapes are not interpreted — the
/// workspace style has no `\"` inside sweep call sites.
fn blank_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    for c in line.chars() {
        if c == '"' {
            in_str = !in_str;
            out.push(c);
        } else if in_str {
            out.push(' ');
        } else {
            out.push(c);
        }
    }
    out
}

fn paren_delta(line: &str) -> i64 {
    let mut d = 0;
    for c in line.chars() {
        match c {
            '(' => d += 1,
            ')' => d -= 1,
            _ => {}
        }
    }
    d
}

/// RV018 for one library source file.
pub fn check_sweep_purity(path: &str, content: &str) -> Vec<Diagnostic> {
    check_sweep_purity_in(path, &SourceView::new(content))
}

/// [`check_sweep_purity`] over an already-scanned file. Only the lines
/// holding a sweep entry point (the `SWEEPS` group of the shared token
/// table) are visited; on each, the audited call is the first match of the
/// earliest token in table order.
pub fn check_sweep_purity_in(path: &str, view: &SourceView<'_>) -> Vec<Diagnostic> {
    if is_exempt(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut last = None;
    for (idx, token, site) in view.hits(SWEEPS) {
        if last == Some(idx) {
            continue;
        }
        last = Some(idx);
        // Walk the call extent: start just after the token's open paren,
        // then paren-balance line by line until the call closes.
        let first_rest = blank_strings(&view.stripped_line(idx)[site + token.len()..]);
        let mut depth: i64 = 1 + paren_delta(&first_rest);
        let mut hazard = HAZARDS
            .iter()
            .find(|h| first_rest.contains(*h as &str))
            .copied();
        let mut end = idx;
        while depth > 0 && end + 1 < view.line_count() && end - idx < MAX_EXTENT_LINES {
            end += 1;
            let body = blank_strings(view.stripped_line(end));
            if hazard.is_none() {
                hazard = HAZARDS.iter().find(|h| body.contains(*h as &str)).copied();
            }
            depth += paren_delta(&body);
        }
        if let Some(h) = hazard {
            out.push(Diagnostic::error(
                Code::ImpureSweepClosure,
                format!("{path}:{}", idx + 1),
                format!(
                    "sweep call site touches shared mutable state (`{h}`) \
                     inside its argument extent; return per-item values and \
                     aggregate with a serial fold over the submission-order \
                     results instead"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_collector_in_closure_is_rv018() {
        let src = "pub fn f(xs: &[u32]) -> Vec<u32> {\n\
                   let acc = std::sync::Mutex::new(Vec::new());\n\
                   recsim_pool::par_map(xs, |&x| {\n\
                       acc.lock().unwrap().push(x);\n\
                       x\n\
                   })\n\
                   }\n";
        let diags = check_sweep_purity("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::ImpureSweepClosure);
        assert_eq!(diags[0].location(), "crates/core/src/x.rs:3");
    }

    #[test]
    fn pure_closure_with_serial_fold_passes() {
        let src = "pub fn f(xs: &[u32]) -> u32 {\n\
                   let per_item = recsim_pool::par_map(xs, |&x| x * 2);\n\
                   per_item.iter().copied().fold(0u32, u32::wrapping_add)\n\
                   }\n";
        assert!(check_sweep_purity("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hazard_outside_call_extent_passes() {
        let src = "static COUNT: std::sync::atomic::AtomicU64 = \
                   std::sync::atomic::AtomicU64::new(0);\n\
                   pub fn f(xs: &[u32]) -> Vec<u32> {\n\
                   recsim_pool::par_map(xs, |&x| x + 1)\n\
                   }\n";
        assert!(check_sweep_purity("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hazard_in_string_literal_passes() {
        let src = "pub fn f(xs: &[u32]) -> Vec<String> {\n\
                   recsim_pool::par_map(xs, |&x| format!(\"Mutex {x}\"))\n\
                   }\n";
        assert!(check_sweep_purity("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn pool_and_sweep_wrapper_are_exempt() {
        let src = "pub fn par_map(xs: &[u32]) { let m = Mutex::new(par_map_inner(xs)); }\n";
        assert!(check_sweep_purity("crates/pool/src/lib.rs", src).is_empty());
        assert!(check_sweep_purity("crates/core/src/sweep.rs", src).is_empty());
    }
}
