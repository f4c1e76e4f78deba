//! RV015: no hash-ordered collections in result-producing library code.
//!
//! Iterating a `std::collections` hash map or hash set visits entries in an
//! order that changes from process to process (SipHash is seeded per run),
//! so any result derived from such an iteration silently breaks the
//! workspace's byte-identical determinism contract. Library code must use
//! `BTreeMap`/`BTreeSet` (or collect-and-sort) instead. The budget file
//! `crates/verify/detsan_allowlist.txt` works exactly like the RV002 panic
//! ratchet: exceeding a file's budget is an error, beating it is an RV010
//! stale-allowlist warning. The tree ships with an empty budget.

use super::source::{SourceView, HASH_COLLECTIONS};
use crate::{Code, Diagnostic};

/// True for files RV015 exempts: the pool crate does not produce results —
/// its internal scheduling state never reaches an artifact.
pub fn is_exempt(path: &str) -> bool {
    path.starts_with("crates/pool/src/")
}

/// The RV015 sites in one file (used by the allowlist writer): the
/// `HASH_COLLECTIONS` group of the shared token table.
pub fn collection_sites(view: &SourceView<'_>) -> Vec<(usize, &'static str)> {
    view.token_sites(HASH_COLLECTIONS)
}

/// RV015 with the per-file budget applied, panic-ratchet style.
pub fn check_unordered_collections(path: &str, content: &str, budget: usize) -> Vec<Diagnostic> {
    check_unordered_collections_in(path, &SourceView::new(content), budget)
}

/// [`check_unordered_collections`] over an already-scanned file.
pub fn check_unordered_collections_in(
    path: &str,
    view: &SourceView<'_>,
    budget: usize,
) -> Vec<Diagnostic> {
    if is_exempt(path) {
        return Vec::new();
    }
    let actual = view.count(HASH_COLLECTIONS);
    let mut out = Vec::new();
    if actual > budget {
        for (line, token) in collection_sites(view) {
            out.push(Diagnostic::error(
                Code::UnorderedCollection,
                format!("{path}:{line}"),
                format!(
                    "`{token}` has nondeterministic iteration order; use \
                     BTreeMap/BTreeSet or sort before iterating so results \
                     stay byte-identical across runs ({actual} site(s), \
                     budget {budget} in crates/verify/detsan_allowlist.txt)"
                ),
            ));
        }
    } else if actual < budget {
        out.push(Diagnostic::warning(
            Code::StaleAllowlist,
            path.to_string(),
            format!(
                "detsan allowlist budget is {budget} but only {actual} \
                 hash-collection site(s) remain; ratchet it down"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_map_in_library_is_rv015() {
        let src = "use std::collections::HashMap;\n\
                   pub fn f() -> Vec<u32> {\n\
                       let m: HashMap<u32, u32> = HashMap::new();\n\
                       m.into_keys().collect()\n\
                   }\n";
        let diags = check_unordered_collections("crates/data/src/trace.rs", src, 0);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.code() == Code::UnorderedCollection));
        assert_eq!(diags[0].location(), "crates/data/src/trace.rs:1");
    }

    #[test]
    fn btree_map_passes() {
        let src = "use std::collections::BTreeMap;\n\
                   pub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
        assert!(check_unordered_collections("crates/data/src/trace.rs", src, 0).is_empty());
    }

    #[test]
    fn test_modules_and_pool_are_exempt() {
        let test_only = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(check_unordered_collections("crates/hw/src/platform.rs", test_only, 0).is_empty());
        let in_pool = "use std::collections::HashMap;\n";
        assert!(check_unordered_collections("crates/pool/src/lib.rs", in_pool, 0).is_empty());
    }

    #[test]
    fn budget_over_and_under() {
        let src = "use std::collections::HashSet;\n";
        assert_eq!(
            check_unordered_collections("crates/x/src/a.rs", src, 1).len(),
            0
        );
        let stale = check_unordered_collections("crates/x/src/a.rs", src, 2);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].code(), Code::StaleAllowlist);
    }
}
