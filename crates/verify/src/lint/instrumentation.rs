//! RV019: every operator in the recsim-prof op inventory must have a
//! profiler instrumentation point.
//!
//! The profiler is only as honest as its coverage: a kernel that never
//! opens a scope simply vanishes from the per-op breakdown, and the shares
//! still sum to ~100% — the gap is silent. This rule closes the loop: each
//! `Op::Variant` listed in the inventory's `ALL` array must appear at a
//! `prof::scope(...)`-style call site somewhere in the instrumented crates
//! (recsim-model, recsim-train, recsim-serve), so adding an op without wiring it up —
//! or deleting the scope during a refactor — fails the lint, the same
//! coverage-ratchet idea as the panic/detsan allowlists.

use crate::{Code, Diagnostic};

/// Extracts the `Op::Variant` names listed inside the inventory's
/// `pub const ALL` array. Returns an empty list (no findings downstream)
/// when the array cannot be located — RV013 and the build itself guard the
/// inventory file's existence.
pub fn inventory_ops(ops_source: &str) -> Vec<String> {
    let Some(start) = ops_source.find("const ALL") else {
        return Vec::new();
    };
    // Skip the type annotation (`: [Op; N]`) — the entry list is the
    // bracket after the `=`.
    let Some(eq) = ops_source[start..].find('=') else {
        return Vec::new();
    };
    let list = start + eq;
    let Some(open) = ops_source[list..].find('[') else {
        return Vec::new();
    };
    let Some(close) = ops_source[list + open..].find(']') else {
        return Vec::new();
    };
    let body = &ops_source[list + open + 1..list + open + close];
    body.split(',')
        .map(str::trim)
        .filter_map(|entry| entry.strip_prefix("Op::"))
        .map(|name| name.trim().to_string())
        .collect()
}

/// RV019: each inventory op must be named at an instrumentation site in
/// `sources` (the model/train library files, as `(path, content)` pairs).
pub fn check_instrumentation(
    ops_path: &str,
    ops_source: &str,
    sources: &[(String, String)],
) -> Vec<Diagnostic> {
    let ops = inventory_ops(ops_source);
    let mut named = vec![false; ops.len()];
    for (_, content) in sources {
        mark_named(content, &ops, &mut named);
    }
    uninstrumented_ops(ops_path, &ops, &named)
}

/// RV019's fact about one source: sets `named[i]` when `content` holds
/// `Op::{ops[i]}`. One search for `Op::` visits every place such a token
/// can start (the needle cannot overlap itself, so no match is skipped).
pub fn mark_named(content: &str, ops: &[String], named: &mut [bool]) {
    for (at, prefix) in content.match_indices("Op::") {
        let rest = &content[at + prefix.len()..];
        for (op, seen) in ops.iter().zip(&mut *named) {
            *seen = *seen || rest.starts_with(op.as_str());
        }
    }
}

/// RV019 once every source is marked: one error per op of `ops` whose
/// `named` flag is unset.
pub fn uninstrumented_ops(ops_path: &str, ops: &[String], named: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (op, _) in ops.iter().zip(named).filter(|(_, seen)| !**seen) {
        let token = format!("Op::{op}");
        out.push(Diagnostic::error(
            Code::UninstrumentedOp,
            ops_path,
            format!(
                "op inventory entry `{token}` has no instrumentation point in \
                 crates/model, crates/train, or crates/serve — open a \
                 `prof::scope({token}, …)` around the kernel (or remove the op \
                 from the inventory)"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: &str = "\
impl Op {
    pub const ALL: [Op; 3] = [
        Op::LinearFwd,
        Op::EmbGather,
        Op::TrainStep,
    ];
}
";

    fn src(content: &str) -> Vec<(String, String)> {
        vec![(
            "crates/model/src/linear.rs".to_string(),
            content.to_string(),
        )]
    }

    #[test]
    fn parses_inventory_list() {
        assert_eq!(inventory_ops(OPS), ["LinearFwd", "EmbGather", "TrainStep"]);
        assert!(inventory_ops("pub enum Op {}").is_empty());
    }

    #[test]
    fn covered_inventory_passes() {
        let sources = src("let _s = prof::scope(Op::LinearFwd, c);\n\
             let _s = prof::scope(Op::EmbGather, c);\n\
             let _s = prof::scope(Op::TrainStep, c);\n");
        assert!(check_instrumentation("crates/prof/src/ops.rs", OPS, &sources).is_empty());
    }

    #[test]
    fn missing_scope_is_rv019() {
        let sources = src("let _s = prof::scope(Op::LinearFwd, c);\n");
        let diags = check_instrumentation("crates/prof/src/ops.rs", OPS, &sources);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code() == Code::UninstrumentedOp));
        assert!(diags[0].message().contains("Op::EmbGather"));
        assert!(diags[1].message().contains("Op::TrainStep"));
    }
}
