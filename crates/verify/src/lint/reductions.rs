//! RV016: floating-point reductions near the parallel pool must document
//! their accumulation order.
//!
//! Float addition is not associative, so the *order* of a reduction is part
//! of the result. In files that touch `recsim_pool` — where partial results
//! may arrive from parallel workers — every float reduction must carry an
//! explicit `// detsan: reduction-order …` annotation on the same line or
//! within the three lines above it, documenting the chosen (deterministic)
//! order. The annotation grammar is documented in DESIGN.md §11.

use super::source::{SourceView, REDUCTIONS};
use crate::{Code, Diagnostic};

/// The annotation RV016 looks for (checked on *raw* lines, since the token
/// scanner strips comments).
pub const ANNOTATION: &str = "detsan: reduction-order";

/// How many raw lines above a reduction site the annotation may sit.
const ANNOTATION_WINDOW: usize = 3;

/// Type names that mark a reduction line as float-accumulating. `Duration`
/// counts: the workspace's `hw::units::Duration` wraps an `f64`.
fn float_markers() -> [&'static str; 3] {
    ["f32", "f64", "Duration"]
}

/// True when the file is in RV016 scope: its non-test code references the
/// parallel pool (the shared token table's `POOL_MARKER`), so reductions
/// here may be fed by parallel partials.
pub fn in_scope(view: &SourceView<'_>) -> bool {
    view.contains_marker()
}

/// RV016 for one library source file.
pub fn check_float_reductions(path: &str, content: &str) -> Vec<Diagnostic> {
    check_float_reductions_in(path, &SourceView::new(content))
}

/// [`check_float_reductions`] over an already-scanned file. Only the lines
/// holding a `REDUCTIONS` token are visited, once each.
pub fn check_float_reductions_in(path: &str, view: &SourceView<'_>) -> Vec<Diagnostic> {
    if !in_scope(view) {
        return Vec::new();
    }
    let markers = float_markers();
    let mut out = Vec::new();
    let mut lines: Vec<usize> = view.hits(REDUCTIONS).map(|(idx, _, _)| idx).collect();
    lines.dedup();
    for idx in lines {
        if !markers.iter().any(|m| view.stripped_line(idx).contains(m)) {
            continue;
        }
        let window_start = idx.saturating_sub(ANNOTATION_WINDOW);
        let annotated = (window_start..=idx).any(|i| view.raw_line(i).contains(ANNOTATION));
        if !annotated {
            out.push(Diagnostic::error(
                Code::UnannotatedFloatReduction,
                format!("{path}:{}", idx + 1),
                "float reduction in a pool-adjacent file without a \
                 `detsan: reduction-order` annotation; document the \
                 accumulation order (see DESIGN.md \u{a7}11) or restructure \
                 the reduction"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped(body: &str) -> String {
        format!("use recsim_pool::par_map;\n{body}")
    }

    #[test]
    fn unannotated_float_sum_is_rv016() {
        let src = scoped("pub fn total(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n");
        let diags = check_float_reductions("crates/core/src/x.rs", &src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::UnannotatedFloatReduction);
        assert_eq!(diags[0].location(), "crates/core/src/x.rs:3");
    }

    #[test]
    fn annotation_on_preceding_line_passes() {
        let src = scoped(
            "pub fn total(xs: &[f32]) -> f32 {\n    \
             // detsan: reduction-order — serial slice order\n    \
             xs.iter().sum::<f32>()\n}\n",
        );
        assert!(check_float_reductions("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn integer_reductions_pass() {
        let src = scoped("pub fn total(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }\n");
        assert!(check_float_reductions("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn out_of_scope_file_passes() {
        let src = "pub fn total(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
        assert!(check_float_reductions("crates/metrics/src/x.rs", src).is_empty());
    }

    #[test]
    fn fold_over_duration_is_in_scope() {
        let src = scoped(
            "pub fn max_d(xs: &[Duration]) -> Duration {\n    \
             xs.iter().copied().fold(Duration::ZERO, Duration::max)\n}\n",
        );
        let diags = check_float_reductions("crates/sim/src/des.rs", &src);
        assert_eq!(diags.len(), 1);
    }
}
