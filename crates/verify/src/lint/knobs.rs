//! Cost-model ablatability rules (RV003–RV005): every `pub` field of
//! `sim::CostKnobs` must carry a doc comment, appear in the `Default`
//! impl, and be referenced by the ablation module or a bench source —
//! otherwise the knob is dead weight nobody can interpret or ablate
//! (DESIGN §5).

use super::source::brace_delta;
use crate::{Code, Diagnostic};

/// A `pub` field of `CostKnobs` as seen by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobField {
    /// Field name.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Whether a `///` doc comment immediately precedes it.
    pub documented: bool,
}

/// Extracts the `pub` fields of `pub struct CostKnobs { … }`.
pub fn knob_fields(cost_src: &str) -> Vec<KnobField> {
    let mut fields = Vec::new();
    let mut in_struct = false;
    let mut depth: i64 = 0;
    let mut has_doc = false;
    for (idx, raw) in cost_src.lines().enumerate() {
        let trimmed = raw.trim_start();
        if !in_struct {
            if trimmed.starts_with("pub struct CostKnobs") {
                in_struct = true;
                depth = brace_delta(raw);
            }
            continue;
        }
        if depth == 1 {
            if trimmed.starts_with("///") {
                has_doc = true;
            } else if trimmed.starts_with("pub ") && trimmed.contains(':') {
                let name = trimmed
                    .trim_start_matches("pub ")
                    .split(':')
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if !name.is_empty() {
                    fields.push(KnobField {
                        name,
                        line: idx + 1,
                        documented: has_doc,
                    });
                }
                has_doc = false;
            } else if !trimmed.starts_with("#[") && !trimmed.is_empty() {
                has_doc = false;
            }
        }
        depth += brace_delta(raw);
        if depth <= 0 {
            break;
        }
    }
    fields
}

/// Extracts the field names assigned in `impl Default for CostKnobs`.
pub fn default_fields(cost_src: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_impl = false;
    let mut depth: i64 = 0;
    for raw in cost_src.lines() {
        let trimmed = raw.trim_start();
        if !in_impl {
            if trimmed.starts_with("impl Default for CostKnobs") {
                in_impl = true;
                depth = brace_delta(raw);
            }
            continue;
        }
        // Field initializers live at depth ≥ 3 (impl { fn { Self { … } } }),
        // but matching `ident:` anywhere inside the impl is sufficient.
        if let Some(colon) = trimmed.find(':') {
            let candidate = &trimmed[..colon];
            if !candidate.is_empty()
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                names.push(candidate.to_string());
            }
        }
        depth += brace_delta(raw);
        if depth <= 0 {
            break;
        }
    }
    names
}

/// RV003 + RV004 over the contents of `crates/sim/src/cost.rs`.
pub fn check_knob_declarations(path: &str, cost_src: &str) -> Vec<Diagnostic> {
    let fields = knob_fields(cost_src);
    let defaults = default_fields(cost_src);
    let mut out = Vec::new();
    if fields.is_empty() {
        out.push(Diagnostic::error(
            Code::KnobMissingDoc,
            path,
            "could not find any pub fields in `pub struct CostKnobs` — \
             has the struct moved? update crates/verify/src/lint/knobs.rs",
        ));
        return out;
    }
    for f in &fields {
        if !f.documented {
            out.push(Diagnostic::error(
                Code::KnobMissingDoc,
                format!("{path}:{}", f.line),
                format!("CostKnobs field `{}` has no /// doc comment", f.name),
            ));
        }
        if !defaults.iter().any(|d| d == &f.name) {
            out.push(Diagnostic::error(
                Code::KnobMissingDefault,
                format!("{path}:{}", f.line),
                format!(
                    "CostKnobs field `{}` is not assigned in `impl Default for CostKnobs`",
                    f.name
                ),
            ));
        }
    }
    out
}

/// RV005: every knob must be referenced (by field name) in at least one of
/// `sources` — `lint::run` passes `crates/core/src/ablation.rs` (the knob
/// sweep) and `crates/bench/src/**`.
pub fn check_knob_references(
    cost_path: &str,
    cost_src: &str,
    sources: &[(String, String)],
) -> Vec<Diagnostic> {
    let fields = knob_fields(cost_src);
    let mut referenced = vec![false; fields.len()];
    for (_, src) in sources {
        mark_referenced(src, &fields, &mut referenced);
    }
    unreferenced_knobs(cost_path, &fields, &referenced)
}

/// RV005's fact about one source: sets `referenced[i]` when `source` names
/// `fields[i]`, skipping the fields already marked.
pub fn mark_referenced(source: &str, fields: &[KnobField], referenced: &mut [bool]) {
    for (field, seen) in fields.iter().zip(referenced) {
        *seen = *seen || source.contains(&field.name);
    }
}

/// RV005 once every source is marked: one error per field of `fields`
/// whose `referenced` flag is unset.
pub fn unreferenced_knobs(
    cost_path: &str,
    fields: &[KnobField],
    referenced: &[bool],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (f, _) in fields.iter().zip(referenced).filter(|(_, seen)| !**seen) {
        out.push(Diagnostic::error(
            Code::KnobUnreferenced,
            format!("{cost_path}:{}", f.line),
            format!(
                "CostKnobs field `{}` is referenced neither by the knob sweep in \
                 crates/core/src/ablation.rs nor under crates/bench/src/",
                f.name
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
pub struct CostKnobs {
    /// Documented knob.
    pub alpha: f64,
    pub beta: f64,
    /// Documented but defaultless.
    pub gamma: f64,
}

impl Default for CostKnobs {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 2.0,
        }
    }
}
";

    #[test]
    fn parses_fields_and_docs() {
        let fields = knob_fields(FIXTURE);
        assert_eq!(fields.len(), 3);
        assert!(fields[0].documented && fields[0].name == "alpha");
        assert!(!fields[1].documented && fields[1].name == "beta");
        assert!(fields[2].documented && fields[2].name == "gamma");
    }

    #[test]
    fn missing_doc_and_default_flagged() {
        let diags = check_knob_declarations("cost.rs", FIXTURE);
        let missing_doc: Vec<_> = diags
            .iter()
            .filter(|d| d.code() == Code::KnobMissingDoc)
            .collect();
        let missing_default: Vec<_> = diags
            .iter()
            .filter(|d| d.code() == Code::KnobMissingDefault)
            .collect();
        assert_eq!(missing_doc.len(), 1);
        assert!(missing_doc[0].message().contains("beta"));
        assert_eq!(missing_default.len(), 1);
        assert!(missing_default[0].message().contains("gamma"));
    }

    #[test]
    fn unreferenced_knob_flagged() {
        let sources = vec![(
            "crates/core/src/ablation.rs".to_string(),
            "knobs.alpha = 2.0; knobs.gamma *= 0.5;".to_string(),
        )];
        let diags = check_knob_references("cost.rs", FIXTURE, &sources);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::KnobUnreferenced);
        assert!(diags[0].message().contains("beta"));
    }
}
