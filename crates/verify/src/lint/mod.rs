//! Layer 1: the workspace lint driver.
//!
//! Pure rule logic lives in the submodules ([`source`], [`knobs`],
//! [`registry`], [`layering`]) so it can be unit-tested on inline
//! fixtures; this module does the filesystem walking and wires the rules
//! to the real tree. Everything runs offline on the checked-out sources —
//! no network, no external tooling, no proc macros.

pub mod artifacts;
pub mod categories;
pub mod collections;
pub mod entropy;
pub mod instrumentation;
pub mod inventory;
pub mod knobs;
pub mod layering;
pub mod parallelism;
pub mod reductions;
pub mod registry;
pub mod source;
pub mod sweep_purity;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::{Code, Diagnostic};
use source::SourceView;

/// Relative path of the RV002 budget file.
pub const ALLOWLIST_PATH: &str = "crates/verify/panic_allowlist.txt";

/// Relative path of the RV015 budget file (hash-collection sites per file).
pub const DETSAN_ALLOWLIST_PATH: &str = "crates/verify/detsan_allowlist.txt";

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// `cargo run -p recsim-verify`, otherwise the nearest ancestor of the
/// current directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> Option<PathBuf> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = Path::new(&manifest).join("../..");
        if is_workspace_root(&candidate) {
            return candidate.canonicalize().ok();
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]"))
}

/// Relative path of the cost model, whose `CostKnobs` fields RV005 looks
/// for.
const COST_REL: &str = "crates/sim/src/cost.rs";

/// Relative path of the profiler op inventory, whose ops RV019 looks for.
const OPS_REL: &str = "crates/prof/src/ops.rs";

/// Relative path of the experiment registry RV006/RV007 read.
const EXPERIMENTS_REL: &str = "crates/core/src/experiments/mod.rs";

/// The crates whose every source, binaries included, feeds a cross-file
/// rule: `bench` names the knobs (RV005) and the bench artifacts (RV014),
/// `model`, `train` and `serve` instrument the ops (RV019).
const WHOLE_CRATES: [&str; 4] = ["bench", "model", "train", "serve"];

/// What the pass learns of one file: the findings of the per-file rules,
/// and the facts the cross-file rules fold.
struct FileFacts {
    findings: Vec<Diagnostic>,
    /// RV005: which knobs the file names (all unset outside the knob
    /// sources).
    knobs: Vec<bool>,
    /// RV019: which inventory ops the file names (all unset outside the
    /// instrumented crates).
    ops: Vec<bool>,
    /// RV014: the text of a bench binary.
    text: Option<String>,
}

/// Runs every Layer-1 rule over the workspace at `root`.
///
/// One `recsim_pool::par_map` pass reads every source file the rules need
/// once: it runs the per-file rules on the library files and returns, per
/// file, the facts the cross-file rules (RV005, RV014, RV019) fold
/// serially afterwards. The three files that say what those facts are
/// about, or that a rule reads whole, are read first and handed to the
/// pass.
pub fn run(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let budgets = load_allowlist(root, ALLOWLIST_PATH, &mut diags);
    let detsan_budgets = load_allowlist(root, DETSAN_ALLOWLIST_PATH, &mut diags);
    let preread =
        [COST_REL, OPS_REL, EXPERIMENTS_REL].map(|rel| (rel, fs::read_to_string(root.join(rel))));
    let [cost, ops_src, experiments] = preread.each_ref().map(|(_, read)| read.as_deref());
    let knob_fields = cost.map(knobs::knob_fields).unwrap_or_default();
    let ops = ops_src
        .map(instrumentation::inventory_ops)
        .unwrap_or_default();

    // RV001 + RV002 + RV012 over library sources; RV011 over simulator
    // sources (des.rs hosts the uncategorized wrappers for generic graphs,
    // so it is exempt — every *simulator builder* must categorize its
    // tasks). RV012 exempts crates/pool/src/, the sanctioned thread host.
    // RV015–RV018 are the determinism-sanitizer rules (DESIGN.md §11).
    let files = sources(root);
    let scanned = recsim_pool::par_map(&files, |file| {
        let rel = rel_path(root, &file.path);
        let content = match preread.iter().find(|(r, read)| *r == rel && read.is_ok()) {
            Some((_, Ok(text))) => Ok(Cow::Borrowed(text.as_str())),
            _ => fs::read_to_string(&file.path).map(Cow::Owned),
        };
        let facts = content.map(|content| {
            let mut facts = FileFacts {
                findings: Vec::new(),
                knobs: vec![false; knob_fields.len()],
                ops: vec![false; ops.len()],
                text: None,
            };
            if file.library {
                facts.findings = library_findings(&rel, &content, &budgets, &detsan_budgets);
            }
            if rel.starts_with("crates/bench/src/") || rel == "crates/core/src/ablation.rs" {
                knobs::mark_referenced(&content, &knob_fields, &mut facts.knobs);
            }
            if [
                "crates/model/src/",
                "crates/train/src/",
                "crates/serve/src/",
            ]
            .iter()
            .any(|dir| rel.starts_with(dir))
            {
                instrumentation::mark_named(&content, &ops, &mut facts.ops);
            }
            if rel.starts_with("crates/bench/src/bin/") {
                facts.text = Some(content.into_owned());
            }
            facts
        });
        (rel, facts)
    });
    // Every library read error first, then every file's findings, both in
    // path order. The other files are read for their facts only; one that
    // cannot be read has none.
    for (file, (rel, facts)) in files.iter().zip(&scanned) {
        if let (true, Err(e)) = (file.library, facts) {
            diags.push(read_error(rel, e));
        }
    }
    // The bench binaries RV006/RV007 check: `crates/bench/src/bin/*.rs`.
    let mut bin_stems: Vec<String> = scanned
        .iter()
        .filter_map(|(rel, _)| {
            rel.strip_prefix("crates/bench/src/bin/")?
                .strip_suffix(".rs")
        })
        .filter(|stem| !stem.contains('/'))
        .map(String::from)
        .collect();
    bin_stems.sort();
    let mut referenced = vec![false; knob_fields.len()];
    let mut named = vec![false; ops.len()];
    let mut bin_sources = Vec::new();
    for (rel, facts) in scanned {
        let Ok(facts) = facts else { continue };
        diags.extend(facts.findings);
        for (seen, fact) in referenced.iter_mut().zip(facts.knobs) {
            *seen |= fact;
        }
        for (seen, fact) in named.iter_mut().zip(facts.ops) {
            *seen |= fact;
        }
        bin_sources.extend(facts.text.map(|text| (rel, text)));
    }
    // Budgets pointing at files that no longer exist are stale too.
    for (list, budgets) in [
        (ALLOWLIST_PATH, &budgets),
        (DETSAN_ALLOWLIST_PATH, &detsan_budgets),
    ] {
        for (path, budget) in budgets {
            if !root.join(path).is_file() {
                diags.push(Diagnostic::warning(
                    Code::StaleAllowlist,
                    list,
                    format!("allowlisted file `{path}` (budget {budget}) does not exist"),
                ));
            }
        }
    }

    // RV003–RV005 over the cost model. RV005 looks for each knob in the
    // bench sources and the core ablation module; a missing module simply
    // references nothing.
    match cost {
        Ok(cost_src) => {
            diags.extend(knobs::check_knob_declarations(COST_REL, cost_src));
            diags.extend(knobs::unreferenced_knobs(
                COST_REL,
                &knob_fields,
                &referenced,
            ));
        }
        Err(e) => diags.push(read_error(COST_REL, e)),
    }

    // RV006 + RV007 over the experiment registry.
    let modules = match experiments {
        Ok(src) => registry::experiment_modules(src),
        Err(e) => {
            diags.push(read_error(EXPERIMENTS_REL, e));
            Vec::new()
        }
    };
    let experiments_md = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap_or_default();
    diags.extend(registry::check_registry(
        &bin_stems,
        &modules,
        &experiments_md,
    ));

    // RV019 over the profiler op inventory: every op must be instrumented
    // somewhere in the model/train/serve sources.
    match ops_src {
        Ok(_) => diags.extend(instrumentation::uninstrumented_ops(OPS_REL, &ops, &named)),
        Err(e) => diags.push(read_error(OPS_REL, e)),
    }

    // RV014 over the repo-root bench baselines.
    let bench_artifacts = root_bench_artifacts(root, &mut diags);
    diags.extend(artifacts::check_bench_artifacts(
        &bench_artifacts,
        &bin_sources,
    ));

    // RV008 + RV009 over every manifest; RV013 (DESIGN.md inventory + DAG
    // membership) over the crates/ manifests.
    let design_md = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    for (rel, toml) in manifests(root, &mut diags) {
        diags.extend(layering::check_manifest(&rel, &toml));
        if rel.starts_with("crates/") {
            let package = layering::parse_manifest(&toml).package;
            diags.extend(inventory::check_inventory(&rel, &package, &design_md));
        }
    }

    diags
}

/// The per-file rules over one library file.
fn library_findings(
    rel: &str,
    content: &str,
    budgets: &BTreeMap<String, usize>,
    detsan_budgets: &BTreeMap<String, usize>,
) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    if rel.ends_with("src/lib.rs") {
        found.extend(source::check_forbid_unsafe(rel, content));
    }
    let view = SourceView::new(content);
    let budget = budgets.get(rel).copied().unwrap_or(0);
    found.extend(source::check_panic_budget_in(rel, &view, budget));
    if rel.starts_with("crates/sim/src/") && !rel.ends_with("/des.rs") {
        found.extend(categories::check_task_categories_in(rel, &view));
    }
    found.extend(parallelism::check_raw_threading_in(rel, &view));
    let detsan_budget = detsan_budgets.get(rel).copied().unwrap_or(0);
    found.extend(collections::check_unordered_collections_in(
        rel,
        &view,
        detsan_budget,
    ));
    found.extend(reductions::check_float_reductions_in(rel, &view));
    found.extend(entropy::check_entropy_sources_in(rel, &view));
    found.extend(sweep_purity::check_sweep_purity_in(rel, &view));
    found
}

/// Regenerates both budget files from the actual per-file counts, so the
/// budgets are exactly tight (`lint --write-allowlist`). Returns the number
/// of files with a nonzero budget across both lists.
pub fn write_allowlist(root: &Path) -> std::io::Result<usize> {
    let mut panic_lines = vec![
        "# RV002 budget: panicking sites allowed per library file.".to_string(),
        "# Regenerate with `cargo run -p recsim-verify -- lint --write-allowlist`.".to_string(),
        "# The budget only ratchets down: exceeding it is an error, beating it".to_string(),
        "# is an RV010 warning until this file is tightened.".to_string(),
    ];
    let mut detsan_lines = vec![
        "# RV015 budget: hash-ordered collection sites allowed per library file.".to_string(),
        "# Regenerate with `cargo run -p recsim-verify -- lint --write-allowlist`.".to_string(),
        "# The budget only ratchets down: exceeding it is an error, beating it".to_string(),
        "# is an RV010 warning until this file is tightened. The tree ships".to_string(),
        "# clean — think hard before adding an entry here.".to_string(),
    ];
    let mut files = 0;
    let library: Vec<Source> = sources(root).into_iter().filter(|f| f.library).collect();
    let counted = recsim_pool::par_map(&library, |file| {
        let rel = rel_path(root, &file.path);
        let counts = fs::read_to_string(&file.path).map(|content| {
            let view = SourceView::new(&content);
            let hash_sites = if collections::is_exempt(&rel) {
                0
            } else {
                collections::collection_sites(&view).len()
            };
            (source::panic_sites(&view).len(), hash_sites)
        });
        (rel, counts)
    });
    // Unreadable files get no budget; `run` reports them.
    for (rel, read) in counted {
        let Ok((panics, hash_sites)) = read else {
            continue;
        };
        if panics > 0 {
            panic_lines.push(format!("{rel} {panics}"));
            files += 1;
        }
        if hash_sites > 0 {
            detsan_lines.push(format!("{rel} {hash_sites}"));
            files += 1;
        }
    }
    panic_lines.push(String::new());
    detsan_lines.push(String::new());
    fs::write(root.join(ALLOWLIST_PATH), panic_lines.join("\n"))?;
    fs::write(root.join(DETSAN_ALLOWLIST_PATH), detsan_lines.join("\n"))?;
    Ok(files)
}

fn load_allowlist(
    root: &Path,
    list_rel: &str,
    diags: &mut Vec<Diagnostic>,
) -> BTreeMap<String, usize> {
    let mut budgets = BTreeMap::new();
    // No allowlist = zero budget everywhere.
    let Ok(text) = fs::read_to_string(root.join(list_rel)) else {
        return budgets;
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let entry = (
            parts.next(),
            parts.next().and_then(|n| n.parse::<usize>().ok()),
        );
        if let (Some(path), Some(count)) = entry {
            budgets.insert(path.to_string(), count);
        } else {
            diags.push(Diagnostic::error(
                Code::StaleAllowlist,
                format!("{list_rel}:{}", idx + 1),
                format!("malformed allowlist line `{line}` (expected `path count`)"),
            ));
        }
    }
    budgets
}

/// A source file the lint reads. The library files are the non-test
/// library sources: `crates/*/src/**/*.rs` excluding `src/bin/` and
/// `main.rs`, plus the root facade `src/lib.rs`; the per-file rules run on
/// them. Test dirs (`tests/`), benches, and examples are exempt by
/// construction — they are never under `src/`. The other files are the
/// binaries and `main.rs` files of [`WHOLE_CRATES`], read for the
/// cross-file facts only.
struct Source {
    path: PathBuf,
    library: bool,
}

/// Every source file the lint reads, sorted by path. The walk runs one
/// `recsim_pool::par_map` item per crate directory.
fn sources(root: &Path) -> Vec<Source> {
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(is_dir)
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    let mut files: Vec<Source> = recsim_pool::par_map(&crate_dirs, |dir| crate_sources(dir))
        .into_iter()
        .flatten()
        .collect();
    files.push(Source {
        path: root.join("src/lib.rs"),
        library: true,
    });
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// The `.rs` files under `crate_dir/src` the lint reads (see [`Source`]).
fn crate_sources(crate_dir: &Path) -> Vec<Source> {
    let whole = crate_dir
        .file_name()
        .is_some_and(|name| WHOLE_CRATES.iter().any(|c| name == *c));
    let mut out = Vec::new();
    // Each directory with whether it lies under a `bin/`.
    let mut stack = vec![(crate_dir.join("src"), false)];
    while let Some((dir, in_bin)) = stack.pop() {
        let Ok(rd) = fs::read_dir(&dir) else { continue };
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            if is_dir(&entry) {
                let in_bin = in_bin || path.file_name().is_some_and(|n| n == "bin");
                if whole || !in_bin {
                    stack.push((path, in_bin));
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let library = !in_bin && path.file_name().is_none_or(|n| n != "main.rs");
                if whole || library {
                    out.push(Source { path, library });
                }
            }
        }
    }
    out
}

/// True when the entry is a directory. The walks ask the entry
/// (`DirEntry::file_type`, which on most filesystems comes with the
/// directory listing) rather than the path (`Path::is_dir`, one `stat` per
/// entry). Unlike `Path::is_dir`, this does not follow symlinks, so a
/// symlinked directory is not descended into; the workspace has no
/// symlinks, so the file set is the same.
fn is_dir(entry: &fs::DirEntry) -> bool {
    entry.file_type().is_ok_and(|t| t.is_dir())
}

/// Every `BENCH_*.json` at the workspace root, as `(file name, contents)`.
fn root_bench_artifacts(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<(String, String)> {
    let mut names: Vec<String> = fs::read_dir(root)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .filter_map(|e| e.file_name().to_str().map(String::from))
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        match fs::read_to_string(root.join(&name)) {
            Ok(content) => out.push((name, content)),
            Err(e) => diags.push(read_error(&name, &e)),
        }
    }
    out
}

/// Root `Cargo.toml` plus every `crates/*/Cargo.toml`.
fn manifests(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<(String, String)> {
    let mut paths = vec![root.join("Cargo.toml")];
    if let Ok(rd) = fs::read_dir(root.join("crates")) {
        let mut crate_manifests: Vec<PathBuf> = rd
            .filter_map(Result::ok)
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        crate_manifests.sort();
        paths.extend(crate_manifests);
    }
    let mut out = Vec::new();
    for path in paths {
        let rel = rel_path(root, &path);
        match fs::read_to_string(&path) {
            Ok(toml) => out.push((rel, toml)),
            Err(e) => diags.push(read_error(&rel, &e)),
        }
    }
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn read_error(rel: &str, e: &std::io::Error) -> Diagnostic {
    Diagnostic::error(
        Code::UnreadableFile,
        rel.to_string(),
        format!("lint driver could not read this file: {e}"),
    )
}
