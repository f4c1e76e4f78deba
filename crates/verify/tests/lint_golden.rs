//! Golden test for the lint driver over a small workspace with one
//! planted violation per source rule (RV001, RV002, RV011, RV012,
//! RV015–RV018), one stale allowlist budget (RV010), one unreadable
//! library file, and one finding per cross-file rule the per-file pass
//! feeds: an unreferenced cost knob (RV005), an uninstrumented op (RV019)
//! and a bench artifact no bench binary names (RV014). A knob, an op and
//! an artifact are named only in binaries (`src/bin/`, `main.rs`), which
//! the per-file rules skip, so the pass must still read them. `lint::run`
//! must return exactly the pinned diagnostics, in the pinned order, and
//! `lint::write_allowlist` the exact budgets, both at one and at four pool
//! workers. The other non-source rules (registry, manifests) get inputs
//! they accept, so every finding comes from a planted line.
//!
//! This file holds one test because the pool override it sets is
//! process-global.

use std::fs;
use std::path::{Path, PathBuf};

use recsim_verify::lint::{self, ALLOWLIST_PATH, DETSAN_ALLOWLIST_PATH};
use recsim_verify::Diagnostic;

/// A workspace under the system temp dir, removed again on drop.
struct TempTree(PathBuf);

impl TempTree {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("recsim-verify-{name}-{}", std::process::id()));
        // A leftover from an aborted run must not leak into this one.
        let _ = fs::remove_dir_all(&dir);
        TempTree(dir)
    }

    fn write(&self, rel: &str, content: impl AsRef<[u8]>) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().expect("relative path has a parent"))
            .expect("temp dir is writable");
        fs::write(&path, content).expect("temp file is writable");
    }

    fn read(&self, rel: &str) -> String {
        fs::read_to_string(self.0.join(rel)).expect("temp file is readable")
    }

    fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `code severity location`, plus the first backticked span of the message
/// when it has one (the matched token for the token rules).
fn summary(d: &Diagnostic) -> String {
    let mut out = format!("{} {} {}", d.code().as_str(), d.severity(), d.location());
    let mut spans = d.message().split('`');
    if let (Some(_), Some(first)) = (spans.next(), spans.next()) {
        out.push_str(&format!(" `{first}`"));
    }
    out
}

fn planted_tree() -> TempTree {
    let tree = TempTree::new("golden");
    tree.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\n\n[package]\nname = \"recsim\"\n",
    );
    tree.write("DESIGN.md", "# Design\n");
    tree.write("EXPERIMENTS.md", "# Experiments\n");
    tree.write("src/lib.rs", "#![forbid(unsafe_code)]\npub use std::vec;\n");
    tree.write(
        "crates/verify/panic_allowlist.txt",
        "# RV002 budget\ncrates/hw/src/units.rs 2\n",
    );
    // Three documented, defaulted knobs: one referenced only from a bench
    // binary, one only from the core ablation module, one nowhere (RV005).
    tree.write(
        "crates/sim/src/cost.rs",
        concat!(
            "pub struct CostKnobs {\n",
            "    /// Link efficiency.\n",
            "    pub link_eff: f64,\n",
            "    /// Staging share.\n",
            "    pub stage_frac: f64,\n",
            "    /// Queue depth.\n",
            "    pub queue_depth: f64,\n",
            "}\n",
            "impl Default for CostKnobs {\n",
            "    fn default() -> Self {\n",
            "        CostKnobs {\n",
            "            link_eff: 0.9,\n",
            "            stage_frac: 0.2,\n",
            "            queue_depth: 4.0,\n",
            "        }\n",
            "    }\n",
            "}\n",
        ),
    );
    tree.write(
        "crates/core/src/ablation.rs",
        "pub fn knobs() -> [&'static str; 1] { [\"stage_frac\"] }\n",
    );
    // Two bench artifacts: the bench binary names the first, nothing names
    // the second (RV014).
    tree.write(
        "crates/bench/src/bin/sweeps_baseline.rs",
        concat!(
            "fn main() {\n",
            "    let knobs = [\"link_eff\"];\n",
            "    write(\"BENCH_sweeps.json\", &knobs);\n",
            "}\n",
        ),
    );
    let artifact = concat!(
        "{\"schema\": \"recsim-bench-sweeps-v1\", \"threads\": 4, \"effort\": \"quick\", ",
        "\"drivers\": [], \"serial_total_secs\": 2.0, \"parallel_total_secs\": 1.0, ",
        "\"speedup\": 2.0, \"outputs_identical\": true}\n",
    );
    tree.write("BENCH_sweeps.json", artifact);
    tree.write("BENCH_orphan.json", artifact);
    // Four inventory ops: one instrumented in a library file, one only in a
    // `src/bin/` file, one only in a `main.rs`, one nowhere (RV019).
    tree.write(
        "crates/prof/src/ops.rs",
        concat!(
            "//! Op inventory.\n",
            "impl Op {\n",
            "    pub const ALL: [Op; 4] = [\n",
            "        Op::LinearFwd,\n",
            "        Op::EmbGather,\n",
            "        Op::ServeBatch,\n",
            "        Op::TrainStep,\n",
            "    ];\n",
            "}\n",
        ),
    );
    tree.write(
        "crates/model/src/linear.rs",
        "pub fn fwd(c: &Ctx) { let _s = prof::scope(Op::LinearFwd, c); }\n",
    );
    tree.write(
        "crates/model/src/bin/probe.rs",
        "fn main() { let _s = prof::scope(Op::EmbGather, &Ctx::new()); }\n",
    );
    tree.write(
        "crates/serve/src/main.rs",
        "fn main() { let _s = prof::scope(Op::ServeBatch, &Ctx::new()); }\n",
    );
    tree.write("crates/core/src/experiments/mod.rs", "//! Registry.\n");

    // RV001 (no forbid), RV011 and RV017, plus test-only copies of both
    // that must stay silent.
    tree.write(
        "crates/sim/src/lib.rs",
        concat!(
            "pub fn build(g: &mut TaskGraph) {\n",
            "    g.add_task_in(c, \"ok\");\n",
            "    g.add_task(\"raw\"); // and not g.add_task( here\n",
            "}\n",
            "pub fn stamp() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(g: &mut TaskGraph) { g.add_task(\"x\"); let _ = std::time::Instant::now(); }\n",
            "}\n",
        ),
    );
    // RV002 over its zero budget, and RV015.
    tree.write(
        "crates/data/src/gen.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "pub fn first(xs: &[u8]) -> u8 {\n",
            "    *xs.first().unwrap()\n",
            "}\n",
        ),
    );
    // RV010: one site against a budget of two.
    tree.write(
        "crates/hw/src/units.rs",
        "pub fn parse(s: &str) -> u32 { s.parse().unwrap() }\n",
    );
    // RV012.
    tree.write(
        "crates/train/src/fan.rs",
        "pub fn fan() {\n    let h = std::thread::spawn(|| 1);\n    h.join();\n}\n",
    );
    // RV016 and RV018 in one pool-adjacent file, next to an annotated
    // float reduction, an integer one and a pure sweep that must pass.
    tree.write(
        "crates/core/src/agg.rs",
        concat!(
            "use recsim_pool::par_map;\n",
            "pub fn total(xs: &[f64], ns: &[u32]) -> f64 {\n",
            "    // detsan: reduction-order — serial slice order\n",
            "    let a = xs.iter().sum::<f64>();\n",
            "    let n: u32 = ns.iter().sum();\n",
            "    a + f64::from(n)\n",
            "}\n",
            "pub fn doubled(xs: &[u32]) -> Vec<u32> {\n",
            "    par_map(xs, |&x| 2 * x)\n",
            "}\n",
            "pub fn mean(xs: &[f64]) -> f64 {\n",
            "    xs.iter().sum::<f64>() / xs.len() as f64\n",
            "}\n",
            "pub fn collect(xs: &[u32]) -> Vec<u32> {\n",
            "    let acc = Mutex::new(Vec::new());\n",
            "    par_map(xs, |&x| {\n",
            "        acc.lock().push(x);\n",
            "        x\n",
            "    })\n",
            "}\n",
        ),
    );
    // A library file that is not UTF-8: the driver reports it as unreadable.
    // It sorts after every planted file, so its read error coming first
    // shows that read errors are folded ahead of every file's findings.
    tree.write("crates/train/src/latin1.rs", b"// caf\xe9\n");
    tree
}

/// The non-comment lines of a budget file.
fn budgets(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.starts_with('#')).collect()
}

#[test]
fn lint_reports_the_planted_findings_in_order_at_any_worker_count() {
    let tree = planted_tree();
    // Read errors first; then files in path order and, within a file,
    // rules in `lint::run` order, then lines; then the cross-file rules.
    let want = [
        "RV033 error crates/train/src/latin1.rs",
        "RV016 error crates/core/src/agg.rs:12 `detsan: reduction-order`",
        "RV018 error crates/core/src/agg.rs:16 `.lock()`",
        "RV002 error crates/data/src/gen.rs:3 `.unwrap()`",
        "RV015 error crates/data/src/gen.rs:1 `HashMap`",
        "RV010 warning crates/hw/src/units.rs `lint --write-allowlist`",
        "RV001 error crates/sim/src/lib.rs",
        "RV011 error crates/sim/src/lib.rs:3 `.add_task(…)`",
        "RV017 error crates/sim/src/lib.rs:5 `Instant::now`",
        "RV012 error crates/train/src/fan.rs:2 `thread::spawn(…)`",
        "RV005 error crates/sim/src/cost.rs:7 `queue_depth`",
        "RV019 error crates/prof/src/ops.rs `Op::TrainStep`",
        "RV014 error BENCH_orphan.json",
    ];
    // `par_map` caps the worker count at the host's cores, so on a 1-core
    // host both passes take the serial path.
    for threads in [1, 4] {
        recsim_pool::set_thread_override(Some(threads));
        let got: Vec<String> = lint::run(tree.root()).iter().map(summary).collect();
        assert_eq!(got, want, "{threads} worker(s):\n{}", got.join("\n"));
    }

    // `write_allowlist` runs the same per-file pass: the unreadable
    // `latin1.rs` gets no budget, and the over-budgeted `units.rs` is
    // tightened to its one site. It rewrites the budget files, so it runs
    // after the golden check.
    let mut written = Vec::new();
    for threads in [1, 4] {
        recsim_pool::set_thread_override(Some(threads));
        let files = lint::write_allowlist(tree.root()).expect("budget files are writable");
        written.push((
            files,
            tree.read(ALLOWLIST_PATH),
            tree.read(DETSAN_ALLOWLIST_PATH),
        ));
    }
    recsim_pool::set_thread_override(None);
    assert_eq!(written[0], written[1]);
    let (files, panics, hashes) = &written[0];
    assert_eq!(*files, 3);
    assert!(panics.starts_with("# RV002 budget") && panics.ends_with('\n'));
    assert!(hashes.starts_with("# RV015 budget") && hashes.ends_with('\n'));
    assert_eq!(
        budgets(panics),
        ["crates/data/src/gen.rs 1", "crates/hw/src/units.rs 1"]
    );
    assert_eq!(budgets(hashes), ["crates/data/src/gen.rs 1"]);
}
