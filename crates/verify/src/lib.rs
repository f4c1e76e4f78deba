//! Static analysis and structured validation for the recsim workspace.
//!
//! Two layers share one diagnostic vocabulary:
//!
//! * **Layer 1 — source lints** ([`lint`]): a self-contained, offline
//!   line/token scanner that walks the workspace and enforces
//!   source-level invariants (`#![forbid(unsafe_code)]` everywhere, no
//!   panicking calls in library code, documented and ablatable
//!   `CostKnobs` fields, experiment-registry completeness, and the
//!   DESIGN.md crate-layering DAG). It reads and scans each source file
//!   once, in one byte pass per file, inside one pass on `recsim-pool`
//!   (its only dependency); the cross-file rules fold per-file facts from
//!   that pass. Run it with `cargo run -p recsim-verify -- lint`.
//! * **Layer 2 — semantic validation** (this module): the [`Diagnostic`]
//!   type with stable `RV0xx` [`Code`]s plus the [`Validate`] trait, which
//!   the domain crates (`recsim-hw`, `recsim-placement`, `recsim-sim`,
//!   `recsim-data`) implement for their configuration types. Simulation
//!   entry points call [`Validate::check`] before running, so an invalid
//!   platform, placement, cost model or task graph is reported as a typed
//!   error instead of a panic deep inside the engine.
//!
//! `CostKnobs` lives in `recsim-sim`; this crate sits *below* every other
//! workspace crate except `recsim-pool` and `recsim-detsan` (which depend on
//! nothing above them) precisely so that all of them can implement
//! [`Validate`] without dependency cycles. `recsim-core` re-exports the
//! whole API as `recsim_core::verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;

use std::error::Error;
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not invalid; never fails a build or a simulation.
    Warning,
    /// A violated invariant; fails `recsim-verify -- lint` and
    /// [`Validate::check`].
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. `RV001`–`RV019` are source lints (Layer 1);
/// `RV020`+ are semantic validation findings (Layer 2).
///
/// Codes are append-only: a code's meaning never changes once released, so
/// allowlists, CI greps and documentation stay valid across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// A library crate root is missing `#![forbid(unsafe_code)]`.
    MissingForbidUnsafe,
    /// `unwrap()`/`expect()`/`panic!` in non-test library code beyond the
    /// allowlisted budget.
    PanicInLibrary,
    /// A `pub` field of `sim::CostKnobs` has no doc comment.
    KnobMissingDoc,
    /// A `pub` field of `sim::CostKnobs` is not set in `Default`.
    KnobMissingDefault,
    /// A `pub` field of `sim::CostKnobs` is referenced neither by the knob
    /// sweep in `core::ablation` nor by a bench source.
    KnobUnreferenced,
    /// A `fig*`/`table*` bench binary has no matching `core::experiments`
    /// module.
    ExperimentMissingModule,
    /// A `fig*`/`table*` bench binary has no EXPERIMENTS.md row.
    ExperimentMissingDocRow,
    /// A crate manifest depends on a workspace crate outside its allowed
    /// layer (the DESIGN.md DAG).
    LayeringViolation,
    /// A crate manifest pulls in an external crate outside the allowed set.
    ForeignDependency,
    /// An allowlist budget exceeds the actual count — ratchet it down.
    StaleAllowlist,
    /// A simulator builds a task without a `TaskCategory` (raw `add_task`
    /// in non-test sim code, invisible to critical-path attribution).
    UncategorizedTask,
    /// Library code spawns raw threads (`thread::spawn`/`thread::scope`)
    /// outside `crates/pool`, bypassing the deterministic sweep pool.
    RawThreading,
    /// A crate under `crates/` is missing from the DESIGN.md workspace
    /// inventory (§2) or has no layer in the dependency DAG.
    CrateUndocumented,
    /// A `BENCH_*.json` artifact at the repo root does not match the
    /// recsim-bench schema or names no existing bench binary (stale or
    /// renamed baseline).
    StaleBenchArtifact,
    /// Library code uses a hash-ordered collection (`HashMap`/`HashSet`)
    /// whose iteration order is nondeterministic; result-producing crates
    /// must use `BTreeMap`/`BTreeSet` or sort before iterating.
    UnorderedCollection,
    /// A floating-point reduction in a file that touches the parallel pool
    /// has no `// detsan: reduction-order` annotation documenting the
    /// chosen (deterministic) accumulation order.
    UnannotatedFloatReduction,
    /// A wall-clock or entropy source (`SystemTime`, `Instant::now`,
    /// thread-local RNG seeding) in result-producing library code; results
    /// must be pure functions of their inputs.
    EntropyInResultPath,
    /// A `par_map`/`sweep` call site's argument list touches shared mutable
    /// state (locks, cells, atomics) — parallel closures must stay pure and
    /// feed a serial submission-order fold.
    ImpureSweepClosure,
    /// An operator in the recsim-prof op inventory has no profiler
    /// instrumentation point in the model/train sources — every hot-path
    /// kernel must be measurable.
    UninstrumentedOp,
    /// A `hw::Platform` violates its structural invariants.
    InvalidPlatform,
    /// A placement routes more table bytes to a memory than it can hold.
    PlacementOverCapacity,
    /// A placement references a device or server that does not exist.
    DanglingResource,
    /// A placement's shape is degenerate (duplicate tables, empty, …).
    InvalidPlacement,
    /// A cost-model knob or simulator parameter is outside its valid range.
    InvalidCostKnob,
    /// A task is bound to an unknown resource id.
    UnknownTaskResource,
    /// The task graph has a dependency cycle or a forward/dangling
    /// dependency edge.
    DependencyCycle,
    /// A task-graph resource has zero capacity.
    ZeroCapacityResource,
    /// A `data::ModelConfig` violates its structural invariants.
    InvalidModelConfig,
    /// A fleet/cluster configuration (server counts, workflow sample,
    /// CPU-cluster setup) is invalid.
    InvalidClusterConfig,
    /// A simulation report's iteration time is zero or negative.
    NonPositiveIterationTime,
    /// A simulation report's examples-per-iteration is zero or negative.
    NonPositiveExampleCount,
    /// A fault-injection configuration (seed/MTBF/horizon/slowdown factors)
    /// is outside its valid range.
    InvalidFaultConfig,
    /// The lint driver could not read a source, manifest or budget file.
    UnreadableFile,
}

impl Code {
    /// Every code, in numeric order (drives the `codes` subcommand and the
    /// DESIGN.md table test).
    pub const ALL: [Code; 33] = [
        Code::MissingForbidUnsafe,
        Code::PanicInLibrary,
        Code::KnobMissingDoc,
        Code::KnobMissingDefault,
        Code::KnobUnreferenced,
        Code::ExperimentMissingModule,
        Code::ExperimentMissingDocRow,
        Code::LayeringViolation,
        Code::ForeignDependency,
        Code::StaleAllowlist,
        Code::UncategorizedTask,
        Code::RawThreading,
        Code::CrateUndocumented,
        Code::StaleBenchArtifact,
        Code::UnorderedCollection,
        Code::UnannotatedFloatReduction,
        Code::EntropyInResultPath,
        Code::ImpureSweepClosure,
        Code::UninstrumentedOp,
        Code::InvalidPlatform,
        Code::PlacementOverCapacity,
        Code::DanglingResource,
        Code::InvalidPlacement,
        Code::InvalidCostKnob,
        Code::UnknownTaskResource,
        Code::DependencyCycle,
        Code::ZeroCapacityResource,
        Code::InvalidModelConfig,
        Code::InvalidClusterConfig,
        Code::NonPositiveIterationTime,
        Code::NonPositiveExampleCount,
        Code::InvalidFaultConfig,
        Code::UnreadableFile,
    ];

    /// The stable `RV0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::MissingForbidUnsafe => "RV001",
            Code::PanicInLibrary => "RV002",
            Code::KnobMissingDoc => "RV003",
            Code::KnobMissingDefault => "RV004",
            Code::KnobUnreferenced => "RV005",
            Code::ExperimentMissingModule => "RV006",
            Code::ExperimentMissingDocRow => "RV007",
            Code::LayeringViolation => "RV008",
            Code::ForeignDependency => "RV009",
            Code::StaleAllowlist => "RV010",
            Code::UncategorizedTask => "RV011",
            Code::RawThreading => "RV012",
            Code::CrateUndocumented => "RV013",
            Code::StaleBenchArtifact => "RV014",
            Code::UnorderedCollection => "RV015",
            Code::UnannotatedFloatReduction => "RV016",
            Code::EntropyInResultPath => "RV017",
            Code::ImpureSweepClosure => "RV018",
            Code::UninstrumentedOp => "RV019",
            Code::InvalidPlatform => "RV020",
            Code::PlacementOverCapacity => "RV021",
            Code::DanglingResource => "RV022",
            Code::InvalidPlacement => "RV023",
            Code::InvalidCostKnob => "RV024",
            Code::UnknownTaskResource => "RV025",
            Code::DependencyCycle => "RV026",
            Code::ZeroCapacityResource => "RV027",
            Code::InvalidModelConfig => "RV028",
            Code::InvalidClusterConfig => "RV029",
            Code::NonPositiveIterationTime => "RV030",
            Code::NonPositiveExampleCount => "RV031",
            Code::InvalidFaultConfig => "RV032",
            Code::UnreadableFile => "RV033",
        }
    }

    /// One-line description (drives the `codes` subcommand).
    pub fn describe(self) -> &'static str {
        match self {
            Code::MissingForbidUnsafe => {
                "library crate root missing #![forbid(unsafe_code)]"
            }
            Code::PanicInLibrary => {
                "panicking call (unwrap/expect/panicking macro) in non-test library code over budget"
            }
            Code::KnobMissingDoc => "CostKnobs field without a doc comment",
            Code::KnobMissingDefault => "CostKnobs field not set in Default",
            Code::KnobUnreferenced => {
                "CostKnobs field referenced by neither core::ablation nor a bench source"
            }
            Code::ExperimentMissingModule => {
                "fig*/table* bench binary without a core::experiments module"
            }
            Code::ExperimentMissingDocRow => {
                "fig*/table* bench binary without an EXPERIMENTS.md row"
            }
            Code::LayeringViolation => {
                "crate dependency violates the DESIGN.md layering DAG"
            }
            Code::ForeignDependency => "external dependency outside the allowed set",
            Code::StaleAllowlist => "allowlist budget above the actual count",
            Code::UncategorizedTask => {
                "simulator schedules a task without a TaskCategory (raw add_task)"
            }
            Code::RawThreading => {
                "raw thread::spawn/scope in library code outside recsim-pool"
            }
            Code::CrateUndocumented => {
                "crate missing from the DESIGN.md workspace inventory or layering DAG"
            }
            Code::StaleBenchArtifact => {
                "BENCH_*.json artifact off-schema or naming no existing bench binary"
            }
            Code::UnorderedCollection => {
                "hash-ordered collection in result-producing library code (use an ordered one)"
            }
            Code::UnannotatedFloatReduction => {
                "float reduction near the parallel pool without a reduction-order annotation"
            }
            Code::EntropyInResultPath => {
                "wall-clock or entropy source in result-producing library code"
            }
            Code::ImpureSweepClosure => {
                "parallel sweep closure touches shared mutable state instead of a serial fold"
            }
            Code::UninstrumentedOp => {
                "profiler op inventory entry has no instrumentation point in model/train"
            }
            Code::InvalidPlatform => "platform violates structural invariants",
            Code::PlacementOverCapacity => "placement exceeds a memory's capacity",
            Code::DanglingResource => "placement references a nonexistent device",
            Code::InvalidPlacement => "placement shape is degenerate",
            Code::InvalidCostKnob => "cost knob or simulator parameter out of range",
            Code::UnknownTaskResource => "task bound to an unknown resource",
            Code::DependencyCycle => "task graph has a cycle or dangling dependency",
            Code::ZeroCapacityResource => "task-graph resource has zero capacity",
            Code::InvalidModelConfig => "model configuration is invalid",
            Code::InvalidClusterConfig => "fleet/cluster configuration is invalid",
            Code::NonPositiveIterationTime => "simulation report iteration time not positive",
            Code::NonPositiveExampleCount => "simulation report example count not positive",
            Code::InvalidFaultConfig => "fault-injection configuration out of range",
            Code::UnreadableFile => "lint driver could not read a file",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a stable code, a severity, where it is, and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    code: Code,
    severity: Severity,
    location: String,
    message: String,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }

    /// The stable code.
    pub fn code(&self) -> Code {
        self.code
    }

    /// Error or warning.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Where the finding is (a `path:line` for lints; a config path like
    /// `Platform(Big Basin).gpus[3]` for semantic validation).
    pub fn location(&self) -> &str {
        &self.location
    }

    /// What is wrong.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code, self.severity, self.location, self.message
        )
    }
}

impl Error for Diagnostic {}

/// The error-severity findings of a failed [`Validate::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    diagnostics: Vec<Diagnostic>,
}

impl ValidationError {
    /// Wraps a non-empty set of diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Self { diagnostics }
    }

    /// The findings.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether any finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code() == code)
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} validation error(s)", self.diagnostics.len())?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl Error for ValidationError {}

impl From<Diagnostic> for ValidationError {
    fn from(d: Diagnostic) -> Self {
        Self::new(vec![d])
    }
}

/// Structural self-validation for configuration types.
///
/// Implementations return *every* finding (warnings included); [`check`]
/// filters to error severity and converts to a `Result`, which is what the
/// simulation entry points call before running.
///
/// [`check`]: Validate::check
pub trait Validate {
    /// All findings, warnings included. Empty means fully valid.
    fn validate(&self) -> Vec<Diagnostic>;

    /// `Err` with the error-severity findings, `Ok(())` when none.
    fn check(&self) -> Result<(), ValidationError> {
        let errors: Vec<Diagnostic> = self
            .validate()
            .into_iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(ValidationError::new(errors))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for code in Code::ALL {
            let s = code.as_str();
            assert!(s.starts_with("RV") && s.len() == 5, "{s}");
            assert!(seen.insert(s), "duplicate code {s}");
            assert!(!code.describe().is_empty());
        }
        assert_eq!(Code::MissingForbidUnsafe.as_str(), "RV001");
        assert_eq!(Code::PanicInLibrary.as_str(), "RV002");
        assert_eq!(Code::UncategorizedTask.as_str(), "RV011");
        assert_eq!(Code::RawThreading.as_str(), "RV012");
        assert_eq!(Code::CrateUndocumented.as_str(), "RV013");
        assert_eq!(Code::StaleBenchArtifact.as_str(), "RV014");
        assert_eq!(Code::UnorderedCollection.as_str(), "RV015");
        assert_eq!(Code::UnannotatedFloatReduction.as_str(), "RV016");
        assert_eq!(Code::EntropyInResultPath.as_str(), "RV017");
        assert_eq!(Code::ImpureSweepClosure.as_str(), "RV018");
        assert_eq!(Code::UninstrumentedOp.as_str(), "RV019");
        assert_eq!(Code::DependencyCycle.as_str(), "RV026");
        assert_eq!(Code::NonPositiveIterationTime.as_str(), "RV030");
        assert_eq!(Code::NonPositiveExampleCount.as_str(), "RV031");
        assert_eq!(Code::InvalidFaultConfig.as_str(), "RV032");
    }

    #[test]
    fn check_filters_warnings() {
        struct Fixture(Vec<Diagnostic>);
        impl Validate for Fixture {
            fn validate(&self) -> Vec<Diagnostic> {
                self.0.clone()
            }
        }
        let warn_only = Fixture(vec![Diagnostic::warning(Code::StaleAllowlist, "here", "m")]);
        assert!(warn_only.check().is_ok());
        let with_error = Fixture(vec![
            Diagnostic::warning(Code::StaleAllowlist, "here", "m"),
            Diagnostic::error(Code::InvalidPlatform, "there", "bad"),
        ]);
        let err = with_error.check().expect_err("has an error");
        assert_eq!(err.diagnostics().len(), 1);
        assert!(err.has_code(Code::InvalidPlatform));
        assert!(!err.has_code(Code::StaleAllowlist));
    }

    #[test]
    fn diagnostic_display_includes_code_and_location() {
        let d = Diagnostic::error(Code::PlacementOverCapacity, "GPU 3", "needs 40 GiB");
        let s = d.to_string();
        assert!(s.contains("RV021") && s.contains("GPU 3") && s.contains("40 GiB"));
    }
}
