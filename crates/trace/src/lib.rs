//! Unified tracing, counters, and critical-path attribution for recsim.
//!
//! The simulators in `recsim-sim` answer *how long* an iteration takes;
//! this crate answers *where the time goes*. It provides:
//!
//! - a [`TraceRecorder`] sink with spans, instant events, and counters;
//! - exporters: Chrome trace-event JSON ([`chrome_trace`], loadable in
//!   Perfetto), a plain-text per-resource timeline ([`text_timeline`]), and
//!   counter/category summary tables rendered via `recsim-metrics`;
//! - [`critical_path`](mod@critical_path) analysis: a backward walk over a finished schedule
//!   that partitions `[0, makespan]` across [`TaskCategory`] buckets and
//!   ranks off-path tasks by slack.
//!
//! # Example
//!
//! ```
//! use recsim_trace::{
//!     chrome_trace, critical_path, ScheduledTask, TaskCategory, TraceRecorder,
//! };
//!
//! // Record a couple of spans and export them.
//! let mut rec = TraceRecorder::new();
//! rec.span("gpu0", "bottom_mlp", TaskCategory::MlpCompute, 0.0, 120.0);
//! rec.span("nic", "read_batch", TaskCategory::ReaderStall, 0.0, 80.0);
//! let json = chrome_trace(&rec.finish());
//! assert!(json.starts_with("{\"traceEvents\":["));
//!
//! // Attribute a two-task schedule: every second lands in a category.
//! let tasks = vec![
//!     ScheduledTask {
//!         name: "read".into(),
//!         category: TaskCategory::ReaderStall,
//!         start: 0.0,
//!         finish: 1.0,
//!         resource: Some(0),
//!         deps: vec![],
//!     },
//!     ScheduledTask {
//!         name: "mlp".into(),
//!         category: TaskCategory::MlpCompute,
//!         start: 1.0,
//!         finish: 3.0,
//!         resource: Some(1),
//!         deps: vec![0],
//!     },
//! ];
//! let report = critical_path(&tasks, 5);
//! assert_eq!(report.attributed_total(), report.makespan);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod critical_path;
pub mod export;
pub mod tracer;

pub use category::TaskCategory;
pub use critical_path::{critical_path, CriticalPathReport, PathStep, ScheduledTask, SlackEntry};
pub use export::{
    attribution_table, category_summary, chrome_trace, counter_summary, slack_table, text_timeline,
};
pub use tracer::{Trace, TraceEvent, TraceRecorder};
