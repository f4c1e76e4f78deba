//! Synthetic recommendation workloads for `recsim`.
//!
//! The paper characterizes *production* data — click logs read from Hive,
//! three production models M1/M2/M3, and a fleet of training workflows. None
//! of that is public, but every experiment in the paper depends only on
//! *statistics* of the workload that the paper does disclose. This crate
//! regenerates workloads from those statistics:
//!
//! * [`schema`] — the model-architecture configuration space of Section III
//!   (dense/sparse features, hash sizes, lookups per table, MLP dimensions,
//!   interaction type, batch size) plus size/FLOP geometry helpers,
//! * [`dist`] — the distribution toolbox: Zipf index popularity, truncated
//!   power-law feature lengths, log-normal hash-size spectra,
//! * [`batch`] — mini-batch containers in CSR form, the exchange format with
//!   `recsim-model`,
//! * [`dataset`] — a versioned binary on-disk format for example streams
//!   (generate once, replay anywhere),
//! * [`synthetic`] — a CTR example generator with a planted logistic teacher
//!   so that real training (Figure 15) has something to learn,
//! * [`production`] — generated stand-ins for M1/M2/M3 matching Table II and
//!   Figures 6–7,
//! * [`fleet`] — the workflow-population sampler behind Figures 2, 5 and 9,
//! * [`trace`] — embedding-access traces with reuse-distance (LRU) analysis,
//!   quantifying the caching opportunity the paper's Section III.A.2 notes,
//! * [`arrival`] — open-loop arrival-rate and popularity processes (diurnal
//!   traffic curves, per-entity Zipf draws) for the serving tier.
//!
//! # Example
//!
//! ```
//! use recsim_data::schema::ModelConfig;
//! use recsim_data::synthetic::CtrGenerator;
//!
//! let config = ModelConfig::test_suite(64, 8, 100_000, &[512, 512, 512]);
//! let mut gen = CtrGenerator::new(&config, 42);
//! let batch = gen.next_batch(16);
//! assert_eq!(batch.batch_size(), 16);
//! assert_eq!(batch.dense().len(), 16 * 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod batch;
pub mod dataset;
pub mod dist;
pub mod fleet;
pub mod production;
pub mod schema;
pub mod synthetic;
pub mod trace;

pub use arrival::{DiurnalProfile, PopularityProcess};
pub use batch::{MiniBatch, SparseBatch};
pub use dist::{ZipfCdf, ZipfHead};
pub use schema::{Interaction, ModelConfig, SparseFeatureSpec};
pub use synthetic::CtrGenerator;
