//! Per-row hot/cold embedding sharding over a heterogeneous memory
//! hierarchy (RecShard + MTrainS).
//!
//! The per-table solvers in [`crate::solvers`] treat a table as atomic:
//! either its whole footprint earns HBM or none of it does. RecShard's
//! observation is that embedding-row popularity inside one table is itself
//! Zipf-skewed, so a thin *hot slice* of rows captures most of the
//! table's traffic — and MTrainS adds a storage-class-memory tier below
//! host DDR where the barely touched cold tail can live almost for free.
//! This module splits every table into three contiguous row ranges:
//!
//! ```text
//! rank 1 ……… hot_rows | ……… hot+warm | ……………………… rows
//!       HBM           |   host DDR   |   SCM / NVMe
//! ```
//!
//! and prices the split with a hit-rate-weighted access cost: a range
//! holding fraction `m` of the table's lookup mass (from the Zipf access
//! CDF [`recsim_data::dist::ZipfCdf`]) costs `m × rate(tier)`, where the
//! per-tier rates are [`CostModel`]'s whole-table prices for HBM,
//! host DDR and [`MemoryTier::Scm`].
//!
//! [`RowShardSolver`] picks split points greedily off the CDF (log-spaced
//! candidate boundaries, filled in benefit-per-byte order). The same fill
//! over *one* chunk per table is the whole-table baseline, on the same
//! rates and capacities, so the two plans are directly comparable; the
//! plan carries the baseline's cost. The solver falls back to the
//! baseline's split when chunk rounding would ever let the baseline win,
//! making "per-row ≥ per-table at equal HBM budget" hold by construction
//! — the `rowshard` experiment asserts it anyway.

use crate::cost::{CostModel, MemoryTier};
use crate::plan::{table_demands, ADAGRAD_STATE_MULTIPLIER};
use recsim_data::dist::{ZipfCdf, ZipfHead};
use recsim_data::schema::ModelConfig;
use recsim_hw::units::{Bytes, Duration};
use recsim_hw::Platform;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Candidate split boundaries per table. Log-spaced, so the hot head is
/// resolved row-by-row while the cold tail uses coarse chunks — matching
/// where the CDF actually bends.
const CHUNKS_PER_TABLE: usize = 64;

/// Why a per-row plan could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RowShardError {
    /// The Zipf lookup-skew exponent is not positive and finite.
    BadSkew(f64),
    /// The platform has no GPUs (or no host↔GPU link) — per-row sharding
    /// targets accelerated systems, like the per-table solvers.
    NoGpus,
    /// The platform has no SCM/NVMe tier attached
    /// ([`Platform::with_scm`]).
    NoScm,
    /// The cold tail does not fit the SCM tier.
    ScmOverflow {
        /// Bytes the plan wanted to spill.
        needed: u64,
        /// Bytes the SCM device offers.
        capacity: u64,
    },
}

impl fmt::Display for RowShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowShardError::BadSkew(s) => {
                write!(f, "Zipf exponent must be positive and finite, got {s}")
            }
            RowShardError::NoGpus => write!(f, "per-row sharding needs GPUs and a host-GPU link"),
            RowShardError::NoScm => write!(
                f,
                "per-row sharding needs an SCM/NVMe tier (Platform::with_scm)"
            ),
            RowShardError::ScmOverflow { needed, capacity } => write!(
                f,
                "cold tail ({}) exceeds SCM capacity ({})",
                Bytes::new(*needed),
                Bytes::new(*capacity)
            ),
        }
    }
}

impl Error for RowShardError {}

/// One table's row-range split across the three-tier hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowSplit {
    /// Distinct-table index in the model config.
    pub table: usize,
    /// Total rows in the table.
    pub rows: u64,
    /// Most popular `hot_rows` ranks live in GPU HBM.
    pub hot_rows: u64,
    /// The next `warm_rows` ranks live in host DDR.
    pub warm_rows: u64,
    /// Fraction of the table's lookup mass served by the hot slice.
    pub hot_mass: f64,
    /// Fraction of the table's lookup mass served by the warm slice.
    pub warm_mass: f64,
}

impl RowSplit {
    /// Rows in the SCM cold tail.
    pub fn cold_rows(&self) -> u64 {
        self.rows - self.hot_rows - self.warm_rows
    }

    /// Fraction of the table's lookup mass served from SCM.
    pub fn cold_mass(&self) -> f64 {
        (1.0 - self.hot_mass - self.warm_mass).max(0.0)
    }
}

/// A per-row placement over the HBM / host DDR / SCM hierarchy, with its
/// hit-rate-weighted access cost and that of the whole-table baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RowShardPlan {
    splits: Vec<RowSplit>,
    cost: Duration,
    baseline_cost: Duration,
    batch: u64,
    hbm_bytes: u64,
    host_bytes: u64,
    scm_bytes: u64,
    fell_back: bool,
}

impl RowShardPlan {
    /// The per-table row splits, in table order.
    pub fn splits(&self) -> &[RowSplit] {
        &self.splits
    }

    /// Hit-rate-weighted embedding access cost per training iteration.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// Cost of the whole-table baseline — every table entirely in one
    /// tier — on the same rates and budgets.
    pub fn baseline_cost(&self) -> Duration {
        self.baseline_cost
    }

    /// Batch size the plan was priced at.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Table bytes per tier: `(hbm, host, scm)`, optimizer state included.
    pub fn bytes_per_tier(&self) -> (u64, u64, u64) {
        (self.hbm_bytes, self.host_bytes, self.scm_bytes)
    }

    /// Whether the per-row solver fell back to the per-table split
    /// (possible only when chunk rounding erased its advantage).
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Fraction of all lookup traffic served from HBM.
    pub fn hbm_traffic_share(&self, config: &ModelConfig, batch: u64) -> f64 {
        let demands = table_demands(config, ADAGRAD_STATE_MULTIPLIER);
        let mut hot = 0.0f64;
        let mut total = 0.0f64;
        // detsan: reduction-order — fixed table order at every thread count.
        for split in &self.splits {
            let gather = demands[split.table].gather_bytes_per_example as f64 * batch as f64;
            hot += split.hot_mass * gather;
            total += gather;
        }
        if total > 0.0 {
            hot / total
        } else {
            0.0
        }
    }

    /// Human-readable summary: solver, cost, tier bytes, then the largest
    /// splits.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "solver: per-row{}\npredicted embedding access time: {:.3} ms/iteration (batch {})\n\
             bytes per tier: HBM {}, host {}, SCM {}\n",
            if self.fell_back {
                " (fell back to per-table split)"
            } else {
                ""
            },
            self.cost.as_secs() * 1e3,
            self.batch,
            Bytes::new(self.hbm_bytes),
            Bytes::new(self.host_bytes),
            Bytes::new(self.scm_bytes),
        );
        let mut by_size: Vec<&RowSplit> = self.splits.iter().collect();
        by_size.sort_by(|a, b| b.rows.cmp(&a.rows).then(a.table.cmp(&b.table)));
        out.push_str("table     rows       hot(HBM)   warm(DDR)  cold(SCM)  hot traffic\n");
        const SHOWN: usize = 12;
        for split in by_size.iter().take(SHOWN) {
            out.push_str(&format!(
                "{:<9} {:<10} {:<10} {:<10} {:<10} {:.1}%\n",
                split.table,
                split.rows,
                split.hot_rows,
                split.warm_rows,
                split.cold_rows(),
                split.hot_mass * 100.0
            ));
        }
        if by_size.len() > SHOWN {
            out.push_str(&format!("… and {} more tables\n", by_size.len() - SHOWN));
        }
        out
    }
}

/// One candidate row range `(lo, hi]` of a table.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    hi: u64,
    mass: f64,
    bytes: u64,
}

/// Per-table solver state: footprint, access CDF and the per-tier rates,
/// each the cost of serving the table's *entire* per-iteration traffic
/// from that tier ([`CostModel::access_cost`]). A row range holding
/// fraction `m` of the lookup mass costs `m × rate`.
struct TableState {
    table: usize,
    rows: u64,
    bytes: u64,
    hbm: f64,
    ddr: f64,
    scm: f64,
    cdf: ZipfCdf,
}

/// Splits every embedding table into hot/warm/cold row ranges from the
/// Zipf access CDF, greedily filling HBM then host DDR by benefit per
/// byte. Deterministic pure function of its inputs at any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowShardSolver;

impl RowShardSolver {
    /// Solves for a per-row plan: hot slices in HBM under `hbm_budget`
    /// aggregate bytes, warm in host DDR under `ddr_budget` (clamped to the
    /// host's capacity), cold tail in SCM. Lookup skew is `zipf_exponent`,
    /// the generator's row-popularity exponent. The tier-capacity sweeps
    /// pass a DDR budget below the host's physical capacity (DDR is shared
    /// with readers, activations and the OS) so the cold tail genuinely
    /// lands on SCM.
    ///
    /// The plan also carries the whole-table baseline's cost
    /// ([`RowShardPlan::baseline_cost`]): the same fill over one chunk per
    /// table, on the same rates and budgets.
    ///
    /// # Errors
    ///
    /// [`RowShardError::BadSkew`] unless the exponent is positive and
    /// finite, [`RowShardError::NoGpus`] / [`RowShardError::NoScm`] when
    /// the platform lacks a tier, [`RowShardError::ScmOverflow`] when the
    /// cold tail exceeds the SCM device.
    pub fn solve(
        &self,
        config: &ModelConfig,
        platform: &Platform,
        batch: u64,
        zipf_exponent: f64,
        hbm_budget: Bytes,
        ddr_budget: Bytes,
    ) -> Result<RowShardPlan, RowShardError> {
        if !(zipf_exponent > 0.0 && zipf_exponent.is_finite()) {
            return Err(RowShardError::BadSkew(zipf_exponent));
        }
        let head = ZipfHead::new(zipf_exponent);
        self.solve_with_head(config, platform, batch, &head, hbm_budget, ddr_budget)
    }

    /// [`Self::solve`] with the lookup skew given as a prebuilt
    /// [`ZipfHead`] (its exponent). A sweep builds one head per distinct
    /// exponent and shares it across its cells, where `solve` builds one
    /// per call; the plans are identical.
    ///
    /// # Errors
    ///
    /// As [`Self::solve`]; the head's exponent is valid by construction.
    pub fn solve_with_head(
        &self,
        config: &ModelConfig,
        platform: &Platform,
        batch: u64,
        head: &Arc<ZipfHead>,
        hbm_budget: Bytes,
        ddr_budget: Bytes,
    ) -> Result<RowShardPlan, RowShardError> {
        let cost = CostModel::new(config, platform).map_err(|_| RowShardError::NoGpus)?;
        let scm_cap = platform
            .scm()
            .map(|s| s.capacity().as_u64())
            .ok_or(RowShardError::NoScm)?;
        let host_cap = ddr_budget
            .as_u64()
            .min(platform.host().memory().capacity().as_u64());
        let tables = table_states(config, &cost, batch, head);
        let budgets = (hbm_budget.as_u64(), host_cap, scm_cap);

        let per_row = split_plan(&tables, CHUNKS_PER_TABLE, budgets, batch)?;
        let per_table = split_plan(&tables, 1, budgets, batch)?;

        // Never-worse guarantee: chunk rounding is the only way the
        // whole-table baseline can win; adopt its split when it does.
        let plan = if per_table.cost.as_secs() < per_row.cost.as_secs() - 1e-15 {
            RowShardPlan {
                fell_back: true,
                ..per_table
            }
        } else {
            RowShardPlan {
                baseline_cost: per_table.cost,
                ..per_row
            }
        };

        if recsim_detsan::enabled() {
            let mut d = recsim_detsan::StateDigest::new();
            d.write_str("per-row");
            d.write_u64(plan.batch);
            d.write_u64(hbm_budget.as_u64());
            d.write_usize(plan.splits.len());
            for split in &plan.splits {
                d.write_usize(split.table);
                d.write_u64(split.rows);
                d.write_u64(split.hot_rows);
                d.write_u64(split.warm_rows);
            }
            recsim_detsan::record("shard/rowsplit", d.finish());
        }
        Ok(plan)
    }
}

/// Builds per-table solver state: footprint, tier rates and access CDF.
/// Every table's CDF shares `head`.
fn table_states(
    config: &ModelConfig,
    cost: &CostModel,
    batch: u64,
    head: &Arc<ZipfHead>,
) -> Vec<TableState> {
    table_demands(config, ADAGRAD_STATE_MULTIPLIER)
        .iter()
        .map(|demand| {
            let rate = |tier| cost.access_cost(demand, tier, batch).as_secs();
            let rows = config.table_hash_size(demand.table).max(1);
            TableState {
                table: demand.table,
                rows,
                bytes: demand.bytes,
                hbm: rate(MemoryTier::GpuHbm),
                ddr: rate(MemoryTier::HostDram),
                scm: rate(MemoryTier::Scm),
                cdf: ZipfCdf::with_head(rows, head),
            }
        })
        .collect()
}

/// Cuts every table into at most `chunks_per_table` row ranges, fills HBM
/// then host DDR greedily, and prices the result. One chunk per table is
/// the whole-table baseline: each table lands entirely in one tier.
/// `budgets` is `(hbm, ddr, scm)` bytes.
fn split_plan(
    tables: &[TableState],
    chunks_per_table: usize,
    (hbm_budget, ddr_budget, scm_cap): (u64, u64, u64),
    batch: u64,
) -> Result<RowShardPlan, RowShardError> {
    let chunks: Vec<Vec<Chunk>> = tables
        .iter()
        .map(|t| chunk_table(&t.cdf, t.rows, t.bytes, chunks_per_table))
        .collect();
    // Stage 1: fill the HBM budget with the highest-density chunks.
    // Within a table the CDF is concave and the rates constant, so
    // densities fall with rank and the global order visits each table's
    // chunks front to back; the next-chunk counters enforce contiguity
    // defensively anyway.
    let hot_taken = fill_stage(
        tables,
        &chunks,
        &vec![0usize; tables.len()],
        hbm_budget,
        |t| t.scm - t.hbm,
    );
    // Stage 2: fill host DDR with what SCM would serve slowest.
    let warm_taken = fill_stage(tables, &chunks, &hot_taken, ddr_budget, |t| t.scm - t.ddr);
    assemble_plan(tables, &chunks, &hot_taken, &warm_taken, batch, scm_cap)
}

/// Log-spaced candidate boundaries: `round(rows^(i/n))`, deduplicated,
/// always ending at `rows`. Chunk bytes are exact proportional shares of
/// the table footprint (they sum to `table_bytes` by telescoping).
fn chunk_table(cdf: &ZipfCdf, rows: u64, table_bytes: u64, n: usize) -> Vec<Chunk> {
    let mut bounds: Vec<u64> = Vec::with_capacity(n);
    for i in 1..=n {
        let k = (rows as f64).powf(i as f64 / n as f64).round() as u64;
        let k = k.clamp(1, rows);
        if bounds.last() != Some(&k) {
            bounds.push(k);
        }
    }
    if bounds.last() != Some(&rows) {
        bounds.push(rows);
    }
    let share = |k: u64| -> u64 { (k as u128 * table_bytes as u128 / rows as u128) as u64 };
    let mut chunks = Vec::with_capacity(bounds.len());
    let mut lo = 0u64;
    for &hi in &bounds {
        chunks.push(Chunk {
            hi,
            mass: cdf.cdf(hi) - cdf.cdf(lo),
            bytes: share(hi) - share(lo),
        });
        lo = hi;
    }
    chunks
}

/// Greedily accepts chunks in descending benefit-per-byte order into a
/// tier with `budget` bytes, starting each table at `start[i]` (chunks
/// already placed in faster tiers). A table freezes at its first rejected
/// chunk so accepted ranges stay contiguous. Returns the per-table count
/// of chunks placed up to and including this tier.
fn fill_stage(
    tables: &[TableState],
    chunks: &[Vec<Chunk>],
    start: &[usize],
    budget: u64,
    gain: impl Fn(&TableState) -> f64,
) -> Vec<usize> {
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for (i, (t, table_chunks)) in tables.iter().zip(chunks).enumerate() {
        let g = gain(t);
        for (c, chunk) in table_chunks.iter().enumerate().skip(start[i]) {
            candidates.push((chunk.mass * g.max(0.0) / chunk.bytes.max(1) as f64, i, c));
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut taken = start.to_vec();
    let mut frozen = vec![false; tables.len()];
    let mut left = budget;
    for &(d, i, c) in &candidates {
        if frozen[i] || c != taken[i] || d <= 0.0 {
            continue;
        }
        let bytes = chunks[i][c].bytes;
        if bytes <= left {
            taken[i] = c + 1;
            left -= bytes;
        } else {
            frozen[i] = true;
        }
    }
    taken
}

/// Folds accepted chunk counts into splits, bytes per tier and the
/// hit-rate-weighted cost; errors when the cold tail overflows SCM. The
/// plan starts out as its own baseline.
fn assemble_plan(
    tables: &[TableState],
    chunks: &[Vec<Chunk>],
    hot_taken: &[usize],
    warm_taken: &[usize],
    batch: u64,
    scm_cap: u64,
) -> Result<RowShardPlan, RowShardError> {
    let mut splits = Vec::with_capacity(tables.len());
    let (mut hbm_bytes, mut host_bytes, mut scm_bytes) = (0u64, 0u64, 0u64);
    let mut cost = 0.0f64;
    // detsan: reduction-order — fixed table order at every thread count.
    for (i, (t, chunks)) in tables.iter().zip(chunks).enumerate() {
        let hot_rows = if hot_taken[i] > 0 {
            chunks[hot_taken[i] - 1].hi
        } else {
            0
        };
        let warm_hi = if warm_taken[i] > 0 {
            chunks[warm_taken[i] - 1].hi
        } else {
            0
        };
        let warm_rows = warm_hi.max(hot_rows) - hot_rows;
        let hot_mass = t.cdf.cdf(hot_rows);
        let warm_mass = t.cdf.cdf(hot_rows + warm_rows) - hot_mass;
        let cold_mass = (1.0 - hot_mass - warm_mass).max(0.0);
        cost += hot_mass * t.hbm + warm_mass * t.ddr + cold_mass * t.scm;

        let hot_b: u64 = chunks[..hot_taken[i]].iter().map(|c| c.bytes).sum();
        let warm_b: u64 = chunks[hot_taken[i]..warm_taken[i]]
            .iter()
            .map(|c| c.bytes)
            .sum();
        let cold_b: u64 = chunks[warm_taken[i]..].iter().map(|c| c.bytes).sum();
        hbm_bytes += hot_b;
        host_bytes += warm_b;
        scm_bytes += cold_b;

        splits.push(RowSplit {
            table: t.table,
            rows: t.rows,
            hot_rows,
            warm_rows,
            hot_mass,
            warm_mass,
        });
    }
    if scm_bytes > scm_cap {
        return Err(RowShardError::ScmOverflow {
            needed: scm_bytes,
            capacity: scm_cap,
        });
    }
    Ok(RowShardPlan {
        splits,
        cost: Duration::from_secs(cost),
        baseline_cost: Duration::from_secs(cost),
        batch,
        hbm_bytes,
        host_bytes,
        scm_bytes,
        fell_back: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_data::production::{production_model, ProductionModelId};
    use recsim_hw::ScmDevice;

    fn platform() -> Platform {
        Platform::big_basin(Bytes::from_gib(32)).with_scm(ScmDevice::optane_pmem())
    }

    fn m1() -> ModelConfig {
        production_model(ProductionModelId::M1)
    }

    /// Solves M1 at batch 1600 with the host's whole DDR as the warm tier.
    fn solve(platform: &Platform, zipf: f64, hbm: Bytes) -> Result<RowShardPlan, RowShardError> {
        let ddr = platform.host().memory().capacity();
        RowShardSolver.solve(&m1(), platform, 1600, zipf, hbm, ddr)
    }

    #[test]
    fn splits_partition_every_table() {
        let plan = solve(&platform(), 1.1, Bytes::from_gib(8)).expect("solvable");
        assert_eq!(plan.splits().len(), m1().num_tables());
        for split in plan.splits() {
            assert_eq!(
                split.hot_rows + split.warm_rows + split.cold_rows(),
                split.rows
            );
            assert!(split.hot_mass >= 0.0 && split.hot_mass <= 1.0);
        }
        let (hbm, host, scm) = plan.bytes_per_tier();
        let demands = table_demands(&m1(), ADAGRAD_STATE_MULTIPLIER);
        let total: u64 = demands.iter().map(|d| d.bytes).sum();
        assert_eq!(hbm + host + scm, total, "bytes are conserved exactly");
    }

    #[test]
    fn hbm_budget_is_respected() {
        for gib in [1u64, 4, 16] {
            let budget = Bytes::from_gib(gib);
            let plan = solve(&platform(), 1.1, budget).expect("solvable");
            let (hbm, host, _) = plan.bytes_per_tier();
            assert!(hbm <= budget.as_u64(), "{hbm} > {}", budget.as_u64());
            assert!(host <= platform().host().memory().capacity().as_u64());
        }
    }

    #[test]
    fn per_row_never_loses_to_per_table() {
        for &(zipf, gib) in &[(0.8, 2u64), (1.1, 8), (1.4, 16)] {
            let budget = Bytes::from_gib(gib);
            let row = solve(&platform(), zipf, budget).expect("solvable");
            assert!(
                row.cost().as_secs() <= row.baseline_cost().as_secs() + 1e-15,
                "zipf {zipf} budget {gib} GiB: per-row {} vs per-table {}",
                row.cost().as_secs(),
                row.baseline_cost().as_secs()
            );
        }
    }

    #[test]
    fn tight_budget_still_captures_most_traffic() {
        // 1 GiB of HBM is a tiny fraction of M1's footprint, yet the hot
        // slices should capture well over half the lookup traffic.
        let plan = solve(&platform(), 1.1, Bytes::from_gib(1)).expect("solvable");
        let share = plan.hbm_traffic_share(&m1(), 1600);
        let (hbm, _, _) = plan.bytes_per_tier();
        let total: u64 = table_demands(&m1(), ADAGRAD_STATE_MULTIPLIER)
            .iter()
            .map(|d| d.bytes)
            .sum();
        assert!(
            share > 0.5,
            "hot share {share} from {:.1}% of bytes",
            hbm as f64 / total as f64 * 100.0
        );
        assert!(hbm as f64 / (total as f64) < 0.05);
    }

    #[test]
    fn steeper_skew_shrinks_the_hot_slice_coverage_point() {
        // The crossover (rows needed for 90% coverage) moves left as the
        // exponent grows — the claim the experiment sweeps.
        let flat = ZipfCdf::new(10_000_000, 0.8).rows_for_coverage(0.9);
        let mid = ZipfCdf::new(10_000_000, 1.1).rows_for_coverage(0.9);
        let steep = ZipfCdf::new(10_000_000, 1.4).rows_for_coverage(0.9);
        assert!(flat > mid && mid > steep, "{flat} > {mid} > {steep}");
    }

    #[test]
    fn missing_tiers_are_reported() {
        let no_scm = Platform::big_basin(Bytes::from_gib(32));
        let err = solve(&no_scm, 1.1, Bytes::from_gib(8)).expect_err("no SCM tier");
        assert_eq!(err, RowShardError::NoScm);

        let cpu = Platform::dual_socket_cpu().with_scm(ScmDevice::nvme_flash());
        let err = solve(&cpu, 1.1, Bytes::from_gib(8)).expect_err("no GPUs");
        assert_eq!(err, RowShardError::NoGpus);
        assert!(err.to_string().contains("GPUs"));
    }

    #[test]
    fn bad_skew_is_an_error() {
        for zipf in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = solve(&platform(), zipf, Bytes::from_gib(8)).expect_err("bad skew");
            assert!(matches!(err, RowShardError::BadSkew(_)), "{zipf}: {err}");
            assert!(err.to_string().contains("Zipf exponent"), "{err}");
        }
    }

    /// One table of 100 rows with whole-table rates `(hbm, ddr, scm)`.
    fn hand_built(table: usize, bytes: u64, (hbm, ddr, scm): (f64, f64, f64)) -> TableState {
        TableState {
            table,
            rows: 100,
            bytes,
            hbm,
            ddr,
            scm,
            cdf: ZipfCdf::new(100, 1.0),
        }
    }

    #[test]
    fn one_chunk_baseline_fills_whole_tables_greedily() {
        let tables = [
            // Densest for HBM (19/100) but larger than the 60-byte budget.
            hand_built(0, 100, (1.0, 10.0, 20.0)),
            // Next for HBM (6/40): still taken after table 0 is skipped.
            // Densest for DDR (5/40), but it already sits in HBM.
            hand_built(1, 40, (1.0, 2.0, 7.0)),
            // No gain over SCM: stays there although HBM and DDR fit it.
            hand_built(2, 10, (1.0, 1.0, 1.0)),
            // Fits neither what HBM nor what DDR has left.
            hand_built(3, 50, (1.0, 2.0, 4.0)),
        ];
        let plan = split_plan(&tables, 1, (60, 110, u64::MAX), 1).expect("fits");
        let tiers: Vec<(u64, u64, u64)> = plan
            .splits()
            .iter()
            .map(|s| (s.hot_rows, s.warm_rows, s.cold_rows()))
            .collect();
        assert_eq!(
            tiers,
            [(0, 100, 0), (100, 0, 0), (0, 0, 100), (0, 0, 100)],
            "(hot, warm, cold) rows per table"
        );
        assert_eq!(plan.bytes_per_tier(), (40, 100, 60));
        // DDR 10 + HBM 1 + SCM 1 + SCM 4.
        assert_eq!(plan.cost().as_secs(), 16.0);
    }

    #[test]
    fn scm_overflow_is_reported() {
        // A host with 1 GiB of DDR cannot absorb M1's ~80 GiB of tables,
        // so nearly everything spills — and a 1-byte SCM rejects it.
        use recsim_hw::memory::Memory;
        use recsim_hw::units::{Bandwidth, Duration as D, FlopRate};
        use recsim_hw::{ComputeDevice, DeviceKind, Link, PowerModel};
        let host = ComputeDevice::new(
            DeviceKind::Cpu,
            FlopRate::from_tflops(1.0),
            0.3,
            Memory::new(Bytes::from_gib(1), Bandwidth::from_gb_per_s(100.0), 0.25),
            D::from_micros(1.0),
        );
        let tiny = Platform::custom(
            "tiny-host",
            host,
            vec![recsim_hw::device::v100(Bytes::from_gib(32))],
            None,
            Some(Link::pcie3_x16()),
            Link::ethernet_25g(),
            PowerModel::cpu_server(),
        )
        .with_scm(ScmDevice::optane_pmem().with_capacity(Bytes::new(1)));
        let err = solve(&tiny, 1.1, Bytes::new(1024)).expect_err("1-byte SCM cannot hold the tail");
        assert!(matches!(err, RowShardError::ScmOverflow { .. }), "{err}");
    }

    #[test]
    fn describe_mentions_all_three_tiers() {
        let plan = solve(&platform(), 1.1, Bytes::from_gib(8)).expect("solvable");
        let text = plan.describe();
        assert!(text.contains("HBM") && text.contains("SCM"), "{text}");
        assert!(text.contains("per-row"));
    }
}
