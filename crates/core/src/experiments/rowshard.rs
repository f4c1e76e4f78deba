//! rowshard — per-row hot/cold sharding vs the whole-table baseline over
//! a heterogeneous HBM / host DDR / SCM hierarchy (ISSUE 10 tentpole).
//!
//! RecShard's observation: embedding-row popularity inside a table is
//! Zipf-skewed, so splitting tables into hot/warm/cold *row ranges* beats
//! any whole-table placement at the same HBM budget. MTrainS adds the SCM
//! tier that makes the cold tail nearly free. This driver sweeps lookup
//! skew × HBM budget on the three production models (Big Basin with an
//! Optane-class SCM tier attached) and pins two claims: per-row never
//! costs more than per-table at an equal HBM budget, and the hot/cold
//! crossover row index (rows needed for 90% traffic coverage) moves left
//! as the Zipf exponent grows.

use crate::sweep::sweep;
use crate::{Claim, Effort, ExperimentOutput};
use recsim_data::dist::{ZipfCdf, ZipfHead};
use recsim_data::production::{production_model, ProductionModelId};
use recsim_hw::units::Bytes;
use recsim_hw::{Platform, ScmDevice};
use recsim_metrics::Table;
use recsim_placement::plan::{table_demands, ADAGRAD_STATE_MULTIPLIER};
use recsim_placement::RowShardSolver;
use std::sync::Arc;

/// Row count of the reference table the crossover claim reads the CDF on
/// (the paper's Figure 6 upper end: ~10M-row hash sizes).
const CROSSOVER_ROWS: u64 = 10_000_000;

/// Traffic coverage defining the hot/cold crossover row index.
const CROSSOVER_COVERAGE: f64 = 0.9;

/// Warm-tier (host DDR) budget as a multiple of the HBM budget. Capping
/// DDR below the host's physical 256 GiB models the production reality
/// that trainer DDR is shared with readers, activations and the OS —
/// and it is what pushes each model's cold tail onto the SCM tier.
const DDR_BUDGET_MULTIPLE: f64 = 2.0;

/// One sweep point: both plans priced for one (model, skew, budget) cell.
struct Point {
    model: ProductionModelId,
    zipf: f64,
    frac: f64,
    row_cost: f64,
    table_cost: f64,
    hbm_share: f64,
    scm_bytes: u64,
    fell_back: bool,
}

/// Compares per-row against per-table placement across skew × HBM budget.
pub fn run(effort: Effort) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "rowshard",
        "Per-row hot/cold sharding vs per-table over HBM/DDR/SCM \
         (skew × HBM budget, M1/M2/M3 on Big Basin + Optane SCM)",
    );
    let platform = Platform::big_basin(Bytes::from_gib(32)).with_scm(ScmDevice::optane_pmem());
    let setups = [
        (ProductionModelId::M1, 1600u64),
        (ProductionModelId::M2, 3200),
        (ProductionModelId::M3, 800),
    ];
    let zipfs: &[f64] = effort.pick(&[0.8, 1.1, 1.4], &[0.6, 0.8, 1.0, 1.1, 1.2, 1.4, 1.6]);
    let fracs: &[f64] = effort.pick(&[0.05, 0.15, 0.4], &[0.02, 0.05, 0.1, 0.15, 0.25, 0.4]);

    // One CDF head per exponent, shared by every cell and table with that
    // skew (and by the crossover below).
    let heads: Vec<Arc<ZipfHead>> = zipfs.iter().map(|&s| ZipfHead::new(s)).collect();
    let mut grid = Vec::new();
    for &(model, batch) in &setups {
        for head in &heads {
            for &frac in fracs {
                grid.push((model, batch, head, frac));
            }
        }
    }

    // Parallel phase: one solve per cell prices both plans.
    let points: Vec<Point> = sweep(&grid, |&(model, batch, head, frac)| {
        let config = production_model(model);
        let total: u64 = table_demands(&config, ADAGRAD_STATE_MULTIPLIER)
            .iter()
            .map(|d| d.bytes)
            .sum();
        let budget = Bytes::new((total as f64 * frac) as u64);
        let ddr = Bytes::new((budget.as_u64() as f64 * DDR_BUDGET_MULTIPLE) as u64);
        let row = RowShardSolver
            .solve_with_head(&config, &platform, batch, head, budget, ddr)
            .unwrap_or_else(|e| panic!("per-row solve failed on {model:?}: {e}"));
        Point {
            model,
            zipf: head.exponent(),
            frac,
            row_cost: row.cost().as_secs(),
            table_cost: row.baseline_cost().as_secs(),
            hbm_share: row.hbm_traffic_share(&config, batch),
            scm_bytes: row.bytes_per_tier().2,
            fell_back: row.fell_back(),
        }
    });

    let mut never_worse = true;
    let mut worst_cells: Vec<String> = Vec::new();
    let mut best_advantages: Vec<String> = Vec::new();
    for &(model, _) in &setups {
        let mut table = Table::new(vec![
            "zipf s",
            "HBM frac",
            "per-row ms",
            "per-table ms",
            "advantage",
            "HBM traffic",
        ]);
        let mut best_adv = 0.0f64;
        for p in points.iter().filter(|p| p.model == model) {
            let adv = if p.table_cost > 0.0 {
                1.0 - p.row_cost / p.table_cost
            } else {
                0.0
            };
            if p.row_cost > p.table_cost + 1e-15 {
                never_worse = false;
                worst_cells.push(format!(
                    "{model:?} s={} frac={}: {:.4} > {:.4} ms",
                    p.zipf,
                    p.frac,
                    p.row_cost * 1e3,
                    p.table_cost * 1e3
                ));
            }
            best_adv = best_adv.max(adv);
            table.push_row(vec![
                format!("{:.1}", p.zipf),
                format!("{:.0}%", p.frac * 100.0),
                format!("{:.3}", p.row_cost * 1e3),
                format!("{:.3}", p.table_cost * 1e3),
                format!("{:.1}%", adv * 100.0),
                format!(
                    "{:.1}%{}",
                    p.hbm_share * 100.0,
                    if p.fell_back { " (fb)" } else { "" }
                ),
            ]);
        }
        best_advantages.push(format!("{model:?} best {:.1}%", best_adv * 100.0));
        out.notes.push(format!(
            "{model:?}: per-row vs per-table across skew × HBM budget (fractions of the \
             model's own footprint); (fb) marks a per-table fallback"
        ));
        out.tables.push(table);
    }

    // Crossover: rows needed to cover 90% of the traffic on a 10M-row
    // reference table, per swept exponent.
    let mut crossover = Table::new(vec!["zipf s", "rows for 90% traffic"]);
    let crossings: Vec<(f64, u64)> = heads
        .iter()
        .map(|head| {
            (
                head.exponent(),
                ZipfCdf::with_head(CROSSOVER_ROWS, head).rows_for_coverage(CROSSOVER_COVERAGE),
            )
        })
        .collect();
    for &(s, k) in &crossings {
        crossover.push_row(vec![format!("{s:.1}"), k.to_string()]);
    }
    out.tables.push(crossover);
    let monotone = crossings.windows(2).all(|w| w[1].1 < w[0].1);

    out.claims.push(Claim::new(
        "Per-row placement never costs more than whole-table placement at an \
         equal HBM budget, on all three production models across the full \
         skew × budget sweep",
        if worst_cells.is_empty() {
            format!(
                "{} sweep cells, per-row <= per-table in every one",
                points.len()
            )
        } else {
            worst_cells.join("; ")
        },
        never_worse,
    ));
    out.claims.push(Claim::new(
        "The hot/cold crossover row index (90% traffic coverage on a 10M-row \
         table) strictly decreases as the Zipf exponent grows",
        crossings
            .iter()
            .map(|(s, k)| format!("s={s:.1}: {k}"))
            .collect::<Vec<_>>()
            .join(", "),
        monotone,
    ));
    out.claims.push(Claim::new(
        "Per-row sharding finds a strictly positive advantage on every \
         production model somewhere in the sweep (the skewed cells)",
        best_advantages.join("; "),
        setups.iter().all(|&(model, _)| {
            points
                .iter()
                .any(|p| p.model == model && p.row_cost < p.table_cost - 1e-15)
        }),
    ));
    out.claims.push(Claim::new(
        "With the warm tier capped at 2x the HBM budget, every production \
         model spills a non-zero cold tail onto the SCM tier somewhere in \
         the sweep",
        setups
            .iter()
            .map(|&(model, _)| {
                let max_scm = points
                    .iter()
                    .filter(|p| p.model == model)
                    .map(|p| p.scm_bytes)
                    .max()
                    .unwrap_or(0);
                format!("{model:?} max SCM {}", Bytes::new(max_scm))
            })
            .collect::<Vec<_>>()
            .join("; "),
        setups
            .iter()
            .all(|&(model, _)| points.iter().any(|p| p.model == model && p.scm_bytes > 0)),
    ));
    out.notes.push(format!(
        "Warm-tier cap: host DDR budget = {DDR_BUDGET_MULTIPLE}x the HBM budget \
         (trainer DDR is shared with readers, activations and the OS)"
    ));
    out.notes.push(format!(
        "SCM tier: Optane-class PMem ({}, {:.0} ns, {:.0} GB/s); crossover read \
         off the Zipf CDF at {:.0}% coverage",
        ScmDevice::optane_pmem().capacity(),
        ScmDevice::optane_pmem().read_latency().as_secs() * 1e9,
        ScmDevice::optane_pmem().sustained_bandwidth().as_gb_per_s(),
        CROSSOVER_COVERAGE * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hold() {
        let out = run(Effort::Quick);
        assert!(out.all_claims_hold(), "{}", out.render());
    }
}
