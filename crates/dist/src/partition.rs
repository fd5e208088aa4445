//! The shard planner: contiguous, window-aligned, cost-balanced row
//! blocks.
//!
//! Sharding reuses the paper's Equation-(4) performance model (the
//! balance crate's [`PerfModel`]) one level up: instead of balancing TC
//! blocks across thread blocks *within* a GPU, it balances row windows
//! across *shards*. Each window's cost is priced as one model thread
//! block (`tb_time`) over a dense-packing lower bound of its TC blocks,
//! and a greedy prefix walk cuts the window sequence into `num_shards`
//! contiguous ranges of near-equal cost.
//!
//! Boundaries are aligned to [`TILE`]-row windows so
//! a shard's window partition is exactly a sub-range of the whole
//! matrix's — no window ever straddles two shards. Trailing shards may
//! be empty (zero rows) when the matrix has fewer populated windows
//! than shards; callers must tolerate them.

use spmm_balance::PerfModel;
use spmm_format::TILE;
use spmm_matrix::CsrMatrix;

/// The dense-packing lower bound used to price a window: a TC block
/// covers at most `TILE × TILE` entries, so a window with `nnz`
/// non-zeros holds at least `ceil(nnz / TILE²)` blocks.
fn window_blocks_lower_bound(window_nnz: usize) -> usize {
    window_nnz.div_ceil(TILE * TILE)
}

/// One shard's contiguous row range `[row_lo, row_hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// Shard index (0-based).
    pub id: usize,
    /// First row (inclusive), a multiple of [`TILE`].
    pub row_lo: usize,
    /// Past-the-end row (exclusive).
    pub row_hi: usize,
    /// Stored non-zeros in the range.
    pub nnz: usize,
    /// Modeled execution cost of the range (seconds under the
    /// Equation-(4) model; comparable across shards of one plan only).
    pub cost: f64,
}

impl ShardSpec {
    /// Rows in the shard.
    pub fn rows(&self) -> usize {
        self.row_hi - self.row_lo
    }

    /// Whether the shard holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.row_lo == self.row_hi
    }
}

/// The planner's output: every shard's range plus summary imbalance.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard ranges in row order; exactly `num_shards` entries, covering
    /// `0..nrows` without gaps or overlap.
    pub shards: Vec<ShardSpec>,
    /// `max(cost) / mean(cost)` over non-empty shards — 1.0 is perfect.
    pub imbalance: f64,
}

/// Cut `m`'s rows into `num_shards` contiguous window-aligned blocks of
/// near-equal modeled cost.
pub fn plan_shards(m: &CsrMatrix, num_shards: usize, model: &PerfModel) -> ShardPlan {
    assert!(num_shards >= 1, "need at least one shard");
    let nrows = m.nrows();
    let num_windows = nrows.div_ceil(TILE);

    // Price every window with the Equation-(4) thread-block time over
    // its dense-packing block bound (plus one write-back segment).
    let mut window_cost = Vec::with_capacity(num_windows);
    let mut window_nnz = Vec::with_capacity(num_windows);
    for w in 0..num_windows {
        let lo = w * TILE;
        let hi = ((w + 1) * TILE).min(nrows);
        let nnz = m.row_ptr()[hi] - m.row_ptr()[lo];
        window_nnz.push(nnz);
        window_cost.push(if nnz == 0 {
            0.0
        } else {
            model.tb_time(window_blocks_lower_bound(nnz), 1)
        });
    }
    let total_cost: f64 = window_cost.iter().sum();

    // Greedy prefix walk: close the current shard once it reaches the
    // remaining-average target, so later shards absorb rounding instead
    // of the last shard collecting all of it.
    let mut shards = Vec::with_capacity(num_shards);
    let mut w = 0usize;
    let mut spent = 0.0f64;
    for id in 0..num_shards {
        let lo_w = w;
        let remaining_shards = (num_shards - id) as f64;
        let target = (total_cost - spent) / remaining_shards;
        let mut cost = 0.0f64;
        let mut nnz = 0usize;
        // Leave at least one window per remaining shard when possible.
        let max_w = num_windows.saturating_sub(num_shards - id - 1);
        while w < max_w && (cost < target || cost == 0.0) {
            // Don't overshoot past the midpoint of the next window's
            // cost — take it only if that lands closer to the target.
            if cost > 0.0 && cost + window_cost[w] / 2.0 > target {
                break;
            }
            cost += window_cost[w];
            nnz += window_nnz[w];
            w += 1;
        }
        spent += cost;
        let row_lo = (lo_w * TILE).min(nrows);
        let row_hi = (w * TILE).min(nrows);
        shards.push(ShardSpec {
            id,
            row_lo,
            row_hi,
            nnz,
            cost,
        });
    }
    // Any leftover windows (rounding) join the last shard.
    if w < num_windows {
        let last = shards.last_mut().expect("num_shards >= 1");
        for win in w..num_windows {
            last.cost += window_cost[win];
            last.nnz += window_nnz[win];
        }
        last.row_hi = nrows;
    }

    let busy: Vec<f64> = shards
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.cost)
        .collect();
    let imbalance = if busy.is_empty() {
        1.0
    } else {
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };
    ShardPlan { shards, imbalance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_balance::{ModelParams, PerfModel};
    use spmm_matrix::gen::uniform_random;

    fn model() -> PerfModel {
        PerfModel::new(ModelParams {
            feature_dim: 32,
            bandwidth: 1935.0e9,
            flops: 156.0e12,
            num_sms: 108,
        })
    }

    #[test]
    fn shards_tile_the_row_space() {
        let m = uniform_random(1000, 6.0, 1);
        for shards in [1, 2, 3, 7, 8] {
            let plan = plan_shards(&m, shards, &model());
            assert_eq!(plan.shards.len(), shards);
            assert_eq!(plan.shards[0].row_lo, 0);
            assert_eq!(plan.shards.last().unwrap().row_hi, m.nrows());
            for pair in plan.shards.windows(2) {
                assert_eq!(pair[0].row_hi, pair[1].row_lo, "contiguous, no gaps");
                assert_eq!(pair[0].row_hi % TILE, 0, "window-aligned boundary");
            }
            let nnz: usize = plan.shards.iter().map(|s| s.nnz).sum();
            assert_eq!(nnz, m.nnz());
        }
    }

    #[test]
    fn balanced_split_beats_worst_case() {
        // Cost balance: no shard should carry more than ~2x the mean on
        // a uniform matrix.
        let m = uniform_random(4096, 8.0, 2);
        let plan = plan_shards(&m, 4, &model());
        assert!(
            plan.imbalance < 1.5,
            "imbalance {} too high for a uniform matrix",
            plan.imbalance
        );
    }

    #[test]
    fn more_shards_than_windows_yields_empty_shards() {
        let m = uniform_random(16, 3.0, 3); // 2 windows
        let plan = plan_shards(&m, 7, &model());
        assert_eq!(plan.shards.len(), 7);
        assert!(plan.shards.iter().any(|s| s.is_empty()));
        assert_eq!(plan.shards.last().unwrap().row_hi, m.nrows());
        let covered: usize = plan.shards.iter().map(|s| s.rows()).sum();
        assert_eq!(covered, m.nrows());
    }
}
