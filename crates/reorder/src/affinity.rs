//! The paper's data-affinity-based reordering (Algorithm 1).
//!
//! **Step I — dendrogram construction**: visit vertices in ascending
//! degree; for each vertex `v`, find the neighbour `u` maximizing ΔQ
//! (Equation 1) and merge `v` into `u` when ΔQ > 0, recording the merge
//! in a dendrogram.
//!
//! **Step II — ordering generation**: walk the dendrogram leaves in DFS
//! order; from each unvisited leaf, repeatedly jump to the unvisited
//! vertex sharing the most common neighbours (ties broken by DFS
//! position), assigning consecutive new ids along the chain.
//!
//! Cost per step, for `n` vertices, `nnz` stored entries, adjacency
//! `E` (the symmetrized pattern), `C = TWO_HOP_CAP` and `R = RESCORE`:
//! - the [`GraphView`] build is a transpose plus a sorted merge per row,
//!   O(nnz + n);
//! - step I sorts the vertices by degree and scores every edge with a
//!   union-find lookup, O(n log n + |E| α(n));
//! - step II builds each vertex's strided sample once, O(|E|), then
//!   spends O(C² + T + R log R + deg(v) + Σ deg(u)) per chain step: the
//!   capped two-hop count, a top-`R` selection over the `T` touched
//!   candidates, and an exact rescore of the `R` survivors against
//!   `N(v)`. Over all `n` steps that is O(n·(C² + R·d_max)).
//!
//! The common-neighbour search is restricted to the 2-hop neighbourhood
//! (the only vertices that *can* share a neighbour) with a
//! deterministic per-hop cap on high-degree vertices.

use spmm_graph::{CommunityTracker, Dendrogram, GraphView};
use spmm_matrix::CsrMatrix;

/// Per-hop neighbour cap for the common-neighbour candidate search.
/// Power-law matrices (reddit-like) have vertices with hundreds of
/// neighbours; capping bounds step II at `CAP²` work per vertex.
const TWO_HOP_CAP: usize = 64;

/// Number of approximate candidates re-scored with the exact
/// common-neighbour count each chain step.
const RESCORE: usize = 8;

/// Compute the data-affinity permutation (`perm[old] = new`).
pub fn affinity_order(m: &CsrMatrix) -> Vec<u32> {
    let g = {
        let _span = spmm_trace::span("reorder.graph_view");
        GraphView::from_csr(m)
    };
    let dendro = {
        let _span = spmm_trace::span("reorder.dendrogram");
        build_dendrogram(&g)
    };
    let _span = spmm_trace::span("reorder.chain");
    ordering_generation(&g, &dendro)
}

/// Step I: ΔQ-greedy merging in ascending degree order.
pub(crate) fn build_dendrogram(g: &GraphView) -> Dendrogram {
    let n = g.num_vertices();
    let mut ct = CommunityTracker::new(g);
    let mut dendro = Dendrogram::new(n);
    for v in g.vertices_by_ascending_degree() {
        // Find the neighbour whose community merge maximizes ΔQ.
        let mut best: Option<(f64, u32)> = None;
        for &u in g.neighbors(v) {
            if ct.same(u, v) {
                continue;
            }
            let dq = ct.delta_q(u, v, 1.0);
            if best.is_none_or(|(b, _)| dq > b) {
                best = Some((dq, u));
            }
        }
        if let Some((dq, u)) = best {
            if dq > 0.0 {
                let ru = ct.find(u);
                let rv = ct.find(v);
                dendro.record_merge(ru, rv);
                let surviving = ct.merge(u, v);
                // Keep the dendrogram's root mapping in sync with the
                // union-find's surviving representative.
                let node = dendro.node_of(ru);
                dendro.set_node_of(surviving, node);
            }
        }
    }
    dendro
}

/// Step II: DFS over dendrogram leaves with common-neighbour chaining.
pub(crate) fn ordering_generation(g: &GraphView, dendro: &Dendrogram) -> Vec<u32> {
    let n = g.num_vertices();
    let leaves = dendro.dfs_leaves();
    // DFS position of each vertex, used for tie-breaking ("according to
    // the order of DFS").
    let mut dfs_pos = vec![0u32; n];
    for (pos, &v) in leaves.iter().enumerate() {
        dfs_pos[v as usize] = pos as u32;
    }

    let mut perm = vec![u32::MAX; n];
    let mut counter = TwoHopCounter::new(g, TWO_HOP_CAP);
    // `neighbor_of[x] == v` marks x ∈ N(v) for the current chain vertex
    // v; every vertex is the chain's head exactly once, so v itself is
    // a fresh stamp and the array never needs clearing.
    let mut neighbor_of = vec![u32::MAX; n];
    let mut next_id = 0u32;

    for &start in &leaves {
        if counter.is_visited(start) {
            continue;
        }
        counter.visit(start);
        perm[start as usize] = next_id;
        next_id += 1;

        // Chain: hop to the unvisited vertex with the most common
        // neighbours until the chain dries up. Candidates come from the
        // (sampled) 2-hop neighbourhood; the top few by approximate count
        // are re-scored with the exact common-neighbour count, and ties
        // prefer the leaf closest in DFS order (staying inside the
        // current dendrogram community).
        let mut v = start;
        loop {
            let top = counter.count(g, v);
            if top.is_empty() {
                break;
            }
            keep_best(top, RESCORE);
            for &x in g.neighbors(v) {
                neighbor_of[x as usize] = v;
            }
            let pos_v = dfs_pos[v as usize];
            let mut best: Option<(usize, u32, u32)> = None; // (exact, dfs distance key)
            for &(_, u) in top.iter() {
                let exact = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&x| neighbor_of[x as usize] == v)
                    .count();
                let dist = dfs_pos[u as usize].abs_diff(pos_v);
                let better = match best {
                    None => true,
                    Some((be, bd, _)) => exact > be || (exact == be && dist < bd),
                };
                if better {
                    best = Some((exact, dist, u));
                }
            }
            let (_, _, u) = best.expect("top is non-empty");
            counter.visit(u);
            perm[u as usize] = next_id;
            next_id += 1;
            v = u;
        }
    }
    debug_assert_eq!(next_id as usize, n);
    perm
}

/// Ranking of `(approx count, vertex)` candidates: count descending,
/// then id ascending. A total order, since ids are unique.
fn by_count_then_id(a: &(u32, u32), b: &(u32, u32)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Reduce `cands` to its `keep` best entries, sorted best first.
fn keep_best(cands: &mut Vec<(u32, u32)>, keep: usize) {
    if cands.len() > keep {
        cands.select_nth_unstable_by(keep - 1, by_count_then_id);
        cands.truncate(keep);
    }
    cands.sort_unstable_by(by_count_then_id);
}

/// Slot value of a visited vertex; never a live `epoch << 32 | count`.
const VISITED: u64 = u64::MAX;

/// Step II's approximate common-neighbour counter.
///
/// Each vertex's evenly strided sample of at most `cap` neighbours is
/// drawn once into a sampled-adjacency CSR. Counts live in one dense
/// slot per vertex holding `epoch << 32 | count`: a slot from an older
/// chain step reads as zero, so the array is never cleared, and
/// [`VISITED`] retires a vertex for good. Visited vertices are dropped
/// from a sampled list in place the first time it is read after their
/// visit; the list stays ascending, and later steps read less.
struct TwoHopCounter {
    cap: usize,
    sample_ptr: Vec<usize>,
    sample_len: Vec<u32>,
    sample: Vec<u32>,
    slot: Vec<u64>,
    epoch: u32,
    /// Vertices first touched in the current step, in touch order; one
    /// entry per vertex, so `n` entries always suffice.
    touched: Vec<u32>,
    /// `(count, vertex)` for every candidate of the last step.
    candidates: Vec<(u32, u32)>,
}

impl TwoHopCounter {
    fn new(g: &GraphView, cap: usize) -> Self {
        let n = g.num_vertices();
        let mut sample_ptr = Vec::with_capacity(n + 1);
        let mut sample_len = Vec::with_capacity(n);
        let mut sample = Vec::new();
        sample_ptr.push(0);
        for w in 0..n as u32 {
            sample.extend(strided(g.neighbors(w), cap));
            sample_len.push((sample.len() - sample_ptr[w as usize]) as u32);
            sample_ptr.push(sample.len());
        }
        TwoHopCounter {
            cap,
            sample_ptr,
            sample_len,
            sample,
            slot: vec![0; n],
            epoch: 0,
            touched: vec![0; n],
            candidates: Vec::new(),
        }
    }

    fn is_visited(&self, v: u32) -> bool {
        self.slot[v as usize] == VISITED
    }

    fn visit(&mut self, v: u32) {
        self.slot[v as usize] = VISITED;
    }

    /// For every unvisited `u`, count the sampled neighbours `w` of `v`
    /// whose sample holds `u`. Returns the `(count, u)` pairs, unordered.
    fn count(&mut self, g: &GraphView, v: u32) -> &mut Vec<(u32, u32)> {
        self.epoch += 1;
        let epoch = self.epoch as u64;
        let slots = &mut self.slot[..];
        // Every candidate is written at `touched[fresh]`, which only
        // advances on a first touch: no branch on the hot path.
        let touched = &mut self.touched[..];
        let mut fresh = 0usize;
        for w in strided(g.neighbors(v), self.cap) {
            let w = w as usize;
            let start = self.sample_ptr[w];
            let list = &mut self.sample[start..start + self.sample_len[w] as usize];
            let mut kept = 0;
            for i in 0..list.len() {
                let u = list[i];
                let slot = slots[u as usize];
                if slot == VISITED {
                    continue;
                }
                list[kept] = u;
                kept += 1;
                let first = slot >> 32 != epoch;
                slots[u as usize] = if first { epoch << 32 | 1 } else { slot + 1 };
                touched[fresh] = u;
                fresh += first as usize;
            }
            self.sample_len[w] = kept as u32;
        }
        self.candidates.clear();
        self.candidates.extend(
            touched[..fresh]
                .iter()
                .map(|&u| (slots[u as usize] as u32, u)),
        );
        &mut self.candidates
    }
}

/// Evenly-strided deterministic sample of up to `cap` elements, so a
/// high-degree vertex contributes an unbiased slice of its sorted
/// neighbour list rather than only the lowest ids.
fn strided(xs: &[u32], cap: usize) -> impl Iterator<Item = u32> + '_ {
    let step = xs.len().div_ceil(cap.max(1)).max(1);
    xs.iter().step_by(step).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mean_nnz_tc;
    use proptest::prelude::*;
    use rustc_hash::FxHashMap;
    use spmm_common::util::is_permutation;
    use spmm_matrix::gen::{
        banded, clustered, molecule_union, rmat, road_network, uniform_random, ClusteredConfig,
        RmatConfig,
    };
    use spmm_matrix::{CooMatrix, CsrMatrix};

    /// Reference two-hop count: a fresh hash map of `(candidate, approx
    /// count)` over the capped samples, visited vertices included.
    fn two_hop_counts_oracle(g: &GraphView, v: u32, cap: usize) -> FxHashMap<u32, u32> {
        let mut counts = FxHashMap::default();
        for w in strided(g.neighbors(v), cap) {
            for u in strided(g.neighbors(w), cap) {
                if u != v {
                    *counts.entry(u).or_insert(0u32) += 1;
                }
            }
        }
        counts
    }

    /// Reference step II: hash-map counts, a full sort of every
    /// unvisited candidate, sorted-merge rescoring.
    fn ordering_generation_oracle(g: &GraphView, dendro: &Dendrogram) -> Vec<u32> {
        let n = g.num_vertices();
        let leaves = dendro.dfs_leaves();
        let mut dfs_pos = vec![0u32; n];
        for (pos, &v) in leaves.iter().enumerate() {
            dfs_pos[v as usize] = pos as u32;
        }
        let mut perm = vec![u32::MAX; n];
        let mut visited = vec![false; n];
        let mut next_id = 0u32;
        for &start in &leaves {
            if visited[start as usize] {
                continue;
            }
            visited[start as usize] = true;
            perm[start as usize] = next_id;
            next_id += 1;
            let mut v = start;
            loop {
                let counts = two_hop_counts_oracle(g, v, TWO_HOP_CAP);
                let mut top: Vec<(u32, u32)> = counts
                    .iter()
                    .filter(|&(&u, _)| !visited[u as usize])
                    .map(|(&u, &c)| (c, u))
                    .collect();
                if top.is_empty() {
                    break;
                }
                top.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                top.truncate(RESCORE);
                let pos_v = dfs_pos[v as usize];
                let mut best: Option<(usize, u32, u32)> = None;
                for &(_, u) in top.iter() {
                    let exact = g.common_neighbors(v, u);
                    let dist = dfs_pos[u as usize].abs_diff(pos_v);
                    let better = match best {
                        None => true,
                        Some((be, bd, _)) => exact > be || (exact == be && dist < bd),
                    };
                    if better {
                        best = Some((exact, dist, u));
                    }
                }
                let (_, _, u) = best.expect("top is non-empty");
                visited[u as usize] = true;
                perm[u as usize] = next_id;
                next_id += 1;
                v = u;
            }
        }
        perm
    }

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> GraphView {
        let mut coo = CooMatrix::new(n, n);
        for &(a, b) in edges {
            coo.push(a, b, 1.0);
        }
        GraphView::from_csr(&CsrMatrix::from_coo(&coo))
    }

    /// One small square matrix from generator family `family % 6`.
    fn square_family(family: u64, n: usize, deg: f64, seed: u64) -> CsrMatrix {
        match family % 6 {
            0 => banded(n, 1 + deg as usize, 0.7, seed),
            1 => clustered(
                ClusteredConfig {
                    n,
                    cluster_size: 32 + (seed % 64) as usize,
                    intra_deg: deg,
                    inter_deg: 1.0 + deg / 16.0,
                    hub_fraction: 0.03,
                    hub_factor: 6.0,
                    degree_spread: 1.0,
                    ..ClusteredConfig::default()
                },
                seed,
            ),
            2 => molecule_union(n, 4, 12, true, seed),
            3 => rmat(
                RmatConfig {
                    scale: 7 + (n > 256) as u32,
                    avg_deg: deg,
                    ..RmatConfig::default()
                },
                seed,
            ),
            4 => road_network(n.max(16), seed),
            _ => uniform_random(n, deg, seed),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        #[test]
        fn step_two_matches_hash_map_oracle(
            family in 0u64..6,
            n in 64usize..480,
            deg in 2.0f64..96.0,
            seed in 0u64..1u64 << 32,
        ) {
            let m = square_family(family, n, deg, seed);
            let g = GraphView::from_csr(&m);
            let dendro = build_dendrogram(&g);
            prop_assert_eq!(
                ordering_generation(&g, &dendro),
                ordering_generation_oracle(&g, &dendro),
                "family {} n {} deg {} seed {}", family, n, deg, seed
            );
        }
    }

    #[test]
    fn two_hop_counts_match_exact() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
        let mut counter = TwoHopCounter::new(&g, 64);
        counter.visit(1);
        let counts = counter.count(&g, 1).clone();
        // Cap ≥ every degree: the sampled count is the exact one.
        for &(c, u) in &counts {
            assert_eq!(c as usize, g.common_neighbors(1, u), "u={u}");
        }
        // Vertex 3 shares neighbour 2 with vertex 1.
        assert!(counts.contains(&(1, 3)));
        // The oracle agrees on every unvisited candidate.
        let mut oracle: Vec<(u32, u32)> = two_hop_counts_oracle(&g, 1, 64)
            .into_iter()
            .map(|(u, c)| (c, u))
            .collect();
        let mut ours = counts;
        oracle.sort_unstable();
        ours.sort_unstable();
        assert_eq!(ours, oracle);
    }

    #[test]
    fn two_hop_cap_bounds_work() {
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut counter = TwoHopCounter::new(&g, 1);
        counter.visit(1);
        // cap=1 explores only neighbour 0 and its first neighbour, which
        // is 1 itself; nothing else is reachable.
        assert!(counter.count(&g, 1).len() <= 1);
    }

    #[test]
    fn visited_vertices_leave_the_samples() {
        // Star around 0: every leaf reaches the others through 0.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut counter = TwoHopCounter::new(&g, 64);
        counter.visit(1);
        counter.visit(3);
        let mut counts = counter.count(&g, 1).clone();
        counts.sort_unstable();
        assert_eq!(counts, vec![(1, 2), (1, 4)]);
        // 0's sample was compacted in place and kept ascending.
        assert_eq!(counter.sample_len[0], 2);
        let s = counter.sample_ptr[0];
        assert_eq!(&counter.sample[s..s + 2], &[2, 4]);
    }

    #[test]
    fn keep_best_matches_full_sort() {
        let cands: Vec<(u32, u32)> = (0..40u32).map(|u| ((u * 7) % 5, 100 - u)).collect();
        let mut full = cands.clone();
        full.sort_unstable_by(by_count_then_id);
        full.truncate(RESCORE);
        let mut kept = cands;
        keep_best(&mut kept, RESCORE);
        assert_eq!(kept, full);
    }

    #[test]
    fn produces_valid_permutation() {
        let m = uniform_random(256, 6.0, 1);
        let perm = affinity_order(&m);
        assert!(is_permutation(&perm));
    }

    #[test]
    fn paper_figure2_example_groups_communities() {
        // The Figure 2 graph: 8 vertices, two natural communities
        // {0,2,4,5,7} (around hub 0) and {1,3,6}.
        let edges = [
            (0u32, 2u32),
            (0, 4),
            (0, 5),
            (0, 7),
            (2, 5),
            (4, 7),
            (1, 3),
            (1, 6),
            (3, 6),
        ];
        let mut coo = CooMatrix::new(8, 8);
        for &(a, b) in &edges {
            coo.push(a, b, 1.0);
        }
        let m = CsrMatrix::from_coo(&coo);
        let perm = affinity_order(&m);
        assert!(is_permutation(&perm));
        // Community {1,3,6} must be contiguous in the new order.
        let mut ids: Vec<u32> = [1usize, 3, 6].iter().map(|&v| perm[v]).collect();
        ids.sort_unstable();
        assert_eq!(
            ids[2] - ids[0],
            2,
            "community {{1,3,6}} stays together: {ids:?}"
        );
        // And so must the other community.
        let mut ids: Vec<u32> = [0usize, 2, 4, 5, 7].iter().map(|&v| perm[v]).collect();
        ids.sort_unstable();
        assert_eq!(
            ids[4] - ids[0],
            4,
            "community around 0 stays together: {ids:?}"
        );
    }

    #[test]
    fn improves_mean_nnz_tc_on_shuffled_molecules() {
        let m = molecule_union(2048, 8, 20, true, 5);
        let before = mean_nnz_tc(&m, 8);
        let perm = affinity_order(&m);
        let pm = m.permute_rows(&perm).unwrap();
        let after = mean_nnz_tc(&pm, 8);
        // Chain molecules with ~2 nnz/row cap out near 8 nnz/block (rows
        // of a chain share almost no columns); 1.2x is a solid gain here.
        assert!(
            after > before * 1.2,
            "reordering should densify TC blocks: {before} -> {after}"
        );
    }

    #[test]
    fn handles_empty_and_diagonal_matrices() {
        let empty = CsrMatrix::from_coo(&CooMatrix::new(16, 16));
        let perm = affinity_order(&empty);
        assert!(is_permutation(&perm));

        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        let diag = CsrMatrix::from_coo(&coo);
        assert!(is_permutation(&affinity_order(&diag)));
    }
}
