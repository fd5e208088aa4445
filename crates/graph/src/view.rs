//! Undirected graph view over a sparse matrix.

use spmm_matrix::CsrMatrix;

/// An undirected, unweighted graph built from the symmetrized pattern of a
/// sparse matrix (self-loops dropped), as the paper constructs it: "the
/// graph is constructed by using a sparse matrix as the adjacency matrix
/// ... if there is a nnz in the matrix, the weight between the
/// corresponding nodes is typically set to 1".
#[derive(Debug, Clone)]
pub struct GraphView {
    adj_ptr: Vec<usize>,
    adj: Vec<u32>,
    edges: u64,
}

impl GraphView {
    /// Build from a square sparse matrix: pattern of `A ∪ Aᵀ` minus the
    /// diagonal, neighbour lists sorted ascending.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        assert_eq!(m.nrows(), m.ncols(), "graph view requires a square matrix");
        let n = m.nrows();
        let t = m.transpose();
        let mut adj_ptr = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(m.nnz());
        adj_ptr.push(0usize);
        for v in 0..n {
            let (a, _) = m.row(v);
            let (b, _) = t.row(v);
            // Sorted-merge union of the row and column patterns.
            let (mut i, mut j) = (0usize, 0usize);
            let start = adj.len();
            while i < a.len() || j < b.len() {
                let next = match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) => {
                        if x <= y {
                            if x == y {
                                j += 1;
                            }
                            i += 1;
                            x
                        } else {
                            j += 1;
                            y
                        }
                    }
                    (Some(&x), None) => {
                        i += 1;
                        x
                    }
                    (None, Some(&y)) => {
                        j += 1;
                        y
                    }
                    (None, None) => unreachable!(),
                };
                if next as usize != v {
                    adj.push(next);
                }
            }
            debug_assert!(adj[start..].windows(2).all(|w| w[0] < w[1]));
            adj_ptr.push(adj.len());
        }
        let edges = adj.len() as u64 / 2;
        GraphView {
            adj_ptr,
            adj,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj_ptr.len() - 1
    }

    /// Number of undirected edges (`m` in the modularity formula).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// Sorted neighbour list of `v` (self excluded).
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.adj_ptr[v as usize]..self.adj_ptr[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.adj_ptr[v as usize + 1] - self.adj_ptr[v as usize]
    }

    /// Vertices sorted by ascending degree (ties by id) — the visit order
    /// of Algorithm 1's dendrogram construction.
    pub fn vertices_by_ascending_degree(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = (0..self.num_vertices() as u32).collect();
        vs.sort_by_key(|&v| (self.degree(v), v));
        vs
    }

    /// Exact common-neighbour count via sorted-merge intersection.
    pub fn common_neighbors(&self, u: u32, v: u32) -> usize {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_matrix::CooMatrix;

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> GraphView {
        let mut coo = CooMatrix::new(n, n);
        for &(a, b) in edges {
            coo.push(a, b, 1.0);
        }
        GraphView::from_csr(&CsrMatrix::from_coo(&coo))
    }

    #[test]
    fn symmetrizes_and_drops_self_loops() {
        // Directed edges 0->1, 1->2, self loop 2->2.
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 2)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1], "self loop dropped");
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn already_symmetric_not_doubled() {
        let g = graph_from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn degree_ordering() {
        // Star: 0 is the hub.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let order = g.vertices_by_ascending_degree();
        assert_eq!(*order.last().unwrap(), 0);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn common_neighbors_exact() {
        // Square 0-1-2-3-0 plus diagonal 0-2.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(g.common_neighbors(1, 3), 2, "both adjacent to 0 and 2");
        assert_eq!(g.common_neighbors(0, 2), 2, "1 and 3");
        assert_eq!(g.common_neighbors(0, 1), 1, "only 2");
    }
}
