//! Reachability closure over arbitrary adjacency lists.
//!
//! Both Condition 1 (paths in the extended CFG `Ĝ`) and Algorithm 3.2
//! (`"no path from C_i^A to a"`) are reachability questions over graphs
//! that are *not* plain CFGs (they include message edges, or exclude
//! backward edges). This module therefore works on raw adjacency lists —
//! [`crate::graph::Cfg`] and the extended CFG both lower to that — with a
//! bitset transitive closure.
//!
//! [`Reach::compute`] condenses the graph into strongly connected
//! components (Tarjan, iterative) and fills one bitset row **per SCC**
//! in a single reverse-topological pass: each SCC row is the OR of its
//! successor SCCs' rows plus the successors' members. Nodes of the same
//! SCC share a row, so the work drops from one BFS per node
//! (`O(V·(V+E))`) to `O(V + E + S²·V/64)` word operations for `S` SCCs —
//! on loop-heavy CFGs, where many nodes collapse into few SCCs, this is
//! the difference that makes closure (re)computation disappear from the
//! Phase-III profile. The old per-node BFS survives in
//! `tests/proptest_graphs.rs` as the oracle for the equivalence
//! property test.

/// A dense reachability matrix: `reachable(a, b)` means there is a path
/// of length ≥ 1 from `a` to `b`.
#[derive(Debug, Clone)]
pub struct Reach {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

/// Tarjan's SCC algorithm, iterative (explicit DFS frames so deep CFGs
/// cannot overflow the call stack). Returns `(comp, comps)` where
/// `comp[v]` is the component id of node `v` and `comps` lists each
/// component's members in **emission order**: a component is emitted
/// only after every component reachable from it, i.e. the list is a
/// reverse topological order of the condensation.
fn tarjan_scc(succs: &[Vec<usize>]) -> (Vec<usize>, Vec<Vec<usize>>) {
    const UNVISITED: usize = usize::MAX;
    let n = succs.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    // DFS frames: (node, next child position in succs[node]).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        on_stack[root] = true;
        stack.push(root);
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if let Some(&w) = succs[v].get(*child) {
                *child += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    on_stack[w] = true;
                    stack.push(w);
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // v is the root of an SCC: pop it off the Tarjan stack.
                    let id = comps.len();
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w] = false;
                        comp[w] = id;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(members);
                }
            }
        }
    }
    (comp, comps)
}

impl Reach {
    /// Computes the closure of the graph given as adjacency lists
    /// (`succs[i]` = successors of node `i`) via SCC condensation: one
    /// bitset row per component, filled in reverse topological order by
    /// OR-ing successor-component rows.
    pub fn compute(succs: &[Vec<usize>]) -> Reach {
        acfc_obs::count("cfg/reach/computes", 1);
        let n = succs.len();
        let words = n.div_ceil(64);
        acfc_obs::count("cfg/reach/nodes", n as u64);
        if n == 0 {
            return Reach {
                n,
                words,
                rows: Vec::new(),
            };
        }
        let (comp, comps) = tarjan_scc(succs);
        let s = comps.len();
        let mut scc_rows = vec![0u64; s * words];
        // Tarjan emission order is reverse-topological: by the time
        // component `c` is processed, every component it can reach
        // already has its final row.
        for (c, members) in comps.iter().enumerate() {
            // A node reaches itself iff it lies on a cycle: the SCC is
            // non-trivial, or it has a self-loop.
            let cyclic = members.len() > 1 || succs[members[0]].iter().any(|&t| t == members[0]);
            if cyclic {
                for &m in members {
                    scc_rows[c * words + m / 64] |= 1u64 << (m % 64);
                }
            }
            for &v in members {
                for &w in &succs[v] {
                    let d = comp[w];
                    if d == c {
                        continue;
                    }
                    debug_assert!(d < c, "successor SCC emitted after its predecessor");
                    scc_rows[c * words + w / 64] |= 1u64 << (w % 64);
                    let (head, tail) = scc_rows.split_at_mut(c * words);
                    let dst = &mut tail[..words];
                    let src = &head[d * words..d * words + words];
                    for k in 0..words {
                        dst[k] |= src[k];
                    }
                }
            }
        }
        // Every node shares its component's row.
        let mut rows = vec![0u64; n * words];
        for (v, row) in rows.chunks_exact_mut(words).enumerate() {
            row.copy_from_slice(&scc_rows[comp[v] * words..comp[v] * words + words]);
        }
        Reach { n, words, rows }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of `u64` words per row (for sizing scratch buffers that
    /// OR rows together).
    pub fn row_words(&self) -> usize {
        self.words
    }

    /// `true` iff a path of length ≥ 1 exists from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn reachable(&self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "node out of range");
        self.rows[a * self.words + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// `true` iff `a == b` or `a` reaches `b`.
    pub fn reachable_or_eq(&self, a: usize, b: usize) -> bool {
        a == b || self.reachable(a, b)
    }

    /// The bitset row of everything reachable from `a` (bit `b` of word
    /// `b / 64`). Lets callers OR whole rows — e.g. the Condition-1
    /// message-reach precomputation — instead of probing per bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn row(&self, a: usize) -> &[u64] {
        assert!(a < self.n, "node out of range");
        &self.rows[a * self.words..(a + 1) * self.words]
    }

    /// All nodes reachable from `a` (ascending).
    pub fn reachable_set(&self, a: usize) -> Vec<usize> {
        (0..self.n).filter(|&b| self.reachable(a, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_reachability() {
        let succs = vec![vec![1], vec![2], vec![]];
        let r = Reach::compute(&succs);
        assert!(r.reachable(0, 1));
        assert!(r.reachable(0, 2));
        assert!(r.reachable(1, 2));
        assert!(!r.reachable(2, 0));
        assert!(!r.reachable(0, 0));
        assert!(r.reachable_or_eq(0, 0));
    }

    #[test]
    fn cycle_reaches_itself() {
        let succs = vec![vec![1], vec![0]];
        let r = Reach::compute(&succs);
        assert!(r.reachable(0, 0));
        assert!(r.reachable(1, 1));
    }

    #[test]
    fn self_loop() {
        let succs = vec![vec![0]];
        let r = Reach::compute(&succs);
        assert!(r.reachable(0, 0));
    }

    #[test]
    fn node_without_self_loop_does_not_reach_itself() {
        // 0 → 1 ⇄ 2: node 0 is acyclic even though it reaches a cycle.
        let succs = vec![vec![1], vec![2], vec![1]];
        let r = Reach::compute(&succs);
        assert!(!r.reachable(0, 0));
        assert!(r.reachable(1, 1));
        assert!(r.reachable(2, 2));
        assert_eq!(r.reachable_set(0), vec![1, 2]);
    }

    #[test]
    fn disconnected_components() {
        let succs = vec![vec![1], vec![], vec![3], vec![]];
        let r = Reach::compute(&succs);
        assert!(r.reachable(0, 1));
        assert!(r.reachable(2, 3));
        assert!(!r.reachable(0, 3));
        assert!(!r.reachable(2, 1));
        assert_eq!(r.reachable_set(0), vec![1]);
    }

    #[test]
    fn empty_graph() {
        let r = Reach::compute(&[]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn row_matches_reachable_set() {
        let succs = vec![vec![1, 2], vec![2], vec![0], vec![]];
        let r = Reach::compute(&succs);
        for a in 0..4 {
            let row = r.row(a);
            assert_eq!(row.len(), r.row_words());
            let from_row: Vec<usize> = (0..4)
                .filter(|&b| row[b / 64] & (1u64 << (b % 64)) != 0)
                .collect();
            assert_eq!(from_row, r.reachable_set(a));
        }
    }

    #[test]
    fn large_graph_crosses_word_boundary() {
        // 130 nodes in a chain crosses two u64 words.
        let n = 130;
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let r = Reach::compute(&succs);
        assert!(r.reachable(0, 129));
        assert!(r.reachable(64, 65));
        assert!(!r.reachable(129, 0));
    }

    #[test]
    fn deep_graph_does_not_overflow_the_stack() {
        // A 20k-node cycle: recursion-based Tarjan would blow the
        // (default 8 MiB) call stack here; the iterative one must not.
        let n = 20_000;
        let succs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
        let r = Reach::compute(&succs);
        assert!(r.reachable(0, 0));
        assert!(r.reachable(n - 1, 12345));
    }

    #[test]
    fn matches_floyd_warshall_on_random_graphs() {
        // Deterministic pseudo-random graphs via a simple LCG.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..20 {
            let n = 3 + (next() % 12) as usize;
            let mut succs = vec![Vec::new(); n];
            #[allow(clippy::needless_range_loop)]
            for a in 0..n {
                for b in 0..n {
                    if next() % 4 == 0 {
                        succs[a].push(b);
                    }
                }
            }
            let r = Reach::compute(&succs);
            // Floyd–Warshall oracle.
            let mut m = vec![vec![false; n]; n];
            for (a, row) in succs.iter().enumerate() {
                for &b in row {
                    m[a][b] = true;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        m[i][j] = m[i][j] || (m[i][k] && m[k][j]);
                    }
                }
            }
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(r.reachable(i, j), m[i][j], "({i},{j}) n={n}");
                }
            }
        }
    }
}
