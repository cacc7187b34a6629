//! Path finding over adjacency lists.
//!
//! Used for diagnostics (showing *which* path violates Condition 1) and
//! by Algorithm 3.2 (checking path existence under edge filters, e.g.
//! "ignoring backward edges").

use std::collections::VecDeque;

/// Finds a shortest path of length ≥ 1 from `from` to `to` in the graph
/// given by `succs`, visiting only edges for which `edge_ok(a, b)` holds.
/// Returns the node sequence `[from, …, to]`, or `None`.
///
/// `from == to` asks for a non-trivial cycle through `from`.
pub fn find_path(
    succs: &[Vec<usize>],
    from: usize,
    to: usize,
    edge_ok: &dyn Fn(usize, usize) -> bool,
) -> Option<Vec<usize>> {
    let n = succs.len();
    assert!(from < n && to < n, "node out of range");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    // Seed with from's successors so that a path has length ≥ 1 and
    // from == to finds real cycles.
    for &s in &succs[from] {
        if edge_ok(from, s) && !seen[s] {
            seen[s] = true;
            parent[s] = Some(from);
            queue.push_back(s);
        }
    }
    if !seen[to] || to != from {
        while let Some(x) = queue.pop_front() {
            if x == to {
                break;
            }
            for &s in &succs[x] {
                if edge_ok(x, s) && !seen[s] {
                    seen[s] = true;
                    parent[s] = Some(x);
                    queue.push_back(s);
                }
            }
        }
    }
    if !seen[to] {
        return None;
    }
    // Reconstruct.
    let mut path = vec![to];
    let mut cur = to;
    loop {
        let p = parent[cur].expect("seen node has parent");
        path.push(p);
        if p == from && path.len() >= 2 {
            break;
        }
        cur = p;
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any(_: usize, _: usize) -> bool {
        true
    }

    #[test]
    fn finds_shortest_path() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 -> 4
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![4], vec![]];
        let p = find_path(&succs, 0, 4, &any).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&4));
        assert_eq!(p.len(), 4); // shortest: 0-1-3-4 or 0-2-3-4
    }

    #[test]
    fn no_path_returns_none() {
        let succs = vec![vec![], vec![0]];
        assert!(find_path(&succs, 0, 1, &any).is_none());
    }

    #[test]
    fn cycle_through_self() {
        let succs = vec![vec![1], vec![0]];
        let p = find_path(&succs, 0, 0, &any).unwrap();
        assert_eq!(p, vec![0, 1, 0]);
    }

    #[test]
    fn self_loop_found() {
        let succs = vec![vec![0]];
        assert_eq!(find_path(&succs, 0, 0, &any).unwrap(), vec![0, 0]);
    }

    #[test]
    fn edge_filter_blocks_paths() {
        let succs = vec![vec![1], vec![2], vec![]];
        // Block the 1 -> 2 edge.
        let p = find_path(&succs, 0, 2, &|a, b| !(a == 1 && b == 2));
        assert!(p.is_none());
        assert!(find_path(&succs, 0, 1, &|a, b| !(a == 1 && b == 2)).is_some());
    }

    #[test]
    fn zero_length_is_never_a_path() {
        let succs = vec![vec![1], vec![]];
        // from == to with no cycle: none.
        assert!(find_path(&succs, 1, 1, &any).is_none());
    }
}
