//! The rollback-dependency graph and maximal consistent recovery lines.
//!
//! For *uncoordinated* checkpointing, nothing guarantees that the latest
//! checkpoints form a recovery line; recovery must search backwards.
//! The standard machinery (Elnozahy et al., survey \[10\] of the paper) is
//! the **rollback-dependency graph**: a message sent in interval
//! `I_{p,i}` and received in interval `I_{q,j}` makes checkpoint `C_q,j`
//! depend on `C_p,i`'s successor — rolling `p` back past the send forces
//! `q` back past the receive. Iterating this *rollback propagation* to a
//! fixpoint yields the **maximal consistent global checkpoint**; when it
//! cascades all the way to the initial states, that is the *domino
//! effect* the paper's introduction warns about.

use acfc_sim::{MessageRecord, RecoveryView, Trace};

/// Per-process interval structure extracted from a trace: the sorted
/// event steps of each live checkpoint.
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    /// `ckpt_steps[p]` = event-step of each live checkpoint of `p`, in
    /// sequence order (index 0 ↔ `seq` 1).
    pub ckpt_steps: Vec<Vec<u64>>,
}

impl IntervalIndex {
    /// Builds the index from a trace's live checkpoints.
    pub fn from_trace(trace: &Trace) -> IntervalIndex {
        IntervalIndex {
            ckpt_steps: (0..trace.nprocs)
                .map(|p| trace.live_checkpoints(p).iter().map(|c| c.step).collect())
                .collect(),
        }
    }

    /// Builds the index from an engine [`RecoveryView`].
    pub fn from_view(view: &RecoveryView<'_>) -> IntervalIndex {
        IntervalIndex {
            ckpt_steps: view
                .live
                .iter()
                .map(|v| v.iter().map(|c| c.step).collect())
                .collect(),
        }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.ckpt_steps.len()
    }

    /// Number of live checkpoints of `p`.
    pub fn count(&self, p: usize) -> u64 {
        self.ckpt_steps[p].len() as u64
    }

    /// How many of `p`'s checkpoints precede the event with step
    /// `step` — i.e. the index of the interval the event belongs to
    /// (`0` = before the first checkpoint).
    pub fn interval_of(&self, p: usize, step: u64) -> u64 {
        // Steps are strictly increasing; count the checkpoints whose
        // step is smaller than the event's.
        self.ckpt_steps[p].partition_point(|&s| s < step) as u64
    }
}

/// Computes the maximal consistent global checkpoint by rollback
/// propagation: start from the latest checkpoints and, while some
/// message is an *orphan* with respect to the cut (sent after the
/// sender's cut checkpoint, received before the receiver's), move the
/// receiver's cut back before the receive. Returns, per process, the
/// number of checkpoints to keep (`0` = roll back to the initial
/// state).
///
/// The iteration is monotonically decreasing and therefore terminates;
/// the result is the unique maximal consistent cut (standard result for
/// rollback-dependency graphs).
pub fn max_consistent_line<'m>(
    index: &IntervalIndex,
    messages: impl Iterator<Item = &'m MessageRecord> + Clone,
) -> Vec<u64> {
    let start = (0..index.nprocs()).map(|p| index.count(p)).collect();
    max_consistent_line_from(index, messages, start)
}

/// Rollback propagation from an arbitrary starting cut: returns the
/// maximal consistent cut dominated by `start` (consistent cuts are
/// closed under join, so this is unique).
pub fn max_consistent_line_from<'m>(
    index: &IntervalIndex,
    messages: impl Iterator<Item = &'m MessageRecord> + Clone,
    start: Vec<u64>,
) -> Vec<u64> {
    let mut cut = start;
    loop {
        let mut changed = false;
        for m in messages.clone() {
            if m.rolled_back {
                continue;
            }
            let Some(recv_step) = m.recv_step else {
                continue;
            };
            let send_int = index.interval_of(m.from, m.send_step);
            let recv_int = index.interval_of(m.to, recv_step);
            // Orphan w.r.t. the current cut: sent after the sender's cut
            // checkpoint, received before the receiver's.
            if send_int >= cut[m.from] && recv_int < cut[m.to] {
                cut[m.to] = recv_int;
                changed = true;
            }
        }
        if !changed {
            return cut;
        }
    }
}

/// Convenience wrapper over a finished trace.
pub fn max_consistent_line_of(trace: &Trace) -> Vec<u64> {
    let index = IntervalIndex::from_trace(trace);
    max_consistent_line(&index, trace.messages.iter())
}

/// A [`CutPicker`](acfc_sim::CutPicker) that restores the maximal consistent line over the
/// live checkpoints, by rollback propagation. Coincides with
/// latest-per-process whenever the latest checkpoints already form a
/// recovery line (a tight coordinated wave), and backs off the minimal
/// amount when they do not — so a protocol using it never restores an
/// orphaning line, whatever its checkpoint schedule.
pub fn max_consistent_picker() -> acfc_sim::CutPicker {
    acfc_sim::CutPicker::Custom(Box::new(|view| {
        let index = IntervalIndex::from_view(view);
        let line = max_consistent_line(&index, view.messages.iter());
        line.into_iter()
            .map(|keep| if keep == 0 { None } else { Some(keep) })
            .collect()
    }))
}

/// Useless checkpoints of a finished trace — the Z-cycle checker.
///
/// A checkpoint is **useful** iff it belongs to *some* consistent
/// global checkpoint, and by the Netzer–Xu theorem it is useful iff no
/// *zigzag cycle* passes through it. Zigzag paths are exactly paths in
/// the **interval graph**: one node per checkpoint interval `(p, k)`
/// (`k = 0` is `p`'s initial interval), an edge from each interval to
/// the process's next, and an edge `(from, send-interval) → (to,
/// recv-interval)` per live delivered message — the latter is what
/// encodes the zigzag liberty of leaving an interval *before* the
/// message that entered it arrived. A Z-cycle through `C_{p,i}` is a
/// path from `(p, i)` back to `(p, i-1)`, i.e. the two nodes sit in
/// one strongly connected component.
///
/// Returns `(process, i)` pairs in cut coordinates (`i` = 1-based
/// position among the process's live checkpoints), empty iff the trace
/// is Z-cycle-free. CIC protocols exist to make this always empty;
/// `domino`-shaped placements are the classic counterexample.
pub fn useless_checkpoints(trace: &Trace) -> Vec<(usize, u64)> {
    let index = IntervalIndex::from_trace(trace);
    useless_checkpoints_in(&index, trace.messages.iter())
}

/// [`useless_checkpoints`] over an explicit interval structure and
/// message set.
pub fn useless_checkpoints_in<'m>(
    index: &IntervalIndex,
    messages: impl Iterator<Item = &'m MessageRecord>,
) -> Vec<(usize, u64)> {
    let nprocs = index.nprocs();
    // Node (p, k) lives at offsets[p] + k, k in 0..=count(p).
    let mut offsets = Vec::with_capacity(nprocs);
    let mut total = 0usize;
    for p in 0..nprocs {
        offsets.push(total);
        total += index.count(p) as usize + 1;
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); total];
    for p in 0..nprocs {
        for k in 0..index.count(p) as usize {
            adj[offsets[p] + k].push((offsets[p] + k + 1) as u32);
        }
    }
    for m in messages {
        if m.rolled_back {
            continue;
        }
        let Some(recv_step) = m.recv_step else {
            continue;
        };
        let send_int = index.interval_of(m.from, m.send_step) as usize;
        let recv_int = index.interval_of(m.to, recv_step) as usize;
        adj[offsets[m.from] + send_int].push((offsets[m.to] + recv_int) as u32);
    }
    let comp = sccs(&adj);
    let mut useless = Vec::new();
    for p in 0..nprocs {
        for i in 1..=index.count(p) as usize {
            if comp[offsets[p] + i] == comp[offsets[p] + i - 1] {
                useless.push((p, i as u64));
            }
        }
    }
    useless
}

/// Independent oracle for [`useless_checkpoints`]: `C_{p,i}` is useful
/// iff rollback propagation from the cut that pins `p` at `i` (and
/// everyone else at the *virtual* checkpoint `count + 1`, their
/// volatile end-of-run state — the convention under which Netzer–Xu
/// holds, so a send after the last recorded checkpoint is not
/// spuriously orphaned) terminates without pushing `p` below `i` —
/// consistent cuts are closed under join, so if any consistent cut
/// contains the checkpoint, the maximal one dominated by that start
/// does too. The checker and this oracle reach the same verdicts
/// through disjoint machinery (SCCs vs. the orphan fixpoint); the
/// property suite holds them against each other.
pub fn useful_by_rollback<'m>(
    index: &IntervalIndex,
    messages: impl Iterator<Item = &'m MessageRecord> + Clone,
    p: usize,
    i: u64,
) -> bool {
    let mut start: Vec<u64> = (0..index.nprocs()).map(|q| index.count(q) + 1).collect();
    start[p] = i;
    max_consistent_line_from(index, messages, start)[p] == i
}

/// Iterative Tarjan: strongly connected component id per node.
fn sccs(adj: &[Vec<u32>]) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    let n = adj.len();
    let mut comp = vec![UNSEEN; n];
    let mut order = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<(u32, u32)> = Vec::new(); // (node, next child)
    let mut next_order = 0u32;
    let mut ncomp = 0u32;
    for root in 0..n {
        if order[root] != UNSEEN {
            continue;
        }
        frames.push((root as u32, 0));
        while let Some(frame) = frames.last_mut() {
            let (v, child) = *frame;
            let vu = v as usize;
            if child == 0 {
                order[vu] = next_order;
                low[vu] = next_order;
                next_order += 1;
                stack.push(v);
                on_stack[vu] = true;
            }
            if (child as usize) < adj[vu].len() {
                frame.1 += 1;
                let w = adj[vu][child as usize];
                let wu = w as usize;
                if order[wu] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(order[wu]);
                }
            } else {
                frames.pop();
                if low[vu] == order[vu] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
                if let Some(&mut (u, _)) = frames.last_mut() {
                    let uu = u as usize;
                    low[uu] = low[uu].min(low[vu]);
                }
            }
        }
    }
    comp
}

/// Rollback depth per process implied by the maximal consistent line:
/// how many of its checkpoints each process must discard. A depth that
/// reaches the checkpoint count means full restart — the domino effect.
pub fn rollback_depths(trace: &Trace) -> Vec<u64> {
    let line = max_consistent_line_of(trace);
    (0..trace.nprocs)
        .map(|p| trace.live_checkpoints(p).len() as u64 - line[p])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acfc_mpsl::parse;
    use acfc_sim::{compile, run, run_with_hooks, SimConfig, TimerCheckpoints};

    #[test]
    fn interval_of_counts_preceding_checkpoints() {
        let idx = IntervalIndex {
            ckpt_steps: vec![vec![3, 7, 12]],
        };
        assert_eq!(idx.interval_of(0, 1), 0);
        assert_eq!(idx.interval_of(0, 4), 1);
        // The checkpoint's own step does not count as "before" itself
        // (messages never share steps with checkpoints, so this is a
        // convention, pinned here).
        assert_eq!(idx.interval_of(0, 7), 1);
        assert_eq!(idx.interval_of(0, 8), 2);
        assert_eq!(idx.interval_of(0, 13), 3);
        assert_eq!(idx.count(0), 3);
    }

    #[test]
    fn consistent_latest_checkpoints_survive() {
        // Uniform Jacobi: aligned checkpoints, no orphans at the latest
        // cut — the maximal line is the full set.
        let p = acfc_mpsl::programs::jacobi(4);
        let t = run(&compile(&p), &SimConfig::new(4));
        assert!(t.completed());
        let line = max_consistent_line_of(&t);
        assert_eq!(line, vec![4, 4, 4, 4]);
        assert_eq!(rollback_depths(&t), vec![0, 0, 0, 0]);
    }

    #[test]
    fn skewed_checkpoints_force_rollback() {
        // Ping-pong with skewed placement: rank 0 checkpoints between
        // send and recv, producing orphans at the latest cut.
        let p = acfc_mpsl::programs::pingpong_skewed(4);
        let t = run(&compile(&p), &SimConfig::new(2));
        assert!(t.completed());
        let depths = rollback_depths(&t);
        assert!(
            depths.iter().any(|&d| d > 0),
            "expected some rollback: {depths:?}"
        );
        // The line itself must be consistent: re-check by definition.
        let line = max_consistent_line_of(&t);
        let idx = IntervalIndex::from_trace(&t);
        for m in t.live_messages() {
            if let Some(rs) = m.recv_step {
                let orphan = idx.interval_of(m.from, m.send_step) >= line[m.from]
                    && idx.interval_of(m.to, rs) < line[m.to];
                assert!(!orphan, "line not consistent");
            }
        }
    }

    #[test]
    fn domino_effect_cascades_to_start() {
        // The classic zigzag: rank 0 checkpoints before each
        // request/reply exchange, rank 1 in the middle of it. Every
        // straight cut has an orphan request, and every staggered cut
        // an orphan reply: rollback propagation cascades all the way.
        let p = parse(
            "program domino; var i;
             for i in 0..6 {
               if rank == 0 {
                 checkpoint;
                 send to 1 size 64;
                 recv from 1;
               } else {
                 if rank == 1 {
                   recv from 0;
                   checkpoint;
                   send to 0 size 64;
                 }
               }
             }",
        )
        .unwrap();
        let t = run(&compile(&p), &SimConfig::new(2));
        assert!(t.completed());
        let line = max_consistent_line_of(&t);
        assert_eq!(line[1], 0, "line: {line:?}");
        assert!(line[0] <= 1, "line: {line:?}");
        let depths = rollback_depths(&t);
        assert_eq!(depths[1], 6);
    }

    #[test]
    fn timer_driven_uncoordinated_line_is_consistent() {
        // Independent timers (uncoordinated baseline): whatever the
        // line, it must satisfy the no-orphan definition.
        let p = acfc_mpsl::programs::ring(6, 2048);
        let mut hooks = TimerCheckpoints::new(3, 20_000, 7_000);
        let t = run_with_hooks(&compile(&p), &SimConfig::new(3), &mut hooks);
        assert!(t.completed());
        let line = max_consistent_line_of(&t);
        let idx = IntervalIndex::from_trace(&t);
        for m in t.live_messages() {
            if let Some(rs) = m.recv_step {
                assert!(
                    !(idx.interval_of(m.from, m.send_step) >= line[m.from]
                        && idx.interval_of(m.to, rs) < line[m.to])
                );
            }
        }
    }

    #[test]
    fn empty_trace_line_is_empty() {
        let p = parse("program t; compute 1;").unwrap();
        let t = run(&compile(&p), &SimConfig::new(2));
        assert_eq!(max_consistent_line_of(&t), vec![0, 0]);
        assert_eq!(rollback_depths(&t), vec![0, 0]);
    }

    #[test]
    fn domino_checkpoints_are_useless() {
        // The domino program is the canonical Z-cycle factory: every
        // checkpoint of rank 1 sits inside a request/reply zigzag, so
        // none of them can ever join a consistent cut.
        let p = parse(
            "program domino; var i;
             for i in 0..6 {
               if rank == 0 {
                 checkpoint;
                 send to 1 size 64;
                 recv from 1;
               } else {
                 if rank == 1 {
                   recv from 0;
                   checkpoint;
                   send to 0 size 64;
                 }
               }
             }",
        )
        .unwrap();
        let t = run(&compile(&p), &SimConfig::new(2));
        assert!(t.completed());
        let useless = useless_checkpoints(&t);
        assert!(!useless.is_empty(), "domino placements must be on Z-cycles");
        // Rank 1's inner checkpoints are all on Z-cycles.
        let rank1: Vec<u64> = useless
            .iter()
            .filter(|&&(p, _)| p == 1)
            .map(|&(_, i)| i)
            .collect();
        assert!(!rank1.is_empty(), "useless: {useless:?}");
    }

    #[test]
    fn aligned_checkpoints_are_all_useful() {
        let p = acfc_mpsl::programs::jacobi(6);
        let t = run(&compile(&p), &SimConfig::new(4));
        assert!(t.completed());
        assert_eq!(useless_checkpoints(&t), Vec::new());
    }

    #[test]
    fn checker_agrees_with_the_rollback_oracle() {
        // Differential pin: SCC membership (Netzer–Xu) and the
        // lattice-fixpoint oracle (is the checkpoint on *some*
        // consistent cut?) must classify every checkpoint identically,
        // on both a Z-cycle-free and a Z-cycle-rich trace.
        let progs = [
            acfc_mpsl::programs::jacobi(5),
            acfc_mpsl::programs::pingpong_skewed(6),
            acfc_mpsl::programs::master_worker(6),
        ];
        for (prog, n) in progs.iter().zip([4usize, 2, 3]) {
            let mut hooks = TimerCheckpoints::new(n, 25_000, 9_000);
            let t = run_with_hooks(&compile(prog), &SimConfig::new(n), &mut hooks);
            assert!(t.completed());
            let idx = IntervalIndex::from_trace(&t);
            let useless = useless_checkpoints(&t);
            for p in 0..idx.nprocs() {
                for i in 1..=idx.count(p) {
                    let on_cycle = useless.contains(&(p, i));
                    let useful = useful_by_rollback(&idx, t.messages.iter(), p, i);
                    assert_eq!(
                        useful, !on_cycle,
                        "({p}, {i}): oracle says useful={useful}, checker says on_cycle={on_cycle}"
                    );
                }
            }
        }
    }
}
