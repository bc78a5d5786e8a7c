//! Sync/deadlock pass (`P3xx`): the READY/START barrier tree and
//! WAIT-multiplexed phases.
//!
//! PIMnet sequences steps with a hardware READY/START tree: every
//! participant reports READY, the root broadcasts START, and the next
//! step begins. That protocol has two static failure modes this pass
//! detects without executing anything:
//!
//! * **Partitioned tree** (`P301`): a transfer names a DPU outside the
//!   geometry. The sync tree only spans real participants, so the named
//!   endpoint can never report READY and the barrier never fires.
//! * **Cyclic waits** (`P302`): when a step must be serialized on shared
//!   hardware (the repair layer's reader-before-writer split), transfer
//!   `a` must run before transfer `b` whenever `b` overwrites a region
//!   `a` still has to read. A cycle in that must-precede relation admits
//!   no serial order: every interleaving corrupts some payload, and a
//!   WAIT-multiplexed engine that refuses to clobber un-read data stalls
//!   forever.
//! * **Empty barrier** (`P303`, warning): a phase or step with no
//!   transfers still costs a full READY/START round trip for nothing.

use std::collections::BTreeMap;

use crate::schedule::{ScheduleHeader, ScheduleView, Span, StepRef};

use super::diagnostics::{Diagnostic, Location};

/// `P301` — a transfer references a DPU outside the geometry; the
/// READY/START sync tree is partitioned.
pub const PARTITIONED_TREE: &str = "P301";
/// `P302` — cyclic must-precede constraints within one step.
pub const CYCLIC_WAIT: &str = "P302";
/// `P303` — an empty phase or step (a barrier with no work).
pub const EMPTY_BARRIER: &str = "P303";

fn overlaps(a: Span, b: Span) -> bool {
    a.start < b.end() && b.start < a.end()
}

/// Runs the sync pass, appending findings to `diags`.
pub(super) fn check<S: ScheduleView>(schedule: &S, diags: &mut Vec<Diagnostic>) {
    let hdr = schedule.header();
    for pi in 0..schedule.phase_count() {
        if schedule.steps_in(pi) == 0 {
            diags.push(Diagnostic::warning(
                EMPTY_BARRIER,
                Location::phase(pi),
                "phase has no steps: a barrier with no work".into(),
            ));
        }
        for si in 0..schedule.steps_in(pi) {
            check_step(&hdr, pi, si, schedule.step(pi, si), diags);
        }
    }
}

/// Sync checks for one step at `(pi, si)`; step-local by construction, so
/// the incremental verifier calls it verbatim. (The phase-level empty
/// warning lives with the phase boundary, not here.)
pub(super) fn check_step(
    hdr: &ScheduleHeader<'_>,
    pi: usize,
    si: usize,
    step: StepRef<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let total = hdr.geometry.total_dpus();
    if step.is_empty() {
        diags.push(Diagnostic::warning(
            EMPTY_BARRIER,
            Location::step(pi, si),
            "step has no transfers: a barrier with no work".into(),
        ));
    }
    for (ti, t) in step.transfers().enumerate() {
        let loc = Location::at(pi, si, ti);
        for id in std::iter::once(t.src).chain(t.dsts.iter().copied()) {
            if id.0 >= total {
                diags.push(Diagnostic::error(
                    PARTITIONED_TREE,
                    loc.on(id.0),
                    format!(
                        "transfer references {id} outside the geometry's {total} \
                         DPUs: the READY/START sync tree is partitioned and the \
                         step barrier can never fire"
                    ),
                ));
            }
        }
    }
    check_serialization(pi, si, step, diags);
}

/// The must-precede relation of one step: `edges[a]` lists, in ascending
/// transfer order, every `b` that overwrites a region `a` reads on `a`'s
/// source node (so `a` must run before `b`).
///
/// Non-combining writers are indexed by destination node, each listed
/// once per node in ascending transfer order, so a reader visits only the
/// writers of its own source node rather than every transfer of the step.
fn must_precede(step: StepRef<'_>) -> Vec<Vec<usize>> {
    let mut writers: BTreeMap<u32, Vec<(usize, Span)>> = BTreeMap::new();
    for (b, tb) in step.transfers().enumerate() {
        if tb.combine {
            continue;
        }
        for d in tb.dsts {
            let list = writers.entry(d.0).or_default();
            // A repeated destination lists the writer once.
            if list.last().is_none_or(|&(last, _)| last != b) {
                list.push((b, tb.dst_span));
            }
        }
    }
    step.transfers()
        .enumerate()
        .map(|(a, ta)| {
            writers.get(&ta.src.0).map_or_else(Vec::new, |list| {
                list.iter()
                    .filter(|&&(b, dst_span)| a != b && overlaps(ta.src_span, dst_span))
                    .map(|&(b, _)| b)
                    .collect()
            })
        })
        .collect()
}

/// Reports a cycle in one step's must-precede relation, if one exists.
fn check_serialization(pi: usize, si: usize, step: StepRef<'_>, diags: &mut Vec<Diagnostic>) {
    let edges = must_precede(step);
    let count = edges.len();

    // Iterative DFS three-coloring: a back edge is a cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; count];
    for root in 0..count {
        if color[root] != Color::White {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        color[root] = Color::Grey;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if let Some(&w) = edges[v].get(*next) {
                *next += 1;
                match color[w] {
                    Color::White => {
                        color[w] = Color::Grey;
                        stack.push((w, 0));
                    }
                    Color::Grey => {
                        diags.push(Diagnostic::error(
                            CYCLIC_WAIT,
                            Location::at(pi, si, v),
                            format!(
                                "cyclic wait: transfer {v} must precede transfer {w} \
                                 (it reads what {w} overwrites) but {w} transitively \
                                 precedes {v}; the step admits no serial order"
                            ),
                        ));
                        return;
                    }
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use pim_arch::geometry::DpuId;
    use pim_sim::rng::SimRng;

    use super::*;
    use crate::schedule::{CommStep, Transfer};

    /// Reference all-pairs construction: the oracle the indexed
    /// [`must_precede`] must reproduce element for element.
    fn must_precede_pairwise(step: StepRef<'_>) -> Vec<Vec<usize>> {
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); step.len()];
        for (a, ta) in step.transfers().enumerate() {
            for (b, tb) in step.transfers().enumerate() {
                if a == b || tb.combine {
                    continue;
                }
                if tb.dsts.contains(&ta.src) && overlaps(ta.src_span, tb.dst_span) {
                    edges[a].push(b);
                }
            }
        }
        edges
    }

    fn transfer(src: u32, dsts: &[u32], src_span: Span, dst_span: Span, combine: bool) -> Transfer {
        Transfer {
            src: DpuId(src),
            dsts: dsts.iter().copied().map(DpuId).collect(),
            src_span,
            dst_span,
            combine,
            resources: Vec::new(),
        }
    }

    /// A random step over a few nodes and a short buffer, so overlaps,
    /// repeated destinations, combining writers, self-overlapping pairs
    /// and zero-length spans all occur. Nodes past 8 (and two ids at the
    /// top of the `u32` range) lie outside an 8-DPU geometry.
    fn random_step(rng: &mut SimRng) -> CommStep {
        let nodes = rng.gen_range(1..12u32);
        let node = |rng: &mut SimRng| {
            if rng.gen_bool(0.05) {
                u32::MAX - rng.gen_range(0..2u32)
            } else {
                rng.gen_range(0..nodes)
            }
        };
        let count = rng.gen_range(0..40usize);
        let span =
            |rng: &mut SimRng| Span::new(rng.gen_range(0..16usize), rng.gen_range(0..6usize));
        let transfers = (0..count)
            .map(|_| {
                let src = node(rng);
                let dsts: Vec<u32> = (0..rng.gen_range(0..4usize)).map(|_| node(rng)).collect();
                let src_span = span(rng);
                // Some transfers write exactly the region they read.
                let dst_span = if rng.gen_bool(0.2) {
                    src_span
                } else {
                    span(rng)
                };
                transfer(src, &dsts, src_span, dst_span, rng.gen_bool(0.3))
            })
            .collect();
        // Bypass `CommStep::new`, which would drop zero-length transfers.
        CommStep { transfers }
    }

    #[test]
    fn indexed_must_precede_matches_pairwise_oracle() {
        let mut rng = SimRng::seed_from_u64(0x057C_0302);
        let mut edges_seen = 0;
        for _ in 0..2000 {
            let step = random_step(&mut rng);
            let view = StepRef::Nested(&step);
            let want = must_precede_pairwise(view);
            assert_eq!(must_precede(view), want, "step {step:?}");
            edges_seen += want.iter().map(Vec::len).sum::<usize>();
        }
        assert!(
            edges_seen > 1000,
            "generator too sparse: {edges_seen} edges"
        );
    }

    #[test]
    fn p302_reports_the_first_back_edge_in_edge_order() {
        // Edges: 0 -> [2], 1 -> [0, 3], 2 -> [1, 3], 3 -> [2], with back
        // edges 1 -> 0 and 3 -> 2. The DFS from 0 walks 0 -> 2 -> 1 and
        // meets 1 -> 0 first; walking 1's edges out of transfer order would
        // take 1 -> 3 and report 3 -> 2 instead.
        let s = Span::new(0, 4);
        let step = CommStep {
            transfers: vec![
                transfer(0, &[1], s, s, false),
                transfer(1, &[2], s, s, false),
                transfer(2, &[0], s, s, false),
                transfer(0, &[1, 2], s, s, false),
                // A combining writer never constrains the order.
                transfer(3, &[0, 1, 2], s, s, true),
            ],
        };
        let view = StepRef::Nested(&step);
        assert_eq!(
            must_precede(view),
            vec![vec![2], vec![0, 3], vec![1, 3], vec![2], vec![]]
        );
        let mut diags = Vec::new();
        check_serialization(4, 7, view, &mut diags);
        assert_eq!(
            diags,
            vec![Diagnostic::error(
                CYCLIC_WAIT,
                Location::at(4, 7, 1),
                "cyclic wait: transfer 1 must precede transfer 0 (it reads what 0 \
                 overwrites) but 0 transitively precedes 1; the step admits no serial \
                 order"
                    .into(),
            )]
        );
    }
}
