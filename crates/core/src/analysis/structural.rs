//! Structural pass (`P0xx`): the diagnostic-emitting form of
//! [`crate::schedule::validate`].
//!
//! Where the validator stops at the first violated rule and returns a
//! [`crate::error::PimnetError`], this pass walks the whole schedule and
//! emits one [`Diagnostic`] per violation, so a lint run reports every
//! structural problem at once. The rules are the same: spans stay inside
//! the buffer, resource paths connect their endpoints at the right tier,
//! reductions only appear in reducing collectives, and bufferless
//! resources never carry two flows in a non-multiplexed step.

use crate::schedule::occupancy::FlowOccupancy;
use crate::schedule::{ScheduleHeader, ScheduleView, StepRef, TransferRef};
use crate::topology::{ChipLoc, Resource};

use super::diagnostics::{Diagnostic, Location};

/// `P001` — transfer with no destination.
pub const EMPTY_DSTS: &str = "P001";
/// `P002` — source and destination spans have different lengths.
pub const SPAN_LEN_MISMATCH: &str = "P002";
/// `P003` — a span reaches beyond the communication buffer.
pub const SPAN_OUT_OF_BOUNDS: &str = "P003";
/// `P004` — a combining transfer in a non-reducing collective.
pub const COMBINE_IN_NON_REDUCING: &str = "P004";
/// `P005` — a resource-less transfer that is not a local self-copy.
pub const NON_LOCAL_WITHOUT_RESOURCES: &str = "P005";
/// `P006` — a node sends to itself over the fabric.
pub const FABRIC_SELF_SEND: &str = "P006";
/// `P007` — resources do not match the transfer's tier.
pub const WRONG_TIER_RESOURCES: &str = "P007";
/// `P008` — a DQ-crossing transfer is missing its Tx or Rx channel.
pub const MISSING_DQ_ENDPOINT: &str = "P008";
/// `P009` — an exclusive (bufferless) resource carries two flows in a
/// non-multiplexed step.
pub const EXCLUSIVE_SHARING: &str = "P009";
/// `P010` — the result-span table is malformed (wrong node count or a
/// span beyond the buffer).
pub const MALFORMED_RESULT_TABLE: &str = "P010";

/// Runs the structural pass, appending findings to `diags`.
pub(super) fn check<S: ScheduleView>(schedule: &S, diags: &mut Vec<Diagnostic>) {
    let hdr = schedule.header();
    check_prologue(&hdr, diags);
    let mut occupancy = FlowOccupancy::default();
    for pi in 0..schedule.phase_count() {
        let multiplexed = schedule.phase_multiplexed(pi);
        for si in 0..schedule.steps_in(pi) {
            let step = schedule.step(pi, si);
            check_step(&hdr, pi, si, step, multiplexed, &mut occupancy, diags);
        }
    }
}

/// Schedule-level structural checks (the result-span table), independent
/// of any step.
pub(super) fn check_prologue(hdr: &ScheduleHeader<'_>, diags: &mut Vec<Diagnostic>) {
    let total = hdr.geometry.total_dpus();

    if hdr.result_spans.len() != total as usize {
        diags.push(Diagnostic::error(
            MALFORMED_RESULT_TABLE,
            Location::SCHEDULE,
            format!(
                "result table describes {} node(s) but the geometry has {total}",
                hdr.result_spans.len()
            ),
        ));
    }
    for (i, spans) in hdr.result_spans.iter().enumerate() {
        for span in spans {
            if span.end() > hdr.buffer_len {
                diags.push(Diagnostic::error(
                    MALFORMED_RESULT_TABLE,
                    Location::node(i as u32),
                    format!(
                        "result span {span} beyond buffer ({} elems)",
                        hdr.buffer_len
                    ),
                ));
            }
        }
    }
}

/// Structural checks for one step at `(pi, si)`; step-local by
/// construction, so the incremental verifier calls it verbatim.
/// `occupancy` is scratch reused across steps.
pub(super) fn check_step(
    hdr: &ScheduleHeader<'_>,
    pi: usize,
    si: usize,
    step: StepRef<'_>,
    multiplexed: bool,
    occupancy: &mut FlowOccupancy,
    diags: &mut Vec<Diagnostic>,
) {
    occupancy.clear();
    for (ti, t) in step.transfers().enumerate() {
        check_transfer(hdr, t, Location::at(pi, si, ti), diags);
        if !multiplexed && !t.is_local() {
            occupancy.record(ti, t.src, t.resources);
        }
    }
    if multiplexed {
        return;
    }
    // A "flow" is a distinct (source, destination-set) pair, as in the
    // validator: back-to-back transfers of one pair share a single
    // scheduled slot on the wire. Findings come out in `Resource` order.
    for (r, flows) in occupancy.flow_counts(move |ti| step.transfer(ti as usize).dsts) {
        if flows > 1 && r.requires_exclusive_step() {
            diags.push(Diagnostic::error(
                EXCLUSIVE_SHARING,
                Location::step(pi, si),
                format!(
                    "bufferless resource {r} carries {flows} flows in a \
                     non-multiplexed step"
                ),
            ));
        }
        if flows > 1 && matches!(r, Resource::ChipTx { .. } | Resource::ChipRx { .. }) {
            diags.push(Diagnostic::error(
                EXCLUSIVE_SHARING,
                Location::step(pi, si),
                format!(
                    "chip channel {r} carries {flows} flows in a \
                     non-multiplexed step"
                ),
            ));
        }
    }
}

fn check_transfer(
    hdr: &ScheduleHeader<'_>,
    t: TransferRef<'_>,
    loc: Location,
    diags: &mut Vec<Diagnostic>,
) {
    let g = hdr.geometry;
    let total = g.total_dpus();

    if t.dsts.is_empty() {
        diags.push(Diagnostic::error(
            EMPTY_DSTS,
            loc,
            "transfer with no destination".into(),
        ));
    }
    if t.src_span.len != t.dst_span.len {
        diags.push(Diagnostic::error(
            SPAN_LEN_MISMATCH,
            loc,
            format!(
                "span length mismatch: src {} vs dst {}",
                t.src_span, t.dst_span
            ),
        ));
    }
    if t.src_span.end() > hdr.buffer_len || t.dst_span.end() > hdr.buffer_len {
        diags.push(Diagnostic::error(
            SPAN_OUT_OF_BOUNDS,
            loc,
            format!(
                "span beyond buffer ({} elems): src {} dst {}",
                hdr.buffer_len, t.src_span, t.dst_span
            ),
        ));
    }
    if t.combine && !hdr.kind.reduces() {
        diags.push(Diagnostic::error(
            COMBINE_IN_NON_REDUCING,
            loc,
            format!("reduction in non-reducing collective {}", hdr.kind),
        ));
    }

    if t.is_local() {
        if t.dsts != [t.src] {
            diags.push(Diagnostic::error(
                NON_LOCAL_WITHOUT_RESOURCES,
                loc,
                "resource-less transfer must be a local self-copy".into(),
            ));
        }
        return;
    }
    if t.dsts.contains(&t.src) {
        diags.push(Diagnostic::error(
            FABRIC_SELF_SEND,
            loc,
            format!("node {} sends to itself over the fabric", t.src),
        ));
    }

    // Tier/endpoint consistency needs coordinates; out-of-range ids are
    // the sync pass's `P301`, so skip rather than panic in `coord`.
    if t.src.0 >= total || t.dsts.iter().any(|d| d.0 >= total) {
        return;
    }
    let src = g.coord(t.src);
    let all_same_chip = t.dsts.iter().all(|&d| g.same_chip(t.src, d));
    let all_same_rank = t.dsts.iter().all(|&d| g.same_rank(t.src, d));
    let crosses_rank = t.dsts.iter().any(|&d| !g.same_rank(t.src, d));
    let uses_bus = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::RankBus { .. }));
    let uses_ring = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::RingSegment { .. }));

    if all_same_chip {
        if !t
            .resources
            .iter()
            .all(|r| matches!(r, Resource::RingSegment { chip, .. } if *chip == ChipLoc::of(src)))
        {
            diags.push(Diagnostic::error(
                WRONG_TIER_RESOURCES,
                loc,
                "same-chip transfer must use only its own ring segments".into(),
            ));
        }
    } else if all_same_rank {
        if uses_bus || uses_ring {
            diags.push(Diagnostic::error(
                WRONG_TIER_RESOURCES,
                loc,
                "same-rank transfer must use only DQ channels".into(),
            ));
        }
        expect_dq_endpoints(hdr, t, loc, diags);
    } else {
        if !crosses_rank || !uses_bus {
            diags.push(Diagnostic::error(
                WRONG_TIER_RESOURCES,
                loc,
                "cross-rank transfer must traverse the rank bus".into(),
            ));
        }
        expect_dq_endpoints(hdr, t, loc, diags);
    }
}

fn expect_dq_endpoints(
    hdr: &ScheduleHeader<'_>,
    t: TransferRef<'_>,
    loc: Location,
    diags: &mut Vec<Diagnostic>,
) {
    let g = hdr.geometry;
    let src_chip = ChipLoc::of(g.coord(t.src));
    let has_tx = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::ChipTx { chip } if *chip == src_chip));
    if !has_tx {
        diags.push(Diagnostic::error(
            MISSING_DQ_ENDPOINT,
            loc,
            "missing source chip Tx channel in path".into(),
        ));
    }
    for &d in t.dsts {
        let dst_chip = ChipLoc::of(g.coord(d));
        let has_rx = t
            .resources
            .iter()
            .any(|r| matches!(r, Resource::ChipRx { chip } if *chip == dst_chip));
        if !has_rx {
            diags.push(Diagnostic::error(
                MISSING_DQ_ENDPOINT,
                loc,
                format!("missing destination chip Rx channel for {d}"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use pim_sim::rng::SimRng;

    use super::*;
    use crate::schedule::occupancy::testgen;
    use crate::schedule::FlatSchedule;

    /// The per-step map form of [`check_step`] that the flow-occupancy
    /// kernel replaced: the reference it must reproduce, findings and
    /// order alike.
    fn check_step_maps(
        hdr: &ScheduleHeader<'_>,
        pi: usize,
        si: usize,
        step: StepRef<'_>,
        multiplexed: bool,
        diags: &mut Vec<Diagnostic>,
    ) {
        let mut usage: BTreeMap<Resource, BTreeSet<(u32, Vec<u32>)>> = BTreeMap::new();
        for (ti, t) in step.transfers().enumerate() {
            check_transfer(hdr, t, Location::at(pi, si, ti), diags);
            if t.is_local() {
                continue;
            }
            let flow = (t.src.0, t.dsts.iter().map(|d| d.0).collect::<Vec<_>>());
            for r in t.resources {
                usage.entry(*r).or_default().insert(flow.clone());
            }
        }
        if !multiplexed {
            for (r, flows) in &usage {
                if flows.len() > 1 && r.requires_exclusive_step() {
                    diags.push(Diagnostic::error(
                        EXCLUSIVE_SHARING,
                        Location::step(pi, si),
                        format!(
                            "bufferless resource {r} carries {} flows in a \
                             non-multiplexed step",
                            flows.len()
                        ),
                    ));
                }
                if flows.len() > 1 && matches!(r, Resource::ChipTx { .. } | Resource::ChipRx { .. })
                {
                    diags.push(Diagnostic::error(
                        EXCLUSIVE_SHARING,
                        Location::step(pi, si),
                        format!(
                            "chip channel {r} carries {} flows in a \
                             non-multiplexed step",
                            flows.len()
                        ),
                    ));
                }
            }
        }
    }

    /// Every step of `schedule` through the kernel (one scratch reused
    /// across steps) and through the map oracle; returns the P009 count.
    fn compare<S: ScheduleView>(schedule: &S) -> usize {
        let hdr = schedule.header();
        let mut occupancy = FlowOccupancy::default();
        let mut sharing = 0;
        for pi in 0..schedule.phase_count() {
            let multiplexed = schedule.phase_multiplexed(pi);
            for si in 0..schedule.steps_in(pi) {
                let step = schedule.step(pi, si);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                check_step(&hdr, pi, si, step, multiplexed, &mut occupancy, &mut got);
                check_step_maps(&hdr, pi, si, step, multiplexed, &mut want);
                assert_eq!(got, want, "phase {pi} step {si}");
                sharing += got.iter().filter(|d| d.code == EXCLUSIVE_SHARING).count();
            }
        }
        sharing
    }

    #[test]
    fn kernel_matches_the_map_oracle_on_random_steps() {
        let mut rng = SimRng::seed_from_u64(0x5707_0009);
        let (mut sharing, mut multi) = (0, 0);
        for _ in 0..3000 {
            let s = testgen::random_schedule(&mut rng);
            let nested = compare(&s);
            assert_eq!(compare(&FlatSchedule::from_schedule(&s)), nested);
            sharing += nested;
            multi += usize::from(nested > 1);
        }
        assert!(sharing > 1000, "{sharing} P009 findings");
        assert!(multi > 300, "{multi} schedules with several P009 findings");
    }
}
