//! Static schedule validation — the machine-checkable form of PIMnet's
//! "no contention, no buffering, no arbitration" claim.
//!
//! The validator proves three families of properties about a
//! [`CommSchedule`]:
//!
//! 1. **Structural soundness** — every transfer names DPUs inside the
//!    geometry, its resource path actually connects its endpoints at the
//!    right tier, spans stay inside the buffer, reductions only appear in
//!    reducing collectives.
//! 2. **Ring exclusivity** — in phases not marked `multiplexed`, no fabric
//!    resource carries two different flows in the same step. This is the
//!    hard hardware constraint: a PIMnet stop has no input buffer, so a
//!    ring segment cannot serve two flows at once.
//! 3. **Contention metrics** — for multiplexed phases (the WAIT-scheduled
//!    DQ channels and bus), the maximum number of flows sharing a resource
//!    per step, which the timing model turns into deterministic
//!    time-multiplexing.

use std::fmt;

use pim_arch::geometry::PimGeometry;

use crate::error::PimnetError;
use crate::topology::{ChipLoc, Resource};

use super::occupancy::FlowOccupancy;
use super::{CommSchedule, Transfer};

/// Result of a successful validation, with contention metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Steps examined.
    pub steps: usize,
    /// Non-local transfers examined.
    pub transfers: usize,
    /// Max flows sharing one ring segment in any step (1 for ring phases by
    /// rule 2; may exceed 1 in multiplexed phases such as All-to-All).
    pub max_ring_sharing: usize,
    /// Max flows sharing one chip DQ channel in any step.
    pub max_chip_sharing: usize,
    /// Max flows sharing the rank bus in any step.
    pub max_bus_sharing: usize,
}

/// Validates a schedule. See the [module docs](self) for the rules.
///
/// Within a step, per-transfer rules are checked in transfer order, then
/// resource sharing in ascending [`Resource`] order, so the reported
/// violation is the same in every process.
///
/// # Errors
///
/// Returns [`PimnetError::ScheduleInvalid`] with a diagnostic naming the
/// first violated rule, including a transfer that names a DPU outside the
/// geometry.
pub fn validate(schedule: &CommSchedule) -> Result<ValidationReport, PimnetError> {
    let mut report = ValidationReport::default();
    let mut occupancy = FlowOccupancy::default();

    for (pi, phase) in schedule.phases.iter().enumerate() {
        for (si, step) in phase.steps.iter().enumerate() {
            report.steps += 1;
            occupancy.clear();
            for (ti, t) in step.transfers.iter().enumerate() {
                check_transfer(schedule, t, pi, si)?;
                if t.is_local() {
                    continue;
                }
                report.transfers += 1;
                occupancy.record(ti, t.src, &t.resources);
            }
            // A "flow" is a distinct (source, destination-set) pair: several
            // back-to-back transfers of one pair count once, since they form
            // a single scheduled slot on the wire.
            let transfers = &step.transfers;
            for (r, n) in occupancy.flow_counts(move |ti| transfers[ti as usize].dsts.as_slice()) {
                match r {
                    Resource::RingSegment { .. } => {
                        report.max_ring_sharing = report.max_ring_sharing.max(n);
                        if !phase.multiplexed && n > 1 {
                            return Err(invalid(format!(
                                "phase {pi} step {si}: ring segment {r} carries {n} flows \
                                 in a non-multiplexed phase"
                            )));
                        }
                    }
                    Resource::ChipTx { .. } | Resource::ChipRx { .. } => {
                        report.max_chip_sharing = report.max_chip_sharing.max(n);
                        if !phase.multiplexed && n > 1 {
                            return Err(invalid(format!(
                                "phase {pi} step {si}: chip channel {r} carries {n} flows \
                                 in a non-multiplexed phase"
                            )));
                        }
                    }
                    Resource::RankBus { .. } => {
                        report.max_bus_sharing = report.max_bus_sharing.max(n);
                    }
                }
            }
        }
    }
    Ok(report)
}

fn invalid(reason: String) -> PimnetError {
    PimnetError::ScheduleInvalid { reason }
}

/// A transfer's position, rendered into the error message only when one
/// of its rules fails.
struct At<'a> {
    pi: usize,
    si: usize,
    t: &'a Transfer,
}

impl At<'_> {
    fn invalid(&self, what: impl fmt::Display) -> PimnetError {
        invalid(format!(
            "phase {} step {} ({} -> {:?}): {what}",
            self.pi, self.si, self.t.src, self.t.dsts
        ))
    }
}

fn check_transfer(
    schedule: &CommSchedule,
    t: &Transfer,
    pi: usize,
    si: usize,
) -> Result<(), PimnetError> {
    let g = &schedule.geometry;
    let at = At { pi, si, t };

    if t.dsts.is_empty() {
        return Err(at.invalid("transfer with no destination"));
    }
    if t.src_span.len != t.dst_span.len {
        return Err(at.invalid("span length mismatch"));
    }
    if t.src_span.end() > schedule.buffer_len || t.dst_span.end() > schedule.buffer_len {
        return Err(at.invalid(format_args!(
            "span beyond buffer ({} elems)",
            schedule.buffer_len
        )));
    }
    if t.combine && !schedule.kind.reduces() {
        return Err(at.invalid(format_args!(
            "reduction in non-reducing collective {}",
            schedule.kind
        )));
    }

    if t.is_local() {
        if t.dsts != [t.src] {
            return Err(at.invalid("resource-less transfer must be local"));
        }
        return in_geometry(g, t, &at);
    }
    if t.dsts.contains(&t.src) {
        return Err(at.invalid("node sends to itself over the fabric"));
    }
    in_geometry(g, t, &at)?;

    // Path/endpoint consistency per tier, from one coordinate per node.
    // `dsts` is non-empty here, so a transfer that is not all-same-rank
    // crosses a rank.
    let src = g.coord(t.src);
    let src_chip = ChipLoc::of(src);
    let (mut all_same_chip, mut all_same_rank) = (true, true);
    for &d in &t.dsts {
        let dst = g.coord(d);
        all_same_chip &= ChipLoc::of(dst) == src_chip;
        all_same_rank &= (dst.channel, dst.rank) == (src.channel, src.rank);
    }
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
            .all(|r| matches!(r, Resource::RingSegment { chip, .. } if *chip == src_chip))
        {
            return Err(at.invalid("same-chip transfer must use only its own ring segments"));
        }
    } else if all_same_rank {
        if uses_bus || uses_ring {
            return Err(at.invalid("same-rank transfer must use only DQ channels"));
        }
        expect_dq_endpoints(g, t, src_chip, &at)?;
    } else {
        if !uses_bus {
            return Err(at.invalid("cross-rank transfer must traverse the rank bus"));
        }
        expect_dq_endpoints(g, t, src_chip, &at)?;
    }
    Ok(())
}

/// Rejects a transfer naming a DPU outside the geometry (the analysis
/// sync pass's `P301`) before any coordinate is computed.
fn in_geometry(g: &PimGeometry, t: &Transfer, at: &At<'_>) -> Result<(), PimnetError> {
    let total = g.total_dpus();
    match std::iter::once(&t.src)
        .chain(&t.dsts)
        .find(|id| id.0 >= total)
    {
        Some(id) => Err(at.invalid(format_args!("{id} is outside the geometry's {total} DPUs"))),
        None => Ok(()),
    }
}

fn expect_dq_endpoints(
    g: &PimGeometry,
    t: &Transfer,
    src_chip: ChipLoc,
    at: &At<'_>,
) -> Result<(), PimnetError> {
    let has_tx = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::ChipTx { chip } if *chip == src_chip));
    if !has_tx {
        return Err(at.invalid("missing source chip Tx channel in path"));
    }
    for &d in &t.dsts {
        let dst_chip = ChipLoc::of(g.coord(d));
        let has_rx = t
            .resources
            .iter()
            .any(|r| matches!(r, Resource::ChipRx { chip } if *chip == dst_chip));
        if !has_rx {
            return Err(at.invalid(format_args!("missing destination chip Rx channel for {d}")));
        }
    }
    Ok(())
}

/// The per-step map validator that [`validate`] replaced, kept as the
/// reference its flow-occupancy kernel must reproduce: one ordered map of
/// flow sets per step, an eagerly formatted context per transfer, and
/// `same_chip`/`same_rank` per destination. Ids outside the geometry are
/// rejected at the same points as in [`validate`] (the original panicked
/// in `coord` there).
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use super::{invalid, ValidationReport};
    use crate::error::PimnetError;
    use crate::schedule::{CommSchedule, Transfer};
    use crate::topology::{ChipLoc, Resource};

    pub(crate) fn validate_maps(schedule: &CommSchedule) -> Result<ValidationReport, PimnetError> {
        let mut report = ValidationReport::default();
        for (pi, phase) in schedule.phases.iter().enumerate() {
            for (si, step) in phase.steps.iter().enumerate() {
                report.steps += 1;
                let mut usage: BTreeMap<Resource, BTreeSet<(u32, Vec<u32>)>> = BTreeMap::new();
                for t in &step.transfers {
                    check_transfer(schedule, t, pi, si)?;
                    if t.is_local() {
                        continue;
                    }
                    report.transfers += 1;
                    let flow = (t.src.0, t.dsts.iter().map(|d| d.0).collect::<Vec<_>>());
                    for r in &t.resources {
                        usage.entry(*r).or_default().insert(flow.clone());
                    }
                }
                for (r, flows) in &usage {
                    let n = flows.len();
                    match r {
                        Resource::RingSegment { .. } => {
                            report.max_ring_sharing = report.max_ring_sharing.max(n);
                            if !phase.multiplexed && n > 1 {
                                return Err(invalid(format!(
                                    "phase {pi} step {si}: ring segment {r} carries {n} flows \
                                     in a non-multiplexed phase"
                                )));
                            }
                        }
                        Resource::ChipTx { .. } | Resource::ChipRx { .. } => {
                            report.max_chip_sharing = report.max_chip_sharing.max(n);
                            if !phase.multiplexed && n > 1 {
                                return Err(invalid(format!(
                                    "phase {pi} step {si}: chip channel {r} carries {n} flows \
                                     in a non-multiplexed phase"
                                )));
                            }
                        }
                        Resource::RankBus { .. } => {
                            report.max_bus_sharing = report.max_bus_sharing.max(n);
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    fn check_transfer(
        schedule: &CommSchedule,
        t: &Transfer,
        pi: usize,
        si: usize,
    ) -> Result<(), PimnetError> {
        let g = &schedule.geometry;
        let total = g.total_dpus();
        let ctx = format!("phase {pi} step {si} ({} -> {:?})", t.src, t.dsts);
        let out_of_range = || {
            std::iter::once(&t.src)
                .chain(&t.dsts)
                .find(|id| id.0 >= total)
                .map(|id| {
                    invalid(format!(
                        "{ctx}: {id} is outside the geometry's {total} DPUs"
                    ))
                })
        };

        if t.dsts.is_empty() {
            return Err(invalid(format!("{ctx}: transfer with no destination")));
        }
        if t.src_span.len != t.dst_span.len {
            return Err(invalid(format!("{ctx}: span length mismatch")));
        }
        if t.src_span.end() > schedule.buffer_len || t.dst_span.end() > schedule.buffer_len {
            return Err(invalid(format!(
                "{ctx}: span beyond buffer ({} elems)",
                schedule.buffer_len
            )));
        }
        if t.combine && !schedule.kind.reduces() {
            return Err(invalid(format!(
                "{ctx}: reduction in non-reducing collective {}",
                schedule.kind
            )));
        }
        if t.is_local() {
            if t.dsts != [t.src] {
                return Err(invalid(format!(
                    "{ctx}: resource-less transfer must be local"
                )));
            }
            return out_of_range().map_or(Ok(()), Err);
        }
        if t.dsts.contains(&t.src) {
            return Err(invalid(format!(
                "{ctx}: node sends to itself over the fabric"
            )));
        }
        if let Some(e) = out_of_range() {
            return Err(e);
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
            if !t.resources.iter().all(
                |r| matches!(r, Resource::RingSegment { chip, .. } if *chip == ChipLoc::of(src)),
            ) {
                return Err(invalid(format!(
                    "{ctx}: same-chip transfer must use only its own ring segments"
                )));
            }
        } else if all_same_rank {
            if uses_bus || uses_ring {
                return Err(invalid(format!(
                    "{ctx}: same-rank transfer must use only DQ channels"
                )));
            }
            expect_dq_endpoints(schedule, t, &ctx)?;
        } else {
            if !crosses_rank || !uses_bus {
                return Err(invalid(format!(
                    "{ctx}: cross-rank transfer must traverse the rank bus"
                )));
            }
            expect_dq_endpoints(schedule, t, &ctx)?;
        }
        Ok(())
    }

    fn expect_dq_endpoints(
        schedule: &CommSchedule,
        t: &Transfer,
        ctx: &str,
    ) -> Result<(), PimnetError> {
        let g = &schedule.geometry;
        let src_chip = ChipLoc::of(g.coord(t.src));
        let has_tx = t
            .resources
            .iter()
            .any(|r| matches!(r, Resource::ChipTx { chip } if *chip == src_chip));
        if !has_tx {
            return Err(invalid(format!(
                "{ctx}: missing source chip Tx channel in path"
            )));
        }
        for &d in &t.dsts {
            let dst_chip = ChipLoc::of(g.coord(d));
            let has_rx = t
                .resources
                .iter()
                .any(|r| matches!(r, Resource::ChipRx { chip } if *chip == dst_chip));
            if !has_rx {
                return Err(invalid(format!(
                    "{ctx}: missing destination chip Rx channel for {d}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use crate::schedule::occupancy::testgen;
    use crate::schedule::{CommSchedule, CommStep, Phase, PhaseLabel, Span};
    use crate::topology::Direction;
    use pim_arch::geometry::{DpuId, PimGeometry};
    use pim_sim::rng::SimRng;

    fn build(kind: CollectiveKind, g: &PimGeometry, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, g, elems, 4).expect("build")
    }

    #[test]
    fn every_collective_validates_on_the_paper_geometry() {
        let g = PimGeometry::paper();
        for kind in CollectiveKind::ALL {
            let s = build(kind, &g, 1024);
            let report = validate(&s).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(report.steps > 0, "{kind}: empty schedule");
        }
    }

    #[test]
    fn allreduce_ring_phases_are_exclusive() {
        let g = PimGeometry::paper();
        let s = build(CollectiveKind::AllReduce, &g, 4096);
        let report = validate(&s).unwrap();
        // Rule 2 held (validate succeeded), and the metric agrees:
        assert_eq!(report.max_ring_sharing, 1);
    }

    #[test]
    fn alltoall_multiplexes_but_validates() {
        let g = PimGeometry::paper();
        let s = build(CollectiveKind::AllToAll, &g, 2560);
        let report = validate(&s).unwrap();
        // Pairwise intra-chip exchange shares ring segments (WAIT-slotted).
        assert!(report.max_ring_sharing >= 1);
        // 8 banks per chip funnel through one DQ channel in chip steps.
        assert_eq!(report.max_chip_sharing, 8);
        // Every bank crosses the bus in a rank step.
        assert_eq!(report.max_bus_sharing, 256);
    }

    #[test]
    fn validates_across_geometries_and_sizes() {
        for n in [1u32, 2, 8, 32, 64, 128, 256] {
            let g = PimGeometry::paper_scaled(n);
            for kind in CollectiveKind::ALL {
                for elems in [1usize, 7, 256, 1000] {
                    let s = build(kind, &g, elems);
                    validate(&s).unwrap_or_else(|e| panic!("{kind} n={n} elems={elems}: {e}"));
                }
            }
        }
    }

    #[test]
    fn fabric_self_transfers_are_rejected_but_local_copies_pass() {
        let g = PimGeometry::paper();
        // All-to-All keeps each node's own chunk as a resource-less local
        // copy; those validate and stay out of the fabric transfer count.
        let s = build(CollectiveKind::AllToAll, &g, 2560);
        let locals = s
            .phases
            .iter()
            .flat_map(|p| &p.steps)
            .flat_map(|st| &st.transfers)
            .filter(|t| t.is_local())
            .count();
        assert!(locals > 0, "expected local own-chunk copies");
        let report = validate(&s).unwrap();
        assert_eq!(report.transfers, s.transfer_count());

        // A self-send *over the fabric* is structurally invalid: a stop
        // never loops traffic back onto its own port.
        let mut bad = s.clone();
        let t = bad
            .phases
            .iter_mut()
            .flat_map(|p| &mut p.steps)
            .flat_map(|st| &mut st.transfers)
            .find(|t| !t.is_local())
            .expect("non-local transfer");
        t.dsts = vec![t.src];
        let err = validate(&bad).unwrap_err();
        assert!(err.to_string().contains("sends to itself"), "{err}");

        // Conversely, a transfer with no resources must be a self-copy.
        let mut bad = s;
        let t = bad
            .phases
            .iter_mut()
            .flat_map(|p| &mut p.steps)
            .flat_map(|st| &mut st.transfers)
            .find(|t| !t.is_local())
            .expect("non-local transfer");
        t.resources.clear();
        let err = validate(&bad).unwrap_err();
        assert!(err.to_string().contains("must be local"), "{err}");
    }

    #[test]
    fn multiplexed_phases_tolerate_sharing_exclusive_phases_do_not() {
        let g = PimGeometry::paper();
        // All-to-All's chip/rank phases deliberately time-multiplex the DQ
        // channels and bus; the validator records the sharing degree.
        let mut s = build(CollectiveKind::AllToAll, &g, 2560);
        let report = validate(&s).unwrap();
        assert!(report.max_chip_sharing > 1);
        // Strip the multiplexed marker: the identical traffic is now a
        // hard contention error (a bufferless stop cannot serve two flows).
        for p in &mut s.phases {
            p.multiplexed = false;
        }
        let err = validate(&s).unwrap_err();
        assert!(err.to_string().contains("flows"), "{err}");
    }

    #[test]
    fn injected_ring_sharing_is_rejected_until_marked_multiplexed() {
        // One chip, 8 banks: the AllReduce bank ring is exclusive. Force a
        // segment to carry a second flow and watch rule 2 fire; marking the
        // phase multiplexed downgrades the same traffic to a metric.
        let g = PimGeometry::paper_scaled(8);
        let mut s = build(CollectiveKind::AllReduce, &g, 64);
        let mut found = None;
        'outer: for (pi, p) in s.phases.iter().enumerate() {
            if p.multiplexed {
                continue;
            }
            for (si, step) in p.steps.iter().enumerate() {
                let fabric: Vec<usize> = step
                    .transfers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.is_local())
                    .map(|(i, _)| i)
                    .collect();
                for &ai in &fabric {
                    for &bi in &fabric {
                        if step.transfers[ai].src == step.transfers[bi].src {
                            continue; // same flow would legally share
                        }
                        if let Some(&r) = step.transfers[bi].resources.first() {
                            found = Some((pi, si, ai, r));
                            break 'outer;
                        }
                    }
                }
            }
        }
        let (pi, si, ai, shared) = found.expect("an exclusive step with two flows");
        s.phases[pi].steps[si].transfers[ai].resources.push(shared);
        let err = validate(&s).unwrap_err();
        assert!(err.to_string().contains("carries 2 flows"), "{err}");
        s.phases[pi].multiplexed = true;
        let report = validate(&s).unwrap();
        assert!(report.max_ring_sharing >= 2);
    }

    #[test]
    fn corrupted_schedule_is_rejected() {
        let g = PimGeometry::paper();
        let mut s = build(CollectiveKind::AllReduce, &g, 1024);
        // Push a span beyond the buffer.
        for phase in &mut s.phases {
            for step in &mut phase.steps {
                if let Some(t) = step.transfers.first_mut() {
                    t.src_span = crate::schedule::Span::new(s.buffer_len, 8);
                    t.dst_span = t.src_span;
                    let err = validate(&s).unwrap_err();
                    assert!(matches!(err, PimnetError::ScheduleInvalid { .. }));
                    return;
                }
            }
        }
        panic!("no transfer found to corrupt");
    }

    #[test]
    fn reduction_flag_is_policed() {
        let g = PimGeometry::paper();
        let mut s = build(CollectiveKind::AllGather, &g, 64);
        'outer: for phase in &mut s.phases {
            for step in &mut phase.steps {
                if let Some(t) = step.transfers.first_mut() {
                    t.combine = true;
                    break 'outer;
                }
            }
        }
        let err = validate(&s).unwrap_err();
        assert!(err.to_string().contains("non-reducing"));
    }

    fn checked(s: &CommSchedule) -> Result<ValidationReport, String> {
        let got = validate(s).map_err(|e| e.to_string());
        let want = oracle::validate_maps(s).map_err(|e| e.to_string());
        assert_eq!(got, want, "kernel and map oracle disagree");
        got
    }

    #[test]
    fn kernel_matches_the_map_oracle_on_random_steps() {
        let mut rng = SimRng::seed_from_u64(0x0cc0_9a7c);
        let (mut ok, mut shared, mut contended, mut out_of_range) = (0, 0, 0, 0);
        for _ in 0..3000 {
            let s = testgen::random_schedule(&mut rng);
            match checked(&s) {
                Ok(r) => {
                    ok += 1;
                    if r.max_ring_sharing.max(r.max_chip_sharing) > 1 {
                        shared += 1;
                    }
                }
                Err(e) if e.contains(" flows in a non-multiplexed phase") => contended += 1,
                Err(e) if e.contains("outside the geometry") => out_of_range += 1,
                Err(_) => {}
            }
        }
        // The generator reaches every branch the kernel feeds.
        assert!(ok > 300, "{ok} valid schedules");
        assert!(shared > 100, "{shared} valid schedules with sharing");
        assert!(contended > 300, "{contended} contention errors");
        assert!(out_of_range > 30, "{out_of_range} out-of-range errors");
    }

    #[test]
    fn report_matches_the_map_oracle_on_every_kind_and_the_composed_corpus() {
        for kind in CollectiveKind::ALL {
            for n in [8u32, 64, 256] {
                let s = build(kind, &PimGeometry::paper_scaled(n), 64);
                checked(&s).unwrap_or_else(|e| panic!("{kind} x{n}: {e}"));
            }
        }
        for (kind, spec) in [
            (CollectiveKind::AllReduce, "ring_direct_ring"),
            (CollectiveKind::ReduceScatter, "rabenseifner_ring_direct"),
            (CollectiveKind::AllGather, "direct_ring_ring"),
            (CollectiveKind::Broadcast, "dbtree_ring_ring"),
            (CollectiveKind::AllToAll, "direct_direct_direct"),
        ] {
            let comp = crate::schedule::Composition::parse(spec).unwrap();
            let g = PimGeometry::paper_scaled(64);
            let s = crate::schedule::build_composed(kind, &g, 130, 4, comp).unwrap();
            checked(&s).unwrap_or_else(|e| panic!("{kind} {spec}: {e}"));
        }
    }

    #[test]
    fn contention_names_the_first_over_shared_resource_in_resource_order() {
        // Two flows both hold bank 1's and bank 0's east segments (listed
        // in that order): the error names bank 0's, the lower `Resource`.
        let g = PimGeometry::paper_scaled(8);
        let mut s = build(CollectiveKind::AllReduce, &g, 64);
        let chip = ChipLoc::of(g.coord(DpuId(0)));
        let seg = |from_bank| Resource::RingSegment {
            chip,
            from_bank,
            dir: Direction::East,
        };
        let hop = |src: u32, dst: u32| Transfer {
            src: DpuId(src),
            dsts: vec![DpuId(dst)],
            src_span: Span::new(0, 8),
            dst_span: Span::new(0, 8),
            combine: true,
            resources: vec![seg(1), seg(0)],
        };
        s.phases = vec![Phase {
            label: PhaseLabel::InterBank,
            steps: vec![CommStep {
                transfers: vec![hop(0, 2), hop(7, 2)],
            }],
            multiplexed: false,
        }];
        let err = validate(&s).unwrap_err();
        assert_eq!(
            err.to_string(),
            "schedule failed validation: phase 0 step 0: ring segment \
             ring[ch0/r0/c0/b0/E] carries 2 flows in a non-multiplexed phase"
        );
        assert_eq!(checked(&s).unwrap_err(), err.to_string());
    }

    #[test]
    fn out_of_range_dpu_ids_are_typed_errors_not_panics() {
        let g = PimGeometry::paper_scaled(8);
        // A fabric transfer to DPU 999 on an 8-DPU geometry.
        let mut s = build(CollectiveKind::AllReduce, &g, 64);
        let t = s.phases[0].steps[0]
            .transfers
            .iter_mut()
            .find(|t| !t.is_local())
            .expect("fabric transfer");
        let src = t.src;
        t.dsts = vec![DpuId(999)];
        let want = format!(
            "schedule failed validation: phase 0 step 0 ({src} -> [DpuId(999)]): \
             DPU999 is outside the geometry's 8 DPUs"
        );
        let err = validate(&s).unwrap_err();
        assert!(matches!(err, PimnetError::ScheduleInvalid { .. }));
        assert_eq!(err.to_string(), want);
        assert_eq!(crate::isa::compile(&s).unwrap_err().to_string(), want);

        // A resource-less local copy on DPU 999.
        let mut s = build(CollectiveKind::AllReduce, &g, 64);
        s.phases[0].steps[0].transfers.push(Transfer {
            src: DpuId(999),
            dsts: vec![DpuId(999)],
            src_span: Span::new(0, 8),
            dst_span: Span::new(8, 8),
            combine: false,
            resources: Vec::new(),
        });
        let want = "schedule failed validation: phase 0 step 0 (DPU999 -> [DpuId(999)]): \
                    DPU999 is outside the geometry's 8 DPUs";
        assert_eq!(validate(&s).unwrap_err().to_string(), want);
        assert_eq!(crate::isa::compile(&s).unwrap_err().to_string(), want);
    }
}
