//! Per-geometry collective autotuner.
//!
//! The paper commits to one schedule per collective (Table V). This
//! module instead *searches*: for one `(collective kind, geometry,
//! payload)` request it sweeps a deterministic candidate set of per-tier
//! algorithm [`Composition`]s × chunk splits, **re-proves** every
//! candidate with the full four-pass [`crate::analysis`] suite
//! (rejecting anything with a diagnostic — the tuner never trades
//! correctness for speed), prices the survivors through the same
//! boost-plan timing path the sweeps use, and memoizes the winner in the
//! schedule cache under a composition-aware key.
//!
//! The paper's own Table V schedule is always candidate zero and wins
//! all ties, so [`TunedChoice::tuned_time`] is never worse than
//! [`TunedChoice::paper_time`] *by construction* — tuning can only help.
//!
//! # Candidate grammar
//!
//! Sweeping all `4³` compositions × chunk splits per request would make
//! admission-path tuning (see [`crate::serve`]) pay a large cold-start
//! cost for candidates that are never competitive. The set is instead:
//!
//! * the paper's Table V schedule (the incumbent),
//! * every *uniform* composition (`ring_ring_ring`, `direct_direct_…`),
//! * every all-ring composition with exactly **one** tier swapped,
//!
//! filtered by [`Composition::applies_to`] and by concrete geometry
//! (power-of-two groups for Rabenseifner tiers), with trivial tiers
//! (group size 1) canonicalized to ring so degenerate geometries do not
//! enumerate duplicates. AllReduce additionally sweeps a 2-way chunk
//! split. The order is fixed, so the tuner is deterministic and its
//! winner is byte-stable across worker counts and cache warmth.

use std::sync::Arc;

use pim_arch::geometry::PimGeometry;
use pim_sim::{Probe, SimTime};

use crate::collective::CollectiveKind;
use crate::error::PimnetError;
use crate::timing::TimingModel;

use super::algos::{Composition, TierAlgo};
use super::{boost, cache, CommSchedule};

/// The autotuner's memoized decision for one request.
#[derive(Debug, Clone)]
pub struct TunedChoice {
    /// The collective that was tuned.
    pub kind: CollectiveKind,
    /// The geometry it was tuned for.
    pub geometry: PimGeometry,
    /// Elements contributed per node.
    pub elems_per_node: usize,
    /// Element width in bytes.
    pub elem_bytes: u32,
    /// The winning composition and chunk split, or `None` when the
    /// paper's Table V schedule won (or tied — the incumbent keeps ties).
    pub winner: Option<(Composition, usize)>,
    /// The winning schedule itself (validated, analysis-clean).
    pub schedule: Arc<CommSchedule>,
    /// Modeled completion time of the winner.
    pub tuned_time: SimTime,
    /// Modeled completion time of the paper's Table V schedule.
    pub paper_time: SimTime,
    /// Composed candidates enumerated for this request (excluding the
    /// paper incumbent).
    pub candidates: usize,
    /// Candidates rejected because analysis reported a diagnostic.
    pub rejected: usize,
}

impl TunedChoice {
    /// The winning composition spec (`paper` for the incumbent).
    #[must_use]
    pub fn spec(&self) -> String {
        match self.winner {
            Some((comp, 1)) => comp.spec(),
            Some((comp, chunks)) => format!("{comp}/c{chunks}"),
            None => "paper".to_string(),
        }
    }

    /// Paper time over tuned time (≥ 1.0 by construction).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.tuned_time.as_ps() == 0 {
            return 1.0;
        }
        self.paper_time.as_ps() as f64 / self.tuned_time.as_ps() as f64
    }
}

/// The deterministic candidate list for one request: `(composition,
/// chunk split)` pairs in sweep order, already filtered for
/// applicability to `kind` and to the concrete `geometry`. The paper's
/// incumbent schedule is *not* in the list — it is always priced
/// separately and wins ties.
#[must_use]
pub fn candidates(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
) -> Vec<(Composition, usize)> {
    let group_sizes = [
        geometry.banks_per_chip,
        geometry.chips_per_rank,
        geometry.ranks_per_channel,
    ];
    // Canonicalize trivial tiers (group size 1: the algorithm is a
    // no-op) to ring, then dedup while preserving order.
    let canonical = |mut c: Composition| {
        if group_sizes[0] == 1 {
            c.bank = TierAlgo::Ring;
        }
        if group_sizes[1] == 1 {
            c.chip = TierAlgo::Ring;
        }
        if group_sizes[2] == 1 {
            c.rank = TierAlgo::Ring;
        }
        c
    };
    let geometry_ok = |c: Composition| {
        c.tiers()
            .into_iter()
            .zip(group_sizes)
            .all(|(a, k)| a != TierAlgo::Rabenseifner || k.is_power_of_two())
    };

    let mut comps: Vec<Composition> = Vec::new();
    let mut push = |raw: Composition| {
        if !raw.applies_to(kind) {
            return;
        }
        // Canonicalizing a trivial tier must not destroy applicability
        // (all-to-all admits only the all-direct composition): keep the
        // raw spelling when it would.
        let c = canonical(raw);
        let c = if c.applies_to(kind) { c } else { raw };
        if geometry_ok(c) && !comps.contains(&c) {
            comps.push(c);
        }
    };
    for a in TierAlgo::ALL {
        push(Composition {
            bank: a,
            chip: a,
            rank: a,
        });
    }
    for tier in 0..3 {
        for a in TierAlgo::ALL {
            if a == TierAlgo::Ring {
                continue;
            }
            let mut c = Composition::RING;
            match tier {
                0 => c.bank = a,
                1 => c.chip = a,
                _ => c.rank = a,
            }
            push(c);
        }
    }

    let chunk_splits: &[usize] = if kind == CollectiveKind::AllReduce && elems_per_node >= 2 {
        &[1, 2]
    } else {
        &[1]
    };
    let mut out = Vec::with_capacity(comps.len() * chunk_splits.len());
    for &chunks in chunk_splits {
        for &c in &comps {
            out.push((c, chunks));
        }
    }
    out
}

/// Prices one schedule the way the figure sweeps do: boost-plan
/// reconstruction under the paper timing model, zero skew.
fn price(schedule: &CommSchedule, timing: &TimingModel) -> SimTime {
    boost::plan(schedule)
        .breakdown(timing, SimTime::ZERO)
        .total()
}

/// Tunes one request: sweeps [`candidates`], proves each with the full
/// analysis suite, prices the survivors and the paper incumbent, and
/// memoizes the winner in the schedule cache. Warm calls are a map
/// lookup.
///
/// # Errors
///
/// Whatever the paper builder, composed builder or validator return for
/// this request. Candidates that fail to *build* or *prove* are skipped,
/// not errors; the paper incumbent failing is an error.
pub fn tune(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
) -> Result<Arc<TunedChoice>, PimnetError> {
    tune_probed(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        Probe::disabled(),
    )
}

/// [`tune`] with cache observability for the underlying lookups.
///
/// # Errors
///
/// See [`tune`].
pub fn tune_probed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
) -> Result<Arc<TunedChoice>, PimnetError> {
    cache::tuned_cached_with(kind, geometry, elems_per_node, elem_bytes, probe, || {
        tune_uncached(kind, geometry, elems_per_node, elem_bytes, probe)
    })
}

fn tune_uncached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
) -> Result<TunedChoice, PimnetError> {
    let timing = TimingModel::paper();
    let paper = cache::build_cached_probed(kind, geometry, elems_per_node, elem_bytes, probe)?;
    let paper_time = price(&paper, &timing);

    let cands = candidates(kind, geometry, elems_per_node);
    let mut best: Option<(Composition, usize)> = None;
    let mut best_schedule = paper;
    let mut best_time = paper_time;
    let mut rejected = 0usize;

    for &(comp, chunks) in &cands {
        // Re-prove the candidate: any diagnostic at all disqualifies it.
        let summary = match cache::analyze_composed_cached(
            kind,
            geometry,
            elems_per_node,
            elem_bytes,
            comp,
            chunks,
            probe,
        ) {
            Ok(s) => s,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        if !summary.report.is_clean() {
            rejected += 1;
            continue;
        }
        let schedule = cache::build_composed_cached_probed(
            kind,
            geometry,
            elems_per_node,
            elem_bytes,
            comp,
            chunks,
            probe,
        )?;
        let t = price(&schedule, &timing);
        // Strict improvement only: the incumbent (and earlier
        // candidates) keep ties, making the sweep order a total
        // tie-break and the winner deterministic.
        if t < best_time {
            best = Some((comp, chunks));
            best_schedule = schedule;
            best_time = t;
        }
    }

    Ok(TunedChoice {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        winner: best,
        schedule: best_schedule,
        tuned_time: best_time,
        paper_time,
        candidates: cands.len(),
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn candidate_order_is_deterministic_and_deduped() {
        let g = PimGeometry::paper_scaled(64);
        let a = candidates(CollectiveKind::AllReduce, &g, 1024);
        let b = candidates(CollectiveKind::AllReduce, &g, 1024);
        assert_eq!(a, b);
        let mut seen = a.clone();
        seen.dedup();
        assert_eq!(seen.len(), a.len(), "duplicate candidates");
        // Chunked variants only for AllReduce with payload >= 2.
        assert!(a.iter().any(|&(_, c)| c == 2));
        assert!(candidates(CollectiveKind::AllGather, &g, 1024)
            .iter()
            .all(|&(_, c)| c == 1));
        assert!(candidates(CollectiveKind::AllReduce, &g, 1)
            .iter()
            .all(|&(_, c)| c == 1));
    }

    #[test]
    fn trivial_tiers_are_canonicalized_to_ring() {
        // 8 DPUs = 8 banks x 1 chip x 1 rank: chip/rank tier choices are
        // no-ops and must not multiply the candidate list.
        let g = PimGeometry::paper_scaled(8);
        for (comp, _) in candidates(CollectiveKind::AllReduce, &g, 64) {
            assert_eq!(comp.chip, TierAlgo::Ring, "{comp}");
            assert_eq!(comp.rank, TierAlgo::Ring, "{comp}");
        }
    }

    #[test]
    fn winner_is_never_worse_than_paper_and_is_clean() {
        let _cache = crate::schedule::cache::test_lock::shared();
        let g = PimGeometry::paper_scaled(64);
        let choice = tune(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
        assert!(choice.tuned_time <= choice.paper_time);
        assert!(choice.speedup() >= 1.0);
        let report = analysis::run_all(&*choice.schedule);
        assert!(report.is_clean(), "winner not clean:\n{report}");
        // Memoized: the second call shares the entry.
        let again = tune(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
        assert!(Arc::ptr_eq(&choice, &again));
    }

    #[test]
    fn reduce_and_gather_tune_to_the_paper_schedule() {
        let _cache = crate::schedule::cache::test_lock::shared();
        // No composed form exists for the rooted converge collectives:
        // the candidate list is empty and the incumbent wins.
        let g = PimGeometry::paper_scaled(16);
        assert!(candidates(CollectiveKind::Reduce, &g, 64).is_empty());
        let choice = tune(CollectiveKind::Reduce, &g, 64, 4).unwrap();
        assert!(choice.winner.is_none());
        assert_eq!(choice.spec(), "paper");
        assert_eq!(choice.tuned_time, choice.paper_time);
    }
}
