//! The paper's lint preset matrix, shared by the CLI `lint --all-presets`
//! command and the `perf_gate` benchmark harness.
//!
//! Two families of cases:
//!
//! * **clean presets** — every collective on the paper's 8/64/256-DPU
//!   geometries at two payload sizes, linted as built;
//! * **fault storms** — sampled permanent-fault scenarios whose repaired
//!   schedules are re-proven (storms that make DPUs unreachable are
//!   *skipped*: repair cannot keep every participant there, the
//!   degradation ladder shrinks instead).
//!
//! Every case is a pure function of its parameters, so running the matrix
//! with any worker count produces the same ordered results. Schedule
//! builds and repairs go through [`crate::schedule::cache`], which is what
//! makes a warm re-run of the matrix cheap.

use pim_arch::geometry::PimGeometry;
use pim_faults::{FaultConfig, FaultInjector, PermanentFaultRates};
use pim_sim::Probe;

use crate::collective::CollectiveKind;
use crate::schedule::{cache, repair, Composition};

use super::AnalysisReport;

/// Geometries of the clean preset sweep (Tables II/IV/VI).
pub const CLEAN_DPUS: [u32; 3] = [8, 64, 256];
/// Payload sizes (elements per node) of the clean preset sweep.
pub const CLEAN_ELEMS: [usize; 2] = [64, 1024];
/// Geometries of the sampled permanent-fault storms.
pub const STORM_DPUS: [u32; 2] = [64, 256];
/// Seeds of the sampled permanent-fault storms.
pub const STORM_SEEDS: [u64; 3] = [1, 2, 3];
/// Elements per node used by every storm case.
pub const STORM_ELEMS: usize = 256;
/// Hierarchical compositions of the composed clean presets (applied per
/// collective where [`Composition::applies_to`] admits them, on the
/// 64-DPU geometry at the small payload).
pub const COMPOSED_SPECS: [&str; 3] = [
    "direct_direct_direct",
    "ring_direct_ring",
    "rabenseifner_ring_direct",
];
/// Geometry of the composed clean presets.
pub const COMPOSED_DPUS: u32 = 64;

/// One case of the preset matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresetCase {
    /// Collective under analysis.
    pub kind: CollectiveKind,
    /// Total DPUs of the preset geometry.
    pub dpus: u32,
    /// Elements contributed per node.
    pub elems: usize,
    /// `Some(seed)` for a sampled permanent-fault storm, `None` for a
    /// clean preset.
    pub storm_seed: Option<u64>,
    /// `Some(composition)` to lint the hierarchical composed schedule
    /// instead of the paper's Table V builder. Never combined with a
    /// storm (repair only targets paper schedules).
    pub algo: Option<Composition>,
}

impl PresetCase {
    /// The label the CLI prints for this case, e.g. `AllReduce x8 e64`
    /// or `AllReduce x64 storm seed 1`.
    #[must_use]
    pub fn label(&self) -> String {
        match (self.storm_seed, self.algo) {
            (None, None) => format!("{} x{} e{}", self.kind, self.dpus, self.elems),
            (None, Some(comp)) => {
                format!("{} x{} e{} algo {comp}", self.kind, self.dpus, self.elems)
            }
            (Some(seed), _) => format!("{} x{} storm seed {seed}", self.kind, self.dpus),
        }
    }

    /// Builds (and for storms, repairs) the case's schedule and runs the
    /// full analysis suite over it.
    ///
    /// # Errors
    ///
    /// A human-readable reason the case has no lintable full-size
    /// schedule: the storm's faults leave DPUs unreachable, or (should a
    /// builder ever regress) the build or repair itself failed. Callers
    /// treat storm errors as skips and clean-preset errors as fatal.
    pub fn run(&self) -> Result<AnalysisReport, String> {
        let g = PimGeometry::paper_scaled(self.dpus);
        let probe = Probe::disabled();
        let Some(seed) = self.storm_seed else {
            // Pass summaries are memoized per (kind, geometry, payload):
            // identical geometries across presets — and across repeated
            // `lint --all-presets` fan-outs in one invocation — are
            // proven once and recalled, not re-proven.
            let summary = match self.algo {
                Some(comp) => {
                    cache::analyze_composed_cached(self.kind, &g, self.elems, 4, comp, 1, probe)
                        .map_err(|e| e.to_string())?
                }
                None => cache::analyze_cached(self.kind, &g, self.elems, 4, probe)
                    .map_err(|e| e.to_string())?,
            };
            return Ok(summary.report.clone());
        };
        // Keep the expected fault count roughly constant across
        // geometries, so large systems still sample *repairable* storms
        // instead of always partitioning a ring.
        let rate = 2.0 / f64::from(self.dpus);
        let cfg = FaultConfig {
            perm_rates: PermanentFaultRates {
                segment_prob: rate,
                port_prob: rate,
                rank_prob: 0.0,
            },
            ..FaultConfig::none()
        }
        .with_seed(seed);
        let injector = FaultInjector::new(cfg);
        let faults =
            injector.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
        if faults.is_empty() {
            let summary = cache::analyze_cached(self.kind, &g, self.elems, 4, probe)
                .map_err(|e| e.to_string())?;
            return Ok(summary.report.clone());
        }
        let unusable = repair::unusable_dpus(&g, &faults);
        if !unusable.is_empty() {
            return Err(format!(
                "{} DPU(s) unreachable under these faults ({unusable:?}); repair cannot \
                 keep every participant, so there is no full-size schedule to lint",
                unusable.len()
            ));
        }
        // Storms re-prove by delta against the cached base summary: the
        // structural/sync/dataflow work for the shared geometry is done
        // once, and each storm only re-lints the steps its repair dirtied.
        let (summary, _delta) = cache::analyze_repaired_cached_at_epoch(
            self.kind, &g, self.elems, 4, &faults, 0, probe,
        )
        .map_err(|e| format!("repair failed: {e}"))?;
        Ok(summary.report.clone())
    }
}

/// The full preset matrix, in the order the CLI reports it: every clean
/// preset (kind-major), then every composed clean preset (kind-major,
/// [`COMPOSED_SPECS`] order, applicable compositions only), then every
/// storm (geometry-major, seed, kind).
#[must_use]
pub fn cases() -> Vec<PresetCase> {
    let mut out = Vec::new();
    for kind in CollectiveKind::ALL {
        for dpus in CLEAN_DPUS {
            for elems in CLEAN_ELEMS {
                out.push(PresetCase {
                    kind,
                    dpus,
                    elems,
                    storm_seed: None,
                    algo: None,
                });
            }
        }
    }
    for kind in CollectiveKind::ALL {
        for spec in COMPOSED_SPECS {
            let comp = Composition::parse(spec).expect("pinned spec parses");
            if !comp.applies_to(kind) {
                continue;
            }
            out.push(PresetCase {
                kind,
                dpus: COMPOSED_DPUS,
                elems: CLEAN_ELEMS[0],
                storm_seed: None,
                algo: Some(comp),
            });
        }
    }
    for dpus in STORM_DPUS {
        for seed in STORM_SEEDS {
            for kind in CollectiveKind::ALL {
                out.push(PresetCase {
                    kind,
                    dpus,
                    elems: STORM_ELEMS,
                    storm_seed: Some(seed),
                    algo: None,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_the_documented_shape() {
        let all = cases();
        let clean = all
            .iter()
            .filter(|c| c.storm_seed.is_none() && c.algo.is_none())
            .count();
        let composed = all.iter().filter(|c| c.algo.is_some()).count();
        let storms = all.len() - clean - composed;
        assert_eq!(clean, 7 * 3 * 2);
        // AllReduce 3 + ReduceScatter 3 + AllGather 3 + Broadcast 2
        // (Rabenseifner banks cannot broadcast) + AllToAll 1 (all-direct
        // only); the rooted converge collectives have no composed form.
        assert_eq!(composed, 12);
        assert_eq!(storms, 2 * 3 * 7);
        assert!(all
            .iter()
            .all(|c| !(c.storm_seed.is_some() && c.algo.is_some())));
    }

    #[test]
    fn clean_presets_lint_clean() {
        let _cache = crate::schedule::cache::test_lock::shared();
        let case = PresetCase {
            kind: CollectiveKind::AllReduce,
            dpus: 8,
            elems: 64,
            storm_seed: None,
            algo: None,
        };
        let report = case.run().unwrap();
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(case.label(), "AllReduce x8 e64");
    }

    #[test]
    fn composed_presets_lint_clean() {
        let _cache = crate::schedule::cache::test_lock::shared();
        let case = PresetCase {
            kind: CollectiveKind::AllReduce,
            dpus: COMPOSED_DPUS,
            elems: 64,
            storm_seed: None,
            algo: Some(Composition::parse("ring_direct_ring").unwrap()),
        };
        let report = case.run().unwrap();
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(case.label(), "AllReduce x64 e64 algo ring_direct_ring");
    }

    #[test]
    fn storm_cases_run_or_skip_with_a_reason() {
        let _cache = crate::schedule::cache::test_lock::shared();
        for kind in [CollectiveKind::AllReduce, CollectiveKind::AllToAll] {
            let case = PresetCase {
                kind,
                dpus: 64,
                elems: STORM_ELEMS,
                storm_seed: Some(1),
                algo: None,
            };
            match case.run() {
                Ok(report) => assert!(!report.has_errors(), "{}", report.summary()),
                Err(reason) => assert!(reason.contains("unreachable"), "{reason}"),
            }
        }
    }
}
