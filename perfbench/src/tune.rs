//! `tune`: the autotuner over the pinned best-of Fig 12 matrix, cold.
//!
//! One operation tunes one of the 28 cells of
//! `sweeps::fig12_best_cells()`; every pass starts from an empty schedule
//! cache, because a sweep user pays the cold cost each time. The matrix is
//! fixed; `--seed` does not change it. Its cap on AllGather above 64 DPUs
//! stays: one cold AllGather x256 tune alone measured ~86 s.

use pim_arch::geometry::PimGeometry;
use pimnet::schedule::{autotune, cache};
use pimnet_bench::{sweeps, us, x};

use crate::gauge::Gauge;
use crate::spans::Tracer;
use crate::{Round, Workload};

/// The committed table the sweep regenerates; every tuned row must equal
/// its line byte for byte.
const EXPECTED: &str = include_str!("../../results/fig12_best.csv");

pub struct Tune {
    expected: Vec<String>,
}

impl Tune {
    pub fn new() -> Self {
        Tune {
            expected: EXPECTED.lines().skip(1).map(String::from).collect(),
        }
    }
}

impl Workload for Tune {
    fn setup(&mut self, _r: usize) {
        cache::clear();
    }

    fn round(&mut self, _r: usize, tr: &mut Tracer, gauge: &mut Gauge) -> Round {
        let mut round = Round::default();
        let mark = tr.mark();
        let before = crate::cache_counters();
        let (mut candidates, mut rejected) = (0u64, 0u64);
        for (i, (kind, dpus, elems)) in sweeps::fig12_best_cells().into_iter().enumerate() {
            tr.next_op();
            let geometry = PimGeometry::paper_scaled(dpus);
            let choice = gauge.time(&mut round.secs, || {
                tr.span("autotune.tune", |_| {
                    autotune::tune(kind, &geometry, elems, 4)
                })
            });
            round.ops += 1;
            let row = choice.map(|c| {
                candidates += c.candidates as u64;
                rejected += c.rejected as u64;
                [
                    kind.to_string(),
                    dpus.to_string(),
                    elems.to_string(),
                    us(c.paper_time),
                    us(c.tuned_time),
                    x(c.speedup()),
                    c.spec(),
                    c.candidates.to_string(),
                    c.rejected.to_string(),
                ]
                .join(",")
            });
            let expected = self.expected.get(i).map_or("", String::as_str);
            match row {
                Ok(row) if row == expected => {}
                Ok(row) => {
                    round.failed += 1;
                    round
                        .notes
                        .push(format!("tuned row {row} differs from {expected}"));
                }
                Err(e) => {
                    round.failed += 1;
                    round.notes.push(format!("{kind} x{dpus} e{elems}: {e}"));
                }
            }
        }
        if round.ops as usize != self.expected.len() {
            round.failed += 1;
            round.notes.push(format!(
                "{} cells tuned, {} rows pinned",
                round.ops,
                self.expected.len()
            ));
        }
        round.counts = vec![
            ("autotune.candidates".into(), candidates),
            ("autotune.rejected".into(), rejected),
        ];
        round.counts.extend(crate::cache_deltas(before));
        if tr.enabled() {
            let ms = tr
                .self_by_name(mark)
                .get("autotune.tune")
                .copied()
                .unwrap_or(0) as f64
                / 1e6;
            round.times.push(("autotune.tune_ms".into(), ms));
            round.times.push((
                "autotune.ms_per_candidate".into(),
                ms / candidates.max(1) as f64,
            ));
        }
        round
    }

    fn fixed_inputs(&self) -> bool {
        true
    }
}
