//! `compile`: every collective kind through the whole host pipeline.
//!
//! One operation compiles one cell of 7 kinds × {8, 64, 256} DPUs ×
//! {64, 1024} elements: build → validate → analysis → boost plan and
//! price → timeline → timing → functional execution → ISA compilation.
//! The matrix is fixed; `--seed` does not change it. The schedule cache is
//! never used, so every pass pays the cold cost, as `lint --all-presets`
//! and each repair re-proof do.

use std::collections::BTreeMap;

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_sim::SimTime;
use pimnet::analysis;
use pimnet::exec::{ExecMachine, ReduceOp};
use pimnet::isa;
use pimnet::schedule::{boost, validate, CommSchedule};
use pimnet::timeline::Timeline;
use pimnet::timing::TimingModel;
use pimnet::CollectiveKind;

use crate::gauge::Gauge;
use crate::spans::Tracer;
use crate::{Round, Workload, COMPILE_DPUS, COMPILE_LAYERS};

const ELEMS: [usize; 2] = [64, 1024];
const ELEM_BYTES: u32 = 4;

/// The modeled outputs of every cell at the commit the benchmark was
/// written against: `kind,dpus,elems,transfers,steps,boost_ps,timing_ps,
/// timeline_end_ps,isa_instrs`. A host-speed change must leave every
/// row identical.
const PINNED: &str = include_str!("../pinned/compile_modeled.csv");

struct Cell {
    kind: CollectiveKind,
    dpus: u32,
    elems: usize,
    /// Each node's contribution (the functional executor's input).
    inputs: Vec<Vec<u32>>,
}

pub struct Compile {
    cells: Vec<Cell>,
    pinned: BTreeMap<String, String>,
    timing: TimingModel,
}

/// What one cell's pipeline produced, kept for the untimed checks.
struct Output {
    schedule: CommSchedule,
    validated: bool,
    clean: bool,
    boost_ps: u64,
    timing_ps: u64,
    timeline_end_ps: u64,
    machine: ExecMachine<u32>,
    isa_instrs: Option<usize>,
}

/// Node- and element-dependent payload, so a wrong contributor or a
/// misplaced element changes bits.
fn payload(node: usize, e: usize) -> u32 {
    (node as u32)
        .wrapping_mul(100_003)
        .wrapping_add(e as u32 * 7 + 1)
}

impl Compile {
    pub fn new() -> Self {
        let pinned = PINNED
            .lines()
            .skip(1)
            .filter_map(|l| {
                let key = l.splitn(4, ',').take(3).collect::<Vec<_>>().join(",");
                (!key.is_empty()).then(|| (key, l.to_string()))
            })
            .collect();
        Compile {
            cells: Vec::new(),
            pinned,
            timing: TimingModel::paper(),
        }
    }

    /// Runs one cell's pipeline, each call in its own span.
    fn pipeline(&self, cell: &Cell, tr: &mut Tracer) -> Result<Output, String> {
        let geometry = PimGeometry::paper_scaled(cell.dpus);
        let schedule = tr
            .span("schedule.build", |_| {
                CommSchedule::build(cell.kind, &geometry, cell.elems, ELEM_BYTES)
            })
            .map_err(|e| format!("build: {e}"))?;
        let validated = tr
            .span("schedule.validate", |_| validate::validate(&schedule))
            .is_ok();
        let clean = tr
            .span("analysis.run_all", |_| analysis::run_all(&schedule))
            .is_clean();
        let plan = tr.span("boost.plan", |_| boost::plan(&schedule));
        let boost_ps = tr
            .span("boost.breakdown", |_| {
                plan.breakdown(&self.timing, SimTime::ZERO)
            })
            .total()
            .as_ps();
        let timeline_end_ps = tr
            .span("timeline.build", |_| {
                Timeline::build(&schedule, &self.timing)
            })
            .end
            .as_ps();
        let timing_ps = tr
            .span("timing.time_schedule", |_| {
                self.timing.time_schedule(&schedule, SimTime::ZERO)
            })
            .total()
            .as_ps();
        let machine = tr.span("exec.run", |_| {
            let mut m = ExecMachine::init(&schedule, |id| cell.inputs[id.index()].clone());
            m.run(&schedule, ReduceOp::Sum);
            m
        });
        let isa_instrs = tr
            .span("isa.compile", |_| isa::compile(&schedule))
            .ok()
            .map(|c| c.instruction_count());
        Ok(Output {
            schedule,
            validated,
            clean,
            boost_ps,
            timing_ps,
            timeline_end_ps,
            machine,
            isa_instrs,
        })
    }

    /// The modeled row this cell is pinned to.
    fn modeled_row(cell: &Cell, out: &Output) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            cell.kind,
            cell.dpus,
            cell.elems,
            out.schedule.transfer_count(),
            out.schedule.step_count(),
            out.boost_ps,
            out.timing_ps,
            out.timeline_end_ps,
            out.isa_instrs.map_or(-1, |n| n as i64),
        )
    }

    /// Every output check of one cell; the first that fails, if any.
    fn check(&self, cell: &Cell, out: &Output) -> Result<(), String> {
        if !out.validated {
            return Err("schedule::validate rejected the schedule".into());
        }
        if !out.clean {
            return Err("analysis::run_all reported diagnostics".into());
        }
        check_exec(cell, out)?;
        let row = Self::modeled_row(cell, out);
        let key = format!("{},{},{}", cell.kind, cell.dpus, cell.elems);
        match self.pinned.get(&key) {
            Some(pinned) if *pinned == row => Ok(()),
            Some(pinned) => Err(format!("modeled row {row} differs from pinned {pinned}")),
            None => Err(format!("no pinned row for {key} (observed {row})")),
        }
    }
}

/// Compares every node's result with a reference computed from the
/// inputs.
fn check_exec(cell: &Cell, out: &Output) -> Result<(), String> {
    let s = &out.schedule;
    let n = cell.elems;
    let nodes = cell.inputs.len();
    let reduced: Vec<u32> = (0..n)
        .map(|e| {
            cell.inputs
                .iter()
                .fold(0u32, |acc, input| acc.wrapping_add(input[e]))
        })
        .collect();
    let concat: Vec<u32> = cell.inputs.iter().flatten().copied().collect();
    let chunk = n.div_ceil(nodes).max(1);
    let mut owned = vec![0u32; n];
    for i in 0..nodes {
        let id = DpuId(i as u32);
        let expected: Vec<u32> = match cell.kind {
            CollectiveKind::AllReduce => reduced.clone(),
            CollectiveKind::ReduceScatter => s.result_spans[i]
                .iter()
                .flat_map(|sp| sp.range())
                .map(|e| {
                    owned[e] += 1;
                    reduced[e]
                })
                .collect(),
            CollectiveKind::AllGather => concat.clone(),
            CollectiveKind::Broadcast => cell.inputs[0].clone(),
            CollectiveKind::Reduce if i == 0 => reduced.clone(),
            CollectiveKind::Gather if i == 0 => concat.clone(),
            CollectiveKind::Reduce | CollectiveKind::Gather => Vec::new(),
            CollectiveKind::AllToAll => (0..nodes)
                .flat_map(|j| {
                    (i * chunk..(i + 1) * chunk)
                        .map(move |e| cell.inputs[j].get(e).copied().unwrap_or(0))
                })
                .collect(),
        };
        if out.machine.result(s, id) != expected {
            return Err(format!(
                "exec result of node {i} differs from the reference"
            ));
        }
    }
    if cell.kind == CollectiveKind::ReduceScatter && owned.iter().any(|&c| c != 1) {
        return Err("reduce-scatter results do not partition the vector".into());
    }
    Ok(())
}

impl Workload for Compile {
    /// Input generation: every node's contribution for every cell.
    fn setup(&mut self, _r: usize) {
        self.cells.clear();
        for kind in CollectiveKind::ALL {
            for dpus in COMPILE_DPUS {
                for elems in ELEMS {
                    let inputs = (0..dpus as usize)
                        .map(|node| (0..elems).map(|e| payload(node, e)).collect())
                        .collect();
                    self.cells.push(Cell {
                        kind,
                        dpus,
                        elems,
                        inputs,
                    });
                }
            }
        }
    }

    fn round(&mut self, _r: usize, tr: &mut Tracer, gauge: &mut Gauge) -> Round {
        let mut round = Round::default();
        let mark = tr.mark();
        let before = crate::cache_counters();
        let mut transfers = 0u64;
        let mut steps = 0u64;
        let mut op_dpus = BTreeMap::new();
        let mut transfers_at = BTreeMap::new();
        for cell in &self.cells {
            let op = tr.next_op();
            let out = gauge.time(&mut round.secs, || {
                tr.span("compile.cell", |tr| self.pipeline(cell, tr))
            });
            round.ops += 1;
            let verdict = out.and_then(|out| {
                let n = out.schedule.transfer_count() as u64;
                transfers += n;
                steps += out.schedule.step_count() as u64;
                *transfers_at.entry(cell.dpus).or_insert(0u64) += n;
                op_dpus.insert(op, cell.dpus);
                self.check(cell, &out)
            });
            if let Err(e) = verdict {
                round.failed += 1;
                round
                    .notes
                    .push(format!("{} x{} e{}: {e}", cell.kind, cell.dpus, cell.elems));
            }
        }
        round.counts = vec![
            ("schedule.transfers".into(), transfers),
            ("schedule.steps".into(), steps),
        ];
        round.counts.extend(crate::cache_deltas(before));
        if tr.enabled() {
            let mut total: BTreeMap<&str, u64> = BTreeMap::new();
            let mut at: BTreeMap<(&str, u32), u64> = BTreeMap::new();
            for (span, ns) in tr.self_times(mark) {
                if let Some(&dpus) = op_dpus.get(&span.op) {
                    *total.entry(span.name).or_insert(0) += ns;
                    *at.entry((span.name, dpus)).or_insert(0) += ns;
                }
            }
            for layer in COMPILE_LAYERS {
                let ns = total.get(layer).copied().unwrap_or(0);
                round.times.push((format!("{layer}_ms"), ns as f64 / 1e6));
                for dpus in COMPILE_DPUS {
                    let ns = at.get(&(layer, dpus)).copied().unwrap_or(0) as f64;
                    let n = transfers_at.get(&dpus).copied().unwrap_or(0).max(1) as f64;
                    round
                        .times
                        .push((format!("{layer}_ns_per_transfer.x{dpus}"), ns / n));
                }
            }
        }
        round
    }

    fn fixed_inputs(&self) -> bool {
        true
    }
}
