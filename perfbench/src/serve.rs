//! `serve-clean` and `serve-storm`: `serve()` over the serving soak's
//! three DLRM tenants.
//!
//! One operation is one request retired by `serve()`. Each round starts
//! from an empty schedule cache primed by one clean `serve()` call on a
//! seed outside the timed set, as a long-lived server would be.
//!
//! * `serve-clean` serves consecutive seeds from `--seed`, 20 traces per
//!   round. Per-request host cost barely varies between seeds. After the
//!   timed section it serves the default-seed window again and checks it
//!   against the pinned request-log digest, whatever `--seed` was.
//! * `serve-storm` serves the pinned window of storm seeds below every
//!   round, without clearing the cache between its traces, so schedules
//!   and lint summaries keyed by health epoch pile up as they would in a
//!   long-lived server. A storm trace's host cost varies about 70x between
//!   seeds (0.05-4.3 s measured), so a seed-chosen window could not give
//!   a steady rate; `--seed` instead picks one held-out storm trace,
//!   checked after the timed section.

use pim_sim::{MetricsReport, Probe};
use pimnet::schedule::cache;
use pimnet::serve::{self, ServeConfig, ServeReport};
use pimnet::PimnetError;
use pimnet_bench::sweeps;

use crate::gauge::Gauge;
use crate::spans::Tracer;
use crate::{fnv1a, Round, Workload, DEFAULT_SEED};

const TENANTS: usize = 3;
/// Traces per `serve-clean` round (about half a second of serving).
const CLEAN_TRACES: u64 = 20;
/// The `serve-storm` window: four consecutive storm seeds. Without
/// eviction the caches grow with every storm trace (12 traces reached
/// 4.3 GB); four keep the peak near 1.7 GB, well inside a 16 GB machine.
const STORM_SEEDS: std::ops::Range<u64> = DEFAULT_SEED..DEFAULT_SEED + 4;

/// FNV-1a digests of the concatenated request logs of the default-seed
/// window (`serve-clean`) and of every round (`serve-storm`).
const PINNED: &str = include_str!("../pinned/serve_digests.txt");

pub struct Serve {
    seed: u64,
    storm: bool,
    pinned: Option<u64>,
}

/// The soundness invariants `serve_soak` verdicts every cell on: one
/// outcome per arrival, a ladder that only climbs, quarantine epochs
/// that never regress.
fn check(cfg: &ServeConfig, report: &ServeReport) -> Result<(), String> {
    let arrivals = serve::sample_arrivals(cfg).len();
    if report.log.len() != arrivals {
        return Err(format!(
            "{} log entries for {arrivals} arrivals",
            report.log.len()
        ));
    }
    if report
        .log
        .iter()
        .enumerate()
        .any(|(i, r)| r.request.id != i as u64)
    {
        return Err("request log is not one record per request id".into());
    }
    let mut level = 0u8;
    for s in &report.ladder {
        if s.level < level {
            return Err(format!("ladder dropped to {} at {} ps", s.level, s.at_ps));
        }
        level = s.level;
    }
    let mut epochs = vec![0u64; cfg.tenants.len()];
    for q in &report.quarantines {
        let e = &mut epochs[q.tenant as usize];
        if q.epoch < *e {
            return Err(format!(
                "tenant {} epoch regressed to {}",
                q.tenant, q.epoch
            ));
        }
        *e = q.epoch;
    }
    Ok(())
}

/// Counts one `serve()` result into `round` and checks it. Returns the
/// report when `serve()` succeeded.
fn tally(
    cfg: &ServeConfig,
    label: &str,
    result: Result<ServeReport, PimnetError>,
    round: &mut Round,
) -> Option<ServeReport> {
    match result {
        Ok(report) => {
            let n = report.log.len() as u64;
            round.ops += n;
            if let Err(e) = check(cfg, &report) {
                round.failed += n;
                round.notes.push(format!("{label}: {e}"));
            }
            Some(report)
        }
        Err(e) => {
            round.ops += 1;
            round.failed += 1;
            round.notes.push(format!("{label}: serve failed: {e}"));
            None
        }
    }
}

/// Fails every operation of `round` unless `logs` hash to `pinned`.
fn check_digest(pinned: Option<u64>, logs: &str, label: &str, round: &mut Round) {
    let digest = fnv1a(logs.as_bytes());
    if pinned != Some(digest) {
        round.failed = round.ops;
        round.notes.push(format!(
            "{label}: request-log digest {digest:016x} differs from the pinned one"
        ));
    }
}

impl Serve {
    pub fn new(seed: u64, storm: bool) -> Self {
        let name = if storm { "serve-storm" } else { "serve-clean" };
        let pinned = PINNED
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok());
        Serve {
            seed,
            storm,
            pinned,
        }
    }

    /// The clean traces from `first`, one round's worth.
    fn clean_window(first: u64, r: usize) -> Vec<u64> {
        (0..CLEAN_TRACES)
            .map(|i| first.wrapping_add(r as u64 * CLEAN_TRACES + i))
            .collect()
    }

    fn seeds(&self, r: usize) -> Vec<u64> {
        if self.storm {
            STORM_SEEDS.collect()
        } else {
            Self::clean_window(self.seed, r)
        }
    }

    /// Empties the cache and primes it with one clean trace on the seed
    /// just below `first`, outside the timed seeds.
    fn prime(first: u64) {
        cache::clear();
        let cfg = sweeps::serve_soak_config(TENANTS, first.wrapping_sub(1), false);
        // A priming failure shows up again in the traces' checks.
        let _ = serve::serve(&cfg);
    }
}

impl Workload for Serve {
    /// An empty cache primed by one clean trace outside the timed seeds.
    fn setup(&mut self, r: usize) {
        Self::prime(self.seeds(r)[0]);
    }

    fn round(&mut self, r: usize, tr: &mut Tracer, gauge: &mut Gauge) -> Round {
        let mut round = Round::default();
        let mark = tr.mark();
        let before = crate::cache_counters();
        let mut metrics = MetricsReport::new();
        let (mut served, mut shed, mut host_fallback) = (0u64, 0u64, 0u64);
        let mut logs = String::new();
        for seed in self.seeds(r) {
            let cfg = sweeps::serve_soak_config(TENANTS, seed, self.storm);
            tr.next_op();
            let probe = tr.enabled().then(Probe::metrics_only);
            let result = gauge.time(&mut round.secs, || {
                tr.span("serve.serve", |_| match &probe {
                    Some(p) => serve::serve_probed(&cfg, p),
                    None => serve::serve(&cfg),
                })
            });
            if let Some(p) = &probe {
                metrics.merge(&p.metrics.snapshot());
            }
            if let Some(report) = tally(&cfg, &format!("seed {seed}"), result, &mut round) {
                served += report.count("served") as u64;
                shed += report.count("shed") as u64;
                host_fallback += report.count("host-fallback") as u64;
                if self.storm {
                    logs.push_str(&report.render_log(&cfg));
                }
            }
        }
        if self.storm {
            check_digest(self.pinned, &logs, &format!("round {r}"), &mut round);
        }
        round.counts = vec![
            ("serve.requests".into(), round.ops),
            ("serve.served".into(), served),
            ("serve.shed".into(), shed),
            ("serve.host_fallback".into(), host_fallback),
        ];
        round.counts.extend(crate::cache_deltas(before));
        if tr.enabled() {
            round.counts.extend(
                [
                    ("recovery.steps", metrics.recovery_steps),
                    ("recovery.retries", metrics.recovery_retries),
                    ("recovery.replans", metrics.recovery_replans),
                    ("exec.steps", metrics.exec_steps),
                ]
                .map(|(name, v)| (name.to_string(), v)),
            );
            let ms = tr
                .self_by_name(mark)
                .get("serve.serve")
                .copied()
                .unwrap_or(0) as f64
                / 1e6;
            round.times.push(("serve.serve_ms".into(), ms));
            round
                .times
                .push(("serve.ms_per_request".into(), ms / round.ops.max(1) as f64));
        }
        round
    }

    fn fixed_inputs(&self) -> bool {
        self.storm
    }

    /// Checks run on every run, whatever `--seed` is: `serve-clean`
    /// re-serves the default-seed window on a freshly primed cache and
    /// compares its digest with the pinned one; `serve-storm` serves its
    /// held-out `--seed` trace on the cache a round starts from.
    fn finish(&mut self) -> Round {
        let mut round = Round::default();
        if self.storm {
            self.setup(0);
            let cfg = sweeps::serve_soak_config(TENANTS, self.seed, true);
            let label = format!("held-out seed {}", self.seed);
            tally(&cfg, &label, serve::serve(&cfg), &mut round);
            return round;
        }
        Self::prime(DEFAULT_SEED);
        let mut logs = String::new();
        for seed in Self::clean_window(DEFAULT_SEED, 0) {
            let cfg = sweeps::serve_soak_config(TENANTS, seed, false);
            if let Some(report) = tally(
                &cfg,
                &format!("seed {seed}"),
                serve::serve(&cfg),
                &mut round,
            ) {
                logs.push_str(&report.render_log(&cfg));
            }
        }
        check_digest(self.pinned, &logs, "default-seed window", &mut round);
        round
    }
}
