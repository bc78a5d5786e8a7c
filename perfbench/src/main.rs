//! Host-time benchmark of the PIMnet simulator.
//!
//! Usage:
//! `pimnet-perfbench --workload <compile|tune|serve-clean|serve-storm>
//!  --seed <n> --seconds <s> --trace <0|1>`.
//!
//! One process runs one workload on one worker thread, starting from an
//! empty schedule cache with zeroed counters. A run repeats a fixed unit
//! of work (a *round*: a compile pass, a tune pass, a window of serve
//! traces) and starts no round it expects to end after `--seconds`. Each
//! round is preceded by its set-up, which is timed separately. Round 0
//! is a warm-up that no metric counts, and end-to-end times are scaled
//! to a nominal host speed by the gauge in `gauge.rs`. The last line of
//! standard output is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer ones. `README.md`
//! beside this crate says why each workload exists and which layer
//! should move which end-to-end metric.

#![forbid(unsafe_code)]

mod compile;
mod gauge;
mod serve;
mod spans;
mod tune;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use gauge::{Gauge, NOMINAL_SLICE_S};
use pimnet::schedule::cache::{self, CacheStats, LintCacheStats};
use spans::Tracer;

/// The seed the pinned serve request-log digests were taken at (the
/// serving soak's default base seed).
pub const DEFAULT_SEED: u64 = 0xD1;

/// The compile layers, in pipeline order. Each gets `<layer>_ms` and
/// `<layer>_ns_per_transfer.x{8,64,256}` in the traced run.
pub const COMPILE_LAYERS: [&str; 9] = [
    "schedule.build",
    "schedule.validate",
    "analysis.run_all",
    "boost.plan",
    "boost.breakdown",
    "timeline.build",
    "timing.time_schedule",
    "exec.run",
    "isa.compile",
];

/// DPU counts of the compile matrix.
pub const COMPILE_DPUS: [u32; 3] = [8, 64, 256];

/// Per-layer metrics that are counts; every other per-layer metric is a
/// time (or the tracing-overhead rate).
const COUNTERS: [&str; 17] = [
    "schedule.transfers",
    "schedule.steps",
    "autotune.candidates",
    "autotune.rejected",
    "serve.requests",
    "serve.served",
    "serve.shed",
    "serve.host_fallback",
    "recovery.steps",
    "recovery.retries",
    "recovery.replans",
    "exec.steps",
    "cache.hits",
    "cache.misses",
    "cache.schedules_built",
    "cache.lint_hits",
    "cache.lint_misses",
];

/// What one round did.
#[derive(Default)]
pub struct Round {
    /// Operations completed.
    pub ops: u64,
    /// Host seconds spent in the timed calls (checks excluded), as
    /// measured, before scaling to the nominal host speed.
    pub secs: f64,
    /// Operations whose output checks failed.
    pub failed: u64,
    /// Per-layer times of a traced round, by metric name.
    pub times: Vec<(String, f64)>,
    /// Deterministic counts, by metric name (every round).
    pub counts: Vec<(String, u64)>,
    /// Why operations failed.
    pub notes: Vec<String>,
}

/// One workload: a repeatable round plus its set-up.
pub trait Workload {
    /// Prepares round `r` (input generation, cache clearing, priming).
    /// Timed as `setup_s`.
    fn setup(&mut self, r: usize);
    /// Runs round `r`, timing only the calls into the simulator, each
    /// through `gauge`.
    fn round(&mut self, r: usize, tr: &mut Tracer, gauge: &mut Gauge) -> Round;
    /// Whether every round runs the same inputs, so that its counts must
    /// repeat exactly from round to round.
    fn fixed_inputs(&self) -> bool;
    /// Checks run after the timed section (not timed, not in peak RSS).
    fn finish(&mut self) -> Round {
        Round::default()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The process high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, for the pinned output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Both cache counter sets, read together.
pub fn cache_counters() -> (CacheStats, LintCacheStats) {
    (cache::stats(), cache::lint_stats())
}

/// The cache counts since `before`, under their per-layer names.
pub fn cache_deltas(before: (CacheStats, LintCacheStats)) -> Vec<(String, u64)> {
    let (s, l) = cache_counters();
    let (s0, l0) = before;
    [
        ("cache.hits", s.hits - s0.hits),
        ("cache.misses", s.misses - s0.misses),
        (
            "cache.schedules_built",
            s.schedules_built - s0.schedules_built,
        ),
        ("cache.lint_hits", l.hits - l0.hits),
        ("cache.lint_misses", l.misses - l0.misses),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Everything a run measured.
struct Measured {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    rate_untraced: Vec<f64>,
    rate_traced: Vec<f64>,
    peak_rss_mb: f64,
    rounds: usize,
    times: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, u64>,
    notes: Vec<String>,
}

/// Runs rounds for up to `seconds`. Round 0 is a warm-up that neither
/// rate counts (it alone pays the process's first touch of its heap). In
/// a traced run, odd rounds are then traced and even ones are not, so the
/// tracing overhead is measured within the same process.
fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
    gauge: &mut Gauge,
) -> Measured {
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        setup_s: Vec::new(),
        rate_untraced: Vec::new(),
        rate_traced: Vec::new(),
        peak_rss_mb: 0.0,
        rounds: 0,
        times: BTreeMap::new(),
        counts: BTreeMap::new(),
        notes: Vec::new(),
    };
    // The first round's counts, per tracedness: tracing adds probe counts.
    let mut first_counts: [Option<Vec<(String, u64)>>; 2] = [None, None];
    let start = Instant::now();
    let min_rounds = if trace { 3 } else { 2 };
    let mut r = 0;
    let mut last_round = 0.0;
    // Start no round that, as long as the last one, would end after
    // `seconds`, so a run never overshoots its time.
    while r < min_rounds || start.elapsed().as_secs_f64() + last_round <= seconds {
        let round_start = Instant::now();
        let mut setup = 0.0;
        gauge.time(&mut setup, || w.setup(r));
        m.setup_s.push(setup * NOMINAL_SLICE_S / gauge.take());

        let traced = trace && r % 2 == 1;
        tr.set_enabled(traced);
        let mut round = w.round(r, tr, gauge);
        tr.set_enabled(false);
        let slice = gauge.take();

        match &first_counts[usize::from(traced)] {
            None => first_counts[usize::from(traced)] = Some(round.counts.clone()),
            Some(first) if w.fixed_inputs() && *first != round.counts => {
                round.notes.push(format!(
                    "round {r}: counts {:?} differ from the first round's {:?}",
                    round.counts, first
                ));
                round.failed = round.ops;
            }
            Some(_) => {}
        }
        m.attempted += round.ops;
        m.failed += round.failed;
        m.notes.append(&mut round.notes);
        let rate = if round.secs > 0.0 {
            round.ops as f64 * slice / (round.secs * NOMINAL_SLICE_S)
        } else {
            0.0
        };
        eprintln!(
            "round {r}: setup {:.3} s, {} ops in {:.3} s timed ({:.3} s nominal, \
             slice {:.3} ms), {:.3} s elapsed",
            m.setup_s[r],
            round.ops,
            round.secs,
            round.secs * NOMINAL_SLICE_S / slice,
            slice * 1e3,
            start.elapsed().as_secs_f64()
        );
        if r == 0 {
            // Warm-up.
        } else if traced {
            m.rate_traced.push(rate);
            for (name, v) in round.times {
                m.times.entry(name).or_default().push(v);
            }
        } else {
            m.rate_untraced.push(rate);
        }
        last_round = round_start.elapsed().as_secs_f64();
        r += 1;
    }
    m.peak_rss_mb = peak_rss_mb();
    m.rounds = r;
    // Round 0 starts on a fresh process with nothing to reset; later
    // set-ups also drop what the previous round left in the caches.
    if m.setup_s.len() > 1 {
        m.setup_s.remove(0);
    }
    let [untraced, traced] = first_counts;
    for (name, v) in (if trace { traced } else { untraced }).unwrap_or_default() {
        m.counts.insert(name, v);
    }
    let mut tail = w.finish();
    m.attempted += tail.ops;
    m.failed += tail.failed;
    m.notes.append(&mut tail.notes);
    m
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile" => Box::new(compile::Compile::new()),
        "tune" => Box::new(tune::Tune::new()),
        "serve-clean" => Box::new(serve::Serve::new(seed, false)),
        "serve-storm" => Box::new(serve::Serve::new(seed, true)),
        _ => return None,
    })
}

/// The per-layer metric names, in the order the traced run prints them.
fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for layer in COMPILE_LAYERS {
        names.push(format!("{layer}_ms"));
        for dpus in COMPILE_DPUS {
            names.push(format!("{layer}_ns_per_transfer.x{dpus}"));
        }
    }
    names.extend(
        [
            "autotune.tune_ms",
            "autotune.ms_per_candidate",
            "serve.serve_ms",
            "serve.ms_per_request",
            "trace.overhead_ops_per_s",
        ]
        .map(String::from),
    );
    names.extend(COUNTERS.map(String::from));
    names
}

fn unit_of(name: &str) -> &'static str {
    if COUNTERS.contains(&name) {
        "count"
    } else if name.contains("_ns_per_transfer") {
        "ns"
    } else if name == "trace.overhead_ops_per_s" {
        "1/s"
    } else {
        "ms"
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: pimnet-perfbench --workload <compile|tune|serve-clean|serve-storm> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // One worker: the caches are process-global and the figures must not
    // depend on the machine's core count.
    std::env::set_var("PIMNET_THREADS", "1");
    cache::clear();
    cache::reset_stats();

    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let mut tr = Tracer::new();
    let mut gauge = Gauge::new();
    let m = measure(w.as_mut(), args.seconds, args.trace, &mut tr, &mut gauge);

    for note in &m.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;
    println!(
        "workload {} seed {} rounds {} (traced {})",
        args.workload,
        args.seed,
        m.rounds,
        m.rate_traced.len()
    );
    println!(
        "error_rate {error_rate} fraction ({} of {} operations failed)",
        m.failed, m.attempted
    );

    let mut json = String::from("{");
    if args.trace {
        let traced = median(&m.rate_traced);
        let untraced = median(&m.rate_untraced);
        for name in per_layer_names() {
            let value = if let Some(v) = m.times.get(&name) {
                median(v)
            } else if let Some(&c) = m.counts.get(&name) {
                c as f64
            } else {
                match name.as_str() {
                    "trace.overhead_ops_per_s" => traced - untraced,
                    // A layer this workload does not reach.
                    _ => 0.0,
                }
            };
            let unit = unit_of(&name);
            println!("{name} {value} {unit}");
            json_metric(&mut json, &name, value, unit);
        }
        let dir = std::path::Path::new(".bench_build").join("perfbench");
        let path = dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_csv()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    } else {
        let e2e = [
            ("setup_s", median(&m.setup_s), "s"),
            ("ops_per_s", median(&m.rate_untraced), "1/s"),
            ("peak_rss_mb", m.peak_rss_mb, "MB"),
        ];
        for (name, value, unit) in e2e {
            println!("{name} {value} {unit}");
            json_metric(&mut json, name, value, unit);
        }
    }
    json.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        m.failed == 0,
        m.attempted,
        m.failed
    );
    ExitCode::SUCCESS
}
