//! A host-speed gauge: a fixed reference kernel, timed in short slices
//! spread through the timed work, so that the end-to-end times can be
//! reported at a nominal host speed.
//!
//! The benchmark runs on a 2-vCPU virtual machine that shares its host
//! with other tenants. Their load moves the speed of the simulator's
//! code by up to about 30 % within minutes, while a latency-bound ALU
//! chain moves by about 6 %, so the loss is in throughput the vCPU
//! shares with neighbours. An L2-sized `sort_unstable` of random keys
//! (branchy, throughput-bound, like the simulator's own code) followed
//! the same drift: over 36 s windows its time correlated 0.90 with a
//! cold tune of eight cells and cut that tune's window-to-window spread
//! from 0.17 to 0.03 when divided out.
//!
//! The kernel is frozen in this file and sorts a buffer allocated once,
//! so no change to the simulator can change its speed.

use std::time::Instant;

/// Keys sorted by one slice (1 MiB, so about half the L2 of one core).
const KEYS: usize = 128 * 1024;

/// One slice runs after every this many seconds of measured work: about
/// 5 % on top of the work.
const PERIOD_S: f64 = 0.06;

/// The slice time that defines the nominal host speed: the median slice
/// on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine. A time `t` measured
/// while the median slice takes `s` is reported as
/// `t * NOMINAL_SLICE_S / s`.
pub const NOMINAL_SLICE_S: f64 = 0.003;

pub struct Gauge {
    keys: Vec<u64>,
    state: u64,
    owed: f64,
    /// Slice times since the last `take`.
    slices: Vec<f64>,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge {
            keys: vec![0; KEYS],
            state: 0x9E37_79B9_7F4A_7C15,
            owed: 0.0,
            slices: Vec::with_capacity(1024),
        }
    }

    /// Runs `f`, adds its wall time to `secs`, then runs the slices that
    /// time owes.
    pub fn time<T>(&mut self, secs: &mut f64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed().as_secs_f64();
        *secs += d;
        self.owe(d);
        out
    }

    /// Runs one slice for every `PERIOD_S` of measured work, carrying the
    /// remainder over.
    pub fn owe(&mut self, secs: f64) {
        self.owed += secs;
        while self.owed >= PERIOD_S {
            self.owed -= PERIOD_S;
            self.slice();
        }
    }

    /// The median slice time since the last call, from at least one
    /// slice. The median, because a slice that the vCPU loses to a
    /// neighbour for a few milliseconds would move a mean by more than
    /// the drift it tracks.
    pub fn take(&mut self) -> f64 {
        if self.slices.is_empty() {
            self.slice();
        }
        let median = crate::median(&self.slices);
        self.slices.clear();
        median
    }

    /// Refills the keys from a xorshift stream (untimed) and times their
    /// sort.
    fn slice(&mut self) {
        for k in &mut self.keys {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            *k = self.state;
        }
        let t = Instant::now();
        self.keys.sort_unstable();
        std::hint::black_box(&self.keys);
        self.slices.push(t.elapsed().as_secs_f64());
    }
}
