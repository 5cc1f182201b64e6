//! The host-speed reference that host-time metrics are scaled by.
//!
//! The benchmark runs on shared machines whose speed drifts. On a
//! 2-vCPU VM (2.1 GHz Xeon, under 3 % steal) the same `cells-deep` pass
//! took 0.40 s for minutes and then 0.70–0.82 s for minutes, in user
//! time with no page faults, so neither wall nor CPU time compares
//! across runs. A fixed reference kernel of the benchmark's own slows
//! with it: a set-associative cache model (tag and age arrays, a mixed
//! sequential and random address stream), then random read-modify-writes
//! with data-driven branches over a 256 KB and a 2 MB table, the kind
//! of work the simulator does. A plain pointer chase or ALU loop did
//! not follow the drift.
//!
//! A phase's host time divided by the host's slowness around it (the
//! kernel's median time over [`NOMINAL_S`], read just before and just
//! after the phase) is the time it takes at a fixed reference speed.
//! The kernel never calls the program, so the program's own speed
//! still shows in full.

use std::hint::black_box;
use std::time::Instant;

/// Sets × ways of the kernel's cache model.
const SETS: usize = 16_384;
const WAYS: usize = 8;
/// Entries (u32) of the small and the large read-modify-write table.
const SMALL: usize = 1 << 16;
const LARGE: usize = 1 << 19;
/// A kernel sample's time at the reference speed: about its time on the
/// 2-vCPU VM above in its fast phase. It only scales the reported
/// numbers; any fixed value would do.
pub const NOMINAL_S: f64 = 0.011;
/// Reference-kernel time after a phase, as a share of the phase's.
pub const SHARE: f64 = 0.1;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *x >> 30
}

/// The kernel's private state: one per thread that runs it.
#[derive(Debug, Clone)]
struct Kernel {
    tags: Vec<u64>,
    ages: Vec<u8>,
    small: Vec<u32>,
    large: Vec<u32>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            tags: vec![u64::MAX; SETS * WAYS],
            ages: vec![0; SETS * WAYS],
            small: (0..SMALL as u32).collect(),
            large: (0..LARGE as u32).collect(),
        }
    }

    /// 300 K accesses to an LRU cache model, a quarter sequential.
    fn cache_model(&mut self) -> u64 {
        let (mut x, mut seq, mut hits) = (black_box(12_345u64), 0u64, 0u64);
        for k in 0..300_000u32 {
            let addr = if k % 4 == 0 {
                seq += 1;
                seq
            } else {
                lcg(&mut x) & ((1 << 22) - 1)
            };
            let base = (addr as usize % SETS) * WAYS;
            let tag = addr / SETS as u64;
            let set_tags = &mut self.tags[base..base + WAYS];
            let set_ages = &mut self.ages[base..base + WAYS];
            let way = match set_tags.iter().position(|&t| t == tag) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let mut victim = 0;
                    for w in 1..WAYS {
                        if set_ages[w] >= set_ages[victim] {
                            victim = w;
                        }
                    }
                    set_tags[victim] = tag;
                    victim
                }
            };
            for a in set_ages.iter_mut() {
                *a = a.saturating_add(1);
            }
            set_ages[way] = 0;
        }
        hits
    }

    /// `steps` × 4 independent random read-modify-writes over `table`.
    fn read_modify_write(table: &mut [u32], steps: u32) -> u32 {
        let mask = table.len() as u64 - 1;
        let mut streams = [1u64, 2, 3, 4].map(|v| black_box(v * 0x9e37_79b9_7f4a_7c15));
        let mut acc = 0u32;
        for _ in 0..steps {
            for x in &mut streams {
                let i = (lcg(x) & mask) as usize;
                let v = table[i];
                if v & 1 == 0 {
                    table[i] = v.wrapping_add(3);
                    acc = acc.wrapping_add(v);
                } else {
                    table[i] = v >> 1;
                    acc ^= v;
                }
            }
        }
        acc
    }

    /// One sample: seconds taken.
    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.cache_model());
        black_box(Self::read_modify_write(&mut self.small, 300_000));
        black_box(Self::read_modify_write(&mut self.large, 200_000));
        t0.elapsed().as_secs_f64()
    }
}

/// The reference kernel on a fixed number of threads.
#[derive(Debug)]
pub struct Gauge {
    kernels: Vec<Kernel>,
}

impl Gauge {
    /// A gauge for work that runs on `threads` threads, so a phase that
    /// loads every vCPU is judged by every vCPU.
    pub fn new(threads: usize) -> Self {
        let mut g = Gauge { kernels: vec![Kernel::new(); threads.max(1)] };
        // Fault the tables in and warm the caches, untimed.
        g.one_sample();
        g
    }

    /// One sample: the mean over the threads, all running at once.
    fn one_sample(&mut self) -> f64 {
        if let [k] = self.kernels.as_mut_slice() {
            return k.sample();
        }
        let n = self.kernels.len() as f64;
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> =
                self.kernels.iter_mut().map(|k| s.spawn(move || k.sample())).collect();
            handles.into_iter().map(|h| h.join().expect("reference kernel thread")).sum()
        });
        total / n
    }

    /// The host's slowness now, read after a phase of `work_s` host
    /// seconds: samples for [`SHARE`] of `work_s` (at least one), and
    /// their median over [`NOMINAL_S`]. A phase is judged by the
    /// readings just before and just after it, since the host's speed
    /// also drifts within a run.
    pub fn read(&mut self, work_s: f64) -> f64 {
        let t0 = Instant::now();
        let mut samples = vec![self.one_sample()];
        while t0.elapsed().as_secs_f64() < SHARE * work_s {
            samples.push(self.one_sample());
        }
        crate::measure::median(&samples) / NOMINAL_S
    }

    /// Resident bytes of the kernels' tables, which the timed phase's
    /// peak memory must not count.
    pub fn resident_mb(&self) -> f64 {
        let per_kernel = SETS * WAYS * (8 + 1) + (SMALL + LARGE) * 4;
        (self.kernels.len() * per_kernel) as f64 / (1024.0 * 1024.0)
    }
}
