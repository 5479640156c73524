//! A machine-speed reference that keeps timings comparable on shared
//! hardware.
//!
//! The benchmark's machine is a virtual machine whose cores are shared with
//! other tenants. Each core switches, every few hundred ms to tens of
//! seconds, between a fast state and one about 1.6 times slower, mostly
//! independently of the other cores; the same deterministic work then takes
//! that much longer, in CPU time as well as wall time, and a run's timings
//! move with the neighbours rather than with the code.
//!
//! The reference is a fixed kernel that shares no code with the program:
//! it formats 600 short strings into a `Vec` and a `BTreeMap` and drops
//! them, allocation-heavy and branchy like the placer's own work. A sample
//! is the faster of two passes, so a pass the scheduler interrupted does
//! not count. Samples are taken where the measured work runs, since a
//! sample on another core says little about this one:
//!
//! - each set-up is paired with a sample taken right before it on the same
//!   thread ([`sample_ms`]);
//! - while the repetitions run, a probe thread pinned to each core of the
//!   process samples every [`PERIOD`] ([`probed`]), and a repetition is
//!   paired with the mean sample of its time window ([`Samples::scale`]):
//!   of the core its thread was on at each sample, when the work runs on
//!   one thread, else of every core.
//!
//! A scaled timing is the raw one times [`REFERENCE_MS`] over its paired
//! sample: the time the work takes while the kernel takes `REFERENCE_MS`.
//! Raw timings stay in the detailed report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The kernel's typical sample beside a running workload on the baseline
/// machine (see README.md), so scaled timings read close to raw ones.
pub const REFERENCE_MS: f64 = 0.2;

const STRINGS: u32 = 600;
/// How often each probe thread samples; a sample costs about 0.4 ms, so
/// the probes take under 0.5 % of each core.
const PERIOD: Duration = Duration::from_millis(100);

/// One sample of the kernel in ms: the faster of two passes.
pub fn sample_ms() -> f64 {
    pass().min(pass())
}

fn pass() -> f64 {
    let t = Instant::now();
    let mut list = Vec::new();
    let mut map = BTreeMap::new();
    for i in 0..STRINGS {
        let s = format!("cell_{i}_{}", i * 7);
        map.insert(s.clone(), i);
        list.push(s);
    }
    std::hint::black_box((&list, &map));
    drop((list, map));
    t.elapsed().as_secs_f64() * 1e3
}

/// One probe sample.
struct Sample {
    at: Instant,
    ms: f64,
    /// The thread that called [`probed`] last ran on the probe's core.
    on_caller: bool,
}

/// The probe threads' samples.
pub struct Samples(Vec<Sample>);

impl Samples {
    /// The factor that brings a timing of work done between `from` and
    /// `to` to the reference speed. Work that ran on the thread that called
    /// [`probed`] (`on_caller`) is paired with the samples of the core that
    /// thread was on, other work with every core's. A window without such
    /// samples uses every sample of the window, or else of the run.
    pub fn scale(&self, from: Instant, to: Instant, on_caller: bool) -> f64 {
        let window = |caller_only: bool| {
            mean(
                self.0
                    .iter()
                    .filter(|s| (s.on_caller || !caller_only) && (from..=to).contains(&s.at)),
            )
        };
        let ms = on_caller
            .then(|| window(true))
            .flatten()
            .or_else(|| window(false))
            .unwrap_or_else(|| self.mean_ms());
        REFERENCE_MS / ms
    }

    /// Mean sample of the whole run, in ms.
    pub fn mean_ms(&self) -> f64 {
        mean(self.0.iter()).unwrap_or(REFERENCE_MS)
    }
}

/// Mean of the samples' ms; `None` without samples.
fn mean<'a>(samples: impl Iterator<Item = &'a Sample>) -> Option<f64> {
    let (n, sum) = samples.fold((0, 0.0), |(n, sum), s| (n + 1, sum + s.ms));
    (n > 0).then(|| sum / f64::from(n))
}

/// Runs `f` while one probe thread pinned to each core of this process
/// samples the kernel every [`PERIOD`], and returns `f`'s result with the
/// samples. Each probe samples as soon as it starts and once more when
/// woken to stop, so even a short `f` has samples near it.
pub fn probed<R>(f: impl FnOnce() -> R) -> (R, Samples) {
    let stop = AtomicBool::new(false);
    let caller = affinity::thread_id();
    std::thread::scope(|scope| {
        let probes: Vec<_> = cores()
            .into_iter()
            .map(|core| {
                let stop = &stop;
                let caller = caller.as_deref();
                scope.spawn(move || {
                    // Unpinned, the probe would sample whichever core is
                    // idle: rarely the one doing the work.
                    affinity::pin(core);
                    let mut samples = Vec::new();
                    loop {
                        let ms = sample_ms();
                        samples.push(Sample {
                            at: Instant::now(),
                            ms,
                            on_caller: caller.and_then(affinity::last_core) == Some(core),
                        });
                        // Acquire pairs with the Release store below.
                        if stop.load(Ordering::Acquire) {
                            break samples;
                        }
                        std::thread::park_timeout(PERIOD);
                    }
                })
            })
            .collect();
        let out = f();
        stop.store(true, Ordering::Release);
        let mut samples = Vec::new();
        for probe in probes {
            probe.thread().unpark();
            samples.extend(probe.join().expect("speed probe thread"));
        }
        (out, Samples(samples))
    })
}

/// The cores this process may run on.
fn cores() -> Vec<usize> {
    match affinity::allowed() {
        Some(cores) if !cores.is_empty() => cores,
        _ => (0..std::thread::available_parallelism().map_or(1, usize::from)).collect(),
    }
}

/// The cores a process may use, and pinning a thread to one of them.
/// Elsewhere than on Linux, probes run unpinned.
#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: one bit per core, 1024 cores.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Option<Vec<usize>> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed, and
        // pid 0 names the calling thread.
        let status = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
        (status == 0).then(|| {
            (0..16 * 64)
                .filter(|&core| set[core / 64] & (1 << (core % 64)) != 0)
                .collect()
        })
    }

    /// The calling thread's id.
    pub fn thread_id() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_str()?.to_string())
    }

    /// The core thread `tid` of this process last ran on.
    pub fn last_core(tid: &str) -> Option<usize> {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
        // Field 39 of stat; fields from the 3rd on follow the ')' that
        // closes the command name.
        stat.rsplit_once(')')?
            .1
            .split_whitespace()
            .nth(36)?
            .parse()
            .ok()
    }

    pub fn pin(core: usize) {
        let mut set: CpuSet = [0; 16];
        set[core / 64] |= 1 << (core % 64);
        // SAFETY: `set` is a `cpu_set_t` of the size passed, and pid 0
        // names the calling thread. A refusal leaves the thread as it was.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Option<Vec<usize>> {
        None
    }

    pub fn thread_id() -> Option<String> {
        None
    }

    pub fn last_core(_tid: &str) -> Option<usize> {
        None
    }

    pub fn pin(_core: usize) {}
}
