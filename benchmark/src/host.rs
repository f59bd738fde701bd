//! How fast the host is running, measured next to the workload.
//!
//! The benchmark host shares its cores with other tenants, and for
//! seconds to minutes at a time everything on it runs about half again
//! as slow — the same program, the same inputs. Every load thread
//! therefore times a fixed probe — sorting a copy of 8192 fixed
//! integers, which stays in the core's own caches — about ten times a
//! second between operations, and each operation's time is divided by
//! the thread's current slowdown: the median of its last three probe
//! timings over [`PROBE_REF_MS`]. End-to-end times then report what the
//! program costs on the host in its usual state. The probe is benchmark
//! code, so no change to the program moves it, except one that takes the
//! load threads' cores away from them.

use std::time::{Duration, Instant};

/// Probe time on the reference host (2 vCPUs of an Intel Xeon at
/// 2.1 GHz) in its usual state.
pub const PROBE_REF_MS: f64 = 0.090;

/// Shortest time between two probe timings on one thread.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Integers the probe sorts.
const PROBE_LEN: u64 = 8192;

/// Timings the current slowdown is the median of.
const RECENT: usize = 3;

/// A load thread's probe and the timings it took.
#[derive(Debug, Clone)]
pub struct Probe {
    src: Vec<u64>,
    buf: Vec<u64>,
    last: Option<Instant>,
    /// Every timing so far, in milliseconds.
    pub timings: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            src: (0..PROBE_LEN)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            buf: Vec::with_capacity(PROBE_LEN as usize),
            last: None,
            timings: Vec::new(),
        }
    }
}

impl Probe {
    /// Times the probe now: the fastest of five runs, so that neither an
    /// interruption nor the cold caches of a thread that just woke up
    /// count.
    pub fn sample(&mut self) {
        let ms = (0..5).map(|_| self.once()).fold(f64::INFINITY, f64::min);
        self.last = Some(Instant::now());
        self.timings.push(ms);
    }

    /// Times the probe unless the last timing is recent.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.sample();
        }
    }

    /// The host's slowdown as this thread last saw it: the median of its
    /// latest timings over [`PROBE_REF_MS`] (1 before the first timing).
    pub fn slowdown(&self) -> f64 {
        let recent = &self.timings[self.timings.len().saturating_sub(RECENT)..];
        if recent.is_empty() {
            1.0
        } else {
            crate::stats::median(recent) / PROBE_REF_MS
        }
    }

    fn once(&mut self) -> f64 {
        let t = Instant::now();
        self.buf.clear();
        self.buf.extend_from_slice(&self.src);
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The host's slowdown right now, for a one-off measurement such as a
/// set-up.
pub fn slowdown_now() -> f64 {
    let mut p = Probe::default();
    for _ in 0..RECENT {
        p.sample();
    }
    p.slowdown()
}

/// CPU time this process has used so far, every thread's, live or
/// exited, in seconds: `utime + stime` of `/proc/self/stat`, which Linux
/// reports in ticks of 1/100 s. The kernel leaves out the time the
/// hypervisor gave the cores to other tenants. `None` where `/proc` is
/// unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name, from the state on:
    // `utime` and `stime` are the 12th and 13th of them.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_this_process_working() {
        let before = cpu_seconds().expect("/proc/self/stat");
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(150) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = cpu_seconds().expect("/proc/self/stat") - before;
        assert!(used > 0.0 && used < 5.0, "{used} s");
    }

    #[test]
    fn probe_samples_at_most_every_interval() {
        let mut p = Probe::default();
        assert_eq!(p.slowdown(), 1.0, "no timing yet");
        p.tick();
        p.tick();
        assert_eq!(p.timings.len(), 1, "the second tick comes too soon");
        p.sample();
        assert_eq!(p.timings.len(), 2);
        assert!(p.timings.iter().all(|&ms| ms > 0.0));
        assert!(p.buf.windows(2).all(|w| w[0] <= w[1]), "the probe sorts");
    }

    #[test]
    fn slowdown_is_the_median_of_the_latest_timings() {
        let mut p = Probe::default();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        p.timings = vec![9.0, PROBE_REF_MS, 2.0 * PROBE_REF_MS, 4.0 * PROBE_REF_MS];
        assert!(close(p.slowdown(), 2.0), "the oldest timing has aged out");
        p.timings = vec![3.0 * PROBE_REF_MS];
        assert!(close(p.slowdown(), 3.0));
        assert!(slowdown_now() > 0.0);
    }
}
