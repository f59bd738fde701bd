//! Open- and closed-loop request drivers, and the rate ladder's verdict.
//!
//! Served requests arrive from independent users, so the benchmark drives
//! the server open loop: request `i` is *due* at `i / rate` whatever
//! happened to earlier requests. A connection sends serially, so a slow
//! response delays the requests queued behind it; timing every request
//! from when it was due (not from when it was sent) charges that wait to
//! the server, and the gap between due and sent is the generator's
//! lateness.

use crate::stats::{quantile, sorted, Op};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One open-loop request, with times relative to the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the connection actually started sending it.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
    /// Whether the response was a success.
    pub ok: bool,
    /// The host's slowdown as the lane last measured it.
    pub slow: f64,
}

impl Sample {
    /// Latency charged to the request: response complete minus due.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// As a finished operation: when its response completed, its latency
    /// from the due time, and the host's slowdown when it was sent.
    pub fn op(&self) -> Op {
        Op {
            end_s: self.done.as_secs_f64(),
            ms: self.latency_ms(),
            slow: self.slow,
        }
    }
}

/// Time from `start` to `t` (zero if `t` is earlier).
fn since(start: Instant, t: Instant) -> Duration {
    t.saturating_duration_since(start)
}

/// One connection of a load generator.
pub trait Lane: Send {
    /// Performs request `i` and reports whether it succeeded.
    fn send(&mut self, i: usize) -> bool;

    /// Called in the open loop while the lane has no request in flight and
    /// at least [`IDLE_MIN`] before its next one is due: time to probe the
    /// host.
    fn idle(&mut self) {}

    /// The host's slowdown as the lane last measured it.
    fn slowdown(&self) -> f64 {
        1.0
    }
}

/// Shortest wait before a due request in which a lane is called idle.
const IDLE_MIN: Duration = Duration::from_millis(2);

/// Busy-waits until `t`.
///
/// A lane that sleeps between requests leaves its core idle, and on the
/// reference host an idle vCPU took a millisecond or more to wake
/// whenever the host's other tenants were busy: paid on sends and
/// responses alike, that wake doubled the median latency of whole runs. A
/// spinning lane keeps its core awake and sends on time. Each lane has
/// one thread runnable at a time — itself while it waits, the server's
/// handler while its request is in flight — so lanes and handlers
/// together never outnumber the lanes.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Sends `count` requests at `rate` per second over `lanes`, request `i`
/// due at `t0 + i / rate` on lane `route(i)` (taken modulo the number of
/// lanes), each lane on its own thread. Returns the samples in request
/// order, with times relative to `t0`.
pub fn open_loop<L: Lane>(
    rate: f64,
    count: usize,
    t0: Instant,
    lanes: &mut [L],
    route: impl Fn(usize) -> usize + Sync,
) -> Vec<Sample> {
    assert!(rate > 0.0 && !lanes.is_empty());
    let width = lanes.len();
    let route = &route;
    let mut tagged: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(c, lane)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (0..count).filter(|&i| route(i) % width == c) {
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        if t0 + due > Instant::now() + IDLE_MIN {
                            lane.idle();
                        }
                        wait_until(t0 + due);
                        let slow = lane.slowdown();
                        let sent = since(t0, Instant::now());
                        let ok = lane.send(i);
                        let done = since(t0, Instant::now());
                        out.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done,
                                ok,
                                slow,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect()
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, s)| s).collect()
}

/// Closed loop: every lane sends its next request as soon as the previous
/// one completes, from `start` until `window` has passed. Requests are
/// numbered from `first` in the order they are started. Returns how many
/// succeeded and how many failed.
pub fn closed_loop<L: Lane>(
    window: Duration,
    first: u64,
    start: Instant,
    lanes: &mut [L],
) -> (u64, u64) {
    let next = AtomicU64::new(first);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let next = &next;
                scope.spawn(move || {
                    let (mut done, mut failed) = (0u64, 0u64);
                    while start.elapsed() < window {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if lane.send(i) {
                            done += 1;
                        } else {
                            failed += 1;
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .fold((0, 0), |(d, f), (dl, fl)| (d + dl, f + fl))
    })
}

/// What a ladder step must meet to count as sustained.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Latency p99 limit, timed from the due time.
    pub p99_ms: f64,
    /// Generator lateness p99 limit.
    pub late_p99_ms: f64,
    /// Longest the last response may trail the step's scheduled end.
    pub drain_s: f64,
}

/// The limits the benchmark fixes for the served mix.
pub const LIMITS: Limits = Limits {
    p99_ms: 25.0,
    late_p99_ms: 25.0,
    drain_s: 1.0,
};

/// One rate of the ladder, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub samples: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Latency median.
    pub p50_ms: f64,
    /// Latency p99.
    pub p99_ms: f64,
    /// Lateness p99.
    pub late_p99_ms: f64,
    /// How long after the step's scheduled end the last response came.
    pub drain_s: f64,
}

impl Step {
    /// Summarises the samples of one step run at `rate`.
    pub fn from_samples(rate: f64, samples: &[Sample]) -> Step {
        let lat = sorted(&samples.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        let late = sorted(&samples.iter().map(Sample::late_ms).collect::<Vec<_>>());
        let end = samples.len() as f64 / rate;
        let last = samples
            .iter()
            .map(|s| s.done.as_secs_f64())
            .fold(0.0, f64::max);
        Step {
            rate,
            samples: samples.len(),
            failed: samples.iter().filter(|s| !s.ok).count(),
            p50_ms: quantile(&lat, 0.5),
            p99_ms: quantile(&lat, 0.99),
            late_p99_ms: quantile(&late, 0.99),
            drain_s: (last - end).max(0.0),
        }
    }

    /// Whether the step met `limits` with no failure and a drained backlog.
    pub fn passes(&self, limits: &Limits) -> bool {
        self.samples > 0
            && self.failed == 0
            && self.p99_ms <= limits.p99_ms
            && self.late_p99_ms <= limits.late_p99_ms
            && self.drain_s <= limits.drain_s
    }
}

/// The highest rate of the passing prefix of `steps` (run in ascending
/// order, stopping at the first failure); `None` when the first fails.
pub fn max_rate(steps: &[Step], limits: &Limits) -> Option<f64> {
    steps
        .iter()
        .take_while(|s| s.passes(limits))
        .map(|s| s.rate)
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let s = Sample {
            due: ms(100),
            sent: ms(130),
            done: ms(145),
            ok: true,
            slow: 1.0,
        };
        assert_eq!(s.latency_ms(), 45.0);
        assert_eq!(s.late_ms(), 30.0);
        // A request sent early (cannot happen, but must not underflow).
        let early = Sample {
            due: ms(10),
            sent: ms(9),
            done: ms(9),
            ok: true,
            slow: 1.0,
        };
        assert_eq!((early.latency_ms(), early.late_ms()), (0.0, 0.0));
    }

    /// A lane that sleeps `busy` per request, fails request `fail`, counts
    /// the times it was called idle and reports that count as its slowdown.
    #[derive(Default)]
    struct Fake {
        busy: Duration,
        fail: Option<usize>,
        sent: Vec<usize>,
        idles: usize,
    }

    impl Lane for Fake {
        fn send(&mut self, i: usize) -> bool {
            std::thread::sleep(self.busy);
            self.sent.push(i);
            Some(i) != self.fail
        }

        fn idle(&mut self) {
            self.idles += 1;
        }

        fn slowdown(&self) -> f64 {
            self.idles as f64
        }
    }

    #[test]
    fn a_stalled_connection_charges_the_queue_to_later_requests() {
        // One connection, a request due every 10 ms, each taking 25 ms:
        // request k cannot be sent before k·25 ms, so it is at least
        // 15·k ms late and waits at least 15·k + 25 ms from its due time.
        // (Sleeps only overshoot, so these lower bounds are exact.)
        let mut lanes = [Fake {
            busy: ms(25),
            ..Fake::default()
        }];
        let samples = open_loop(100.0, 6, Instant::now(), &mut lanes, |i| i);
        assert_eq!(samples.len(), 6);
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.due, Duration::from_secs_f64(k as f64 / 100.0));
            assert!(s.late_ms() >= 15.0 * k as f64 - 0.5, "{k}: {s:?}");
            assert!(s.latency_ms() >= 15.0 * k as f64 + 25.0 - 0.5, "{k}: {s:?}");
            assert!(s.done >= s.sent && s.sent >= s.due);
        }
        // The lane is never ahead of its schedule, so never idle.
        assert_eq!(lanes[0].idles, 0);
    }

    #[test]
    fn requests_follow_their_route_and_carry_the_lanes_slowdown() {
        let mut lanes = [Fake::default(), Fake::default()];
        let t0 = Instant::now() + ms(20);
        let samples = open_loop(50.0, 10, t0, &mut lanes, |i| usize::from(i % 5 == 2));
        assert_eq!(lanes[0].sent, vec![0, 1, 3, 4, 5, 6, 8, 9]);
        assert_eq!(lanes[1].sent, vec![2, 7]);
        // 20 ms or more between a lane's requests: idle before every one,
        // and each sample carries the lane's reading at its send.
        assert_eq!((lanes[0].idles, lanes[1].idles), (8, 2));
        let slows: Vec<f64> = samples.iter().map(|s| s.slow).collect();
        assert_eq!(slows, [1.0, 2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 2.0, 7.0, 8.0]);
        assert!(samples.iter().all(|s| s.op().slow == s.slow));
    }

    #[test]
    fn requests_alternate_connections_and_keep_order() {
        let mut lanes = [
            Fake::default(),
            Fake {
                fail: Some(3),
                ..Fake::default()
            },
        ];
        let samples = open_loop(200.0, 10, Instant::now(), &mut lanes, |i| i);
        assert_eq!(lanes[0].sent, vec![0, 2, 4, 6, 8]);
        assert_eq!(lanes[1].sent, vec![1, 3, 5, 7, 9]);
        let failed: Vec<usize> = (0..10).filter(|&i| !samples[i].ok).collect();
        assert_eq!(failed, vec![3]);
        let step = Step::from_samples(200.0, &samples);
        assert_eq!((step.samples, step.failed), (10, 1));
        assert!(!step.passes(&LIMITS), "a failed request fails the step");
    }

    fn step(rate: f64, p99_ms: f64, late_p99_ms: f64, drain_s: f64, failed: usize) -> Step {
        Step {
            rate,
            samples: 1000,
            failed,
            p50_ms: 1.0,
            p99_ms,
            late_p99_ms,
            drain_s,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let ok = |rate| step(rate, 5.0, 1.0, 0.01, 0);
        let steps = [
            ok(250.0),
            ok(500.0),
            step(750.0, 40.0, 1.0, 0.01, 0),
            // Passing again above a failure does not count.
            ok(1000.0),
        ];
        assert_eq!(max_rate(&steps, &LIMITS), Some(500.0));
        assert_eq!(max_rate(&steps[2..], &LIMITS), None);
        assert_eq!(max_rate(&[], &LIMITS), None);
        // Each limit fails a step on its own.
        assert!(!step(250.0, 5.0, 30.0, 0.01, 0).passes(&LIMITS), "lateness");
        assert!(!step(250.0, 5.0, 1.0, 1.5, 0).passes(&LIMITS), "backlog");
        assert!(!step(250.0, 5.0, 1.0, 0.01, 1).passes(&LIMITS), "failure");
        assert!(
            step(250.0, 25.0, 25.0, 1.0, 0).passes(&LIMITS),
            "limits inclusive"
        );
    }

    #[test]
    fn backlog_is_measured_from_the_scheduled_end() {
        // 4 requests at 100/s end their schedule at 40 ms; the last
        // response at 1.25 s leaves a 1.21 s backlog.
        let sample = |due, done| Sample {
            due: ms(due),
            sent: ms(due),
            done: ms(done),
            ok: true,
            slow: 1.0,
        };
        let samples = [
            sample(0, 5),
            sample(10, 15),
            sample(20, 25),
            sample(30, 1250),
        ];
        let s = Step::from_samples(100.0, &samples);
        assert!((s.drain_s - 1.21).abs() < 1e-9, "{s:?}");
        assert!(!s.passes(&LIMITS));
    }

    #[test]
    fn closed_loop_counts_every_request_once() {
        let lane = || Fake {
            busy: ms(1),
            fail: Some(6),
            ..Fake::default()
        };
        let mut lanes = [lane(), lane()];
        let start = Instant::now();
        let (done, failed) = closed_loop(ms(30), 5, start, &mut lanes);
        assert!(start.elapsed() >= ms(30), "runs for the whole window");
        let mut sent: Vec<usize> = lanes.iter().flat_map(|l| l.sent.clone()).collect();
        sent.sort_unstable();
        assert_eq!(sent, (5..5 + sent.len()).collect::<Vec<_>>());
        assert_eq!(done + failed, sent.len() as u64);
        assert_eq!(failed, 1, "request 6 is sent once, by one lane");
    }
}
