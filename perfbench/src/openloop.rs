//! Open-loop load generation: a seeded Poisson arrival schedule and a load
//! generator that submits each request at its due time whatever the
//! consumer is doing, then times every request from its **due** time.
//!
//! Timing from the due time (not from the moment the generator got round to
//! submitting) is what keeps a stall honest: if the consumer blocks the
//! generator, every later request is submitted late, and that lateness is
//! part of its latency.  Collecting results in submission order afterwards
//! biases nothing, because each latency is assembled from timestamps taken
//! when the request was submitted plus the consumer's own per-request
//! queue-wait and run-time figures.

use std::time::{Duration, Instant};

/// Deterministic 64-bit generator (splitmix64): the benchmark's only source
/// of randomness, so one seed always yields the same inputs.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed` mixed with a stream label.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Due-time offsets of `n` Poisson arrivals at `rate` per second.
pub fn poisson_schedule(rate: f64, n: usize, rng: &mut SplitMix) -> Vec<Duration> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Exponential gap; `1 - unit` is in (0, 1], so ln is finite.
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// What a consumer reports about one served request.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    /// Time the request waited inside the consumer before running.
    pub queue_wait: Duration,
    /// Time the request ran.
    pub run_time: Duration,
    /// Whether the request's output checked out.
    pub ok: bool,
}

/// The system under load, as the load generator sees it.
pub trait Consumer {
    /// Handle of a submitted request.
    type Ticket;
    /// Submit request `index` (may block — a blocked submit is a stall the
    /// generator charges to every later request).
    fn submit(&mut self, index: usize) -> Self::Ticket;
    /// Wait for a submitted request and report how it was served.
    fn finish(&mut self, ticket: Self::Ticket) -> Served;
}

/// One request's open-loop accounting.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Due time, as an offset from the start of the schedule.
    pub due: Duration,
    /// How late the generator submitted it (submit time − due time).
    pub late: Duration,
    /// Consumer-reported queue wait.
    pub queue_wait: Duration,
    /// Consumer-reported run time.
    pub run_time: Duration,
    /// Due time to completion: `late + queue_wait + run_time`.
    pub latency: Duration,
    /// Output checked out.
    pub ok: bool,
}

/// Drive `consumer` with `schedule` (due offsets, ascending): sleep until
/// each due time, submit, and afterwards collect every request in order.
pub fn drive<C: Consumer>(schedule: &[Duration], consumer: &mut C) -> Vec<Sample> {
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = start.elapsed().saturating_sub(due);
        tickets.push((due, late, consumer.submit(i)));
    }
    tickets
        .into_iter()
        .map(|(due, late, ticket)| {
            let served = consumer.finish(ticket);
            Sample {
                due,
                late,
                queue_wait: served.queue_wait,
                run_time: served.run_time,
                latency: late + served.queue_wait + served.run_time,
                ok: served.ok,
            }
        })
        .collect()
}

/// Drive `consumer` closed loop: submit requests `0..n` keeping at most
/// `window` outstanding (waiting for the oldest before submitting more),
/// so the consumer never idles and its queue stays short.  Returns the
/// time from the first submission to the last completion, and how each
/// request was served, in order.
pub fn closed_loop<C: Consumer>(
    n: usize,
    window: usize,
    consumer: &mut C,
) -> (Duration, Vec<Served>) {
    let start = Instant::now();
    let mut outstanding = std::collections::VecDeque::with_capacity(window);
    let mut served = Vec::with_capacity(n);
    for i in 0..n {
        if outstanding.len() == window.max(1) {
            let oldest = outstanding.pop_front().expect("window is non-empty");
            served.push(consumer.finish(oldest));
        }
        outstanding.push_back(consumer.submit(i));
    }
    served.extend(outstanding.into_iter().map(|t| consumer.finish(t)));
    (start.elapsed(), served)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consumer that serves instantly except that submitting request
    /// `stall_at` blocks the caller for `stall`.
    struct StallingConsumer {
        stall_at: usize,
        stall: Duration,
    }

    impl Consumer for StallingConsumer {
        type Ticket = ();
        fn submit(&mut self, index: usize) {
            if index == self.stall_at {
                std::thread::sleep(self.stall);
            }
        }
        fn finish(&mut self, (): ()) -> Served {
            Served {
                queue_wait: Duration::ZERO,
                run_time: Duration::from_micros(10),
                ok: true,
            }
        }
    }

    #[test]
    fn a_stalled_consumer_shows_in_later_latencies() {
        // Arrivals every 2 ms; submitting request 3 blocks for 60 ms.  The
        // consumer itself reports no queueing at all, yet requests due
        // during the stall must carry it as lateness.
        let schedule: Vec<Duration> = (0..40).map(|i| Duration::from_millis(2 * i)).collect();
        let mut consumer = StallingConsumer {
            stall_at: 3,
            stall: Duration::from_millis(60),
        };
        let samples = drive(&schedule, &mut consumer);
        assert_eq!(samples.len(), 40);
        assert!(samples.iter().all(|s| s.queue_wait.is_zero() && s.ok));
        // Request 4 was due 2 ms after request 3 but went out ~58 ms late.
        assert!(
            samples[4].latency >= Duration::from_millis(50),
            "{:?}",
            samples[4]
        );
        assert!(
            samples[10].latency >= Duration::from_millis(35),
            "{:?}",
            samples[10]
        );
        // Requests due after the stall ended are on time again.
        assert!(
            samples[39].latency < Duration::from_millis(20),
            "{:?}",
            samples[39]
        );
        // Latency is exactly lateness + the consumer's own figures.
        for s in &samples {
            assert_eq!(s.latency, s.late + s.queue_wait + s.run_time);
        }
    }

    /// A consumer whose internal queue stalls: request `stall_at` occupies
    /// its single server for `stall`, and later requests queue behind it.
    struct QueueStallConsumer {
        free_at: Option<Instant>,
        stall_at: usize,
        stall: Duration,
    }

    impl Consumer for QueueStallConsumer {
        type Ticket = Served;
        fn submit(&mut self, index: usize) -> Served {
            let now = Instant::now();
            let start = self.free_at.map_or(now, |f| f.max(now));
            let run = if index == self.stall_at {
                self.stall
            } else {
                Duration::from_micros(50)
            };
            self.free_at = Some(start + run);
            Served {
                queue_wait: start - now,
                run_time: run,
                ok: true,
            }
        }
        fn finish(&mut self, ticket: Served) -> Served {
            ticket
        }
    }

    #[test]
    fn a_stalled_queue_shows_as_queue_wait_of_later_requests() {
        let schedule: Vec<Duration> = (0..30).map(Duration::from_millis).collect();
        let mut consumer = QueueStallConsumer {
            free_at: None,
            stall_at: 2,
            stall: Duration::from_millis(20),
        };
        let samples = drive(&schedule, &mut consumer);
        assert!(
            samples[3].queue_wait >= Duration::from_millis(15),
            "{:?}",
            samples[3]
        );
        assert!(samples[3].latency >= Duration::from_millis(15));
        assert!(
            samples[29].queue_wait < Duration::from_millis(5),
            "{:?}",
            samples[29]
        );
    }

    /// Counts outstanding requests; each takes 100 µs.
    struct Counting {
        outstanding: usize,
        peak: usize,
    }

    impl Consumer for Counting {
        type Ticket = usize;
        fn submit(&mut self, index: usize) -> usize {
            self.outstanding += 1;
            self.peak = self.peak.max(self.outstanding);
            index
        }
        fn finish(&mut self, _: usize) -> Served {
            self.outstanding -= 1;
            std::thread::sleep(Duration::from_micros(100));
            Served {
                queue_wait: Duration::ZERO,
                run_time: Duration::from_micros(100),
                ok: true,
            }
        }
    }

    #[test]
    fn closed_loop_bounds_the_outstanding_window_and_serves_everything() {
        let mut consumer = Counting {
            outstanding: 0,
            peak: 0,
        };
        let (elapsed, served) = closed_loop(50, 4, &mut consumer);
        assert_eq!(served.len(), 50);
        assert_eq!(consumer.peak, 4);
        assert_eq!(consumer.outstanding, 0);
        assert!(elapsed >= Duration::from_millis(5), "{elapsed:?}");
    }

    #[test]
    fn schedules_are_seeded_and_have_the_requested_rate() {
        let a = poisson_schedule(1000.0, 4000, &mut SplitMix::new(7, 1));
        let b = poisson_schedule(1000.0, 4000, &mut SplitMix::new(7, 1));
        let c = poisson_schedule(1000.0, 4000, &mut SplitMix::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (3.6..4.4).contains(&span),
            "4000 arrivals at 1000/s span {span}s"
        );
    }

    #[test]
    fn weighted_draws_follow_the_weights() {
        let mut rng = SplitMix::new(3, 9);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[1.0, 2.0, 0.0])] += 1;
        }
        assert_eq!(counts[2], 0);
        assert!((9_000..11_000).contains(&counts[0]), "{counts:?}");
    }
}
