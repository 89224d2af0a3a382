//! The open-loop generator: Poisson arrivals fixed in advance from the
//! seed, paced by sleeping and then yielding, and
//! every request timed from the moment it was due. Also the capacity
//! search over such cells.

use crate::stats;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// The pacer sleeps only when more than [`SLEEP_ABOVE`] remains before a
/// request is due, and then only to within [`YIELD_MARGIN`]; otherwise it
/// yields the processor until the due time. On a shared virtual machine a
/// wake-up from sleep can take milliseconds, so short sleeps would make a
/// fast sender late; long yields would take processor time from the server
/// on a small machine (a 1 ms margin for every send measurably lowered
/// `swaptest_mnist`'s capacity on two cores).
const SLEEP_ABOVE: Duration = Duration::from_millis(1);
const YIELD_MARGIN: Duration = Duration::from_micros(60);

/// Due times (ns after the cell starts) of `count` Poisson arrivals at
/// `rate` per second.
pub fn poisson_schedule(rate: f64, count: usize, rng: &mut StdRng) -> Vec<u64> {
    assert!(rate > 0.0, "the offered rate must be positive");
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen::<f64>();
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Requests a cell at `rate` sends: enough for the p99 to have
/// [`stats::MIN_BEYOND`] samples beyond it, or `seconds` of traffic if
/// that is more.
pub fn cell_size(rate: f64, seconds: f64) -> usize {
    stats::samples_needed(0.99).max((rate * seconds) as usize)
}

/// Blocks until `due_ns` after `start` (see [`SLEEP_ABOVE`]).
pub fn wait_until(start: Instant, due_ns: u64) {
    let due = start + Duration::from_nanos(due_ns);
    let left = due.saturating_duration_since(Instant::now());
    if left > SLEEP_ABOVE {
        std::thread::sleep(left - YIELD_MARGIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// What one open-loop cell observed.
#[derive(Clone, Debug, Default)]
pub struct Cell {
    /// Per-request latency from due time to completion, ascending; a
    /// failed, refused or unanswered request is recorded at the deadline.
    pub latencies_ns: Vec<u64>,
    /// How late each request was sent, ascending.
    pub late_ns: Vec<u64>,
    /// Requests sent (or refused at admission).
    pub attempted: u64,
    /// Requests refused, failed, or unanswered by their deadline.
    pub failed: u64,
    /// Requests never answered at all (a subset of `failed`).
    pub lost: u64,
    /// Seconds from the cell's start to its last request's due time.
    pub span_s: f64,
}

impl Cell {
    /// Builds a cell from per-request outcomes: `Some(latency)` for an
    /// answered request, `None` for one that failed or was never answered.
    pub fn from_outcomes(
        outcomes: &[Option<u64>],
        late_ns: Vec<u64>,
        lost: u64,
        deadline: Duration,
        span_s: f64,
    ) -> Cell {
        let deadline_ns = deadline.as_nanos() as u64;
        let mut latencies_ns: Vec<u64> = outcomes
            .iter()
            .map(|o| match o {
                Some(ns) if *ns <= deadline_ns => *ns,
                _ => deadline_ns,
            })
            .collect();
        latencies_ns.sort_unstable();
        let mut late_ns = late_ns;
        late_ns.sort_unstable();
        let failed = outcomes
            .iter()
            .filter(|o| !matches!(o, Some(ns) if *ns <= deadline_ns))
            .count() as u64;
        Cell {
            latencies_ns,
            late_ns,
            attempted: outcomes.len() as u64,
            failed,
            lost,
            span_s,
        }
    }

    /// Median latency in µs.
    pub fn p50_us(&self) -> f64 {
        stats::quantile(&self.latencies_ns, 0.5) as f64 / 1e3
    }

    /// p99 latency in µs (the cell is sized so the tail is resolved).
    pub fn p99_us(&self) -> f64 {
        stats::tail_quantile(&self.latencies_ns, 0.99).expect("cells are sized to resolve the p99")
            as f64
            / 1e3
    }

    /// Mean latency in µs.
    pub fn mean_us(&self) -> f64 {
        stats::mean(&self.latencies_ns) / 1e3
    }

    /// p99 of the send lateness in µs.
    pub fn late_p99_us(&self) -> f64 {
        stats::tail_quantile(&self.late_ns, 0.99).unwrap_or(0) as f64 / 1e3
    }
}

/// The outcome of a capacity search.
#[derive(Clone, Debug, Default)]
pub struct Capacity {
    /// Highest probed rate that met the limit (0 if none did).
    pub rps: f64,
    /// Every probe, in the order run.
    pub probes: Vec<(f64, bool)>,
}

/// Finds the highest offered rate that `probe` accepts: starting at
/// `start`, doubles (or halves) to bracket the knee within
/// `[floor, ceiling]`, then bisects geometrically `refine` times.
/// Returns the highest accepted rate seen.
pub fn search_capacity(
    start: f64,
    floor: f64,
    ceiling: f64,
    refine: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> Capacity {
    let mut out = Capacity::default();
    let mut run = |rate: f64, out: &mut Capacity| {
        let ok = probe(rate);
        out.probes.push((rate, ok));
        if ok && rate > out.rps {
            out.rps = rate;
        }
        ok
    };
    let (mut pass, mut fail);
    if run(start, &mut out) {
        pass = start;
        fail = start * 2.0;
        while fail <= ceiling && run(fail, &mut out) {
            pass = fail;
            fail *= 2.0;
        }
        if fail > ceiling {
            return out;
        }
    } else {
        fail = start;
        pass = start / 2.0;
        while pass >= floor && !run(pass, &mut out) {
            fail = pass;
            pass /= 2.0;
        }
        if pass < floor {
            return out;
        }
    }
    for _ in 0..refine {
        let mid = (pass * fail).sqrt();
        if run(mid, &mut out) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A synthetic M/M/1-like latency curve: p99 grows without bound as
    /// the offered rate nears the service rate.
    fn p99_us(rate: f64, service_rps: f64, base_us: f64) -> f64 {
        if rate >= service_rps {
            f64::INFINITY
        } else {
            base_us / (1.0 - rate / service_rps)
        }
    }

    #[test]
    fn capacity_search_finds_the_knee_of_a_synthetic_curve() {
        // p99 = 100 / (1 - r/1000) µs meets a 500 µs limit up to r = 800.
        let cap = search_capacity(300.0, 10.0, 1e6, 6, |r| p99_us(r, 1000.0, 100.0) <= 500.0);
        assert!(cap.rps <= 800.0, "{cap:?}");
        assert!(cap.rps >= 800.0 * 0.97, "{cap:?}");
        // Doubling from 300: 600 passes, 1200 fails; then 6 bisections.
        assert_eq!(cap.probes.len(), 3 + 6);
        assert!(cap.probes.iter().all(|&(r, ok)| ok == (r <= 800.0)));
    }

    #[test]
    fn capacity_search_walks_down_when_the_start_fails() {
        let cap = search_capacity(5000.0, 10.0, 1e6, 5, |r| p99_us(r, 1000.0, 100.0) <= 500.0);
        assert!(cap.rps > 800.0 * 0.95 && cap.rps <= 800.0, "{cap:?}");
        assert!(!cap.probes[0].1);
    }

    #[test]
    fn capacity_search_reports_zero_when_nothing_passes() {
        let cap = search_capacity(100.0, 10.0, 1e6, 5, |_| false);
        assert_eq!(cap.rps, 0.0);
        assert!(cap.probes.iter().all(|&(r, _)| r >= 10.0 / 2.0));
    }

    #[test]
    fn capacity_search_stops_at_the_ceiling() {
        let cap = search_capacity(100.0, 10.0, 1000.0, 5, |_| true);
        assert_eq!(cap.rps, 800.0);
    }

    #[test]
    fn schedules_are_seeded_and_near_the_rate() {
        let a = poisson_schedule(1000.0, 5000, &mut StdRng::seed_from_u64(3));
        let b = poisson_schedule(1000.0, 5000, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *a.last().unwrap() as f64 / 1e9;
        assert!((seconds - 5.0).abs() < 0.5, "{seconds}");
    }

    #[test]
    fn unanswered_requests_count_as_failed_at_the_deadline() {
        let deadline = Duration::from_millis(5);
        let mut outcomes = vec![Some(1_000); 1000];
        outcomes[3] = None;
        outcomes[4] = Some(6_000_000); // answered, but after the deadline
        let cell = Cell::from_outcomes(&outcomes, vec![0; 1000], 1, deadline, 1.0);
        assert_eq!((cell.attempted, cell.failed, cell.lost), (1000, 2, 1));
        assert_eq!(*cell.latencies_ns.last().unwrap(), 5_000_000);
    }
}
