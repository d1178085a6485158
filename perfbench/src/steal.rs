//! Host steal time. On a virtual machine the hypervisor may run other
//! guests on this guest's CPUs; while it does, every thread here stalls,
//! and the stall lands in whatever latency is being timed. That is a
//! property of the host, not of the program, and it comes in bursts that
//! can cover a whole run. So phases log the host's steal ticks
//! (`/proc/stat`) in short windows, and latency samples and op counts are
//! taken from the windows in which the host stole at most
//! [`STEAL_LIMIT`] of the CPU time — unless fewer than [`MIN_CLEAN`]
//! samples (or half of a smaller set) qualify, in which case every sample
//! counts. Reports say which.

use std::time::{Duration, Instant};

/// Length of a steal-accounting window.
const WINDOW: Duration = Duration::from_millis(100);
/// Largest share of a window's CPU time the host may steal for the window
/// to count as clean. Steal is counted in 10 ms ticks, so with two CPUs a
/// window is clean exactly when the host stole no tick in it.
pub const STEAL_LIMIT: f64 = 0.02;
/// Clean samples needed to use only them: enough for a p99 with ten
/// samples beyond it.
pub const MIN_CLEAN: usize = 1_000;

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One timed op: when it started and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub start: Instant,
    pub us: f64,
}

impl Sample {
    pub fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.us / 1e6)
    }
}

/// Steal ticks sampled at window boundaries of one phase.
#[derive(Debug)]
pub struct StealLog {
    /// `(when, steal, total)` at each boundary; empty without `/proc/stat`.
    marks: Vec<(Instant, u64, u64)>,
}

impl StealLog {
    pub fn start() -> StealLog {
        let mut log = StealLog { marks: Vec::new() };
        log.mark();
        log
    }

    fn mark(&mut self) {
        if let Some((steal, total)) = cpu_ticks() {
            self.marks.push((Instant::now(), steal, total));
        }
    }

    /// Closes the current window if it is due; call once per op.
    pub fn tick(&mut self) {
        if let Some(&(at, _, _)) = self.marks.last() {
            if at.elapsed() >= WINDOW {
                self.mark();
            }
        }
    }

    /// Closes the last window; call at the end of the phase.
    pub fn finish(&mut self) {
        self.mark();
    }

    /// The windows as `(start, end, clean)`.
    fn windows(&self) -> impl Iterator<Item = (Instant, Instant, bool)> + '_ {
        self.marks.windows(2).map(|pair| {
            let ((t0, s0, c0), (t1, s1, c1)) = (pair[0], pair[1]);
            let stolen = (s1 - s0) as f64 / (c1 - c0).max(1) as f64;
            (t0, t1, stolen <= STEAL_LIMIT)
        })
    }

    /// Whether `at` falls in a clean window (or outside the log).
    fn clean_at(&self, at: Instant) -> bool {
        self.windows()
            .find(|&(start, end, _)| start <= at && at < end)
            .is_none_or(|(_, _, clean)| clean)
    }

    /// Whether the sample started and ended in clean windows.
    pub fn clean(&self, sample: &Sample) -> bool {
        self.clean_at(sample.start) && self.clean_at(sample.end())
    }

    /// `(clean seconds, all seconds)` of the phase.
    pub fn seconds(&self) -> (f64, f64) {
        self.windows()
            .fold((0.0, 0.0), |(clean, all), (start, end, ok)| {
                let s = (end - start).as_secs_f64();
                (if ok { clean + s } else { clean }, all + s)
            })
    }
}

/// Latency samples of a phase, split by the host's steal.
#[derive(Debug, Default)]
pub struct Latencies {
    clean: Vec<f64>,
    all: Vec<f64>,
    /// Ops ended in clean windows, and clean seconds; the same for all.
    clean_rate: (f64, f64),
    all_rate: (f64, f64),
}

impl Latencies {
    /// Adds one connection's samples, classified by that connection's log;
    /// `per_sample` is how many ops one sample stands for.
    pub fn add(&mut self, samples: &[Sample], log: &StealLog, per_sample: f64) {
        let (clean_s, all_s) = log.seconds();
        let mut clean_ops = 0.0;
        for sample in samples {
            self.all.push(sample.us);
            if log.clean(sample) {
                self.clean.push(sample.us);
                clean_ops += per_sample;
            }
        }
        self.clean_rate.0 += clean_ops;
        self.clean_rate.1 = self.clean_rate.1.max(clean_s);
        self.all_rate.0 += per_sample * samples.len() as f64;
        self.all_rate.1 = self.all_rate.1.max(all_s);
    }

    fn use_clean(&self) -> bool {
        self.clean.len() >= MIN_CLEAN.min(self.all.len() / 2).max(1)
    }

    /// The samples the statistics use, in the order taken, and whether
    /// they are the clean ones.
    pub fn samples(&self) -> (&[f64], bool) {
        if self.use_clean() {
            (&self.clean, true)
        } else {
            (&self.all, false)
        }
    }

    /// Ops per second: over the clean windows when the samples are.
    pub fn ops_per_s(&self) -> f64 {
        let (ops, secs) = if self.use_clean() {
            self.clean_rate
        } else {
            self.all_rate
        };
        ops / secs.max(1e-9)
    }

    pub fn counts(&self) -> (usize, usize) {
        (self.clean.len(), self.all.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_windows_drop_their_samples() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Three windows: clean, 10% stolen, clean.
        let log = StealLog {
            marks: vec![
                (at(0), 0, 0),
                (at(500), 0, 100),
                (at(1000), 10, 200),
                (at(1500), 10, 300),
            ],
        };
        assert_eq!(log.seconds(), (1.0, 1.5));
        let sample = |ms, us| Sample { start: at(ms), us };
        let samples = [
            sample(100, 10.0),
            sample(600, 99.0),
            sample(1100, 20.0),
            sample(450, 200_000.0),
        ];
        let mut latencies = Latencies::default();
        latencies.add(&samples, &log, 1.0);
        assert_eq!(latencies.counts(), (2, 4));
        assert_eq!(latencies.samples(), (&[10.0, 20.0][..], true));
        assert_eq!(latencies.ops_per_s(), 2.0);
        // Nothing clean: every sample counts.
        let mut stolen = Latencies::default();
        stolen.add(&[samples[1], samples[3]], &log, 1.0);
        assert!(!stolen.samples().1);
        // A large set needs MIN_CLEAN clean samples, however many are stolen.
        let mut large = Latencies::default();
        large.add(&vec![sample(100, 1.0); MIN_CLEAN - 1], &log, 1.0);
        large.add(&vec![sample(600, 1.0); 5 * MIN_CLEAN], &log, 1.0);
        assert!(!large.samples().1);
        large.add(&[sample(1100, 1.0)], &log, 1.0);
        assert!(large.samples().1);
    }
}
