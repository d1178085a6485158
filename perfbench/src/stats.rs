//! Exact order statistics over raw samples (no histograms: every reported
//! percentile is a real sample).

/// Nearest-rank `q`-quantile of `samples` (sorted in place). 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The p50 and p99 of a latency sample set, with its size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// Windows the p99 is the median of (1: the p99 of all samples).
    pub windows: usize,
}

impl Percentiles {
    pub fn of(samples: &[f64]) -> Percentiles {
        Percentiles::windowed(samples, usize::MAX)
    }

    /// p50 over all samples; p99 as the median of the p99s of consecutive
    /// equal windows of at least `window` samples (in arrival order). A
    /// host stall then moves one window's p99 instead of the run's.
    pub fn windowed(samples: &[f64], window: usize) -> Percentiles {
        let windows = (samples.len() / window.max(1)).max(1);
        let size = samples.len() / windows;
        let mut p99s: Vec<f64> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    samples.len()
                } else {
                    (w + 1) * size
                };
                quantile(&mut samples[w * size..end].to_vec(), 0.99)
            })
            .collect();
        Percentiles {
            count: samples.len(),
            p50: quantile(&mut samples.to_vec(), 0.50),
            p99: median(&mut p99s),
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut samples = vec![1.0; 3_000];
        samples[10..50].iter_mut().for_each(|s| *s = 1_000.0);
        assert_eq!(Percentiles::of(&samples).p99, 1_000.0);
        let p = Percentiles::windowed(&samples, 1_000);
        assert_eq!((p.windows, p.p99, p.count), (3, 1.0, 3_000));
        assert_eq!(Percentiles::windowed(&samples[..1_500], 1_000).windows, 1);
    }
}
