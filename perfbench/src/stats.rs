//! Latency summaries.

/// Median (mean of the middle two for an even count); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentiles a window may report, highest first.
const TAIL_LADDER: [f64; 8] = [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it.
fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, n.max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// Median and tail of one set of latencies (in µs).
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Percentile the tail is taken at.
    pub tail_pct: f64,
    /// The median over consecutive fixed-size windows of each window's
    /// `tail_pct` percentile.
    pub tail: f64,
    pub windows: usize,
    pub window: usize,
    pub sum: f64,
}

impl Summary {
    /// Summarize samples in the order they were taken. The tail is
    /// taken per window of `window` consecutive samples, at the highest
    /// percentile with at least ten samples beyond it in a window, and
    /// the median over windows is reported: a fixed window fixes the
    /// percentile, and the median keeps the few windows a sandbox
    /// hiccup lands in from setting the result. A trailing partial
    /// window is dropped from the tail; with less than one full window
    /// the whole sample is one window.
    pub fn of(samples: Vec<f64>, window: usize) -> Summary {
        let n = samples.len();
        let sum = samples.iter().sum();
        let window = if n < window { n } else { window };
        let pct = tail_pct(window);
        let mut tails: Vec<f64> = samples
            .chunks_exact(window.max(1))
            .map(|w| {
                let mut w = w.to_vec();
                w.sort_by(f64::total_cmp);
                percentile(&w, pct)
            })
            .collect();
        let windows = tails.len();
        let tail = median(&mut tails);
        let mut all = samples;
        let p50 = median(&mut all);
        Summary {
            n,
            p50,
            tail_pct: pct,
            tail,
            windows,
            window,
            sum,
        }
    }

    /// Printed beside the tail metric.
    pub fn tail_label(&self) -> String {
        format!(
            "p{} of {}-sample windows, median of {} windows ({} samples)",
            self.tail_pct, self.window, self.windows, self.n
        )
    }
}
