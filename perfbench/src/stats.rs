//! Sample summaries: the median, and the highest percentile that still has
//! at least [`MIN_BEYOND`] samples beyond it.

/// Samples a reported tail percentile must have strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in basis points, highest first.
pub const TAIL_LADDER_BP: [u32; 5] = [9_990, 9_900, 9_500, 9_000, 5_000];

/// 1-based nearest rank of the `bp`-basis-point percentile in `n` samples:
/// the smallest rank with at least `bp / 100` percent of the sample at or
/// below it. Integer arithmetic, so 99% of 1000 is exactly rank 990.
pub fn rank(n: usize, bp: u32) -> usize {
    let r = (n as u128 * bp as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `bp` percentile's rank.
pub fn beyond(n: usize, bp: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// Whether `n` samples support reporting the `bp` percentile.
pub fn supports(n: usize, bp: u32) -> bool {
    beyond(n, bp) >= MIN_BEYOND
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), bp) - 1]
}

/// Median of an ascending-sorted, non-empty sample (mean of the middle
/// pair for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// A timing sample reduced to what the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// The highest ladder percentile the sample supports, in basis points
    /// (`None` when fewer than [`MIN_BEYOND`] + 1 samples exist).
    pub tail_bp: Option<u32>,
    /// Its value.
    pub tail: f64,
}

impl Summary {
    /// Sorts `samples` in place and summarizes them; `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        let tail_bp = TAIL_LADDER_BP.iter().copied().find(|&bp| supports(n, bp));
        let tail = tail_bp.map_or(samples[n - 1], |bp| percentile(samples, bp));
        Some(Summary { n, median: median(samples), p99: percentile(samples, 9_900), tail_bp, tail })
    }

    /// Whether the p99 is backed by at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        supports(self.n, 9_900)
    }
}
