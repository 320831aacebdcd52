//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const TAIL_SUPPORT: usize = 10;

/// The five-number summary every result line carries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Linear interpolation at rank `q·(n−1)` of an ascending slice.
fn at(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Summarise `samples`; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    Some(Summary {
        n: s.len(),
        min: s[0],
        q1: at(&s, 0.25),
        median: at(&s, 0.5),
        q3: at(&s, 0.75),
        max: s[s.len() - 1],
    })
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (`0 < p < 1`) of `samples`, or `None` when fewer than
/// [`TAIL_SUPPORT`] samples lie beyond its rank on the far side (above it
/// for `p ≥ 0.5`, below it otherwise).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let rank = p * (s.len() - 1) as f64;
    let beyond = if p >= 0.5 {
        s.len() - 1 - rank.floor() as usize
    } else {
        rank.ceil() as usize
    };
    (beyond >= TAIL_SUPPORT).then(|| at(&s, p))
}

/// One percentile sample per cycle where the cycle supports it; when no
/// single cycle does, the percentile of all cycles pooled; and for a run
/// too small even for that, the pooled extreme on that side.
pub fn percentile_per_cycle(cycles: &[Vec<f64>], p: f64) -> Vec<f64> {
    let per_cycle: Vec<f64> = cycles.iter().filter_map(|c| percentile(c, p)).collect();
    if !per_cycle.is_empty() {
        return per_cycle;
    }
    let pooled: Vec<f64> = cycles.iter().flatten().copied().collect();
    match percentile(&pooled, p) {
        Some(v) => vec![v],
        None if p >= 0.5 => vec![pooled.iter().copied().fold(0.0, f64::max)],
        None => vec![min(&pooled)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
        assert!((even.spread() - 1.5 / 2.5).abs() < 1e-12);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        // Rank 989.01 of 0..=999: the ten samples 990..=999 lie above it.
        assert!((percentile(&thousand, 0.99).unwrap() - 989.01).abs() < 1e-9);
        // Rank 891.99 of 902 samples still has ten above, rank 891 of 901 has nine.
        assert!(percentile(&thousand[..902], 0.99).is_some());
        assert!(percentile(&thousand[..901], 0.99).is_none());
        // The low side counts samples below the rank.
        assert!(percentile(&thousand, 0.10).is_some());
        assert!(percentile(&thousand[..91], 0.10).is_none());
        // A median of 21 samples has exactly ten on either side.
        assert_eq!(percentile(&thousand[..21], 0.5), Some(10.0));
        assert!(percentile(&thousand[..19], 0.5).is_none());
    }

    #[test]
    fn unsupported_cycles_fall_back_to_the_pool() {
        let small: Vec<Vec<f64>> = (0..40)
            .map(|c| (0..30).map(|i| f64::from(c * 30 + i)).collect())
            .collect();
        // No 30-sample cycle supports p99, the 1200-sample pool does.
        let pooled = percentile_per_cycle(&small, 0.99);
        assert_eq!(pooled.len(), 1);
        assert!(pooled[0] > 1180.0);
        let tiny = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(percentile_per_cycle(&tiny, 0.99), vec![3.0]);
        assert_eq!(percentile_per_cycle(&tiny, 0.10), vec![1.0]);
    }
}
