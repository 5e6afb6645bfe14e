//! Order statistics: every timing the ledger prints
//! is a median with its quartiles and sample count next to it.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread figure the
    /// README tables quote next to every number.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median
        }
    }
}

/// Quantile `q` of `sorted` by linear interpolation between closest ranks
/// (the "inclusive" method: q = 0 is the minimum, q = 1 the maximum).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarise `samples`; `None` when there are none (every run of that
/// runtime failed).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        p25: quantile(&s, 0.25),
        p75: quantile(&s, 0.75),
    })
}

/// Median of `samples` that are known not to be empty (0 if they are).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.n, s.p25, s.median, s.p75), (5, 2.0, 3.0, 4.0));
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (17.5, 25.0, 32.5));
        assert!((s.spread() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = summarize(&[42.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (42.0, 42.0, 42.0));
        assert_eq!(s.spread(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0]).unwrap();
        let b = summarize(&[9.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(a, b);
    }
}
