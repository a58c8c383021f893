//! Median and quartiles of a metric's samples, by `tm_stats::quantile`
//! (linear interpolation between order statistics).

use tm_stats::quantile;

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `data`; all zero when empty.
    pub fn of(data: &[f64]) -> Summary {
        let q = |p| quantile(data, p).unwrap_or(0.0);
        Summary {
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            n: data.len(),
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_some_one_and_none() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(s.spread(), 2.0 / 3.0);
        let one = Summary::of(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
