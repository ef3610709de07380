//! Sample statistics for the experimental methodology.
//!
//! The paper runs every experiment repeatedly and reports means with 90%
//! confidence intervals within 5% of the mean (§3.1.1, §4.1). [`Sample`]
//! accumulates observations with Welford's algorithm and produces the
//! Student-t 90% confidence half-width; the experiment harness uses it to
//! decide when enough repetitions have been run.

/// Running mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Sample {
    /// An empty sample.
    pub fn new() -> Self {
        Sample {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 90% confidence interval for the mean.
    ///
    /// Uses the Student-t quantile for small samples, converging to the
    /// normal quantile (1.645) for large ones. Returns 0 with fewer than two
    /// observations.
    pub fn ci90_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let t = t_quantile_90(self.n - 1);
        t * self.std_dev() / (self.n as f64).sqrt()
    }
}

/// Two-sided 90% Student-t quantile (i.e. t_{0.95, df}).
fn t_quantile_90(df: u64) -> f64 {
    // Table for small df; the tail converges quickly to the z value.
    const TABLE: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    if df == 0 {
        f64::INFINITY
    } else if (df as usize) <= TABLE.len() {
        TABLE[df as usize - 1]
    } else if df <= 60 {
        1.671
    } else {
        1.645
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let mut s = Sample::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic dataset is 4; sample variance
        // is 4 * 8/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn identical_observations_have_a_zero_width_ci() {
        let mut s = Sample::new();
        s.add(3.0);
        s.add(3.0);
        assert_eq!(s.ci90_half_width(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut s = Sample::new();
        // Alternating 9/11: mean 10, sd ~1.
        for i in 0..10 {
            s.add(if i % 2 == 0 { 9.0 } else { 11.0 });
        }
        let w10 = s.ci90_half_width();
        for i in 0..90 {
            s.add(if i % 2 == 0 { 9.0 } else { 11.0 });
        }
        let w100 = s.ci90_half_width();
        assert!(w100 < w10 / 2.0, "CI did not shrink: {w10} -> {w100}");
    }

    #[test]
    fn t_quantile_monotone_towards_z() {
        assert!(t_quantile_90(1) > t_quantile_90(5));
        assert!(t_quantile_90(5) > t_quantile_90(29));
        assert!((t_quantile_90(1000) - 1.645).abs() < 1e-9);
    }
}
