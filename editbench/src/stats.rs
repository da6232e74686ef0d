//! Order statistics over timing samples, and the choice of the samples
//! the host left alone.

use crate::host::{now_s, Steal};

/// Largest share of its wanted CPU time the host may steal over a sample
/// for the sample to count as quiet.
pub const QUIET_STEAL: f64 = 0.03;

/// Smallest share of the samples [`quiet`] keeps: when fewer are quiet,
/// it keeps this share, the least stolen from.
pub const MIN_KEPT: f64 = 0.25;

/// One measurement and the stretch of the run it covers, in seconds of
/// [`now_s`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The measured value.
    pub value: f64,
    /// When the measured stretch began.
    pub t0: f64,
    /// When it ended.
    pub t1: f64,
}

impl Sample {
    /// `value`, measured over the `seconds` that end now.
    pub fn ended(value: f64, seconds: f64) -> Sample {
        let t1 = now_s();
        Sample {
            value,
            t0: t1 - seconds,
            t1,
        }
    }
}

/// The samples over which the host stole at most [`QUIET_STEAL`] of the
/// CPU time the process wanted, in order; or, when fewer than
/// [`MIN_KEPT`] of them are that quiet, that share of them with the least
/// steal.
///
/// On a shared virtual machine the hypervisor runs other guests on the
/// same cores in bursts of a fraction of a second to minutes. A sample
/// taken while it does measures the neighbours: from run to run, the
/// same requests took twice as long when a fifth of the CPU time was
/// stolen.
pub fn quiet(samples: &[Sample], steal: &Steal) -> Vec<Sample> {
    let shares: Vec<f64> = samples.iter().map(|s| steal.share(s.t0, s.t1)).collect();
    let need = (samples.len() as f64 * MIN_KEPT).ceil() as usize;
    let mut cut = QUIET_STEAL;
    if shares.iter().filter(|&&x| x <= cut).count() < need {
        let mut sorted = shares.clone();
        sorted.sort_by(f64::total_cmp);
        cut = sorted[need - 1];
    }
    samples
        .iter()
        .zip(&shares)
        .filter(|(_, &share)| share <= cut)
        .map(|(s, _)| *s)
        .collect()
}

/// The values of `samples`, in order.
pub fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.value).collect()
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics; `NaN` when `v` is empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The 95th percentile of `v`.
pub fn p95(v: &[f64]) -> f64 {
    quantile(v, 0.95)
}

/// The `q`-quantile of each chunk of `chunk` consecutive samples of `v`.
/// A short last chunk joins the one before; fewer than `chunk` samples
/// form one chunk.
pub fn chunk_quantiles(v: &[f64], chunk: usize, q: f64) -> Vec<f64> {
    let n = (v.len() / chunk).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n { v.len() } else { (i + 1) * chunk };
            quantile(&v[i * chunk..end], q)
        })
        .collect()
}

/// The mean of `v`; `NaN` when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The largest value of `v`; `NaN` when empty.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(max(&v), 4.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn quiet_keeps_the_samples_the_host_left_alone() {
        // One period per second; the second and fourth lose half their
        // wanted time to steal.
        let steal = Steal::from_points(vec![
            (0.0, 0, 0),
            (1.0, 0, 100),
            (2.0, 50, 200),
            (3.0, 50, 300),
            (4.0, 100, 400),
        ]);
        let at = |value: f64, t0: f64, t1: f64| Sample { value, t0, t1 };
        assert_eq!(steal.share(0.2, 0.4), 0.0);
        assert_eq!(steal.share(1.5, 1.6), 0.5);
        assert_eq!(steal.share(0.5, 2.5), 50.0 / 300.0);
        let samples = [
            at(1.0, 0.1, 0.2),
            at(9.0, 1.1, 1.2),
            at(2.0, 2.1, 2.2),
            at(9.0, 3.1, 3.2),
        ];
        assert_eq!(values(&quiet(&samples, &steal)), vec![1.0, 2.0]);
        // None quiet: the least-stolen quarter.
        let noisy = [at(5.0, 1.1, 1.2), at(7.0, 0.5, 2.5), at(6.0, 3.1, 3.9)];
        assert_eq!(values(&quiet(&noisy, &steal)), vec![7.0]);
        assert!(quiet(&[], &steal).is_empty());
    }

    #[test]
    fn chunk_quantiles_merge_a_short_tail() {
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(chunk_quantiles(&v, 10, 1.0), vec![9.0, 24.0]);
        assert_eq!(chunk_quantiles(&v[..5], 10, 0.0), vec![0.0]);
    }
}
