//! The few statistics the benchmark reports: medians, the quartile spread the acceptance
//! rule uses, and the segment-median percentile every latency figure goes through.

/// Median of a sample (mean of the two middle values for even sizes); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples.
pub fn median_u64(values: &[u64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|v| *v as f64).collect();
    median(&as_f64)
}

/// First and third quartile exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), because that is the rule runs are judged by.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the "spread" recorded next to every
/// repeated number.  `None` when there are too few values or the median is 0.
pub fn spread_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile of an unsorted sample (`p` in 0..=100); sorts in place.
pub fn percentile_in_place(sample: &mut [u64], p: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = ((p / 100.0) * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

/// The percentile the benchmark reports: the sample is cut, in arrival order, into ten
/// equal segments, each segment's percentile is taken, and the median of the ten is
/// returned.  One slow stretch (a scheduler hiccup, a page-cache miss) then moves one
/// segment's figure instead of owning the tail of the whole run.  Samples too small to
/// give every segment twenty values are reported from the whole sample instead.
pub fn segment_percentile(sample: &[u64], p: f64) -> f64 {
    const SEGMENTS: usize = 10;
    if sample.len() < SEGMENTS * 20 {
        let mut all = sample.to_vec();
        return percentile_in_place(&mut all, p) as f64;
    }
    let per = sample.len() / SEGMENTS;
    let figures: Vec<f64> = (0..SEGMENTS)
        .map(|s| {
            let mut seg = sample[s * per..(s + 1) * per].to_vec();
            percentile_in_place(&mut seg, p) as f64
        })
        .collect();
    median(&figures)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(sample: &[u64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().map(|v| *v as f64).sum::<f64>() / sample.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread_share(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "5.5/5.5, got {s}");
    }

    #[test]
    fn segment_percentile_ignores_one_bad_stretch() {
        // 1000 samples of 10, with one segment's worth of outliers in the middle: the
        // whole-sample p99 is the outlier, the segment median is not.
        let mut sample = vec![10u64; 1000];
        for v in &mut sample[400..500] {
            *v = 10_000;
        }
        let mut all = sample.clone();
        assert_eq!(percentile_in_place(&mut all, 99.0), 10_000);
        assert_eq!(segment_percentile(&sample, 99.0), 10.0);
        assert_eq!(segment_percentile(&sample, 50.0), 10.0);
    }

    #[test]
    fn small_samples_fall_back_to_the_plain_percentile() {
        let sample: Vec<u64> = (1..=50).collect();
        assert_eq!(segment_percentile(&sample, 50.0), 25.0);
        assert_eq!(segment_percentile(&sample, 100.0), 50.0);
        assert_eq!(segment_percentile(&[], 50.0), 0.0);
    }
}
