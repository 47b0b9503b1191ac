//! Percentiles, quartiles and process memory.

/// Nearest-rank percentile `p` (0 < p ≤ 1) of ascending `sorted`:
/// returns the index of the sample that holds it.
#[must_use]
pub fn rank_index(len: usize, p: f64) -> usize {
    let rank = (p * len as f64).ceil() as usize;
    rank.clamp(1, len.max(1)) - 1
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them: `(q1, median, q3)`.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), median(&data), q(3))
}

/// Median (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad VmHWM line `{line}`"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(rank_index(100, 0.5), 49);
        assert_eq!(rank_index(100, 0.9), 89);
        assert_eq!(rank_index(1, 0.9), 0);
    }
}
