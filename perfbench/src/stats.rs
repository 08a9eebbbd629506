//! Order statistics and small measurement helpers.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place). Returns 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0, so no metric is ever NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Index into a ping-pong walk over `n` frames: 0, 1, .., n-1, n-2, .., 1,
/// 0, 1, .. A stream longer than the generated frames keeps its
/// frame-to-frame similarity at the turning points, where a wrap-around
/// would jump from the last frame back to the first.
pub fn ping_pong(i: usize, n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    let period = 2 * (n - 1);
    let p = i % period;
    if p < n {
        p
    } else {
        period - p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn ping_pong_turns_without_jumps() {
        let walk: Vec<usize> = (0..9).map(|i| ping_pong(i, 4)).collect();
        assert_eq!(walk, [0, 1, 2, 3, 2, 1, 0, 1, 2]);
        assert_eq!(ping_pong(5, 1), 0);
    }
}
