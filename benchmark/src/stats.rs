//! The summary rules: medians, the tail percentile a sample supports, the
//! segment-median throughput and the ranking checksum.

/// The median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The nearest-rank `pct`-th percentile.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[nearest_rank(v.len(), pct) - 1]
}

/// Samples a tail percentile needs beyond it in the phase.
const BEYOND: usize = 20;

/// The highest percentile of `wanted, 90, 75, 50` that has at least
/// [`BEYOND`] of `n` samples beyond it: a tail read off fewer moves with
/// every stall of the machine that lands on a request or two.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    [wanted, 90.0, 75.0]
        .into_iter()
        .filter(|p| *p <= wanted)
        .find(|p| n.saturating_sub(nearest_rank(n, *p)) >= BEYOND)
        .unwrap_or(50.0)
}

/// 1-based rank of the `pct`-th percentile among `n` sorted samples.
fn nearest_rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Closed-loop throughput: `marks` are `(seconds since phase start,
/// requests completed so far)` after every step that completed something.
/// The phase is cut into `segments` of equal request count, each ending at
/// the first mark that reaches its share; the result is each segment's own
/// completed / elapsed, in order; their median is the throughput reported,
/// so one stalled segment does not move it.
pub fn segment_rps(marks: &[(f64, usize)], segments: usize) -> Vec<f64> {
    let total = marks.last().map_or(0, |m| m.1);
    let mut rates = Vec::new();
    let (mut t0, mut n0) = (0.0f64, 0usize);
    for seg in 1..=segments {
        let goal = total * seg / segments;
        let Some(&(t, n)) = marks.iter().find(|m| m.1 >= goal) else {
            break;
        };
        if n > n0 && t > t0 {
            rates.push((n - n0) as f64 / (t - t0));
            (t0, n0) = (t, n);
        }
    }
    rates
}

/// Splits `samples` (in arrival order) into consecutive windows and returns
/// per window its median and its tail, and which percentile the tail is:
/// the highest up to `wanted` with twenty samples beyond it in the whole
/// phase. Up to 8 windows of at least 100 samples are cut, so a p95 has
/// five samples beyond it in each; the caller reports the median over
/// windows, which a stall of the machine inside a minority of them does
/// not move.
pub fn windowed_latency(samples: &[f64], wanted: f64) -> (Vec<f64>, Vec<f64>, f64) {
    let n = samples.len();
    let windows = (n / 100).clamp(1, 8);
    let size = n.div_ceil(windows).max(1);
    let tail = supported_percentile(n, wanted);
    let (mut mids, mut tails) = (Vec::new(), Vec::new());
    for window in samples.chunks(size) {
        mids.push(median(window));
        tails.push(percentile(window, tail));
    }
    (mids, tails, tail)
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `word`, continuing from `hash`.
pub fn fnv1a_u64(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_percentile_needs_twenty_samples_beyond_it() {
        assert_eq!(supported_percentile(400, 95.0), 95.0);
        assert_eq!(supported_percentile(399, 95.0), 90.0);
        assert_eq!(supported_percentile(200, 95.0), 90.0);
        assert_eq!(supported_percentile(199, 95.0), 75.0);
        assert_eq!(supported_percentile(80, 95.0), 75.0);
        assert_eq!(supported_percentile(79, 95.0), 50.0);
        assert_eq!(supported_percentile(1000, 90.0), 90.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_splits_even_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn a_stalled_segment_does_not_move_the_segment_median() {
        // 16 requests per step, a step a second; the third segment stalls 10 s.
        let mut marks = Vec::new();
        let mut t = 0.0;
        for step in 1..=10usize {
            t += if step == 5 { 11.0 } else { 1.0 };
            marks.push((t, step * 16));
        }
        assert_eq!(median(&segment_rps(&marks, 5)), 16.0);
        let whole = 160.0 / t;
        assert!(whole < 9.0, "the plain ratio is dragged to {whole}");
        assert!(segment_rps(&[], 5).is_empty());
    }

    #[test]
    fn latency_windows_keep_a_hundred_samples_each_and_shrug_off_one_stall() {
        let mut samples = vec![10.0; 1200];
        samples[300..400].fill(500.0); // a stall inside the third window
        let (mids, tails, tail) = windowed_latency(&samples, 95.0);
        assert_eq!((mids.len(), tails.len(), tail), (8, 8, 95.0));
        assert_eq!(median(&tails), 10.0);
        assert_eq!(
            percentile(&samples, 95.0),
            500.0,
            "the whole-phase p95 is the stall"
        );
        assert_eq!(windowed_latency(&samples[..700], 95.0).0.len(), 7);
        assert_eq!(windowed_latency(&samples[..399], 95.0).0.len(), 3);
        let (mids, _, tail) = windowed_latency(&samples[..100], 95.0);
        assert_eq!(
            (mids.len(), tail),
            (1, 75.0),
            "a short phase is one window with the tail its count supports"
        );
        assert_eq!(windowed_latency(&samples[..64], 95.0).2, 50.0);
        assert!(windowed_latency(&[], 95.0).0.is_empty());
    }

    #[test]
    fn checksum_depends_on_order_and_content() {
        let a = fnv1a_u64(fnv1a_u64(FNV_BASIS, 1), 2);
        let b = fnv1a_u64(fnv1a_u64(FNV_BASIS, 2), 1);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a_u64(fnv1a_u64(FNV_BASIS, 1), 2));
    }
}
