//! Fixed-memory histogram of step times. Its size does not depend on how
//! many TTIs a run measures, so a faster program (more samples in the
//! same seconds) does not read as a larger peak RSS.

/// Sub-buckets per power of two: 2^10, a relative width under 0.1%.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;

/// Bucket of `v`: exact below 2^11, then 1024 buckets per power of two.
fn bucket(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros();
    if msb < SUB_BITS {
        v as usize
    } else {
        let shift = msb - SUB_BITS;
        ((shift as usize) << SUB_BITS) + (v >> shift) as usize
    }
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < 2 * SUB {
        (i as u64, 1)
    } else {
        let shift = (i >> SUB_BITS) - 1;
        let mantissa = (i - (shift << SUB_BITS)) as u64;
        (mantissa << shift, 1 << shift)
    }
}

pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; bucket(u64::MAX) + 1],
            total: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile, interpolated linearly by rank inside the
    /// bucket that holds it.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bounds(i);
                return lo as f64 + width as f64 * (rank - seen) as f64 / (c + 1) as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} is at most the sample count {}", self.total)
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Samples in buckets above the one holding `v`.
    pub fn count_above(&self, v: f64) -> u64 {
        self.counts[bucket(v as u64) + 1..].iter().sum()
    }
}

/// Median of `v` (0 when empty); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples per p99 block: the nearest-rank p99 of 1000 samples leaves
/// 10 above it.
const BLOCK: u64 = 1_000;

/// Step times of a run: every sample, plus the p99 of each block of whole
/// consecutive episodes holding at least [`BLOCK`] samples. The median of
/// the blocks' p99 is the run's p99: one burst of host noise moves one
/// block, not the run.
pub struct StepTimes {
    pub all: Histogram,
    block: Histogram,
    block_p99: Vec<f64>,
}

impl StepTimes {
    pub fn new() -> Self {
        StepTimes {
            all: Histogram::new(),
            block: Histogram::new(),
            block_p99: Vec::new(),
        }
    }

    pub fn record(&mut self, v: u64) {
        self.all.record(v);
        self.block.record(v);
    }

    pub fn end_episode(&mut self) {
        if self.block.len() >= BLOCK {
            self.block_p99.push(self.block.percentile(99.0));
            self.block.clear();
        }
    }

    /// Median of the blocks' p99, or the pooled p99 when no block filled.
    pub fn p99(&self) -> f64 {
        if self.block_p99.is_empty() {
            return self.all.percentile(99.0);
        }
        median(&mut self.block_p99.clone())
    }

    pub fn block_p99s(&self) -> &[f64] {
        &self.block_p99
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_their_values() {
        for v in (0..5_000u64).chain([65_535, 1 << 20, 123_456_789, u64::MAX >> 1]) {
            let (lo, width) = bounds(bucket(v));
            assert!(
                lo <= v && v - lo < width,
                "{v} outside bucket [{lo}, {lo}+{width})"
            );
        }
        for i in 0..bucket(u64::MAX) {
            let (lo, width) = bounds(i);
            assert_eq!(bounds(i + 1).0, lo + width, "gap after bucket {i}");
        }
    }

    #[test]
    fn percentiles_track_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (p, exact) in [(50.0, 500_000.0), (99.0, 990_000.0)] {
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.002,
                "p{p}: {got} vs {exact}"
            );
        }
        let above = h.count_above(h.percentile(99.0));
        assert!((90..=100).contains(&above), "{above} samples above p99");
    }
}
