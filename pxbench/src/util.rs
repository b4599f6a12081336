//! Small shared pieces: seeded randomness, percentiles, resident
//! memory, the machine fingerprint, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// splitmix64: a tiny seeded generator for the benchmark's own draws
/// (query order, Zipf ranks), independent of the program's generators.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
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

/// The timed window cut into equal slices by completion time, each with
/// its own median, tail and throughput; every end-to-end figure is the
/// median over the slices.
///
/// The benchmark runs on shared machines whose speed swings by more
/// than half for seconds at a time while other tenants run. A figure
/// pooled over the whole window moves with the share of the window that
/// happened to be disturbed, and the slowest stretches own its tail;
/// the median slice ignores any disturbance that covers less than half
/// the window. A program change shifts every slice, so it moves the
/// median slice too, and so does a regression that strikes only some
/// stretches of the window (a periodic stall) once it strikes every
/// other slice. The best slices would hide that: a figure taken from
/// them also swung more from run to run, with how calm the best
/// moments of a run happened to be.
pub struct Slices {
    p50: Vec<f64>,
    tail: Vec<f64>,
    rate: Vec<f64>,
    tail_q: f64,
    counts: Vec<usize>,
}

impl Slices {
    /// Cuts `(completion offset ns, latency ns, counts towards the
    /// median)` samples of a window of `seconds` into `n` slices. Tail
    /// (`tail_q`) and throughput use every sample; the median uses the
    /// marked ones (the workload's defining operation).
    pub fn of(samples: &[(u64, u64, bool)], seconds: f64, n: usize, tail_q: f64) -> Slices {
        let len_ns = (seconds * 1e9 / n as f64).max(1.0);
        let mut all: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut marked: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &(end, lat, mark) in samples {
            let i = ((end as f64 / len_ns) as usize).min(n - 1);
            all[i].push(lat);
            if mark {
                marked[i].push(lat);
            }
        }
        let keep: Vec<usize> = (0..n).filter(|&i| !marked[i].is_empty()).collect();
        Slices {
            p50: keep
                .iter()
                .map(|&i| percentile(&marked[i], 0.5) as f64 / 1e3)
                .collect(),
            tail: keep
                .iter()
                .map(|&i| percentile(&all[i], tail_q) as f64 / 1e3)
                .collect(),
            rate: keep
                .iter()
                .map(|&i| all[i].len() as f64 / (len_ns / 1e9))
                .collect(),
            tail_q,
            counts: all.iter().map(Vec::len).collect(),
        }
    }

    /// Per-slice figures given directly (one slice per repetition).
    pub fn from_parts(
        p50: Vec<f64>,
        tail: Vec<f64>,
        rate: Vec<f64>,
        tail_q: f64,
        counts: Vec<usize>,
    ) -> Slices {
        Slices {
            p50,
            tail,
            rate,
            tail_q,
            counts,
        }
    }

    /// Median over the slices of their median latency (µs).
    pub fn p50_us(&self) -> f64 {
        median(&self.p50)
    }

    /// Median over the slices of their tail latency (µs).
    pub fn tail_us(&self) -> f64 {
        median(&self.tail)
    }

    /// Median over the slices of their completions per second.
    pub fn throughput(&self) -> f64 {
        median(&self.rate)
    }

    /// Report lines: every slice's figures.
    pub fn describe(&self) -> Vec<String> {
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        vec![
            format!("slices: {} with samples {:?}", self.p50.len(), self.counts),
            format!("slice p50 (us): {}", fmt(&self.p50)),
            format!(
                "slice p{} (us): {}",
                (self.tail_q * 100.0).round() as u32,
                fmt(&self.tail)
            ),
            format!("slice throughput (1/s): {}", fmt(&self.rate)),
        ]
    }
}

/// Resident set size of this process in MiB (Linux `VmRSS`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when the working
/// directory is a git checkout, else from `PXBENCH_COMMIT`, else
/// `unknown`.
pub fn commit() -> String {
    let from_git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    from_git()
        .or_else(|| std::env::var("PXBENCH_COMMIT").ok())
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, CPU model and kernel release.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel}")
}

/// A metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// The unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Ordered metric map.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts one metric.
pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), Metric { value, unit });
}

/// Formats a float for JSON with all its digits (non-finite → 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn slices_report_the_median_slice() {
        // Slice i of 20 (one second each) holds 10 + i requests of
        // (i + 1) µs; only even slices' requests count towards the
        // median, so odd slices are dropped.
        let mut samples = Vec::new();
        for i in 0..20u64 {
            for _ in 0..10 + i {
                samples.push((i * 1_000_000_000 + 1, (i + 1) * 1000, i % 2 == 0));
            }
        }
        let s = Slices::of(&samples, 20.0, 20, 0.99);
        // Kept slices 0, 2, …, 18: latencies 1, 3, …, 19 µs and rates
        // 10, 12, …, 28 per second.
        assert_eq!(s.p50_us(), 10.0);
        assert_eq!(s.tail_us(), 10.0);
        assert_eq!(s.throughput(), 19.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
