//! The measured values of a run and the statistics behind them.

use std::collections::BTreeMap;

/// What one workload run measured. Metric names, units and the
/// choice of end-to-end or per-layer metrics live in `BENCHMARK.json`
/// alone; `run.py` checks these values against it.
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (busy, error, no reply, unroutable).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report for a run of `attempted` operations.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            values: BTreeMap::new(),
        }
    }

    /// Records one metric by name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// One JSON line: `attempted`, `failed` and every measured value
    /// by name.
    pub fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value:?}"))
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            values.join(", ")
        )
    }
}

/// Records the tail percentiles of the op and minor latencies (µs).
pub fn set_tails(rep: &mut Report, op: &mut [f64], minor: &mut [f64]) {
    rep.set("e2e.op_p90_us", percentile(op, 0.90));
    rep.set("e2e.op_p99_us", percentile(op, 0.99));
    rep.set("e2e.minor_p90_us", percentile(minor, 0.90));
    rep.set("e2e.minor_p99_us", percentile(minor, 0.99));
}

/// Nearest-rank percentile of `samples` (`q` in 0..=1); sorts in place.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (nearest rank); sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// A small deterministic generator (SplitMix64) for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
