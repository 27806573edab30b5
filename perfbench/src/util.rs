//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, the metric list every run prints, and process memory.

use std::time::Instant;

/// SplitMix64: a tiny deterministic generator, so a `--seed` names the
/// same inputs on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_9E37_79B9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Microseconds elapsed since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// The metrics one run reports, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }

    /// The metrics object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed line `{line}`"))?;
    Ok(kb / 1024.0)
}

/// Counts operations and the reasons the failed ones failed.
#[derive(Default, Debug)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Ledger {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// Samples of one slice of a run's measured time.
#[derive(Default)]
pub struct Window {
    pub query_us: Vec<f64>,
    pub edit_us: Vec<f64>,
}

/// Completed requests per second a request was outstanding.
fn throughput(w: &Window) -> f64 {
    let busy_s = (w.query_us.iter().sum::<f64>() + w.edit_us.iter().sum::<f64>()) / 1e6;
    (w.query_us.len() + w.edit_us.len()) as f64 / busy_s
}

/// Splits a run's measured time into `WINDOWS` slices, closing a slice
/// only at a round boundary, so each slice holds whole rounds. Every
/// end-to-end figure is the median of its per-slice values: a burst of
/// interference from outside the benchmark spoils one slice, not the
/// figure.
pub struct Windows {
    pub windows: Vec<Window>,
    seconds: f64,
    started: Instant,
}

pub const WINDOWS: usize = 10;

impl Windows {
    pub fn start(seconds: f64) -> Windows {
        Windows {
            windows: vec![Window::default()],
            seconds,
            started: Instant::now(),
        }
    }

    pub fn current(&mut self) -> &mut Window {
        self.windows.last_mut().expect("at least one window")
    }

    /// Called after each round; returns whether the run is over.
    pub fn end_round(&mut self) -> bool {
        let due = self.seconds * self.windows.len() as f64 / WINDOWS as f64;
        if self.started.elapsed().as_secs_f64() < due {
            return false;
        }
        if self.windows.len() == WINDOWS {
            return true;
        }
        self.windows.push(Window::default());
        false
    }

    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<f64>>())
    }

    /// Query p50, query p99 and throughput (requests per second a request
    /// was outstanding), each the median over the slices (p99: see below).
    pub fn report(&self, m: &mut Metrics) {
        for (i, w) in self.windows.iter().enumerate() {
            eprintln!(
                "  slice {i}: {} queries, p50 {:.1} us, p99 {:.1} us; {} edits; {:.1} rps",
                w.query_us.len(),
                percentile(&w.query_us, 0.5),
                percentile(&w.query_us, 0.99),
                w.edit_us.len(),
                throughput(w)
            );
        }
        m.put(
            "query_p50_us",
            self.median_of(|w| percentile(&w.query_us, 0.5)),
            "us",
        );
        // A slice's p99 needs ten samples beyond it; where slices are
        // smaller, the p99 is taken over the whole run.
        let p99 = if self.windows.iter().all(|w| w.query_us.len() >= 1000) {
            self.median_of(|w| percentile(&w.query_us, 0.99))
        } else {
            percentile(&self.all_queries(), 0.99)
        };
        m.put("query_p99_us", p99, "us");
        m.put("throughput_rps", self.median_of(throughput), "1/s");
    }

    pub fn all_queries(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.query_us.iter().copied())
            .collect()
    }

    pub fn all_edits(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.edit_us.iter().copied())
            .collect()
    }
}
