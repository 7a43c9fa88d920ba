//! Small shared helpers: a seeded generator, a Zipf sampler, quantiles,
//! process memory, and the few JSON scraps the client needs.

use std::path::Path;

/// SplitMix64: the benchmark's own seeded generator, so its inputs do not
/// move when the repository's `rand` stand-in changes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for `tag` (a connection, a family, ...).
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `p`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Stretches a run is cut into for [`windowed_p99`] and [`windowed_rate`].
const WINDOWS: usize = 10;

/// The median, over [`WINDOWS`] equal stretches of `span` seconds, of each
/// stretch's completions per second. `streams` hold completion times in
/// seconds from the start of the run; completions after `span` (the
/// drain) are not counted.
pub fn windowed_rate(streams: &[&[f64]], span: f64) -> f64 {
    let width = span / WINDOWS as f64;
    let mut counts = [0u64; WINDOWS];
    for &t in streams.iter().flat_map(|s| s.iter()) {
        let k = (t / width) as usize;
        if k < WINDOWS {
            counts[k] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// The median, over [`WINDOWS`] consecutive stretches of a run, of each
/// stretch's 99th percentile, so one burst of host noise moves one
/// stretch and not the result. `streams` are per-client samples in
/// completion order; stretch `k` takes the `k`-th tenth of every stream.
pub fn windowed_p99(streams: &[&[f64]]) -> f64 {
    let p99s: Vec<f64> = (0..WINDOWS)
        .map(|k| {
            let window: Vec<f64> = streams
                .iter()
                .flat_map(|s| &s[k * s.len() / WINDOWS..(k + 1) * s.len() / WINDOWS])
                .copied()
                .collect();
            quantile(&window, 0.99)
        })
        .collect();
    median(&p99s)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty directory (removing what was there).
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// The raw JSON text of `key`'s value in a flat response object: a
/// number, `true`/`false`, a string (with its quotes) or a bracketed array
/// of numbers. Response keys never occur inside the values the benchmark
/// reads, so a plain search is exact here.
pub fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = match rest.as_bytes().first()? {
        b'[' => {
            let mut depth = 0usize;
            let mut end = rest.len();
            for (i, b) in rest.bytes().enumerate() {
                match b {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            end = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end
        }
        b'"' => rest[1..].find('"').map_or(rest.len(), |i| i + 2),
        _ => rest.find([',', '}']).unwrap_or(rest.len()),
    };
    Some(&rest[..end])
}

pub fn num_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

pub fn status_of(line: &str) -> &str {
    raw_field(line, "status").map_or("", |s| s.trim_matches('"'))
}

/// Renders one JSON number with all its digits (`null` never appears:
/// non-finite values are clamped to the largest finite double).
pub fn json_num(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}
