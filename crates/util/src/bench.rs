//! Wall-clock timing harness and a minimal JSON writer.
//!
//! Replaces the former `criterion` dev-dependency for the repo's
//! purposes: [`bench`] warms up, then runs batches until both a
//! minimum iteration count and a minimum wall time are reached, and
//! reports the median per-iteration time over batches (robust to a
//! stray slow batch); the `acfc-bench` benches print its samples.
//! [`time_once`] times one macro run. [`Json`] is the insertion-ordered
//! object writer behind the sweep and compare JSON / JSONL artifacts.

use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Total iterations across all measured batches.
    pub iters: u64,
    /// Median per-iteration nanoseconds across batches.
    pub median_ns: f64,
    /// Mean per-iteration nanoseconds over everything measured.
    pub mean_ns: f64,
}

impl Sample {
    /// Iterations per second implied by the median.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.median_ns.max(1e-9)
    }

    /// Human-readable one-liner.
    pub fn render(&self) -> String {
        format!(
            "{:<44} {:>12.1} ns/iter ({:.1} iters/s, {} iters)",
            self.name,
            self.median_ns,
            self.per_sec(),
            self.iters
        )
    }
}

/// Measures `f`, discarding its output via [`std::hint::black_box`].
///
/// Runs one warm-up batch, then measures batches of adaptively chosen
/// size until at least `min_total_ms` of wall time and 10 batches have
/// accumulated.
pub fn bench<R>(name: &str, min_total_ms: u64, mut f: impl FnMut() -> R) -> Sample {
    // Warm-up and batch sizing: aim for ~10ms batches.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1);
    let batch = ((10_000_000 / once_ns).max(1) as u64).min(1_000_000);
    let mut batch_ns: Vec<f64> = Vec::new();
    let mut total_iters = 0u64;
    let mut total_ns = 0u128;
    let deadline_ns = (min_total_ms as u128) * 1_000_000;
    while total_ns < deadline_ns || batch_ns.len() < 10 {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos();
        batch_ns.push(ns as f64 / batch as f64);
        total_iters += batch;
        total_ns += ns;
        if batch_ns.len() > 10_000 {
            break; // pathological: f too fast for the deadline to bind
        }
    }
    batch_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ns = batch_ns[batch_ns.len() / 2];
    Sample {
        name: name.to_string(),
        iters: total_iters,
        median_ns,
        mean_ns: total_ns as f64 / total_iters as f64,
    }
}

/// Times a single run of `f` (for macro measurements where one
/// execution is already seconds long), returning `(result, seconds)`.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// A tiny JSON object writer (insertion-ordered, no external deps).
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// An empty object.
    pub fn new() -> Json {
        Json::default()
    }

    /// Adds a numeric field (serialised with enough precision to
    /// round-trip). JSON has no NaN or infinity, so a non-finite value
    /// is written as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Json {
        let rendered = if !value.is_finite() {
            "null".to_string()
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value:.6}")
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a string field (escaping quotes and backslashes).
    pub fn str(mut self, key: &str, value: &str) -> Json {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds a raw pre-serialised value (e.g. a nested object).
    pub fn raw(mut self, key: &str, value: String) -> Json {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Serialises the object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}", body.join(",\n"))
    }

    /// Serialises the object onto a single line with no interior
    /// whitespace — the JSONL form (one object per line) used by
    /// streaming sweep artifacts.
    pub fn render_line(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let s = bench("spin", 5, || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.median_ns > 0.0);
        assert!(s.iters >= 10);
        assert!(s.render().contains("spin"));
        assert!(s.per_sec() > 0.0);
    }

    #[test]
    fn time_once_returns_result() {
        let (v, secs) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn json_renders_ordered_and_escaped() {
        let j = Json::new()
            .str("name", "a \"b\" \\c")
            .num("count", 3.0)
            .num("ratio", 0.5)
            .raw("nested", Json::new().num("x", 1.0).render());
        let text = j.render();
        assert!(text.starts_with("{\n  \"name\": \"a \\\"b\\\" \\\\c\","));
        assert!(text.contains("\"count\": 3,"));
        assert!(text.contains("\"ratio\": 0.500000"));
        assert!(text.contains("\"x\": 1"));
    }

    #[test]
    fn json_writes_non_finite_numbers_as_null() {
        let line = Json::new()
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY)
            .num("neg_inf", f64::NEG_INFINITY)
            .num("finite", 0.25)
            .render_line();
        assert_eq!(
            line,
            "{\"nan\":null,\"inf\":null,\"neg_inf\":null,\"finite\":0.250000}"
        );
    }

    #[test]
    fn render_line_is_single_line_compact() {
        let j = Json::new()
            .str("proto", "app-driven")
            .num("n", 8.0)
            .raw("lat", Json::new().num("p50", 101.0).render_line());
        let line = j.render_line();
        assert_eq!(
            line,
            "{\"proto\":\"app-driven\",\"n\":8,\"lat\":{\"p50\":101}}"
        );
        assert!(!line.contains('\n'));
    }
}
