//! The benchmark's own arithmetic and output: exact percentiles,
//! ratios that carry their base, ladder self times, and the result line.

use std::fmt::Write as _;

/// Every sample of one timing: its latency and when it completed, in
/// nanoseconds. Percentiles are exact: nearest rank over the sorted
/// samples, never a histogram bucket.
#[derive(Default, Clone, Debug)]
pub struct Samples {
    ns: Vec<u64>,
    at: Vec<u64>,
}

/// A timing summarised: sample count, median, p99, and how many samples
/// rank above the p99 sample (the p99 is only trusted with at least
/// [`MIN_BEYOND_P99`] of them).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub beyond_p99: usize,
}

pub const MIN_BEYOND_P99: usize = 10;

/// Index of the nearest-rank `q` quantile in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn dist_of(mut v: Vec<u64>) -> Option<Dist> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let i99 = rank(v.len(), 0.99);
    Some(Dist {
        n: v.len(),
        p50_ns: v[rank(v.len(), 0.5)],
        p99_ns: v[i99],
        beyond_p99: v.len() - 1 - i99,
    })
}

impl Samples {
    /// Record a latency of `ns` for an op that completed at `at_ns`.
    pub fn push(&mut self, at_ns: u64, ns: u64) {
        self.at.push(at_ns);
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.at.extend_from_slice(&other.at);
    }

    /// Samples completed in each of `n` consecutive windows of
    /// `window_ns` starting at `start_ns`.
    pub fn per_window(&self, start_ns: u64, window_ns: u64, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n];
        for &at in &self.at {
            let w = (at.saturating_sub(start_ns) / window_ns) as usize;
            if at >= start_ns && w < n {
                counts[w] += 1;
            }
        }
        counts
    }

    /// Split the samples, in completion order, into consecutive blocks
    /// of [`BLOCK`] and summarise them; `None` with fewer than one block.
    ///
    /// The reported percentile is the lower quartile, across blocks, of
    /// each block's exact percentile. Interference from outside the
    /// program (other tenants of a shared host) only ever raises a
    /// block's percentiles, so the quieter blocks measure the program;
    /// a regression in the program raises every block.
    pub fn blocked(&self) -> Option<Blocked> {
        let overall = dist_of(self.ns.clone())?;
        let mut order: Vec<usize> = (0..self.ns.len()).collect();
        order.sort_by_key(|&i| self.at[i]);
        let blocks: Vec<Dist> = order
            .chunks_exact(BLOCK)
            .filter_map(|c| dist_of(c.iter().map(|&i| self.ns[i]).collect()))
            .collect();
        if blocks.is_empty() {
            return None;
        }
        let q1 = |f: fn(&Dist) -> u64| {
            let v: Vec<f64> = blocks.iter().map(|d| f(d) as f64).collect();
            quantile(&v, 0.25)
        };
        Some(Blocked {
            overall,
            blocks: blocks.len(),
            p50_ns: q1(|d| d.p50_ns),
            p99_ns: q1(|d| d.p99_ns),
        })
    }
}

/// Samples per block: the fewest that leave [`MIN_BEYOND_P99`] samples
/// beyond each block's p99.
pub const BLOCK: usize = 100 * MIN_BEYOND_P99;

/// A timing summarised block by block (see [`Samples::blocked`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blocked {
    /// Every sample at once.
    pub overall: Dist,
    pub blocks: usize,
    /// Lower quartile across blocks of the block p50 and p99.
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// The `q` quantile of a non-empty list, interpolated between ranks
/// (what `statistics.quantiles(..., method="inclusive")` gives).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty list");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Self time of a ladder rung: per round, the rung's mean call time
/// minus the mean of the rung below it on the same op stream; the
/// median over rounds resists one disturbed round.
pub fn self_time(upper: &[f64], lower: &[f64]) -> f64 {
    assert_eq!(upper.len(), lower.len(), "rungs ran different rounds");
    let diffs: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
    median(&diffs)
}

/// Mean of a list of nanosecond durations, in microseconds.
pub fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
}

/// A ratio that remembers its base, so it prints as
/// `value (num_name num / den_name den)`. A zero base gives 0.
#[derive(Clone, Debug)]
pub struct Ratio {
    num: f64,
    num_name: &'static str,
    den: f64,
    den_name: &'static str,
}

impl Ratio {
    pub fn new(num: f64, num_name: &'static str, den: f64, den_name: &'static str) -> Ratio {
        Ratio {
            num,
            num_name,
            den,
            den_name,
        }
    }

    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    pub fn base(&self) -> String {
        format!(
            "{} {} / {} {}",
            self.num_name,
            fmt_num(self.num),
            self.den_name,
            fmt_num(self.den)
        )
    }
}

fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// One named metric with its unit and a note saying how it was measured
/// (sample counts, ratio bases, or why it does not apply).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }

    pub fn ratio(name: &'static str, unit: &'static str, r: &Ratio) -> Metric {
        Metric::new(name, r.value(), unit, r.base())
    }

    /// A metric of a layer this workload does not cross: printed as 0
    /// with the reason, so every run reports the same metric names.
    pub fn absent(name: &'static str, unit: &'static str, why: &str) -> Metric {
        Metric::new(name, 0.0, unit, format!("absent on this workload: {why}"))
    }
}

/// What one run prints last.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    pub fn new(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> ResultLine {
        ResultLine {
            correct,
            attempted,
            failed,
            metrics: metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
                .collect(),
        }
    }

    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives; a non-finite value is a
    /// benchmark bug and panics.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is {value}");
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.fract() == 0.0 {
                format!("{value:.1}")
            } else {
                format!("{value}")
            };
            let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    /// Parse a line printed by [`ResultLine::json`].
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let top = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let Json::Obj(top) = top else {
            return Err("result is not an object".into());
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let (Json::Bool(correct), Json::Num(attempted), Json::Num(failed), Json::Obj(ms)) =
            (&top[0].1, &top[1].1, &top[2].1, &top[3].1)
        else {
            return Err("wrong value types".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            match m {
                Json::Obj(f) if f.len() == 2 && f[0].0 == "value" && f[1].0 == "unit" => {
                    match (&f[0].1, &f[1].1) {
                        (Json::Num(v), Json::Str(u)) => metrics.push((name.clone(), *v, u.clone())),
                        _ => return Err(format!("metric {name}: wrong value types")),
                    }
                }
                _ => return Err(format!("metric {name}: expected value and unit")),
            }
        }
        Ok(ResultLine {
            correct: *correct,
            attempted: *attempted as u64,
            failed: *failed as u64,
            metrics,
        })
    }
}

/// The subset of JSON the result line uses.
#[cfg(test)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let Json::Str(k) = self.value()? else {
                        return Err(format!("object key at byte {} is not a string", self.i));
                    };
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                let start = self.i + 1;
                let len = self.s[start..]
                    .iter()
                    .position(|&c| c == b'"')
                    .ok_or("unterminated string")?;
                self.i = start + len + 1;
                let text =
                    std::str::from_utf8(&self.s[start..start + len]).map_err(|e| e.to_string())?;
                if text.contains('\\') {
                    return Err("escapes are not used in the result line".into());
                }
                Ok(Json::Str(text.to_string()))
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for (i, ns) in (1..=1000).rev().enumerate() {
            s.push(i as u64, ns);
        }
        let d = dist_of(s.ns.clone()).unwrap();
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50_ns, 500);
        assert_eq!(d.p99_ns, 990);
        assert_eq!(d.beyond_p99, 10);
        // Exact, not bucketed: a p99 that is no power of two stays so.
        let mut s = Samples::default();
        for i in 0..2000 {
            s.push(i, 1000 + i);
        }
        let d = dist_of(s.ns.clone()).unwrap();
        assert_eq!(d.p99_ns, 1000 + 1979);
        // Two blocks of 1000 in completion order; the short tail block
        // is left out, and the lower quartile interpolates between them.
        s.push(1, 1_000_000);
        let b = s.blocked().unwrap();
        assert_eq!(b.blocks, 2);
        assert_eq!(b.overall.n, 2001);
        assert_eq!(b.p99_ns, 1989.0 + 0.25 * 999.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(rank(1, 0.99), 0);
        assert_eq!(rank(100, 0.5), 49);
        assert!(dist_of(Vec::new()).is_none());
        assert_eq!(s.per_window(1000, 500, 3), vec![500, 500, 0]);
        assert_eq!(s.per_window(0, 1000, 1), vec![1001]);
        assert!(Samples::default().blocked().is_none());
    }

    #[test]
    fn ladder_self_time_is_the_median_round_difference() {
        let server = [10.0, 11.0, 30.0];
        let core = [7.0, 8.0, 8.0];
        assert_eq!(self_time(&server, &core), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean_us(&[1000, 3000]), 2.0);
    }

    #[test]
    fn ratios_print_their_base() {
        let r = Ratio::new(3.0, "hits", 4.0, "lookups");
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.base(), "hits 3 / lookups 4");
        assert_eq!(Ratio::new(5.0, "a", 0.0, "b").value(), 0.0);
        let m = Metric::ratio("buffer.hit_ratio", "ratio", &r);
        assert_eq!((m.value, m.note.as_str()), (0.75, "hits 3 / lookups 4"));
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Metric::new("latency_ms", 1.2034, "ms", ""),
            Metric::new("setup_s", 2.0, "s", ""),
            Metric::new("ops_per_s", 1.5e-7, "ops/s", ""),
        ];
        let out = ResultLine::new(true, 1000, 3, &metrics);
        let line = out.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 3,"));
        assert!(line.contains("\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}"));
        assert_eq!(ResultLine::parse(&line), Ok(out));
        assert!(ResultLine::parse("{\"correct\": true}").is_err());
        assert!(ResultLine::parse(&format!("{line} x")).is_err());
    }
}
