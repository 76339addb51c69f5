//! Small shared pieces: the process clock, order statistics, a minimal
//! JSON value (the container has no serde), and flag parsing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

struct Clock {
    unix0_ns: u64,
    t0: Instant,
}

static CLOCK: OnceLock<Clock> = OnceLock::new();

/// Unix-epoch nanoseconds: the wall clock is sampled once per process and
/// every later reading is an `Instant` delta on top of it, so timestamps
/// of different processes share one axis without the wall clock's jumps.
pub fn now_ns() -> u64 {
    let c = CLOCK.get_or_init(|| Clock {
        unix0_ns: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
        t0: Instant::now(),
    });
    c.unix0_ns + c.t0.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it. Empty input is 0.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted f64 slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` of an unsorted slice, linearly interpolated between the
/// order statistics it falls between (never outside the data, whatever
/// their number). Empty input is 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Upper quartile: the statistic over a run's timed epochs for a rate.
/// Interference from outside the system — a neighbour on the host, the
/// machine's own housekeeping — only ever takes time away, by seconds at
/// a time, so the quarter of the epochs least disturbed says most about
/// the system; between sets of ten runs half an hour apart it drifted a
/// third less than the median did.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// Lower quartile: the same for a time or a cost.
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| -> f64 {
        // position i*(n+1)/4, 1-based, linearly interpolated and clamped
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON value. Integers that fit `u64` stay exact (`Int`): nanosecond
/// timestamps do not survive a round trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos).copied() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    if !map.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    map.insert(key, self.value()?);
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if let Ok(i) = text.parse::<u64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

/// `--flag value` pairs and bare `--switch`es, in the order given.
pub struct Args {
    items: Vec<String>,
}

impl Args {
    pub fn from_env() -> Self {
        Self {
            items: std::env::args().skip(1).collect(),
        }
    }

    pub fn has(&self, flag: &str) -> bool {
        self.items.iter().any(|a| a == flag)
    }

    /// The value following `flag`, if the flag is present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let pos = self.items.iter().position(|a| a == flag)?;
        self.items.get(pos + 1).map(String::as_str)
    }

    /// The `n` values following `flag`.
    pub fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let pos = self.items.iter().position(|a| a == flag)?;
        self.items.get(pos + 1..pos + 1 + n)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        // 1,700 samples leave 17 beyond the p99 rank — the ten the
        // smallest workload is sized for.
        let w: Vec<u64> = (0..1700).collect();
        let p99 = percentile_sorted(&w, 0.99);
        assert_eq!(w.iter().filter(|&&x| x > p99).count(), 17);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_and_stay_inside_the_data() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!((quiet_low(&v), quiet_high(&v)), (2.0, 4.0));
        // two epochs: a quarter of the way in from either end
        assert_eq!(
            (quiet_low(&[10.0, 20.0]), quiet_high(&[10.0, 20.0])),
            (12.5, 17.5)
        );
        assert_eq!(quiet_high(&[7.0]), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_round_trips_and_keeps_big_integers_exact() {
        let text = r#"{"a":[1,2.5,"x\n\"y"],"b":{"t":true,"n":null},"ns":1759000000123456789}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("ns").unwrap().as_u64(),
            Some(1_759_000_000_123_456_789)
        );
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\n\"y")
        );
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("[1,").is_err());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a && a > 1_600_000_000_000_000_000);
    }
}
