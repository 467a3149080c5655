//! Machine-readable perf records (`BENCH_<experiment>.json`).
//!
//! Every record is one [`Json`] value: its `Display` is the only writer and
//! [`Json::parse`] the only reader (the workspace has no serde). The
//! builders [`e6`], [`e7`], [`e8_lanes`], [`e9`] and [`e10`] turn a
//! bench's measurements into a record, [`write_record`] stores it under
//! [`record_root`], and the `bench_trend` binary reads it back to gate the
//! headline ratios. Times are whole microseconds in `*_us` fields; ratios
//! are plain numbers.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use upec_ssc::{IterationStat, Verdict};

use crate::portfolio::{PortfolioEntry, PortfolioReport, SetupComparison};
use crate::{E8LanesComparison, IncrementalComparison, ProcedureComparison, ScalingPoint};

/// A perf-record value: JSON without `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number. `Display` writes a non-finite one as a string (`"NaN"`,
    /// `"inf"`, `"-inf"`), since JSON has no token for it.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Its fields keep their insertion order, so a record prints
    /// in the order its builder wrote it.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a whole text as one value: JSON without `null`, with no key
    /// twice in one object, and nothing but whitespace after the value.
    ///
    /// # Errors
    ///
    /// Says what the parser expected at the byte offset of the first byte
    /// it cannot accept.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        let value = p.value()?;
        if p.pos < text.len() {
            return p.fail("the end of the input");
        }
        Ok(value)
    }

    /// The field `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number, if `self` is one.
    pub fn num(&self) -> Option<f64> {
        let Json::Num(x) = self else { return None };
        Some(*x)
    }

    /// The boolean, if `self` is one.
    pub fn bool(&self) -> Option<bool> {
        let Json::Bool(b) = self else { return None };
        Some(*b)
    }

    /// The string, if `self` is one.
    pub fn str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The items, if `self` is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` never uses exponent notation and prints the shortest
            // digits that read back as the same `f64`.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(x) => write_str(f, &x.to_string()),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

macro_rules! json_from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}

json_from_integer!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// A duration as whole microseconds, the unit of every `*_us` field.
impl From<Duration> for Json {
    fn from(d: Duration) -> Json {
        d.as_micros().into()
    }
}

/// Deeper nesting is rejected, so a hostile file cannot overflow the stack.
const MAX_DEPTH: usize = 64;

/// The escapes other than `\u`, and the characters they name.
#[rustfmt::skip]
const ESCAPES: [(u8, char); 8] = [
    (b'"', '"'), (b'\\', '\\'), (b'/', '/'), (b'b', '\u{8}'),
    (b'f', '\u{c}'), (b'n', '\n'), (b'r', '\r'), (b't', '\t'),
];

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary: the parser steps over ASCII bytes, or
    /// over a run that a `str` search ended.
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, expected: &str) -> Result<T, String> {
        Err(format!("expected {expected} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `prefix` if the input continues with it.
    fn eat(&mut self, prefix: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(prefix);
        if hit {
            self.pos += prefix.len();
        }
        hit
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value with the whitespace around it.
    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        let value = match self.peek() {
            Some(b'[') => Json::Arr(self.items(b']', Self::value)?),
            Some(b'{') => {
                let mut keys = Vec::new();
                Json::Obj(self.items(b'}', |p| {
                    p.skip_whitespace();
                    let key_at = p.pos;
                    let key = p.string()?;
                    if keys.contains(&key) {
                        p.pos = key_at;
                        return p.fail("a key new to the object");
                    }
                    keys.push(key.clone());
                    p.skip_whitespace();
                    if !p.eat(":") {
                        return p.fail("`:`");
                    }
                    Ok((key, p.value()?))
                })?)
            }
            Some(b'"') => Json::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ if self.eat("true") => Json::Bool(true),
            _ if self.eat("false") => Json::Bool(false),
            _ => return self.fail("a value"),
        };
        self.skip_whitespace();
        Ok(value)
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket to `close`, each read by `item`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return self.fail("nesting at most 64 deep");
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_whitespace();
        let mut items = Vec::new();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        if self.peek() != Some(close) {
            return self.fail("`,` or the closing bracket");
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    /// A string, from its opening quote to its closing one.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.fail("a string");
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ').unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.eat("\"") {
                return Ok(out);
            }
            if !self.eat("\\") {
                return self.fail("a closing `\"` (a control character must be escaped)");
            }
            // `\u` and four hex digits name a non-surrogate code point.
            let c = match self.peek() {
                Some(b'u') => self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?)),
                byte => ESCAPES.iter().find(|&&(e, _)| Some(e) == byte).map(|&(_, c)| c),
            };
            let Some(c) = c else { return self.fail("a JSON escape") };
            self.pos += if self.peek() == Some(b'u') { 5 } else { 1 };
            out.push(c);
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, finite as an `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat("-");
        if !self.eat("0") && !self.digits() {
            return self.fail("a digit");
        }
        if self.eat(".") && !self.digits() {
            return self.fail("a digit after `.`");
        }
        if self.eat("e") || self.eat("E") {
            let _sign = self.eat("+") || self.eat("-");
            if !self.digits() {
                return self.fail("an exponent digit");
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("expected a number within the f64 range at byte {start}")),
        }
    }

    /// Consumes a run of ASCII digits; whether there was one.
    fn digits(&mut self) -> bool {
        let run = self.text[self.pos..].bytes().take_while(u8::is_ascii_digit).count();
        self.pos += run;
        run > 0
    }
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One iteration's statistics, with the solver counters of its check.
/// `encoded_nodes` and `encoded_delta` count AIG nodes that own a solver
/// variable (see [`IterationStat::encoded_nodes`]), not every AIG node in
/// the encoded cones.
fn iteration(it: &IterationStat) -> Json {
    let s = &it.solver;
    obj([
        ("iteration", it.iteration.into()),
        ("window", it.window.into()),
        ("set_size", it.set_size.into()),
        ("removed", it.removed.into()),
        ("runtime_us", it.runtime.into()),
        ("encoded_nodes", it.encoded_nodes.into()),
        ("encoded_delta", it.encoded_delta.into()),
        ("aig_nodes", it.aig_nodes.into()),
        ("conflicts", s.conflicts.into()),
        ("decisions", s.decisions.into()),
        ("propagations", s.propagations.into()),
        ("restarts", s.restarts.into()),
        ("learnts", s.learnts.into()),
        ("db_reductions", s.db_reductions.into()),
        ("gcs", s.gcs.into()),
        ("core_seeds", s.core_seeds.into()),
        ("minimized_lits", s.minimized_lits.into()),
        ("tier_promotions", s.tier_promotions.into()),
        ("restarts_blocked", s.restarts_blocked.into()),
        ("chrono_backtracks", s.chrono_backtracks.into()),
        ("goal_disjuncts", it.goal_disjuncts.into()),
    ])
}

fn iterations(v: &Verdict) -> Json {
    Json::Arr(v.iterations().iter().map(iteration).collect())
}

fn verdict_kind(v: &Verdict) -> Json {
    match v {
        Verdict::Secure(_) => "secure",
        Verdict::Vulnerable(_) => "vulnerable",
        Verdict::Inconclusive(_) => "inconclusive",
    }
    .into()
}

/// One incremental-vs-fresh Alg. 2 comparison, as e6 and e7 embed it.
fn comparison(c: &IncrementalComparison) -> Json {
    obj([
        ("config", c.config.into()),
        ("words", c.words.into()),
        ("state_bits", c.incremental.state_bits.into()),
        ("max_window", c.max_window().into()),
        ("verdict", verdict_kind(&c.incremental.verdict)),
        ("incremental_us", c.incremental.runtime.into()),
        ("fresh_us", c.fresh.runtime.into()),
        ("speedup", c.speedup().into()),
        ("incremental_iterations", iterations(&c.incremental.verdict)),
        ("fresh_iterations", iterations(&c.fresh.verdict)),
    ])
}

fn point(p: &ScalingPoint) -> Json {
    obj([
        ("words", p.words.into()),
        ("state_bits", p.state_bits.into()),
        ("detect_us", p.detect.into()),
        ("prove_us", p.prove.into()),
    ])
}

fn procedure(p: &ProcedureComparison) -> Json {
    obj([
        ("config", p.config.into()),
        ("alg1_us", p.alg1.runtime.into()),
        ("alg1_iterations", iterations(&p.alg1.verdict)),
        ("alg2_us", p.alg2.runtime.into()),
        ("alg2_iterations", iterations(&p.alg2.verdict)),
    ])
}

fn entry(e: &PortfolioEntry) -> Json {
    obj([
        ("scenario", e.scenario.into()),
        ("words", e.words.into()),
        ("seed", Json::Str(format!("{:#018x}", e.seed))),
        ("state_bits", e.result.state_bits.into()),
        ("verdict", verdict_kind(&e.result.verdict)),
        ("runtime_us", e.result.runtime.into()),
        ("iterations", iterations(&e.result.verdict)),
    ])
}

fn setup(s: &SetupComparison) -> Json {
    obj([
        ("words", s.words.into()),
        ("cells", s.cells.into()),
        ("scratch_setup_us", s.scratch.into()),
        ("shared_base_us", s.shared_base.into()),
        ("shared_cells_us", s.shared_cells.into()),
        ("setup_speedup", s.speedup().into()),
        ("aggregate_speedup", s.aggregate_speedup().into()),
    ])
}

/// `before / after`, guarded against a zero `after`.
fn ratio(before: Duration, after: Duration) -> Json {
    (before.as_secs_f64() / after.as_secs_f64().max(1e-9)).into()
}

/// The E6 record: the scaling series plus the incremental-vs-fresh
/// comparison per configuration at the largest configured size.
pub fn e6(points: &[ScalingPoint], comparisons: &[IncrementalComparison]) -> Json {
    obj([
        ("experiment", "e6_scaling".into()),
        ("points", Json::Arr(points.iter().map(point).collect())),
        ("incremental_vs_fresh", Json::Arr(comparisons.iter().map(comparison).collect())),
    ])
}

/// The E7 record: Alg. 1 vs Alg. 2 per configuration plus the
/// incremental-vs-fresh Alg. 2 comparison.
pub fn e7(procedures: &[ProcedureComparison], comparisons: &[IncrementalComparison]) -> Json {
    obj([
        ("experiment", "e7_alg1_vs_alg2".into()),
        ("procedures", Json::Arr(procedures.iter().map(procedure).collect())),
        ("incremental_vs_fresh", Json::Arr(comparisons.iter().map(comparison).collect())),
    ])
}

/// The E8 lanes record: dynamic-IFT trial throughput of the 64-lane
/// (`speedup`) and 256-lane (`wide_speedup`) engines over the scalar loop,
/// and of 256 lanes over 64 (`wide_vs_batch`). `avx2` says whether the
/// host had the wide engine's target ISA.
pub fn e8_lanes(c: &E8LanesComparison) -> Json {
    obj([
        ("experiment", "e8_lanes".into()),
        ("lanes", ssc_netlist::lanes::LANES.into()),
        ("wide_lanes", ssc_netlist::lanes::block_lanes::<{ ssc_sim::WIDE_WORDS }>().into()),
        ("trials", c.trials.into()),
        ("scalar_us", c.scalar_runtime.into()),
        ("batch_us", c.batch_runtime.into()),
        ("wide_us", c.wide_runtime.into()),
        ("speedup", c.speedup().into()),
        ("wide_speedup", c.wide_speedup().into()),
        ("wide_vs_batch", c.wide_vs_batch().into()),
        ("avx2", c.avx2.into()),
        ("hits", c.batch_hits.into()),
        ("detection_rate", c.detection_rate().into()),
    ])
}

/// The E9 record: the parallel portfolio runner versus the `sequential`
/// scenario loop's wall clock on the same matrix, with the pool size
/// (`workers`) and host parallelism (`cores`) it ran on. `equivalent` attests that the
/// parallel entries matched the sequential loop under
/// [`crate::portfolio::fingerprint`]; `entries` are the parallel run's, in
/// matrix order, with their coordinate-derived seeds.
pub fn e9(
    parallel: &PortfolioReport,
    sequential: Duration,
    cores: usize,
    equivalent: bool,
) -> Json {
    obj([
        ("experiment", "e9_portfolio".into()),
        ("workers", parallel.workers.into()),
        ("cores", cores.into()),
        ("jobs", parallel.entries.len().into()),
        ("sequential_us", sequential.into()),
        ("parallel_us", parallel.wall.into()),
        ("speedup", ratio(sequential, parallel.wall)),
        ("equivalent", equivalent.into()),
        ("entries", Json::Arr(parallel.entries.iter().map(entry).collect())),
    ])
}

/// The E10 record: per SoC size, the analysis setup (product build and
/// base-session encoding) of a from-scratch cell against a *marginal*
/// shared cell (`setup_speedup`), and with the once-per-size shared base
/// (`shared_base_us`) put back in (`aggregate_speedup`); plus the whole
/// portfolio's wall clock both ways (`scratch` and `shared`). `equivalent`
/// attests that the shared portfolio's fingerprint matched the
/// from-scratch runner's.
pub fn e10(
    setups: &[SetupComparison],
    scratch: Duration,
    shared: Duration,
    equivalent: bool,
) -> Json {
    obj([
        ("experiment", "e10_shared".into()),
        ("sizes", Json::Arr(setups.iter().map(setup).collect())),
        ("scratch_wall_us", scratch.into()),
        ("shared_wall_us", shared.into()),
        ("wall_speedup", ratio(scratch, shared)),
        ("equivalent", equivalent.into()),
    ])
}

/// Where perf records live: the nearest ancestor of the current directory
/// that holds `ROADMAP.md` (the workspace root, whichever package directory
/// `cargo bench` runs a bench from), else the current directory.
pub fn record_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    cwd.ancestors().find(|dir| dir.join("ROADMAP.md").exists()).unwrap_or(&cwd).to_path_buf()
}

/// Writes `record` to `BENCH_<experiment>.json` under [`record_root`] and
/// prints the path, or why the record could not be written.
pub fn write_record(experiment: &str, record: &Json) {
    let path = record_root().join(format!("BENCH_{experiment}.json"));
    match std::fs::write(&path, record.to_string()) {
        Ok(()) => println!("[{experiment}] perf record written to {}", path.display()),
        Err(e) => eprintln!("[{experiment}] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trips(value: &Json) {
        let text = value.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(value), "{text}");
    }

    #[test]
    fn parse_accepts_numbers_strings_and_nesting() {
        let v = Json::parse(
            " {\"int\": 42, \"neg\": -7, \"float\": 2.5, \"exp\": -1.5e-3, \"big\": 2E+3,\n\
             \"zero\": 0, \"quote\": \"say \\\"hi\\\" \\\\ \\u00e9\\n\", \"yes\": true,\n\
             \"nested\": [[], {}, [1, {\"no\": false}]]} ",
        )
        .unwrap();
        assert_eq!(v.get("int").and_then(Json::num), Some(42.0));
        assert_eq!(v.get("neg").and_then(Json::num), Some(-7.0));
        assert_eq!(v.get("float").and_then(Json::num), Some(2.5));
        assert_eq!(v.get("exp").and_then(Json::num), Some(-1.5e-3));
        assert_eq!(v.get("big").and_then(Json::num), Some(2000.0));
        assert_eq!(v.get("zero").and_then(Json::num), Some(0.0));
        assert_eq!(v.get("quote").and_then(Json::str), Some("say \"hi\" \\ \u{e9}\n"));
        assert_eq!(v.get("yes").and_then(Json::bool), Some(true));
        let nested = v.get("nested").and_then(Json::arr).unwrap();
        assert_eq!(nested[0], Json::Arr(vec![]));
        assert_eq!(nested[1], Json::Obj(vec![]));
        let inner = nested[2].arr().unwrap();
        assert_eq!(inner[1].get("no").and_then(Json::bool), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("int").and_then(Json::str), None, "a number is not a string");
        round_trips(&v);
    }

    #[test]
    fn parse_rejects_malformed_text_naming_the_offset() {
        for (text, offset) in [
            ("", 0),
            ("{\"speedup\":1.5", 14),
            ("{\"speedup\":1.5,", 15),
            ("[1,2", 4),
            ("{\"speedup\":1.5}x", 15),
            ("{\"a\":1} {\"b\":2}", 8),
            ("{\"avx2\":yes}", 8),
            ("{\"avx2\":null}", 8),
            ("{\"avx2\":True}", 8),
            ("{speedup:1}", 1),
            ("{\"config\":\"fixed}", 17),
            ("\"bad \\x escape\"", 6),
            ("\"tab\tinside\"", 4),
            ("{\"a\":1,\"a\":2}", 7),
            ("{\"a\" 1}", 5),
            ("[1,]", 3),
            ("01", 1),
            ("1.", 2),
            ("-", 1),
            ("1e", 2),
            ("1e999", 0),
            ("\"\\ud800\"", 2),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(err.ends_with(&format!(" at byte {offset}")), "{text}: {err}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep).unwrap_err().ends_with(&format!(" at byte {MAX_DEPTH}")));
    }

    #[test]
    fn display_writes_only_what_parse_accepts() {
        let awkward = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(-0.0),
            Json::Num(1e300),
            Json::Num(1e-300),
            Json::Num(0.1 + 0.2),
            Json::Str("\u{1}\t\"\\/é".into()),
        ]);
        let text = awkward.to_string();
        let back = Json::parse(&text).unwrap();
        let items = back.arr().unwrap();
        assert_eq!(items[0].str(), Some("NaN"));
        assert_eq!(items[1].str(), Some("inf"));
        assert_eq!(&items[2..], &awkward.arr().unwrap()[2..], "{text}");
    }

    #[test]
    fn from_conversions_keep_units() {
        assert_eq!(Json::from(Duration::from_millis(3)), Json::Num(3000.0));
        assert_eq!(Json::from(Duration::from_nanos(1999)), Json::Num(1.0), "whole µs");
        assert_eq!(Json::from(u64::from(u32::MAX)), Json::Num(4_294_967_295.0));
        assert_eq!(Json::from(-3i32), Json::Num(-3.0));
        assert_eq!(Json::from("x"), Json::Str("x".into()));
        assert_eq!(Json::from(true), Json::Bool(true));
        assert_eq!(Json::from(64usize).to_string(), "64");
    }

    #[test]
    fn committed_records_round_trip() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let record = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let experiment = record.get("experiment").and_then(Json::str);
            assert_eq!(
                experiment,
                name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json"))
            );
            round_trips(&record);
            seen += 1;
        }
        assert!(seen >= 5, "found only {seen} committed records under {}", root.display());
    }

    #[test]
    fn builders_round_trip_with_their_gated_fields() {
        use crate::portfolio::PortfolioEntry;
        use upec_ssc::UpecSpec;

        let cmp = crate::compare_alg2_engines("vulnerable", UpecSpec::soc_vulnerable(), 8);
        let point = ScalingPoint {
            words: 8,
            state_bits: cmp.incremental.state_bits,
            detect: cmp.incremental.runtime,
            prove: cmp.fresh.runtime,
        };
        let procedure = ProcedureComparison {
            config: "vulnerable",
            alg1: cmp.incremental.clone(),
            alg2: cmp.fresh.clone(),
        };
        let e6 = e6(&[point], std::slice::from_ref(&cmp));
        let e7 = e7(&[procedure], std::slice::from_ref(&cmp));
        let portfolio = PortfolioReport {
            workers: 2,
            entries: vec![PortfolioEntry {
                scenario: "dma_timer/leaky",
                words: 8,
                seed: 0xe4f2_f14c_459d_0786,
                result: cmp.incremental.clone(),
            }],
            wall: Duration::from_millis(50),
        };
        let e9 = e9(&portfolio, Duration::from_millis(100), 4, true);
        let setup = SetupComparison {
            words: 8,
            cells: 4,
            scratch: Duration::from_millis(30),
            shared_base: Duration::from_millis(7),
            shared_cells: Duration::from_millis(12),
        };
        let e10 = e10(&[setup], Duration::from_secs(2), Duration::from_secs(1), true);
        for record in [&e6, &e7, &e9, &e10] {
            round_trips(record);
        }

        let num = |v: &Json, k: &str| v.get(k).and_then(Json::num);
        let vs_fresh = e6.get("incremental_vs_fresh").and_then(Json::arr).unwrap();
        assert_eq!(num(&vs_fresh[0], "words"), Some(8.0));
        assert_eq!(num(&vs_fresh[0], "speedup"), Some(cmp.speedup()));
        let first = &vs_fresh[0].get("incremental_iterations").and_then(Json::arr).unwrap()[0];
        assert_eq!(num(first, "encoded_delta"), Some(0.0));
        assert_eq!(num(&e9, "cores"), Some(4.0));
        assert_eq!(num(&e9, "speedup"), Some(2.0));
        assert_eq!(e9.get("equivalent").and_then(Json::bool), Some(true));
        let entry = &e9.get("entries").and_then(Json::arr).unwrap()[0];
        assert_eq!(entry.get("seed").and_then(Json::str), Some("0xe4f2f14c459d0786"));
        let size = &e10.get("sizes").and_then(Json::arr).unwrap()[0];
        assert_eq!(num(size, "setup_speedup"), Some(2.5));
        assert_eq!(num(&e10, "wall_speedup"), Some(2.0));
    }
}
