//! The CI bench-trend gate: reads the committed `BENCH_*.json` perf
//! records with [`Json::parse`] and fails when a headline ratio falls below
//! its floor. [`GATES`] is the whole policy, one row per gated ratio;
//! [`check`] evaluates every row the same way, parsing each record once.
//!
//! ```sh
//! cargo run --release -p ssc-bench --bin bench_trend [record-dir]
//! ```
//!
//! Without an argument the records are read from [`record_root`], where the
//! benches write them. An absent or malformed record exits 2, naming the
//! file and the field or byte offset at fault (an absent one also names the
//! bench that regenerates it); a ratio below its floor exits 1.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ssc_bench::perf::{record_root, Json};

/// One gated ratio: a row of [`GATES`].
struct Gate {
    /// The record file under the record root, and the bench that writes it.
    file: &'static str,
    bench: &'static str,
    /// The gated numeric field, and its lowest passing value.
    field: &'static str,
    floor: f64,
    /// Fields printed beside the value.
    context: &'static [&'static str],
    /// The record must attest `"equivalent": true` at its top level.
    attest: bool,
    /// The floor applies only where the record's host had this.
    needs: Option<Needs>,
}

/// A host capability a floor presumes.
enum Needs {
    /// This boolean field is `true`.
    Flag(&'static str),
    /// This numeric field is at least the value.
    AtLeast(&'static str, f64),
}

/// A failed attestation and a field missing from the record make it
/// malformed (exit 2); a host without a floor's capability makes the gate
/// skip.
#[rustfmt::skip]
const GATES: &[Gate] = &[
    // 64-lane dynamic-IFT trial throughput against the scalar loop.
    Gate { file: "BENCH_e8_lanes.json", bench: "e8_ift_baseline", field: "speedup", floor: 8.0,
        context: &["lanes"], attest: false, needs: None },
    // 256 lanes against 64; AVX2 is the wide engine's target ISA.
    Gate { file: "BENCH_e8_lanes.json", bench: "e8_ift_baseline", field: "wide_vs_batch",
        floor: 1.5, context: &["wide_lanes"], attest: false, needs: Some(Needs::Flag("avx2")) },
    // Parallel portfolio against the sequential loop; fewer cores cannot
    // show the speedup.
    Gate { file: "BENCH_e9_portfolio.json", bench: "e9_portfolio", field: "speedup", floor: 2.0,
        context: &["workers", "cores"], attest: true, needs: Some(Needs::AtLeast("cores", 4.0)) },
];

fn malformed(path: &Path, what: impl Display) -> String {
    format!("malformed record {}: {what}", path.display())
}

/// Reads and parses a record.
fn read(path: &Path, bench: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => format!(
            "record absent: {} — regenerate it with `cargo bench --bench {bench}`",
            path.display()
        ),
        _ => malformed(path, format_args!("unreadable: {e}")),
    })?;
    Json::parse(&text).map_err(|e| malformed(path, e))
}

/// The numeric field `key` of `row`.
fn field(row: &Json, key: &str, path: &Path) -> Result<f64, String> {
    let value = row.get(key).and_then(Json::num);
    value.ok_or_else(|| malformed(path, format_args!("missing or non-numeric field `{key}`")))
}

/// Why `gate`'s floor does not apply to the host `record` was taken on.
fn skip_reason(gate: &Gate, record: &Json, path: &Path) -> Result<Option<String>, String> {
    Ok(match gate.needs {
        None => None,
        Some(Needs::Flag(key)) => match record.get(key).and_then(Json::bool) {
            Some(has) => (!has).then(|| format!("`{key}` false")),
            None => return Err(malformed(path, format_args!("missing or non-boolean `{key}`"))),
        },
        Some(Needs::AtLeast(key, min)) => {
            let have = field(record, key, path)?;
            (have < min).then(|| format!("`{key}` {have} < {min}"))
        }
    })
}

/// Evaluates one gate on its parsed record; `Ok(false)` is a threshold
/// violation.
fn check_gate(gate: &Gate, record: &Json, path: &Path) -> Result<bool, String> {
    if gate.attest && record.get("equivalent").and_then(Json::bool) != Some(true) {
        let what = "top-level field `equivalent` is not `true`: the compared runs disagree";
        return Err(malformed(path, what));
    }
    let value = field(record, gate.field, path)?;
    let skip = skip_reason(gate, record, path)?;
    let pass = skip.is_some() || value >= gate.floor;
    let outcome = match skip {
        Some(reason) => format!("skipped, recorded with {reason}"),
        None => (if pass { "ok" } else { "REGRESSED" }).to_string(),
    };
    let context =
        gate.context.iter().filter_map(|&k| Some((k.to_string(), record.get(k)?.clone())));
    let (file, name, floor) = (gate.file, gate.field, gate.floor);
    println!(
        "[trend] {file} `{name}` {}: {value:.2}x (floor {floor}x) {outcome}",
        Json::Obj(context.collect())
    );
    if !pass {
        eprintln!("[trend] threshold violated: `{name}` in {} is {value:.2}", path.display());
    }
    Ok(pass)
}

/// Evaluates `gates` on the records under `root`, parsing each record
/// once. `Ok(false)`: some ratio fell below its floor.
fn check<'g>(gates: impl IntoIterator<Item = &'g Gate>, root: &Path) -> Result<bool, String> {
    let mut records = BTreeMap::new();
    let mut ok = true;
    for gate in gates {
        let path = root.join(gate.file);
        if !records.contains_key(gate.file) {
            records.insert(gate.file, read(&path, gate.bench)?);
        }
        ok &= check_gate(gate, &records[gate.file], &path)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let root = std::env::args().nth(1).map_or_else(record_root, PathBuf::from);
    match check(GATES, &root) {
        Ok(true) => {
            println!("[trend] all bench gates pass");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("[trend] bench gate regression — see lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[trend] error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh record directory per test (tests run in parallel).
    fn record_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trend_test_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every gate row on `file`, through the same `check` as `main`.
    fn run(file: &str, dir: &Path) -> Result<bool, String> {
        check(GATES.iter().filter(|g| g.file == file), dir)
    }

    #[test]
    fn missing_field_error_names_file_and_field() {
        let record = Json::parse(r#"{"other":1}"#).unwrap();
        let err = field(&record, "speedup", Path::new("BENCH_x.json")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("BENCH_x.json"), "must name the file: {msg}");
        assert!(msg.contains("`speedup`"), "must name the field: {msg}");
    }

    #[test]
    fn absent_record_error_distinguishes_itself_and_names_the_bench() {
        let err = read(Path::new("/nonexistent/BENCH_y.json"), "e9_portfolio").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record absent"), "absent != malformed: {msg}");
        assert!(msg.contains("e9_portfolio"), "must say how to regenerate: {msg}");
    }

    #[test]
    fn unparsable_record_is_malformed_and_names_the_offset() {
        let dir = record_dir("parse");
        let path = dir.join("BENCH_e9_portfolio.json");
        let truncated = r#"{"experiment":"e9_portfolio","speedup":2.5,"cores":8"#;
        std::fs::write(&path, truncated).unwrap();
        let msg = run("BENCH_e9_portfolio.json", &dir).unwrap_err().to_string();
        let offset = format!("at byte {}", truncated.len());
        assert!(msg.contains("malformed record") && msg.contains(&offset), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_records_all_evaluate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if let Err(e) = check(GATES, &root) {
            panic!("{e}");
        }
    }

    #[test]
    fn e8_gate_enforces_wide_floor_on_avx2_and_skips_without() {
        let dir = record_dir("e8");
        let path = dir.join("BENCH_e8_lanes.json");
        let eval = || run("BENCH_e8_lanes.json", &dir);

        // AVX2 host, both floors met: pass.
        std::fs::write(&path, r#"{"experiment":"e8_lanes","lanes":64,"wide_lanes":256,"trials":512,"scalar_us":350000,"batch_us":15000,"wide_us":6000,"speedup":23.3,"wide_speedup":58.3,"wide_vs_batch":2.5,"avx2":true,"hits":198,"detection_rate":0.39}"#).unwrap();
        assert!(eval().unwrap(), "both floors met must pass");

        // AVX2 host, wide floor missed: regression even though the 64-lane
        // floor holds.
        std::fs::write(&path, r#"{"experiment":"e8_lanes","lanes":64,"wide_lanes":256,"trials":512,"scalar_us":350000,"batch_us":15000,"wide_us":14000,"speedup":23.3,"wide_speedup":25.0,"wide_vs_batch":1.07,"avx2":true,"hits":198,"detection_rate":0.39}"#).unwrap();
        assert!(!eval().unwrap(), "wide floor at 1.07x on AVX2 must regress");

        // Non-AVX2 host: the wide floor is skipped with a notice; only the
        // 64-lane floor is enforced.
        std::fs::write(&path, r#"{"experiment":"e8_lanes","lanes":64,"wide_lanes":256,"trials":512,"scalar_us":350000,"batch_us":15000,"wide_us":14000,"speedup":23.3,"wide_speedup":25.0,"wide_vs_batch":1.07,"avx2":false,"hits":198,"detection_rate":0.39}"#).unwrap();
        assert!(eval().unwrap(), "non-AVX2 record must skip the wide floor");

        // A record without the width dimension at all is malformed.
        std::fs::write(&path, r#"{"experiment":"e8_lanes","lanes":64,"trials":512,"scalar_us":350000,"batch_us":15000,"speedup":23.3,"hits":198,"detection_rate":0.39}"#).unwrap();
        let err = eval().unwrap_err();
        assert!(err.to_string().contains("wide_vs_batch"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn e9_gate_skips_below_four_cores_and_enforces_above() {
        let dir = record_dir("e9");
        let path = dir.join("BENCH_e9_portfolio.json");
        let eval = || run("BENCH_e9_portfolio.json", &dir);

        // 1-core record with a ~1x speedup: gate must pass (skipped).
        std::fs::write(&path, r#"{"experiment":"e9_portfolio","workers":1,"cores":1,"jobs":8,"sequential_us":100,"parallel_us":100,"speedup":1.000,"equivalent":true,"entries":[]}"#).unwrap();
        assert!(eval().unwrap(), "sub-4-core record must not fail the floor");

        // 8-core record below the floor: gate must fail.
        std::fs::write(&path, r#"{"experiment":"e9_portfolio","workers":8,"cores":8,"jobs":8,"sequential_us":100,"parallel_us":80,"speedup":1.250,"equivalent":true,"entries":[]}"#).unwrap();
        assert!(!eval().unwrap(), "8-core record at 1.25x must regress");

        // Equivalence attestation failure is malformed, not a regression.
        std::fs::write(&path, r#"{"experiment":"e9_portfolio","workers":8,"cores":8,"jobs":8,"sequential_us":100,"parallel_us":40,"speedup":2.500,"equivalent":false,"entries":[]}"#).unwrap();
        let err = eval().unwrap_err();
        assert!(err.to_string().contains("equivalent"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_top_level_attestation_counts() {
        // An e9 record whose own `equivalent` is false while its entry's is
        // true.
        let dir = record_dir("nested");
        std::fs::write(dir.join("BENCH_e9_portfolio.json"), r#"{"experiment":"e9_portfolio","workers":8,"cores":8,"jobs":1,"sequential_us":100,"parallel_us":40,"speedup":2.500,"equivalent":false,"entries":[{"scenario":"dma_timer/leaky","words":8,"equivalent":true}]}"#).unwrap();
        let err = run("BENCH_e9_portfolio.json", &dir).unwrap_err();
        assert!(err.to_string().contains("`equivalent`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
