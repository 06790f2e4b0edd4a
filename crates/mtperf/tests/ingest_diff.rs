//! Differential test of the strict counter-CSV decoder
//! ([`scan_csv_chunked`], under `read_csv` and `mtperf predict`) against
//! the chain it replaced: `BufRead::lines` → `SectionSample` →
//! `dataset_from_samples` → `Dataset::to_matrix`.
//!
//! Inputs are valid CSVs put through the `faultinject` corruptions and
//! byte-level edits: CRLF endings, blank lines, a header-only file, a
//! missing final newline, a trailing `\r`, NaN/inf and other odd number
//! literals, short and long rows, and bytes that are not UTF-8. Every
//! input is decoded at `Parallelism::Off`, `Fixed(2)` and `Fixed(3)` with
//! chunk sizes small enough that it really splits. The decoder must give
//! the oracle's matrix, CPI, section and workload bits, or the oracle's
//! error (variant, line and message). The one intended difference: a line
//! that is not UTF-8 is `CsvError::BadRow` at its line (the old chain
//! failed with an I/O error).

use std::io::{BufRead, BufReader};

use mtperf::counters::faultinject::{FaultInjector, FaultOp};
use mtperf::counters::quality::RowIssue;
use mtperf::counters::{
    read_csv, read_csv_with_policy, scan_csv_chunked, write_csv, CounterTable, CsvError,
    IngestPolicy, SampleSet, SectionSample, N_EVENTS,
};
use mtperf::linalg::Parallelism;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PARALLELISM: [Parallelism; 3] = [
    Parallelism::Off,
    Parallelism::Fixed(2),
    Parallelism::Fixed(3),
];

/// The raw bytes of 1-based line `line`, without its `\n` and a `\r`
/// before it.
fn raw_line(bytes: &[u8], line: usize) -> &[u8] {
    let text = bytes.split(|&b| b == b'\n').nth(line - 1).unwrap_or(&[]);
    let ends_line = bytes.split(|&b| b == b'\n').count() > line;
    match text.strip_suffix(b"\r") {
        Some(t) if ends_line => t,
        _ => text,
    }
}

/// The replaced strict reader, kept as the oracle. It is the old code
/// except where the old chain stopped with an I/O error on bytes that are
/// not UTF-8: there it returns the documented data error.
fn oracle_read(bytes: &[u8]) -> Result<SampleSet, CsvError> {
    let mut lines = BufReader::new(bytes).lines();
    let head = match lines.next() {
        Some(Ok(h)) => h,
        Some(Err(_)) => {
            return Err(CsvError::BadHeader {
                found: String::from_utf8_lossy(raw_line(bytes, 1)).into_owned(),
            })
        }
        None => {
            return Err(CsvError::BadHeader {
                found: String::new(),
            })
        }
    };
    if head.as_bytes() != valid_csv_header().trim_ascii_end() {
        return Err(CsvError::BadHeader { found: head });
    }
    let mut set = SampleSet::new();
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        let line = line.map_err(|_| {
            let column = std::str::from_utf8(raw_line(bytes, lineno))
                .unwrap_err()
                .valid_up_to()
                + 1;
            CsvError::BadRow {
                line: lineno,
                reason: RowIssue::InvalidUtf8 { column }.to_string(),
            }
        })?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 3 + N_EVENTS {
            return Err(CsvError::BadRow {
                line: lineno,
                reason: format!("expected {} fields, found {}", 3 + N_EVENTS, fields.len()),
            });
        }
        let section_index: usize = fields[1].parse().map_err(|e| CsvError::BadRow {
            line: lineno,
            reason: format!("bad section index {:?}: {e}", fields[1]),
        })?;
        let cpi: f64 = fields[2].parse().map_err(|e| CsvError::BadRow {
            line: lineno,
            reason: format!("bad CPI {:?}: {e}", fields[2]),
        })?;
        if !cpi.is_finite() {
            return Err(CsvError::BadRow {
                line: lineno,
                reason: format!("non-finite CPI {:?}", fields[2]),
            });
        }
        let mut rates = [0.0f64; N_EVENTS];
        for (j, f) in fields[3..].iter().enumerate() {
            rates[j] = f.parse().map_err(|e| CsvError::BadRow {
                line: lineno,
                reason: format!("bad rate {f:?}: {e}"),
            })?;
            if !rates[j].is_finite() {
                return Err(CsvError::BadRow {
                    line: lineno,
                    reason: format!("non-finite rate {f:?}"),
                });
            }
        }
        set.push(SectionSample::new(fields[0], section_index, cpi, rates));
    }
    Ok(set)
}

/// Every bit the decoder produces, row by row: rate bits, CPI bits,
/// section index and workload name.
type Bits = Vec<(Vec<u64>, u64, usize, String)>;

/// The oracle chain's bits: its samples through `dataset_from_samples`
/// and `to_matrix` (a header-only file has no dataset and no rows).
fn oracle_bits(set: &SampleSet) -> Bits {
    if set.is_empty() {
        return Vec::new();
    }
    let data = mtperf::dataset_from_samples(set).unwrap();
    let matrix = data.to_matrix();
    set.iter()
        .enumerate()
        .map(|(r, s)| {
            let rates = matrix.row(r).iter().map(|v| v.to_bits()).collect();
            (
                rates,
                data.target(r).to_bits(),
                s.section_index,
                s.workload.clone(),
            )
        })
        .collect()
}

fn table_bits(t: &CounterTable) -> Bits {
    assert_eq!(t.rates().shape(), (t.len(), N_EVENTS));
    (0..t.len())
        .map(|r| {
            let rates = t.rates().row(r).iter().map(|v| v.to_bits()).collect();
            (
                rates,
                t.cpi()[r].to_bits(),
                t.sections()[r],
                t.workload(r).to_string(),
            )
        })
        .collect()
}

/// Errors compared by variant, line and message.
fn error_key(e: &CsvError) -> String {
    format!("{e:?}")
}

/// Decodes `bytes` every way the decoder can run and checks each result
/// against the oracle.
fn check_against_oracle(bytes: &[u8], rng: &mut SmallRng) {
    let oracle = oracle_read(bytes);
    let expected = oracle.as_ref().map(oracle_bits).map_err(error_key);
    for par in PARALLELISM {
        let min_chunk = [1, 7, 64, rng.gen_range(1..2048)][rng.gen_range(0..4)];
        let got = scan_csv_chunked(bytes, par, min_chunk);
        let got = got.as_ref().map(table_bits).map_err(error_key);
        assert_eq!(
            got, expected,
            "{par}, chunks of {min_chunk}+ bytes, input {bytes:?}"
        );
    }
    // The `read_csv` wrapper and the strict policy are the same decoder.
    let strict = read_csv(bytes).map_err(|e| error_key(&e));
    assert_eq!(strict, oracle.as_ref().cloned().map_err(error_key));
    let policy = read_csv_with_policy(bytes, IngestPolicy::Strict).map(|(set, _)| set);
    assert_eq!(
        policy.map_err(|e| error_key(&e)),
        oracle.as_ref().cloned().map_err(error_key)
    );
    // Skip never fails on a data row; a row that is not UTF-8 is
    // quarantined like any other.
    let skip = read_csv_with_policy(bytes, IngestPolicy::Skip);
    match &oracle {
        Err(CsvError::BadHeader { .. }) => assert!(skip.is_err()),
        Err(CsvError::BadRow { line, reason }) if reason.starts_with("invalid UTF-8") => {
            let (_, report) = skip.expect("skip reads past bad rows");
            assert!(report
                .quarantined
                .iter()
                .any(|q| q.line == *line && matches!(q.issue, RowIssue::InvalidUtf8 { .. })));
        }
        _ => assert!(skip.is_ok()),
    }
}

const NAMES: [&str; 6] = ["429.mcf-like", "403.gcc-like", "w", "w\u{e9}", "", "a b"];

const LITERALS: [&str; 17] = [
    "NaN",
    "inf",
    "-inf",
    "abc",
    "",
    "1",
    "1.",
    "+2",
    ".5",
    "1E3",
    "-0",
    "0x1",
    " 1",
    "1e400",
    "1e-400",
    "18446744073709551616",
    "-1",
];

fn value(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => 0.0,
        1 => rng.gen::<f64>(),
        2 => rng.gen::<f64>() * 1e-300,
        3 => rng.gen::<f64>() * 1e300,
        4 => rng.gen_range(0..100) as f64,
        _ => rng.gen::<f64>() * 10.0,
    }
}

/// A valid CSV of up to 24 sections.
fn valid_csv(rng: &mut SmallRng) -> Vec<u8> {
    let n = rng.gen_range(0..25);
    let set: SampleSet = (0..n)
        .map(|_| {
            let mut rates = [0.0; N_EVENTS];
            for r in &mut rates {
                *r = value(rng);
            }
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            SectionSample::new(name, rng.gen_range(0..1000), value(rng), rates)
        })
        .collect();
    let mut buf = Vec::new();
    write_csv(&set, &mut buf).unwrap();
    buf
}

/// Applies one random corruption or edit to `bytes`.
fn edit(bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    let data_line = |rng: &mut SmallRng, n: usize| if n > 1 { rng.gen_range(1..n) } else { 0 };
    match rng.gen_range(0..10) {
        0 => {
            let Ok(text) = std::str::from_utf8(&bytes) else {
                return bytes;
            };
            let k = rng.gen_range(1..4);
            let op = [
                FaultOp::TruncateFields(k),
                FaultOp::FlipNonFinite(k),
                FaultOp::DropRows(k),
                FaultOp::SaturateCounters(k),
                FaultOp::DuplicateSections(k),
            ][rng.gen_range(0..5)];
            return FaultInjector::new(rng.gen())
                .apply(op, text)
                .text
                .into_bytes();
        }
        1 => {
            for line in &mut lines {
                line.push(b'\r');
            }
            lines.last_mut().unwrap().pop();
        }
        2 => {
            let at = rng.gen_range(1..lines.len() + 1);
            let blank = if rng.gen() {
                b"\r".to_vec()
            } else {
                Vec::new()
            };
            lines.insert(at, blank);
        }
        3 => {
            if lines.last().is_some_and(Vec::is_empty) {
                lines.pop();
            }
        }
        4 => lines.truncate(1 + usize::from(rng.gen::<bool>())),
        5 => {
            let i = data_line(rng, lines.len());
            let text = String::from_utf8_lossy(&lines[i]).into_owned();
            let mut fields: Vec<&str> = text.split(',').collect();
            let f = rng.gen_range(1..fields.len().max(2));
            if f < fields.len() {
                fields[f] = LITERALS[rng.gen_range(0..LITERALS.len())];
            }
            lines[i] = fields.join(",").into_bytes();
        }
        6 => {
            let i = data_line(rng, lines.len());
            if rng.gen() {
                lines[i].extend_from_slice(b",0.5");
            } else if let Some(at) = lines[i].iter().rposition(|&b| b == b',') {
                lines[i].truncate(at);
            }
        }
        7 => {
            let i = if rng.gen_range(0..8) == 0 {
                0
            } else {
                data_line(rng, lines.len())
            };
            let bad: &[u8] =
                [&b"\xff"[..], b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"][rng.gen_range(0..4)];
            let at = rng.gen_range(0..lines[i].len() + 1);
            lines[i].splice(at..at, bad.iter().copied());
        }
        8 => {
            if lines.last().is_some_and(Vec::is_empty) {
                lines.pop();
            }
            lines.last_mut().unwrap().push(b'\r');
        }
        _ => {
            let i = data_line(rng, lines.len());
            let at = rng.gen_range(0..lines[i].len() + 1);
            lines[i].insert(at, b'\r');
        }
    }
    lines.join(&b'\n')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary valid CSVs under up to three corruptions decode exactly as
    /// the oracle does, at every parallelism and chunking.
    #[test]
    fn scanner_matches_the_replaced_chain(seed in 0u64..u64::MAX, edits in 0usize..4) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bytes = valid_csv(&mut rng);
        for _ in 0..edits {
            bytes = edit(bytes, &mut rng);
        }
        check_against_oracle(&bytes, &mut rng);
    }
}

#[test]
fn bad_utf8_before_and_after_a_bad_row() {
    let mut rng = SmallRng::seed_from_u64(7);
    let row = |w: &str, cpi: &str| format!("{w},1,{cpi}{}\n", ",0.5".repeat(N_EVENTS));
    let header = String::from_utf8(valid_csv_header()).unwrap();
    let (utf8, nan) = (row("w\u{1}", "1"), row("v", "NaN"));
    for (third, fourth, reason) in [
        (&utf8, &nan, "invalid UTF-8 at byte column 2"),
        (&nan, &utf8, "non-finite CPI \"NaN\""),
    ] {
        let text = format!("{header}{}{third}{fourth}", row("ok", "2"));
        let bytes: Vec<u8> = text
            .bytes()
            .map(|b| if b == 1 { 0xff } else { b })
            .collect();
        check_against_oracle(&bytes, &mut rng);
        for par in PARALLELISM {
            match scan_csv_chunked(&bytes, par, 1) {
                Err(CsvError::BadRow { line, reason: r }) => {
                    assert_eq!((line, r.as_str()), (3, reason))
                }
                other => panic!("expected a bad row, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_larger_input_splits_into_chunks_and_still_matches() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut bytes = valid_csv_header();
    for i in 0..2_000 {
        let mut one = valid_csv(&mut rng);
        let body = one.split_off(valid_csv_header().len());
        if i % 97 == 0 {
            bytes.extend_from_slice(b"\r\n");
        }
        bytes.extend_from_slice(&body);
    }
    check_against_oracle(&bytes, &mut rng);
    let serial = scan_csv_chunked(&bytes, Parallelism::Off, 1).unwrap();
    assert!(serial.len() > 10_000);
    for par in [Parallelism::Fixed(2), Parallelism::Fixed(3)] {
        assert_eq!(scan_csv_chunked(&bytes, par, 4096).unwrap(), serial);
    }
}

/// The schema's header line, with its newline.
fn valid_csv_header() -> Vec<u8> {
    let mut buf = Vec::new();
    write_csv(&SampleSet::new(), &mut buf).unwrap();
    buf
}
