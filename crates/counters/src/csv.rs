//! Minimal CSV import/export for section samples.
//!
//! The repro harness writes the simulated dataset and the figure series as
//! CSV so they can be inspected or re-plotted. The format is fixed:
//!
//! ```text
//! workload,section,CPI,InstLd,InstSt,...,LCP
//! 429.mcf-like,0,1.92,0.31,...,0.0
//! ```
//!
//! Only this schema is supported — this is a data channel for `mtperf`'s own
//! artifacts, not a general CSV library. Fields never contain commas.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::events::Event;
use crate::sampleset::SampleSet;

/// Error produced while reading or writing sample CSV.
#[derive(Debug)]
#[non_exhaustive]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header row did not match the expected schema.
    BadHeader {
        /// The header line found in the input.
        found: String,
    },
    /// A data row had the wrong number of fields or an unparsable number.
    BadRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Explanation of the failure.
        reason: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv i/o error: {e}"),
            CsvError::BadHeader { found } => {
                write!(f, "csv header mismatch, found: {found:?}")
            }
            CsvError::BadRow { line, reason } => {
                write!(f, "bad csv row at line {line}: {reason}")
            }
        }
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The fixed header row of the sample CSV schema.
pub(crate) fn header() -> String {
    let mut h = String::from("workload,section,CPI");
    for e in Event::iter() {
        h.push(',');
        h.push_str(e.metric_name());
    }
    h
}

/// Writes `set` to `w` in the fixed CSV schema.
///
/// A `mut` reference is a valid `W`, so callers can pass `&mut file`.
///
/// # Errors
///
/// Returns [`CsvError::Io`] on write failure.
pub fn write_csv<W: Write>(set: &SampleSet, mut w: W) -> Result<(), CsvError> {
    writeln!(w, "{}", header())?;
    for s in set.iter() {
        write!(w, "{},{},{}", s.workload, s.section_index, fmt_f64(s.cpi))?;
        for r in s.as_row() {
            write!(w, ",{}", fmt_f64(*r))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Formats a float compactly but losslessly enough for round-trips.
fn fmt_f64(v: f64) -> String {
    // 17 significant digits round-trips f64 exactly; trim trailing zeros for
    // readability.
    let s = format!("{v:.17e}");
    match s.parse::<f64>() {
        Ok(p) if p == v => s,
        _ => format!("{v}"),
    }
}

/// Reads a sample set from `r` expecting the schema produced by
/// [`write_csv`]. A `mut` reference is a valid `R`.
///
/// The whole input is read, then decoded by [`crate::scan_csv`] at the
/// process-wide [`mtperf_linalg::parallel::global`] thread budget.
///
/// # Errors
///
/// Returns [`CsvError::Io`] on read failure, [`CsvError::BadHeader`] when
/// the header deviates from the schema and [`CsvError::BadRow`] for
/// malformed data rows (including bytes that are not UTF-8).
pub fn read_csv<R: Read>(mut r: R) -> Result<SampleSet, CsvError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    Ok(crate::scan_csv(&bytes, mtperf_linalg::parallel::global())?.to_sample_set())
}

/// Drops a line's `\n` terminator and one `\r` before it, as
/// `BufRead::lines` does; a line without `\n` (the last) keeps any `\r`.
pub(crate) fn strip_eol(line: &[u8]) -> &[u8] {
    match line.strip_suffix(b"\n") {
        Some(text) => text.strip_suffix(b"\r").unwrap_or(text),
        None => line,
    }
}

/// Checks a header line (terminator already stripped) against the schema.
pub(crate) fn check_header(line: &[u8]) -> Result<(), CsvError> {
    if line == header().as_bytes() {
        Ok(())
    } else {
        Err(CsvError::BadHeader {
            found: String::from_utf8_lossy(line).into_owned(),
        })
    }
}

/// Checks the header line of `bytes` and returns the body after it.
pub(crate) fn split_header(bytes: &[u8]) -> Result<&[u8], CsvError> {
    let end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |at| at + 1);
    let (head, body) = bytes.split_at(end);
    check_header(strip_eol(head))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::N_EVENTS;
    use crate::sample::SectionSample;

    fn set() -> SampleSet {
        let mut rates = [0.0; N_EVENTS];
        rates[Event::L2m.index()] = 0.0123456789;
        rates[Event::Lcp.index()] = 1e-7;
        vec![
            SectionSample::new("429.mcf-like", 0, 1.987654321, rates),
            SectionSample::new("403.gcc-like", 5, 0.75, [0.0; N_EVENTS]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn roundtrip_preserves_samples() {
        let original = set();
        let mut buf = Vec::new();
        write_csv(&original, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn header_contains_all_metrics() {
        let h = header();
        for e in Event::iter() {
            assert!(h.contains(e.metric_name()), "{h}");
        }
        assert!(h.starts_with("workload,section,CPI,InstLd"));
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("nope,nope\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::BadHeader { .. }));
        let err = read_csv("".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::BadHeader { .. }));
    }

    #[test]
    fn rejects_short_row() {
        let input = format!("{}\nw,0,1.0,0.5\n", header());
        let err = read_csv(input.as_bytes()).unwrap_err();
        match err {
            CsvError::BadRow { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("fields"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn rejects_unparsable_number() {
        let zeros = vec!["0"; N_EVENTS].join(",");
        let input = format!("{}\nw,0,abc,{zeros}\n", header());
        let err = read_csv(input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::BadRow { .. }));
        assert!(err.to_string().contains("CPI"));
    }

    #[test]
    fn rejects_non_finite_values() {
        let zeros = vec!["0"; N_EVENTS].join(",");
        for cpi in ["NaN", "inf", "-inf"] {
            let input = format!("{}\nw,0,{cpi},{zeros}\n", header());
            let err = read_csv(input.as_bytes()).unwrap_err();
            assert!(matches!(err, CsvError::BadRow { .. }), "{cpi}");
            assert!(err.to_string().contains("non-finite CPI"), "{err}");
        }
        let mut fields = vec!["0"; N_EVENTS];
        fields[3] = "NaN";
        let input = format!("{}\nw,0,1.5,{}\n", header(), fields.join(","));
        let err = read_csv(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-finite rate"), "{err}");
    }

    #[test]
    fn skips_blank_lines() {
        let zeros = vec!["0"; N_EVENTS].join(",");
        let input = format!("{}\n\nw,0,1.5,{zeros}\n\n", header());
        let got = read_csv(input.as_bytes()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got.samples()[0].cpi, 1.5);
    }

    #[test]
    fn empty_set_roundtrip() {
        let mut buf = Vec::new();
        write_csv(&SampleSet::new(), &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }
}
