//! The strict counter-CSV decoder: one pass from the file's bytes into a
//! row-major rate matrix plus compact per-row key columns.
//!
//! Every strict read of the section CSV goes through [`scan_csv`]:
//! [`crate::read_csv`] and the `Strict` arm of
//! [`crate::read_csv_with_policy`] wrap it, and `mtperf predict` scores
//! its [`CounterTable`] directly. Each line is parsed in place from the
//! byte buffer (no per-line `String` or field `Vec`) with the same
//! `str::parse` calls, field-count and finiteness checks, and
//! [`CsvError`] messages as the schema has always had, so values are
//! bit-identical and errors unchanged.
//!
//! # Chunking
//!
//! A body of at least `2 × min_chunk` bytes is cut at line boundaries into
//! up to [`Parallelism::threads`] chunks of near-equal size, and the chunks
//! are parsed through [`parallel::try_par_fill`], each straight into its
//! own region of the final buffers (sized from a newline count). Chunks
//! are in line order and each stops at its own first bad line, so the
//! lowest failing chunk's error is the error a serial read reports.

use std::collections::HashMap;

use mtperf_linalg::parallel::{self, Parallelism};
use mtperf_linalg::Matrix;

use crate::csv::{split_header, strip_eol, CsvError};
use crate::events::N_EVENTS;
use crate::quality::RowIssue;
use crate::sample::SectionSample;
use crate::sampleset::SampleSet;

/// Fields of a data row: workload, section, CPI, then the rates.
const N_FIELDS: usize = 3 + N_EVENTS;

/// The smallest share of the body worth a thread of its own: bodies under
/// twice this stay on the calling thread, so small inputs never pay a
/// pool dispatch.
const MIN_CHUNK_BYTES: usize = 1 << 20;

/// A decoded section CSV, column by column: the event rates as one
/// row-major [`Matrix`] (the layout batch prediction scores), and per row
/// its CPI, section index and interned workload name.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTable {
    rates: Matrix,
    cpi: Vec<f64>,
    sections: Vec<usize>,
    /// The distinct workload names, in order of first appearance.
    workloads: Vec<String>,
    /// Per row, the index of its name in `workloads`.
    workload_ids: Vec<u32>,
}

impl CounterTable {
    /// The same columns built from a sample set (row order kept).
    pub fn from_samples(set: &SampleSet) -> CounterTable {
        let mut names = Interner::default();
        let mut rates = Vec::with_capacity(set.len() * N_EVENTS);
        let mut workload_ids = Vec::with_capacity(set.len());
        for s in set.iter() {
            rates.extend_from_slice(&s.rates);
            workload_ids.push(names.id(&s.workload));
        }
        CounterTable {
            rates: Matrix::from_vec(set.len(), N_EVENTS, rates).expect("one rate row per sample"),
            cpi: set.cpis(),
            sections: set.iter().map(|s| s.section_index).collect(),
            workloads: names.into_owned(),
            workload_ids,
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.cpi.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.cpi.is_empty()
    }

    /// The `len() × N_EVENTS` event rates, in [`crate::Event::ALL`] order.
    pub fn rates(&self) -> &Matrix {
        &self.rates
    }

    /// CPI of every row.
    pub fn cpi(&self) -> &[f64] {
        &self.cpi
    }

    /// Section index of every row.
    pub fn sections(&self) -> &[usize] {
        &self.sections
    }

    /// The workload name of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.len()`.
    pub fn workload(&self, r: usize) -> &str {
        &self.workloads[self.workload_ids[r] as usize]
    }

    /// The rows as a [`SampleSet`], in order.
    pub fn to_sample_set(&self) -> SampleSet {
        (0..self.len())
            .map(|r| {
                let mut rates = [0.0; N_EVENTS];
                rates.copy_from_slice(self.rates.row(r));
                SectionSample::new(self.workload(r), self.sections[r], self.cpi[r], rates)
            })
            .collect()
    }
}

/// Interns names in order of first appearance.
#[derive(Default)]
struct Interner<'a> {
    names: Vec<&'a str>,
    ids: HashMap<&'a str, u32>,
}

impl<'a> Interner<'a> {
    fn id(&mut self, name: &'a str) -> u32 {
        let names = &mut self.names;
        *self.ids.entry(name).or_insert_with(|| {
            names.push(name);
            u32::try_from(names.len() - 1).expect("fewer than 2^32 distinct workloads")
        })
    }

    fn into_owned(self) -> Vec<String> {
        self.names.into_iter().map(str::to_owned).collect()
    }
}

/// Decodes a section CSV held in memory under the strict policy, on up to
/// `par.threads()` threads.
///
/// # Errors
///
/// [`CsvError::BadHeader`] when the header deviates from the schema (or is
/// not UTF-8), and [`CsvError::BadRow`] for the first malformed data row:
/// wrong field count, unparsable or non-finite number, or bytes that are
/// not UTF-8.
///
/// # Example
///
/// ```
/// use mtperf_counters::{scan_csv, write_csv, SampleSet, SectionSample, N_EVENTS};
/// use mtperf_linalg::Parallelism;
///
/// let set: SampleSet = vec![SectionSample::new("w", 3, 1.5, [0.25; N_EVENTS])]
///     .into_iter()
///     .collect();
/// let mut csv = Vec::new();
/// write_csv(&set, &mut csv).unwrap();
/// let table = scan_csv(&csv, Parallelism::Off).unwrap();
/// assert_eq!(table.rates().row(0), &[0.25; N_EVENTS]);
/// assert_eq!((table.workload(0), table.sections()[0], table.cpi()[0]), ("w", 3, 1.5));
/// assert_eq!(table.to_sample_set(), set);
/// ```
pub fn scan_csv(bytes: &[u8], par: Parallelism) -> Result<CounterTable, CsvError> {
    scan_csv_chunked(bytes, par, MIN_CHUNK_BYTES)
}

/// [`scan_csv`] with an explicit minimum chunk size in bytes: the body is
/// split into `min(par.threads(), body / min_chunk)` chunks (at least
/// one). The result does not depend on either setting.
///
/// # Errors
///
/// The same as [`scan_csv`].
pub fn scan_csv_chunked(
    bytes: &[u8],
    par: Parallelism,
    min_chunk: usize,
) -> Result<CounterTable, CsvError> {
    let mut span = mtperf_obs::span("ingest");
    span.annotate("policy", "strict");
    let body = split_header(bytes)?;
    // Small bodies never resolve the thread count: for `Auto` that reads
    // the cgroup limits, which costs more than parsing a few rows.
    let by_size = body.len() / min_chunk.max(1);
    let (pieces, par) = match by_size {
        0 | 1 => (1, Parallelism::Off),
        _ => (par.threads().min(by_size), par),
    };
    let texts = split_chunks(body, pieces);

    // Every chunk starts a line, so its line count bounds its rows and
    // fixes the number of the first line of the next chunk.
    let mut layout = Vec::with_capacity(texts.len());
    let (mut line, mut cap) = (2, 0);
    for text in &texts {
        let newlines = text.iter().filter(|&&b| b == b'\n').count();
        let lines = newlines + usize::from(!text.ends_with(b"\n"));
        layout.push((line, cap, lines));
        line += newlines;
        cap += lines;
    }

    let mut rates = vec![0.0; cap * N_EVENTS];
    let mut cpi = vec![0.0; cap];
    let mut sections = vec![0; cap];
    let mut workload_ids = vec![0; cap];
    let mut chunks = Vec::with_capacity(texts.len());
    {
        let (mut r, mut c, mut s, mut w) = (
            &mut rates[..],
            &mut cpi[..],
            &mut sections[..],
            &mut workload_ids[..],
        );
        for (&text, &(first_line, _, lines)) in texts.iter().zip(&layout) {
            let (r0, r1) = r.split_at_mut(lines * N_EVENTS);
            let (c0, c1) = c.split_at_mut(lines);
            let (s0, s1) = s.split_at_mut(lines);
            let (w0, w1) = w.split_at_mut(lines);
            (r, c, s, w) = (r1, c1, s1, w1);
            chunks.push(Chunk {
                text,
                first_line,
                rates: r0,
                cpi: c0,
                sections: s0,
                workload_ids: w0,
                parsed: Ok((0, Vec::new())),
            });
        }
    }
    parallel::try_par_fill(par, &mut chunks, 1, None, |_, block| {
        for chunk in block {
            chunk.parsed = chunk.parse();
        }
    })
    // Parsing reports bad input as errors; a panic here is a decoder bug,
    // re-raised as the serial decoder would have raised it.
    .unwrap_or_else(|e| panic!("counter CSV scan: {e}"));
    let parsed = chunks
        .into_iter()
        .map(|c| c.parsed)
        .collect::<Result<Vec<_>, _>>()?;

    // Re-number each chunk's workloads in global first-appearance order and
    // close the gaps blank lines left between chunks.
    let mut names = Interner::default();
    let mut rows = 0;
    for ((_, start, _), (n, local)) in layout.iter().zip(parsed) {
        let global: Vec<u32> = local.into_iter().map(|name| names.id(name)).collect();
        for id in &mut workload_ids[*start..start + n] {
            *id = global[*id as usize];
        }
        if *start != rows {
            rates.copy_within(start * N_EVENTS..(start + n) * N_EVENTS, rows * N_EVENTS);
            cpi.copy_within(*start..start + n, rows);
            sections.copy_within(*start..start + n, rows);
            workload_ids.copy_within(*start..start + n, rows);
        }
        rows += n;
    }
    rates.truncate(rows * N_EVENTS);
    cpi.truncate(rows);
    sections.truncate(rows);
    workload_ids.truncate(rows);

    span.add("rows_read", rows as u64);
    span.add("rows_kept", rows as u64);
    span.add("bytes", bytes.len() as u64);
    span.add("chunks", texts.len() as u64);
    Ok(CounterTable {
        rates: Matrix::from_vec(rows, N_EVENTS, rates).expect("one rate row per data row"),
        cpi,
        sections,
        workloads: names.into_owned(),
        workload_ids,
    })
}

/// Cuts `body` into at most `pieces` chunks of near-equal size, each
/// ending just after a `\n` (the last at the end of the body).
fn split_chunks(body: &[u8], pieces: usize) -> Vec<&[u8]> {
    let size = body.len().div_ceil(pieces).max(1);
    let mut chunks = Vec::with_capacity(pieces);
    let mut rest = body;
    while !rest.is_empty() {
        let cut = match rest.get(size..).and_then(|t| find_byte(t, b'\n')) {
            Some(at) => size + at + 1,
            None => rest.len(),
        };
        let (head, tail) = rest.split_at(cut);
        chunks.push(head);
        rest = tail;
    }
    chunks
}

/// One chunk of the body and the regions of the output it fills.
struct Chunk<'t, 'o> {
    text: &'t [u8],
    first_line: usize,
    rates: &'o mut [f64],
    cpi: &'o mut [f64],
    sections: &'o mut [usize],
    workload_ids: &'o mut [u32],
    /// Rows written and the chunk's workload names (indexed by the ids it
    /// wrote), or its first error.
    parsed: Result<(usize, Vec<&'t str>), CsvError>,
}

impl<'t> Chunk<'t, '_> {
    fn parse(&mut self) -> Result<(usize, Vec<&'t str>), CsvError> {
        let mut names = Interner::default();
        let mut last: Option<(&str, u32)> = None;
        let mut row = 0;
        for (line, bytes) in lines(self.text, self.first_line) {
            if bytes.is_empty() {
                continue;
            }
            let text = std::str::from_utf8(bytes).map_err(|e| CsvError::BadRow {
                line,
                reason: RowIssue::InvalidUtf8 {
                    column: e.valid_up_to() + 1,
                }
                .to_string(),
            })?;
            let out = &mut self.rates[row * N_EVENTS..(row + 1) * N_EVENTS];
            let (workload, section, cpi) = parse_row(text, line, out)?;
            // Rows of one workload usually come in runs.
            let id = match last {
                Some((name, id)) if name == workload => id,
                _ => names.id(workload),
            };
            last = Some((workload, id));
            self.cpi[row] = cpi;
            self.sections[row] = section;
            self.workload_ids[row] = id;
            row += 1;
        }
        Ok((row, names.names))
    }
}

/// The lines of `body` as `BufRead::lines` yields them, numbered from
/// `first`.
fn lines(body: &[u8], first: usize) -> impl Iterator<Item = (usize, &[u8])> {
    let mut rest = body;
    let texts = std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let end = find_byte(rest, b'\n').map_or(rest.len(), |at| at + 1);
        let (text, tail) = rest.split_at(end);
        rest = tail;
        Some(strip_eol(text))
    });
    (first..).zip(texts)
}

/// Bit 7 of each byte of the result is set exactly where `word` holds
/// byte `b` (no carries cross bytes, so there are no false hits).
fn byte_mask(word: u64, b: u8) -> u64 {
    const LOW7: u64 = u64::from_ne_bytes([0x7f; 8]);
    let x = word ^ u64::from_ne_bytes([b; 8]);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The little-endian words of `bytes` with their offsets, and the tail
/// shorter than a word.
fn words(bytes: &[u8]) -> (impl Iterator<Item = (usize, u64)> + '_, &[u8]) {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let words = chunks.enumerate().map(|(i, w)| {
        (
            8 * i,
            u64::from_le_bytes(w.try_into().expect("eight bytes")),
        )
    });
    (words, tail)
}

/// Position of the first `b` in `hay`, eight bytes at a time.
fn find_byte(hay: &[u8], b: u8) -> Option<usize> {
    let (words, tail) = words(hay);
    for (at, w) in words {
        let m = byte_mask(w, b);
        if m != 0 {
            return Some(at + m.trailing_zeros() as usize / 8);
        }
    }
    let done = hay.len() - tail.len();
    tail.iter().position(|&c| c == b).map(|p| done + p)
}

/// Splits `text` at every comma, storing the first `N_FIELDS` fields;
/// returns how many fields there are.
fn split_fields<'t>(text: &'t str, fields: &mut [&'t str; N_FIELDS]) -> usize {
    let (mut found, mut start) = (0, 0);
    let mut cut = |end: usize| {
        if let Some(slot) = fields.get_mut(found) {
            *slot = &text[start..end];
        }
        found += 1;
        start = end + 1;
    };
    let (words, tail) = words(text.as_bytes());
    for (at, w) in words {
        let mut m = byte_mask(w, b',');
        while m != 0 {
            cut(at + m.trailing_zeros() as usize / 8);
            m &= m - 1;
        }
    }
    let done = text.len() - tail.len();
    for (i, _) in tail.iter().enumerate().filter(|(_, &c)| c == b',') {
        cut(done + i);
    }
    cut(text.len());
    found
}

/// Parses one non-blank data line into `rates`, returning its workload,
/// section index and CPI. Checks run in field order; the messages are the
/// schema's.
fn parse_row<'t>(
    text: &'t str,
    line: usize,
    rates: &mut [f64],
) -> Result<(&'t str, usize, f64), CsvError> {
    let bad = |reason: String| CsvError::BadRow { line, reason };
    let mut fields = [""; N_FIELDS];
    let found = split_fields(text, &mut fields);
    if found != N_FIELDS {
        return Err(bad(format!("expected {N_FIELDS} fields, found {found}")));
    }
    let section: usize = fields[1]
        .parse()
        .map_err(|e| bad(format!("bad section index {:?}: {e}", fields[1])))?;
    let cpi: f64 = fields[2]
        .parse()
        .map_err(|e| bad(format!("bad CPI {:?}: {e}", fields[2])))?;
    // `str::parse::<f64>` accepts "NaN" and "inf"; such values would only
    // blow up later, deep inside training, so reject them here.
    if !cpi.is_finite() {
        return Err(bad(format!("non-finite CPI {:?}", fields[2])));
    }
    for (slot, f) in rates.iter_mut().zip(&fields[3..]) {
        let v: f64 = f.parse().map_err(|e| bad(format!("bad rate {f:?}: {e}")))?;
        if !v.is_finite() {
            return Err(bad(format!("non-finite rate {f:?}")));
        }
        *slot = v;
    }
    Ok((fields[0], section, cpi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::header;

    fn row(workload: &str, section: usize, fill: &str) -> String {
        format!(
            "{workload},{section},1.5{}",
            format!(",{fill}").repeat(N_EVENTS)
        )
    }

    fn csv(rows: &[String], eol: &str) -> Vec<u8> {
        let mut text = header();
        for r in rows {
            text.push_str(eol);
            text.push_str(r);
        }
        text.push_str(eol);
        text.into_bytes()
    }

    fn bad_row(err: CsvError) -> (usize, String) {
        match err {
            CsvError::BadRow { line, reason } => (line, reason),
            other => panic!("expected a bad row, got {other}"),
        }
    }

    #[test]
    fn find_byte_and_split_fields_match_the_naive_versions() {
        let texts = [
            "",
            ",",
            "a,b",
            ",-1,-0.5,,",
            "0123456789,0123456789,01234567,-",
            "w\u{e9},1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22",
            ",,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ];
        for text in texts {
            for b in [b',', b'-', b'\n', 0xa9] {
                let naive = text.bytes().position(|c| c == b);
                assert_eq!(find_byte(text.as_bytes(), b), naive, "{text:?} {b}");
            }
            let mut fields = [""; N_FIELDS];
            let found = split_fields(text, &mut fields);
            let naive: Vec<&str> = text.split(',').collect();
            assert_eq!(found, naive.len(), "{text:?}");
            let kept = found.min(N_FIELDS);
            assert_eq!(&fields[..kept], &naive[..kept], "{text:?}");
        }
    }

    #[test]
    fn chunks_end_at_line_boundaries_and_cover_the_body() {
        let body = b"a\nbb\n\nccc\nd";
        for pieces in 1..6 {
            let chunks = split_chunks(body, pieces);
            assert!(chunks.len() <= pieces);
            assert_eq!(chunks.concat(), body);
            for c in &chunks[..chunks.len() - 1] {
                assert!(c.ends_with(b"\n"), "{pieces}: {chunks:?}");
            }
        }
        assert!(split_chunks(b"", 3).is_empty());
    }

    #[test]
    fn result_does_not_depend_on_chunking() {
        let rows: Vec<String> = (0..40)
            .map(|i| row(["a", "b", "c"][i % 3], i, &format!("0.{i}")))
            .collect();
        let mut bytes = csv(&rows, "\r\n");
        // Blank lines right at and around likely chunk boundaries.
        bytes.extend_from_slice(b"\n\r\n");
        bytes.extend_from_slice(row("d", 99, "0.25").as_bytes());
        let serial = scan_csv(&bytes, Parallelism::Off).unwrap();
        assert_eq!(serial.len(), 41);
        assert_eq!(serial.workloads, ["a", "b", "c", "d"]);
        for par in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(7),
        ] {
            for min_chunk in [1, 16, 300, 1 << 20] {
                let got = scan_csv_chunked(&bytes, par, min_chunk).unwrap();
                assert_eq!(got, serial, "{par} {min_chunk}");
            }
        }
        assert_eq!(CounterTable::from_samples(&serial.to_sample_set()), serial);
    }

    #[test]
    fn header_only_and_empty_inputs() {
        let table = scan_csv(header().as_bytes(), Parallelism::Off).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.rates().shape(), (0, N_EVENTS));
        for bad in [&b""[..], b"\n", b"nope\n", b"workload,\xff\n"] {
            let err = scan_csv(bad, Parallelism::Off).unwrap_err();
            assert!(matches!(err, CsvError::BadHeader { .. }), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_trailing_carriage_return_without_newline_stays_in_the_last_field() {
        let mut bytes = csv(&[row("w", 0, "0.5")], "\n");
        bytes.pop();
        bytes.push(b'\r');
        let (line, reason) = bad_row(scan_csv(&bytes, Parallelism::Off).unwrap_err());
        assert_eq!(line, 2);
        assert_eq!(reason, "bad rate \"0.5\\r\": invalid float literal");
    }

    #[test]
    fn invalid_utf8_is_a_bad_row_in_line_order() {
        let good = row("w", 0, "0.5");
        let utf8 = row("w\u{ff}", 1, "0.5").replace('\u{ff}', "\u{1}");
        let mut bytes = csv(&[good.clone(), utf8, row("w", 2, "NaN")], "\n");
        let at = bytes.iter().position(|&b| b == 1).unwrap();
        bytes[at] = 0xff;
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            let (line, reason) = bad_row(scan_csv_chunked(&bytes, par, 1).unwrap_err());
            assert_eq!(
                (line, reason.as_str()),
                (3, "invalid UTF-8 at byte column 2")
            );
        }
        // A malformed row before the bad bytes still wins.
        let text = String::from_utf8_lossy(&bytes).replace(&good, &row("w", 0, "x"));
        let mut bytes = text.into_bytes();
        let at = bytes
            .windows(3)
            .position(|w| w == "\u{fffd}".as_bytes())
            .unwrap();
        bytes.splice(at..at + 3, [0xff]);
        for par in [Parallelism::Off, Parallelism::Fixed(3)] {
            let (line, reason) = bad_row(scan_csv_chunked(&bytes, par, 1).unwrap_err());
            assert_eq!(line, 2, "{reason}");
            assert!(reason.starts_with("bad rate \"x\""), "{reason}");
        }
    }
}
