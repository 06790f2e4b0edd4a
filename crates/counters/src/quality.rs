//! Data-quality layer for counter ingestion: policies, quarantine, repair.
//!
//! Real hardware-counter streams are messy — multiplexed events drop
//! samples, counters saturate, runs get truncated mid-section. The strict
//! reader ([`crate::read_csv`]) rejects a whole file on the first bad value,
//! which is the right default for simulator-generated artifacts but useless
//! for field data. This module adds graduated alternatives:
//!
//! * [`IngestPolicy::Strict`] — the existing behavior: any malformed row
//!   fails the file with a typed [`CsvError`] naming the exact line.
//! * [`IngestPolicy::Skip`] — malformed rows (wrong field count, unparsable
//!   or non-finite numbers, out-of-range rates, duplicate
//!   `(workload, section)` keys) are *quarantined* with a per-row
//!   diagnostic; every surviving row is kept bit-identical to the strict
//!   parse.
//! * [`IngestPolicy::Repair`] — missing or invalid counter rates are
//!   *imputed* from per-workload medians and extreme outliers are
//!   *winsorized* (clamped to a robust 8-sigma band); every change is
//!   recorded in the report. The CPI target is never fabricated: rows whose
//!   CPI is unusable are quarantined even under `Repair`.
//!
//! Every ingest produces an [`IngestReport`] — rows read, kept,
//! quarantined, repaired, with per-row diagnostics — so a pipeline can log
//! precisely what happened to its input instead of silently altering
//! metrics.
//!
//! # Example
//!
//! ```
//! use mtperf_counters::{read_csv_with_policy, write_csv, IngestPolicy, SampleSet};
//!
//! // An empty set serializes to just the schema header.
//! let mut buf = Vec::new();
//! write_csv(&SampleSet::new(), &mut buf).unwrap();
//! let (set, report) = read_csv_with_policy(buf.as_slice(), IngestPolicy::Skip).unwrap();
//! assert!(set.is_empty());
//! assert!(report.is_clean());
//! ```

use std::collections::HashSet;
use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::str::FromStr;

use crate::csv::{check_header, strip_eol, CsvError};
use crate::events::{Event, N_EVENTS};
use crate::sample::SectionSample;
use crate::sampleset::SampleSet;

/// Largest per-instruction event rate the quality layer accepts. Real
/// per-instruction rates are O(1); anything beyond this reads as counter
/// saturation or unit confusion.
pub const MAX_RATE: f64 = 1e4;

/// Largest CPI the quality layer accepts — same rationale as [`MAX_RATE`].
pub const MAX_CPI: f64 = 1e4;

/// Robust z-score beyond which `Repair` winsorizes a rate (|v − median| >
/// `WINSOR_Z` · 1.4826 · MAD).
pub const WINSOR_Z: f64 = 8.0;

/// Minimum in-group sample count before `Repair` trusts a per-workload
/// median/MAD enough to winsorize against it.
const MIN_GROUP_FOR_WINSOR: usize = 8;

/// How a CSV ingest treats malformed rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Fail the whole file on the first malformed row (the historical
    /// [`crate::read_csv`] behavior).
    #[default]
    Strict,
    /// Quarantine malformed rows with diagnostics; keep the rest untouched.
    Skip,
    /// Impute invalid counter rates from per-workload medians and winsorize
    /// extreme outliers; quarantine only rows whose key or CPI target is
    /// unusable.
    Repair,
}

impl FromStr for IngestPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(IngestPolicy::Strict),
            "skip" => Ok(IngestPolicy::Skip),
            "repair" => Ok(IngestPolicy::Repair),
            other => Err(format!(
                "invalid ingest policy {other:?}: expected \"strict\", \"skip\", or \"repair\""
            )),
        }
    }
}

impl fmt::Display for IngestPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestPolicy::Strict => write!(f, "strict"),
            IngestPolicy::Skip => write!(f, "skip"),
            IngestPolicy::Repair => write!(f, "repair"),
        }
    }
}

/// Why a row was quarantined.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RowIssue {
    /// The row has the wrong number of comma-separated fields.
    FieldCount {
        /// Fields the schema expects.
        expected: usize,
        /// Fields the row actually has.
        found: usize,
    },
    /// The `workload` or `section` key field is unusable.
    BadKey {
        /// Explanation of the failure.
        detail: String,
    },
    /// A numeric field did not parse.
    Unparsable {
        /// Schema name of the field (`"CPI"` or a Table-I metric name).
        field: &'static str,
        /// The offending text.
        text: String,
    },
    /// A numeric field parsed to NaN or ±infinity.
    NonFinite {
        /// Schema name of the field.
        field: &'static str,
        /// The offending text.
        text: String,
    },
    /// A value is finite but outside its plausible range
    /// (negative, > [`MAX_RATE`], or CPI > [`MAX_CPI`]).
    OutOfRange {
        /// Schema name of the field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The `(workload, section)` key repeats an earlier kept row.
    DuplicateKey {
        /// Workload name of the repeated key.
        workload: String,
        /// Section index of the repeated key.
        section: usize,
    },
    /// Under `Repair`: the CPI target is unusable, and targets are never
    /// fabricated.
    UnrepairableTarget {
        /// Explanation of the failure.
        detail: String,
    },
    /// The row's bytes are not UTF-8.
    InvalidUtf8 {
        /// 1-based byte column of the first invalid byte.
        column: usize,
    },
}

impl fmt::Display for RowIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowIssue::FieldCount { expected, found } => {
                write!(f, "expected {expected} fields, found {found}")
            }
            RowIssue::BadKey { detail } => write!(f, "bad row key: {detail}"),
            RowIssue::Unparsable { field, text } => {
                write!(f, "unparsable {field} {text:?}")
            }
            RowIssue::NonFinite { field, text } => {
                write!(f, "non-finite {field} {text:?}")
            }
            RowIssue::OutOfRange { field, value } => {
                write!(f, "out-of-range {field} ({value:e})")
            }
            RowIssue::DuplicateKey { workload, section } => {
                write!(f, "duplicate key ({workload}, {section})")
            }
            RowIssue::UnrepairableTarget { detail } => {
                write!(f, "unrepairable CPI target: {detail}")
            }
            RowIssue::InvalidUtf8 { column } => {
                write!(f, "invalid UTF-8 at byte column {column}")
            }
        }
    }
}

/// One quarantined row: where it was and why it was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRow {
    /// 1-based line number in the input (the header is line 1).
    pub line: usize,
    /// The disqualifying problem.
    pub issue: RowIssue,
}

/// What a `Repair` ingest did to one field.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RepairKind {
    /// The field was missing or invalid and was replaced by a median.
    Imputed {
        /// The value written in its place.
        replacement: f64,
    },
    /// The field was a finite extreme outlier and was clamped.
    Winsorized {
        /// The original value.
        from: f64,
        /// The clamped value.
        to: f64,
    },
}

/// One recorded repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairAction {
    /// 1-based line number of the repaired row.
    pub line: usize,
    /// Schema name of the repaired field.
    pub field: &'static str,
    /// What was done.
    pub kind: RepairKind,
}

impl fmt::Display for RepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RepairKind::Imputed { replacement } => write!(
                f,
                "line {}: imputed {} = {replacement:e}",
                self.line, self.field
            ),
            RepairKind::Winsorized { from, to } => write!(
                f,
                "line {}: winsorized {} {from:e} -> {to:e}",
                self.line, self.field
            ),
        }
    }
}

/// Structured account of one CSV ingest: what was read, kept, quarantined,
/// and repaired.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// The policy the ingest ran under.
    pub policy: IngestPolicy,
    /// Data rows seen (blank lines and the header excluded).
    pub rows_read: usize,
    /// Rows that made it into the returned [`SampleSet`].
    pub rows_kept: usize,
    /// Rows rejected, in line order, each with its diagnostic.
    pub quarantined: Vec<QuarantinedRow>,
    /// Field repairs applied, in (line, field) order.
    pub repairs: Vec<RepairAction>,
}

impl IngestReport {
    /// Number of quarantined rows.
    pub fn rows_quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// Number of distinct rows that received at least one repair.
    pub fn rows_repaired(&self) -> usize {
        let mut lines: Vec<usize> = self.repairs.iter().map(|r| r.line).collect();
        lines.dedup(); // repairs are sorted by (line, field)
        lines.len()
    }

    /// `true` when nothing was quarantined or repaired.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.repairs.is_empty()
    }

    /// One-line summary suitable for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "ingest ({}): {} rows read, {} kept, {} quarantined, {} repaired ({} field repairs)",
            self.policy,
            self.rows_read,
            self.rows_kept,
            self.rows_quarantined(),
            self.rows_repaired(),
            self.repairs.len(),
        )
    }
}

impl fmt::Display for IngestReport {
    /// The summary line plus up to eight per-row diagnostics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 8;
        writeln!(f, "{}", self.summary())?;
        for q in self.quarantined.iter().take(SHOWN) {
            writeln!(f, "  quarantined line {}: {}", q.line, q.issue)?;
        }
        if self.quarantined.len() > SHOWN {
            writeln!(
                f,
                "  ... {} more quarantined",
                self.quarantined.len() - SHOWN
            )?;
        }
        for r in self.repairs.iter().take(SHOWN) {
            writeln!(f, "  {r}")?;
        }
        if self.repairs.len() > SHOWN {
            writeln!(f, "  ... {} more repairs", self.repairs.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// Schema name of field index `i` (0 = workload, 1 = section, 2 = CPI,
/// then the Table-I metrics).
fn field_name(i: usize) -> &'static str {
    match i {
        0 => "workload",
        1 => "section",
        2 => "CPI",
        _ => Event::ALL[i - 3].metric_name(),
    }
}

/// A rate slot in a row being repaired: a valid value, or a hole to impute.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Value(f64),
    Missing,
}

/// A row that survived pass 1 of `Repair` and may still need imputation.
struct Candidate {
    line: usize,
    workload: String,
    section: usize,
    cpi: f64,
    rates: Vec<Slot>, // always N_EVENTS long; truncated tails are Missing
}

/// Outcome of validating one numeric field.
enum FieldCheck {
    Ok(f64),
    Bad(RowIssue),
}

/// Parses and range-checks one numeric field.
fn check_field(text: &str, idx: usize, max: f64) -> FieldCheck {
    let field = field_name(idx);
    match text.parse::<f64>() {
        Err(_) => FieldCheck::Bad(RowIssue::Unparsable {
            field,
            text: text.to_string(),
        }),
        Ok(v) if !v.is_finite() => FieldCheck::Bad(RowIssue::NonFinite {
            field,
            text: text.to_string(),
        }),
        Ok(v) if !(0.0..=max).contains(&v) => {
            FieldCheck::Bad(RowIssue::OutOfRange { field, value: v })
        }
        Ok(v) => FieldCheck::Ok(v),
    }
}

/// Median of `values` (not necessarily sorted). Returns `None` when empty.
fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median absolute deviation around `center`.
fn mad(values: &[f64], center: f64) -> Option<f64> {
    let dev: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&dev)
}

/// Reads a sample CSV under `policy`, returning the surviving samples plus a
/// structured [`IngestReport`].
///
/// Under [`IngestPolicy::Strict`] this is exactly [`crate::read_csv`] (same
/// errors, same accepted inputs) with a trivial report. `Skip` and `Repair`
/// never fail on data rows — only on I/O errors or a header that does not
/// match the schema, because a wrong header means the column meanings
/// themselves are untrustworthy.
///
/// # Errors
///
/// [`CsvError::Io`] on read failure; [`CsvError::BadHeader`] on schema
/// mismatch; under `Strict` also [`CsvError::BadRow`] for the first
/// malformed data row.
pub fn read_csv_with_policy<R: Read>(
    r: R,
    policy: IngestPolicy,
) -> Result<(SampleSet, IngestReport), CsvError> {
    if policy == IngestPolicy::Strict {
        let set = crate::csv::read_csv(r)?;
        let n = set.len();
        return Ok((
            set,
            IngestReport {
                policy,
                rows_read: n,
                rows_kept: n,
                quarantined: Vec::new(),
                repairs: Vec::new(),
            },
        ));
    }
    let mut ingest_span = mtperf_obs::span("ingest");
    ingest_span.annotate("policy", &policy.to_string());

    let mut r = BufReader::new(r);
    let mut buf = Vec::new();
    r.read_until(b'\n', &mut buf)?;
    check_header(strip_eol(&buf))?;

    let expected = 3 + N_EVENTS;
    let mut rows_read = 0usize;
    let mut quarantined: Vec<QuarantinedRow> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen_keys: HashSet<(String, usize)> = HashSet::new();

    for lineno in 2.. {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let raw = strip_eol(&buf);
        if raw.is_empty() {
            continue;
        }
        rows_read += 1;
        let line = match std::str::from_utf8(raw) {
            Ok(line) => line,
            Err(e) => {
                quarantined.push(QuarantinedRow {
                    line: lineno,
                    issue: RowIssue::InvalidUtf8 {
                        column: e.valid_up_to() + 1,
                    },
                });
                continue;
            }
        };
        let fields: Vec<&str> = line.split(',').collect();
        let found = fields.len();

        // Structural checks. `Repair` tolerates a truncated tail (missing
        // trailing rates are imputable); everything else is fatal to the row
        // under both policies.
        let truncation_ok = policy == IngestPolicy::Repair && found >= 3;
        if found != expected && !(truncation_ok && found < expected) {
            quarantined.push(QuarantinedRow {
                line: lineno,
                issue: RowIssue::FieldCount { expected, found },
            });
            continue;
        }

        // Key fields.
        if fields[0].is_empty() {
            quarantined.push(QuarantinedRow {
                line: lineno,
                issue: RowIssue::BadKey {
                    detail: "empty workload name".into(),
                },
            });
            continue;
        }
        let section: usize = match fields[1].parse() {
            Ok(s) => s,
            Err(e) => {
                quarantined.push(QuarantinedRow {
                    line: lineno,
                    issue: RowIssue::BadKey {
                        detail: format!("bad section index {:?}: {e}", fields[1]),
                    },
                });
                continue;
            }
        };

        // CPI target: never fabricated, under either policy.
        let cpi = match check_field(fields[2], 2, MAX_CPI) {
            FieldCheck::Ok(v) => v,
            FieldCheck::Bad(issue) => {
                let issue = if policy == IngestPolicy::Repair {
                    RowIssue::UnrepairableTarget {
                        detail: issue.to_string(),
                    }
                } else {
                    issue
                };
                quarantined.push(QuarantinedRow {
                    line: lineno,
                    issue,
                });
                continue;
            }
        };

        // Rate fields.
        let mut rates: Vec<Slot> = Vec::with_capacity(N_EVENTS);
        let mut skip_issue: Option<RowIssue> = None;
        for j in 0..N_EVENTS {
            match fields.get(3 + j) {
                None => rates.push(Slot::Missing), // truncated tail (Repair)
                Some(text) => match check_field(text, 3 + j, MAX_RATE) {
                    FieldCheck::Ok(v) => rates.push(Slot::Value(v)),
                    FieldCheck::Bad(issue) => {
                        if policy == IngestPolicy::Skip {
                            skip_issue = Some(issue);
                            break;
                        }
                        rates.push(Slot::Missing);
                    }
                },
            }
        }
        if let Some(issue) = skip_issue {
            quarantined.push(QuarantinedRow {
                line: lineno,
                issue,
            });
            continue;
        }

        // Duplicate keys: the first kept row claims the key.
        if !seen_keys.insert((fields[0].to_string(), section)) {
            quarantined.push(QuarantinedRow {
                line: lineno,
                issue: RowIssue::DuplicateKey {
                    workload: fields[0].to_string(),
                    section,
                },
            });
            continue;
        }

        candidates.push(Candidate {
            line: lineno,
            workload: fields[0].to_string(),
            section,
            cpi,
            rates,
        });
    }

    let repairs = if policy == IngestPolicy::Repair {
        repair_candidates(&mut candidates)
    } else {
        Vec::new()
    };

    let mut set = SampleSet::new();
    for c in &candidates {
        let mut arr = [0.0f64; N_EVENTS];
        for (j, slot) in c.rates.iter().enumerate() {
            match slot {
                Slot::Value(v) => arr[j] = *v,
                // Repaired rows have no Missing slots left; Skip rows never
                // had any.
                Slot::Missing => unreachable!("unfilled slot after repair"),
            }
        }
        set.push(SectionSample::new(
            c.workload.clone(),
            c.section,
            c.cpi,
            arr,
        ));
    }

    let report = IngestReport {
        policy,
        rows_read,
        rows_kept: set.len(),
        quarantined,
        repairs,
    };
    ingest_span.add("rows_read", report.rows_read as u64);
    ingest_span.add("rows_kept", report.rows_kept as u64);
    ingest_span.add("rows_quarantined", report.rows_quarantined() as u64);
    ingest_span.add("field_repairs", report.repairs.len() as u64);
    Ok((set, report))
}

/// Pass 2 of `Repair`: fill every [`Slot::Missing`] from per-workload (then
/// global) medians and winsorize extreme in-range outliers. Returns the
/// recorded repairs sorted by (line, field).
fn repair_candidates(candidates: &mut [Candidate]) -> Vec<RepairAction> {
    let mut repairs: Vec<RepairAction> = Vec::new();

    // Per-event column values, per workload and global, from present slots.
    // Workload grouping uses sorted names so every run visits groups in the
    // same order.
    let mut groups: std::collections::BTreeMap<&str, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, c) in candidates.iter().enumerate() {
        groups.entry(c.workload.as_str()).or_default().push(i);
    }
    // Borrow-friendly copy: (workload index list) pairs.
    let groups: Vec<Vec<usize>> = groups.into_values().collect();

    for j in 0..N_EVENTS {
        let field = Event::ALL[j].metric_name();
        let global: Vec<f64> = candidates
            .iter()
            .filter_map(|c| match c.rates[j] {
                Slot::Value(v) => Some(v),
                Slot::Missing => None,
            })
            .collect();
        let global_median = median(&global).unwrap_or(0.0);

        for idx in &groups {
            let present: Vec<f64> = idx
                .iter()
                .filter_map(|&i| match candidates[i].rates[j] {
                    Slot::Value(v) => Some(v),
                    Slot::Missing => None,
                })
                .collect();
            let group_median = median(&present);
            let fill = group_median.unwrap_or(global_median);

            // Winsorization band from the group's robust spread.
            let band = group_median.and_then(|med| {
                let m = mad(&present, med)?;
                (present.len() >= MIN_GROUP_FOR_WINSOR && m > 0.0)
                    .then(|| (med - WINSOR_Z * 1.4826 * m).max(0.0)..=(med + WINSOR_Z * 1.4826 * m))
            });

            for &i in idx {
                match candidates[i].rates[j] {
                    Slot::Missing => {
                        candidates[i].rates[j] = Slot::Value(fill);
                        repairs.push(RepairAction {
                            line: candidates[i].line,
                            field,
                            kind: RepairKind::Imputed { replacement: fill },
                        });
                    }
                    Slot::Value(v) => {
                        if let Some(band) = &band {
                            if !band.contains(&v) {
                                let to = v.clamp(*band.start(), *band.end());
                                candidates[i].rates[j] = Slot::Value(to);
                                repairs.push(RepairAction {
                                    line: candidates[i].line,
                                    field,
                                    kind: RepairKind::Winsorized { from: v, to },
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // (line, field-index) order: stable, file-ordered diagnostics.
    repairs.sort_by_key(|r| {
        (
            r.line,
            Event::iter()
                .position(|e| e.metric_name() == r.field)
                .unwrap_or(usize::MAX),
        )
    });
    repairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::write_csv;

    fn sample(w: &str, idx: usize, cpi: f64, fill: f64) -> SectionSample {
        SectionSample::new(w, idx, cpi, [fill; N_EVENTS])
    }

    fn csv_of(set: &SampleSet) -> String {
        let mut buf = Vec::new();
        write_csv(set, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn clean_set() -> SampleSet {
        (0..12)
            .map(|i| sample("w", i, 1.0 + i as f64 * 0.01, 0.1 + i as f64 * 0.001))
            .collect()
    }

    #[test]
    fn policy_parses_and_displays() {
        for p in [
            IngestPolicy::Strict,
            IngestPolicy::Skip,
            IngestPolicy::Repair,
        ] {
            assert_eq!(p.to_string().parse::<IngestPolicy>().unwrap(), p);
        }
        assert!("lenient".parse::<IngestPolicy>().is_err());
    }

    #[test]
    fn strict_policy_matches_read_csv() {
        let set = clean_set();
        let text = csv_of(&set);
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Strict).unwrap();
        assert_eq!(back, set);
        assert!(report.is_clean());
        assert_eq!(report.rows_read, set.len());
        assert_eq!(report.rows_kept, set.len());

        let bad = text.replace("1.0", "NaN");
        assert!(read_csv_with_policy(bad.as_bytes(), IngestPolicy::Strict).is_err());
    }

    #[test]
    fn clean_input_is_untouched_under_all_policies() {
        let set = clean_set();
        let text = csv_of(&set);
        for policy in [IngestPolicy::Skip, IngestPolicy::Repair] {
            let (back, report) = read_csv_with_policy(text.as_bytes(), policy).unwrap();
            assert_eq!(back, set, "{policy}");
            assert!(report.is_clean(), "{policy}: {report}");
        }
    }

    #[test]
    fn skip_quarantines_non_finite_row_with_diagnostic() {
        let mut set = clean_set();
        set.push(sample("w", 100, 2.0, 0.2));
        let mut text = csv_of(&set);
        // Corrupt the last row's final field.
        let lastpos = text.trim_end().rfind(',').unwrap();
        text.replace_range(lastpos + 1..text.trim_end().len(), "NaN");
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Skip).unwrap();
        assert_eq!(back.len(), set.len() - 1);
        assert_eq!(report.rows_quarantined(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.line, 2 + set.len() - 1);
        assert!(
            matches!(q.issue, RowIssue::NonFinite { field: "LCP", .. }),
            "{:?}",
            q.issue
        );
    }

    #[test]
    fn skip_quarantines_truncated_and_out_of_range_rows() {
        let set = clean_set();
        let mut text = csv_of(&set);
        text.push_str("w,100,1.5,0.5\n"); // truncated
        text.push_str(&format!(
            "w,101,1.5{}\n",
            ",1e30".repeat(N_EVENTS) // saturated counters
        ));
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Skip).unwrap();
        assert_eq!(back.len(), set.len());
        assert_eq!(report.rows_quarantined(), 2);
        assert!(matches!(
            report.quarantined[0].issue,
            RowIssue::FieldCount { found: 4, .. }
        ));
        assert!(matches!(
            report.quarantined[1].issue,
            RowIssue::OutOfRange { .. }
        ));
    }

    #[test]
    fn skip_quarantines_duplicate_keys_keeping_first() {
        let set = clean_set();
        let mut text = csv_of(&set);
        // Re-append row (w, 3) with a different CPI.
        text.push_str(&format!("w,3,9.0{}\n", ",0".repeat(N_EVENTS)));
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Skip).unwrap();
        assert_eq!(back.len(), set.len());
        // The first (w, 3) row was kept with its original CPI.
        let kept = back.iter().find(|s| s.section_index == 3).unwrap();
        assert!((kept.cpi - 1.03).abs() < 1e-12);
        assert!(matches!(
            &report.quarantined[0].issue,
            RowIssue::DuplicateKey { workload, section: 3 } if workload == "w"
        ));
    }

    #[test]
    fn repair_imputes_from_workload_median() {
        // Workload "a": rates all 0.2 except one NaN; workload "b": all 0.7.
        let mut set: SampleSet = (0..9).map(|i| sample("a", i, 1.0, 0.2)).collect();
        set.extend((0..9).map(|i| sample("b", i, 1.0, 0.7)));
        let mut text = csv_of(&set);
        // Break one rate in an "a" row: replace that row entirely.
        let lines: Vec<&str> = text.lines().collect();
        let mut row3: Vec<String> = lines[4].split(',').map(str::to_string).collect();
        row3[3] = "NaN".to_string();
        let rebuilt = row3.join(",");
        text = {
            let mut ls: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            ls[4] = rebuilt;
            ls.join("\n") + "\n"
        };
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Repair).unwrap();
        assert_eq!(back.len(), set.len());
        assert_eq!(report.repairs.len(), 1);
        let r = &report.repairs[0];
        assert_eq!(r.line, 5);
        assert_eq!(r.field, Event::ALL[0].metric_name());
        // Imputed from workload "a"'s median (0.2), not "b"'s 0.7.
        match r.kind {
            RepairKind::Imputed { replacement } => assert!((replacement - 0.2).abs() < 1e-12),
            other => panic!("unexpected repair: {other:?}"),
        }
        assert_eq!(report.rows_repaired(), 1);
    }

    #[test]
    fn repair_imputes_truncated_tail() {
        let set = clean_set();
        let mut text = csv_of(&set);
        text.push_str("w,100,1.5,0.105\n"); // only the first rate present
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Repair).unwrap();
        assert_eq!(back.len(), set.len() + 1);
        assert_eq!(report.repairs.len(), N_EVENTS - 1);
        assert!(report.repairs.iter().all(|r| r.line == 2 + set.len()));
        let repaired = back.iter().find(|s| s.section_index == 100).unwrap();
        assert!(repaired.is_well_formed());
    }

    #[test]
    fn repair_winsorizes_extreme_outlier() {
        // 15 tight values and one wild (but in-range) spike.
        let mut set: SampleSet = (0..15)
            .map(|i| sample("w", i, 1.0, 0.2 + 0.001 * (i % 5) as f64))
            .collect();
        set.push(sample("w", 99, 1.0, 90.0));
        let text = csv_of(&set);
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Repair).unwrap();
        assert_eq!(back.len(), set.len());
        assert!(!report.repairs.is_empty());
        assert!(report.repairs.iter().all(
            |r| matches!(r.kind, RepairKind::Winsorized { from, to } if from == 90.0 && to < 1.0)
        ));
        let spike = back.iter().find(|s| s.section_index == 99).unwrap();
        assert!(spike.rates.iter().all(|&v| v < 1.0));
    }

    #[test]
    fn repair_quarantines_bad_cpi() {
        let set = clean_set();
        let mut text = csv_of(&set);
        text.push_str(&format!("w,100,NaN{}\n", ",0.1".repeat(N_EVENTS)));
        let (back, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Repair).unwrap();
        assert_eq!(back.len(), set.len());
        assert!(matches!(
            report.quarantined[0].issue,
            RowIssue::UnrepairableTarget { .. }
        ));
    }

    #[test]
    fn bad_header_fails_under_every_policy() {
        for policy in [
            IngestPolicy::Strict,
            IngestPolicy::Skip,
            IngestPolicy::Repair,
        ] {
            let err = read_csv_with_policy("nope,nope\n".as_bytes(), policy).unwrap_err();
            assert!(matches!(err, CsvError::BadHeader { .. }), "{policy}");
        }
    }

    #[test]
    fn report_summary_and_display() {
        let set = clean_set();
        let mut text = csv_of(&set);
        text.push_str("w,100,1.5,0.5\n");
        let (_, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Skip).unwrap();
        let summary = report.summary();
        assert!(summary.contains("13 rows read"), "{summary}");
        assert!(summary.contains("12 kept"), "{summary}");
        assert!(summary.contains("1 quarantined"), "{summary}");
        let full = report.to_string();
        assert!(full.contains("quarantined line 14"), "{full}");
    }

    #[test]
    fn empty_workload_and_bad_section_are_bad_keys() {
        let set = clean_set();
        let mut text = csv_of(&set);
        text.push_str(&format!(",100,1.5{}\n", ",0.1".repeat(N_EVENTS)));
        text.push_str(&format!("w,xyz,1.5{}\n", ",0.1".repeat(N_EVENTS)));
        let (_, report) = read_csv_with_policy(text.as_bytes(), IngestPolicy::Skip).unwrap();
        assert_eq!(report.rows_quarantined(), 2);
        assert!(matches!(
            report.quarantined[0].issue,
            RowIssue::BadKey { .. }
        ));
        assert!(matches!(
            report.quarantined[1].issue,
            RowIssue::BadKey { .. }
        ));
    }

    #[test]
    fn invalid_utf8_rows_are_quarantined_under_skip_and_repair() {
        let set = clean_set();
        let mut bytes = csv_of(&set).into_bytes();
        bytes.extend_from_slice(b"w\xff,100,1.5");
        bytes.extend_from_slice(",0.1".repeat(N_EVENTS).as_bytes());
        bytes.extend_from_slice(b"\r\n");
        let clean_rows = set.len();
        for policy in [IngestPolicy::Skip, IngestPolicy::Repair] {
            let (kept, report) = read_csv_with_policy(&bytes[..], policy).unwrap();
            assert_eq!(kept, set, "{policy}");
            assert_eq!(report.rows_read, clean_rows + 1);
            assert_eq!(
                report.quarantined,
                vec![QuarantinedRow {
                    line: clean_rows + 2,
                    issue: RowIssue::InvalidUtf8 { column: 2 },
                }]
            );
        }
        let err = read_csv_with_policy(&bytes[..], IngestPolicy::Strict).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "bad csv row at line {}: invalid UTF-8 at byte column 2",
                clean_rows + 2
            )
        );
    }
}
