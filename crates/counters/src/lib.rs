//! Hardware performance-event modeling for `mtperf`.
//!
//! This crate is the vocabulary layer between the micro-architecture
//! simulator (`mtperf-sim`) and the machine-learning layer (`mtperf-mtree`).
//! It defines:
//!
//! * [`Event`] — the 20 predictor events of Table I of the ISPASS 2007 paper
//!   (*Using Model Trees for Computer Architecture Performance Analysis of
//!   Software Applications*), each carrying its paper metric name, the Core 2
//!   Duo PMU event expression it was derived from, and a human description;
//! * [`CounterBank`] — a software model of the PMU counter bank that the
//!   simulator increments while executing a workload;
//! * [`Sectioner`] — the paper's data-collection discipline: execution is cut
//!   into *sections* of equal retired-instruction counts and each section is
//!   reduced to per-instruction event rates plus its CPI;
//! * [`SectionSample`] / [`SampleSet`] — the resulting dataset rows, with
//!   summary statistics and CSV import/export;
//! * [`scan_csv`] — the strict CSV decoder, straight from the file's bytes
//!   into a row-major rate [`CounterTable`], chunked over the worker pool;
//! * [`quality`] — fault-tolerant ingestion: [`IngestPolicy`]
//!   (strict / skip / repair), quarantine with per-row diagnostics, median
//!   imputation and winsorization, all accounted for in an
//!   [`IngestReport`];
//! * [`faultinject`] — deterministic, seed-driven corruption operators for
//!   property-testing the ingest path.
//!
//! # Example
//!
//! ```
//! use mtperf_counters::{CounterBank, Event, Sectioner};
//!
//! let mut sec = Sectioner::new("demo", 1_000);
//! let mut bank = CounterBank::new();
//! let mut samples = Vec::new();
//! for _ in 0..1_000 {
//!     bank.add(Event::InstLd, 1); // every instruction is a load, say
//!     if let Some(sample) = sec.retire(&mut bank, 1, 2) {
//!         samples.push(sample);
//!     }
//! }
//! // 1000 instructions at 2 cycles each -> one full section, CPI = 2.
//! assert_eq!(samples.len(), 1);
//! assert!((samples[0].cpi - 2.0).abs() < 1e-12);
//! assert!((samples[0].rate(Event::InstLd) - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arff;
mod bank;
mod csv;
mod events;
pub mod faultinject;
pub mod quality;
mod sample;
mod sampleset;
mod scan;

pub use arff::write_arff;
pub use bank::{CounterBank, Sectioner};
pub use csv::{read_csv, write_csv, CsvError};
pub use events::{Event, EventParseError, N_EVENTS};
pub use quality::{read_csv_with_policy, IngestPolicy, IngestReport};
pub use sample::SectionSample;
pub use sampleset::{EventSummary, SampleSet};
pub use scan::{scan_csv, scan_csv_chunked, CounterTable};
