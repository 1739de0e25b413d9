//! Out-of-core CSV → transaction ingestion with bounded resident memory.
//!
//! [`crate::csv::read_dataset`] materialises every raw cell as a `String`
//! before building anything — fine for UCI-sized files, hopeless for
//! million-row inputs where the intermediate `Vec<Vec<String>>` dwarfs the
//! columnar output. This module streams instead: the file is read in
//! fixed-size buffered **segments** (std-only `Read` calls — no mmap, no
//! libc) and scanned twice:
//!
//! 1. **Pass 1** infers each column's kind (numeric iff every non-missing
//!    cell parses as `f64`, same rule as the in-memory reader), collects
//!    categorical dictionaries (capped by
//!    [`IngestOptions::max_categories`]), numeric min/max, and the class
//!    dictionary;
//! 2. **Pass 2** re-reads the file and emits each row directly as a sorted
//!    item [`Transaction`] — numeric cells are equal-width binned into
//!    [`IngestOptions::numeric_bins`] bins from the pass-1 min/max, missing
//!    cells (`?` or empty) simply contribute no item.
//!
//! Peak resident memory is the segment buffer plus the columnar output
//! itself; the raw text is never held whole. The segment-refill boundary
//! carries the `data.ingest` failpoint: armed with `trunc` it surfaces a
//! typed [`IngestError::TruncatedSegment`] (never a panic), armed with
//! `err` it fails with [`IngestError::Injected`].

use crate::schema::{Attribute, ClassId, Schema};
use crate::transactions::{ItemMap, Transaction, TransactionSet};
use std::collections::HashMap;
use std::io::Read;
use std::path::Path;

/// Tuning knobs for streaming ingestion.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Bytes per buffered segment read (the resident-text bound).
    pub segment_bytes: usize,
    /// Equal-width bins for each numeric column.
    pub numeric_bins: usize,
    /// Maximum distinct values per categorical column; exceeding it is a
    /// typed error (a column with unbounded card would explode the item
    /// space, and out-of-core we cannot retroactively re-type it).
    pub max_categories: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            segment_bytes: 1 << 20,
            numeric_bins: 5,
            max_categories: 4096,
        }
    }
}

/// Errors produced by streaming ingestion.
#[derive(Debug)]
pub enum IngestError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structural problem with the file contents (1-based line number).
    Malformed {
        /// 1-based line number of the offending row.
        line: u64,
        /// What went wrong.
        msg: String,
    },
    /// A segment read came back short (fault-injected via `data.ingest`).
    TruncatedSegment {
        /// Byte offset at which the stream was cut.
        offset: u64,
    },
    /// A categorical column exceeded [`IngestOptions::max_categories`].
    TooManyValues {
        /// Column name.
        column: String,
        /// The configured cap.
        limit: usize,
    },
    /// Fault-injected failure at the named site.
    Injected(&'static str),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "io error: {e}"),
            IngestError::Malformed { line, msg } => {
                write!(f, "malformed csv at line {line}: {msg}")
            }
            IngestError::TruncatedSegment { offset } => {
                write!(f, "truncated segment read at byte {offset}")
            }
            IngestError::TooManyValues { column, limit } => {
                write!(f, "column {column:?} exceeds {limit} distinct values")
            }
            IngestError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// The product of streaming ingestion: an all-categorical schema (numeric
/// columns arrive pre-binned), the item mapping, and the transactions.
#[derive(Debug)]
pub struct Ingested {
    /// All-categorical schema (numeric columns binned to `bin0..binN`).
    pub schema: Schema,
    /// The `(attribute, value) → item` mapping for `schema`.
    pub item_map: ItemMap,
    /// The labelled transaction set.
    pub transactions: TransactionSet,
}

/// Fixed-size buffered segment reader with line extraction. The only
/// allocation is the segment buffer; lines are assembled into a caller
/// scratch to survive segment boundaries.
struct SegmentReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    /// Bytes consumed before the current buffer (for error offsets).
    offset: u64,
    eof: bool,
}

impl<R: Read> SegmentReader<R> {
    fn new(inner: R, segment_bytes: usize) -> Self {
        SegmentReader {
            inner,
            buf: vec![0u8; segment_bytes.max(64)],
            pos: 0,
            len: 0,
            offset: 0,
            eof: false,
        }
    }

    /// Reads the next segment. The `data.ingest` failpoint fires here —
    /// the refill is the I/O boundary an operator would see fail.
    fn refill(&mut self) -> Result<(), IngestError> {
        match dfp_fault::evaluate("data.ingest") {
            Some(dfp_fault::Action::Err) => return Err(IngestError::Injected("data.ingest")),
            Some(dfp_fault::Action::Trunc) => {
                return Err(IngestError::TruncatedSegment {
                    offset: self.offset,
                })
            }
            _ => {}
        }
        self.offset += self.len as u64;
        self.pos = 0;
        self.len = self.inner.read(&mut self.buf)?;
        if self.len == 0 {
            self.eof = true;
        }
        Ok(())
    }

    /// Appends the next line (without terminator) into `line`. Returns
    /// `false` at end of input.
    fn next_line(&mut self, line: &mut Vec<u8>) -> Result<bool, IngestError> {
        line.clear();
        loop {
            if self.pos >= self.len {
                if self.eof {
                    return Ok(!line.is_empty());
                }
                self.refill()?;
                continue;
            }
            let chunk = &self.buf[self.pos..self.len];
            match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    line.extend_from_slice(&chunk[..nl]);
                    self.pos += nl + 1;
                    return Ok(true);
                }
                None => {
                    line.extend_from_slice(chunk);
                    self.pos = self.len;
                }
            }
        }
    }
}

fn is_missing(s: &str) -> bool {
    s.is_empty() || s == "?"
}

/// Pass-1 accumulator for one attribute column.
struct ColumnScan {
    /// Every non-missing cell so far parsed as `f64`.
    numeric_ok: bool,
    /// Running numeric range (valid only while `numeric_ok`).
    min: f64,
    max: f64,
    saw_value: bool,
    /// Categorical dictionary in first-appearance order.
    dict: Vec<String>,
    idx: HashMap<String, u32>,
    /// Dictionary gave up at `max_categories` (fatal unless numeric).
    overflow: bool,
}

impl ColumnScan {
    fn new() -> Self {
        ColumnScan {
            numeric_ok: true,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            saw_value: false,
            dict: Vec::new(),
            idx: HashMap::new(),
            overflow: false,
        }
    }

    fn observe(&mut self, cell: &str, max_categories: usize) {
        if is_missing(cell) {
            return;
        }
        self.saw_value = true;
        if self.numeric_ok {
            match cell.parse::<f64>() {
                Ok(v) => {
                    self.min = self.min.min(v);
                    self.max = self.max.max(v);
                }
                Err(_) => self.numeric_ok = false,
            }
        }
        // Keep the dictionary alongside the numeric range: the column may
        // stop being numeric at any later row.
        if !self.overflow && !self.idx.contains_key(cell) {
            if self.dict.len() >= max_categories {
                self.overflow = true;
                self.dict.clear();
                self.idx.clear();
            } else {
                self.idx.insert(cell.to_string(), self.dict.len() as u32);
                self.dict.push(cell.to_string());
            }
        }
    }
}

/// The resolved per-column encoder used by pass 2.
enum ColumnKind {
    /// Equal-width bins over `[min, max]`.
    Numeric {
        /// Lower range bound from pass 1.
        min: f64,
        /// `bins / (max - min)`, `0.0` for a constant column.
        scale: f64,
        /// Bin count (= attribute arity).
        bins: usize,
    },
    /// Dictionary lookup.
    Categorical(HashMap<String, u32>),
}

fn parse_cells(line: &[u8], lineno: u64) -> Result<Vec<&str>, IngestError> {
    let text = std::str::from_utf8(line).map_err(|_| IngestError::Malformed {
        line: lineno,
        msg: "invalid utf-8".into(),
    })?;
    Ok(text.split(',').map(str::trim).collect())
}

/// Streams a labelled CSV file (header row; last column = class) into a
/// transaction set using two bounded-memory passes over `path`.
pub fn ingest_csv(path: &Path, opts: &IngestOptions) -> Result<Ingested, IngestError> {
    ingest_with(|| Ok(std::fs::File::open(path)?), opts)
}

/// [`ingest_csv`] over an in-memory byte slice (tests / small inputs).
pub fn ingest_bytes(bytes: &[u8], opts: &IngestOptions) -> Result<Ingested, IngestError> {
    ingest_with(|| Ok(bytes), opts)
}

/// Core two-pass driver; `open` must yield a fresh reader over the same
/// content for each pass.
pub fn ingest_with<R: Read, F: FnMut() -> Result<R, IngestError>>(
    mut open: F,
    opts: &IngestOptions,
) -> Result<Ingested, IngestError> {
    // ---- pass 1: column kinds, dictionaries, ranges, class names ----
    let mut reader = SegmentReader::new(open()?, opts.segment_bytes);
    let mut line = Vec::new();
    if !reader.next_line(&mut line)? {
        return Err(IngestError::Malformed {
            line: 1,
            msg: "empty file".into(),
        });
    }
    let names: Vec<String> = parse_cells(&line, 1)?
        .into_iter()
        .map(str::to_string)
        .collect();
    if names.len() < 2 {
        return Err(IngestError::Malformed {
            line: 1,
            msg: "need at least one attribute column and a class column".into(),
        });
    }
    let n_attrs = names.len() - 1;

    let mut cols: Vec<ColumnScan> = (0..n_attrs).map(|_| ColumnScan::new()).collect();
    let mut class_names: Vec<String> = Vec::new();
    let mut class_idx: HashMap<String, u32> = HashMap::new();
    let mut n_rows = 0usize;
    let mut lineno = 1u64;
    while reader.next_line(&mut line)? {
        lineno += 1;
        let cells = parse_cells(&line, lineno)?;
        if cells.len() == 1 && cells[0].is_empty() {
            continue; // blank line
        }
        if cells.len() != names.len() {
            return Err(IngestError::Malformed {
                line: lineno,
                msg: format!("expected {} cells, got {}", names.len(), cells.len()),
            });
        }
        for (c, cell) in cells[..n_attrs].iter().enumerate() {
            cols[c].observe(cell, opts.max_categories);
        }
        let cls = cells[n_attrs];
        if !class_idx.contains_key(cls) {
            class_idx.insert(cls.to_string(), class_names.len() as u32);
            class_names.push(cls.to_string());
        }
        n_rows += 1;
    }

    // ---- resolve schema + per-column encoders ----
    let bins = opts.numeric_bins.max(1);
    let mut attributes = Vec::with_capacity(n_attrs);
    let mut kinds = Vec::with_capacity(n_attrs);
    for (c, scan) in cols.into_iter().enumerate() {
        if scan.numeric_ok && scan.saw_value {
            let (arity, scale) = if scan.max > scan.min {
                (bins, bins as f64 / (scan.max - scan.min))
            } else {
                (1, 0.0)
            };
            attributes.push(Attribute::categorical(
                names[c].clone(),
                (0..arity).map(|i| format!("bin{i}")).collect(),
            ));
            kinds.push(ColumnKind::Numeric {
                min: scan.min,
                scale,
                bins: arity,
            });
        } else {
            if scan.overflow {
                return Err(IngestError::TooManyValues {
                    column: names[c].clone(),
                    limit: opts.max_categories,
                });
            }
            attributes.push(Attribute::categorical(names[c].clone(), scan.dict));
            kinds.push(ColumnKind::Categorical(scan.idx));
        }
    }
    let schema = Schema::new(attributes, class_names);
    let item_map = ItemMap::from_schema(&schema);

    // ---- pass 2: emit transactions ----
    let mut reader = SegmentReader::new(open()?, opts.segment_bytes);
    if !reader.next_line(&mut line)? {
        return Err(IngestError::Malformed {
            line: 1,
            msg: "file shrank between passes".into(),
        });
    }
    let mut transactions: Vec<Transaction> = Vec::with_capacity(n_rows);
    let mut labels: Vec<ClassId> = Vec::with_capacity(n_rows);
    let mut lineno = 1u64;
    while reader.next_line(&mut line)? {
        lineno += 1;
        let cells = parse_cells(&line, lineno)?;
        if cells.len() == 1 && cells[0].is_empty() {
            continue;
        }
        if cells.len() != names.len() {
            return Err(IngestError::Malformed {
                line: lineno,
                msg: format!("expected {} cells, got {}", names.len(), cells.len()),
            });
        }
        let mut tx: Transaction = Vec::new();
        for (c, cell) in cells[..n_attrs].iter().enumerate() {
            if is_missing(cell) || !item_map.has_items(c) {
                continue;
            }
            let value = match &kinds[c] {
                ColumnKind::Numeric { min, scale, bins } => {
                    let v: f64 = cell.parse().map_err(|_| IngestError::Malformed {
                        line: lineno,
                        msg: format!("bad numeric cell {cell:?}"),
                    })?;
                    (((v - min) * scale) as usize).min(bins - 1)
                }
                ColumnKind::Categorical(idx) => {
                    *idx.get(*cell).ok_or_else(|| IngestError::Malformed {
                        line: lineno,
                        msg: format!("unknown value {cell:?} (file changed between passes?)"),
                    })? as usize
                }
            };
            tx.push(item_map.item(c, value));
        }
        // Items are emitted in ascending attribute order and item ids grow
        // with the attribute offset, so `tx` is already strictly sorted.
        let cls = cells[n_attrs];
        let label = *class_idx.get(cls).ok_or_else(|| IngestError::Malformed {
            line: lineno,
            msg: format!("unknown class {cls:?} (file changed between passes?)"),
        })?;
        transactions.push(tx);
        labels.push(ClassId(label));
    }

    let n_items = item_map.n_items();
    let n_classes = schema.n_classes().max(1);
    Ok(Ingested {
        schema,
        item_map,
        transactions: TransactionSet::new(n_items, n_classes, transactions, labels),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
color,weight,class
red,1.0,pos
blue,2.0,neg
red,?,pos
green,4.0,neg
";

    fn tiny_opts() -> IngestOptions {
        IngestOptions {
            segment_bytes: 8, // force many refills across line boundaries
            numeric_bins: 3,
            max_categories: 16,
        }
    }

    #[test]
    fn ingest_matches_expectations() {
        let out = ingest_bytes(SAMPLE.as_bytes(), &tiny_opts()).unwrap();
        assert_eq!(out.schema.class_names, vec!["pos", "neg"]);
        assert_eq!(out.schema.attributes[0].arity(), Some(3)); // red/blue/green
        assert_eq!(out.schema.attributes[1].arity(), Some(3)); // 3 bins
        let ts = &out.transactions;
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.n_items(), 6);
        // row 0: color=red (item 0), weight=1.0 → bin 0 (item 3)
        assert_eq!(ts.transaction(0), &[crate::Item(0), crate::Item(3)]);
        // row 2: weight missing → only the color item
        assert_eq!(ts.transaction(2), &[crate::Item(0)]);
        // row 3: weight=4.0 → top bin
        assert_eq!(ts.transaction(3), &[crate::Item(2), crate::Item(5)]);
        assert_eq!(
            ts.labels(),
            &[ClassId(0), ClassId(1), ClassId(0), ClassId(1)]
        );
        assert_eq!(out.item_map.name(crate::Item(3)), "weight=bin0");
    }

    #[test]
    fn segment_size_does_not_change_output() {
        let big = ingest_bytes(
            SAMPLE.as_bytes(),
            &IngestOptions {
                segment_bytes: 1 << 20,
                ..tiny_opts()
            },
        )
        .unwrap();
        let small = ingest_bytes(SAMPLE.as_bytes(), &tiny_opts()).unwrap();
        assert_eq!(
            big.transactions.transactions(),
            small.transactions.transactions()
        );
        assert_eq!(big.transactions.labels(), small.transactions.labels());
        assert_eq!(big.schema, small.schema);
    }

    #[test]
    fn matches_in_memory_reader_on_categoricals() {
        // All-categorical input: streaming ingestion and csv::read_dataset
        // must agree on schema and transactions.
        let csv = "a,b,class\nx,p,c0\ny,q,c1\nx,q,c0\n";
        let out = ingest_bytes(csv.as_bytes(), &tiny_opts()).unwrap();
        let data = crate::csv::read_dataset(csv.as_bytes()).unwrap();
        assert_eq!(out.schema, data.schema);
        let (ts, _) = data.to_transactions();
        assert_eq!(out.transactions.transactions(), ts.transactions());
        assert_eq!(out.transactions.labels(), ts.labels());
    }

    #[test]
    fn ragged_and_empty_rejected() {
        assert!(matches!(
            ingest_bytes(b"a,class\n1\n", &tiny_opts()),
            Err(IngestError::Malformed { line: 2, .. })
        ));
        assert!(matches!(
            ingest_bytes(b"", &tiny_opts()),
            Err(IngestError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            ingest_bytes(b"onlyclass\nx\n", &tiny_opts()),
            Err(IngestError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline_ok() {
        let out = ingest_bytes(b"a,class\nx,c0\n\ny,c1", &tiny_opts()).unwrap();
        assert_eq!(out.transactions.len(), 2);
    }

    #[test]
    fn category_cap_is_typed_error() {
        let mut csv = String::from("a,class\n");
        for i in 0..20 {
            csv.push_str(&format!("v{i},c0\n"));
        }
        let err = ingest_bytes(csv.as_bytes(), &tiny_opts()).unwrap_err();
        assert!(matches!(err, IngestError::TooManyValues { limit: 16, .. }));
    }

    #[test]
    fn constant_numeric_column_is_skipped() {
        let out = ingest_bytes(b"a,b,class\n1.5,x,c0\n1.5,y,c1\n", &tiny_opts()).unwrap();
        assert_eq!(out.schema.attributes[0].arity(), Some(1));
        assert!(!out.item_map.has_items(0));
        assert_eq!(out.transactions.n_items(), 2); // just b's two values
    }
}
