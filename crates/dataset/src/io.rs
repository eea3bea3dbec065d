//! TSV interchange format with a typed header.
//!
//! Format: the first line is a header of `name:kind` pairs where `kind` is
//! `real` or `catK` (K = arity); subsequent lines are rows with `?` for
//! missing values. This is sufficient to round-trip any [`Dataset`] and to
//! import externally prepared expression/SNP matrices.
//!
//! ```text
//! geneA:real<TAB>geneB:real<TAB>rs123:cat3
//! 0.52<TAB>-1.3<TAB>2
//! ?<TAB>0.7<TAB>0
//! ```

use crate::dataset::{Column, Dataset, Value};
use crate::schema::{Feature, FeatureKind, Schema};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Errors arising while parsing the TSV format.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed header cell.
    Header(String),
    /// Malformed data cell, with (line, column) for context.
    Cell {
        /// 1-based line number.
        line: usize,
        /// 0-based column index.
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// A row with the wrong number of cells.
    RowWidth {
        /// 1-based line number.
        line: usize,
        /// Cells found.
        found: usize,
        /// Cells expected from the header.
        expected: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Header(msg) => write!(f, "bad header: {msg}"),
            ParseError::Cell { line, column, message } => {
                write!(f, "line {line}, column {column}: {message}")
            }
            ParseError::RowWidth { line, found, expected } => {
                write!(f, "line {line}: {found} cells, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<crate::textio::TextError> for ParseError {
    fn from(e: crate::textio::TextError) -> Self {
        ParseError::Cell {
            line: e.line,
            column: e.column.unwrap_or(0),
            message: e.message,
        }
    }
}

fn parse_kind(s: &str) -> Result<FeatureKind, String> {
    if s == "real" {
        Ok(FeatureKind::Real)
    } else if let Some(k) = s.strip_prefix("cat") {
        let arity: u32 = k.parse().map_err(|_| format!("bad arity in kind `{s}`"))?;
        if arity < 2 {
            return Err(format!("arity must be ≥ 2, got `{s}`"));
        }
        Ok(FeatureKind::Categorical { arity })
    } else {
        Err(format!("unknown kind `{s}` (expected `real` or `catK`)"))
    }
}

/// Serialize a data set to the TSV format.
pub fn to_tsv(data: &Dataset) -> String {
    let mut out = String::new();
    let header: Vec<String> = data
        .schema()
        .iter()
        .map(|f| format!("{}:{}", f.name, f.kind))
        .collect();
    out.push_str(&header.join("\t"));
    out.push('\n');
    for r in 0..data.n_rows() {
        for j in 0..data.n_features() {
            if j > 0 {
                out.push('\t');
            }
            let _ = write!(out, "{}", data.value(r, j));
        }
        out.push('\n');
    }
    out
}

/// Parse a header line of `name:kind` pairs into a [`Schema`].
///
/// This is the first line of the TSV format, split out so long-lived
/// consumers (the scoring daemon) can fix a schema once and then decode
/// records incrementally with [`parse_record`] / [`parse_json_record`].
pub fn schema_from_header(header: &str) -> Result<Schema, ParseError> {
    let header = header.trim_end_matches(['\r', '\n']);
    if header.is_empty() {
        return Err(ParseError::Header("empty input".into()));
    }
    let mut features = Vec::new();
    for cell in header.split('\t') {
        let (name, kind) = cell
            .rsplit_once(':')
            .ok_or_else(|| ParseError::Header(format!("cell `{cell}` lacks `:kind`")))?;
        let kind = parse_kind(kind).map_err(ParseError::Header)?;
        features.push(Feature::new(name, kind));
    }
    Ok(Schema::new(features))
}

/// Decode one cell against its schema kind. `?` is missing; a one-byte
/// code `0`–`9` is read directly and longer codes go through `u32`'s
/// `FromStr`; reals go through `f64`'s, so every accepted form and its
/// bits are the standard library's.
fn parse_cell(
    kind: FeatureKind,
    cell: &str,
    line: usize,
    column: usize,
) -> Result<Value, ParseError> {
    let cell_err = |message: String| ParseError::Cell { line, column, message };
    match (kind, cell.as_bytes()) {
        (_, b"?") => Ok(Value::Missing),
        (FeatureKind::Real, _) => cell
            .parse::<f64>()
            .map(Value::Real)
            .map_err(|_| cell_err(format!("bad real `{cell}`"))),
        (FeatureKind::Categorical { arity }, bytes) => {
            let c = match *bytes {
                [d @ b'0'..=b'9'] => u32::from(d - b'0'),
                _ => cell
                    .parse()
                    .map_err(|_| cell_err(format!("bad code `{cell}`")))?,
            };
            if c >= arity {
                return Err(cell_err(format!("code {c} out of range for arity {arity}")));
            }
            Ok(Value::Categorical(c))
        }
    }
}

/// Incrementally decode one TSV data row against a fixed schema.
///
/// `line` is the 1-based line number reported in errors. The returned
/// values are exactly what [`from_tsv`] would have stored for the same
/// row, so records decoded one at a time score identically to records
/// parsed from a whole file.
///
/// One pass over the row: each cell is cut at its tab and decoded straight
/// into the output. A row of the wrong width is a [`ParseError::RowWidth`]
/// carrying its full cell count, even when an earlier cell is bad, so past
/// the first bad cell (or the schema's last column) cells are only counted.
pub fn parse_record(
    schema: &Schema,
    row: &str,
    line: usize,
) -> Result<Vec<Value>, ParseError> {
    let row = row.trim_end_matches(['\r', '\n']);
    let expected = schema.len();
    let mut values = Vec::with_capacity(expected);
    let mut kinds = schema.iter().map(|f| f.kind);
    let mut bad = None;
    let mut found = 0;
    let mut start = 0;
    // Each cell ends at a tab or at the end of the row.
    let bytes = row.as_bytes();
    let ends = bytes.iter().enumerate().filter(|&(_, &b)| b == b'\t').map(|(i, _)| i);
    for end in ends.chain([bytes.len()]) {
        if bad.is_none() {
            if let Some(kind) = kinds.next() {
                // `\t` is ASCII, so both ends are char boundaries.
                match parse_cell(kind, &row[start..end], line, found) {
                    Ok(v) => values.push(v),
                    Err(e) => bad = Some(e),
                }
            }
        }
        found += 1;
        start = end + 1;
    }
    if found != expected {
        return Err(ParseError::RowWidth { line, found, expected });
    }
    match bad {
        Some(e) => Err(e),
        None => Ok(values),
    }
}

/// Incrementally decode one flat JSON object (`{"name": value, …}`)
/// against a fixed schema.
///
/// Values may be numbers (reals, or integer codes for categorical
/// features), `null` / the string `"?"` for missing, or quoted numbers.
/// Features absent from the object are missing; unknown keys are an
/// error (they usually mean a schema mismatch, which must not be
/// silently dropped in a clinical scoring path). Only the flat subset of
/// JSON needed for one record is accepted — nested objects or arrays are
/// rejected.
pub fn parse_json_record(
    schema: &Schema,
    text: &str,
    line: usize,
) -> Result<Vec<Value>, ParseError> {
    let cell_err = |column: usize, message: String| ParseError::Cell { line, column, message };
    let mut values = vec![Value::Missing; schema.len()];
    let mut seen = vec![false; schema.len()];
    let mut p = JsonCursor { text, pos: 0 };
    p.skip_ws();
    p.expect(b'{').map_err(|m| cell_err(0, m))?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string().map_err(|m| cell_err(0, m))?;
            let j = schema
                .index_of(&key)
                .ok_or_else(|| cell_err(0, format!("unknown feature `{key}`")))?;
            if seen[j] {
                return Err(cell_err(j, format!("duplicate feature `{key}`")));
            }
            seen[j] = true;
            p.skip_ws();
            p.expect(b':').map_err(|m| cell_err(j, m))?;
            p.skip_ws();
            values[j] = match p.peek() {
                Some(b'n') => {
                    p.literal("null").map_err(|m| cell_err(j, m))?;
                    Value::Missing
                }
                Some(b'"') => {
                    let s = p.string().map_err(|m| cell_err(j, m))?;
                    parse_cell(schema.kind(j), &s, line, j)?
                }
                _ => {
                    let s = p.number().map_err(|m| cell_err(j, m))?;
                    parse_cell(schema.kind(j), s, line, j)?
                }
            };
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(cell_err(j, "expected `,` or `}`".into())),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(cell_err(0, "trailing bytes after JSON object".into()));
    }
    Ok(values)
}

/// Byte cursor for the minimal flat-JSON record parser (no dependency,
/// no recursion — a record is one object of scalars). Keys and values
/// borrow the record's text; only a string with an escape is copied.
struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}`"))
        }
    }

    /// A quoted string; `\"` `\\` `\/` and whitespace escapes only (feature
    /// names and the `?` missing marker need nothing more). Borrowed from
    /// the record unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            // `"` is ASCII, so both ends are char boundaries.
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(format!("unsupported escape `\\{}`", other as char))
                        }
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.skip_plain();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Step over string bytes up to the next `"` or `\\`. Both are ASCII,
    /// so the stop is a char boundary and multi-byte UTF-8 passes whole.
    fn skip_plain(&mut self) {
        while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
            self.pos += 1;
        }
    }

    /// The raw text of a JSON number (validated downstream by the typed
    /// cell parser).
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err("expected a value".into());
        }
        // Every byte taken is ASCII.
        Ok(&self.text[start..self.pos])
    }
}

/// Parse a data set from the TSV format.
pub fn from_tsv(text: &str) -> Result<Dataset, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::Header("empty input".into()))?;
    let schema = schema_from_header(header)?;
    let n_features = schema.len();

    let mut columns: Vec<Column> = schema
        .iter()
        .map(|f| match f.kind {
            FeatureKind::Real => Column::Real(Vec::new().into()),
            FeatureKind::Categorical { arity } => {
                Column::Categorical { arity, codes: Vec::new().into() }
            }
        })
        .collect();
    for (lineno, line) in lines {
        if line.is_empty() {
            continue;
        }
        let row = parse_record(&schema, line, lineno + 1)?;
        debug_assert_eq!(row.len(), n_features);
        for (col, v) in columns.iter_mut().zip(row) {
            match (col, v) {
                (Column::Real(vec), Value::Real(x)) => vec.push(x),
                (Column::Real(vec), Value::Missing) => vec.push(f64::NAN),
                (Column::Categorical { codes, .. }, Value::Categorical(c)) => codes.push(c),
                (Column::Categorical { codes, .. }, Value::Missing) => {
                    codes.push(crate::dataset::MISSING_CODE)
                }
                // parse_record types cells from the same schema the columns
                // were built from, so kinds always agree.
                _ => unreachable!("cell kind matches its column"),
            }
        }
    }
    Ok(Dataset::new(schema, columns))
}

/// Write a data set to a file in the TSV format.
pub fn write_tsv(data: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(to_tsv(data).as_bytes())
}

/// Read a data set from a TSV file.
pub fn read_tsv(path: impl AsRef<Path>) -> Result<Dataset, ParseError> {
    let file = std::fs::File::open(path)?;
    let mut text = String::new();
    let mut reader = std::io::BufReader::new(file);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        text.push_str(&line);
    }
    from_tsv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, Value, MISSING_CODE};

    fn sample() -> Dataset {
        DatasetBuilder::new()
            .real("geneA", vec![0.5, f64::NAN, -2.25])
            .categorical("rs1", 3, vec![2, 0, MISSING_CODE])
            .build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = sample();
        let text = to_tsv(&d);
        let back = from_tsv(&text).unwrap();
        assert_eq!(back.schema(), d.schema());
        assert_eq!(back.n_rows(), d.n_rows());
        for r in 0..d.n_rows() {
            for j in 0..d.n_features() {
                match (d.value(r, j), back.value(r, j)) {
                    (Value::Real(a), Value::Real(b)) => assert!((a - b).abs() < 1e-12),
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn header_encodes_kinds() {
        let text = to_tsv(&sample());
        assert!(text.starts_with("geneA:real\trs1:cat3\n"));
    }

    #[test]
    fn missing_serialized_as_question_mark() {
        let text = to_tsv(&sample());
        let row2: Vec<&str> = text.lines().nth(2).unwrap().split('\t').collect();
        assert_eq!(row2[0], "?");
    }

    #[test]
    fn rejects_bad_kind() {
        assert!(matches!(
            from_tsv("a:flavor\n1\n"),
            Err(ParseError::Header(_))
        ));
        assert!(matches!(from_tsv("a:cat1\n0\n"), Err(ParseError::Header(_))));
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = from_tsv("a:real\tb:real\n1.0\n").unwrap_err();
        assert!(matches!(err, ParseError::RowWidth { expected: 2, found: 1, .. }));
    }

    #[test]
    fn rejects_out_of_range_code() {
        let err = from_tsv("a:cat2\n5\n").unwrap_err();
        assert!(matches!(err, ParseError::Cell { .. }));
    }

    #[test]
    fn rejects_unparseable_real() {
        let err = from_tsv("a:real\nxyz\n").unwrap_err();
        assert!(matches!(err, ParseError::Cell { .. }));
    }

    #[test]
    fn empty_rows_are_skipped() {
        let d = from_tsv("a:real\n1.0\n\n2.0\n").unwrap();
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn file_roundtrip() {
        let d = sample();
        let dir = std::env::temp_dir().join("frac-dataset-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.tsv");
        write_tsv(&d, &path).unwrap();
        let back = read_tsv(&path).unwrap();
        assert_eq!(back.n_rows(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn colon_in_name_parses_via_rsplit() {
        let d = from_tsv("chr1:1234:real\n0.5\n").unwrap();
        assert_eq!(d.schema().feature(0).name, "chr1:1234");
    }

    #[test]
    fn incremental_records_match_whole_file_parse() {
        let d = sample();
        let text = to_tsv(&d);
        let mut lines = text.lines();
        let schema = schema_from_header(lines.next().unwrap()).unwrap();
        assert_eq!(&schema, d.schema());
        let mut rebuilt = Dataset::empty(schema.clone());
        for (i, line) in lines.enumerate() {
            rebuilt.push_row(&parse_record(&schema, line, i + 2).unwrap());
        }
        assert_eq!(rebuilt.n_rows(), d.n_rows());
        for r in 0..d.n_rows() {
            for j in 0..d.n_features() {
                assert_eq!(rebuilt.value(r, j), d.value(r, j), "({r},{j})");
            }
        }
    }

    #[test]
    fn parse_record_errors_carry_the_line_number() {
        let schema = schema_from_header("a:real\tb:cat3").unwrap();
        match parse_record(&schema, "1.0", 7).unwrap_err() {
            ParseError::RowWidth { line: 7, found: 1, expected: 2 } => {}
            e => panic!("{e}"),
        }
        match parse_record(&schema, "x\t1", 9).unwrap_err() {
            ParseError::Cell { line: 9, column: 0, .. } => {}
            e => panic!("{e}"),
        }
        match parse_record(&schema, "1.0\t5", 3).unwrap_err() {
            ParseError::Cell { line: 3, column: 1, message } => {
                assert!(message.contains("out of range"), "{message}");
            }
            e => panic!("{e}"),
        }
        // A row of the wrong width reports its full width, even past a bad cell.
        match parse_record(&schema, "x\t9\t1\t", 4).unwrap_err() {
            ParseError::RowWidth { line: 4, found: 4, expected: 2 } => {}
            e => panic!("{e}"),
        }
        // Codes: one digit is read directly, longer forms as `u32` reads them.
        let v = parse_record(&schema, "?\t+1\r\n", 1).unwrap();
        assert_eq!(v, vec![Value::Missing, Value::Categorical(1)]);
        let err = parse_record(&schema, "1\t3", 2).unwrap_err().to_string();
        assert_eq!(err, "line 2, column 1: code 3 out of range for arity 3");
        let err = parse_record(&schema, "1\t 1", 2).unwrap_err().to_string();
        assert_eq!(err, "line 2, column 1: bad code ` 1`");
    }

    #[test]
    fn json_records_decode_against_the_schema() {
        let schema = schema_from_header("geneA:real\trs1:cat3").unwrap();
        let v = parse_json_record(&schema, r#"{"geneA": -1.25, "rs1": 2}"#, 1).unwrap();
        assert_eq!(v, vec![Value::Real(-1.25), Value::Categorical(2)]);
        // Order-independent; absent and null keys are missing; "?" too.
        let v = parse_json_record(&schema, r#"{"rs1": 0}"#, 1).unwrap();
        assert_eq!(v, vec![Value::Missing, Value::Categorical(0)]);
        let v = parse_json_record(&schema, r#"{"geneA": null, "rs1": "?"}"#, 1).unwrap();
        assert_eq!(v, vec![Value::Missing, Value::Missing]);
        let v = parse_json_record(&schema, "{}", 1).unwrap();
        assert_eq!(v, vec![Value::Missing, Value::Missing]);
        // Quoted numbers parse like TSV cells.
        let v = parse_json_record(&schema, r#"{"geneA": "0.5"}"#, 1).unwrap();
        assert_eq!(v[0], Value::Real(0.5));
    }

    #[test]
    fn json_record_rejections() {
        let schema = schema_from_header("geneA:real\trs1:cat3").unwrap();
        for bad in [
            r#"{"nope": 1}"#,                    // unknown feature
            r#"{"geneA": 1, "geneA": 2}"#,       // duplicate
            r#"{"rs1": 7}"#,                     // code out of range
            r#"{"geneA": [1]}"#,                 // nested value
            r#"{"geneA": 1"#,                    // truncated
            r#"{"geneA": 1} trailing"#,          // trailing bytes
            "not json",
        ] {
            let err = parse_json_record(&schema, bad, 4).unwrap_err();
            match err {
                ParseError::Cell { line: 4, .. } => {}
                e => panic!("{bad}: {e}"),
            }
        }
        let err = |text| parse_json_record(&schema, text, 4).unwrap_err().to_string();
        assert_eq!(err(r#"{"nope": 1}"#), "line 4, column 0: unknown feature `nope`");
        assert_eq!(
            err(r#"{"rs1": 1, "rs1": 2}"#),
            "line 4, column 1: duplicate feature `rs1`"
        );
    }
}
