//! Minimal line-oriented text deserialization substrate.
//!
//! Model files up to v4 and v1 run-journal records were plain text: one
//! record per line, `tag value value …`, with floats in their shortest
//! round-trip representation. Those formats are read-only now (model v6
//! and journal v3 are binary, see [`crate::binio`]), but every file
//! already on disk stays loadable through this reader, bit-exactly.

/// Reader side: consume tagged lines with typed field extraction.
#[derive(Debug)]
pub struct TextReader<'a> {
    lines: std::str::Lines<'a>,
    /// 1-based line number of the last line read (for error messages).
    line_no: usize,
}

/// Structured parse error: what went wrong and where.
///
/// `line` is 1-based (0 when the failure is not tied to a specific line,
/// e.g. a semantic check after parsing); `column` is the 0-based field index
/// within the line, when known. Producers that only have a message can use
/// the `From<String>` / `From<&str>` shims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number; 0 when unknown.
    pub line: usize,
    /// 0-based field index within the line, when known.
    pub column: Option<usize>,
    /// Description of the problem.
    pub message: String,
}

impl TextError {
    /// Error anchored to a line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        TextError { line, column: None, message: message.into() }
    }

    /// Error anchored to a field within a line.
    pub fn at_field(line: usize, column: usize, message: impl Into<String>) -> Self {
        TextError { line, column: Some(column), message: message.into() }
    }
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "{}", self.message),
            (line, None) => write!(f, "line {line}: {}", self.message),
            (line, Some(col)) => write!(f, "line {line}, field {col}: {}", self.message),
        }
    }
}

impl std::error::Error for TextError {}

impl From<String> for TextError {
    fn from(message: String) -> Self {
        TextError { line: 0, column: None, message }
    }
}

impl From<&str> for TextError {
    fn from(message: &str) -> Self {
        TextError { line: 0, column: None, message: message.to_string() }
    }
}

impl<'a> TextReader<'a> {
    /// Read from a text buffer.
    pub fn new(text: &'a str) -> Self {
        TextReader { lines: text.lines(), line_no: 0 }
    }

    /// Next non-empty line's fields; errors at end of input.
    fn next_fields(&mut self) -> Result<Vec<&'a str>, TextError> {
        loop {
            self.line_no += 1;
            match self.lines.next() {
                None => return Err(TextError::at(self.line_no, "unexpected end of input")),
                Some(l) if l.trim().is_empty() => continue,
                Some(l) => return Ok(l.split_whitespace().collect()),
            }
        }
    }

    /// Consume a line that must start with `tag`; returns its fields.
    pub fn expect(&mut self, tag: &str) -> Result<Vec<&'a str>, TextError> {
        let fields = self.next_fields()?;
        if fields.first() != Some(&tag) {
            return Err(TextError::at(
                self.line_no,
                format!(
                    "expected tag `{tag}`, found `{}`",
                    fields.first().unwrap_or(&"")
                ),
            ));
        }
        Ok(fields[1..].to_vec())
    }

    /// Consume a `tag`-line and parse all fields as `T`.
    pub fn parse_all<T: std::str::FromStr>(&mut self, tag: &str) -> Result<Vec<T>, TextError> {
        let fields = self.expect(tag)?;
        let line_no = self.line_no;
        fields
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                f.parse::<T>().map_err(|_| {
                    TextError::at_field(line_no, i, format!("bad field `{f}` for `{tag}`"))
                })
            })
            .collect()
    }

    /// Consume a `tag`-line that must carry exactly one field, parsed as `T`.
    pub fn parse_one<T: std::str::FromStr>(&mut self, tag: &str) -> Result<T, TextError> {
        let v: Vec<T> = self.parse_all(tag)?;
        let found = v.len();
        match v.into_iter().next() {
            Some(one) if found == 1 => Ok(one),
            _ => Err(TextError::at(
                self.line_no,
                format!("tag `{tag}` expects exactly one field, found {found}"),
            )),
        }
    }

    /// 1-based line number of the last line consumed (0 before any read).
    /// Lets callers anchor semantic errors — e.g. a duplicate section — to
    /// the line that introduced them.
    pub fn line(&self) -> usize {
        self.line_no
    }

    /// Peek whether the next non-empty line starts with `tag` (does not
    /// consume).
    pub fn peek_is(&self, tag: &str) -> bool {
        self.lines
            .clone()
            .find(|l| !l.trim().is_empty())
            .is_some_and(|l| l.split_whitespace().next() == Some(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_tagged_lines() {
        let text = format!("header v1\nweights 1.5 -0.25 1e-300 {:?}\ncount 42\nend\n", f64::MAX);
        let mut r = TextReader::new(&text);
        assert_eq!(r.expect("header").unwrap(), vec!["v1"]);
        let ws: Vec<f64> = r.parse_all("weights").unwrap();
        assert_eq!(ws, vec![1.5, -0.25, 1e-300, f64::MAX]);
        assert_eq!(r.parse_one::<u32>("count").unwrap(), 42);
        assert!(r.expect("end").unwrap().is_empty());
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        // Files were written with `{:?}`, the shortest round-trip form.
        let values = [0.1, 1.0 / 3.0, std::f64::consts::PI, -2.2250738585072014e-308];
        let text = values.iter().fold("v".to_string(), |t, v| format!("{t} {v:?}"));
        let mut r = TextReader::new(&text);
        let back: Vec<f64> = r.parse_all("v").unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wrong_tag_is_an_error_with_location() {
        let mut r = TextReader::new("alpha 1\nbeta 2\n");
        assert!(r.expect("alpha").is_ok());
        let err = r.expect("gamma").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("gamma"), "{err}");
    }

    #[test]
    fn eof_and_bad_fields_error() {
        let mut r = TextReader::new("x 1\n");
        assert!(r.parse_all::<i32>("x").is_ok());
        assert!(r.expect("y").unwrap_err().to_string().contains("end of input"));
        let mut r = TextReader::new("x one two\n");
        let err = r.parse_all::<i32>("x").unwrap_err();
        assert!(err.to_string().contains("bad field"), "{err}");
        assert_eq!((err.line, err.column), (1, Some(0)));
        let mut r = TextReader::new("x 1 2\n");
        let err = r.parse_one::<i32>("x").unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
    }

    #[test]
    fn message_only_errors_display_bare() {
        let e: TextError = "semantic problem".into();
        assert_eq!(e.to_string(), "semantic problem");
        let e = TextError::at_field(3, 1, "bad cell");
        assert_eq!(e.to_string(), "line 3, field 1: bad cell");
    }

    #[test]
    fn empty_lines_are_skipped_and_peek_works() {
        let mut r = TextReader::new("\n\na 1\n\nb 2\n");
        assert!(r.peek_is("a"));
        assert_eq!(r.parse_one::<i32>("a").unwrap(), 1);
        assert!(r.peek_is("b"));
        assert!(!r.peek_is("a"));
    }
}
