//! The record parser against a reference: `io::parse_record` decodes a row
//! in one pass, and must agree with the split-based parser it replaced,
//! kept here as the reference, on every row — the same values bit for bit
//! or the same error text. The JSON form of a record decodes to the same
//! values as its TSV form.

use frac_dataset::io::{parse_json_record, parse_record, ParseError};
use frac_dataset::{Feature, FeatureKind, Schema, Value};
use proptest::prelude::*;

/// The split-based parser `parse_record` replaced: collect the cells,
/// check the width, then decode each cell with the standard library's
/// `FromStr`.
fn reference_parse_record(
    schema: &Schema,
    row: &str,
    line: usize,
) -> Result<Vec<Value>, ParseError> {
    let row = row.trim_end_matches(['\r', '\n']);
    let cells: Vec<&str> = row.split('\t').collect();
    if cells.len() != schema.len() {
        return Err(ParseError::RowWidth {
            line,
            found: cells.len(),
            expected: schema.len(),
        });
    }
    cells
        .iter()
        .enumerate()
        .map(|(j, cell)| reference_parse_cell(schema.kind(j), cell, line, j))
        .collect()
}

fn reference_parse_cell(
    kind: FeatureKind,
    cell: &str,
    line: usize,
    column: usize,
) -> Result<Value, ParseError> {
    let cell_err = |message: String| ParseError::Cell { line, column, message };
    if cell == "?" {
        return Ok(Value::Missing);
    }
    match kind {
        FeatureKind::Real => cell
            .parse::<f64>()
            .map(Value::Real)
            .map_err(|_| cell_err(format!("bad real `{cell}`"))),
        FeatureKind::Categorical { arity } => {
            let c: u32 = cell
                .parse()
                .map_err(|_| cell_err(format!("bad code `{cell}`")))?;
            if c >= arity {
                return Err(cell_err(format!("code {c} out of range for arity {arity}")));
            }
            Ok(Value::Categorical(c))
        }
    }
}

/// A decoded row as comparable bits: reals by `to_bits`, so NaN payloads
/// and signed zeros count.
fn bits(values: &[Value]) -> Vec<(u8, u64)> {
    values
        .iter()
        .map(|v| match *v {
            Value::Real(x) => (0, x.to_bits()),
            Value::Categorical(c) => (1, u64::from(c)),
            Value::Missing => (2, 0),
        })
        .collect()
}

/// Cells that are odd for either kind: signs, leading zeros and spaces,
/// overflow, special and partial reals, non-ASCII digits and letters.
const ODD_CELLS: &[&str] = &[
    "", " ", "??", "+1", "01", "00", " 1", "1 ", "-0", "-1", "+0", "10", "4294967295",
    "4294967296", "1.0", "1e0", "0x1", "é", "1é", "٣", "\u{a0}1", "½", "inf", "-inf",
    "+inf", "NaN", "nan", "-NaN", "infinity", "Infinity", ".5", "5.", "-.5", "+.5e-3", ".",
    "e5", "1e", "--1", "1_000", "1\r", "\u{feff}1", "∞",
];

/// How a row ends: nothing, newlines of either kind, stray carriage
/// returns, trailing tabs.
const ENDINGS: &[&str] = &["", "\n", "\r\n", "\r", "\t", "\t\n", "\n\r\n", "\r\r\n", "\t\t"];

/// A real cell in one of several written forms, chosen by `pick`.
fn real_cell(pick: u64, raw: u64) -> String {
    let x = f64::from_bits(raw);
    match pick % 7 {
        // Shortest round-trip form, NaN and infinities included.
        0 => format!("{x}"),
        1 => format!("{x:e}"),
        2 => format!("{x:+E}"),
        3 => format!("{}", (raw % 2_000_001) as f64 / 1000.0 - 1000.0),
        4 => format!(".{}", raw % 1000),
        // Mantissas and exponents of either sign, past f64's range too.
        5 => format!("{}e{}", (raw % 200) as i64 - 100, ((raw >> 32) % 800) as i64 - 400),
        _ => ["inf", "-inf", "NaN", "0", "-0", "+2.5", "1E10"][(raw % 7) as usize].to_string(),
    }
}

/// One cell for a column of `kind` (`None` past the schema's width):
/// mostly well formed for the kind, sometimes missing, sometimes odd or
/// written for the other kind.
fn cell(kind: Option<FeatureKind>, pick: u64, raw: u64) -> String {
    match (pick % 12, kind) {
        (0..=6, Some(FeatureKind::Real)) => real_cell(pick / 12, raw),
        (0..=6, Some(FeatureKind::Categorical { arity })) => {
            (raw % (u64::from(arity) + 3)).to_string()
        }
        (7, _) => "?".into(),
        (8, _) => real_cell(pick / 12, raw),
        (9, _) => (raw % 12).to_string(),
        _ => ODD_CELLS[(raw % ODD_CELLS.len() as u64) as usize].into(),
    }
}

fn kind_of(k: u32) -> FeatureKind {
    if k < 2 {
        FeatureKind::Real
    } else {
        FeatureKind::Categorical { arity: k }
    }
}

/// A schema and a row for it: the row's width is usually the schema's,
/// sometimes one or two off, sometimes empty.
fn schema_and_row() -> impl Strategy<Value = (Schema, String)> {
    (prop::collection::vec(0u32..13, 1..12), 0u32..10, 0usize..ENDINGS.len()).prop_flat_map(
        |(kinds, width, ending)| {
            let n = kinds.len();
            let width = match width {
                0 => n - 1,
                1 => n + 1,
                2 => n + 2,
                3 => 0,
                _ => n,
            };
            prop::collection::vec((any::<u64>(), any::<u64>()), width).prop_map(move |cells| {
                let schema = Schema::new(
                    kinds
                        .iter()
                        .enumerate()
                        .map(|(j, &k)| Feature::new(format!("f{j}"), kind_of(k)))
                        .collect(),
                );
                let row = cells
                    .iter()
                    .enumerate()
                    .map(|(j, &(pick, raw))| cell(kinds.get(j).map(|&k| kind_of(k)), pick, raw))
                    .collect::<Vec<_>>()
                    .join("\t");
                (schema, row + ENDINGS[ending])
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn one_pass_parser_matches_the_split_reference((schema, row) in schema_and_row()) {
        let got = parse_record(&schema, &row, 7);
        let want = reference_parse_record(&schema, &row, 7);
        match (&got, &want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(bits(g), bits(w), "row {:?}", row),
            (Err(g), Err(w)) => prop_assert_eq!(g.to_string(), w.to_string(), "row {:?}", row),
            _ => prop_assert!(false, "row {:?}: got {:?}, want {:?}", row, got, want),
        }
    }
}

#[test]
fn reference_cases_the_random_rows_must_cover() {
    let schema = Schema::new(vec![
        Feature::real("a"),
        Feature::categorical("b", 3),
        Feature::real("c"),
    ]);
    for row in [
        "1.5\t2\t-0",
        "1e-3\t0\t.5\r\n",
        "inf\t?\tNaN\n",
        "?\t?\t?",
        "\t\t",
        "1\t2\t3\t",
        "x\t9",
        "x\t9\t1\t1",
        "1\t10\t1",
        "1\t+1\t1",
        "1\t01\t1",
        "1\t 1\t1",
        "1\t1\t1é",
        "",
        "\r\n",
    ] {
        let got = parse_record(&schema, row, 3).map(|v| bits(&v));
        let want = reference_parse_record(&schema, row, 3).map(|v| bits(&v));
        match (got, want) {
            (Ok(g), Ok(w)) => assert_eq!(g, w, "{row:?}"),
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{row:?}"),
            (g, w) => panic!("{row:?}: got {g:?}, want {w:?}"),
        }
    }
}

#[test]
fn json_and_tsv_forms_of_a_wide_record_decode_alike() {
    // 420 features, every third one a ternary code; names resolve through
    // the schema's name map, keys arrive in a rotated order.
    let d = 420;
    let schema = Schema::new(
        (0..d)
            .map(|j| {
                if j % 3 == 2 {
                    Feature::categorical(format!("rs{j}"), 3)
                } else {
                    Feature::real(format!("gene{j}"))
                }
            })
            .collect(),
    );
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for record in 0..8 {
        let cells: Vec<String> = (0..d)
            .map(|j| match (next() % 10, schema.kind(j)) {
                (0, _) => "?".to_string(),
                (_, FeatureKind::Real) => {
                    format!("{}", (next() % 2_000_001) as f64 / 997.0 - 1000.0)
                }
                (_, FeatureKind::Categorical { .. }) => (next() % 3).to_string(),
            })
            .collect();
        let tsv = parse_record(&schema, &cells.join("\t"), record + 2).unwrap();
        let mut fields = Vec::new();
        for k in 0..d {
            let j = (k + 137 * record + 11) % d;
            let name = &schema.feature(j).name;
            let value = match (cells[j].as_str(), k % 4) {
                ("?", 0) => continue, // absent is missing
                ("?", 1) => "null".to_string(),
                ("?", _) => "\"?\"".to_string(),
                (v, 3) => format!("\"{v}\""), // quoted numbers parse like cells
                (v, _) => v.to_string(),
            };
            fields.push(format!("\"{name}\": {value}"));
        }
        let json = parse_json_record(&schema, &format!("{{{}}}", fields.join(", ")), record + 2)
            .unwrap();
        assert_eq!(bits(&json), bits(&tsv), "record {record}");
    }
}
