//! The exact report plumbing shared by the harness binaries, and the
//! paper's published values.
//!
//! `bench` writes `BENCH_schedule.json` and `paper` writes
//! `PAPER_tables.json`. Both reports hold only integers, flags and labels
//! (a normalized value is a scaled integer under a `_x100` key), so a
//! rerun reproduces them byte for byte and `git diff` is their check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// One exact report value: integers, flags and labels only, so a rerun
/// reproduces it bit for bit.
pub enum Value {
    /// A signed or unsigned integer.
    Int(i128),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(String),
    /// Named values on one line.
    Object(Fields),
    /// A list of objects, one per line.
    Rows(Vec<Fields>),
}

/// Named values in output order.
pub type Fields = Vec<(&'static str, Value)>;

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v.into())
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i128)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Fields> for Value {
    fn from(v: Fields) -> Self {
        Value::Object(v)
    }
}

impl From<Vec<Fields>> for Value {
    fn from(v: Vec<Fields>) -> Self {
        Value::Rows(v)
    }
}

impl<const N: usize> From<[Fields; N]> for Value {
    fn from(v: [Fields; N]) -> Self {
        Value::Rows(v.into())
    }
}

/// `v` × 100, rounded to the nearest integer: the value of a `_x100` key
/// (42.7 → 4270).
pub fn x100(v: f64) -> Value {
    Value::Int((v * 100.0).round() as i128)
}

/// Renders a whole report as a JSON object, one top-level field per line.
///
/// # Examples
///
/// ```
/// use msoc_bench::{render_report, Fields};
/// let rows = vec![vec![("n", 1u64.into())]];
/// let report: Fields = vec![("label", "{A,B}".into()), ("rows", rows.into())];
/// let json = "{\n  \"label\": \"{A,B}\",\n  \"rows\": [\n    {\"n\": 1}\n  ]\n}\n";
/// assert_eq!(render_report(&report), json);
/// ```
pub fn render_report(report: &Fields) -> String {
    let mut json = String::new();
    write_fields(&mut json, report, ["{\n  ", ",\n  ", "\n}\n"]);
    json
}

/// Renders `fields` as JSON between `open` and `close`, joined by `sep`.
/// Objects render on one line; each row of a `Rows` value gets its own.
fn write_fields(out: &mut String, fields: &Fields, [open, sep, close]: [&str; 3]) {
    out.push_str(open);
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write_str(out, key);
        out.push_str(": ");
        match value {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Str(s) => write_str(out, s),
            Value::Object(inner) => write_fields(out, inner, ["{", ", ", "}"]),
            Value::Rows(rows) => {
                out.push_str("[\n    ");
                for (j, row) in rows.iter().enumerate() {
                    if j > 0 {
                        out.push_str(",\n    ");
                    }
                    write_fields(out, row, ["{", ", ", "}"]);
                }
                out.push_str("\n  ]");
            }
        }
    }
    out.push_str(close);
}

/// Writes `s` as a JSON string: `"` and `\` are escaped, control
/// characters become `\u00XX`, everything else passes through.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Every `T̄_LB` entry of the paper's Table 1, keyed by display string.
/// (Two pairs of rows in the published table are known to be swapped; the
/// values here follow the arithmetic, which the paper's own anchors
/// confirm.)
pub const TABLE1_T_LB: [(&str, f64); 26] = [
    ("{A,B}", 42.7),
    ("{A,C}", 68.5),
    ("{A,D}", 30.2),
    ("{A,E}", 22.6),
    ("{C,D}", 56.0),
    ("{C,E}", 48.4),
    ("{D,E}", 10.1),
    ("{A,B,C}", 89.9),
    ("{A,B,D}", 51.5),
    ("{A,B,E}", 43.9),
    ("{A,C,D}", 77.3),
    ("{A,C,E}", 69.7),
    ("{A,D,E}", 31.4),
    ("{C,D,E}", 57.2),
    ("{A,B,C,D}", 98.7),
    ("{A,B,C,E}", 91.1),
    ("{A,B,D,E}", 52.8),
    ("{A,C,D,E}", 78.6),
    ("{A,B,C}{D,E}", 89.9),
    ("{A,B,D}{C,E}", 51.5),
    ("{A,B,E}{C,D}", 56.0),
    ("{A,C,D}{B,E}", 77.3),
    ("{A,C,E}{B,D}", 69.7),
    ("{B,D,E}{A,C}", 68.5),
    ("{C,D,E}{A,B}", 57.2),
    ("{A,B,C,D,E}", 100.0),
];

/// Table 3's published spread (max − min `C_T` over the 26
/// configurations) per TAM width.
pub const TABLE3_SPREAD: [(u32, f64); 3] = [(32, 2.45), (48, 7.36), (64, 17.18)];

/// Table 4: configurations the exhaustive search evaluates.
pub const TABLE4_EXHAUSTIVE_N: usize = 26;

/// The heuristic's two published evaluation counts with the published
/// reduction against [`TABLE4_EXHAUSTIVE_N`], in percent.
pub const TABLE4_HEURISTIC_N: [(usize, f64); 2] = [(10, 61.5), (7, 73.0)];

/// Figure 4: comparators of an 8-bit flash ADC ("typically 256").
pub const FIG4_FLASH_COMPARATORS: u32 = 256;

/// Figure 4: comparators of the modular 8-bit ADC ("only 32").
pub const FIG4_MODULAR_COMPARATORS: u32 = 32;

/// Figure 4: the factor by which the modular 8-bit DAC cuts resistors.
pub const FIG4_RESISTOR_SAVING: u32 = 8;

/// Figure 5: core A's cutoff frequency measured directly, in Hz.
pub const FIG5_FC_DIRECT_HZ: f64 = 61e3;

/// Figure 5: core A's cutoff frequency measured through the wrapper, in Hz.
pub const FIG5_FC_WRAPPED_HZ: f64 = 58e3;

/// Figure 5: the wrapper-induced cutoff error, in percent ("about 5%").
pub const FIG5_ERROR_PERCENT: f64 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_as_json() {
        let report: Fields = vec![
            ("control", "a\u{1}b\n".into()),
            ("quote", "say \"hi\" \\ bye".into()),
            ("macron", "T\u{304}_LB".into()),
        ];
        assert_eq!(
            render_report(&report),
            "{\n  \"control\": \"a\\u0001b\\u000a\",\n  \"quote\": \"say \\\"hi\\\" \\\\ bye\",\n  \
             \"macron\": \"T\u{304}_LB\"\n}\n"
        );
    }

    #[test]
    fn signed_and_scaled_integers_render_exactly() {
        let report: Fields = vec![
            ("digest", u64::MAX.into()),
            ("t_lb_x100", x100(42.7)),
            ("db_x100", x100(-6.02)),
            ("cell", vec![("ok", true.into())].into()),
        ];
        assert_eq!(
            render_report(&report),
            "{\n  \"digest\": 18446744073709551615,\n  \
             \"t_lb_x100\": 4270,\n  \"db_x100\": -602,\n  \"cell\": {\"ok\": true}\n}\n"
        );
    }
}
