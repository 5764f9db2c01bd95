//! The perf report's JSON micro-codec (serde is unavailable offline):
//! emission and parsing of exactly the schema-8 subset
//! [`PerfReport::to_json`] writes.

use crate::perf::{Better, GateClass, MetricRow, PerfReport, SCHEMA};
use std::fmt::Write as _;

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Quotes and escapes a string for JSON output (shared with the figure
/// tables' JSON writer).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Wire names of [`Better`].
const BETTER: [(Better, &str); 2] = [(Better::Lower, "lower"), (Better::Higher, "higher")];

/// Wire names of [`GateClass`].
const CLASSES: [(GateClass, &str); 5] = [
    (GateClass::Exact, "exact"),
    (GateClass::Model, "model"),
    (GateClass::SerialWall, "serial_wall"),
    (GateClass::ParallelWall, "parallel_wall"),
    (GateClass::Info, "info"),
];

fn wire_name<T: Copy + PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table.iter().find(|(v, _)| *v == value).map(|(_, name)| *name).expect("every variant is named")
}

fn from_wire<T: Copy>(table: &[(T, &str)], name: &str, ctx: &str) -> Result<T, String> {
    let names: Vec<&str> = table.iter().map(|(_, n)| *n).collect();
    table.iter().find(|(_, n)| *n == name).map(|(v, _)| *v).ok_or_else(|| {
        format!("{ctx}: unknown value '{name}' (expected one of {})", names.join(", "))
    })
}

impl PerfReport {
    /// Serializes the report as schema-8 JSON, one row per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {SCHEMA},");
        let _ = writeln!(out, "  \"sha\": {},", json_str(&self.sha));
        let _ = writeln!(out, "  \"scale\": {},", json_str(&self.scale));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(out, "  \"calibration_wall_s\": {},", json_f64(self.calibration_wall_s));
        let _ = writeln!(out, "  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"workload\": {}, \"metric\": {}, \"value\": {}, \"better\": \"{}\", \"class\": \"{}\"}}{comma}",
                json_str(&r.workload),
                json_str(&r.metric),
                json_f64(r.value),
                wire_name(&BETTER, r.better),
                wire_name(&CLASSES, r.class),
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a report emitted by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on malformed input, missing fields,
    /// or any schema other than [`SCHEMA`] (regenerate such a baseline
    /// with `bench_smoke --write-baseline`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = JsonParser::new(text).parse()?;
        let obj = value.as_obj("top level")?;
        let schema = obj.get("schema")?.as_u64("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema {schema} is not the supported schema {SCHEMA}: regenerate the baseline with `bench_smoke --write-baseline`"
            ));
        }
        let rows = obj
            .get("rows")?
            .as_arr("rows")?
            .iter()
            .map(|r| {
                let o = r.as_obj("row")?;
                Ok(MetricRow {
                    workload: o.get("workload")?.as_str("workload")?.to_string(),
                    metric: o.get("metric")?.as_str("metric")?.to_string(),
                    value: o.get("value")?.as_f64("value")?,
                    better: from_wire(&BETTER, o.get("better")?.as_str("better")?, "better")?,
                    class: from_wire(&CLASSES, o.get("class")?.as_str("class")?, "class")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            sha: obj.get("sha")?.as_str("sha")?.to_string(),
            scale: obj.get("scale")?.as_str("scale")?.to_string(),
            threads: obj.get("threads")?.as_u64("threads")? as usize,
            host_cores: obj.get("host_cores")?.as_u64("host_cores")? as usize,
            calibration_wall_s: obj.get("calibration_wall_s")?.as_f64("calibration_wall_s")?,
            rows,
        })
    }
}

/// Minimal JSON value (the subset [`PerfReport::to_json`] emits).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct JsonObj<'a>(&'a [(String, Json)]);

impl<'a> JsonObj<'a> {
    fn get(&self, key: &str) -> Result<&'a Json, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }
}

impl Json {
    fn as_obj(&self, ctx: &str) -> Result<JsonObj<'_>, String> {
        match self {
            Json::Obj(fields) => Ok(JsonObj(fields)),
            other => Err(format!("{ctx}: expected object, got {other:?}")),
        }
    }

    fn as_arr(&self, ctx: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("{ctx}: expected array, got {other:?}")),
        }
    }

    fn as_str(&self, ctx: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{ctx}: expected string, got {other:?}")),
        }
    }

    fn as_f64(&self, ctx: &str) -> Result<f64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            other => Err(format!("{ctx}: expected number, got {other:?}")),
        }
    }

    fn as_u64(&self, ctx: &str) -> Result<u64, String> {
        let v = self.as_f64(ctx)?;
        if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
            return Err(format!("{ctx}: expected non-negative integer, got {v}"));
        }
        Ok(v as u64)
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0 }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u{code:04x}"))?,
                            );
                        }
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                b => {
                    // Multi-byte UTF-8 continuation: copy the raw bytes.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    if b >= 0x80 {
                        while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        self.pos = end;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end.max(start + 1)])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use crate::perf::test_fixture::sample_report;
    use crate::perf::PerfReport;

    #[test]
    fn json_roundtrip_is_exact() {
        let report = sample_report();
        let parsed = PerfReport::from_json(&report.to_json()).expect("roundtrip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(PerfReport::from_json("not json").is_err());
        assert!(PerfReport::from_json("{}").is_err(), "missing fields must error");
        assert!(PerfReport::from_json("{\"schema\": 8} trailing").is_err());
        let bad_class = sample_report().to_json().replace("\"exact\"", "\"exactish\"");
        let err = PerfReport::from_json(&bad_class).unwrap_err();
        assert!(err.contains("unknown value 'exactish'"), "{err}");
    }

    #[test]
    fn schema7_document_is_rejected_with_the_regenerate_message() {
        let schema7 = r#"{"schema": 7, "sha": "8adb6f6054a5", "scale": "quick", "threads": 1,
            "host_cores": 1, "calibration_wall_s": 0.0005, "speedup_parallel": 1.0,
            "workloads": [{"name": "fig9_dse_t8_r256", "cycles": 0, "total_ops": 782,
            "density": 0.127, "macs_per_cycle": 0.0, "wall_s": 3.4e-5, "wall_norm": 0.058}]}"#;
        let err = PerfReport::from_json(schema7).unwrap_err();
        assert!(err.contains("schema 7") && err.contains("regenerate the baseline"), "{err}");
    }
}
