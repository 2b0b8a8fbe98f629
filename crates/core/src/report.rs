//! Experiment output: tables, the [`Report`] emitter layer (text, JSON,
//! CSV) and the shared number-formatting helpers.
//!
//! Every experiment reducer produces a [`Report`] — one or more [`Table`]s
//! under an experiment id. The text emitter is byte-identical to the
//! historical per-experiment `render()` output; JSON and CSV are
//! structured exports of the same cells for plotting and CI artifacts.
//! All percentage/ratio formatting funnels through [`fmt`], so every
//! table rounds the same way.

pub use self::fmt::{f1, f1_ci, f2, f2_ci, pct, pct_ci};

use crate::cell::{CellFailure, CellResult};

/// The one place experiment output formats numbers.
///
/// Historically each `render()` implementation formatted its own
/// percentages and ratios, and the rounding drifted between output paths
/// (Fig. 4 vs Fig. 5). Reducers and the CLI now share these helpers; a
/// rounding rule changes here or nowhere.
pub mod fmt {
    use super::GroupStat;

    /// Formats a fraction as a percentage, e.g. `0.953 -> "95.3%"`.
    pub fn pct(x: f64) -> String {
        format!("{:.1}%", x * 100.0)
    }

    /// Formats with two decimals.
    pub fn f2(x: f64) -> String {
        format!("{x:.2}")
    }

    /// Formats with one decimal.
    pub fn f1(x: f64) -> String {
        format!("{x:.1}")
    }

    /// Formats a sampled estimate as `value ±ci` with two decimals. The
    /// half-width is the 95% confidence interval the sampling engine
    /// attached to the cell.
    pub fn f2_ci(x: f64, ci: f64) -> String {
        format!("{x:.2} ±{ci:.2}")
    }

    /// Formats a sampled estimate as `value ±ci` with one decimal.
    pub fn f1_ci(x: f64, ci: f64) -> String {
        format!("{x:.1} ±{ci:.1}")
    }

    /// Formats a sampled fraction as a percentage with its 95% CI, e.g.
    /// `(0.953, 0.01) -> "95.3% ±1.0%"`.
    pub fn pct_ci(x: f64, ci: f64) -> String {
        format!("{:.1}% ±{:.1}%", x * 100.0, ci * 100.0)
    }

    /// Renders a [`GroupStat`] as `mean [min, max]` percentages — the
    /// paper's bar-with-I-beam notation. Sampled estimates additionally
    /// carry the propagated 95% CI half-width as ` ±x.x%`.
    pub fn pct_range(g: &GroupStat) -> String {
        match g.ci {
            Some(ci) => format!(
                "{} [{}, {}] ±{:.1}%",
                pct(g.mean),
                pct(g.min),
                pct(g.max),
                ci * 100.0
            ),
            None => format!("{} [{}, {}]", pct(g.mean), pct(g.min), pct(g.max)),
        }
    }

    /// Escapes a string for inclusion in a JSON string literal.
    pub(super) fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
}

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use dmdc_core::report::Table;
///
/// let mut t = Table::new("demo");
/// t.headers(["name", "value"]);
/// t.row(["x".to_string(), "1".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("demo"));
/// assert!(s.contains("name"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title.
    pub fn new(title: impl Into<String>) -> Table {
        Table {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The six-column per-cell table `dmdc suite` prints and a daemon
    /// cell job returns: workload, group, IPC, replays per million, safe
    /// stores and safe loads. Sampled cells show each estimate with its
    /// 95% half-width; exact cells render plain.
    pub fn cells<'c>(
        title: impl Into<String>,
        cells: impl IntoIterator<Item = &'c CellResult>,
    ) -> Table {
        let mut t = Table::new(title);
        t.headers([
            "workload",
            "group",
            "IPC",
            "replays/1M",
            "safe stores",
            "safe loads",
        ]);
        for cell in cells {
            let s = &cell.stats;
            let sp = &s.sampling;
            let [ipc, replays, stores, loads] = if s.is_sampled() {
                [
                    fmt::f2_ci(s.ipc(), sp.ipc_ci()),
                    fmt::f1_ci(
                        s.per_million(s.policy.replays.total()),
                        sp.replays_per_m_ci(),
                    ),
                    fmt::pct_ci(s.policy.store_filter_rate(), sp.filter_rate_ci()),
                    fmt::pct_ci(s.policy.safe_load_rate(), sp.safe_load_rate_ci()),
                ]
            } else {
                [
                    fmt::f2(s.ipc()),
                    fmt::f1(s.per_million(s.policy.replays.total())),
                    fmt::pct(s.policy.store_filter_rate()),
                    fmt::pct(s.policy.safe_load_rate()),
                ]
            };
            t.row([
                cell.workload.clone(),
                cell.group.to_string(),
                ipc,
                replays,
                stores,
                loads,
            ]);
        }
        t
    }

    /// Sets the column headers.
    pub fn headers<I, S>(&mut self, headers: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the headers.
    pub fn row<I>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = String>,
    {
        let row: Vec<String> = cells.into_iter().collect();
        assert!(
            self.headers.is_empty() || row.len() == self.headers.len(),
            "row has {} cells, headers have {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The header cells (empty if none were set).
    pub fn header_cells(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn data_rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Exports the table as RFC-4180-style CSV (quoting cells that contain
    /// commas, quotes or newlines), headers first. Handy for plotting the
    /// regenerated figures.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        if !self.headers.is_empty() {
            out.push_str(
                &self
                    .headers
                    .iter()
                    .map(|h| field(h))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        if !self.headers.is_empty() {
            for (i, h) in self.headers.iter().enumerate() {
                write!(f, "{:<w$}  ", h, w = widths[i])?;
            }
            writeln!(f)?;
            for (i, _) in self.headers.iter().enumerate() {
                write!(f, "{}  ", "-".repeat(widths[i]))?;
            }
            writeln!(f)?;
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                write!(f, "{:<w$}  ", c, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Which serialization [`Report::emit`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned plain-text tables (the historical default, byte-identical
    /// to the pre-registry `render()` output).
    Text,
    /// One JSON document per report.
    Json,
    /// RFC-4180-style CSV, tables separated by a blank line.
    Csv,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<OutputFormat, String> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown format `{other}` (text, json or csv)")),
        }
    }
}

/// The output of one experiment reduction: an id plus rendered tables,
/// emittable as text, JSON or CSV — and, when cells were quarantined by
/// the fault-tolerant runner, the structured [`CellFailure`]s that
/// explain what is missing and why.
#[derive(Debug, Clone)]
pub struct Report {
    id: String,
    tables: Vec<Table>,
    failures: Vec<CellFailure>,
}

impl Report {
    /// An empty report for the given experiment id.
    pub fn new(id: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            tables: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// A single-table report.
    pub fn single(id: impl Into<String>, table: Table) -> Report {
        let mut r = Report::new(id);
        r.push(table);
        r
    }

    /// Appends a table.
    pub fn push(&mut self, table: Table) -> &mut Report {
        self.tables.push(table);
        self
    }

    /// Appends a quarantined-cell record.
    pub fn push_failure(&mut self, failure: CellFailure) -> &mut Report {
        self.failures.push(failure);
        self
    }

    /// The experiment id this report came from.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The rendered tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Cells quarantined while producing this report.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Whether any cell was quarantined (the report is then partial).
    pub fn has_failures(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The quarantined-cells table appended to text/CSV output, or `None`
    /// for a clean report (keeping clean output byte-identical to
    /// pre-recovery builds).
    fn failure_table(&self) -> Option<Table> {
        if self.failures.is_empty() {
            return None;
        }
        let mut t = Table::new("quarantined cells");
        t.headers(["workload", "failure", "attempts", "detail"]);
        for f in &self.failures {
            t.row([
                f.workload.clone(),
                f.kind.label().to_string(),
                f.attempts.to_string(),
                f.summary(),
            ]);
        }
        Some(t)
    }

    /// Emits in the requested format.
    pub fn emit(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => self.text(),
            OutputFormat::Json => self.json(),
            OutputFormat::Csv => self.csv(),
        }
    }

    /// Plain text: each table's aligned rendering followed by a blank
    /// line — exactly what `println!("{table}")` produced before the
    /// emitter layer existed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.to_string());
            out.push('\n');
        }
        if let Some(t) = self.failure_table() {
            out.push_str(&t.to_string());
            out.push('\n');
        }
        out
    }

    /// One JSON document: `{"experiment": id, "tables": [{title, headers,
    /// rows}, ...]}`, rows as arrays of cell strings.
    pub fn json(&self) -> String {
        use self::fmt::json_escape;
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"experiment\": \"{}\",\n  \"tables\": [",
            json_escape(&self.id)
        ));
        for (ti, t) in self.tables.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"title\": \"{}\",\n      \"headers\": [",
                json_escape(t.title())
            ));
            for (i, h) in t.header_cells().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json_escape(h)));
            }
            out.push_str("],\n      \"rows\": [");
            for (ri, row) in t.data_rows().iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push_str("\n        [");
                for (i, c) in row.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\"", json_escape(c)));
                }
                out.push(']');
            }
            if !t.data_rows().is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.tables.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        if !self.failures.is_empty() {
            out.push_str(",\n  \"failures\": [");
            for (i, fl) in self.failures.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    {{\"workload\": \"{}\", \"kind\": \"{}\", \"attempts\": {}, \
                     \"spec\": \"{}\", \"detail\": \"{}\"}}",
                    json_escape(&fl.workload),
                    json_escape(fl.kind.label()),
                    fl.attempts,
                    json_escape(&fl.spec),
                    json_escape(&fl.detail)
                ));
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// CSV: each table's [`Table::to_csv`] preceded by a `# title`
    /// comment line, tables separated by a blank line.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let extra = self.failure_table();
        for (i, t) in self.tables.iter().chain(extra.iter()).enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("# {}\n", t.title()));
            out.push_str(&t.to_csv());
        }
        out
    }
}

/// Mean / min / max of a sample (the paper's bars with "I-beam" ranges).
///
/// Exact runs leave `ci` at `None` and render exactly as before. Sampled
/// runs attach the 95% confidence half-width of the *mean*, propagated
/// from the per-cell half-widths the sampling engine reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStat {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// 95% CI half-width of the mean, when the inputs were sampled.
    pub ci: Option<f64>,
}

impl GroupStat {
    /// Computes the statistic over a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> GroupStat {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        GroupStat {
            mean,
            min,
            max,
            ci: None,
        }
    }

    /// Like [`GroupStat::of`], but each value carries an optional per-cell
    /// 95% CI half-width (None = the cell ran exactly, zero uncertainty).
    /// When at least one cell was sampled, the group mean's half-width is
    /// the sum of the cell half-widths divided by the count. Summing
    /// (rather than root-sum-square) is deliberately conservative: a
    /// sampled cell that observed no events reports its full value range
    /// as the half-width, and interval uncertainty composes linearly.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or mismatched lengths.
    pub fn of_ci(values: &[f64], cis: &[Option<f64>]) -> GroupStat {
        assert_eq!(values.len(), cis.len(), "one CI slot per value");
        let mut g = GroupStat::of(values);
        if cis.iter().any(Option::is_some) {
            let sum: f64 = cis.iter().flatten().sum();
            g.ci = Some(sum / values.len() as f64);
        }
        g
    }

    /// Renders as `mean [min, max]` percentages (see [`fmt::pct_range`]).
    pub fn pct_range(&self) -> String {
        fmt::pct_range(self)
    }
}

impl std::fmt::Display for GroupStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} [{:.3}, {:.3}]", self.mean, self.min, self.max)?;
        if let Some(ci) = self.ci {
            write!(f, " ±{ci:.3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t");
        t.headers(["a", "bbbb"]);
        t.row(["xxxxx".to_string(), "1".to_string()]);
        t.row(["y".to_string(), "22".to_string()]);
        let s = t.to_string();
        assert!(s.contains("== t =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "{s}");
        assert!(lines[1].starts_with("a    "), "{s}");
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("t");
        t.headers(["a", "b"]);
        t.row(["only-one".to_string()]);
    }

    #[test]
    fn group_stat_math() {
        let g = GroupStat::of(&[0.1, 0.5, 0.3]);
        assert!((g.mean - 0.3).abs() < 1e-12);
        assert_eq!(g.min, 0.1);
        assert_eq!(g.max, 0.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        GroupStat::of(&[]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.9534), "95.3%");
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f1(2.34), "2.3");
        let g = GroupStat::of(&[0.5]);
        assert_eq!(g.pct_range(), "50.0% [50.0%, 50.0%]");
    }

    #[test]
    fn csv_export_quotes_correctly() {
        let mut t = Table::new("t");
        t.headers(["a", "b"]);
        t.row(["plain".to_string(), "with, comma".to_string()]);
        t.row(["has \"quote\"".to_string(), "x".to_string()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"with, comma\"");
        assert_eq!(lines[2], "\"has \"\"quote\"\"\",x");
    }

    #[test]
    fn report_text_matches_println_of_each_table() {
        let mut t = Table::new("t");
        t.headers(["a"]);
        t.row(["1".to_string()]);
        let expected = format!("{t}\n");
        let report = Report::single("demo", t);
        assert_eq!(report.text(), expected);
        assert_eq!(report.emit(OutputFormat::Text), expected);
    }

    #[test]
    fn report_json_is_wellformed_and_escaped() {
        let mut t = Table::new("ti\"tle");
        t.headers(["h1", "h2"]);
        t.row(["a\\b".to_string(), "c".to_string()]);
        let report = Report::single("x", t);
        let json = report.json();
        assert!(json.contains("\"experiment\": \"x\""));
        assert!(json.contains("ti\\\"tle"));
        assert!(json.contains("a\\\\b"));
        assert!(json.ends_with("}\n"));
        // Balanced braces/brackets (cheap well-formedness check; cells
        // contain no braces).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn report_csv_carries_titles() {
        let mut t1 = Table::new("first");
        t1.headers(["a"]);
        t1.row(["1".to_string()]);
        let mut t2 = Table::new("second");
        t2.headers(["b"]);
        t2.row(["2".to_string()]);
        let mut report = Report::new("multi");
        report.push(t1).push(t2);
        let csv = report.csv();
        assert!(csv.starts_with("# first\na\n1\n"));
        assert!(csv.contains("\n# second\nb\n2\n"));
    }

    #[test]
    fn output_format_parses() {
        assert_eq!("text".parse::<OutputFormat>(), Ok(OutputFormat::Text));
        assert_eq!("json".parse::<OutputFormat>(), Ok(OutputFormat::Json));
        assert_eq!("csv".parse::<OutputFormat>(), Ok(OutputFormat::Csv));
        assert!("xml".parse::<OutputFormat>().is_err());
    }

    #[test]
    fn fmt_helpers_round_once() {
        assert_eq!(
            fmt::pct_range(&GroupStat::of(&[0.5])),
            "50.0% [50.0%, 50.0%]"
        );
    }

    #[test]
    fn table_len_and_empty() {
        let mut t = Table::new("t");
        assert!(t.is_empty());
        t.row(["x".to_string()]);
        assert_eq!(t.len(), 1);
    }
}
