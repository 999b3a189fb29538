//! Plain-text table rendering shared by the benchmark harnesses.

use std::fmt;

use crate::error::Error;
use crate::fusion::MultiChannelReport;

/// A simple fixed-width text table.
///
/// ```
/// use htd_core::report::Table;
///
/// let mut t = Table::new(&["HT", "size", "FN rate"]);
/// t.push_row(&["HT 1", "0.5%", "26%"]);
/// let s = t.to_string();
/// assert!(s.contains("HT 1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn push_row<S: AsRef<str>>(&mut self, cells: &[S]) {
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as RFC 4180-style CSV: cells containing commas,
    /// quotes or newlines are quoted, with embedded quotes doubled.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&csv_cell(cell));
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders the table as plain `key=value` lines, one block per row:
    /// `row<i>.<header>=<value>`. Headers are sanitised to identifier
    /// form (`µ` → `mu`, `σ` → `sigma`, other non-alphanumerics → `_`);
    /// newlines in values are escaped as `\n`.
    pub fn to_kv(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.rows.iter().enumerate() {
            for (j, header) in self.headers.iter().enumerate() {
                let value = row.get(j).map(String::as_str).unwrap_or("");
                out.push_str(&format!(
                    "row{i}.{}={}\n",
                    kv_key(header),
                    value.replace('\n', "\\n")
                ));
            }
        }
        out
    }
}

/// Quotes one CSV cell if it contains a comma, quote or newline.
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Sanitises a header into a `key=value` key.
fn kv_key(header: &str) -> String {
    let mut key = String::new();
    for c in header.chars() {
        match c {
            'µ' => key.push_str("mu"),
            'σ' => key.push_str("sigma"),
            c if c.is_ascii_alphanumeric() => key.push(c.to_ascii_lowercase()),
            _ => key.push('_'),
        }
    }
    key
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        // Widths count characters, not bytes, so the µ/σ headers align.
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, &w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        render_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

/// Writes rows as a CSV file, creating parent directories as needed —
/// the benches use this to dump each figure's data series for external
/// plotting.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    path: impl AsRef<std::path::Path>,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), Error> {
    use std::io::Write as _;
    let path = path.as_ref();
    let io = |e| Error::io(path, e);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(io)?;
    }
    let mut f = std::fs::File::create(path).map_err(io)?;
    writeln!(f, "{}", headers.join(",")).map_err(io)?;
    for row in rows {
        writeln!(f, "{}", row.join(",")).map_err(io)?;
    }
    Ok(())
}

/// Renders a [`MultiChannelReport`] with one row per (trojan, channel)
/// and a trailing `fused` row per trojan when fusion ran.
pub fn multi_channel_table(report: &MultiChannelReport) -> Table {
    let mut t = Table::new(&["HT", "channel", "µ", "σ", "FN rate", "FN emp"]);
    for row in &report.rows {
        let results = row.channels.iter().chain(&row.fused);
        for c in results {
            t.push_row(&[
                row.name.clone(),
                c.channel.clone(),
                format!("{:.3}", c.mu),
                format!("{:.3}", c.sigma),
                pct(c.analytic_fn_rate),
                pct(c.empirical_fn_rate),
            ]);
        }
    }
    t
}

/// Renders per-channel [`ChannelHealth`](crate::resilience::ChannelHealth)
/// records as a table: one row per channel with attempt/retry/drop
/// counters and a status column (`ok` / `degraded` / `lost`).
pub fn health_table(health: &[crate::resilience::ChannelHealth]) -> Table {
    let mut t = Table::new(&[
        "channel",
        "attempts",
        "retried",
        "dropped",
        "reps",
        "reps drop",
        "status",
    ]);
    for h in health {
        let status = if h.lost {
            "lost"
        } else if h.degraded() {
            "degraded"
        } else {
            "ok"
        };
        t.push_row(&[
            h.channel.clone(),
            h.attempted.to_string(),
            h.retried.to_string(),
            h.dropped.to_string(),
            h.reps_attempted.to_string(),
            h.reps_dropped.to_string(),
            status.to_string(),
        ]);
    }
    t
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats picoseconds compactly (`"123 ps"` / `"1.23 ns"`).
pub fn ps(x: f64) -> String {
    if x.abs() >= 1_000.0 {
        format!("{:.2} ns", x / 1_000.0)
    } else {
        format!("{x:.0} ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "longer"]);
        t.push_row(&["xxxx", "y"]);
        t.push_row(&["z", "wwwwwww"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn write_csv_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("htd_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_quotes_commas_quotes_and_newlines() {
        let mut t = Table::new(&["name", "note"]);
        t.push_row(&["a,b", "say \"hi\""]);
        t.push_row(&["line1\nline2", "plain"]);
        t.push_row(&["only one cell"]);
        let csv = t.to_csv();
        let mut lines = csv.split('\n');
        assert_eq!(lines.next(), Some("name,note"));
        assert_eq!(lines.next(), Some("\"a,b\",\"say \"\"hi\"\"\""));
        // The embedded newline stays inside the quoted cell.
        assert_eq!(lines.next(), Some("\"line1"));
        assert_eq!(lines.next(), Some("line2\",plain"));
        // Short rows emit only the cells they have.
        assert_eq!(lines.next(), Some("only one cell"));
    }

    #[test]
    fn kv_export_sanitises_headers_and_escapes_values() {
        let mut t = Table::new(&["HT", "µ", "σ", "FN rate"]);
        t.push_row(&["HT 1", "1.5", "0.5", "26%"]);
        t.push_row(&["multi\nline", "2", "", ""]);
        let kv = t.to_kv();
        assert!(kv.contains("row0.ht=HT 1\n"), "{kv}");
        assert!(kv.contains("row0.mu=1.5\n"), "{kv}");
        assert!(kv.contains("row0.sigma=0.5\n"), "{kv}");
        assert!(kv.contains("row0.fn_rate=26%\n"), "{kv}");
        assert!(kv.contains("row1.ht=multi\\nline\n"), "{kv}");
        // Missing trailing cells render as empty values, keeping every
        // row's key set identical.
        assert!(kv.contains("row1.sigma=\n"), "{kv}");
    }

    #[test]
    fn csv_of_report_table_is_machine_readable() {
        let report = MultiChannelReport {
            rows: vec![crate::fusion::MultiChannelRow {
                name: "HT, 2".into(),
                size_fraction: 0.01,
                channels: vec![channel_result("EM", 2.0)],
                fused: None,
            }],
            n_dies: 6,
            channel_names: vec!["EM".into()],
            health: vec![],
        };
        let csv = multi_channel_table(&report).to_csv();
        assert!(csv.starts_with("HT,channel,µ,σ,FN rate,FN emp\n"), "{csv}");
        assert!(csv.contains("\"HT, 2\",EM,"), "{csv}");
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.05), "5.0%");
        assert_eq!(ps(123.4), "123 ps");
        assert_eq!(ps(1_234.0), "1.23 ns");
    }

    fn channel_result(channel: &str, mu: f64) -> crate::fusion::ChannelResult {
        crate::fusion::ChannelResult {
            channel: channel.to_string(),
            mu,
            sigma: 1.5,
            analytic_fn_rate: 0.26,
            empirical_fn_rate: 0.25,
            empirical_fp_rate: 0.125,
        }
    }

    #[test]
    fn multi_channel_table_appends_the_fusion_row() {
        let report = MultiChannelReport {
            rows: vec![crate::fusion::MultiChannelRow {
                name: "HT 2".into(),
                size_fraction: 0.01,
                channels: vec![channel_result("EM", 2.0), channel_result("delay", 3.0)],
                fused: Some(channel_result("fused", 4.0)),
            }],
            n_dies: 6,
            channel_names: vec!["EM".into(), "delay".into()],
            health: vec![],
        };
        let t = multi_channel_table(&report);
        // Two channel rows + one fused row.
        assert_eq!(t.row_count(), 3);
        let s = t.to_string();
        for label in ["EM", "delay", "fused"] {
            assert!(s.contains(label), "missing {label} row:\n{s}");
        }
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "misaligned table:\n{s}"
        );

        // Without fusion, only the channel rows render.
        let mut no_fused = report.clone();
        no_fused.rows[0].fused = None;
        assert_eq!(multi_channel_table(&no_fused).row_count(), 2);
    }

    #[test]
    fn health_table_classifies_ok_degraded_and_lost() {
        use crate::resilience::ChannelHealth;
        let ok = ChannelHealth::pristine("EM", 6);
        let mut degraded = ChannelHealth::pristine("delay", 6);
        degraded.retried = 2;
        degraded.dropped = 1;
        degraded.reps_attempted = 24;
        degraded.reps_dropped = 3;
        let mut lost = ChannelHealth::pristine("power", 0);
        lost.lost = true;
        let t = health_table(&[ok, degraded, lost]);
        assert_eq!(t.row_count(), 3);
        let rows = t.rows();
        assert_eq!(rows[0].last().unwrap(), "ok");
        assert_eq!(rows[1].last().unwrap(), "degraded");
        assert_eq!(rows[1][3], "1");
        assert_eq!(rows[1][5], "3");
        assert_eq!(rows[2].last().unwrap(), "lost");
    }
}
