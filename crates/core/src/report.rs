//! Plain-text table rendering for the bench binaries, plus the
//! reader of the JSONL record stream long training runs write.
//!
//! Nothing here knows about schemes or figures — it renders generic rows,
//! so the same code path serves Table II, the Fig. 2/3 sweeps and the
//! optimality report.

use crate::driver::RoundRecord;

/// Parses a JSONL stream of round records (the format
/// `TrainDriver::with_record_writer` produces) back into
/// [`RoundRecord`]s. Blank lines are skipped.
///
/// # Errors
///
/// The first malformed line, with its 1-based line number.
pub fn parse_round_records(text: &str) -> Result<Vec<RoundRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| RoundRecord::from_json(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Renders an aligned plain-text table.
///
/// # Example
///
/// ```
/// let t = hetgc::report::render_table(
///     &["scheme", "time"],
///     &[vec!["naive".into(), "3.00".into()], vec!["heter".into(), "1.00".into()]],
/// );
/// assert!(t.contains("scheme"));
/// assert!(t.contains("naive"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..widths[i] {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    render_row(&header_cells, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(row, &mut out);
    }
    out
}

/// Formats an `Option<f64>` as seconds with 3 decimals, or `"-"`.
pub fn fmt_opt_secs(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_owned(),
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn fmt_percent(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.1}%", 100.0 * x),
        None => "-".to_owned(),
    }
}

/// Renders a simple ASCII sparkline of `(x, y)` series for quick terminal
/// inspection of loss curves (one row per series, `width` buckets, `#`
/// density by relative y).
pub fn render_curves(curves: &[(String, Vec<(f64, f64)>)], width: usize) -> String {
    let mut out = String::new();
    let (mut tmax, mut ymax) = (0.0_f64, 0.0_f64);
    for (_, pts) in curves {
        for &(t, y) in pts {
            tmax = tmax.max(t);
            ymax = ymax.max(y);
        }
    }
    if tmax <= 0.0 || ymax <= 0.0 {
        return out;
    }
    let levels: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for (label, pts) in curves {
        let mut buckets = vec![f64::NAN; width];
        for &(t, y) in pts {
            let idx = ((t / tmax) * (width as f64 - 1.0)).round() as usize;
            buckets[idx] = y;
        }
        // Forward-fill gaps for readability.
        let mut last = f64::NAN;
        for b in buckets.iter_mut() {
            if b.is_nan() {
                *b = last;
            } else {
                last = *b;
            }
        }
        out.push_str(&format!("{label:>12} |"));
        for b in &buckets {
            if b.is_nan() {
                out.push(' ');
            } else {
                let lvl = ((b / ymax) * (levels.len() as f64 - 1.0)).round() as usize;
                out.push(levels[lvl.min(levels.len() - 1)]);
            }
        }
        out.push_str("|\n");
    }
    out.push_str(&format!("{:>12}  0 … {tmax:.1}s (y: 0 … {ymax:.2})\n", ""));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xx".into(), "y".into()],
                vec!["z".into(), "wwwww".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
        // All rows same width.
        assert!(lines[2].trim_end().len() <= lines[1].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_opt_secs(Some(1.23456)), "1.235");
        assert_eq!(fmt_opt_secs(None), "-");
        assert_eq!(fmt_percent(Some(0.4567)), "45.7%");
        assert_eq!(fmt_percent(None), "-");
    }

    #[test]
    fn curves_render() {
        let curves = vec![
            ("fast".to_owned(), vec![(0.0, 1.0), (1.0, 0.2)]),
            ("slow".to_owned(), vec![(0.0, 1.0), (2.0, 0.6)]),
        ];
        let s = render_curves(&curves, 20);
        assert!(s.contains("fast"));
        assert!(s.contains("slow"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn curves_empty_safe() {
        assert!(render_curves(&[], 10).is_empty());
        let flat = vec![("z".to_owned(), vec![(0.0, 0.0)])];
        assert!(render_curves(&flat, 10).is_empty());
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let records: Vec<RoundRecord> = (1..=3)
            .map(|i| RoundRecord {
                round: i,
                time: i as f64 * 1.5,
                elapsed: 1.5,
                loss: (i % 2 == 0).then(|| 0.125 / i as f64),
                residual: 0.0,
                step_scale: 1.0,
                results_used: 4,
                alloc_bytes: 256 * i as u64,
                pool_hits: i as u64,
                bytes_sent: 1024 * i as u64,
                bytes_received: 512 * i as u64,
                wire_error: if i == 3 { 0.5 } else { 0.0 },
                job_id: (i == 2).then(|| std::sync::Arc::from("job-b")),
            })
            .collect();
        let text: String = records.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_round_records(&text).unwrap();
        assert_eq!(parsed, records);
        // Blank lines are tolerated, garbage is not.
        assert_eq!(parse_round_records("\n").unwrap(), vec![]);
        let err = parse_round_records("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
