//! Prometheus text exposition (format version 0.0.4): rendering a
//! [`MetricsSnapshot`] to the `/metrics` wire text, and parsing that text
//! back into a snapshot — used by the golden round-trip test and by
//! integration tests that scrape a live endpoint.

use crate::registry::{
    bucket_bounds, HistogramSnapshot, MetricFamily, MetricKind, MetricValue, MetricsSnapshot,
    Series, HISTOGRAM_BUCKETS,
};

/// Escapes a label value per the text format: backslash, double quote,
/// and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Escapes a HELP string: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_bound(b: f64) -> String {
    if b.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{b}")
    }
}

fn labels_text(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn labels_text_with(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    body.push(format!("{extra_key}=\"{}\"", escape_label(extra_val)));
    format!("{{{}}}", body.join(","))
}

/// Renders a snapshot as Prometheus text exposition. Histograms emit
/// cumulative `_bucket{le=...}` series over the shared
/// `bucket_bounds` layout plus `_sum` and `_count`.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for fam in &snapshot.families {
        out.push_str(&format!("# HELP {} {}\n", fam.name, escape_help(&fam.help)));
        out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
        for series in &fam.series {
            match &series.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        fam.name,
                        labels_text(&series.labels)
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        fam.name,
                        labels_text(&series.labels)
                    ));
                }
                MetricValue::Histogram(h) => {
                    let bounds = bucket_bounds();
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        cumulative += bucket;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            fam.name,
                            labels_text_with(&series.labels, "le", &fmt_bound(bounds[i]))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        fam.name,
                        labels_text(&series.labels),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        fam.name,
                        labels_text(&series.labels),
                        h.count
                    ));
                }
            }
        }
    }
    out
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    // s is the text between '{' and '}'.
    let mut out = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted near {rest}"));
        }
        rest = &rest[1..];
        // Scan to the closing unescaped quote.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value near {rest}"))?;
        out.push((key, unescape_label(&rest[..end])));
        rest = rest[end + 1..].trim_start_matches(',');
    }
    out.sort();
    Ok(out)
}

/// One parsed series line: metric name, sorted label pairs, value.
type SeriesLine = (String, Vec<(String, String)>, f64);

fn split_series_line(line: &str) -> Result<SeriesLine, String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("series line without value: {line}"))?;
    let value: f64 = if value == "+Inf" {
        f64::INFINITY
    } else {
        value
            .parse()
            .map_err(|e| format!("bad value {value:?}: {e}"))?
    };
    match name_labels.split_once('{') {
        None => Ok((name_labels.to_string(), Vec::new(), value)),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set: {line}"))?;
            Ok((name.to_string(), parse_labels(body)?, value))
        }
    }
}

struct PendingHistogram {
    labels: Vec<(String, String)>,
    cumulative: Vec<u64>,
    sum: f64,
    count: u64,
}

/// Parses Prometheus text exposition produced by [`render`] back into a
/// snapshot. Histogram `_bucket` series are folded back into
/// non-cumulative buckets over the shared layout.
///
/// # Errors
///
/// Malformed lines, unknown series for a declared histogram, or bucket
/// counts inconsistent with `_count`.
pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
    let mut families: Vec<MetricFamily> = Vec::new();
    let mut help: Option<(String, String)> = None;
    let mut pending: Vec<(String, PendingHistogram)> = Vec::new();

    fn flush_pending(
        pending: &mut Vec<(String, PendingHistogram)>,
        families: &mut [MetricFamily],
    ) -> Result<(), String> {
        for (name, p) in pending.drain(..) {
            if p.cumulative.len() != HISTOGRAM_BUCKETS {
                return Err(format!(
                    "histogram {name} has {} buckets, expected {HISTOGRAM_BUCKETS}",
                    p.cumulative.len()
                ));
            }
            let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
            let mut prev = 0u64;
            for c in &p.cumulative {
                buckets.push(
                    c.checked_sub(prev)
                        .ok_or_else(|| format!("histogram {name} buckets not cumulative"))?,
                );
                prev = *c;
            }
            if prev != p.count {
                return Err(format!(
                    "histogram {name} count {} != +Inf bucket {prev}",
                    p.count
                ));
            }
            let fam = families
                .iter_mut()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("histogram series before TYPE for {name}"))?;
            fam.series.push(Series {
                labels: p.labels,
                value: MetricValue::Histogram(HistogramSnapshot {
                    buckets,
                    count: p.count,
                    sum: p.sum,
                }),
            });
        }
        Ok(())
    }

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, h) = rest.split_once(' ').unwrap_or((rest, ""));
            help = Some((name.to_string(), unescape_label(h)));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad TYPE line: {line}"))?;
            let kind = match kind {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                other => return Err(format!("unknown metric kind {other:?}")),
            };
            let fam_help = match &help {
                Some((h_name, h)) if h_name == name => h.clone(),
                _ => String::new(),
            };
            families.push(MetricFamily {
                name: name.to_string(),
                help: fam_help,
                kind,
                series: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value) = split_series_line(line)?;
        // Histogram component series?
        let hist_owner = families.iter().rev().find(|f| {
            f.kind == MetricKind::Histogram
                && (name == format!("{}_bucket", f.name)
                    || name == format!("{}_sum", f.name)
                    || name == format!("{}_count", f.name))
        });
        if let Some(fam) = hist_owner {
            let fam_name = fam.name.clone();
            let (base_labels, le): (Vec<(String, String)>, Option<String>) =
                if name.ends_with("_bucket") {
                    let mut base = Vec::new();
                    let mut le = None;
                    for (k, v) in labels {
                        if k == "le" {
                            le = Some(v);
                        } else {
                            base.push((k, v));
                        }
                    }
                    (base, le)
                } else {
                    (labels, None)
                };
            let entry = match pending
                .iter_mut()
                .find(|(n, p)| *n == fam_name && p.labels == base_labels)
            {
                Some((_, p)) => p,
                None => {
                    pending.push((
                        fam_name.clone(),
                        PendingHistogram {
                            labels: base_labels,
                            cumulative: Vec::new(),
                            sum: 0.0,
                            count: 0,
                        },
                    ));
                    &mut pending.last_mut().unwrap().1
                }
            };
            if name.ends_with("_bucket") {
                le.ok_or_else(|| format!("bucket line without le label: {line}"))?;
                entry.cumulative.push(value as u64);
            } else if name.ends_with("_sum") {
                entry.sum = value;
            } else {
                entry.count = value as u64;
            }
            continue;
        }
        let fam = families
            .iter_mut()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("series before TYPE declaration: {line}"))?;
        let value = match fam.kind {
            MetricKind::Counter => MetricValue::Counter(value as u64),
            MetricKind::Gauge => MetricValue::Gauge(value),
            MetricKind::Histogram => {
                return Err(format!("bare series for histogram family: {line}"))
            }
        };
        fam.series.push(Series { labels, value });
    }
    flush_pending(&mut pending, &mut families)?;
    families.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(MetricsSnapshot { families })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn render_contains_help_type_and_series() {
        let reg = MetricsRegistry::new();
        reg.counter("hetgc_rounds_total", "Completed rounds", &[("job", "a")])
            .add(3);
        reg.gauge("hetgc_pool_workers", "Pool size", &[]).set(6.0);
        let text = render(&reg.snapshot());
        assert!(text.contains("# HELP hetgc_rounds_total Completed rounds\n"));
        assert!(text.contains("# TYPE hetgc_rounds_total counter\n"));
        assert!(text.contains("hetgc_rounds_total{job=\"a\"} 3\n"));
        assert!(text.contains("hetgc_pool_workers 6\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", "latency", &[("w", "0")]);
        h.observe(1e-6);
        h.observe(3e-6);
        let text = render(&reg.snapshot());
        assert!(text.contains("lat_seconds_bucket{w=\"0\",le=\"0.000001\"} 1\n"));
        assert!(text.contains("le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_seconds_count{w=\"0\"} 2\n"));
    }

    #[test]
    fn label_escaping_roundtrips() {
        let reg = MetricsRegistry::new();
        reg.counter("c", "help", &[("job", "a\"b\\c\nd")]).add(1);
        let snap = reg.snapshot();
        let parsed = parse(&render(&snap)).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no_type_line 3\n").is_err());
        assert!(parse("# TYPE x counter\nx not-a-number\n").is_err());
    }
}
