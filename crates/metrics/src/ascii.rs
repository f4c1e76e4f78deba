//! Terminal chart rendering: horizontal bar charts and multi-series line
//! plots, so every experiment binary can show the *shape* of its result.

use crate::{Figure, Histogram};

/// Renders a horizontal bar chart from `(label, value)` pairs.
///
/// Bars are scaled to `width` characters at the maximum value.
///
/// # Example
///
/// ```
/// let s = recsim_metrics::ascii::bar_chart(
///     &[("cpu".to_string(), 1.0), ("gpu".to_string(), 2.0)], 10);
/// assert!(s.contains("cpu"));
/// assert!(s.lines().count() == 2);
/// ```
pub fn bar_chart(items: &[(String, f64)], width: usize) -> String {
    if items.is_empty() {
        return String::new();
    }
    let max = items
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in items {
        let n = ((value.abs() / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$} | {} {value:.4}\n",
            "#".repeat(n)
        ));
    }
    out
}

/// Renders a [`Histogram`] as a bar chart with bin-center labels.
pub fn histogram_chart(hist: &Histogram, width: usize) -> String {
    let items: Vec<(String, f64)> = hist
        .iter()
        .map(|(center, count)| (format!("{center:>10.1}"), count as f64))
        .collect();
    bar_chart(&items, width)
}

/// Renders a multi-series line plot on a `width`×`height` character canvas.
///
/// Each series gets a distinct glyph (`*`, `o`, `+`, `x`, …). Axes are scaled
/// to the joint range of all series. Returns an empty string when there is
/// nothing to plot.
pub fn line_plot(figure: &Figure, width: usize, height: usize) -> String {
    const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '@', '%', '&', '='];
    let all: Vec<(f64, f64)> = figure
        .series()
        .iter()
        .flat_map(|s| s.points().iter().copied())
        .collect();
    if all.is_empty() || width < 2 || height < 2 {
        return String::new();
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    if x_hi == x_lo {
        x_hi = x_lo + 1.0;
    }
    if y_hi == y_lo {
        y_hi = y_lo + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for (si, series) in figure.series().iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in series.points() {
            let cx = (((x - x_lo) / (x_hi - x_lo)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_lo) / (y_hi - y_lo)) * (height - 1) as f64).round() as usize;
            canvas[height - 1 - cy][cx] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{} — {} vs {}\n",
        figure.title(),
        figure.y_label(),
        figure.x_label()
    ));
    out.push_str(&format!("{y_hi:>12.3} ┌{}\n", "─".repeat(width)));
    for (i, row) in canvas.iter().enumerate() {
        let prefix = if i == height - 1 {
            format!("{y_lo:>12.3} └")
        } else {
            format!("{:>12} │", "")
        };
        out.push_str(&prefix);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>14}{x_lo:<.3} .. {x_hi:.3}\n", ""));
    for (si, series) in figure.series().iter().enumerate() {
        out.push_str(&format!(
            "  {} = {}\n",
            GLYPHS[si % GLYPHS.len()],
            series.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Series;

    #[test]
    fn bar_chart_scales_to_max() {
        let s = bar_chart(&[("a".to_string(), 1.0), ("b".to_string(), 2.0)], 10);
        let lines: Vec<&str> = s.lines().collect();
        let hashes = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert_eq!(hashes(lines[0]), 5);
        assert_eq!(hashes(lines[1]), 10);
    }

    #[test]
    fn empty_inputs_render_empty() {
        assert_eq!(bar_chart(&[], 10), "");
        let fig = Figure::new("t", "x", "y");
        assert_eq!(line_plot(&fig, 20, 10), "");
    }

    #[test]
    fn line_plot_contains_glyphs_and_legend() {
        let fig = Figure::new("t", "x", "y")
            .with_series(Series::from_points("up", vec![(0.0, 0.0), (1.0, 1.0)]))
            .with_series(Series::from_points("down", vec![(0.0, 1.0), (1.0, 0.0)]));
        let s = line_plot(&fig, 20, 10);
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("up"));
        assert!(s.contains("down"));
    }

    #[test]
    fn line_plot_handles_flat_series() {
        let fig = Figure::new("t", "x", "y")
            .with_series(Series::from_points("flat", vec![(0.0, 5.0), (1.0, 5.0)]));
        let s = line_plot(&fig, 10, 5);
        assert!(s.contains('*'));
    }

    #[test]
    fn histogram_chart_has_bin_per_line() {
        let mut h = Histogram::with_range(0.0, 4.0, 4);
        h.record(0.5);
        h.record(3.5);
        let s = histogram_chart(&h, 8);
        assert_eq!(s.lines().count(), 4);
    }
}
