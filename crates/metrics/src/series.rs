//! Named data series and figures — the exchange format between experiment
//! drivers, benchmark binaries and the renderers.

/// A named sequence of `(x, y)` points, e.g. "GPU throughput vs batch size".
///
/// # Example
///
/// ```
/// use recsim_metrics::Series;
///
/// let mut s = Series::new("gpu");
/// s.push(200.0, 1.0);
/// s.push(400.0, 1.9);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.y_at(400.0), Some(1.9));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

recsim_detsan::impl_to_json!(Series { name, points });

impl Series {
    /// Creates an empty series with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Creates a series from existing points.
    pub fn from_points(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// All x values.
    pub fn xs(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.0)
    }

    /// All y values.
    pub fn ys(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.1)
    }

    /// y at the first point whose x equals `x` exactly, if any.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.0 == x).map(|p| p.1)
    }

    /// The x with the largest y; `None` when empty.
    pub fn argmax(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN in series"))
    }

    /// Divides every y by the y of the first point, producing a series
    /// normalized to its own start — the form used by most paper figures
    /// ("normalized relative throughput").
    ///
    /// # Panics
    ///
    /// Panics when empty or when the first y is zero.
    pub fn normalized_to_first(&self) -> Series {
        let base = self
            .points
            .first()
            .expect("cannot normalize empty series")
            .1;
        assert!(base != 0.0, "cannot normalize to zero");
        Series {
            name: self.name.clone(),
            points: self.points.iter().map(|&(x, y)| (x, y / base)).collect(),
        }
    }

    /// Returns `true` when ys never decrease as the points progress.
    pub fn is_non_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12)
    }

    /// Returns `true` when ys never increase as the points progress.
    pub fn is_non_increasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12)
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

/// A figure: a titled collection of [`Series`] with axis labels, mirroring
/// one panel of a paper figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Figure {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

recsim_detsan::impl_to_json!(Figure {
    title,
    x_label,
    y_label,
    series
});

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series and returns `self` for chaining.
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a series in place.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Figure title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// X-axis label.
    pub fn x_label(&self) -> &str {
        &self.x_label
    }

    /// Y-axis label.
    pub fn y_label(&self) -> &str {
        &self.y_label
    }

    /// The series in insertion order.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Looks a series up by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Renders the figure as a CSV block (`x,series1,series2,...`), matching
    /// points by position.
    ///
    /// All series must have the same x grid for the output to be meaningful;
    /// missing trailing points render as empty cells.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name().replace(',', ";"));
        }
        out.push('\n');
        let rows = self.series.iter().map(Series::len).max().unwrap_or(0);
        for i in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points().get(i).map(|p| p.0));
            if let Some(x) = x {
                out.push_str(&format!("{x}"));
            }
            for s in &self.series {
                out.push(',');
                if let Some(p) = s.points().get(i) {
                    out.push_str(&format!("{}", p.1));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let s = Series::from_points("t", vec![(1.0, 2.0), (2.0, 6.0)]);
        let n = s.normalized_to_first();
        assert_eq!(n.points(), &[(1.0, 1.0), (2.0, 3.0)]);
    }

    #[test]
    fn argmax_finds_peak() {
        let s = Series::from_points("t", vec![(1.0, 2.0), (2.0, 9.0), (3.0, 4.0)]);
        assert_eq!(s.argmax(), Some((2.0, 9.0)));
    }

    #[test]
    fn monotonicity_checks() {
        let up = Series::from_points("u", vec![(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)]);
        assert!(up.is_non_decreasing());
        assert!(!up.is_non_increasing());
        let down = Series::from_points("d", vec![(0.0, 3.0), (1.0, 1.0)]);
        assert!(down.is_non_increasing());
    }

    #[test]
    fn figure_csv_round_shape() {
        let fig = Figure::new("t", "x", "y")
            .with_series(Series::from_points("a", vec![(1.0, 10.0), (2.0, 20.0)]))
            .with_series(Series::from_points("b", vec![(1.0, 30.0), (2.0, 40.0)]));
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,30");
        assert_eq!(lines[2], "2,20,40");
    }

    #[test]
    fn series_named_lookup() {
        let fig = Figure::new("t", "x", "y").with_series(Series::new("cpu"));
        assert!(fig.series_named("cpu").is_some());
        assert!(fig.series_named("tpu").is_none());
    }

    #[test]
    #[should_panic(expected = "normalize empty")]
    fn normalize_empty_panics() {
        Series::new("e").normalized_to_first();
    }
}
