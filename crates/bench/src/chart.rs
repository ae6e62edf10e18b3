//! Terminal chart rendering for the figure experiments.
//!
//! Small, dependency-free plotting: column charts for time series and
//! step plots for CDFs, so the figure experiments show the *shape* of
//! each figure directly in the terminal, not just its numbers.

/// Renders a column chart of `values` using `height` text rows.
///
/// Values are scaled to the maximum; a left axis shows the top and zero.
pub fn column_chart(values: &[f64], height: usize, label: &str) -> String {
    if values.is_empty() || height == 0 {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(1e-12);
    let mut out = String::new();
    for row in (1..=height).rev() {
        let threshold = max * row as f64 / height as f64;
        let axis = if row == height { format!("{max:>8.0} ┤") } else { format!("{:>8} │", "") };
        out.push_str(&axis);
        for &v in values {
            // A half block when the value reaches half of this row's band.
            let band_lo = max * (row - 1) as f64 / height as f64;
            let c = if v >= threshold {
                '█'
            } else if v > band_lo + (threshold - band_lo) / 2.0 {
                '▄'
            } else {
                ' '
            };
            out.push(c);
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>8} └{}\n", 0, "─".repeat(values.len())));
    out.push_str(&format!("{:>10}{label}\n", ""));
    out
}

/// Downsamples `values` to at most `width` columns by averaging buckets.
pub fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    if values.is_empty() || width == 0 {
        return Vec::new();
    }
    if values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|i| {
            let lo = i * values.len() / width;
            let hi = ((i + 1) * values.len() / width).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Renders a CDF as a fixed-width step plot: x spans `[0, x_max]`.
pub fn cdf_plot(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let x_max = points.iter().map(|&(x, _)| x).fold(1e-12, f64::max);
    let mut out = String::new();
    for row in (1..=height).rev() {
        let frac_hi = row as f64 / height as f64;
        let frac_lo = (row - 1) as f64 / height as f64;
        out.push_str(&format!("{:>5.2} │", frac_hi));
        for col in 0..width {
            let x = x_max * (col as f64 + 0.5) / width as f64;
            // Fraction of samples ≤ x from the curve points.
            let f =
                points.iter().filter(|&&(px, _)| px <= x).map(|&(_, pf)| pf).fold(0.0, f64::max);
            out.push(if f > frac_lo && f <= frac_hi { '▉' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&format!("      └{}\n", "─".repeat(width)));
    out.push_str(&format!("       0{:>w$.0}\n", x_max, w = width - 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_chart_shape() {
        let chart = column_chart(&[1.0, 2.0, 4.0], 4, "t");
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 6, "4 rows + axis + label");
        // The tallest value fills the top row; the smallest does not.
        assert!(lines[0].ends_with("█"));
        assert!(lines[0].contains('4'));
    }

    #[test]
    fn column_chart_empty_inputs() {
        assert_eq!(column_chart(&[], 4, "x"), "");
        assert_eq!(column_chart(&[1.0], 0, "x"), "");
    }

    #[test]
    fn downsample_preserves_mean_roughly() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let down = downsample(&values, 10);
        assert_eq!(down.len(), 10);
        let mean_full: f64 = values.iter().sum::<f64>() / 100.0;
        let mean_down: f64 = down.iter().sum::<f64>() / 10.0;
        assert!((mean_full - mean_down).abs() < 1.0);
        assert_eq!(downsample(&values, 200).len(), 100, "no upsampling");
    }

    #[test]
    fn cdf_plot_renders() {
        let points: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, i as f64 / 10.0)).collect();
        let plot = cdf_plot(&points, 20, 5);
        assert!(plot.lines().count() >= 6);
        assert!(plot.contains('▉'));
    }
}
