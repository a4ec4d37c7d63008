//! Shared helpers for the experiment benches.
//!
//! Every `exp_*` bench target regenerates one of the paper's tables or
//! figures, or runs a set of timing gates (`exp_scalability`,
//! `exp_serve`), and prints its results to stdout when run under
//! `cargo bench`; none writes a file.

use sailing_model::SourceId;

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Width every cell is padded to.
const CELL_WIDTH: usize = 14;

/// Formats a row of fixed-width cells, one space apart, so a cell that
/// fills its width still stands clear of the next.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:<CELL_WIDTH$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints a header + separator as wide as the header row.
pub fn header(cells: &[&str]) {
    let header = row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("{header}");
    println!("{}", "-".repeat(header.chars().count()));
}

/// Unordered precision/recall of detected pairs against planted pairs.
pub fn pair_quality(
    detected: &[(SourceId, SourceId)],
    planted: &[(SourceId, SourceId)],
) -> (f64, f64) {
    let canon = |&(a, b): &(SourceId, SourceId)| if a < b { (a, b) } else { (b, a) };
    let planted: std::collections::HashSet<_> = planted.iter().map(canon).collect();
    let detected: std::collections::HashSet<_> = detected.iter().map(canon).collect();
    let hits = detected.intersection(&planted).count();
    let precision = if detected.is_empty() {
        1.0
    } else {
        hits as f64 / detected.len() as f64
    };
    let recall = if planted.is_empty() {
        1.0
    } else {
        hits as f64 / planted.len() as f64
    };
    (precision, recall)
}

/// F1 from precision/recall.
pub fn f1(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_quality_counts() {
        let planted = vec![(SourceId(0), SourceId(1)), (SourceId(2), SourceId(3))];
        let detected = vec![(SourceId(1), SourceId(0)), (SourceId(4), SourceId(5))];
        let (p, r) = pair_quality(&detected, &planted);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_width_cells_stay_apart() {
        let line = row(&["copier vs orig".to_string(), "0.54".to_string()]);
        assert_eq!(line, "copier vs orig 0.54          ");
        let widths = row(&["a".to_string(), "b".to_string(), "c".to_string()]);
        assert_eq!(widths.len(), 3 * CELL_WIDTH + 2);
    }

    #[test]
    fn f1_harmonic() {
        assert_eq!(f1(0.0, 0.0), 0.0);
        assert!((f1(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((f1(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
