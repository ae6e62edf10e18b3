//! The paper's Figure 5, §4.4.3 and Figure 6 numbers, held to their
//! tolerances. These are the same rows `EXPERIMENTS.md` prints; all
//! three experiments run on fixed seeds, so no run count applies.

use oasis_bench::experiments::{fig05_claims, fig06_claims, net_micro_claims, Row, Tolerance};

fn assert_bounded_rows_hold(rows: &[Row]) {
    for row in rows {
        assert_ne!(
            row.holds(),
            Some(false),
            "{}: measured {:.2}, paper {:.2}, tolerance {:?}",
            row.label.trim(),
            row.measured,
            row.paper,
            row.tolerance
        );
    }
}

#[test]
fn figure5_phases_within_10_percent_except_the_named_deviation() {
    let rows = fig05_claims();
    assert_bounded_rows_hold(&rows);
    let bounded = rows.iter().filter(|r| r.tolerance == Tolerance::Relative(0.10)).count();
    assert_eq!(bounded, 5);
    let deviations: Vec<Row> = rows.iter().copied().filter(|r| r.holds().is_none()).collect();
    let [deviation] = deviations[..] else { panic!("one deviation row, got {deviations:?}") };
    assert_eq!(deviation.label.trim(), "memory upload #2 (differential)");
    // Figure 5's notes explain this row as more than 10 % off the paper;
    // if it comes within 10 %, it gets its bound back and the notes go.
    let within_10 = Row { tolerance: Tolerance::Relative(0.10), ..deviation };
    assert_eq!(within_10.holds(), Some(false), "{deviation:?}");
}

#[test]
fn section443_traffic_inside_the_paper_error_bars() {
    let rows = net_micro_claims();
    assert!(rows.iter().all(|r| matches!(r.tolerance, Tolerance::PlusMinus(_))));
    assert_bounded_rows_hold(&rows);
}

#[test]
fn figure6_libreoffice_and_largest_ratio_within_10_percent() {
    let rows = fig06_claims();
    assert!(rows.iter().all(|r| r.tolerance == Tolerance::Relative(0.10)));
    assert_bounded_rows_hold(&rows);
}
