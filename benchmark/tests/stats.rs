//! Order statistics on the awkward samples: empty, single, tied.

use procbench::stats::{median, percentile, quartiles, spread, tail, Summary};

#[test]
fn empty_samples_have_no_statistics() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(tail(&[]), None);
    assert_eq!(median(&[]), None);
    assert_eq!(quartiles(&[]), None);
    assert_eq!(spread(&[]), None);
    assert_eq!(Summary::of(&[], 0), None);
}

#[test]
fn a_single_sample_is_every_percentile() {
    assert_eq!(percentile(&[4.0], 0.0), Some(4.0));
    assert_eq!(percentile(&[4.0], 0.5), Some(4.0));
    assert_eq!(percentile(&[4.0], 1.0), Some(4.0));
    assert_eq!(tail(&[4.0]), Some(4.0));
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(quartiles(&[4.0]), None);
    let s = Summary::of(&[4.0], 9).unwrap();
    assert_eq!((s.median, s.min, s.max, s.samples), (4.0, 4.0, 4.0, 9));
    assert_eq!(s.reps, [4.0]);
}

#[test]
fn tied_samples_give_the_tied_value() {
    let tied = [2.0; 8];
    assert_eq!(percentile(&tied, 0.5), Some(2.0));
    assert_eq!(percentile(&tied, 0.99), Some(2.0));
    assert_eq!(median(&tied), Some(2.0));
    assert_eq!(quartiles(&tied), Some((2.0, 2.0)));
    assert_eq!(spread(&tied), Some(0.0));
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.99), Some(99.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
}

/// The tail is p99 only when ten samples lie beyond it, and at least the
/// median.
#[test]
fn tail_keeps_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=2000).map(f64::from).collect();
    assert_eq!(tail(&v), Some(1980.0));
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&v), Some(90.0));
    let v: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(tail(&v), Some(3.0));
}

/// `statistics.quantiles(v, n=4)` of Python, exclusive method.
#[test]
fn quartiles_match_python() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
    let s = spread(&v).unwrap();
    assert!((s - 1.0).abs() < 1e-12, "{s}");
}
