//! # procdb-bench
//!
//! Benchmark harness for the `procdb` reproduction of Hanson (SIGMOD
//! 1988). Two binaries regenerate the paper's evaluation:
//!
//! * `figures` — every analytical table and figure (F4–F15, F17–F19,
//!   the parameter table, the §8 headline numbers, and two ablations);
//! * `sim` — discrete-simulation twins of the key figures plus an
//!   analytic-vs-simulated validation run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use procdb_costmodel::{Figure, Strategy};

/// Render an analytic figure as an aligned text table (one row per x
/// grid point, one column per strategy curve).
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} — {} ==\n", fig.id, fig.title));
    out.push_str(&format!("{:>6}", fig.x_label));
    for s in &fig.series {
        out.push_str(&format!("{:>18}", short_label(s.strategy)));
    }
    out.push('\n');
    let npoints = fig.series[0].points.len();
    for i in 0..npoints {
        out.push_str(&format!("{:>6.2}", fig.series[0].points[i].0));
        for s in &fig.series {
            out.push_str(&format!("{:>18.1}", s.points[i].1));
        }
        out.push('\n');
    }
    out
}

/// Short column label for a strategy.
pub fn short_label(s: Strategy) -> &'static str {
    match s {
        Strategy::AlwaysRecompute => "AlwaysRecompute",
        Strategy::CacheInvalidate => "Cache&Inval",
        Strategy::UpdateCacheAvm => "UC-AVM",
        Strategy::UpdateCacheRvm => "UC-RVM",
    }
}

/// Sparse rendering: every `step`-th row (keeps console output readable
/// while regenerating the full curve internally).
pub fn render_figure_sparse(fig: &Figure, step: usize) -> String {
    let mut thin = fig.clone();
    for s in &mut thin.series {
        s.points = s
            .points
            .iter()
            .enumerate()
            .filter(|(i, _)| i % step == 0 || *i + 1 == fig.series[0].points.len())
            .map(|(_, p)| *p)
            .collect();
    }
    render_figure(&thin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_costmodel::paper_figures;

    #[test]
    fn renders_every_paper_figure() {
        for fig in paper_figures() {
            let text = render_figure(&fig);
            assert!(text.contains(&fig.id));
            assert!(text.lines().count() > 10);
        }
    }

    #[test]
    fn sparse_rendering_thins_rows() {
        let figs = paper_figures();
        let full = render_figure(&figs[0]).lines().count();
        let sparse = render_figure_sparse(&figs[0], 5).lines().count();
        assert!(sparse < full);
    }
}
