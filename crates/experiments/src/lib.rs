//! Experiment harnesses regenerating every table and figure of the VarSaw
//! paper's evaluation.
//!
//! Each experiment id accepted by the `experiments` binary (`table1`…
//! `table5`, `fig6`…`fig19`, the ablations, or `all`) maps to a function
//! in [`exps`]; [`harness`] holds the shared setup/trial plumbing and the
//! `--full` scaling knobs, [`config`] the trial fan-out's worker count
//! (`VARSAW_NUM_THREADS`), and [`report`] renders aligned text tables and
//! CSV files.
//!
//! # Example
//!
//! ```
//! use experiments::report::Table;
//!
//! let mut t = Table::new(["method", "energy"]);
//! t.row(["baseline", "-0.912"]).row(["varsaw", "-1.388"]);
//! let rendered = t.render();
//! assert!(rendered.contains("baseline") && rendered.contains("varsaw"));
//! ```

pub mod config;
pub mod exps;
pub mod harness;
pub mod report;

#[cfg(test)]
mod tests {
    use crate::harness::parallel_map;

    // Earlier items cost more, so workers finish out of input order; the
    // results (owned, non-`Copy`) must still come back in input order.
    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..200u64).collect(), |&x| {
            let spin =
                (0..(200 - x) * 100).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i)));
            std::hint::black_box(spin);
            format!("item-{x}")
        });
        assert_eq!(
            out,
            (0..200).map(|x| format!("item-{x}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            x
        });
        assert!(out.is_empty());
        assert_eq!(
            calls.into_inner(),
            0,
            "the closure never runs on an empty input"
        );
    }
}
