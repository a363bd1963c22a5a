//! # tagbreathe-bench
//!
//! The experiment harness of the TagBreathe reproduction: one function per
//! table/figure of the paper (plus the ablations listed in DESIGN.md), each
//! returning a renderable [`table::Table`]. The `repro` binary drives them
//! from the command line:
//!
//! ```text
//! cargo run -p tagbreathe-bench --bin repro --release -- fig12
//! cargo run -p tagbreathe-bench --bin repro --release -- all --full
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod characterization;
pub mod evaluation;
pub mod fleet;
pub mod harness;
pub mod table;

pub use harness::TrialSetup;
pub use table::Table;

/// Every experiment id the harness knows, in presentation order.
pub const EXPERIMENT_IDS: [&str; 25] = [
    "tab1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "headline",
    "ablate-fusion",
    "ablate-filter",
    "ablate-estimator",
    "ablate-primitive",
    "ablate-tags",
    "ablate-preprocess",
    "ablate-select",
    "ablate-session",
    "ablate-power",
    "ablate-propagation",
];

/// Runs one experiment by id.
///
/// `series` dumps raw data series for the characterisation figures.
///
/// # Errors
///
/// Returns an error message for an unknown id.
pub fn run_experiment(id: &str, setup: TrialSetup, series: bool) -> Result<Table, String> {
    let seed = 1;
    Ok(match id {
        "tab1" => evaluation::tab1(),
        "fig2" => characterization::fig2(seed, series),
        "fig3" => characterization::fig3(seed, series),
        "fig4" => characterization::fig4(seed, series),
        "fig5" => characterization::fig5(seed, series),
        "fig6" => characterization::fig6(seed, series),
        "fig7" => characterization::fig7(seed, series),
        "fig8" => characterization::fig8(seed, series),
        "fig12" => evaluation::fig12(setup),
        "fig13" => evaluation::fig13(setup),
        "fig14" => evaluation::fig14(setup),
        "fig15" => evaluation::fig15(setup),
        "fig16" => evaluation::fig16(setup),
        "fig17" => evaluation::fig17(setup),
        "headline" => ablation::headline_error(setup),
        "ablate-fusion" => ablation::ablate_fusion(setup),
        "ablate-filter" => ablation::ablate_filter(setup),
        "ablate-estimator" => ablation::ablate_estimator(setup),
        "ablate-primitive" => ablation::ablate_primitive(setup),
        "ablate-tags" => ablation::ablate_tags(setup),
        "ablate-preprocess" => ablation::ablate_preprocess(setup),
        "ablate-select" => ablation::ablate_select(setup),
        "ablate-session" => ablation::ablate_session(setup),
        "ablate-power" => ablation::ablate_power(setup),
        "ablate-propagation" => ablation::ablate_propagation(setup),
        other => return Err(format!("unknown experiment id {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_runs() {
        // tab1 and the characterisation figures are cheap enough to run
        // for real; sweep figures are exercised by their own smoke tests.
        for id in ["tab1", "fig2", "fig5"] {
            assert!(run_experiment(id, TrialSetup::smoke(), false).is_ok());
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        let err = run_experiment("fig99", TrialSetup::smoke(), false).unwrap_err();
        assert!(err.contains("fig99"));
    }

    #[test]
    fn id_list_has_no_duplicates() {
        let mut ids = EXPERIMENT_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len());
    }
}
