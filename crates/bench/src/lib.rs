//! # classilink-bench
//!
//! The learner configuration `linkbench/` (the repository's one timing
//! harness, see `BENCHMARK.json`) imports by path, and
//! `history/BENCH_pr*.json`, a retired mean-only series kept as a record.
//! The experiments live in `classilink-eval` (see the experiment index in
//! its crate docs).

#![forbid(unsafe_code)]

use classilink_core::{LearnerConfig, PropertySelection};
use classilink_datagen::vocab;

/// The paper's learner configuration: `th = 0.002`, restricted to the
/// provider part-number property (the expert's choice in the paper).
pub fn paper_learner() -> LearnerConfig {
    LearnerConfig::paper().with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_learner_uses_the_provider_part_number() {
        let cfg = paper_learner();
        assert_eq!(cfg.support_threshold, 0.002);
        assert!(cfg.properties.includes(vocab::PROVIDER_PART_NUMBER));
        assert!(!cfg.properties.includes(vocab::PROVIDER_MANUFACTURER));
    }
}
