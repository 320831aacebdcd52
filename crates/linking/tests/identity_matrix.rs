//! The identity chain as one matrix: every built-in blocker × every
//! comparator column, over catalogs of {1, 3, 8} base shards with a
//! two-shard delta appended, held to the naive oracle by
//! [`matrix::check`](common::matrix::check) — on the tiny generated
//! scenario and on generated catalogs (the property test).

use classilink_linking::RecordStore;
use proptest::prelude::*;

mod common;
use common::matrix::{self, kinds, Demand, Layout};
use common::oracle::Rules;
use common::{catalog, classifier, comparators, tiny};

/// The tiny scenario's matrix: every cell non-vacuous.
#[test]
fn tiny_scenario_matrix() {
    let scenario = tiny();
    let classifier = classifier(scenario);
    let records = scenario.local_store().to_records();
    let layouts = [1, 3, 8].map(|shards| Layout::split(&records, shards));
    matrix::check(
        &scenario.external_store(),
        Rules::of(scenario, &classifier),
        &kinds(4, 7, 0.5),
        (&layouts, true),
        &comparators(),
        Demand::Links,
    );
}

proptest! {
    /// Generated catalogs (see `common::catalog`), each under one
    /// comparator column and its own blocker parameters; one case in
    /// eight restores its catalog from a snapshot.
    #[test]
    fn prop_generated_catalogs_hold_the_chain(
        case in catalog::strategy(),
        prefix in 0usize..6,
        window in 2usize..12,
        threshold in 0usize..5,
        column in 0usize..4,
        restore in 0usize..8,
    ) {
        let threshold = [0.0, 0.2, 0.5, 0.9, 1.0][threshold];
        matrix::check(
            &RecordStore::from_records(&case.externals),
            case.rules(),
            &kinds(prefix, window, threshold),
            (&[case.layout()], restore == 0),
            &comparators()[column..=column],
            Demand::Nothing,
        );
    }
}
