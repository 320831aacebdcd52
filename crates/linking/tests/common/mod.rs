//! Fixtures shared by the integration suites of this directory (each
//! suite is its own crate and uses a subset, hence the `dead_code` allow):
//!
//! * the generated-scenario set — blocking [`key`], three-rule
//!   [`comparator`], learnt [`classifier`], links as [`bits`]
//!   (`delta_linking`, `probe_equivalence`, `persist_recovery`,
//!   `streaming_blocking`);
//! * [`rule_setup`], a hand-built rule blocker input (`shard_router`,
//!   `store_engine`);
//! * the fault-suite plumbing — [`serial`], [`quiet_injected_panics`],
//!   `Armed`, [`fresh_dir`] (`fault_injection`, `persist_fault`,
//!   `persist_recovery`, `probe_concurrency`).

#![allow(dead_code)]

use classilink_core::{
    ClassificationRule, Contingency, LearnerConfig, PropertySelection, RuleClassifier, RuleLearner,
};
use classilink_datagen::scenario::GeneratedScenario;
use classilink_datagen::vocab;
use classilink_linking::blocking::BlockingKey;
use classilink_linking::pipeline::Link;
use classilink_linking::{AttributeRule, RecordComparator, SimilarityMeasure};
use classilink_ontology::{InstanceStore, Ontology, OntologyBuilder};
use classilink_rdf::Term;
use classilink_segment::SegmenterKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// Provider reference against catalog part number, on a `prefix`-char key
/// (0 = the whole value).
pub fn key(prefix: usize) -> BlockingKey {
    BlockingKey::per_side(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        prefix,
    )
}

/// Three rules, non-match below 0.6: most candidates end up links, so the
/// non-match filter almost never fires.
pub fn comparator() -> RecordComparator {
    let rule = |left: &str, right: &str, measure, weight| AttributeRule {
        left_property: left.to_string(),
        right_property: right.to_string(),
        measure,
        weight,
    };
    RecordComparator::new(vec![
        rule(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::JaroWinkler,
            3.0,
        ),
        rule(
            vocab::PROVIDER_PART_NUMBER,
            vocab::LOCAL_PART_NUMBER,
            SimilarityMeasure::DiceBigrams,
            1.0,
        ),
        rule(
            vocab::PROVIDER_MANUFACTURER,
            vocab::LOCAL_MANUFACTURER,
            SimilarityMeasure::JaccardTokens,
            1.0,
        ),
    ])
    .with_thresholds(0.92, 0.6)
}

/// Learn rules on the provider part number and keep those of confidence
/// at least `min_confidence`.
pub fn learn_classifier(
    scenario: &GeneratedScenario,
    support_threshold: f64,
    min_confidence: f64,
) -> RuleClassifier {
    let learner = LearnerConfig::default()
        .with_support_threshold(support_threshold)
        .with_properties(PropertySelection::single(vocab::PROVIDER_PART_NUMBER));
    let outcome = RuleLearner::new(learner.clone())
        .learn(&scenario.training, &scenario.ontology)
        .expect("rule learning on the generated scenario");
    RuleClassifier::from_outcome(&outcome, &learner).with_min_confidence(min_confidence)
}

/// The tiny scenario's classifier: `th = 0.01`, confidence ≥ 0.4.
pub fn classifier(scenario: &GeneratedScenario) -> RuleClassifier {
    learn_classifier(scenario, 0.01, 0.4)
}

/// A link as comparable data: terms verbatim, score as raw bits — any
/// score divergence between two paths, however small, fails the equality.
pub fn bits(link: &Link) -> (String, String, u64) {
    (
        format!("{:?}", link.external),
        format!("{:?}", link.local),
        link.score.to_bits(),
    )
}

/// An ontology, the class assertions of a `catalog`-record store whose
/// ids are `http://local.e.org/prod/{i}` (every even record is a
/// resistor) and 20 rules mapping the `cr0000`… segments of
/// `http://provider.e.org/v#ref` there. The segments won't all fire, so
/// callers enable the fallback to exercise dense output.
pub fn rule_setup(catalog: usize) -> (Ontology, InstanceStore, RuleClassifier) {
    let mut b = OntologyBuilder::new("http://e.org/c#");
    let root = b.class("Component", None);
    let resistor = b.class("Resistor", Some(root));
    let onto = b.build();
    let mut instances = InstanceStore::new();
    for i in (0..catalog).step_by(2) {
        instances.assert_type(&Term::iri(format!("http://local.e.org/prod/{i}")), resistor);
    }
    let rules = (0..20)
        .map(|i| ClassificationRule {
            property: "http://provider.e.org/v#ref".to_string(),
            segment: format!("cr{i:04}"),
            class: resistor,
            class_iri: "http://e.org/c#Resistor".to_string(),
            class_label: "Resistor".to_string(),
            quality: Contingency::new(100, 10, 20, 10).quality(),
        })
        .collect();
    (
        onto,
        instances,
        RuleClassifier::new(rules, SegmenterKind::Separator),
    )
}

/// The failpoint registry (and the panic hook) are process-global: every
/// test touching them serialises on this lock so one test's armed sites
/// never leak into another.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Silence the default panic hook for *injected* panics (payloads from
/// `shims/fail` contain "failpoint"), so a green chaos run doesn't spray
/// dozens of backtraces; real, unexpected panics still print.
pub fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.contains("failpoint"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Arms a failpoint for the guard's lifetime (disarmed even when the test
/// body panics, so a failure never leaks an armed site into the next test).
#[cfg(feature = "failpoints")]
pub struct Armed(&'static str);

#[cfg(feature = "failpoints")]
impl Armed {
    pub fn new(site: &'static str, actions: &str) -> Self {
        fail::cfg(site, actions).unwrap_or_else(|e| panic!("arming {site}: {e}"));
        Armed(site)
    }
}

#[cfg(feature = "failpoints")]
impl Drop for Armed {
    fn drop(&mut self) {
        fail::remove(self.0);
    }
}

/// A unique, initially-absent scratch directory (left behind only when
/// the test fails, for post-mortem).
pub fn fresh_dir(tag: &str) -> PathBuf {
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "classilink_test_{}_{}_{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
