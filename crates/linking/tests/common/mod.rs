//! The harness every integration suite of this directory shares (each
//! suite is its own crate and uses a subset, hence the `dead_code` allow):
//!
//! * [`oracle`] — the one naive oracle: the candidate references of the
//!   five blockers and the `similarity::naive` scorer;
//! * [`catalog`] — the one proptest catalog strategy;
//! * [`matrix`] — the one check of the identity chain (probe ≡ batch
//!   slice ≡ delta slice ≡ restored catalog ≡ serial run), blocker ×
//!   comparator, and the list of mutations it is known to catch;
//! * the generated-scenario fixtures — the [`tiny`] scenario (generated
//!   once per test binary), blocking [`key`], the four [`comparators`],
//!   learnt [`classifier`];
//! * the fault-suite plumbing — [`serial`], [`quiet_injected_panics`],
//!   `Armed`, [`fresh_dir`] (`fault_injection`, `persist_fault`,
//!   `persist_recovery`, `probe_concurrency`).
//!
//! A fixture two suites need goes here, not into a second copy.

#![allow(dead_code)]

pub mod catalog;
pub mod matrix;
pub mod oracle;

use classilink_core::{LearnerConfig, PropertySelection, RuleClassifier, RuleLearner};
use classilink_datagen::scenario::{generate, GeneratedScenario, ScenarioConfig};
use classilink_datagen::vocab;
use classilink_linking::blocking::BlockingKey;
use classilink_linking::{AttributeRule, RecordComparator, SimilarityMeasure};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// The tiny generated scenario (200 catalog products, 150 provider
/// items, realistic part numbers and perturbations), generated once per
/// test binary.
pub fn tiny() -> &'static GeneratedScenario {
    static TINY: OnceLock<GeneratedScenario> = OnceLock::new();
    TINY.get_or_init(|| generate(&ScenarioConfig::tiny()))
}

/// Provider reference against catalog part number, on a `prefix`-char key
/// (0 = the whole value).
pub fn key(prefix: usize) -> BlockingKey {
    BlockingKey::per_side(
        vocab::PROVIDER_PART_NUMBER,
        vocab::LOCAL_PART_NUMBER,
        prefix,
    )
}

const PART_NUMBER: (&str, &str) = (vocab::PROVIDER_PART_NUMBER, vocab::LOCAL_PART_NUMBER);
const MAKER: (&str, &str) = (vocab::PROVIDER_MANUFACTURER, vocab::LOCAL_MANUFACTURER);
const MAKER_LABEL: (&str, &str) = (vocab::PROVIDER_MANUFACTURER, vocab::LOCAL_LABEL);

/// A comparator of `(properties, measure, weight)` rules.
fn weighted(rules: &[((&str, &str), SimilarityMeasure, f64)]) -> RecordComparator {
    let rule = |&((left, right), measure, weight): &((&str, &str), _, _)| AttributeRule {
        left_property: left.to_string(),
        right_property: right.to_string(),
        measure,
        weight,
    };
    RecordComparator::new(rules.iter().map(rule).collect())
}

/// Three rules, non-match below 0.6: most candidates end up links, so the
/// non-match filter almost never fires.
pub fn comparator() -> RecordComparator {
    use SimilarityMeasure::*;
    weighted(&[
        (PART_NUMBER, JaroWinkler, 3.0),
        (PART_NUMBER, DiceBigrams, 1.0),
        (MAKER, JaccardTokens, 1.0),
    ])
    .with_thresholds(0.92, 0.6)
}

/// The kernel-swap comparator: the string kernels (Jaro-Winkler,
/// Levenshtein) and the token-table kernels (Dice bigrams, Jaccard
/// tokens, Monge-Elkan) over part number, manufacturer and label.
pub fn five_rule() -> RecordComparator {
    use SimilarityMeasure::*;
    weighted(&[
        (PART_NUMBER, JaroWinkler, 3.0),
        (PART_NUMBER, Levenshtein, 2.0),
        (PART_NUMBER, DiceBigrams, 1.0),
        (MAKER, JaccardTokens, 1.0),
        (MAKER_LABEL, MongeElkan, 0.5),
    ])
    .with_thresholds(0.92, 0.6)
}

/// `linkbench`'s `jw95`: one Jaro-Winkler rule, match ≥ 0.95, possible ≥
/// 0.90 — the filter rejects most candidates on the bound alone.
pub fn jw95() -> RecordComparator {
    weighted(&[(PART_NUMBER, SimilarityMeasure::JaroWinkler, 1.0)]).with_thresholds(0.95, 0.90)
}

/// A string rule and a set rule (0.8 Jaro-Winkler + 0.2 token Jaccard):
/// what the first rule needs depends on what the second could still add.
pub fn jw_jaccard() -> RecordComparator {
    use SimilarityMeasure::*;
    weighted(&[(PART_NUMBER, JaroWinkler, 0.8), (MAKER, JaccardTokens, 0.2)])
        .with_thresholds(0.95, 0.90)
}

/// The matrix's comparator columns.
pub fn comparators() -> [(&'static str, RecordComparator); 4] {
    [
        ("five-rule", five_rule()),
        ("three-rule", comparator()),
        ("jw95", jw95()),
        ("jw+jaccard", jw_jaccard()),
    ]
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
