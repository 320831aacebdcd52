//! Classification metrics for rule-based class prediction.
//!
//! Table 1 of the paper reports, per confidence tier, the number of
//! *decisions* (items for which at least one rule fired), the *precision*
//! (fraction of decisions whose predicted class is the item's actual class)
//! and the *recall* (fraction of all items that were correctly classified).
//! [`ClassificationOutcome`] accumulates those counts.

use classilink_ontology::ClassId;
use std::collections::BTreeMap;

/// Aggregated outcome of classifying a set of items with known gold classes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassificationOutcome {
    /// Total number of items presented to the classifier.
    pub total_items: usize,
    /// Items for which at least one rule fired (a "decision" was made).
    pub decisions: usize,
    /// Decisions whose top predicted class equals the gold class.
    pub correct: usize,
    /// Per-gold-class counts: `(decisions, correct)`.
    pub per_class: BTreeMap<ClassId, (usize, usize)>,
}

impl ClassificationOutcome {
    /// Start an empty tally over `total_items` items.
    pub fn new(total_items: usize) -> Self {
        ClassificationOutcome {
            total_items,
            ..Default::default()
        }
    }

    /// Record one item: `predicted` is the classifier's top class (if any),
    /// `gold` the item's actual class (if known).
    pub fn record(&mut self, predicted: Option<ClassId>, gold: Option<ClassId>) {
        let Some(predicted) = predicted else {
            return; // no decision made
        };
        self.decisions += 1;
        if let Some(gold) = gold {
            let entry = self.per_class.entry(gold).or_insert((0, 0));
            entry.0 += 1;
            if predicted == gold {
                self.correct += 1;
                entry.1 += 1;
            }
        }
    }

    /// `correct / decisions` (1.0 when no decision was made, mirroring the
    /// convention that an empty rule set makes no mistakes).
    pub fn precision(&self) -> f64 {
        if self.decisions == 0 {
            1.0
        } else {
            self.correct as f64 / self.decisions as f64
        }
    }

    /// `correct / total_items`.
    pub fn recall(&self) -> f64 {
        if self.total_items == 0 {
            0.0
        } else {
            self.correct as f64 / self.total_items as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classification() {
        let mut o = ClassificationOutcome::new(4);
        for i in 0..4 {
            o.record(Some(ClassId(i)), Some(ClassId(i)));
        }
        assert_eq!(o.decisions, 4);
        assert_eq!(o.correct, 4);
        assert_eq!(o.precision(), 1.0);
        assert_eq!(o.recall(), 1.0);
        assert_eq!(o.f1(), 1.0);
    }

    #[test]
    fn partial_coverage_and_errors() {
        let mut o = ClassificationOutcome::new(10);
        // 4 correct decisions, 2 wrong ones, 4 items with no decision.
        for i in 0..4 {
            o.record(
                Some(ClassId(0)),
                Some(if i < 4 { ClassId(0) } else { ClassId(1) }),
            );
        }
        o.record(Some(ClassId(0)), Some(ClassId(1)));
        o.record(Some(ClassId(2)), Some(ClassId(1)));
        for _ in 0..4 {
            o.record(None, Some(ClassId(3)));
        }
        assert_eq!(o.decisions, 6);
        assert_eq!(o.correct, 4);
        assert!((o.precision() - 4.0 / 6.0).abs() < 1e-12);
        assert!((o.recall() - 0.4).abs() < 1e-12);
        assert!(o.f1() > 0.0 && o.f1() < 1.0);
    }

    #[test]
    fn degenerate_cases() {
        let o = ClassificationOutcome::new(0);
        assert_eq!(o.precision(), 1.0);
        assert_eq!(o.recall(), 0.0);
        assert_eq!(o.f1(), 0.0);

        let mut unknown_gold = ClassificationOutcome::new(3);
        unknown_gold.record(Some(ClassId(0)), None);
        assert_eq!(unknown_gold.decisions, 1);
        assert_eq!(unknown_gold.correct, 0);
    }
}
