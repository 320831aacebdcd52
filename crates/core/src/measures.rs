//! Quality measures of classification rules.
//!
//! The paper uses three "well-known quality measures": **support**,
//! **confidence** and **lift** (section 4.2). All three derive from a small
//! contingency table over the training set `TS`:
//!
//! | count | meaning |
//! |---|---|
//! | `n` | `|TS|` — number of training examples (linked pairs) |
//! | `premise` | `|{X : p(X,Y) ∧ subsegment(Y,a)}|` — examples whose value of `p` contains the segment `a` |
//! | `conclusion` | `|{X : c(X)}|` — examples whose local item is an instance of `c` |
//! | `both` | `|{X : p(X,Y) ∧ subsegment(Y,a) ∧ c(X)}|` |
//!
//! With those counts:
//!
//! * `support = both / n` (the paper's definition),
//! * `confidence = both / premise`. (The formula printed in the paper,
//!   `|{X : c(X)}| / |{X : p(X,Y) ∧ subsegment(Y,a)}|`, omits the
//!   conjunction in the numerator; the standard definition it names —
//!   "the proportion of data that are instances of the class … **among** the
//!   data that satisfies the premise" — is the one implemented here.)
//! * `lift = confidence / (conclusion / n)`.

/// Raw contingency counts over the training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Contingency {
    /// `|TS|`: total number of training examples.
    pub n: u64,
    /// Number of examples satisfying the premise `p(X,Y) ∧ subsegment(Y,a)`.
    pub premise: u64,
    /// Number of examples satisfying the conclusion `c(X)`.
    pub conclusion: u64,
    /// Number of examples satisfying premise and conclusion together.
    pub both: u64,
}

impl Contingency {
    /// Create a contingency table, checking basic consistency in debug builds.
    pub fn new(n: u64, premise: u64, conclusion: u64, both: u64) -> Self {
        debug_assert!(premise <= n, "premise count exceeds |TS|");
        debug_assert!(conclusion <= n, "conclusion count exceeds |TS|");
        debug_assert!(both <= premise, "joint count exceeds premise count");
        debug_assert!(both <= conclusion, "joint count exceeds conclusion count");
        Contingency {
            n,
            premise,
            conclusion,
            both,
        }
    }

    /// Derive the paper's three measures. Degenerate cases (empty training
    /// set, empty premise, empty class) yield zeros rather than NaNs.
    pub fn quality(&self) -> RuleQuality {
        let n = self.n as f64;
        let support = if self.n == 0 {
            0.0
        } else {
            self.both as f64 / n
        };
        let confidence = if self.premise == 0 {
            0.0
        } else {
            self.both as f64 / self.premise as f64
        };
        let lift = if self.conclusion == 0 {
            0.0
        } else {
            confidence / (self.conclusion as f64 / n)
        };
        RuleQuality {
            counts: *self,
            support,
            confidence,
            lift,
        }
    }
}

/// The quality measures of one classification rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleQuality {
    /// The raw counts the measures were derived from.
    pub counts: Contingency,
    /// `both / n` — the rule's representativeness in `TS`.
    pub support: f64,
    /// `both / premise` — the rule's precision on `TS`.
    pub confidence: f64,
    /// `confidence / P(c)` — how much more often premise and conclusion
    /// co-occur than under independence. Values above 1 mean the segment is
    /// informative for the class; the paper notes that higher lift also means
    /// a smaller linking subspace.
    pub lift: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_style_example() {
        // 1000 linked pairs; 50 items contain "ohm"; 100 are fixed-film
        // resistors; 45 of the "ohm" items are fixed-film resistors.
        let q = Contingency::new(1000, 50, 100, 45).quality();
        assert!((q.support - 0.045).abs() < 1e-12);
        assert!((q.confidence - 0.9).abs() < 1e-12);
        assert!((q.lift - 9.0).abs() < 1e-12);
    }

    #[test]
    fn a_premise_inside_the_class_has_confidence_one() {
        let q = Contingency::new(100, 10, 20, 10).quality();
        assert_eq!(q.confidence, 1.0);
        assert_eq!(q.lift, 5.0);
    }

    #[test]
    fn independence_has_lift_one() {
        // premise covers 1/2, class covers 1/2, joint exactly 1/4.
        let q = Contingency::new(400, 200, 200, 100).quality();
        assert!((q.lift - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let empty = Contingency::new(0, 0, 0, 0).quality();
        assert_eq!(empty.support, 0.0);
        assert_eq!(empty.confidence, 0.0);
        assert_eq!(empty.lift, 0.0);
        assert!(!empty.support.is_nan());

        let no_premise = Contingency::new(10, 0, 5, 0).quality();
        assert_eq!(no_premise.confidence, 0.0);
        assert_eq!(no_premise.lift, 0.0);

        let no_class = Contingency::new(10, 5, 0, 0).quality();
        assert_eq!(no_class.lift, 0.0);
    }

    proptest! {
        /// For arbitrary consistent counts: all probabilities are within
        /// [0, 1], support ≤ confidence, support ≤ coverage (`premise / n`),
        /// and the identity lift · P(c) = confidence holds.
        #[test]
        fn prop_measure_identities(n in 1u64..500, premise_frac in 0.0f64..1.0,
                                   conclusion_frac in 0.0f64..1.0, both_frac in 0.0f64..1.0) {
            let premise = (premise_frac * n as f64) as u64;
            let conclusion = (conclusion_frac * n as f64) as u64;
            let both = (both_frac * premise.min(conclusion) as f64) as u64;
            let q = Contingency::new(n, premise, conclusion, both).quality();
            let coverage = premise as f64 / n as f64;
            prop_assert!((0.0..=1.0).contains(&q.support));
            prop_assert!((0.0..=1.0).contains(&q.confidence));
            prop_assert!(q.lift >= 0.0);
            prop_assert!(q.support <= q.confidence + 1e-12);
            prop_assert!(q.support <= coverage + 1e-12);
            if conclusion > 0 {
                let p_class = conclusion as f64 / n as f64;
                prop_assert!((q.lift * p_class - q.confidence).abs() < 1e-9);
            }
            // coverage · confidence = support
            prop_assert!((coverage * q.confidence - q.support).abs() < 1e-9);
        }
    }
}
