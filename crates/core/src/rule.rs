//! Value-based classification rules.
//!
//! A rule has the form of the paper's section 4.1:
//!
//! ```text
//! p(X, Y) ∧ subsegment(Y, a) ⇒ c(X)
//! ```
//!
//! "where `subsegment(Y, a)` expresses that the segment `a` occurs at least
//! one time in the value `Y`". Each rule carries the quality measures
//! computed over the training set.

use crate::measures::RuleQuality;
use classilink_ontology::ClassId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A value-based classification rule with its quality measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassificationRule {
    /// The IRI of the data-type property `p` of the premise.
    pub property: String,
    /// The segment `a` that must occur in the property value.
    pub segment: String,
    /// The id of the concluded class `c` in the local ontology.
    pub class: ClassId,
    /// The IRI of the concluded class (kept alongside the id so rules remain
    /// readable when serialised on their own).
    pub class_iri: String,
    /// A human-readable label of the concluded class.
    pub class_label: String,
    /// Quality measures of the rule over the training set.
    pub quality: RuleQuality,
}

impl ClassificationRule {
    /// The rule's support over the training set.
    pub fn support(&self) -> f64 {
        self.quality.support
    }

    /// The rule's confidence over the training set.
    pub fn confidence(&self) -> f64 {
        self.quality.confidence
    }

    /// The rule's lift over the training set.
    pub fn lift(&self) -> f64 {
        self.quality.lift
    }

    /// The paper's logical notation for the rule.
    pub fn logical_form(&self) -> String {
        format!(
            "{}(X,Y) ∧ subsegment(Y,\"{}\") ⇒ {}(X)",
            local_name(&self.property),
            self.segment,
            local_name(&self.class_iri),
        )
    }

    /// Ordering used when ranking rules: confidence first, then lift (the
    /// paper: "the confidence degree is used first. In case of the same
    /// confidence degree, the lift measure is used"), then support, then a
    /// deterministic textual tie-break.
    pub fn ranking_cmp(&self, other: &Self) -> Ordering {
        other
            .confidence()
            .partial_cmp(&self.confidence())
            .unwrap_or(Ordering::Equal)
            .then(
                other
                    .lift()
                    .partial_cmp(&self.lift())
                    .unwrap_or(Ordering::Equal),
            )
            .then(
                other
                    .support()
                    .partial_cmp(&self.support())
                    .unwrap_or(Ordering::Equal),
            )
            .then_with(|| self.property.cmp(&other.property))
            .then_with(|| self.segment.cmp(&other.segment))
            .then_with(|| self.class_iri.cmp(&other.class_iri))
    }
}

impl fmt::Display for ClassificationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}  [sup={:.4}, conf={:.3}, lift={:.1}]",
            self.logical_form(),
            self.support(),
            self.confidence(),
            self.lift(),
        )
    }
}

fn local_name(iri: &str) -> &str {
    iri.rsplit_once('#')
        .map(|(_, l)| l)
        .or_else(|| iri.rsplit_once('/').map(|(_, l)| l))
        .unwrap_or(iri)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::Contingency;

    fn rule(segment: &str, conf_both: u64, premise: u64) -> ClassificationRule {
        ClassificationRule {
            property: "http://e.org/v#partNumber".to_string(),
            segment: segment.to_string(),
            class: ClassId(3),
            class_iri: "http://e.org/c#FixedFilmResistor".to_string(),
            class_label: "Fixed film resistor".to_string(),
            quality: Contingency::new(1000, premise, 100, conf_both).quality(),
        }
    }

    #[test]
    fn logical_form_matches_paper_notation() {
        let r = rule("ohm", 45, 50);
        assert_eq!(
            r.logical_form(),
            "partNumber(X,Y) ∧ subsegment(Y,\"ohm\") ⇒ FixedFilmResistor(X)"
        );
        let shown = r.to_string();
        assert!(shown.contains("conf=0.900"));
        assert!(shown.contains("lift=9.0"));
    }

    #[test]
    fn accessors_mirror_quality() {
        let r = rule("63V", 40, 50);
        assert_eq!(r.support(), 0.04);
        assert_eq!(r.confidence(), 0.8);
        assert_eq!(r.lift(), 8.0);
    }

    #[test]
    fn ranking_prefers_confidence_then_lift() {
        let high_conf = rule("a", 50, 50); // conf 1.0, lift 10
        let low_conf_high_lift = rule("b", 45, 50); // conf 0.9, lift 9
        assert_eq!(high_conf.ranking_cmp(&low_conf_high_lift), Ordering::Less);
        assert_eq!(
            low_conf_high_lift.ranking_cmp(&high_conf),
            Ordering::Greater
        );

        // Same confidence but different premise size → different support,
        // lift identical → support breaks the tie.
        let mut small = rule("c", 9, 10); // conf 0.9, lift 9, support 0.009
        small.quality = Contingency::new(1000, 10, 100, 9).quality();
        let big = rule("d", 45, 50); // conf 0.9, lift 9, support 0.045
        assert_eq!(big.ranking_cmp(&small), Ordering::Less);
    }

    #[test]
    fn ranking_is_deterministic_on_full_ties() {
        let a = rule("aaa", 45, 50);
        let b = rule("bbb", 45, 50);
        assert_eq!(a.ranking_cmp(&b), Ordering::Less);
        assert_eq!(b.ranking_cmp(&a), Ordering::Greater);
        assert_eq!(a.ranking_cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn local_name_handles_slash_iris() {
        let mut r = rule("x", 1, 1);
        r.class_iri = "http://e.org/classes/Capacitor".to_string();
        r.property = "urn:partnumber".to_string();
        assert!(r.logical_form().contains("Capacitor(X)"));
        assert!(r.logical_form().contains("urn:partnumber(X,Y)"));
    }
}
