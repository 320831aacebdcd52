//! Confidence tiers over ranked rules (section 4.4 of the paper).
//!
//! "The above quality measures are used to rank the obtained subspaces for
//! each data item of SE. More precisely, the confidence degree is used first.
//! In case of the same confidence degree, the lift measure is used in order
//! to consider first the smaller subspaces. […] the application of two
//! different rules may lead to the same linking subspace. In this case, we
//! ignore the one that is obtained by the rule having the worst confidence
//! degree."
//!
//! The ranking itself is [`ClassificationRule::ranking_cmp`] (the learner
//! sorts with it) and the per-class deduplication happens where rules are
//! applied ([`RuleClassifier`](crate::RuleClassifier) keeps the best rule
//! per predicted class); this module groups ranked rules into the tiers of
//! Table 1.

use crate::rule::ClassificationRule;

/// Group rules by descending confidence tier. `thresholds` must be sorted in
/// descending order (e.g. `[1.0, 0.8, 0.6, 0.4]` as in Table 1); a rule falls
/// into the first tier whose threshold it reaches. Rules below every
/// threshold are dropped. Returns one `(threshold, rules)` entry per tier.
pub fn group_by_confidence_tiers<'a>(
    rules: &'a [ClassificationRule],
    thresholds: &[f64],
) -> Vec<(f64, Vec<&'a ClassificationRule>)> {
    let mut tiers: Vec<(f64, Vec<&ClassificationRule>)> =
        thresholds.iter().map(|t| (*t, Vec::new())).collect();
    for rule in rules {
        for (threshold, bucket) in tiers.iter_mut() {
            if rule.confidence() >= *threshold - 1e-12 {
                bucket.push(rule);
                break;
            }
        }
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::Contingency;
    use classilink_ontology::ClassId;

    fn rule(segment: &str, class: u32, premise: u64, both: u64) -> ClassificationRule {
        ClassificationRule {
            property: "http://e.org/v#pn".to_string(),
            segment: segment.to_string(),
            class: ClassId(class),
            class_iri: format!("http://e.org/c#C{class}"),
            class_label: format!("C{class}"),
            quality: Contingency::new(1000, premise, 100, both).quality(),
        }
    }

    #[test]
    fn tiers_follow_table_one_structure() {
        let rules = vec![
            rule("a", 1, 50, 50),   // 1.0
            rule("b", 2, 100, 100), // 1.0
            rule("c", 3, 100, 85),  // 0.85
            rule("d", 4, 100, 65),  // 0.65
            rule("e", 5, 100, 45),  // 0.45
            rule("f", 6, 100, 10),  // 0.1 → dropped
        ];
        let tiers = group_by_confidence_tiers(&rules, &[1.0, 0.8, 0.6, 0.4]);
        assert_eq!(tiers.len(), 4);
        assert_eq!(tiers[0].0, 1.0);
        assert_eq!(tiers[0].1.len(), 2);
        assert_eq!(tiers[1].1.len(), 1);
        assert_eq!(tiers[2].1.len(), 1);
        assert_eq!(tiers[3].1.len(), 1);
        let total: usize = tiers.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn tier_boundaries_are_inclusive() {
        let rules = vec![rule("exact", 1, 100, 80)]; // exactly 0.8
        let tiers = group_by_confidence_tiers(&rules, &[1.0, 0.8]);
        assert!(tiers[0].1.is_empty());
        assert_eq!(tiers[1].1.len(), 1);
    }

    #[test]
    fn empty_thresholds_drop_everything() {
        let rules = vec![rule("a", 1, 50, 50)];
        assert!(group_by_confidence_tiers(&rules, &[]).is_empty());
    }
}
