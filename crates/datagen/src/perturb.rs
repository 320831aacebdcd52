//! String perturbations simulating provider-side rewriting of part numbers.
//!
//! Provider documents rarely spell a part number exactly as the catalog
//! does: separators change, case changes, characters are dropped or typo'd,
//! suffixes are added. These perturbations exercise the similarity measures
//! of the linking pipeline while keeping the segments that the learnt rules
//! rely on mostly intact.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Probabilities of each perturbation applied to a provider-side value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerturbationConfig {
    /// Probability of swapping the separator characters (`-` ↔ `.` / `_`).
    pub separator_swap: f64,
    /// Probability of lower-casing the whole value.
    pub lowercase: f64,
    /// Probability of introducing one character typo (substitution).
    pub typo: f64,
    /// Probability of appending a provider-specific suffix (e.g. `-TR`,
    /// `/REEL`).
    pub suffix: f64,
    /// Probability of dropping one whole segment.
    pub drop_segment: f64,
}

impl Default for PerturbationConfig {
    fn default() -> Self {
        PerturbationConfig {
            separator_swap: 0.3,
            lowercase: 0.2,
            typo: 0.1,
            suffix: 0.25,
            drop_segment: 0.05,
        }
    }
}

impl PerturbationConfig {
    /// Apply the configured perturbations to `value` using `rng`.
    pub fn apply(&self, value: &str, rng: &mut StdRng) -> String {
        let mut out = value.to_string();
        if rng.gen_bool(self.separator_swap.clamp(0.0, 1.0)) {
            let replacement = *["_", ".", " ", "/"]
                .get(rng.gen_range(0..4usize))
                .expect("index in range");
            out = out.replace('-', replacement);
        }
        if rng.gen_bool(self.lowercase.clamp(0.0, 1.0)) {
            out = out.to_lowercase();
        }
        if rng.gen_bool(self.typo.clamp(0.0, 1.0)) && !out.is_empty() {
            let chars: Vec<char> = out.chars().collect();
            let pos = rng.gen_range(0..chars.len());
            // Substitute with a random alphanumeric character.
            let substitutes = "abcdefghijklmnopqrstuvwxyz0123456789";
            let sub = substitutes
                .chars()
                .nth(rng.gen_range(0..substitutes.len()))
                .expect("index in range");
            let mut new: String = chars[..pos].iter().collect();
            new.push(sub);
            new.extend(&chars[pos + 1..]);
            out = new;
        }
        if rng.gen_bool(self.suffix.clamp(0.0, 1.0)) {
            let suffix = ["-TR", "-RL", "/REEL", "-T1", "-BULK"][rng.gen_range(0..5usize)];
            out.push_str(suffix);
        }
        if rng.gen_bool(self.drop_segment.clamp(0.0, 1.0)) {
            let parts: Vec<&str> = out.split('-').collect();
            if parts.len() > 2 {
                let drop = rng.gen_range(1..parts.len());
                let kept: Vec<&str> = parts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| (i != drop).then_some(*p))
                    .collect();
                out = kept.join("-");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_rates_are_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PerturbationConfig {
            separator_swap: 0.0,
            lowercase: 0.0,
            typo: 0.0,
            suffix: 0.0,
            drop_segment: 0.0,
        };
        for value in ["CRCW0805-10K-5%-63V", "T83A225", ""] {
            assert_eq!(cfg.apply(value, &mut rng), value);
        }
    }

    #[test]
    fn perturbations_are_deterministic_under_a_seed() {
        let cfg = PerturbationConfig::default();
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        for value in ["CRCW0805-10K-5-63V", "T83-A225-25V", "LM317-TO220"] {
            assert_eq!(cfg.apply(value, &mut rng1), cfg.apply(value, &mut rng2));
        }
    }

    #[test]
    fn aggressive_config_changes_values() {
        let cfg = PerturbationConfig {
            separator_swap: 1.0,
            lowercase: 1.0,
            typo: 1.0,
            suffix: 1.0,
            drop_segment: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let out = cfg.apply("CRCW0805-10K-63V", &mut rng);
        assert_ne!(out, "CRCW0805-10K-63V");
        // The suffix (applied after lower-casing) keeps its own case; the
        // original part of the value must have been lower-cased.
        let original_part = &out[..out.len().min("CRCW0805-10K-63V".len())];
        assert_eq!(original_part, original_part.to_lowercase());
        // A packaging suffix was appended.
        assert!(out.len() > "CRCW0805-10K-63V".len() - 4);
    }

    #[test]
    fn drop_segment_removes_one_dash_separated_part() {
        let cfg = PerturbationConfig {
            separator_swap: 0.0,
            lowercase: 0.0,
            typo: 0.0,
            suffix: 0.0,
            drop_segment: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let out = cfg.apply("A-B-C-D", &mut rng);
        assert_eq!(out.split('-').count(), 3);
        // Values with at most two segments are left intact.
        assert_eq!(cfg.apply("A-B", &mut rng), "A-B");
    }

    #[test]
    fn typo_preserves_length() {
        let cfg = PerturbationConfig {
            separator_swap: 0.0,
            lowercase: 0.0,
            typo: 1.0,
            suffix: 0.0,
            drop_segment: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let input = "CRCW0805";
        let out = cfg.apply(input, &mut rng);
        assert_eq!(out.chars().count(), input.chars().count());
    }
}
