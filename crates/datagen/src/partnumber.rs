//! Part-number generation.
//!
//! The paper's evaluation hinges on one observation: "this part-number is
//! alphanumeric and contains pieces of information that can be useful to the
//! linking process" — some segments identify the product class (`CRCW0805`,
//! `T83`, `ohm`, `63V`), others are serial/packaging noise. The generator
//! below produces part numbers with exactly that structure, with tunable
//! probabilities so the learnt rules span the whole confidence range of
//! Table 1:
//!
//! * **strong** segments appear only in one class → confidence-1 rules;
//! * **family** segments are shared by the sibling classes of a family →
//!   mid-confidence rules (and candidates for subsumption generalisation);
//! * **global** segments appear everywhere → lift ≈ 1 rules;
//! * a random serial segment is unique per product → pruned by the support
//!   threshold.

use crate::taxonomy::LeafProfile;
use rand::rngs::StdRng;
use rand::Rng;

/// Probabilities controlling which segments a part number contains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartNumberConfig {
    /// Probability that the part number contains one of the class's strong
    /// (class-unique) segments. Drives the recall of the confidence-1 rules
    /// (≈ 29 % in the paper's Table 1). The first strong token (the series
    /// code) is chosen 85 % of the time, the remaining class-unique codes
    /// share the rest.
    pub p_strong: f64,
    /// Probability that it contains a subfamily-shared segment (shared by a
    /// handful of sibling classes → the mid-confidence rules).
    pub p_subfamily: f64,
    /// Probability that it contains a family-shared segment.
    pub p_family: f64,
    /// Probability that it contains a global (noise) segment.
    pub p_global: f64,
    /// Probability of a second family segment (units + voltage, say).
    pub p_second_family: f64,
}

impl Default for PartNumberConfig {
    fn default() -> Self {
        PartNumberConfig {
            p_strong: 0.5,
            p_subfamily: 0.45,
            p_family: 0.55,
            p_global: 0.30,
            p_second_family: 0.25,
        }
    }
}

/// Generates part numbers for leaf classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartNumberGenerator {
    /// The segment-inclusion probabilities.
    pub config: PartNumberConfig,
}

impl PartNumberGenerator {
    /// A generator with the given configuration.
    pub fn new(config: PartNumberConfig) -> Self {
        PartNumberGenerator { config }
    }

    /// Generate one part number for a product of the given leaf class.
    /// `serial` should be unique per product (it becomes the never-frequent
    /// segment).
    pub fn generate(&self, profile: &LeafProfile, serial: usize, rng: &mut StdRng) -> String {
        let mut segments: Vec<String> = Vec::with_capacity(6);
        if rng.gen_bool(self.config.p_strong.clamp(0.0, 1.0)) && !profile.strong_tokens.is_empty() {
            // The series code (first strong token) dominates, as real part
            // numbers almost always lead with the manufacturer series; the
            // other class-unique codes appear occasionally.
            let i = if profile.strong_tokens.len() == 1 || rng.gen_bool(0.85) {
                0
            } else {
                1 + rng.gen_range(0..profile.strong_tokens.len() - 1)
            };
            segments.push(profile.strong_tokens[i].clone());
        }
        // A unique serial segment is always present (providers always have
        // some product-specific identifier).
        segments.push(format!("{}{:05X}", random_letter(rng), serial));
        if rng.gen_bool(self.config.p_subfamily.clamp(0.0, 1.0))
            && !profile.subfamily_tokens.is_empty()
        {
            let i = rng.gen_range(0..profile.subfamily_tokens.len());
            segments.push(profile.subfamily_tokens[i].clone());
        }
        if rng.gen_bool(self.config.p_family.clamp(0.0, 1.0)) && !profile.family_tokens.is_empty() {
            let i = rng.gen_range(0..profile.family_tokens.len());
            segments.push(profile.family_tokens[i].clone());
            if rng.gen_bool(self.config.p_second_family.clamp(0.0, 1.0))
                && profile.family_tokens.len() > 1
            {
                let j = (i + 1 + rng.gen_range(0..profile.family_tokens.len() - 1))
                    % profile.family_tokens.len();
                segments.push(profile.family_tokens[j].clone());
            }
        }
        if rng.gen_bool(self.config.p_global.clamp(0.0, 1.0)) && !profile.global_tokens.is_empty() {
            let i = rng.gen_range(0..profile.global_tokens.len());
            segments.push(profile.global_tokens[i].clone());
        }
        segments.join("-")
    }
}

fn random_letter(rng: &mut StdRng) -> char {
    (b'A' + rng.gen_range(0..26u8)) as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{generate_taxonomy, TaxonomyConfig};
    use rand::SeedableRng;

    fn profile() -> LeafProfile {
        let (_, profiles) = generate_taxonomy(&TaxonomyConfig {
            total_classes: 40,
            leaf_classes: 20,
        });
        profiles[0].clone()
    }

    #[test]
    fn part_numbers_are_dash_separated_and_contain_the_serial() {
        let p = profile();
        let gen = PartNumberGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        for serial in 0..50 {
            let pn = gen.generate(&p, serial, &mut rng);
            assert!(!pn.is_empty());
            assert!(pn.contains(&format!("{serial:05X}")));
            assert!(pn.split('-').count() >= 1);
        }
    }

    #[test]
    fn strong_token_frequency_follows_probability() {
        let p = profile();
        let gen = PartNumberGenerator::new(PartNumberConfig {
            p_strong: 0.4,
            ..PartNumberConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let with_strong = (0..n)
            .filter(|serial| {
                let pn = gen.generate(&p, *serial, &mut rng);
                p.strong_tokens.iter().any(|t| pn.contains(t.as_str()))
            })
            .count();
        let ratio = with_strong as f64 / n as f64;
        assert!((ratio - 0.4).abs() < 0.05, "ratio {ratio} too far from 0.4");
    }

    #[test]
    fn extreme_probabilities() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(3);
        let always = PartNumberGenerator::new(PartNumberConfig {
            p_strong: 1.0,
            p_subfamily: 1.0,
            p_family: 1.0,
            p_global: 1.0,
            p_second_family: 1.0,
        });
        let pn = always.generate(&p, 1, &mut rng);
        assert!(p.strong_tokens.iter().any(|t| pn.contains(t.as_str())));
        assert!(p.family_tokens.iter().any(|t| pn.contains(t.as_str())));
        assert!(p.global_tokens.iter().any(|t| pn.contains(t.as_str())));
        assert!(pn.split('-').count() >= 5);

        let never = PartNumberGenerator::new(PartNumberConfig {
            p_strong: 0.0,
            p_subfamily: 0.0,
            p_family: 0.0,
            p_global: 0.0,
            p_second_family: 0.0,
        });
        let bare = never.generate(&p, 2, &mut rng);
        assert_eq!(bare.split('-').count(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let p = profile();
        let gen = PartNumberGenerator::default();
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for serial in 0..20 {
            assert_eq!(
                gen.generate(&p, serial, &mut a),
                gen.generate(&p, serial, &mut b)
            );
        }
    }

    #[test]
    fn serials_make_part_numbers_distinct() {
        let p = profile();
        let gen = PartNumberGenerator::default();
        let mut rng = StdRng::seed_from_u64(5);
        let a = gen.generate(&p, 100, &mut rng);
        let b = gen.generate(&p, 101, &mut rng);
        assert_ne!(a, b);
    }
}
