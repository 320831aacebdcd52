//! Generation of the electronic-components ontology and per-leaf part-number
//! profiles.
//!
//! The paper's catalog ontology has "566 classes containing 226 classes in
//! the leaves of the ontology". [`generate_taxonomy`] builds a hierarchy with
//! configurable total/leaf class counts out of realistic component families
//! (resistors, capacitors, diodes, …), and attaches to every leaf a
//! [`LeafProfile`] describing how its part numbers look: which segments are
//! unique to the class (the ones the learner should discover, like
//! `"CRCW0805"` or `"T83"` in the paper), which are shared across the family
//! (like `"ohm"` or `"63V"`), and which are global noise.

use crate::vocab::CLASS_NS;
use classilink_ontology::{ClassId, Ontology};
use serde::{Deserialize, Serialize};

/// A top-level component family used to name classes and build part-number
/// grammars.
#[derive(Debug, Clone)]
pub struct Family {
    /// Family name (e.g. "Resistor").
    pub name: &'static str,
    /// Series prefixes typical of the family (used to mint strong tokens).
    pub series: &'static [&'static str],
    /// Sub-type names used for intermediate classes.
    pub subtypes: &'static [&'static str],
    /// Tokens shared by every class of the family (units, voltages, …).
    pub family_tokens: &'static [&'static str],
}

/// The built-in families. Ten families echo the breadth of an electronic
/// components catalog.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "Resistor",
            series: &["CRCW", "ERJ", "RC", "WSL", "CPF"],
            subtypes: &[
                "Fixed film",
                "Wirewound",
                "Thick film",
                "Thin film",
                "Network",
            ],
            family_tokens: &["ohm", "63V", "5T", "125mW"],
        },
        Family {
            name: "Capacitor",
            series: &["T83", "TAJ", "C0G", "GRM", "EEE"],
            subtypes: &["Tantalum", "Ceramic", "Electrolytic", "Film", "Polymer"],
            family_tokens: &["uF", "25V", "X7R", "20P"],
        },
        Family {
            name: "Diode",
            series: &["1N", "BAS", "MBR", "SS", "BZX"],
            subtypes: &["Rectifier", "Schottky", "Zener", "TVS", "Signal"],
            family_tokens: &["40V", "DO35", "1A", "SOD"],
        },
        Family {
            name: "Transistor",
            series: &["BC", "2N", "IRF", "BSS", "FDN"],
            subtypes: &["Bipolar", "MOSFET", "JFET", "IGBT", "Darlington"],
            family_tokens: &["TO92", "60V", "NPN", "SOT23"],
        },
        Family {
            name: "Inductor",
            series: &["SRR", "LQW", "NR", "MSS", "XAL"],
            subtypes: &["Power", "RF", "Shielded", "Coupled", "Ferrite"],
            family_tokens: &["uH", "2A", "SMD", "20PC"],
        },
        Family {
            name: "Connector",
            series: &["DF", "FH", "SM", "PH", "XH"],
            subtypes: &[
                "Board to board",
                "Wire to board",
                "FFC",
                "Circular",
                "RF coax",
            ],
            family_tokens: &["2mm", "30POS", "AU", "RA"],
        },
        Family {
            name: "IntegratedCircuit",
            series: &["LM", "TL", "NE", "STM32", "AT"],
            subtypes: &[
                "Amplifier",
                "Regulator",
                "Microcontroller",
                "Logic",
                "Interface",
            ],
            family_tokens: &["SOIC", "3V3", "QFP", "8BIT"],
        },
        Family {
            name: "Relay",
            series: &["G5", "RT", "HF", "JS", "ALQ"],
            subtypes: &["Signal", "Power", "Automotive", "Reed", "Solid state"],
            family_tokens: &["12VDC", "SPDT", "10A", "COIL"],
        },
        Family {
            name: "Switch",
            series: &["EVQ", "KSC", "TL3", "B3F", "PTS"],
            subtypes: &["Tactile", "Toggle", "DIP", "Rotary", "Slide"],
            family_tokens: &["6mm", "50mA", "SPST", "THT"],
        },
        Family {
            name: "Oscillator",
            series: &["ABM", "ECS", "NX", "TSX", "FC"],
            subtypes: &["Crystal", "MEMS", "TCXO", "VCXO", "Clock"],
            family_tokens: &["MHz", "20ppm", "3225", "CL18"],
        },
    ]
}

/// The part-number profile of one leaf class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafProfile {
    /// The leaf class in the generated ontology.
    pub class: ClassId,
    /// Human-readable label of the class.
    pub label: String,
    /// The family the class belongs to.
    pub family: String,
    /// Segments unique to this class (the discriminative evidence, e.g.
    /// `CRCW0805`).
    pub strong_tokens: Vec<String>,
    /// Segments shared by the few sibling leaves of the same subfamily (they
    /// produce the mid-confidence rules of Table 1's 0.8 / 0.6 / 0.4 rows).
    pub subfamily_tokens: Vec<String>,
    /// Segments shared by the whole family (e.g. `ohm`, `63V`).
    pub family_tokens: Vec<String>,
    /// Segments shared across the whole catalog (packaging/compliance noise).
    pub global_tokens: Vec<String>,
}

/// Configuration of taxonomy generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaxonomyConfig {
    /// Total number of classes (internal + leaves), root included.
    pub total_classes: usize,
    /// Number of leaf classes.
    pub leaf_classes: usize,
}

impl Default for TaxonomyConfig {
    fn default() -> Self {
        // The paper's ontology shape.
        TaxonomyConfig {
            total_classes: 566,
            leaf_classes: 226,
        }
    }
}

/// Tokens shared by every part number regardless of class (the "noise"
/// segments that produce lift ≈ 1 rules).
pub const GLOBAL_TOKENS: &[&str] = &["ROHS", "T", "R", "LF", "B2"];

/// Build the ontology and the per-leaf profiles.
///
/// The construction is deterministic (no RNG): class counts are satisfied
/// exactly whenever `total_classes` is large enough to hold the root, the
/// families and one subfamily per three leaves; otherwise as many internal
/// classes as possible are created and the result simply has fewer internal
/// nodes.
pub fn generate_taxonomy(config: &TaxonomyConfig) -> (Ontology, Vec<LeafProfile>) {
    let leaf_target = config.leaf_classes.max(1);
    let families = families();
    let mut onto = Ontology::new();
    let root = onto.add_class(
        format!("{CLASS_NS}ElectronicComponent"),
        "Electronic component",
    );

    // Distribute leaves across families as evenly as possible.
    let per_family = leaf_target / families.len();
    let remainder = leaf_target % families.len();

    let mut profiles: Vec<LeafProfile> = Vec::with_capacity(leaf_target);
    let mut subfamily_ids: Vec<ClassId> = Vec::new();
    let mut leaf_parents: Vec<(ClassId, ClassId)> = Vec::new(); // (leaf, direct parent)

    for (f_idx, family) in families.iter().enumerate() {
        let family_id = onto.add_class(format!("{CLASS_NS}{}", family.name), family.name);
        onto.add_subclass_axiom(family_id, root)
            .expect("family under root is acyclic");
        let leaves_here = per_family + usize::from(f_idx < remainder);
        if leaves_here == 0 {
            continue;
        }
        // One subfamily per ~3 leaves, named after the family's subtypes.
        let subfamily_count = leaves_here.div_ceil(3).max(1);
        let mut local_subfamilies = Vec::with_capacity(subfamily_count);
        for s in 0..subfamily_count {
            let subtype = family.subtypes[s % family.subtypes.len()];
            let label = if s < family.subtypes.len() {
                format!("{subtype} {}", family.name.to_lowercase())
            } else {
                format!("{subtype} {} series {}", family.name.to_lowercase(), s)
            };
            let iri = format!(
                "{CLASS_NS}{}{}",
                label.split_whitespace().map(capitalise).collect::<String>(),
                ""
            );
            let sub_id = onto.add_class(iri, &label);
            onto.add_subclass_axiom(sub_id, family_id)
                .expect("subfamily under family is acyclic");
            local_subfamilies.push(sub_id);
            subfamily_ids.push(sub_id);
        }
        // Leaves round-robin over the subfamilies.
        for l in 0..leaves_here {
            let parent = local_subfamilies[l % local_subfamilies.len()];
            let series = family.series[l % family.series.len()];
            let code = format!("{series}{:02}{}", l / family.series.len(), f_idx);
            let label = format!("{} {}", onto.label(parent), code);
            let iri = format!("{CLASS_NS}{}_{code}", family.name);
            let leaf_id = onto.add_class(iri, &label);
            onto.add_subclass_axiom(leaf_id, parent)
                .expect("leaf under subfamily is acyclic");
            leaf_parents.push((leaf_id, parent));
            // Strong tokens: the series+package code plus a per-leaf type code.
            let type_code = format!(
                "{}{}{:02}",
                family.name.chars().next().unwrap_or('X'),
                f_idx,
                l
            );
            // Subfamily token: a package/series code shared by the (few)
            // sibling leaves attached to the same subfamily.
            let subfamily_token = format!("PKG{f_idx}{:02}", l % local_subfamilies.len());
            profiles.push(LeafProfile {
                class: leaf_id,
                label,
                family: family.name.to_string(),
                strong_tokens: vec![code.clone(), type_code],
                subfamily_tokens: vec![subfamily_token],
                family_tokens: family.family_tokens.iter().map(|t| t.to_string()).collect(),
                global_tokens: GLOBAL_TOKENS.iter().map(|t| t.to_string()).collect(),
            });
        }
    }

    // Declare pairwise disjointness between the top families (the schema
    // knowledge the related work exploits).
    let family_ids: Vec<ClassId> = onto
        .classes()
        .filter(|c| c.parents == vec![root])
        .map(|c| c.id)
        .collect();
    for (i, a) in family_ids.iter().enumerate() {
        for b in &family_ids[i + 1..] {
            onto.add_disjoint_axiom(*a, *b).expect("distinct families");
        }
    }

    // Pad with intermediate "series" classes until the total class count is
    // reached: each filler is inserted between a leaf and its current parent,
    // keeping the leaf count unchanged.
    let mut filler = 0usize;
    while onto.class_count() < config.total_classes && !leaf_parents.is_empty() {
        let (leaf, parent) = leaf_parents[filler % leaf_parents.len()];
        let label = format!("{} series {}", onto.label(parent), filler);
        let iri = format!("{CLASS_NS}Series{filler}");
        let series_id = onto.add_class(iri, &label);
        onto.add_subclass_axiom(series_id, parent)
            .expect("series under subfamily is acyclic");
        onto.add_subclass_axiom(leaf, series_id)
            .expect("leaf under series is acyclic");
        filler += 1;
    }

    (onto, profiles)
}

fn capitalise(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_ontology::OntologyStats;
    use std::collections::HashSet;

    #[test]
    fn paper_shape_is_reproduced() {
        let (onto, profiles) = generate_taxonomy(&TaxonomyConfig::default());
        let stats = OntologyStats::compute(&onto);
        assert_eq!(stats.class_count, 566);
        // Leaves: the generated leaf classes stay leaves after padding.
        assert_eq!(stats.leaf_count, 226);
        assert_eq!(profiles.len(), 226);
        assert_eq!(stats.root_count, 1);
        assert!(stats.max_depth >= 3);
        assert!(stats.disjoint_axiom_count >= 45); // C(10, 2)
    }

    #[test]
    fn small_configurations_work() {
        let cfg = TaxonomyConfig {
            total_classes: 40,
            leaf_classes: 20,
        };
        let (onto, profiles) = generate_taxonomy(&cfg);
        assert_eq!(profiles.len(), 20);
        let stats = OntologyStats::compute(&onto);
        assert_eq!(stats.leaf_count, 20);
        assert!(stats.class_count >= 31); // root + 10 families + leaves at least
    }

    #[test]
    fn every_leaf_profile_points_to_a_leaf_class() {
        let (onto, profiles) = generate_taxonomy(&TaxonomyConfig::default());
        for p in &profiles {
            assert!(onto.is_leaf(p.class), "{} is not a leaf", p.label);
            assert!(!p.strong_tokens.is_empty());
            assert!(!p.family_tokens.is_empty());
        }
    }

    #[test]
    fn strong_tokens_are_unique_per_leaf() {
        let (_, profiles) = generate_taxonomy(&TaxonomyConfig::default());
        let mut seen: HashSet<&str> = HashSet::new();
        for p in &profiles {
            for t in &p.strong_tokens {
                assert!(seen.insert(t), "strong token {t} reused across leaves");
            }
        }
    }

    #[test]
    fn family_tokens_are_shared_within_family_only() {
        let (_, profiles) = generate_taxonomy(&TaxonomyConfig::default());
        let resistor_tokens: HashSet<&String> = profiles
            .iter()
            .filter(|p| p.family == "Resistor")
            .flat_map(|p| p.family_tokens.iter())
            .collect();
        let capacitor_tokens: HashSet<&String> = profiles
            .iter()
            .filter(|p| p.family == "Capacitor")
            .flat_map(|p| p.family_tokens.iter())
            .collect();
        assert!(resistor_tokens.is_disjoint(&capacitor_tokens));
        assert!(resistor_tokens.contains(&"ohm".to_string()));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_taxonomy(&TaxonomyConfig::default());
        let b = generate_taxonomy(&TaxonomyConfig::default());
        assert_eq!(a.0.class_count(), b.0.class_count());
        assert_eq!(a.1, b.1);
    }
}
