//! String normalization applied before segmentation.
//!
//! The paper lets a domain expert decide how values are split; in practice
//! part numbers and labels come with inconsistent case, stray whitespace and
//! accented characters. [`Normalizer`] lowercases, strips accents and
//! collapses whitespace, in that fixed order, before a segmenter sees the
//! value, so that `"CRCW0805 "` and `"crcw0805"` yield the same segments.
//! The learner and the classifier both apply it to every value.

use serde::{Deserialize, Serialize};

/// The one normalization the learner and the classifier apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Normalizer;

impl Normalizer {
    /// Lowercase `value`, replace accented latin letters by their ASCII base
    /// letter (é → e, ü → u, …), then trim it and collapse internal runs of
    /// whitespace to a single space.
    ///
    /// Lower-casing runs before accent stripping so that the combination is
    /// idempotent (e.g. `Ý` → `ý` → `y`).
    pub fn apply(&self, value: &str) -> String {
        let stripped: String = value.to_lowercase().chars().map(strip_accent).collect();
        collapse_ws(&stripped)
    }
}

/// Map one character to its unaccented ASCII equivalent when known.
fn strip_accent(c: char) -> char {
    match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' => 'a',
        'À' | 'Á' | 'Â' | 'Ã' | 'Ä' | 'Å' => 'A',
        'è' | 'é' | 'ê' | 'ë' => 'e',
        'È' | 'É' | 'Ê' | 'Ë' => 'E',
        'ì' | 'í' | 'î' | 'ï' => 'i',
        'Ì' | 'Í' | 'Î' | 'Ï' => 'I',
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' => 'o',
        'Ò' | 'Ó' | 'Ô' | 'Õ' | 'Ö' => 'O',
        'ù' | 'ú' | 'û' | 'ü' => 'u',
        'Ù' | 'Ú' | 'Û' | 'Ü' => 'U',
        'ç' => 'c',
        'Ç' => 'C',
        'ñ' => 'n',
        'Ñ' => 'N',
        'ý' | 'ÿ' => 'y',
        'Ý' => 'Y',
        other => other,
    }
}

fn collapse_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_was_space = true; // trims leading whitespace
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_was_space {
                out.push(' ');
                last_was_space = true;
            }
        } else {
            out.push(c);
            last_was_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        let n = Normalizer;
        assert_eq!(n.apply("  CRCW0805   10K  "), "crcw0805 10k");
        assert_eq!(n.apply("Résistance à couche"), "resistance a couche");
        assert_eq!(n.apply("Tantalum\t\nCapacitor"), "tantalum capacitor");
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        let n = Normalizer;
        assert_eq!(n.apply(""), "");
        assert_eq!(n.apply("   \t\n "), "");
    }

    proptest! {
        /// Normalization is idempotent: applying it twice equals applying it once.
        #[test]
        fn prop_idempotent(s in "\\PC{0,60}") {
            let n = Normalizer;
            let once = n.apply(&s);
            let twice = n.apply(&once);
            prop_assert_eq!(once, twice);
        }

        /// Normalization never produces uppercase ASCII characters or
        /// runs of spaces.
        #[test]
        fn prop_no_upper_no_double_space(s in "\\PC{0,60}") {
            let out = Normalizer.apply(&s);
            prop_assert!(!out.contains("  "));
            prop_assert!(!out.chars().any(|c| c.is_ascii_uppercase()));
            prop_assert!(!out.starts_with(' ') && !out.ends_with(' '));
        }
    }
}
