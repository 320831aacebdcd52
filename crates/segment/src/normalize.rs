//! String normalization applied before segmentation.
//!
//! The paper lets a domain expert decide how values are split; in practice
//! part numbers and labels come with inconsistent case, stray whitespace and
//! accented characters. [`Normalizer`] lowercases, strips accents and
//! collapses whitespace, in that fixed order, before a segmenter sees the
//! value, so that `"CRCW0805 "` and `"crcw0805"` yield the same segments.
//! The learner, the classifier and the comparator's token tables all apply
//! it to every value.

/// The one normalization every segmented value goes through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Normalizer;

impl Normalizer {
    /// Lowercase `value`, replace accented latin letters by their ASCII base
    /// letter (é → e, ü → u, …), then trim it and collapse internal runs of
    /// whitespace to a single space.
    ///
    /// Lower-casing runs before accent stripping so that the combination is
    /// idempotent (e.g. `Ý` → `ý` → `y`).
    pub fn apply(&self, value: &str) -> String {
        let mut out = String::new();
        self.apply_into(value, &mut out);
        out
    }

    /// [`apply`](Self::apply) into `out`, replacing its contents: a caller
    /// that normalises many values reuses one buffer. An ASCII value is
    /// folded in place in `out`; anything else is lowercased as a whole
    /// string first, so context-dependent mappings (a final `Σ` → `ς`) hold.
    pub fn apply_into(&self, value: &str, out: &mut String) {
        let lowered: String;
        let folded = if value.is_ascii() {
            value
        } else {
            lowered = value.to_lowercase().chars().map(strip_accent).collect();
            &lowered
        };
        out.clear();
        out.reserve(folded.len());
        for word in folded.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(word);
        }
        // Only the ASCII path has capitals left to fold.
        out.make_ascii_lowercase();
    }
}

/// Map one lowercase character to its unaccented ASCII letter when known.
fn strip_accent(c: char) -> char {
    match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' => 'a',
        'è' | 'é' | 'ê' | 'ë' => 'e',
        'ì' | 'í' | 'î' | 'ï' => 'i',
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' => 'o',
        'ù' | 'ú' | 'û' | 'ü' => 'u',
        'ç' => 'c',
        'ñ' => 'n',
        'ý' | 'ÿ' => 'y',
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The string-building normalisation `apply_into` replaced, kept as
    /// its reference: whole-string lowercase, the accent map with its
    /// capital arms, then a whitespace-collapsing copy.
    fn reference(value: &str) -> String {
        let strip_accent = |c| match c {
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
        };
        let stripped: String = value.to_lowercase().chars().map(strip_accent).collect();
        let mut out = String::with_capacity(stripped.len());
        let mut last_was_space = true;
        for c in stripped.chars() {
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

    /// Accents, expansions, a final sigma, and every ASCII whitespace byte
    /// (`\x0B` is whitespace to `char` but not to `u8`).
    const CASES: [&str; 12] = [
        "café",
        "Würth",
        "STRASSE",
        "straße",
        "İstanbul",
        "ΟΔΟΣ.Α",
        "ΟΔΟΣ Α",
        "Résistance à couche",
        " a\tb\nc\x0Bd\x0Ce\rf ",
        "\u{85}x\u{a0}y\u{2003}",
        "ÀÉÎÕÜ Ýÿ",
        "",
    ];

    #[test]
    fn normalization() {
        let n = Normalizer;
        assert_eq!(n.apply("  CRCW0805   10K  "), "crcw0805 10k");
        assert_eq!(n.apply("Résistance à couche"), "resistance a couche");
        assert_eq!(n.apply("Tantalum\t\nCapacitor"), "tantalum capacitor");
        // Σ is final before a space; a '.' is case-ignorable, so not there.
        assert_eq!(n.apply("ΟΔΟΣ Α"), "οδος α");
        assert_eq!(n.apply("ΟΔΟΣ.Α"), "οδοσ.α");
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        let n = Normalizer;
        assert_eq!(n.apply(""), "");
        assert_eq!(n.apply("   \t\n "), "");
    }

    #[test]
    fn apply_into_matches_the_reference_on_the_hard_cases() {
        let mut out = String::from("left over");
        for value in CASES {
            Normalizer.apply_into(value, &mut out);
            assert_eq!(out, reference(value), "{value:?}");
        }
    }

    proptest! {
        /// `apply_into` writes what the string-building reference returns,
        /// whatever the buffer held before.
        #[test]
        fn prop_apply_into_matches_the_reference(s in "\\PC{0,60}", junk in "\\PC{0,8}") {
            let mut out = junk;
            Normalizer.apply_into(&s, &mut out);
            prop_assert_eq!(&out, &reference(&s));
            prop_assert_eq!(Normalizer.apply(&s), out);
        }

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
