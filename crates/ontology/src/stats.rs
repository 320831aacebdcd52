//! Summary statistics about an ontology.
//!
//! The paper characterises its ontology by exactly these numbers: "566
//! classes containing 226 classes in the leaves of the ontology". The
//! [`OntologyStats`] report lets experiments check that the synthetic
//! ontology reproduces that shape.

use crate::ontology::Ontology;
use std::fmt;

/// Aggregate statistics describing the shape of an ontology.
#[derive(Debug, Clone, PartialEq)]
pub struct OntologyStats {
    /// Total number of classes.
    pub class_count: usize,
    /// Number of leaf classes (no subclasses).
    pub leaf_count: usize,
    /// Number of root classes (no superclasses).
    pub root_count: usize,
    /// Maximum depth over all classes.
    pub max_depth: usize,
    /// Mean depth over all classes.
    pub mean_depth: f64,
    /// Mean number of direct children over non-leaf classes.
    pub mean_branching: f64,
    /// Histogram of class counts per depth (index = depth).
    pub depth_histogram: Vec<usize>,
}

impl OntologyStats {
    /// Compute statistics for `ontology`.
    pub fn compute(ontology: &Ontology) -> Self {
        let class_count = ontology.class_count();
        let leaves = ontology.leaves();
        let roots = ontology.roots();
        let depths: Vec<usize> = ontology.class_ids().map(|c| ontology.depth(c)).collect();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        let mean_depth = if class_count == 0 {
            0.0
        } else {
            depths.iter().sum::<usize>() as f64 / class_count as f64
        };
        let internal: Vec<_> = ontology
            .class_ids()
            .filter(|c| !ontology.is_leaf(*c))
            .collect();
        let mean_branching = if internal.is_empty() {
            0.0
        } else {
            internal
                .iter()
                .map(|c| ontology.children(*c).len())
                .sum::<usize>() as f64
                / internal.len() as f64
        };
        let mut depth_histogram = vec![0usize; max_depth + 1];
        if class_count > 0 {
            for d in &depths {
                depth_histogram[*d] += 1;
            }
        }
        OntologyStats {
            class_count,
            leaf_count: leaves.len(),
            root_count: roots.len(),
            max_depth,
            mean_depth,
            mean_branching,
            depth_histogram,
        }
    }
}

impl fmt::Display for OntologyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "classes:            {}", self.class_count)?;
        writeln!(f, "  leaves:           {}", self.leaf_count)?;
        writeln!(f, "  roots:            {}", self.root_count)?;
        writeln!(f, "  max depth:        {}", self.max_depth)?;
        writeln!(f, "  mean depth:       {:.2}", self.mean_depth)?;
        write!(f, "  mean branching:   {:.2}", self.mean_branching)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OntologyBuilder;

    #[test]
    fn stats_for_small_hierarchy() {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let r = b.class("Resistor", Some(root));
        let _f = b.class("FixedFilmResistor", Some(r));
        let _w = b.class("WirewoundResistor", Some(r));
        let _c = b.class("Capacitor", Some(root));
        let onto = b.build();
        let stats = OntologyStats::compute(&onto);
        assert_eq!(stats.class_count, 5);
        assert_eq!(stats.leaf_count, 3);
        assert_eq!(stats.root_count, 1);
        assert_eq!(stats.max_depth, 2);
        assert_eq!(stats.depth_histogram, vec![1, 2, 2]);
        // depths: component 0, resistor 1, capacitor 1, fixed 2, wirewound 2 → mean 6/5
        assert!((stats.mean_depth - 6.0 / 5.0).abs() < 1e-9);
        // internal nodes: root (2 children), resistor (2 children) → mean 2
        assert!((stats.mean_branching - 2.0).abs() < 1e-9);
        let rendered = stats.to_string();
        assert!(rendered.contains("classes:            5"));
    }

    #[test]
    fn stats_for_empty_ontology() {
        let stats = OntologyStats::compute(&Ontology::new());
        assert_eq!(stats.class_count, 0);
        assert_eq!(stats.leaf_count, 0);
        assert_eq!(stats.max_depth, 0);
        assert_eq!(stats.mean_depth, 0.0);
        assert_eq!(stats.mean_branching, 0.0);
    }
}
