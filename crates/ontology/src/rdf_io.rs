//! Import of ontologies from RDF graphs.
//!
//! The paper's local source `SL` is "described according to an OWL ontology
//! `OL`". This module reads such an ontology from its RDF serialisation
//! (classes, `rdfs:subClassOf`, `owl:disjointWith`, property declarations,
//! labels), so an ontology can be supplied as a Turtle/N-Triples file.

use crate::error::Result;
use crate::model::{ClassId, DataKind};
use crate::ontology::Ontology;
use classilink_rdf::namespace::vocab;
use classilink_rdf::{Graph, Term};
use std::collections::BTreeMap;

/// Load an ontology from an RDF graph.
///
/// Recognised vocabulary: `owl:Class`, `rdfs:subClassOf`, `owl:disjointWith`,
/// `owl:DatatypeProperty`, `owl:ObjectProperty`, `rdfs:domain`, `rdfs:range`
/// and `rdfs:label`. Subclass edges that would create a cycle are reported as
/// errors; everything else unknown is ignored.
pub fn from_graph(graph: &Graph) -> Result<Ontology> {
    let mut onto = Ontology::new();
    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let rdfs_label = Term::iri(vocab::RDFS_LABEL);

    // Collect labels first so classes get them at declaration time.
    let mut labels: BTreeMap<String, String> = BTreeMap::new();
    for t in graph.triples_matching(None, Some(&rdfs_label), None) {
        if let (Some(iri), Some(lit)) = (t.subject.as_iri(), t.object.as_literal()) {
            labels.entry(iri.to_string()).or_insert(lit.value.clone());
        }
    }
    let label_for = |iri: &str, labels: &BTreeMap<String, String>| -> String {
        labels
            .get(iri)
            .cloned()
            .unwrap_or_else(|| Term::iri(iri).local_name().to_string())
    };

    // Classes: everything typed owl:Class, plus anything appearing in a
    // subClassOf or disjointWith axiom.
    let owl_class = Term::iri(vocab::OWL_CLASS);
    for t in graph.triples_matching(None, Some(&rdf_type), Some(&owl_class)) {
        if let Some(iri) = t.subject.as_iri() {
            onto.add_class(iri, label_for(iri, &labels));
        }
    }
    let sub_class_of = Term::iri(vocab::RDFS_SUBCLASS_OF);
    for t in graph.triples_matching(None, Some(&sub_class_of), None) {
        for term in [&t.subject, &t.object] {
            if let Some(iri) = term.as_iri() {
                onto.add_class(iri, label_for(iri, &labels));
            }
        }
    }
    let disjoint_with = Term::iri(vocab::OWL_DISJOINT_WITH);
    for t in graph.triples_matching(None, Some(&disjoint_with), None) {
        for term in [&t.subject, &t.object] {
            if let Some(iri) = term.as_iri() {
                onto.add_class(iri, label_for(iri, &labels));
            }
        }
    }

    // Subsumption.
    for t in graph.triples_matching(None, Some(&sub_class_of), None) {
        if let (Some(sub), Some(sup)) = (t.subject.as_iri(), t.object.as_iri()) {
            let sub_id = onto.class(sub).expect("declared above");
            let sup_id = onto.class(sup).expect("declared above");
            onto.add_subclass_axiom(sub_id, sup_id)?;
        }
    }

    // Disjointness.
    for t in graph.triples_matching(None, Some(&disjoint_with), None) {
        if let (Some(a), Some(b)) = (t.subject.as_iri(), t.object.as_iri()) {
            let a_id = onto.class(a).expect("declared above");
            let b_id = onto.class(b).expect("declared above");
            if a_id != b_id {
                onto.add_disjoint_axiom(a_id, b_id)?;
            }
        }
    }

    // Properties.
    let domain_of = |graph: &Graph, prop: &Term, onto: &Ontology| -> Option<ClassId> {
        graph
            .object_of(prop, &Term::iri(vocab::RDFS_DOMAIN))
            .and_then(|d| d.as_iri().and_then(|iri| onto.class(iri)))
    };
    let dt_prop = Term::iri(vocab::OWL_DATATYPE_PROPERTY);
    for t in graph.triples_matching(None, Some(&rdf_type), Some(&dt_prop)) {
        if let Some(iri) = t.subject.as_iri() {
            let domain = domain_of(graph, &t.subject, &onto);
            onto.add_data_property(iri, label_for(iri, &labels), domain, DataKind::Text);
        }
    }
    let obj_prop = Term::iri(vocab::OWL_OBJECT_PROPERTY);
    for t in graph.triples_matching(None, Some(&rdf_type), Some(&obj_prop)) {
        if let Some(iri) = t.subject.as_iri() {
            let domain = domain_of(graph, &t.subject, &onto);
            let range = graph
                .object_of(&t.subject, &Term::iri(vocab::RDFS_RANGE))
                .and_then(|r| r.as_iri().and_then(|iri| onto.class(iri)));
            onto.add_object_property(iri, label_for(iri, &labels), domain, range);
        }
    }

    Ok(onto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_rdf::Triple;

    #[test]
    fn from_graph_handles_turtle_input() {
        let doc = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix c: <http://e.org/c#> .

c:Component a owl:Class ; rdfs:label "Component" .
c:Resistor a owl:Class ; rdfs:subClassOf c:Component .
c:Capacitor a owl:Class ; rdfs:subClassOf c:Component ; owl:disjointWith c:Resistor .
c:partNumber a owl:DatatypeProperty ; rdfs:domain c:Component ; rdfs:label "part number" .
c:replaces a owl:ObjectProperty ; rdfs:domain c:Resistor ; rdfs:range c:Component .
"#;
        let (graph, _) = classilink_rdf::turtle::parse(doc).unwrap();
        let onto = from_graph(&graph).unwrap();
        assert_eq!(onto.class_count(), 3);
        let resistor = onto.class("http://e.org/c#Resistor").unwrap();
        let capacitor = onto.class("http://e.org/c#Capacitor").unwrap();
        let component = onto.class("http://e.org/c#Component").unwrap();
        assert!(onto.is_subclass_of(resistor, component));
        assert!(onto.are_disjoint(resistor, capacitor));
        assert_eq!(onto.label(component), "Component");
        // Label falls back to local name when missing.
        assert_eq!(onto.label(resistor), "Resistor");
        let p = onto.data_property("http://e.org/c#partNumber").unwrap();
        assert_eq!(p.domain, Some(component));
        assert_eq!(p.label, "part number");
        let replaces = onto.object_property("http://e.org/c#replaces").unwrap();
        assert_eq!(
            (replaces.domain, replaces.range),
            (Some(resistor), Some(component))
        );
    }

    #[test]
    fn classes_appearing_only_in_axioms_are_declared() {
        let mut g = Graph::new();
        g.insert(Triple::iris(
            "http://e.org/c#A",
            vocab::RDFS_SUBCLASS_OF,
            "http://e.org/c#B",
        ));
        let onto = from_graph(&g).unwrap();
        assert_eq!(onto.class_count(), 2);
        let a = onto.class("http://e.org/c#A").unwrap();
        let b = onto.class("http://e.org/c#B").unwrap();
        assert!(onto.is_subclass_of(a, b));
    }

    #[test]
    fn cyclic_subclass_axioms_are_an_error() {
        let mut g = Graph::new();
        g.insert(Triple::iris(
            "http://e.org/c#A",
            vocab::RDFS_SUBCLASS_OF,
            "http://e.org/c#B",
        ));
        g.insert(Triple::iris(
            "http://e.org/c#B",
            vocab::RDFS_SUBCLASS_OF,
            "http://e.org/c#A",
        ));
        assert!(from_graph(&g).is_err());
    }

    #[test]
    fn empty_graph_gives_empty_ontology() {
        let onto = from_graph(&Graph::new()).unwrap();
        assert!(onto.is_empty());
    }

    #[test]
    fn self_disjointness_in_rdf_is_ignored() {
        let mut g = Graph::new();
        g.insert(Triple::iris(
            "http://e.org/c#A",
            vocab::OWL_DISJOINT_WITH,
            "http://e.org/c#A",
        ));
        let onto = from_graph(&g).unwrap();
        assert_eq!(onto.class_count(), 1);
        assert_eq!(onto.disjoint_axiom_count(), 0);
    }
}
