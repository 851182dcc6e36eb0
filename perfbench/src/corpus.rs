//! The three workloads and the inputs they generate from a seed: an
//! N-Triples corpus and SPARQL request bodies. The program under test
//! receives nothing else.

use datasets::lubm::{generate, LubmConfig};
use datasets::lubm_workload;
use rdf_model::{to_ntriples, Term, Triple};

/// How the load generator drives the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One keep-alive connection, each query its own `POST /query`,
    /// the next sent when the previous answer is read.
    ClosedQuery,
    /// One keep-alive connection, every query in one `POST /batch`.
    ClosedBatch,
    /// Two connections sending `POST /query` on a fixed schedule of
    /// `rate` requests per second, whether or not answers keep up.
    Open { rate: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Corpus size handed to `LubmConfig::sized_for`.
    pub triples: usize,
    /// Independent corpora per run, each generated from its own
    /// sub-seed, indexed, served and loaded in turn. The cost of the
    /// larger queries swings with a corpus's random structure; spreading
    /// a run over several corpora keeps one seed from deciding it.
    pub corpora: usize,
    /// Names of the `lubm_workload` queries sent; empty means all 12.
    pub queries: &'static [&'static str],
    pub load: Load,
}

/// Offered rate of `lubm3k-light-open`: about half of what two
/// closed-loop connections complete on a 2-thread machine at the
/// commit that introduced the benchmark. A constant, so every commit
/// is offered the same load.
pub const LIGHT_OPEN_RATE: f64 = 1000.0;

pub const WORKLOADS: [Workload; 3] = [
    // Fig. 6 frame, search-bound: the index (~0.7 MB) fits in L2.
    Workload {
        name: "lubm3k-query",
        triples: 3_000,
        corpora: 4,
        queries: &[],
        load: Load::ClosedQuery,
    },
    // Fig. 7a regime: ten times the retrieved paths, clustering
    // dominates, the index outgrows L2; the only batch-pool workload.
    Workload {
        name: "lubm30k-batch",
        triples: 30_000,
        corpora: 2,
        queries: &[],
        load: Load::ClosedBatch,
    },
    // Independent users sending light queries: parsing, rendering and
    // the HTTP path are a large share of each request.
    Workload {
        name: "lubm3k-light-open",
        triples: 3_000,
        corpora: 2,
        queries: &["Q1", "Q2", "Q7", "Q9"],
        load: Load::Open {
            rate: LIGHT_OPEN_RATE,
        },
    },
];

/// Corpus size and offered rate of the smoke mode, which checks the
/// harness end to end in seconds and measures nothing.
pub const SMOKE_TRIPLES: usize = 400;
pub const SMOKE_RATE: f64 = 100.0;

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One workload query, rendered as the SPARQL body the server receives.
#[derive(Debug, Clone)]
pub struct Query {
    pub name: &'static str,
    pub sparql: String,
    /// `true` when the query has no exact answer by construction.
    pub approximate: bool,
}

pub struct Corpus {
    /// The generated data as N-Triples text.
    pub ntriples: String,
    pub triples: usize,
    pub queries: Vec<Query>,
}

pub fn build(workload: &Workload, seed: u64, triples: usize) -> Corpus {
    let dataset = generate(&LubmConfig::sized_for(triples, seed));
    let data: Vec<Triple> = dataset.graph.triples().collect();
    let queries = lubm_workload(&dataset)
        .into_iter()
        .filter(|q| workload.queries.is_empty() || workload.queries.contains(&q.name))
        .map(|q| Query {
            name: q.name,
            sparql: to_sparql(q.query.triples()),
            approximate: q.approximate,
        })
        .collect();
    Corpus {
        ntriples: to_ntriples(&data),
        triples: data.len(),
        queries,
    }
}

fn to_sparql(patterns: impl Iterator<Item = Triple>) -> String {
    let mut out = String::from("SELECT * WHERE {\n");
    for t in patterns {
        out.push_str(&format!(
            "  {} {} {} .\n",
            sparql_term(&t.subject),
            sparql_term(&t.predicate),
            sparql_term(&t.object)
        ));
    }
    out.push_str("}\n");
    out
}

fn sparql_term(term: &Term) -> String {
    match term {
        Term::Iri(s) => format!("<{s}>"),
        Term::Literal(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Term::Blank(s) => format!("_:{s}"),
        Term::Variable(v) => format!("?{v}"),
    }
}

/// Join queries into one `POST /batch` body (`;;` separator lines).
pub fn batch_body(queries: &[Query]) -> String {
    queries
        .iter()
        .map(|q| q.sparql.as_str())
        .collect::<Vec<_>>()
        .join(";;\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let w = find("lubm3k-light-open").expect("workload");
        let a = build(&w, 7, SMOKE_TRIPLES);
        let b = build(&w, 7, SMOKE_TRIPLES);
        assert_eq!(a.ntriples, b.ntriples);
        assert_eq!(a.queries.len(), 4);
        assert!(a
            .queries
            .iter()
            .zip(&b.queries)
            .all(|(x, y)| x.sparql == y.sparql));
    }

    #[test]
    fn rendered_queries_parse_back_to_the_workload_graphs() {
        let w = find("lubm3k-query").expect("workload");
        let corpus = build(&w, 42, SMOKE_TRIPLES);
        assert_eq!(corpus.queries.len(), 12);
        for q in &corpus.queries {
            let parsed = rdf_model::parse_sparql(&q.sparql).expect("rendered SPARQL parses");
            assert_eq!(parsed.patterns.len(), q.sparql.matches(" .\n").count());
        }
        let parts = batch_body(&corpus.queries);
        assert_eq!(parts.matches(";;\n").count(), 11);
    }
}
