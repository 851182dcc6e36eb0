//! χ conformity throughput: the seed's hash-set intersection vs the
//! sorted-node merge-intersection the search uses, plus the top-10
//! combination search (clusters pre-built) on two workload queries.
//!
//! Besides the criterion timings, a machine-readable baseline is
//! written to `results/BENCH_chi.json` (override the location with
//! `BENCH_CHI_OUT`) so later sessions can diff χ performance.

use bench::fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use path_index::{ExtractionConfig, PathId};
use sama_core::{
    build_clusters, chi_count, chi_count_sorted, decompose_query, search_top_k, AlignmentMode,
    Cluster, ClusterConfig, IntersectionGraph, QueryPath, ScoreParams, SearchConfig, SearchOutcome,
};
use std::hint::black_box;
use std::time::Instant;

/// Number of indexed paths whose ordered pairs form the χ workload.
/// Every unordered pair appears twice (both orders), mimicking the
/// repeated pair lookups of the combination search.
const PAIR_POOL: usize = 192;

/// The `PAIR_POOL` *longest* indexed paths — χ cost scales with path
/// length, so these are the pairs where the evaluation strategy matters.
fn pair_pool(fx: &bench::BenchFixture) -> Vec<PathId> {
    let mut ids: Vec<(usize, PathId)> = fx
        .engine
        .index()
        .paths()
        .map(|(id, ip)| (ip.sorted_nodes().len(), id))
        .collect();
    ids.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ids.into_iter().take(PAIR_POOL).map(|(_, id)| id).collect()
}

fn sweep_hash(index: &path_index::PathIndex, ids: &[PathId]) -> usize {
    let mut acc = 0usize;
    for &a in ids {
        for &b in ids {
            acc += chi_count(&index.path(a).path, &index.path(b).path);
        }
    }
    acc
}

fn sweep_sorted(index: &path_index::PathIndex, ids: &[PathId]) -> usize {
    let mut acc = 0usize;
    for &a in ids {
        for &b in ids {
            acc += chi_count_sorted(index.path(a).sorted_nodes(), index.path(b).sorted_nodes());
        }
    }
    acc
}

/// Both χ evaluation strategies over the same ordered-pair sweep.
fn bench_chi_strategies(c: &mut Criterion) {
    let fx = fixture(3_000);
    let index = fx.engine.index();
    let ids = pair_pool(&fx);
    let lookups = (ids.len() * ids.len()) as u64;

    let mut group = c.benchmark_group("chi");
    group.throughput(Throughput::Elements(lookups));
    group.bench_function("hash_set", |b| {
        b.iter(|| black_box(sweep_hash(index, &ids)))
    });
    group.bench_function("sorted_merge", |b| {
        b.iter(|| black_box(sweep_sorted(index, &ids)))
    });
    group.finish();
}

/// Decomposition artefacts for one workload query, built once.
struct Prepared {
    qpaths: Vec<QueryPath>,
    ig: IntersectionGraph,
    clusters: Vec<Cluster>,
}

fn prepare(fx: &bench::BenchFixture, name: &str) -> Prepared {
    let engine = &fx.engine;
    let nq = fx.workload.iter().find(|nq| nq.name == name).unwrap();
    let qpaths = decompose_query(
        &nq.query,
        engine.index().graph().vocab(),
        &path_index::NoSynonyms,
        &ExtractionConfig::default(),
    );
    let ig = IntersectionGraph::build(&qpaths);
    let clusters = build_clusters(
        &qpaths,
        engine.index(),
        &path_index::NoSynonyms,
        &ScoreParams::paper(),
        AlignmentMode::Greedy,
        &ClusterConfig::default(),
    );
    Prepared {
        qpaths,
        ig,
        clusters,
    }
}

fn run_search(fx: &bench::BenchFixture, p: &Prepared) -> SearchOutcome {
    search_top_k(
        &p.qpaths,
        &p.ig,
        &p.clusters,
        fx.engine.index(),
        &ScoreParams::paper(),
        10,
        &SearchConfig::default(),
    )
}

/// Top-10 combination search in isolation.
fn bench_search(c: &mut Criterion) {
    let fx = fixture(3_000);
    let mut group = c.benchmark_group("search_top10");
    group.sample_size(20);
    for name in ["Q5", "Q10"] {
        let prepared = prepare(&fx, name);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(run_search(&fx, &prepared)).answers.len());
        });
    }
    group.finish();
}

/// Median-of-`runs` wall time of `f`, in nanoseconds.
fn time_ns<R>(runs: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Write the machine-readable χ baseline (`results/BENCH_chi.json`).
fn emit_baseline() {
    let fx = fixture(3_000);
    let index = fx.engine.index();
    let ids = pair_pool(&fx);
    let lookups = (ids.len() * ids.len()) as u128;

    let hash_ns = time_ns(9, || sweep_hash(index, &ids));
    let sorted_ns = time_ns(9, || sweep_sorted(index, &ids));

    let mut search_rows = String::new();
    for name in ["Q5", "Q10"] {
        let prepared = prepare(&fx, name);
        let ns = time_ns(9, || run_search(&fx, &prepared).answers.len());
        let outcome = run_search(&fx, &prepared);
        let c = outcome.counters;
        if !search_rows.is_empty() {
            search_rows.push_str(",\n");
        }
        search_rows.push_str(&format!(
            "    \"{name}\": {{\"ns\": {ns}, \"expansions\": {}, \"pushes\": {}, \
             \"reinserts\": {}, \"chi_lookups\": {}, \"peak_frontier\": {}}}",
            outcome.expansions, c.pushes, c.reinserts, c.chi_lookups, c.peak_frontier
        ));
    }

    let json = format!(
        "{{\n  \"fixture_triples\": 3000,\n  \"hardware_threads\": {},\n  \
         \"pair_pool\": {},\n  \"pair_lookups\": {lookups},\n  \
         \"chi_ns_per_lookup\": {{\n    \"hash_set\": {:.1},\n    \"sorted_merge\": {:.1}\n  \
         }},\n  \"search_top10\": {{\n{search_rows}\n  }}\n}}\n",
        sama_obs::hardware_threads(),
        ids.len(),
        hash_ns as f64 / lookups as f64,
        sorted_ns as f64 / lookups as f64,
    );

    let out = std::env::var("BENCH_CHI_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_chi.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => eprintln!("could not write {out}: {err}"),
    }
    print!("{json}");
}

fn bench_emit_baseline(_c: &mut Criterion) {
    // Skip the slow manual sweep when cargo runs benches in test mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    emit_baseline();
}

criterion_group!(
    benches,
    bench_chi_strategies,
    bench_search,
    bench_emit_baseline
);
criterion_main!(benches);
