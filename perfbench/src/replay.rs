//! The in-process side: the reference answers every HTTP response is
//! checked against, and the traced replay that times each layer
//! through its public functions.
//!
//! Only APIs the project means to keep are called here: no χ-cache
//! types, no v1 or compressed codecs, no `QueryTimings`. Timing comes
//! from the spans this module records around each call.

use crate::corpus::Query;
use crate::stats::{median, ms, ratio, us, Metric};
use path_index::{encode_v2, IndexLike, MappedIndex, NoSynonyms, PathIndex};
use rdf_model::{parse_ntriples, parse_sparql, DataGraph};
use sama_core::{
    build_clusters, decompose_query, render_result_json, search_top_k, BatchConfig,
    IntersectionGraph, QueryResult, SamaEngine,
};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Answers per query, as the server's default `k`.
pub const K: usize = 10;

/// The engine over the index file the server serves, with the expected
/// response of every workload query.
pub struct Reference {
    pub engine: SamaEngine<MappedIndex>,
    /// Per query, the `/query` body the server must send.
    pub bodies: Vec<Vec<u8>>,
    /// Per query, `(answers, truncated)` as a `/batch` slot reports it.
    pub slots: Vec<(usize, bool)>,
    /// A result with no answers, the frame replayed answers are
    /// rendered in.
    template: QueryResult,
}

impl Reference {
    /// Open `index` and answer every query once. Fails when a query
    /// breaks the workload's contract: exact queries must have a top-1
    /// score of 0, approximate ones a top-1 score above 0.
    pub fn open(index: &Path, queries: &[Query]) -> Result<Reference, String> {
        let mapped = MappedIndex::open(index).map_err(|e| format!("cannot open index: {e}"))?;
        let engine = SamaEngine::from_index(mapped);
        let mut bodies = Vec::new();
        let mut slots = Vec::new();
        let mut template = None;
        for q in queries {
            let parsed = parse_sparql(&q.sparql).map_err(|e| format!("{}: {e}", q.name))?;
            let result = engine.answer(&parsed.graph, K);
            let top = result.best().map(|a| a.score());
            let honoured = match top {
                Some(score) if q.approximate => score > 0.0,
                Some(score) => score == 0.0,
                None => false,
            };
            if !honoured {
                return Err(format!(
                    "{} ({}) has top-1 score {top:?}",
                    q.name,
                    if q.approximate {
                        "approximate"
                    } else {
                        "exact"
                    }
                ));
            }
            bodies.push(render_result_json(engine.index(), &parsed.graph, &result).into_bytes());
            slots.push((result.answers.len(), result.truncated));
            template.get_or_insert(result);
        }
        let mut template = template.ok_or("the workload has no queries")?;
        template.answers.clear();
        template.query_paths.clear();
        template.clusters.clear();
        Ok(Reference {
            engine,
            bodies,
            slots,
            template,
        })
    }
}

/// One timed interval. Spans of one request share `request`; `parent`
/// indexes the enclosing span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory and written out once the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> Duration {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, Some(parent), request);
        let out = f();
        (out, self.close(id))
    }

    /// Per span name: count, total and self time (duration minus the
    /// part its children cover), in first-seen order.
    fn layers(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|l| l.0 == s.name) {
                Some(l) => {
                    l.1 += 1;
                    l.2 += total;
                    l.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (name, count, total, own) in self.layers() {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        out.flush()
    }
}

/// Counts gathered where the work happens, summed over replayed queries.
#[derive(Default)]
struct Counts {
    queries: u64,
    qpaths: u64,
    candidates: u64,
    aligned: u64,
    kept: u64,
    expansions: u64,
    answers: u64,
    truncated: u64,
    body_bytes: u64,
    parse: Duration,
    preprocess: Duration,
    cluster: Duration,
    search: Duration,
    render: Duration,
}

/// The traced run: set-up layers and request replays over every corpus
/// of a run, accumulated into one set of spans and counts.
pub struct Replayer {
    tracer: Tracer,
    counts: Counts,
    /// Per set-up layer (parse, build, encode, open), milliseconds.
    setup_ms: [Vec<f64>; 4],
    paths: Vec<f64>,
    bytes: Vec<f64>,
    /// Per request kind, replayed request time and the engine's part of
    /// it (preprocess + cluster + search, or `answer_batch`), in ms.
    pub request_ms: Vec<Vec<f64>>,
    pub engine_ms: Vec<Vec<f64>>,
    batch_wall_ms: Vec<f64>,
    efficiency: Vec<f64>,
    traced: Duration,
    untraced: Duration,
    passes: usize,
    request: u64,
    /// Replayed outputs that differed from `SamaEngine::answer`.
    pub mismatches: u64,
}

impl Replayer {
    pub fn new() -> Self {
        Replayer {
            tracer: Tracer::new(),
            counts: Counts::default(),
            setup_ms: Default::default(),
            paths: Vec::new(),
            bytes: Vec::new(),
            request_ms: Vec::new(),
            engine_ms: Vec::new(),
            batch_wall_ms: Vec::new(),
            efficiency: Vec::new(),
            traced: Duration::ZERO,
            untraced: Duration::ZERO,
            passes: 0,
            request: 0,
            mismatches: 0,
        }
    }

    /// Time the index build chain on a corpus `reps` times: parse,
    /// graph, build, encode, then open the encoded bytes.
    pub fn setup(&mut self, ntriples: &str, scratch: &Path, reps: usize) -> Result<(), String> {
        for _ in 0..reps {
            self.request += 1;
            let rq = self.request;
            let tr = &mut self.tracer;
            let root = tr.open("setup", None, rq);
            let (triples, t) = tr.time("rdf_model.parse_ntriples", root, rq, || {
                parse_ntriples(ntriples)
            });
            let triples = triples.map_err(|e| format!("generated corpus does not parse: {e}"))?;
            self.setup_ms[0].push(ms(t));
            let (data, _) = tr.time("rdf_model.data_graph", root, rq, || {
                DataGraph::from_triples(&triples)
            });
            let data = data.map_err(|e| format!("generated corpus is not a data graph: {e}"))?;
            let (index, t) = tr.time("path_index.build", root, rq, || PathIndex::build(data));
            self.setup_ms[1].push(ms(t));
            let (encoded, t) = tr.time("path_index.encode", root, rq, || encode_v2(&index));
            let encoded = encoded.map_err(|e| format!("cannot encode index: {e}"))?;
            self.setup_ms[2].push(ms(t));
            self.paths.push(index.path_count() as f64);
            self.bytes.push(encoded.len() as f64);
            drop(index);
            std::fs::write(scratch, &encoded).map_err(|e| format!("{}: {e}", scratch.display()))?;
            // Opening includes the first data-graph access, which a
            // mapped index defers until a query needs it.
            let (mapped, t) = tr.time("path_index.open", root, rq, || {
                let mapped = MappedIndex::open(scratch);
                if let Ok(m) = &mapped {
                    std::hint::black_box(m.data().edge_count());
                }
                mapped
            });
            mapped.map_err(|e| format!("cannot open encoded index: {e}"))?;
            self.setup_ms[3].push(ms(t));
            tr.close(root);
        }
        let _ = std::fs::remove_file(scratch);
        Ok(())
    }

    /// Replay one corpus's requests for about `budget`: passes over the
    /// query set, each query traced through `parse_sparql` →
    /// `decompose_query` + `IntersectionGraph::build` → `build_clusters`
    /// → `search_top_k` → `render_result_json`, plus one `answer_batch`
    /// over the set (inside the request when `batch`), then the same
    /// pass untraced through `SamaEngine::answer`. Adds one request kind
    /// per query, or one for the batch.
    pub fn replay(
        &mut self,
        reference: &Reference,
        queries: &[Query],
        batch: bool,
        batch_threads: usize,
        budget: Duration,
    ) -> Result<(), String> {
        let engine = &reference.engine;
        let batch_config = BatchConfig {
            k: K,
            threads: batch_threads,
            max_queue_depth: 0,
        };
        let first_kind = self.request_ms.len();
        let kinds = if batch { 1 } else { queries.len() };
        self.request_ms.resize(first_kind + kinds, Vec::new());
        self.engine_ms.resize(first_kind + kinds, Vec::new());

        // One untraced pass warms caches and lazy set-up.
        for q in queries {
            let parsed = parse_sparql(&q.sparql).map_err(|e| e.to_string())?;
            std::hint::black_box(engine.answer(&parsed.graph, K));
        }
        let started = Instant::now();
        let mut passes = 0;
        while passes < 2 || started.elapsed() < budget {
            passes += 1;
            let pass_start = self.tracer.spans.len();
            let mut graphs = Vec::with_capacity(queries.len());
            let mut parse = Duration::ZERO;
            self.request += 1;
            let mut root = self.tracer.open("request", None, self.request);
            for (qi, q) in queries.iter().enumerate() {
                if !batch && qi > 0 {
                    self.request += 1;
                    root = self.tracer.open("request", None, self.request);
                }
                let (graph, t_parse, t_engine) = self.query(reference, qi, q, root)?;
                parse += t_parse;
                graphs.push(graph);
                if !batch {
                    let kind = first_kind + qi;
                    self.request_ms[kind].push(ms(self.tracer.close(root)));
                    self.engine_ms[kind].push(ms(t_engine));
                }
            }
            // The batch pool over the same queries: on the request path
            // for the batch workload, its own root span otherwise.
            let batch_root = if batch {
                root
            } else {
                self.request += 1;
                self.tracer.open("batch", None, self.request)
            };
            let sequential = self.engine_time_since(pass_start);
            let (outcome, wall) =
                self.tracer
                    .time("core.answer_batch", batch_root, self.request, || {
                        engine.answer_batch(&graphs, &batch_config)
                    });
            let slots: Vec<(usize, bool)> = outcome
                .results
                .iter()
                .map(|r| {
                    r.as_ref()
                        .map_or((usize::MAX, true), |r| (r.answers.len(), r.truncated))
                })
                .collect();
            if slots != reference.slots {
                self.mismatches += 1;
            }
            self.batch_wall_ms.push(ms(wall));
            self.efficiency.push(ratio(
                sequential.as_secs_f64(),
                wall.as_secs_f64() * outcome.stats.threads as f64,
            ));
            self.tracer.close(batch_root);
            let mut traced = self.spans_named(pass_start, "request");
            if batch {
                // On the server a batch request parses its queries and
                // runs the pool; the per-query layer replay is off its
                // path.
                self.request_ms[first_kind].push(ms(parse + wall));
                self.engine_ms[first_kind].push(ms(wall));
                traced -= wall;
            }
            self.traced += traced;

            // The same pass untraced: parse, answer, render.
            let t0 = Instant::now();
            for (qi, q) in queries.iter().enumerate() {
                let parsed = parse_sparql(&q.sparql).map_err(|e| e.to_string())?;
                let result = engine.answer(&parsed.graph, K);
                let body = render_result_json(engine.index(), &parsed.graph, &result);
                if body.as_bytes() != reference.bodies[qi].as_slice() {
                    self.mismatches += 1;
                }
            }
            self.untraced += t0.elapsed();
        }
        self.passes += passes;
        Ok(())
    }

    /// One query through the layers, as spans under `root`. Returns the
    /// parsed graph, the parse time and the engine time.
    fn query(
        &mut self,
        reference: &Reference,
        qi: usize,
        q: &Query,
        root: usize,
    ) -> Result<(rdf_model::QueryGraph, Duration, Duration), String> {
        let engine = &reference.engine;
        let index = engine.index();
        let config = engine.config();
        let rq = self.request;
        let tr = &mut self.tracer;
        let c = &mut self.counts;
        let (parsed, t_parse) = tr.time("rdf_model.parse_sparql", root, rq, || {
            parse_sparql(&q.sparql)
        });
        let parsed = parsed.map_err(|e| e.to_string())?;
        let ((qpaths, ig), t_pre) = tr.time("core.preprocess", root, rq, || {
            let qpaths = decompose_query(
                &parsed.graph,
                index.data().vocab(),
                &NoSynonyms,
                &config.query_extraction,
            );
            let ig = IntersectionGraph::build(&qpaths);
            (qpaths, ig)
        });
        let (clusters, t_cluster) = tr.time("core.cluster", root, rq, || {
            build_clusters(
                &qpaths,
                index,
                &NoSynonyms,
                engine.params(),
                config.alignment,
                &config.cluster,
            )
        });
        let (outcome, t_search) = tr.time("core.search", root, rq, || {
            search_top_k(
                &qpaths,
                &ig,
                &clusters,
                index,
                engine.params(),
                K,
                &config.search,
            )
        });
        c.parse += t_parse;
        c.preprocess += t_pre;
        c.cluster += t_cluster;
        c.search += t_search;
        c.queries += 1;
        c.qpaths += qpaths.len() as u64;
        c.expansions += outcome.expansions as u64;
        c.answers += outcome.answers.len() as u64;
        c.truncated += u64::from(outcome.truncated);
        for cl in &clusters {
            c.candidates += cl.candidates_retrieved as u64;
            c.aligned += (cl.candidates_retrieved - cl.candidates_dropped - cl.lsh_pruned) as u64;
            c.kept += cl.entries.len() as u64;
        }
        let result = QueryResult {
            answers: outcome.answers,
            truncated: outcome.truncated || clusters.iter().any(|cl| cl.candidates_dropped > 0),
            retrieved_paths: clusters.iter().map(|cl| cl.candidates_retrieved).sum(),
            ..reference.template.clone()
        };
        let (body, t_render) = tr.time("core.jsonout", root, rq, || {
            render_result_json(index, &parsed.graph, &result)
        });
        c.render += t_render;
        c.body_bytes += body.len() as u64;
        if body.as_bytes() != reference.bodies[qi].as_slice() {
            self.mismatches += 1;
        }
        Ok((parsed.graph, t_parse, t_pre + t_cluster + t_search))
    }

    /// Engine time (preprocess, cluster, search) of the spans recorded
    /// since `from`: the sequential cost `answer_batch` parallelises.
    fn engine_time_since(&self, from: usize) -> Duration {
        ["core.preprocess", "core.cluster", "core.search"]
            .iter()
            .map(|name| self.spans_named(from, name))
            .sum()
    }

    fn spans_named(&self, from: usize, name: &str) -> Duration {
        self.tracer.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Duration::from_nanos(s.end_ns - s.start_ns))
            .sum()
    }

    /// Write the spans out and derive the per-layer metrics.
    pub fn finish(self, spans_out: &Path) -> Result<Vec<Metric>, String> {
        self.tracer
            .write(spans_out)
            .map_err(|e| format!("{}: {e}", spans_out.display()))?;
        let c = &self.counts;
        let q = c.queries as usize;
        let n = c.queries as f64;
        let engine = (c.preprocess + c.cluster + c.search).as_secs_f64();
        let cluster = c.cluster.as_secs_f64();
        let search = c.search.as_secs_f64();
        let reps = self.setup_ms[0].len();
        Ok(vec![
            Metric::new(
                "rdf_model.parse_ntriples_ms",
                median(&self.setup_ms[0]),
                "ms",
                reps,
            ),
            Metric::new("path_index.build_ms", median(&self.setup_ms[1]), "ms", reps),
            Metric::new(
                "path_index.encode_ms",
                median(&self.setup_ms[2]),
                "ms",
                reps,
            ),
            Metric::new("path_index.open_ms", median(&self.setup_ms[3]), "ms", reps),
            Metric::new("path_index.paths", median(&self.paths), "count", reps),
            Metric::new("path_index.bytes", median(&self.bytes), "bytes", reps),
            Metric::new("rdf_model.parse_sparql_us", us(c.parse) / n, "us", q),
            Metric::new("preprocess.us_per_query", us(c.preprocess) / n, "us", q),
            Metric::new(
                "preprocess.qpaths_per_query",
                c.qpaths as f64 / n,
                "count",
                q,
            ),
            Metric::new("cluster.ms_per_query", ms(c.cluster) / n, "ms", q),
            Metric::new("cluster.share", ratio(cluster, engine), "ratio", q),
            Metric::new(
                "cluster.candidates_per_query",
                c.candidates as f64 / n,
                "count",
                q,
            ),
            Metric::new(
                "cluster.ns_per_candidate",
                ratio(cluster * 1e9, c.candidates as f64),
                "ns",
                c.candidates as usize,
            ),
            Metric::new(
                "cluster.kept_ratio",
                ratio(c.kept as f64, c.aligned as f64),
                "ratio",
                c.aligned as usize,
            ),
            Metric::new("search.ms_per_query", ms(c.search) / n, "ms", q),
            Metric::new("search.share", ratio(search, engine), "ratio", q),
            Metric::new(
                "search.expansions_per_query",
                c.expansions as f64 / n,
                "count",
                q,
            ),
            Metric::new(
                "search.ns_per_expansion",
                ratio(search * 1e9, c.expansions as f64),
                "ns",
                c.expansions as usize,
            ),
            Metric::new(
                "search.answers_per_expansion",
                ratio(c.answers as f64, c.expansions as f64),
                "ratio",
                c.expansions as usize,
            ),
            Metric::new("search.truncated_ratio", c.truncated as f64 / n, "ratio", q),
            Metric::new(
                "batch.wall_ms",
                median(&self.batch_wall_ms),
                "ms",
                self.batch_wall_ms.len(),
            ),
            Metric::new(
                "batch.parallel_efficiency",
                median(&self.efficiency),
                "ratio",
                self.efficiency.len(),
            ),
            Metric::new("jsonout.render_us", us(c.render) / n, "us", q),
            Metric::new(
                "jsonout.bytes_per_response",
                c.body_bytes as f64 / n,
                "bytes",
                q,
            ),
            Metric::new(
                "trace.overhead_ratio",
                ratio(self.traced.as_secs_f64(), self.untraced.as_secs_f64()),
                "ratio",
                self.passes,
            ),
        ])
    }
}
