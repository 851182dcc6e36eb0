//! The sama benchmark: end-to-end runs of the `sama` CLI (`sama index`,
//! then `sama serve` under load over loopback HTTP) and a separate
//! traced run that replays the same requests in-process, layer by
//! layer. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --sama <bin> --workload <name> [--seed N] [--seconds S]
//!           [--trace 0|1] [--smoke] [--root DIR] [--out DIR]
//! ```
//!
//! The last line of stdout is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. A fuller record with provenance and sample counts goes
//! to `<out>/<workload>-seed<N>-trace<T>.json`, and traced runs write
//! their spans next to it.

mod client;
mod corpus;
mod load;
mod replay;
mod stats;

use client::{get, post, Server};
use corpus::{Load, Workload};
use load::{Client, Expect, Request, Tally};
use replay::{Reference, Replayer};
use stats::{
    median, percentile, ratio, tail_supported, us, windowed_percentile, Metric, WINDOW_SAMPLES,
};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Args {
    sama: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    root: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut sama = None;
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut smoke = false;
    let mut root = PathBuf::from(".");
    let mut out = PathBuf::from("perfbench/results");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--sama" => sama = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(corpus::find(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--root" => root = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        sama: sama.ok_or("--sama <path to the sama binary> is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        root,
        out,
    })
}

fn main() {
    // Both sides run the defaults: no SAMA_* flag reaches the server or
    // the in-process engine.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SAMA_") {
            std::env::remove_var(key);
        }
    }
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Start-up samples taken in each pause between two load segments.
const STARTS_PER_PAUSE: usize = 3;

/// Load segments per corpus, plus one. Each start-up cost is sampled at
/// the corpus's start and [`STARTS_PER_PAUSE`] times in each pause; the
/// median over all corpora is reported, since one process start alone
/// does not repeat within a tenth.
fn start_up_samples(args: &Args, corpora: usize) -> usize {
    if args.smoke {
        2
    } else {
        (10 / corpora).max(3)
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let w = args.workload;
    let (triples, load) = match (args.smoke, w.load) {
        (true, Load::Open { .. }) => (
            corpus::SMOKE_TRIPLES,
            Load::Open {
                rate: corpus::SMOKE_RATE,
            },
        ),
        (true, load) => (corpus::SMOKE_TRIPLES, load),
        (false, load) => (w.triples, load),
    };
    let work = args
        .out
        .join(format!("work-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, load, triples, &work);
    let _ = std::fs::remove_dir_all(&work);
    let record = result?;

    let metrics = if args.trace {
        &record.per_layer
    } else {
        &record.end_to_end
    };
    let correct = record.acc.tally.failed == 0 && record.acc.problems.is_empty();
    for p in &record.acc.problems {
        eprintln!("perfbench: {p}");
    }
    write_record(args, &record, correct)?;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        record.acc.tally.attempted,
        record.acc.tally.failed,
        body.join(",")
    );
    Ok(if correct { 0 } else { 1 })
}

/// What the end-to-end phases of one run gathered, over all corpora.
#[derive(Default)]
struct Acc {
    tally: Tally,
    build_s: Vec<f64>,
    setup_s: Vec<f64>,
    index_bytes: u64,
    triples: usize,
    queries: usize,
    peak_rss_mb: Vec<f64>,
    healthz_us: Vec<f64>,
    batch_threads: usize,
    /// Output mismatches and lifecycle faults, already counted as
    /// failures where they are operations.
    problems: Vec<String>,
}

/// Everything one run measured.
struct Record {
    acc: Acc,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    offered_rate: Option<f64>,
    /// p90 over all of the run's samples at once, whatever the load.
    latency_p90_pooled_ms: f64,
    latency_p99_ms: Option<f64>,
}

/// Run the workload over each of its corpora in turn, then derive the
/// metrics from everything gathered.
fn measure(args: &Args, load: Load, triples: usize, work: &Path) -> Result<Record, String> {
    let w = args.workload;
    let seconds = Duration::from_secs(args.seconds) / w.corpora as u32;
    let mut acc = Acc::default();
    let mut replayer = args.trace.then(Replayer::new);
    // Each corpus's latency samples, as a range of the tally's.
    let mut samples = Vec::new();
    for j in 0..w.corpora {
        // Sub-seeds of different seeds never overlap.
        let seed = args.seed * w.corpora as u64 + j as u64;
        let corpus = corpus::build(&w, seed, triples);
        let from = acc.tally.latencies_ms.len();
        let reference = serve_corpus(args, load, &corpus, work, seconds, &mut acc)?;
        samples.push(from..acc.tally.latencies_ms.len());
        // The replay gets a third of the corpus's load time: enough
        // passes for steady layer shares, short enough that a traced run
        // stays within a third more than an untraced one.
        if let Some(replayer) = replayer.as_mut() {
            replayer.setup(&corpus.ntriples, &work.join("replay.bin"), 2)?;
            replayer.replay(
                &reference,
                &corpus.queries,
                load == Load::ClosedBatch,
                acc.batch_threads,
                seconds / 3,
            )?;
        }
    }
    let t = &acc.tally;
    if t.mismatches > 0 {
        acc.problems.push(format!(
            "{} responses differ from the reference",
            t.mismatches
        ));
    }
    if t.non_200 > 0 {
        acc.problems
            .push(format!("{} responses were not 200", t.non_200));
    }
    if t.latencies_ms.is_empty() {
        return Err(format!(
            "no request succeeded: {} attempted, {} failed, {} mismatched, {} not 200",
            t.attempted, t.failed, t.mismatches, t.non_200
        ));
    }

    let mut lat = t.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    if !tail_supported(n, 0.9) && !args.smoke {
        eprintln!(
            "perfbench: warning: latency_p90_ms rests on {n} samples, fewer than 10 beyond it"
        );
    }
    let latency = |q| latency_percentile(t, &samples, load, seconds, q);
    let end_to_end = vec![
        Metric::new("qps", t.qps(), "1/s", n),
        Metric::new("latency_p50_ms", latency(0.5), "ms", n),
        Metric::new("latency_p90_ms", latency(0.9), "ms", n),
        Metric::new("setup_s", median(&acc.setup_s), "s", acc.setup_s.len()),
        Metric::new(
            "index_build_s",
            median(&acc.build_s),
            "s",
            acc.build_s.len(),
        ),
        Metric::new(
            "index_bytes_per_triple",
            acc.index_bytes as f64 / acc.triples as f64,
            "bytes/triple",
            w.corpora,
        ),
        Metric::new("peak_rss_mb", median(&acc.peak_rss_mb), "MiB", w.corpora),
    ];

    let mut per_layer = Vec::new();
    if let Some(replayer) = replayer {
        if replayer.mismatches > 0 {
            acc.problems.push(format!(
                "{} replayed outputs differ from SamaEngine::answer",
                replayer.mismatches
            ));
        }
        let serve = serve_layer(&acc.tally, &replayer, load, acc.queries / w.corpora);
        let spans = args
            .out
            .join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
        per_layer = replayer.finish(&spans)?;
        per_layer.extend(serve);
        let t = &acc.tally;
        let mut lag = t.lag_ms.clone();
        lag.sort_by(f64::total_cmp);
        per_layer.extend([
            Metric::new(
                "batch.threads",
                acc.batch_threads as f64,
                "count",
                w.corpora,
            ),
            Metric::new(
                "serve.healthz_rtt_us",
                median(&acc.healthz_us),
                "us",
                HEALTHZ_PROBES * w.corpora,
            ),
            Metric::new(
                "serve.non_200",
                t.non_200 as f64,
                "count",
                t.attempted as usize,
            ),
            Metric::new("driver.lag_p99_ms", percentile(&lag, 0.99), "ms", lag.len()),
            Metric::new(
                "failed_ratio",
                ratio(t.failed as f64, t.attempted as f64),
                "ratio",
                t.attempted as usize,
            ),
        ]);
    }

    Ok(Record {
        latency_p90_pooled_ms: percentile(&lat, 0.9),
        latency_p99_ms: tail_supported(n, 0.99).then(|| percentile(&lat, 0.99)),
        offered_rate: match load {
            Load::Open { rate } => Some(rate),
            _ => None,
        },
        acc,
        end_to_end,
        per_layer,
    })
}

/// The `q` latency percentile the result reports. A closed loop times
/// each request from its own write, so a stall of the shared host
/// charges one request: the percentile is taken over all samples. The
/// open loop times from when a request was due, so one stall charges
/// every request queued behind it, and a slow spell of the host moves
/// the whole tail for as long as it lasts. There the percentile is taken
/// per one-second window of each corpus's load, the median over a
/// corpus's windows stands for the corpus, and the corpora are averaged.
fn latency_percentile(
    t: &Tally,
    samples: &[Range<usize>],
    load: Load,
    seconds: Duration,
    q: f64,
) -> f64 {
    if !matches!(load, Load::Open { .. }) {
        let mut lat = t.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        return percentile(&lat, q);
    }
    let per_corpus: Vec<f64> = samples
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let mut timed: Vec<(Instant, f64)> = t.starts[r.clone()]
                .iter()
                .copied()
                .zip(t.latencies_ms[r.clone()].iter().copied())
                .collect();
            timed.sort_by_key(|&(start, _)| start);
            let in_order: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
            let windows = (in_order.len() / WINDOW_SAMPLES).min(seconds.as_secs() as usize);
            windowed_percentile(&in_order, q, windows)
        })
        .collect();
    per_corpus.iter().sum::<f64>() / per_corpus.len() as f64
}

/// The serve layer's share, per request kind (one corpus's query, or
/// its batch): the end-to-end median against the replayed median.
fn serve_layer(tally: &Tally, replayer: &Replayer, load: Load, queries: usize) -> [Metric; 2] {
    let per_request = match load {
        Load::ClosedBatch => queries as f64,
        _ => 1.0,
    };
    let kinds = replayer.request_ms.len();
    let mut e2e = vec![Vec::new(); kinds];
    for (&kind, &ms) in tally.kinds.iter().zip(&tally.latencies_ms) {
        e2e[kind].push(ms);
    }
    let (mut gap_us, mut outside, mut total, mut counted) = (0.0, 0.0, 0.0, 0.0);
    for k in (0..kinds).filter(|&k| !e2e[k].is_empty()) {
        counted += 1.0;
        let end_to_end = median(&e2e[k]);
        gap_us += (end_to_end - median(&replayer.request_ms[k])) * 1e3 / per_request;
        outside += end_to_end - median(&replayer.engine_ms[k]);
        total += end_to_end;
    }
    [
        Metric::new(
            "serve.unattributed_us",
            gap_us / counted,
            "us",
            tally.latencies_ms.len(),
        ),
        Metric::new(
            "serve.non_engine_share",
            ratio(outside, total),
            "ratio",
            tally.latencies_ms.len(),
        ),
    ]
}

/// Index one corpus with `sama index`, serve it with `sama serve`, and
/// load it for `seconds`. Returns the in-process reference over the same
/// index file.
fn serve_corpus(
    args: &Args,
    load: Load,
    corpus: &corpus::Corpus,
    work: &Path,
    seconds: Duration,
    acc: &mut Acc,
) -> Result<Reference, String> {
    let nt = work.join("data.nt");
    let idx = work.join("idx.bin");
    std::fs::write(&nt, &corpus.ntriples).map_err(|e| format!("{}: {e}", nt.display()))?;
    acc.build_s
        .push(client::build_index(&args.sama, &nt, &idx)?.as_secs_f64());
    acc.index_bytes += std::fs::metadata(&idx)
        .map_err(|e| format!("{}: {e}", idx.display()))?
        .len();
    acc.triples += corpus.triples;
    let reference = Reference::open(&idx, &corpus.queries)?;

    // Request kinds number on across corpora: one per query, or one per
    // batch.
    let first_kind = acc.queries;
    let queries = corpus.queries.len();
    acc.queries += queries;
    let requests: Vec<Request> = match load {
        Load::ClosedBatch => vec![Request {
            bytes: post("/batch", &corpus::batch_body(&corpus.queries)),
            expect: Expect::Batch(reference.slots.clone()),
            queries: queries as u64,
            kind: first_kind / queries,
        }],
        _ => corpus
            .queries
            .iter()
            .zip(&reference.bodies)
            .enumerate()
            .map(|(i, (q, body))| Request {
                bytes: post("/query", &q.sparql),
                expect: Expect::Body(body.clone()),
                queries: 1,
                kind: first_kind + i,
            })
            .collect(),
    };

    let (server, took) = Server::start(&args.sama, &idx)?;
    acc.setup_s.push(took.as_secs_f64());

    // Warm up before timing, with the same load on the same
    // connections: caches, lazy set-up and the handler threads. The first
    // corpus warms up longer: a host that idled before the run answers
    // the first seconds of load slowly.
    let mut clients: Vec<Client> = (0..connections(load))
        .map(|_| Client::new(server.addr, matches!(load, Load::Open { .. })))
        .collect();
    let warm = Duration::from_secs_f64(match (args.smoke, first_kind) {
        (true, _) => 0.2,
        (false, 0) => 2.0,
        (false, _) => 0.5,
    });
    let drive = |clients: &mut [Client], until: Instant| match load {
        Load::Open { rate } => load::open(clients, &requests, rate, Instant::now(), until),
        _ => load::closed(&mut clients[0], &requests, until),
    };
    let warmup = drive(&mut clients, Instant::now() + warm);
    acc.tally.add_failures(&warmup);
    let (threads, matches) = probe_batch(&mut clients[0], corpus, &reference)?;
    acc.batch_threads = threads;
    acc.tally.attempted += 1;
    if !matches {
        acc.tally.failed += 1;
        acc.tally.mismatches += 1;
    }

    // The load runs in equal segments. Between two segments it pauses
    // for a few more `sama index` builds and `sama serve` starts, so the
    // start-up samples spread over the whole run: a shared host drifts
    // between fast and slow spells, and samples all taken back to back
    // would land in one spell.
    let segments = start_up_samples(args, args.workload.corpora) - 1;
    let rebuilt = work.join("rebuilt.bin");
    for _ in 0..segments {
        acc.tally.append(drive(
            &mut clients,
            Instant::now() + seconds / segments as u32,
        ));
        for _ in 0..STARTS_PER_PAUSE {
            acc.build_s
                .push(client::build_index(&args.sama, &nt, &rebuilt)?.as_secs_f64());
            let (extra, took) = Server::start(&args.sama, &idx)?;
            acc.setup_s.push(took.as_secs_f64());
            acc.tally.attempted += 1;
            if let Err(e) = extra.drain() {
                acc.tally.failed += 1;
                acc.problems.push(e);
            }
        }
    }

    acc.healthz_us.push(healthz_rtt_us(&mut clients[0])?);
    drop(clients);
    acc.peak_rss_mb.push(server.peak_rss_mb()?);
    acc.tally.attempted += 1;
    if let Err(e) = server.drain() {
        acc.tally.failed += 1;
        acc.problems.push(e);
    }
    Ok(reference)
}

/// Keep-alive connections the load runs on.
fn connections(load: Load) -> usize {
    match load {
        Load::Open { .. } => 2,
        _ => 1,
    }
}

/// Send the workload's queries as one `/batch`: every workload
/// exercises the batch path once, and the answer tells the pool size the
/// server runs with. Returns that size and whether every slot matched
/// the reference.
fn probe_batch(
    client: &mut Client,
    corpus: &corpus::Corpus,
    reference: &Reference,
) -> Result<(usize, bool), String> {
    let conn = client.conn().map_err(|e| format!("connect: {e}"))?;
    let reply = conn
        .send(&post("/batch", &corpus::batch_body(&corpus.queries)))
        .map_err(|e| format!("/batch: {e}"))?;
    let body = String::from_utf8_lossy(conn.body(&reply)).into_owned();
    let matches = reply.status == 200
        && load::batch_slots(body.as_bytes()).as_ref() == Some(&reference.slots);
    let threads = body
        .split("\"threads\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("/batch reply carries no thread count: {body}"))?;
    Ok((threads, matches))
}

const HEALTHZ_PROBES: usize = 200;

/// Median round trip of `GET /healthz` on one keep-alive connection:
/// the loopback floor under every request.
fn healthz_rtt_us(client: &mut Client) -> Result<f64, String> {
    let conn = client.conn().map_err(|e| format!("connect: {e}"))?;
    let request = get("/healthz");
    let mut rtts = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let t = Instant::now();
        let reply = conn.send(&request).map_err(|e| format!("/healthz: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/healthz answered {}", reply.status));
        }
        rtts.push(us(t.elapsed()));
    }
    Ok(median(&rtts))
}

/// The provenance record of one run: what ran, where, on which inputs,
/// and every metric with its sample count.
fn write_record(args: &Args, record: &Record, correct: bool) -> Result<(), String> {
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let metrics: Vec<String> = record
        .end_to_end
        .iter()
        .chain(&record.per_layer)
        .map(|m| {
            format!(
                "    {{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    let acc = &record.acc;
    let json = format!(
        "{{\n  \"workload\":\"{}\",\n  \"seed\":{},\n  \"seconds\":{},\n  \"trace\":{},\n  \
         \"smoke\":{},\n  \"git_revision\":\"{}\",\n  \"source_digest\":\"{:016x}\",\n  \
         \"hardware_threads\":{},\n  \"corpora\":{},\n  \"triples\":{},\n  \"queries\":{},\n  \
         \"offered_rate\":{},\n  \"batch_threads\":{},\n  \"latency_p90_pooled_ms\":{},\n  \
         \"latency_p99_ms\":{},\n  \
         \"correct\":{correct},\n  \"attempted\":{},\n  \"failed\":{},\n  \"metrics\":[\n{}\n  ]\n}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        git_revision(&args.root),
        source_digest(&args.root),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.workload.corpora,
        acc.triples,
        acc.queries,
        opt(record.offered_rate),
        acc.batch_threads,
        record.latency_p90_pooled_ms,
        opt(record.latency_p99_ms),
        acc.tally.attempted,
        acc.tally.failed,
        metrics.join(",\n"),
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

fn git_revision(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A hash of the sources the `sama` binary is built from, which names
/// the code measured where no git revision is available.
fn source_digest(root: &Path) -> u64 {
    use std::hash::{Hash, Hasher};
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    walk(&root.join("third_party"), &mut files);
    files.sort();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            file.strip_prefix(root).unwrap_or(&file).hash(&mut hasher);
            bytes.hash(&mut hasher);
        }
    }
    hasher.finish()
}
