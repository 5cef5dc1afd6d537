//! End-to-end and per-layer benchmark of the FanStore reproduction.
//!
//! One binary runs three workloads against a real in-process 2-node
//! cluster and checks every delivered byte against the retained
//! originals (see README.md for why each workload exists):
//!
//! - `train_cold` / `train_warm`: both ranks train through
//!   `prefetched_epoch` over a seeded per-epoch shuffle of 256 EM-like
//!   128 KiB files; the cold cache is 4 MiB, the warm one holds the set.
//! - `serve_mix`: one closed-loop client on rank 1 against rank 0's
//!   daemon: GET, byte-range, GET_MANY and WAL-backed PUT.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload untraced and then traced, and prints the per-layer
//! metrics. Every layer is measured from outside the program: timed calls
//! into public functions, the program's counters, and its span ring.

pub mod heap;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod train;

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use fanstore::client::FsClient;
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::metrics::now_us;
use fanstore::prep::{prepare, PrepConfig};
use fanstore::trace::{SpanEvent, TraceRecorder};

/// Cluster size: one rank per core of the 2-core machine the bounds were
/// fixed on.
pub const NODES: usize = 2;
/// Span ring entries per node in a traced run.
pub const TRACE_RING: usize = 1 << 16;
/// Cold set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache far smaller than the data: decode, CRC, daemon and fabric work.
    TrainCold,
    /// Cache holds the data: the cache probe and buffer handoff work.
    /// Not listed in BENCHMARK.json: its waits are set by the CPU
    /// scheduler more than by the program (README.md).
    TrainWarm,
    /// Point-latency mix of GET, range, GET_MANY and PUT.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::TrainCold, Workload::TrainWarm, Workload::ServeMix];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainCold => "train_cold",
            Workload::TrainWarm => "train_warm",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Windows a measured phase is split into for the end-to-end
    /// metrics: as many as still leave each window at least 1 000 waits
    /// (ten beyond its p99) at 30 s. `train_cold` delivers about 180
    /// batches/s, `serve_mix` about 700 ops/s, `train_warm` about 2 400
    /// batches/s.
    pub fn windows(self) -> usize {
        match self {
            Workload::TrainCold => 5,
            Workload::TrainWarm | Workload::ServeMix => 15,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds (split between the untraced and traced halves
    /// when `trace` is set).
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a layer metric: the end-to-end metric (and workload) it should
    /// move. Empty for end-to-end metrics.
    pub moves: &'static str,
}

impl Metric {
    fn e2e(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, moves: "" }
    }
}

/// Everything one invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every delivered byte matched and no operation failed.
    pub correct: bool,
    /// Samples or ops attempted, the checked reads outside the timed
    /// loops included.
    pub attempted: u64,
    /// Operations that failed or delivered wrong bytes.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

/// Counter values of one rank (program counters, histogram sums and
/// counts, cache and buffer-pool statistics), by name.
pub type Counters = BTreeMap<String, f64>;

/// Read every counter this benchmark uses from one rank.
pub fn sample_counters(fs: &FsClient) -> Counters {
    let st = fs.state();
    let snap = st.metrics.snapshot();
    let mut out: Counters = snap.counters.iter().map(|(k, v)| (k.clone(), *v as f64)).collect();
    for (k, h) in &snap.histograms {
        out.insert(format!("{k}.sum"), h.sum as f64);
        out.insert(format!("{k}.count"), h.count as f64);
    }
    use std::sync::atomic::Ordering::Relaxed;
    let cache = st.cache.stats();
    out.insert("cache.hits".into(), cache.hits.load(Relaxed) as f64);
    out.insert("cache.misses".into(), cache.misses.load(Relaxed) as f64);
    out.insert("cache.evictions".into(), cache.evictions.load(Relaxed) as f64);
    let pool = st.pool.stats();
    out.insert("bufpool.hits".into(), pool.hits as f64);
    out.insert("bufpool.misses".into(), pool.misses as f64);
    out
}

/// `after - before`, key by key.
pub fn counter_delta(before: &Counters, after: &Counters) -> Counters {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0))).collect()
}

/// One delivered batch (train) or finished op (serve).
#[derive(Debug, Clone, Copy)]
pub struct Wait {
    /// When it finished, seconds into the rank's measured loop.
    pub at_s: f64,
    /// The wait for the batch, or the op's latency, µs.
    pub us: f64,
    /// Samples or ops it completed.
    pub items: u32,
}

/// One window of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Items completed per second, both ranks.
    pub items_per_s: f64,
    /// Median wait, µs.
    pub p50_us: f64,
    /// 99th-percentile wait, µs.
    pub p99_us: f64,
    /// Waits in the window.
    pub waits: usize,
}

/// Split a phase into `n` equal windows of its shortest rank loop and
/// take each one's throughput and wait percentiles. Each end-to-end
/// metric reports its best window: CPU taken by other tenants of the
/// machine slows the windows it falls in, while a slower program slows
/// every window.
pub fn windows(p: &Phase, n: usize) -> Vec<Window> {
    let len = p.wall_s / n as f64;
    (0..n)
        .map(|w| {
            let (lo, hi) = (w as f64 * len, (w + 1) as f64 * len);
            let inside: Vec<&Wait> =
                p.waits.iter().filter(|d| d.at_s >= lo && d.at_s < hi).collect();
            let us: Vec<f64> = inside.iter().map(|d| d.us).collect();
            Window {
                items_per_s: stats::ratio(inside.iter().map(|d| d.items as f64).sum(), len),
                p50_us: stats::quantile(&us, 0.50),
                p99_us: stats::quantile(&us, 0.99),
                waits: us.len(),
            }
        })
        .collect()
}

/// What one rank observed over its measured phase.
#[derive(Default)]
pub struct RankRun {
    /// Samples or ops attempted.
    pub items: u64,
    /// Items that failed or delivered wrong bytes (measured or not).
    pub failed: u64,
    /// Checked items outside the measured loop (warm-up, ledger GETs).
    pub unmeasured: u64,
    /// Seconds the rank's measured loop ran.
    pub wall_s: f64,
    /// Every delivered batch (train) or finished op (serve).
    pub waits: Vec<Wait>,
    /// Op latencies by op kind, µs (serve).
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Counter deltas over the phase.
    pub counters: Counters,
    /// Raw bytes handed to the caller.
    pub delivered: u64,
    /// Fabric bytes moved by byte-range reads (serve).
    pub range_moved: u64,
    /// Stored bytes of the whole files those ranges came from (serve).
    pub range_whole: u64,
    /// Cold single-GET latencies, µs: the ledger's end-to-end side.
    pub ledger_gets_us: Vec<f64>,
    /// Batches delivered (train).
    pub batches: u64,
    /// The rank's span ring (traced runs).
    pub trace: Option<Arc<TraceRecorder>>,
    /// Peak live heap over the measured phase, MiB.
    pub peak_heap_mib: f64,
    /// Measured phase bounds on the program's span clock.
    pub window_us: (u64, u64),
    /// Bounds of the ledger's single GETs, when they ran apart from the
    /// measured phase.
    pub ledger_window_us: (u64, u64),
}

/// All ranks' observations of one measured phase, merged.
#[derive(Default)]
pub struct Phase {
    /// Sum over ranks.
    pub items: u64,
    /// Sum over ranks.
    pub failed: u64,
    /// Sum over ranks.
    pub unmeasured: u64,
    /// Sum over ranks of items / wall: the cluster's throughput.
    pub items_per_s: f64,
    /// Pooled over ranks.
    pub waits: Vec<Wait>,
    /// Shortest measured loop of the ranks that ran one, s.
    pub wall_s: f64,
    /// Pooled over ranks.
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Summed over ranks.
    pub counters: Counters,
    /// Sum over ranks.
    pub delivered: u64,
    /// Sum over ranks.
    pub range_moved: u64,
    /// Sum over ranks.
    pub range_whole: u64,
    /// Pooled over ranks.
    pub ledger_gets_us: Vec<f64>,
    /// Sum over ranks.
    pub batches: u64,
    /// Spans recorded inside the measured window, every rank.
    pub spans: Vec<SpanEvent>,
    /// Spans of the ledger's single GETs run apart from the workload.
    pub ledger_spans: Vec<SpanEvent>,
    /// Peak live heap over the measured phase, MiB.
    pub peak_heap_mib: f64,
}

impl Phase {
    /// Merge per-rank runs. Span rings are read here, after the cluster
    /// has shut down and every daemon has joined.
    pub fn merge(runs: Vec<RankRun>) -> Phase {
        // Every rank's spans share one clock: classify them against the
        // union of the ranks' windows, so a daemon span serving a peer
        // lands with the request it served.
        let window = |w: fn(&RankRun) -> (u64, u64)| {
            let set: Vec<(u64, u64)> = runs.iter().map(w).filter(|w| w.1 > 0).collect();
            let lo = set.iter().map(|w| w.0).min().unwrap_or(0);
            (lo, set.iter().map(|w| w.1).max().unwrap_or(0))
        };
        let measured = window(|r| r.window_us);
        let ledger = window(|r| r.ledger_window_us);
        let inside = |s: &SpanEvent, (lo, hi): (u64, u64)| s.start_us >= lo && s.start_us < hi;
        let mut p = Phase::default();
        for r in runs {
            p.items += r.items;
            p.failed += r.failed;
            p.unmeasured += r.unmeasured;
            p.items_per_s += stats::ratio(r.items as f64, r.wall_s);
            p.waits.extend(r.waits);
            if r.items > 0 && (p.wall_s == 0.0 || r.wall_s < p.wall_s) {
                p.wall_s = r.wall_s;
            }
            p.peak_heap_mib = p.peak_heap_mib.max(r.peak_heap_mib);
            for (k, v) in r.by_kind {
                p.by_kind.entry(k).or_default().extend(v);
            }
            for (k, v) in r.counters {
                *p.counters.entry(k).or_default() += v;
            }
            p.delivered += r.delivered;
            p.range_moved += r.range_moved;
            p.range_whole += r.range_whole;
            p.ledger_gets_us.extend(r.ledger_gets_us);
            p.batches += r.batches;
            for s in r.trace.map(|t| t.spans()).unwrap_or_default() {
                if inside(&s, measured) {
                    p.spans.push(s);
                } else if inside(&s, ledger) {
                    p.ledger_spans.push(s);
                }
            }
        }
        p
    }

    /// Counter delta `name` summed over ranks (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// Request-id namespace of the benchmark's own spans: rank + 0xBE00 in
/// the top 16 bits, clear of the program's `(rank + 1) << 48` ids.
pub fn bench_request(rank: usize, seq: u64) -> u64 {
    ((0xBE00 + rank as u64) << 48) | seq
}

/// Whether a span was recorded by the benchmark rather than the program.
pub fn is_bench_span(s: &SpanEvent) -> bool {
    s.request >> 56 == 0xBE
}

/// Record one benchmark-side span that started at `start_us`.
pub fn bench_span(fs: &FsClient, request: u64, stage: &str, start_us: u64) {
    if let Some(t) = fs.trace() {
        t.record_span(SpanEvent {
            request,
            rank: fs.rank() as u32,
            stage: stage.to_string(),
            start_us,
            dur_us: now_us().saturating_sub(start_us),
        });
    }
}

/// Timed cold set-ups: prep the inputs, start the cluster, stop it once
/// every rank is ready.
pub struct Setup {
    /// Prep plus cluster start, per repetition (s).
    pub setup_s: Vec<f64>,
    /// Prep alone, per repetition (s).
    pub prep_s: Vec<f64>,
    /// Raw input bytes prepped per repetition.
    pub input_bytes: usize,
    /// The packed partitions (identical every repetition).
    pub partitions: Vec<Vec<u8>>,
}

/// Run `reps` cold set-ups of `files` under `prep` and `cluster`.
pub fn measure_setup(
    files: &[(String, Vec<u8>)],
    prep: &PrepConfig,
    cluster: &ClusterConfig,
    reps: usize,
) -> Setup {
    let input_bytes = files.iter().map(|(_, d)| d.len()).sum();
    let mut out = Setup { setup_s: vec![], prep_s: vec![], input_bytes, partitions: vec![] };
    for _ in 0..reps {
        let input = files.to_vec();
        let t0 = Instant::now();
        let packed = prepare(input, prep);
        let prep_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ready = FanStore::run(cluster.clone(), packed.partitions.clone(), |_| {
            t1.elapsed().as_secs_f64()
        });
        let start_s = ready.into_iter().fold(0.0, f64::max);
        out.prep_s.push(prep_s);
        out.setup_s.push(prep_s + start_s);
        // Keep the partitions at their exact size: `prepare`'s builder can
        // leave twice their bytes reserved or not, which moved the heap
        // peak in 8 MiB steps between runs.
        out.partitions = packed.partitions;
        out.partitions.iter_mut().for_each(Vec::shrink_to_fit);
    }
    out
}

/// The barrier all ranks of a cluster pass to start and end their
/// measured phase together. The heap peak restarts at the start, after
/// cluster start-up's transient partition copies, so it measures the
/// steady phase.
pub struct Gate(Barrier);

impl Gate {
    /// Wait for every rank; the measured phase starts.
    pub fn start(&self) {
        if self.0.wait().is_leader() {
            heap::reset_peak();
        }
    }

    /// Wait for every rank; the measured phase has ended. Returns the
    /// peak live heap over it, MiB.
    pub fn stop(&self) -> f64 {
        self.0.wait();
        heap::peak_mib()
    }

    /// Wait for every rank.
    pub fn wait(&self) {
        self.0.wait();
    }
}

/// Run `body` on every rank of a cluster over `partitions`.
pub fn run_cluster<F>(cluster: &ClusterConfig, partitions: Vec<Vec<u8>>, body: F) -> Phase
where
    F: Fn(&FsClient, &Gate) -> RankRun + Send + Sync,
{
    let gate = Gate(Barrier::new(cluster.nodes));
    Phase::merge(FanStore::run(cluster.clone(), partitions, |fs| {
        let mut run = body(fs, &gate);
        run.trace = fs.trace().cloned();
        run
    }))
}

/// The two measured phases of a run: untraced, and (with `--trace 1`)
/// traced.
pub struct Measured {
    /// The set-up repetitions.
    pub setup: Setup,
    /// End-to-end numbers come only from here.
    pub untraced: Phase,
    /// Present with `--trace 1`.
    pub traced: Option<Phase>,
}

/// Run the invocation and build its report.
pub fn run(args: &Args) -> Report {
    let measured = match args.workload {
        Workload::TrainCold | Workload::TrainWarm => train::measure(args),
        Workload::ServeMix => serve::measure(args),
    };
    let phases = std::iter::once(&measured.untraced).chain(&measured.traced);
    let mut report = Report::default();
    for p in phases {
        report.attempted += p.items + p.unmeasured;
        report.failed += p.failed;
    }
    report.correct = report.failed == 0 && report.attempted > 0;
    report.notes.push(format!(
        "workload {} seed {} seconds {} trace {}: {} items, {} failed (failed_ratio {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        report.attempted,
        report.failed,
        stats::ratio(report.failed as f64, report.attempted as f64),
    ));
    if args.trace {
        report.metrics = layers::layer_metrics(args.workload, &measured);
    } else {
        let u = &measured.untraced;
        let win = windows(u, args.workload.windows());
        let best = |f: fn(&Window) -> f64, pick: fn(f64, f64) -> f64| {
            win.iter().map(f).reduce(pick).unwrap_or(0.0)
        };
        report.metrics = vec![
            Metric::e2e("setup_s", stats::median(&measured.setup.setup_s), "s"),
            Metric::e2e("peak_heap_mib", u.peak_heap_mib, "MiB"),
            Metric::e2e("items_per_s", best(|w| w.items_per_s, f64::max), "1/s"),
            Metric::e2e("wait_p50_us", best(|w| w.p50_us, f64::min), "us"),
            Metric::e2e("wait_p99_us", best(|w| w.p99_us, f64::min), "us"),
        ];
        report.notes.push(format!("set-ups (s): {:?}", measured.setup.setup_s));
        for (i, w) in win.iter().enumerate() {
            report.notes.push(format!(
                "window {i}: {:.1} items/s, p50 {:.1} us, p99 {:.1} us over {} waits",
                w.items_per_s, w.p50_us, w.p99_us, w.waits
            ));
        }
        for (kind, lat) in &u.by_kind {
            report.notes.push(format!(
                "{kind}: {} ops, p50 {:.1} us, p99 {:.1} us",
                lat.len(),
                stats::quantile(lat, 0.5),
                stats::quantile(lat, 0.99),
            ));
        }
    }
    report
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, v, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
