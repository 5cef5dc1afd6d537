//! Per-layer metrics of a traced run, each measured from outside the
//! program: probes time calls into a layer's public functions on the
//! workload's own objects, counters come from the program's registry,
//! and self times come from the span ring joined by `fanstore::attrib`.

use std::sync::Arc;
use std::time::Instant;

use fanstore::attrib::{aggregate, attribute, RequestAttribution};
use fanstore::bufpool::BufPool;
use fanstore::cache::{CacheConfig, FileCache};
use fanstore::pack::{parse_chunk_table, parse_partition, PackEntry, CHUNKED};
use fanstore::trace::SpanEvent;
use fanstore_compress::crc32::crc32;
use fanstore_compress::{decompress_into, registry};

use crate::stats::{mean, median, quantile, ratio};
use crate::{is_bench_span, Measured, Metric, Phase, Workload};

/// Repetitions of every probe; each probe reports its median.
pub const PROBE_REPS: usize = 5;

/// Probe timings on the workload's own packed objects.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `Codec::decompress` throughput over the whole-file entries, MB/s.
    pub decode_mb_per_s: f64,
    /// `crc32` throughput over their stored bytes, MB/s.
    pub crc32_mb_per_s: f64,
    /// Mean decode time of one whole-file entry, µs.
    pub decode_us: f64,
    /// Mean `crc32` time over one entry's stored bytes, µs.
    pub crc32_us: f64,
    /// `parse_partition` of every partition plus `parse_chunk_table` of
    /// every chunked entry, µs.
    pub parse_us: f64,
    /// `FileCache::open` plus `close` of a resident entry, ns.
    pub cache_open_ns: f64,
    /// `FileCache::insert` of a new entry, ns.
    pub cache_insert_ns: f64,
    /// `BufPool::take` plus `put` of an entry-sized buffer, ns.
    pub bufpool_ns: f64,
}

/// Median over `PROBE_REPS` runs of `f`, which returns one measurement.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..PROBE_REPS).map(|_| f()).collect::<Vec<_>>())
}

/// Time every probe on the objects packed into `partitions`.
pub fn probes(partitions: &[Vec<u8>]) -> Probes {
    let parse = || -> Vec<PackEntry> {
        let entries: Vec<PackEntry> =
            partitions.iter().flat_map(|p| parse_partition(p).expect("partition parses")).collect();
        for e in entries.iter().filter(|e| e.codec == CHUNKED) {
            parse_chunk_table(&e.data).expect("chunk table parses");
        }
        entries
    };
    let parse_us = median_of(|| {
        let t = Instant::now();
        std::hint::black_box(parse());
        t.elapsed().as_secs_f64() * 1e6
    });
    let whole: Vec<PackEntry> = parse().into_iter().filter(|e| e.codec != CHUNKED).collect();
    let n = whole.len().max(1) as f64;
    let raw_bytes: usize = whole.iter().map(|e| e.stat.size as usize).sum();
    let stored_bytes: usize = whole.iter().map(|e| e.data.len()).sum();

    let codecs: Vec<_> =
        whole.iter().map(|e| registry::create(e.codec).expect("known codec")).collect();
    let mut out = Vec::new();
    let decode_s = median_of(|| {
        let t = Instant::now();
        for (e, c) in whole.iter().zip(&codecs) {
            decompress_into(c.as_ref(), &e.data, e.stat.size as usize, &mut out).expect("decodes");
            std::hint::black_box(&out);
        }
        t.elapsed().as_secs_f64()
    });
    let crc_s = median_of(|| {
        let t = Instant::now();
        for e in &whole {
            std::hint::black_box(crc32(&e.data));
        }
        t.elapsed().as_secs_f64()
    });

    let decoded: Vec<(String, Arc<Vec<u8>>)> = whole
        .iter()
        .zip(&codecs)
        .map(|(e, c)| {
            let mut v = Vec::new();
            decompress_into(c.as_ref(), &e.data, e.stat.size as usize, &mut v).expect("decodes");
            (e.path.clone(), Arc::new(v))
        })
        .collect();
    let cfg = CacheConfig { capacity: 2 * raw_bytes + (1 << 20), ..CacheConfig::default() };
    let mut open_ns = Vec::new();
    let insert_ns = median_of(|| {
        let cache = FileCache::new(cfg);
        let t = Instant::now();
        for (p, d) in &decoded {
            cache.insert(p, Arc::clone(d));
        }
        let insert = t.elapsed().as_secs_f64() * 1e9 / n;
        for (p, _) in &decoded {
            cache.close(p);
        }
        let t = Instant::now();
        for (p, _) in &decoded {
            std::hint::black_box(cache.open(p));
            cache.close(p);
        }
        open_ns.push(t.elapsed().as_secs_f64() * 1e9 / n);
        insert
    });
    let pool = BufPool::new(8);
    let bufpool_ns = median_of(|| {
        let t = Instant::now();
        for e in &whole {
            let buf = pool.take(e.stat.size as usize);
            pool.put(std::hint::black_box(buf));
        }
        t.elapsed().as_secs_f64() * 1e9 / n
    });
    Probes {
        decode_mb_per_s: ratio(raw_bytes as f64 / 1e6, decode_s),
        crc32_mb_per_s: ratio(stored_bytes as f64 / 1e6, crc_s),
        decode_us: decode_s * 1e6 / n,
        crc32_us: crc_s * 1e6 / n,
        parse_us,
        cache_open_ns: median(&open_ns),
        cache_insert_ns: insert_ns,
        bufpool_ns,
    }
}

/// Self times per request, from the attribution sweep: the `network`
/// segment is `fabric.rpc` self time, `serve` is `daemon.serve` (or
/// `daemon.write_serve`) self time, `queue` is `daemon.queue`, and
/// `cache` is the root client span's self time.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Mean `client.get_many` root self time, µs.
    pub get_many_self_us: f64,
    /// Mean `fabric.rpc` self time over requests that crossed the fabric.
    pub rpc_self_us: f64,
    /// Mean `daemon.serve` self time over remote reads.
    pub serve_self_us: f64,
    /// Mean `daemon.queue` time over requests a daemon served.
    pub queue_us: f64,
    /// Mean `daemon.write_serve` self time over PUTs.
    pub write_serve_self_us: f64,
    /// Share of request wall time the named segments explain.
    pub coverage: f64,
}

fn mean_of<'a>(
    attrs: impl Iterator<Item = &'a RequestAttribution>,
    seg: &str,
    keep: impl Fn(&RequestAttribution) -> bool,
) -> f64 {
    mean(&attrs.filter(|a| keep(a)).map(|a| a.segment(seg) as f64).collect::<Vec<_>>())
}

/// Join the program's spans (the benchmark's own are left out) and take
/// the self times.
pub fn self_times(spans: &[SpanEvent]) -> SelfTimes {
    let program: Vec<SpanEvent> = spans.iter().filter(|s| !is_bench_span(s)).cloned().collect();
    let attrs = attribute(&program);
    let is_put = |a: &RequestAttribution| a.root_stage == "client.put";
    let remote = |a: &RequestAttribution| a.segment("serve") > 0;
    SelfTimes {
        get_many_self_us: mean_of(attrs.iter(), "cache", |a| a.root_stage == "client.get_many"),
        rpc_self_us: mean_of(attrs.iter(), "network", |a| a.segment("network") > 0),
        serve_self_us: mean_of(attrs.iter(), "serve", |a| !is_put(a) && remote(a)),
        queue_us: mean_of(attrs.iter(), "queue", remote),
        write_serve_self_us: mean_of(attrs.iter(), "serve", is_put),
        coverage: aggregate(&attrs).coverage(),
    }
}

/// The single-GET ledger: per-layer costs of one remote GET, summed and
/// set next to the untraced GET p50. Fabric, queue and daemon costs come
/// from the traced GETs' self times (median over requests of their sum);
/// client-side CRC, decode and cache costs from the probes.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Untraced GET p50, µs.
    pub get_p50_us: f64,
    /// Sum of the layer costs, µs.
    pub layers_us: f64,
    /// `get_p50_us - layers_us`.
    pub unexplained_us: f64,
}

/// Build the ledger from the traced GETs' spans.
pub fn ledger(get_spans: &[SpanEvent], untraced_gets_us: &[f64], p: &Probes) -> Ledger {
    let program: Vec<SpanEvent> = get_spans.iter().filter(|s| !is_bench_span(s)).cloned().collect();
    let remote: Vec<f64> = attribute(&program)
        .iter()
        .filter(|a| a.root_stage == "client.get")
        .map(|a| (a.segment("network") + a.segment("queue") + a.segment("serve")) as f64)
        .collect();
    let layers_us =
        median(&remote) + p.crc32_us + p.decode_us + (p.cache_open_ns + p.cache_insert_ns) / 1e3;
    let get_p50_us = median(untraced_gets_us);
    Ledger { get_p50_us, layers_us, unexplained_us: get_p50_us - layers_us }
}

/// Mean time inside the benchmark's own spans that no program span on
/// the same rank covers: the cost of the benchmark's check and
/// bookkeeping per op (serve). A batch span (train) wraps only the
/// consumer's check while the rank's feeder and decode threads run
/// concurrently, so its whole duration counts.
pub fn bench_check_us(spans: &[SpanEvent]) -> f64 {
    let mut program: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| !is_bench_span(s))
        .map(|s| (s.rank, s.start_us, s.start_us + s.dur_us))
        .collect();
    program.sort_unstable();
    let own: Vec<f64> = spans
        .iter()
        .filter(|s| is_bench_span(s))
        .map(|b| {
            let (lo, hi) = (b.start_us, b.start_us + b.dur_us);
            if b.stage != "bench.op" {
                return b.dur_us as f64;
            }
            // Union of the rank's program spans clipped to [lo, hi).
            let (mut covered, mut reach) = (0u64, lo);
            let first = program.partition_point(|&(r, s, _)| (r, s) < (b.rank, lo));
            for &(r, s, e) in &program[first..] {
                if r != b.rank || s >= hi {
                    break;
                }
                let (s, e) = (s.max(reach), e.min(hi));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (hi - lo).saturating_sub(covered) as f64
        })
        .collect();
    mean(&own)
}

/// Every per-layer metric of a traced run, with the end-to-end metric
/// each should move.
pub fn layer_metrics(workload: Workload, m: &Measured) -> Vec<Metric> {
    let u = &m.untraced;
    let t: &Phase = m.traced.as_ref().expect("layer metrics need the traced phase");
    let p = probes(&m.setup.partitions);
    let st = self_times(&t.spans);
    let serve = workload == Workload::ServeMix;
    let (get_spans, untraced_gets): (&[SpanEvent], Vec<f64>) = if serve {
        (&t.spans, u.by_kind.get("get").cloned().unwrap_or_default())
    } else {
        (&t.ledger_spans, u.ledger_gets_us.clone())
    };
    let led = ledger(get_spans, &untraced_gets, &p);
    let c = |name: &str| t.counter(name);
    let items = t.items as f64;
    let batches = t.batches as f64;
    let prep_s = median(&m.setup.prep_s);
    let kind = |k: &str, q: f64| quantile(u.by_kind.get(k).map_or(&[][..], |v| v), q);
    let stall = |stage: &str| ratio(c(&format!("train.stall.{stage}.wait_us.sum")), batches);
    let metric = |name, value, unit, moves| Metric { name, value, unit, moves };
    vec![
        metric(
            "compress.decode_mb_per_s",
            p.decode_mb_per_s,
            "MB/s",
            "items_per_s on train_cold; serve.get_p50_us, serve.get_many_p50_us on serve_mix; not train_warm",
        ),
        metric(
            "compress.crc32_mb_per_s",
            p.crc32_mb_per_s,
            "MB/s",
            "items_per_s on train_cold; serve.get_p50_us, serve.get_many_p50_us on serve_mix; not train_warm",
        ),
        metric("compress.decode_bytes", c("client.decompress.bytes"), "count", "items_per_s on train_cold"),
        metric("prep.mb_per_s", ratio(m.setup.input_bytes as f64 / 1e6, prep_s), "MB/s", "setup_s"),
        metric("pack.parse_us", p.parse_us, "us", "setup_s"),
        metric(
            "cache.hit_ratio",
            ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
            "ratio",
            "items_per_s, wait_p50_us on train_warm",
        ),
        metric("cache.evictions", c("cache.evictions"), "count", "items_per_s on train_cold"),
        metric("cache.open_ns", p.cache_open_ns, "ns", "items_per_s, wait_p50_us on train_warm"),
        metric("cache.insert_ns", p.cache_insert_ns, "ns", "items_per_s, wait_p50_us on train_warm"),
        metric(
            "bufpool.hit_ratio",
            ratio(c("bufpool.hits"), c("bufpool.hits") + c("bufpool.misses")),
            "ratio",
            "items_per_s on train_cold and train_warm",
        ),
        metric("bufpool.take_put_ns", p.bufpool_ns, "ns", "items_per_s on train_warm"),
        metric(
            "client.get_many_self_us",
            st.get_many_self_us,
            "us",
            "serve.get_many_p50_us on serve_mix; wait_p50_us on train_warm",
        ),
        metric(
            "client.remote_bytes_per_byte",
            ratio(c("client.remote.bytes"), t.delivered as f64),
            "ratio",
            "serve.get_many_p50_us on serve_mix; items_per_s on train_cold",
        ),
        metric(
            "client.fallbacks",
            c("client.get_many.fallbacks"),
            "count",
            "expected 0; serve.get_many_p50_us",
        ),
        metric(
            "client.range_bytes_ratio",
            ratio(t.range_moved as f64, t.range_whole as f64),
            "ratio",
            "serve.range_p50_us on serve_mix",
        ),
        metric(
            "fabric.rpc_self_us",
            st.rpc_self_us,
            "us",
            "items_per_s on train_cold; serve.get_p50_us on serve_mix",
        ),
        metric(
            "fabric.rpcs_per_item",
            ratio(c("daemon.serve.latency_us.count"), items),
            "ratio",
            "items_per_s on train_cold; serve.get_p50_us on serve_mix",
        ),
        metric(
            "daemon.serve_self_us",
            st.serve_self_us,
            "us",
            "serve.get_p50_us on serve_mix; items_per_s on train_cold",
        ),
        metric(
            "daemon.queue_us",
            st.queue_us,
            "us",
            "serve.get_p50_us on serve_mix; items_per_s on train_cold",
        ),
        metric(
            "daemon.write_serve_self_us",
            st.write_serve_self_us,
            "us",
            "serve.put_p50_us, serve.put_p99_us on serve_mix",
        ),
        metric(
            "wal.syncs_per_put",
            ratio(c("wal.sync.count"), c("daemon.write.count")),
            "ratio",
            "serve.put_p50_us on serve_mix",
        ),
        metric(
            "wal.write_amp",
            ratio(
                c("wal.append.bytes") + c("wal.flush.bytes") + c("wal.compact.out_bytes"),
                c("wal.append.bytes"),
            ),
            "ratio",
            "serve.put_p50_us, serve.put_p99_us on serve_mix",
        ),
        metric("wal.compactions", c("wal.compact.runs"), "count", "serve.put_p99_us on serve_mix"),
        metric("train.stall.ready_wait_us", stall("ready"), "us", "wait_p50_us, wait_p99_us on train_*"),
        metric("train.stall.feed_wait_us", stall("feed"), "us", "wait_p50_us, wait_p99_us on train_*"),
        metric("train.stall.work_wait_us", stall("work"), "us", "wait_p50_us, wait_p99_us on train_*"),
        metric("train.stall.emit_wait_us", stall("emit"), "us", "wait_p50_us, wait_p99_us on train_*"),
        metric("serve.get_p50_us", kind("get", 0.5), "us", "wait_p50_us, items_per_s on serve_mix"),
        metric("serve.get_p99_us", kind("get", 0.99), "us", "wait_p99_us on serve_mix"),
        metric("serve.range_p50_us", kind("range", 0.5), "us", "wait_p50_us, items_per_s on serve_mix"),
        metric("serve.range_p99_us", kind("range", 0.99), "us", "wait_p99_us on serve_mix"),
        metric(
            "serve.get_many_p50_us",
            kind("get_many", 0.5),
            "us",
            "wait_p99_us, items_per_s on serve_mix",
        ),
        metric("serve.get_many_p99_us", kind("get_many", 0.99), "us", "wait_p99_us on serve_mix"),
        metric("serve.put_p50_us", kind("put", 0.5), "us", "wait_p50_us, items_per_s on serve_mix"),
        metric("serve.put_p99_us", kind("put", 0.99), "us", "wait_p99_us on serve_mix"),
        metric("attrib.coverage", st.coverage, "ratio", "trust in the self times above"),
        metric("ledger.get_p50_us", led.get_p50_us, "us", "serve.get_p50_us"),
        metric("ledger.layers_us", led.layers_us, "us", "serve.get_p50_us"),
        metric("ledger.unexplained_us", led.unexplained_us, "us", "serve.get_p50_us"),
        metric(
            "trace.overhead_ratio",
            ratio(u.items_per_s, t.items_per_s),
            "ratio",
            "none: traced over untraced time per item",
        ),
        metric("bench.check_us", bench_check_us(&t.spans), "us", "none: the benchmark's own cost"),
    ]
}
