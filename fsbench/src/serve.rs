//! `serve_mix`: one closed-loop client on rank 1 against rank 0's
//! daemon. 40% GET of 64 KiB whole files, 20% 5% byte-range reads of
//! 1 MiB FCHK-chunked files, 20% GET_MANY of 8 files, 20% 16 KiB PUTs
//! over 64 keys into rank 0's WAL (`commit_every` 1, 20 µs modelled
//! sync). Rank 1's cache releases eagerly and is small, so reads miss.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use fanstore::cache::CacheConfig;
use fanstore::client::FsClient;
use fanstore::cluster::ClusterConfig;
use fanstore::metrics::now_us;
use fanstore::pack::parse_partition;
use fanstore::prep::PrepConfig;
use fanstore::wal::{Lookup, WalConfig};
use fanstore_datagen::{DatasetKind, DatasetSpec};

use crate::stats::Rng;
use crate::{
    bench_request, bench_span, counter_delta, measure_setup, run_cluster, sample_counters, Args,
    Measured, Phase, RankRun, Wait, NODES, SETUP_REPS, TRACE_RING,
};

/// Whole files served by GET and GET_MANY.
pub const SMALL_FILES: usize = 128;
/// Size of each whole file.
pub const SMALL_SIZE: usize = 64 << 10;
/// FCHK-chunked files served by byte-range reads.
pub const BIG_FILES: usize = 16;
/// Size of each chunked file.
pub const BIG_SIZE: usize = 1 << 20;
/// FCHK chunk size.
pub const CHUNK: usize = 64 << 10;
/// A range read covers this share of its file.
pub const RANGE_LEN: usize = BIG_SIZE / 20;
/// Files per GET_MANY.
pub const MANY: usize = 8;
/// Distinct PUT keys.
pub const PUT_KEYS: usize = 64;
/// Bytes per PUT.
pub const PUT_SIZE: usize = 16 << 10;
/// Rank 1's cache: eager release, and small enough that the partial
/// chunk residency range reads leave behind is soon evicted.
pub const CLIENT_CACHE: usize = 1 << 20;
/// WAL memtable budget, half the 1 MiB live PUT set. PUTs overwrite 64
/// keys, so a flush comes once the memtable holds 32 distinct keys:
/// about every 46 PUTs, with a compaction every third or fourth flush
/// (about one a second), so both keep cycling. Flushing PUTs are then
/// about 0.45% of all ops, so the all-op p99 lies in the read tail, not
/// on the edge of the flush population, where it swung with CPU
/// contention (a quarter of the live set put 1.1% of ops in that
/// population, and its p99 spread up to 0.34 over ten runs). The flush
/// stalls show in `serve.put_p99_us`.
pub const MEMTABLE: usize = 512 << 10;

/// The seeded inputs, retained as the reference for the output check.
pub struct Inputs {
    /// `(path, bytes)` of the whole files.
    pub small: Vec<(String, Vec<u8>)>,
    /// `(path, bytes)` of the chunked files.
    pub big: Vec<(String, Vec<u8>)>,
}

impl Inputs {
    /// Generate the EM-like inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let gen = |n, size, seed, dir: &str| {
            let spec = DatasetSpec {
                kind: DatasetKind::EmTif,
                num_files: n,
                file_size: size,
                seed,
                dirs: 1,
            };
            (0..n).map(|i| (format!("serve/{dir}/f{i:04}.tif"), spec.generate(i))).collect()
        };
        Inputs {
            small: gen(SMALL_FILES, SMALL_SIZE, seed, "get"),
            big: gen(BIG_FILES, BIG_SIZE, seed ^ 0xB16, "range"),
        }
    }

    /// Every input file, for prep.
    pub fn files(&self) -> Vec<(String, Vec<u8>)> {
        self.small.iter().chain(&self.big).cloned().collect()
    }

    /// The value of the `version`-th PUT of key `key`: a 16 KiB EM slice
    /// stamped with the version, so a stale read-back shows.
    pub fn put_value(&self, key: usize, version: u64) -> Vec<u8> {
        let mut v = self.small[key % SMALL_FILES].1[..PUT_SIZE].to_vec();
        v[..8].copy_from_slice(&version.to_le_bytes());
        v
    }
}

/// One partition, all of it on rank 0; chunked above 64 KiB.
pub fn prep_config() -> PrepConfig {
    PrepConfig { partitions: 1, chunk_size: CHUNK, ..PrepConfig::default() }
}

/// The 2-node cluster: eager-release caches and a WAL per daemon.
pub fn cluster_config(trace: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        cache: CacheConfig { capacity: CLIENT_CACHE, release_on_zero: true, ..Default::default() },
        trace_ring: if trace { TRACE_RING } else { 0 },
        wal: Some(WalConfig { memtable_budget: MEMTABLE, commit_every: 1, ..WalConfig::default() }),
        ..ClusterConfig::default()
    }
}

/// Op kinds, in the order the mix draws them.
pub const KINDS: [&str; 4] = ["get", "range", "get_many", "put"];

/// Stored (packed) size of every file in `partitions`.
pub fn stored_sizes(partitions: &[Vec<u8>]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for p in partitions {
        for e in parse_partition(p).expect("benchmark partition parses") {
            out.insert(e.path, e.data.len() as u64);
        }
    }
    out
}

/// The client loop on rank 1: ops until `seconds` pass or `max_ops` ran.
fn client_loop(
    fs: &FsClient,
    inputs: &Inputs,
    stored: &BTreeMap<String, u64>,
    seed: u64,
    (seconds, max_ops): (f64, u64),
    expected: &Mutex<BTreeMap<String, Vec<u8>>>,
    run: &mut RankRun,
) {
    let mut rng = Rng::new(seed, 7);
    let start = Instant::now();
    let remote_bytes = || fs.state().stats.remote_bytes.get();
    while run.items < max_ops && start.elapsed().as_secs_f64() < seconds {
        let span_start = now_us();
        let roll = rng.below(10);
        let kind = KINDS[match roll {
            0..=3 => 0,
            4 | 5 => 1,
            6 | 7 => 2,
            _ => 3,
        }];
        let (ok, took) = match kind {
            "get" => {
                let (path, data) = &inputs.small[rng.below(SMALL_FILES)];
                let t = Instant::now();
                let got = fs.read_whole(path);
                let took = t.elapsed();
                run.delivered += got.as_ref().map_or(0, |g| g.len() as u64);
                (got.as_ref() == Ok(data), took)
            }
            "range" => {
                let (path, data) = &inputs.big[rng.below(BIG_FILES)];
                let lo = rng.below(BIG_SIZE - RANGE_LEN + 1);
                let moved = remote_bytes();
                let t = Instant::now();
                let got = fs.read_range(path, lo as u64, (lo + RANGE_LEN) as u64);
                let took = t.elapsed();
                run.range_moved += remote_bytes() - moved;
                run.range_whole += stored[path];
                run.delivered += got.as_ref().map_or(0, |g| g.len() as u64);
                (got.as_deref() == Ok(&data[lo..lo + RANGE_LEN]), took)
            }
            "get_many" => {
                let mut picks: Vec<usize> = (0..SMALL_FILES).collect();
                for i in 0..MANY {
                    picks.swap(i, i + rng.below(SMALL_FILES - i));
                }
                picks.truncate(MANY);
                let paths: Vec<String> = picks.iter().map(|&i| inputs.small[i].0.clone()).collect();
                let t = Instant::now();
                let got = fs.read_many(&paths);
                let took = t.elapsed();
                let mut ok = true;
                for (g, &i) in got.iter().zip(&picks) {
                    run.delivered += g.as_ref().map_or(0, |g| g.len() as u64);
                    ok &= g.as_ref() == Ok(&inputs.small[i].1);
                }
                (ok, took)
            }
            _ => {
                let key = rng.below(PUT_KEYS);
                let path = format!("serve/out/k{key:02}.bin");
                let value = inputs.put_value(key, run.items);
                let t = Instant::now();
                let put = fs.put_remote(0, &path, &value);
                let took = t.elapsed();
                // The acknowledged value is the one rank 0 must hold at
                // the end; a failed PUT leaves the key's state unknown.
                let mut expected = expected.lock().expect("expected PUT values");
                if put.is_ok() {
                    expected.insert(path, value);
                } else {
                    expected.remove(&path);
                }
                (put.is_ok(), took)
            }
        };
        let us = took.as_secs_f64() * 1e6;
        run.waits.push(Wait { at_s: start.elapsed().as_secs_f64(), us, items: 1 });
        run.by_kind.entry(kind).or_default().push(us);
        run.items += 1;
        run.failed += u64::from(!ok);
        bench_span(fs, bench_request(fs.rank(), run.items), "bench.op", span_start);
    }
    run.wall_s = start.elapsed().as_secs_f64();
}

/// Rank 0 after the client stopped: every acknowledged PUT must read
/// back from its WAL with the last value written. A missing or stale key
/// is a failed op.
fn check_puts(fs: &FsClient, expected: &Mutex<BTreeMap<String, Vec<u8>>>, run: &mut RankRun) {
    let wal = fs.state().wal.as_ref().expect("serve_mix daemons run a WAL");
    for (path, value) in expected.lock().expect("expected PUT values").iter() {
        let held = matches!(wal.get(path), Ok(Lookup::Hit(v)) if *v == *value);
        run.failed += u64::from(!held);
    }
}

/// One measured phase on a fresh cluster: `budget` is (seconds, max ops).
pub fn phase(
    inputs: &Inputs,
    partitions: Vec<Vec<u8>>,
    seed: u64,
    budget: (f64, u64),
    trace: bool,
) -> Phase {
    let stored = stored_sizes(&partitions);
    let expected = Mutex::new(BTreeMap::new());
    run_cluster(&cluster_config(trace), partitions, |fs, gate| {
        let mut run = RankRun::default();
        gate.start();
        let before = sample_counters(fs);
        let lo = now_us();
        if fs.rank() == 1 {
            client_loop(fs, inputs, &stored, seed, budget, &expected, &mut run);
        }
        run.window_us = (lo, now_us());
        run.peak_heap_mib = gate.stop();
        run.counters = counter_delta(&before, &sample_counters(fs));
        if fs.rank() == 0 {
            check_puts(fs, &expected, &mut run);
        }
        run
    })
}

/// Set up, then run the measured phase(s).
pub fn measure(args: &Args) -> Measured {
    let inputs = Inputs::new(args.seed);
    let setup = measure_setup(&inputs.files(), &prep_config(), &cluster_config(false), SETUP_REPS);
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let budget = (seconds, u64::MAX);
    let untraced = phase(&inputs, setup.partitions.clone(), args.seed, budget, false);
    let traced =
        args.trace.then(|| phase(&inputs, setup.partitions.clone(), args.seed, budget, true));
    Measured { setup, untraced, traced }
}
