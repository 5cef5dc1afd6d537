//! `train_cold` and `train_warm`: both ranks train through
//! `prefetched_epoch` (one I/O thread, batches of 16), each over its
//! disjoint half of a seeded per-epoch shuffle of the dataset.

use std::time::Instant;

use fanstore::cache::CacheConfig;
use fanstore::cluster::ClusterConfig;
use fanstore::metrics::now_us;
use fanstore::prep::PrepConfig;
use fanstore_datagen::{DatasetKind, DatasetSpec};
use fanstore_train::prefetch::{prefetched_epoch, PrefetchConfig};

use crate::stats::Rng;
use crate::{
    bench_request, bench_span, counter_delta, measure_setup, run_cluster, sample_counters, Args,
    Measured, Phase, RankRun, Wait, Workload, NODES, SETUP_REPS, TRACE_RING,
};

/// Files in the dataset (EM-like, 128 KiB each: 32 MiB raw).
pub const FILES: usize = 256;
/// Samples per batch.
pub const BATCH: usize = 16;
/// Per-node cache of `train_cold`: an eighth of the dataset.
pub const COLD_CACHE: usize = 4 << 20;
/// Per-node cache of `train_warm`: holds the whole dataset.
pub const WARM_CACHE: usize = 256 << 20;
/// Cold single GETs timed after the traced phase for the ledger.
pub const LEDGER_GETS: usize = 64;

/// The seeded dataset, retained as the reference for the output check.
pub fn inputs(seed: u64) -> Vec<(String, Vec<u8>)> {
    DatasetSpec::scaled(DatasetKind::EmTif, FILES, seed).generate_all()
}

/// Two partitions packed with lz4hc-9 (the prep default).
pub fn prep_config() -> PrepConfig {
    PrepConfig { partitions: NODES, ..PrepConfig::default() }
}

/// The 2-node cluster of either train workload.
pub fn cluster_config(workload: Workload, trace: bool) -> ClusterConfig {
    let capacity = if workload == Workload::TrainWarm { WARM_CACHE } else { COLD_CACHE };
    ClusterConfig {
        nodes: NODES,
        cache: CacheConfig { capacity, ..CacheConfig::default() },
        trace_ring: if trace { TRACE_RING } else { 0 },
        ..ClusterConfig::default()
    }
}

fn prefetch_config() -> PrefetchConfig {
    PrefetchConfig { io_threads: 1, queue_batches: 2, batch_size: BATCH, rpc_batch: 0, tenant: 0 }
}

/// One epoch over `order` (indices into `files`), checking every
/// delivered sample. Records into `run` each batch's wait, timed from
/// when the consumer finished the previous batch, and when it came
/// relative to `start`.
fn epoch(
    fs: &fanstore::client::FsClient,
    files: &[(String, Vec<u8>)],
    order: &[usize],
    start: Instant,
    run: &mut RankRun,
) {
    let paths: Vec<String> = order.iter().map(|&i| files[i].0.clone()).collect();
    let rank = fs.rank();
    let mut seen = 0usize;
    let mut last = Instant::now();
    let result = prefetched_epoch(fs, &paths, &prefetch_config(), |batch| {
        run.waits.push(Wait {
            at_s: start.elapsed().as_secs_f64(),
            us: last.elapsed().as_secs_f64() * 1e6,
            items: batch.len() as u32,
        });
        let check_start = now_us();
        for f in batch {
            run.failed += u64::from(f.data != files[order[f.index]].1);
            run.delivered += f.data.len() as u64;
        }
        seen += batch.len();
        run.batches += 1;
        bench_span(fs, bench_request(rank, run.batches), "bench.batch", check_start);
        last = Instant::now();
    });
    run.items += paths.len() as u64;
    if result.is_err() {
        run.failed += (paths.len() - seen) as u64;
    }
}

/// This rank's half of epoch `n`'s seeded shuffle.
fn my_order(seed: u64, n: u64, rank: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..FILES).collect();
    Rng::new(seed, 1000 + n).shuffle(&mut order);
    order.into_iter().skip(rank).step_by(NODES).collect()
}

/// One measured phase on a fresh cluster.
fn phase(
    args: &Args,
    files: &[(String, Vec<u8>)],
    partitions: Vec<Vec<u8>>,
    seconds: f64,
    trace: bool,
) -> Phase {
    let warm = args.workload == Workload::TrainWarm;
    run_cluster(&cluster_config(args.workload, trace), partitions, |fs, gate| {
        let rank = fs.rank();
        let mut run = RankRun::default();
        if warm {
            // Untimed warm-up: every rank reads the whole dataset once, so
            // each later epoch, in any order, is served by its cache. Its
            // samples are checked and counted as attempted, but stay out
            // of the throughput and the waits.
            let mut warmup = RankRun::default();
            epoch(fs, files, &(0..FILES).collect::<Vec<_>>(), Instant::now(), &mut warmup);
            run.unmeasured = warmup.items;
            run.failed = warmup.failed;
        }
        gate.start();
        let before = sample_counters(fs);
        let lo = now_us();
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            epoch(fs, files, &my_order(args.seed, n, rank), start, &mut run);
            n += 1;
        }
        run.wall_s = start.elapsed().as_secs_f64();
        run.window_us = (lo, now_us());
        run.peak_heap_mib = gate.stop();
        run.counters = counter_delta(&before, &sample_counters(fs));
        if args.trace && rank == 1 {
            let ledger_lo = now_us();
            ledger_gets(fs, files, &mut run);
            run.ledger_window_us = (ledger_lo, now_us());
        }
        // Rank 0's daemon must outlive rank 1's ledger GETs.
        gate.wait();
        run
    })
}

/// Cold single GETs of files rank 0 owns, from rank 1: the end-to-end
/// side of the single-GET ledger on this workload's objects. Checked and
/// counted like every other read.
fn ledger_gets(fs: &fanstore::client::FsClient, files: &[(String, Vec<u8>)], run: &mut RankRun) {
    let owned = files.iter().filter(|(p, _)| fs.state().owner_of(p) == Some(0));
    for (path, data) in owned.take(LEDGER_GETS) {
        fs.state().cache.purge(path);
        let t = Instant::now();
        let got = fs.read_whole(path);
        run.ledger_gets_us.push(t.elapsed().as_secs_f64() * 1e6);
        run.unmeasured += 1;
        if got.as_ref() != Ok(data) {
            run.failed += 1;
        }
    }
}

/// Set up, then run the measured phase(s).
pub fn measure(args: &Args) -> Measured {
    let files = inputs(args.seed);
    let setup =
        measure_setup(&files, &prep_config(), &cluster_config(args.workload, false), SETUP_REPS);
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = phase(args, &files, setup.partitions.clone(), seconds, false);
    let traced = args.trace.then(|| phase(args, &files, setup.partitions.clone(), seconds, true));
    Measured { setup, untraced, traced }
}
