//! The same seed gives the same `serve_mix` counters, and a clean run
//! fails nothing.

use fanstore::prep::prepare;
use fsbench::serve::{phase, prep_config, Inputs};

/// Ops per run: enough for every op kind, several WAL flushes and a
/// compaction (a fifth of the ops are PUTs; a flush follows about every
/// 46 PUTs and a compaction every third or fourth flush).
const OPS: u64 = 2000;

/// Counters a seeded `serve_mix` run must reproduce exactly.
const KEYS: [&str; 6] = [
    "cache.hits",
    "cache.misses",
    "client.remote.bytes",
    "wal.sync.count",
    "wal.flush.count",
    "wal.compact.runs",
];

fn run(inputs: &Inputs, partitions: &[Vec<u8>], seed: u64) -> Vec<(&'static str, f64)> {
    let p = phase(inputs, partitions.to_vec(), seed, (f64::MAX, OPS), false);
    assert_eq!(p.items, OPS, "the op budget bounds the run");
    assert_eq!(p.failed, 0, "a clean run has failed_ratio 0");
    KEYS.iter().map(|&k| (k, p.counter(k))).collect()
}

#[test]
fn same_seed_gives_identical_serve_mix_counters() {
    let seed = 11;
    let inputs = Inputs::new(seed);
    let partitions = prepare(inputs.files(), &prep_config()).partitions;
    let first = run(&inputs, &partitions, seed);
    assert_eq!(first, run(&inputs, &partitions, seed));
    let get = |k: &str| first.iter().find(|(name, _)| *name == k).map_or(0.0, |c| c.1);
    assert!(get("client.remote.bytes") > 0.0, "{first:?}");
    assert!(get("wal.compact.runs") > 0.0, "the PUTs must cycle compaction: {first:?}");
}
