//! The read contract: every read entry point — `read_whole`, `read_many`,
//! `read_range` and `read_whole_tier` — rides the same GET_MANY attempt,
//! failover ladder and admission/deadline prologue, so under the same
//! seeded fault each one answers with the same result class, and the
//! three single-entry points move the recovery counters identically.
//!
//! Four faults, each on a fresh 3-rank cluster per entry point (rank 0
//! owns the file, rank 1 holds its clean ring replica, rank 2 reads):
//!
//! * the owner's service links are dead from the start;
//! * one at-rest chunk of the owner's copy is corrupted;
//! * the reader's op deadline has already expired when the op starts;
//! * the reader's token bucket is empty.

use std::sync::Arc;
use std::time::Duration;

use fanstore_repro::mpi::{launch_with_faults, FaultPlan};
use fanstore_repro::store::cache::CacheConfig;
use fanstore_repro::store::client::{FailoverConfig, FsClient};
use fanstore_repro::store::daemon::{serve, tags};
use fanstore_repro::store::node::NodeState;
use fanstore_repro::store::pack::{parse_chunk_table, parse_partition, PartitionBuilder};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::qos::{QosPolicy, TenantQuota};
use fanstore_repro::store::FsError;

const NODES: usize = 3;
const CHUNK: usize = 4096;
const NCHUNKS: usize = 8;
const VICTIM: usize = 3;
const PATH: &str = "contract/sample.bin";
/// A window straddling the victim chunk's left boundary.
const RANGE: (u64, u64) = ((VICTIM * CHUNK - 100) as u64, (VICTIM * CHUNK + 100) as u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    OwnerKilled,
    CorruptChunk,
    DeadlineExpired,
    Throttled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Whole,
    Many,
    Range,
    Tier,
}

/// The recovery counters the contract pins, as deltas over one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counters {
    rpc_timeouts: u64,
    crc_failures: u64,
    degraded_reads: u64,
    shed_replies: u64,
    throttled_ops: u64,
}

impl Counters {
    fn of(fs: &FsClient) -> Self {
        let s = &fs.state().stats;
        Counters {
            rpc_timeouts: s.rpc_timeouts.get(),
            crc_failures: s.crc_failures.get(),
            degraded_reads: s.degraded_reads.get(),
            shed_replies: s.shed_replies.get(),
            throttled_ops: s.throttled_ops.get(),
        }
    }

    fn since(self, before: Counters) -> Self {
        Counters {
            rpc_timeouts: self.rpc_timeouts - before.rpc_timeouts,
            crc_failures: self.crc_failures - before.crc_failures,
            degraded_reads: self.degraded_reads - before.degraded_reads,
            shed_replies: self.shed_replies - before.shed_replies,
            throttled_ops: self.throttled_ops - before.throttled_ops,
        }
    }
}

/// Deterministic, mildly compressible file body.
fn body() -> Vec<u8> {
    (0..CHUNK * NCHUNKS)
        .map(|j| ((j / 13) as u8).wrapping_mul(29).wrapping_add(j as u8 & 3))
        .collect()
}

/// The clean partition and a copy whose `VICTIM` chunk fails its CRC.
fn partitions() -> (Vec<u8>, Vec<u8>) {
    let packed = prepare(
        vec![(PATH.to_string(), body())],
        &PrepConfig { partitions: 1, chunk_size: CHUNK, ..Default::default() },
    );
    let clean = packed.partitions.into_iter().next().expect("one partition");
    let entry = parse_partition(&clean).expect("partition parses").remove(0);
    let table = parse_chunk_table(&entry.data).expect("chunked entry");
    assert_eq!(table.chunks.len(), NCHUNKS, "test geometry");
    let mut damaged = entry.data.clone();
    damaged[table.payload_offset(VICTIM) + 7] ^= 0x5A;
    let mut builder = PartitionBuilder::new();
    builder.push(&entry.path, entry.codec, &entry.stat, &damaged);
    (clean, builder.finish())
}

/// The QoS policy the reader runs under for `fault`, if any.
fn policy(fault: Fault) -> Option<Arc<QosPolicy>> {
    let quota = match fault {
        Fault::DeadlineExpired => {
            TenantQuota { op_deadline: Some(Duration::ZERO), ..Default::default() }
        }
        Fault::Throttled => TenantQuota { rate_per_s: 0.0, burst: 1, ..Default::default() },
        _ => return None,
    };
    let mut policy = QosPolicy::new().with_quota(0, quota);
    policy.throttle_retries = 0;
    Some(Arc::new(policy))
}

/// One read through `entry`, normalised to the bytes it returned.
fn read(fs: &FsClient, entry: Entry) -> Result<Vec<u8>, FsError> {
    match entry {
        Entry::Whole => fs.read_whole(PATH),
        Entry::Many => fs.read_many(&[PATH.to_string()]).remove(0),
        Entry::Range => fs.read_range(PATH, RANGE.0, RANGE.1),
        Entry::Tier => fs.read_whole_tier(PATH, 0),
    }
}

/// Run one entry point against one fault on a fresh cluster; returns
/// the reader's result and its counter deltas over the read.
fn run(fault: Fault, entry: Entry) -> (Result<Vec<u8>, FsError>, Counters) {
    let (clean, corrupted) = partitions();
    let mut plan = FaultPlan::new(0x0C0_47AC7).on_channels(&[1]);
    if fault == Fault::OwnerKilled {
        plan = plan.kill(0, 0);
    }
    let (results, _) = launch_with_faults(NODES, 2, plan, |mut ctx| {
        let mut control = ctx.take_channel(0);
        let service = ctx.take_channel(1);
        let service_remote = service.remote();
        let state = Arc::new(NodeState::new(ctx.rank, NODES, CacheConfig::default()));
        match ctx.rank {
            0 if fault == Fault::CorruptChunk => drop(state.load_partition(&corrupted).unwrap()),
            0 | 1 => drop(state.load_partition(&clean).unwrap()),
            _ => {}
        }
        let gathered = control.allgather(state.encode_local_meta()).expect("meta allgather");
        for (rank, buf) in gathered.iter().enumerate() {
            if rank != ctx.rank {
                state.merge_meta(buf).expect("peer metadata parses");
            }
        }
        let daemon_state = Arc::clone(&state);
        std::thread::scope(|scope| {
            let daemon = scope.spawn(move || serve(daemon_state, service, None, None));
            let mut client = FsClient::new(Arc::clone(&state), service_remote.clone())
                .with_failover(FailoverConfig {
                    rpc_timeout: Duration::from_millis(50),
                    replica_rounds: 1, // replicas_of(0) = [0, 1]
                    attempts_per_replica: 1,
                    backoff_base: Duration::from_micros(100),
                    backoff_max: Duration::from_millis(1),
                    ..Default::default()
                });
            if let Some(p) = policy(fault) {
                client = client.with_qos(p, 0);
            }
            let out = (ctx.rank == 2).then(|| {
                if fault == Fault::Throttled {
                    // Spend the bucket's only token on a path that does
                    // not exist: nothing else moves.
                    assert!(matches!(
                        client.read_whole("contract/none"),
                        Err(FsError::NotFound(_))
                    ));
                }
                let before = Counters::of(&client);
                let got = read(&client, entry);
                (got, Counters::of(&client).since(before))
            });
            control.barrier().expect("quiesce barrier");
            let _ = service_remote.rpc(ctx.rank, tags::SHUTDOWN, Vec::new());
            daemon.join().expect("daemon thread");
            out
        })
    });
    results.into_iter().nth(2).flatten().expect("reader outcome")
}

/// The result class: `Ok`, or the error variant's name.
fn class(r: &Result<Vec<u8>, FsError>) -> String {
    match r {
        Ok(_) => "Ok".to_string(),
        Err(e) => format!("{e:?}").split('(').next().unwrap_or_default().to_string(),
    }
}

/// Run all four entry points against `fault`: every one must answer
/// `expect_class`, exact bytes when it succeeds, and the single-entry
/// points must all move `expect_counters`.
fn check(fault: Fault, expect_class: &str, expect_counters: Counters) {
    let data = body();
    for entry in [Entry::Whole, Entry::Many, Entry::Range, Entry::Tier] {
        let (got, counters) = run(fault, entry);
        assert_eq!(class(&got), expect_class, "{fault:?} via {entry:?}: {got:?}");
        if let Ok(bytes) = &got {
            let want = match entry {
                Entry::Range => &data[RANGE.0 as usize..RANGE.1 as usize],
                _ => &data[..],
            };
            assert!(bytes == want, "{fault:?} via {entry:?}: wrong bytes");
        }
        if entry != Entry::Many {
            assert_eq!(counters, expect_counters, "{fault:?} via {entry:?}");
        }
    }
}

#[test]
fn owner_killed_every_entry_point_fails_over_to_the_replica() {
    check(
        Fault::OwnerKilled,
        "Ok",
        Counters { rpc_timeouts: 1, degraded_reads: 1, ..Default::default() },
    );
}

#[test]
fn corrupt_chunk_every_entry_point_fails_over_to_the_replica() {
    check(
        Fault::CorruptChunk,
        "Ok",
        Counters { crc_failures: 1, degraded_reads: 1, ..Default::default() },
    );
}

#[test]
fn expired_deadline_every_entry_point_sheds() {
    check(Fault::DeadlineExpired, "Shed", Counters::default());
}

#[test]
fn empty_bucket_every_entry_point_is_throttled() {
    check(Fault::Throttled, "Throttled", Counters { throttled_ops: 1, ..Default::default() });
}
