//! Trace-store replay and corruption recovery: replaying a store entry
//! must equal the in-memory recording, and a damaged store must never
//! change campaign results — only cost a re-record.
//!
//! Each corruption scenario damages committed entries a different way (truncated
//! chunk, flipped digest byte, stale format version, garbage file) and
//! asserts the same three facts: the damage is detected *on open*
//! (before a single record reaches a model), the entry is deleted and
//! counted (`corrupt_replaced`, alongside the stderr log line), and
//! the campaign falls back to record-and-replace with results
//! bit-identical to a cold store — which `streaming_equivalence` and
//! `golden_suite` in turn pin to the store-disabled flow.

use std::fs;
use std::path::PathBuf;
use swan::prelude::*;
use swan_core::{plan, record_group, try_execute_plan_checkpointed, Measurement, TraceStore};
use swan_simd::trace::{HashSink, TraceSink};
use swan_uarch::{MultiCore, SimResult};

const SEED: u64 = 7;

/// Run a store-backed campaign serially; every group must succeed.
fn execute(
    kernels: &[Box<dyn Kernel>],
    matrix: &[Scenario],
    store: &TraceStore,
) -> Vec<Measurement> {
    try_execute_plan_checkpointed(kernels, matrix, 1, Some(store), None, None, |_| {})
        .into_measurements()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swan-corruption-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn entry_paths(store: &TraceStore) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(store.dir())
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("swst"))
        .collect();
    out.sort();
    out
}

fn assert_bit_identical(a: &[Measurement], b: &[Measurement], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: measurement count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.sim, y.sim, "{what}: SimResult must be bit-identical");
        assert_eq!(x.trace.by_op, y.trace.by_op, "{what}: histograms");
        assert_eq!(x.work_ops, y.work_ops, "{what}: work ops");
    }
}

/// Run one corruption scenario: populate a store, damage its entries
/// with `corrupt`, re-run the campaign, and require detection +
/// replacement + bit-identical results. Returns the recovered run's
/// measurements.
fn corruption_scenario(tag: &str, corrupt: impl Fn(&PathBuf)) -> Vec<Measurement> {
    let kernels: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(2).collect();
    let dir = store_dir(tag);
    let store = TraceStore::open(&dir, &kernels)
        .expect("open store")
        // Small chunks so even test-scale streams span several.
        .chunk_budget(512);
    let matrix = plan(&kernels, Scale::test(), SEED);

    let cold = execute(&kernels, &matrix, &store);
    let populated = store.stats();
    assert!(populated.inserts > 0, "cold run must populate the store");
    let entries = entry_paths(&store);
    assert_eq!(entries.len() as u64, populated.inserts);

    for path in &entries {
        corrupt(path);
    }

    let recovered = execute(&kernels, &matrix, &store);
    let after = store.stats();
    assert_eq!(
        after.corrupt_replaced,
        entries.len() as u64,
        "{tag}: every damaged entry must be detected on open and counted"
    );
    assert_eq!(
        after.hits, populated.hits,
        "{tag}: no damaged entry may be served as a hit"
    );
    assert_eq!(
        after.inserts,
        populated.inserts * 2,
        "{tag}: every damaged entry must be re-recorded (record-and-replace)"
    );
    assert_bit_identical(&cold, &recovered, tag);

    // The replacements are healthy: a third run is all hits and still
    // bit-identical.
    let warm = execute(&kernels, &matrix, &store);
    let healed = store.stats();
    assert_eq!(
        healed.corrupt_replaced, after.corrupt_replaced,
        "{tag}: healed"
    );
    assert_eq!(
        healed.hits,
        after.hits + populated.inserts,
        "{tag}: all hits"
    );
    assert_bit_identical(&cold, &warm, tag);

    let _ = fs::remove_dir_all(&dir);
    recovered
}

/// A chunk truncated mid-payload is detected on open.
#[test]
fn truncated_chunk_falls_back_to_rerecord() {
    corruption_scenario("truncate", |path| {
        let bytes = fs::read(path).expect("read entry");
        assert!(bytes.len() > 64, "entry large enough to truncate");
        fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate entry");
    });
}

/// A single flipped byte in the trailing stream digest is detected on
/// open (the chunk digests cover every payload byte; the trailer
/// covers the totals and the running digest).
#[test]
fn flipped_digest_byte_falls_back_to_rerecord() {
    corruption_scenario("digest-flip", |path| {
        let mut bytes = fs::read(path).expect("read entry");
        let last = bytes.len() - 1; // inside the trailer's digest field
        bytes[last] ^= 0x01;
        fs::write(path, bytes).expect("rewrite entry");
    });
}

/// An entry written by a different (stale) store format version is
/// refused outright.
#[test]
fn stale_format_version_falls_back_to_rerecord() {
    corruption_scenario("stale-version", |path| {
        let mut bytes = fs::read(path).expect("read entry");
        // Bytes 4..8 hold the store format version (little endian).
        bytes[4] = 0xEE;
        fs::write(path, bytes).expect("rewrite entry");
    });
}

/// A file that is not an entry at all (wrong magic, arbitrary bytes)
/// is refused and replaced like any other corruption.
#[test]
fn garbage_entry_falls_back_to_rerecord() {
    corruption_scenario("garbage", |path| {
        fs::write(path, b"definitely not a trace").expect("rewrite entry");
    });
}

/// FNV-1a as the chunked container digests payloads, from its offset
/// basis.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Give an entry's first record an unknown op tag and re-frame the
/// entry with recomputed chunk and trailer digests, so every digest
/// verifies and only the record parser can refuse it. Layout: the
/// store header (magic, version, 16 metadata bytes, a u16 key length,
/// the key), then the chunked stream (magic, version, chunk frames
/// tagged 0xC5, the trailer tagged 0x3A).
fn poison_first_record(path: &PathBuf) {
    const TAG_CHUNK: u8 = 0xC5;
    const TAG_TRAILER: u8 = 0x3A;
    let bytes = fs::read(path).expect("read entry");
    let key_len = u16::from_le_bytes([bytes[24], bytes[25]]) as usize;
    let mut pos = 26 + key_len + 8;
    let mut out = bytes[..pos].to_vec();
    let mut running = FNV_OFFSET;
    let mut first = true;
    loop {
        let tag = bytes[pos];
        pos += 1;
        let counts = [(); 3].map(|_| read_varint(&bytes, &mut pos));
        out.push(tag);
        if tag == TAG_TRAILER {
            for c in counts {
                put_varint(&mut out, c);
            }
            out.extend_from_slice(&running.to_le_bytes());
            break;
        }
        assert_eq!(tag, TAG_CHUNK, "chunk frame");
        pos += 8; // the old payload digest
        let len = counts[0] as usize;
        let mut payload = bytes[pos..pos + len].to_vec();
        pos += len;
        if first {
            payload[1] = 0xff; // the op tag of the chunk's first record
            first = false;
        }
        for c in counts {
            put_varint(&mut out, c);
        }
        out.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
        out.extend_from_slice(&payload);
        running = fnv1a(running, &payload);
    }
    fs::write(path, out).expect("rewrite entry");
}

/// A chunk whose digests verify but whose records do not parse is
/// refused on open (not a panic), deleted and re-recorded, and the
/// recovered campaign's rows are byte-identical to a storeless run's.
#[test]
fn unparsable_record_under_valid_digests_falls_back_to_rerecord() {
    let recovered = corruption_scenario("bad-record", poison_first_record);
    let kernels: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(2).collect();
    let matrix = plan(&kernels, Scale::test(), SEED);
    let storeless = try_execute_plan_checkpointed(&kernels, &matrix, 1, None, None, None, |_| {})
        .into_measurements();
    let rows = |ms: &[Measurement]| -> String {
        matrix
            .iter()
            .zip(ms)
            .map(|(sc, m)| swan_core::report::scenario_row(sc, m) + "\n")
            .collect()
    };
    assert_eq!(rows(&recovered), rows(&storeless));
}

/// Warm + timed batch replay of a recording through one model per
/// config, returning the finalized results.
fn run_batched(rec: &mut swan_core::GroupRecording, cfgs: &[CoreConfig]) -> Vec<SimResult> {
    let mut multi = MultiCore::new(cfgs);
    multi.begin_warm();
    rec.replay_batches(|b| multi.warm_batch(b));
    multi.begin_timed();
    rec.replay_batches(|b| multi.step_batch(b));
    multi.finalize()
}

/// Double-buffered store replay: a recording replayed from a chunked
/// trace-store file (decoder thread running ahead of the simulating
/// thread, small chunk budget so every batch crosses several chunk
/// frames) must produce the same instruction stream — same FNV digest,
/// same count — and the same `SimResult`s as the in-memory batch path.
#[test]
fn double_buffered_store_replay_matches_in_memory_batches() {
    const BUDGET: usize = 2048;
    const GOLDEN_SEED: u64 = 42;
    let kernels = swan::suite();
    let k = kernels
        .iter()
        .find(|k| k.meta().id() == "ZL.adler32")
        .expect("ZL.adler32");
    let cfgs = [
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ];

    // In-memory reference recording.
    let mut mem = record_group(
        k.as_ref(),
        Impl::Neon,
        Width::W128,
        Scale::quick(),
        GOLDEN_SEED,
        None,
    );
    assert!(!mem.from_store());
    let mut mem_hash = HashSink::new();
    mem.replay_batches(|b| {
        for ins in b {
            mem_hash.on_instr(ins);
        }
    });
    let mem_sims = run_batched(&mut mem, &cfgs);

    // Store-backed: record once (cold), then replay from the verified
    // on-disk entry (warm hit) through the double-buffered decoder.
    let dir = store_dir("double-buffered");
    let store = TraceStore::open(&dir, &kernels)
        .expect("open trace store")
        .chunk_budget(BUDGET);
    let cold = record_group(
        k.as_ref(),
        Impl::Neon,
        Width::W128,
        Scale::quick(),
        GOLDEN_SEED,
        Some(&store),
    );
    assert!(cold.from_store(), "cold recording spills into the store");
    let mut warm = record_group(
        k.as_ref(),
        Impl::Neon,
        Width::W128,
        Scale::quick(),
        GOLDEN_SEED,
        Some(&store),
    );
    assert!(warm.from_store(), "second lookup must hit the store");
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    let mut store_hash = HashSink::new();
    warm.replay_batches(|b| {
        for ins in b {
            store_hash.on_instr(ins);
        }
    });
    assert_eq!(
        (mem_hash.digest(), mem_hash.count()),
        (store_hash.digest(), store_hash.count()),
        "double-buffered store replay must yield the identical stream"
    );
    assert!(
        mem_hash.count() as usize > 100 * BUDGET / 64,
        "the stream must span many chunks at this budget"
    );
    let store_sims = run_batched(&mut warm, &cfgs);
    assert_eq!(
        mem_sims, store_sims,
        "store-backed batch simulation must equal in-memory"
    );
    let _ = fs::remove_dir_all(&dir);
}
