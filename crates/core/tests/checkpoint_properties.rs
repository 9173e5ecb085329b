//! Properties of the checkpoint journal under multi-writer schedules:
//! for *any* interleaving of workers writing (possibly duplicate,
//! possibly overlapping) group subsets into one journal directory, a
//! resume sees exactly the union of what was written — each group's
//! measurements bit-identical to what its writer recorded — and resume
//! itself is idempotent.
//!
//! Runs against a synthetic plan (one scenario group per fake kernel
//! index, fanned out to 1–3 cores) and synthetic measurements derived
//! deterministically from the group index, so the properties are
//! checked without simulating anything.

use proptest::prelude::*;
use std::collections::BTreeSet;
use swan_core::{CampaignJournal, Impl, Measurement, Scale, Scenario};
use swan_simd::trace::{CLASS_COUNT, OP_COUNT};
use swan_simd::{TraceData, Width};
use swan_uarch::{CacheStats, CoreId, SimResult};

/// Scenario groups in the synthetic plan.
const GROUPS: usize = 6;
/// Concurrent journal handles ("workers") in the schedule properties.
const WORKERS: usize = 3;

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swan-ckpt-props-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The synthetic plan: group `g` is fake kernel index `g` fanned out
/// to `1 + g % 3` cores, so group shapes (and entry keys) differ.
fn synthetic_plan() -> (Vec<Scenario>, Vec<Vec<usize>>) {
    let cores = [CoreId::Prime, CoreId::Gold, CoreId::Silver];
    let mut plan = Vec::new();
    let mut groups = Vec::new();
    for g in 0..GROUPS {
        let members: Vec<usize> = (0..=g % 3).map(|c| plan.len() + c).collect();
        for &core in &cores[..=g % 3] {
            plan.push(Scenario {
                kernel: g,
                kernel_id: format!("PK{g}.syn"),
                imp: Impl::Neon,
                width: Width::W128,
                core,
                scale: Scale(0.25),
                seed: 42,
                stream: (Impl::Neon, Width::W128),
            });
        }
        groups.push(members);
    }
    (plan, groups)
}

/// Deterministic synthetic measurement: every field a function of
/// `tag`, floats included, so any writer of a group produces identical
/// bytes and equality assertions are exact.
fn measurement(tag: u64) -> Measurement {
    let mut trace = TraceData::default();
    trace.by_op[(tag as usize) % OP_COUNT] = tag;
    trace.by_class[(tag as usize) % CLASS_COUNT] = tag * 3;
    let mut by_op = [0u64; OP_COUNT];
    by_op[0] = tag * 5;
    Measurement {
        trace,
        sim: SimResult {
            cycles: 1_000 + tag,
            instrs: tag,
            fe_stall_cycles: tag / 2,
            be_stall_cycles: tag / 3,
            l1d: CacheStats {
                accesses: tag * 2,
                misses: tag / 4,
            },
            l2: CacheStats {
                accesses: tag,
                misses: tag / 8,
            },
            llc: CacheStats {
                accesses: tag / 2,
                misses: tag / 16,
            },
            dram_accesses: tag / 16,
            seconds: 1e-6 * tag as f64 + 0.1,
            by_op,
            by_class: [0; CLASS_COUNT],
        },
        power_w: 0.5 + 0.01 * tag as f64,
        energy_j: 1e-7 * tag as f64,
        work_ops: tag * 7,
    }
}

/// Group `g`'s canonical measurements, one per member in group order.
fn group_measurements(g: usize, members: usize) -> Vec<Measurement> {
    (0..members)
        .map(|m| measurement(1 + (g * 31 + m) as u64))
        .collect()
}

fn open(dir: &std::path::Path) -> CampaignJournal {
    CampaignJournal::open(dir, &[], Scale(0.25), 42).expect("open journal")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any write schedule — any op order, any worker assignment,
    /// duplicates and overlaps included — converges to the same
    /// canonical journal state: resume sees exactly the set of
    /// written groups, with exactly the canonical measurements.
    #[test]
    fn any_multi_writer_schedule_resumes_to_the_written_union(
        ops in proptest::collection::vec(any::<u16>(), 0..32),
    ) {
        let (plan, groups) = synthetic_plan();
        let dir = test_dir("schedule");
        // One journal handle per worker, all on the same directory —
        // the in-process analogue of N worker processes.
        let journals: Vec<CampaignJournal> = (0..WORKERS).map(|_| open(&dir)).collect();

        let mut written = BTreeSet::new();
        for op in &ops {
            let g = (*op as usize) % GROUPS;
            let w = (*op as usize / GROUPS) % WORKERS;
            journals[w]
                .record_group(&plan, &groups[g], &group_measurements(g, groups[g].len()))
                .expect("record");
            written.insert(g);
        }

        let reader = open(&dir);
        let resume = reader.resume(&plan);
        prop_assert_eq!(resume.total_groups, GROUPS);
        prop_assert_eq!(reader.entries_on_disk(), written.len() as u64,
            "duplicate and overlapping writes are idempotent");
        let remaining: BTreeSet<usize> = resume.remaining.iter().copied().collect();
        let unwritten: BTreeSet<usize> =
            (0..GROUPS).filter(|g| !written.contains(g)).collect();
        prop_assert_eq!(&remaining, &unwritten, "remaining == complement of written");
        prop_assert_eq!(reader.stats().discarded, 0, "no write schedule corrupts");

        for (g, members) in groups.iter().enumerate() {
            let want = group_measurements(g, members.len());
            for (mi, &pi) in members.iter().enumerate() {
                if written.contains(&g) {
                    prop_assert_eq!(resume.measurements[pi].as_ref(), Some(&want[mi]),
                        "group {} member {}: canonical bytes", g, mi);
                } else {
                    prop_assert!(resume.measurements[pi].is_none());
                }
            }
        }

        // Resume is idempotent: a second pass over the same journal
        // state reports the identical view.
        let again = reader.resume(&plan);
        prop_assert_eq!(again.total_groups, resume.total_groups);
        prop_assert_eq!(again.remaining, resume.remaining);
        prop_assert_eq!(again.measurements, resume.measurements);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truly concurrent overlapping writers: threads racing duplicate
/// writes of the same groups through distinct handles never tear an
/// entry — resume afterwards is complete, canonical, and clean.
#[test]
fn concurrent_overlapping_writers_converge() {
    let (plan, groups) = synthetic_plan();
    let dir = test_dir("concurrent");
    std::thread::scope(|s| {
        for t in 0..4usize {
            let plan = &plan;
            let groups = &groups;
            let dir = &dir;
            s.spawn(move || {
                let journal = open(dir);
                for round in 0..3 {
                    for (g, members) in groups.iter().enumerate() {
                        // Overlap by construction: every even group by
                        // every thread, odd groups by their residue
                        // class — and three rounds of duplicates.
                        if g % 2 == 0 || g % 4 == t || round > 0 {
                            journal
                                .record_group(plan, members, &group_measurements(g, members.len()))
                                .expect("concurrent record");
                        }
                    }
                }
            });
        }
    });

    let reader = open(&dir);
    let resume = reader.resume(&plan);
    assert!(resume.remaining.is_empty(), "every group covered");
    assert_eq!(reader.entries_on_disk(), GROUPS as u64);
    assert_eq!(reader.stats().discarded, 0, "no torn entries");
    for (g, members) in groups.iter().enumerate() {
        let want = group_measurements(g, members.len());
        for (mi, &pi) in members.iter().enumerate() {
            assert_eq!(resume.measurements[pi].as_ref(), Some(&want[mi]));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
