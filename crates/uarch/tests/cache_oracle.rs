//! Differential test of the cache hierarchy against a naive reference.
//!
//! `Reference` is written for obviousness, not speed: each set is a
//! `BTreeMap` from a last-use stamp to a line, so the LRU line is the
//! first key and the MRU line the last. It shares no code or data
//! layout with `swan_uarch::cache`. The rules it encodes are the
//! hierarchy's specification:
//!
//! - a lookup walks L1, L2, LLC in order and stops at the first level
//!   holding the line, making it that level's most recent line; a
//!   demand lookup counts an access at each level it reaches and a
//!   miss at each level it passes;
//! - a line found below L1 (or fetched from DRAM, which counts one DRAM
//!   access) is filled into every level that lacks it, outermost first;
//!   a level that is full evicts its LRU line, and an LLC or L2 victim
//!   is removed from the levels inside it (inclusion);
//! - a demand miss in L1 prefetches the next `prefetch_degree` lines
//!   through the same lookup, without counting accesses or misses;
//! - a reference of `bytes` at `addr` touches every line from `addr`
//!   to its last byte (saturating at the top of the address space) and
//!   costs the worst line latency plus one cycle per extra line.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeMap;
use swan_uarch::{CacheConfig, CacheHierarchy, CacheStats, MemConfig};

/// One reference level: per set, last-use stamp -> line.
struct RefLevel {
    sets: Vec<BTreeMap<u64, u64>>,
    ways: usize,
    latency: u32,
    stats: CacheStats,
}

impl RefLevel {
    fn new(cfg: &CacheConfig) -> RefLevel {
        RefLevel {
            sets: vec![BTreeMap::new(); cfg.size / (cfg.ways * cfg.line)],
            ways: cfg.ways,
            latency: cfg.latency,
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, line: u64) -> &mut BTreeMap<u64, u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn stamp_of(&mut self, line: u64) -> Option<u64> {
        self.set(line)
            .iter()
            .find(|&(_, &l)| l == line)
            .map(|(&s, _)| s)
    }

    /// Make `line` the set's most recent line if present.
    fn touch(&mut self, line: u64, now: u64) -> bool {
        match self.stamp_of(line) {
            Some(s) => {
                let set = self.set(line);
                set.remove(&s);
                set.insert(now, line);
                true
            }
            None => false,
        }
    }

    /// Insert `line` as most recent unless present; returns the
    /// evicted LRU line when the set overflows.
    fn insert(&mut self, line: u64, now: u64) -> Option<u64> {
        if self.stamp_of(line).is_some() {
            return None;
        }
        let ways = self.ways;
        let set = self.set(line);
        set.insert(now, line);
        if set.len() > ways {
            set.pop_first().map(|(_, l)| l)
        } else {
            None
        }
    }

    fn remove(&mut self, line: u64) {
        if let Some(s) = self.stamp_of(line) {
            self.set(line).remove(&s);
        }
    }
}

/// The naive three-level hierarchy.
struct Reference {
    levels: [RefLevel; 3],
    line: u64,
    dram_latency: u32,
    prefetch_degree: u32,
    dram: u64,
    clock: u64,
}

impl Reference {
    fn new(cfg: &MemConfig) -> Reference {
        Reference {
            levels: [
                RefLevel::new(&cfg.l1d),
                RefLevel::new(&cfg.l2),
                RefLevel::new(&cfg.llc),
            ],
            line: cfg.l1d.line as u64,
            dram_latency: cfg.dram_latency,
            prefetch_degree: cfg.prefetch_degree,
            dram: 0,
            clock: 0,
        }
    }

    /// Look `line` up level by level; returns its latency and whether
    /// L1 missed.
    fn lookup(&mut self, line: u64, demand: bool) -> (u32, bool) {
        self.clock += 1;
        let now = self.clock;
        for i in 0..3 {
            if demand {
                self.levels[i].stats.accesses += 1;
            }
            if self.levels[i].touch(line, now) {
                if i > 0 {
                    self.fill(line, now);
                }
                return (self.levels[i].latency, i > 0);
            }
            if demand {
                self.levels[i].stats.misses += 1;
            }
        }
        self.dram += 1;
        self.fill(line, now);
        (self.levels[2].latency + self.dram_latency, true)
    }

    /// Inclusive fill, outermost level first.
    fn fill(&mut self, line: u64, now: u64) {
        for outer in (0..3).rev() {
            if let Some(victim) = self.levels[outer].insert(line, now) {
                for inner in 0..outer {
                    self.levels[inner].remove(victim);
                }
            }
        }
    }

    fn access(&mut self, addr: u64, bytes: u32) -> u32 {
        let last_byte = (addr as u128 + bytes.max(1) as u128 - 1).min(u64::MAX as u128);
        let first = addr / self.line;
        let last = (last_byte / self.line as u128) as u64;
        let mut worst = 0;
        for line in first..=last {
            let (lat, l1_miss) = self.lookup(line, true);
            if l1_miss {
                for d in 1..=self.prefetch_degree as u64 {
                    self.lookup(line + d, false);
                }
            }
            worst = worst.max(lat);
        }
        worst + (last - first) as u32
    }

    fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (
            self.levels[0].stats,
            self.levels[1].stats,
            self.levels[2].stats,
        )
    }

    fn reset_stats(&mut self) {
        for l in &mut self.levels {
            l.stats = CacheStats::default();
        }
        self.dram = 0;
    }
}

/// Tiny hierarchies: 1-8 ways and 1-9 sets per level (so non-power-
/// of-two set counts), one line size for all levels, strictly
/// increasing latencies, prefetch degree 0-3.
struct TinyMem;

impl Strategy for TinyMem {
    type Value = MemConfig;
    fn sample(&self, rng: &mut TestRng) -> MemConfig {
        let line = [16usize, 32, 64][(rng.next_u64() % 3) as usize];
        let mut latency = 0;
        let mut level = |rng: &mut TestRng| {
            let ways = 1 + (rng.next_u64() % 8) as usize;
            let sets = 1 + (rng.next_u64() % 9) as usize;
            latency += 1 + (rng.next_u64() % 12) as u32;
            CacheConfig {
                size: sets * ways * line,
                ways,
                line,
                latency,
            }
        };
        MemConfig {
            l1d: level(rng),
            l2: level(rng),
            llc: level(rng),
            dram_latency: (rng.next_u64() % 200) as u32,
            prefetch_degree: (rng.next_u64() % 4) as u32,
        }
    }
}

/// Reference streams of up to 600 `(addr, bytes)` pairs. Most
/// addresses fall in a 4 KiB window so lines are reused and evicted;
/// some sit within 128 B of `u64::MAX`, some are arbitrary. Sizes run
/// from 0 to 200 bytes, so references span up to 14 lines.
struct Refs;

impl Strategy for Refs {
    type Value = Vec<(u64, u32)>;
    fn sample(&self, rng: &mut TestRng) -> Vec<(u64, u32)> {
        let n = (rng.next_u64() % 600) as usize;
        (0..n)
            .map(|_| {
                let addr = match rng.next_u64() % 8 {
                    0 => u64::MAX - rng.next_u64() % 128,
                    1 => rng.next_u64(),
                    _ => rng.next_u64() % 4096,
                };
                let bytes = match rng.next_u64() % 4 {
                    0 => (rng.next_u64() % 201) as u32,
                    _ => 1 << (rng.next_u64() % 5),
                };
                (addr, bytes)
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Access for access, `CacheHierarchy` returns the reference's
    /// latency and holds its per-level statistics and DRAM count,
    /// including across a `reset_stats` part-way through the stream.
    /// Every tenth reference also goes through `access_line`.
    #[test]
    fn hierarchy_matches_naive_reference(
        cfg in TinyMem,
        refs in Refs,
        reset_at in 0usize..600,
    ) {
        let mut got = CacheHierarchy::new(&cfg);
        let mut want = Reference::new(&cfg);
        for (i, &(addr, bytes)) in refs.iter().enumerate() {
            if i == reset_at {
                got.reset_stats();
                want.reset_stats();
            }
            let (g, w) = if i % 10 == 9 {
                (got.access_line(addr), want.access(addr, 1))
            } else {
                (got.access(addr, bytes), want.access(addr, bytes))
            };
            prop_assert_eq!(g, w, "latency of ref {} ({:#x}, {}) under {:?}", i, addr, bytes, cfg);
            prop_assert_eq!(got.stats(), want.stats(), "stats after ref {} under {:?}", i, cfg);
            prop_assert_eq!(got.dram_accesses(), want.dram, "DRAM after ref {} under {:?}", i, cfg);
        }
    }
}
