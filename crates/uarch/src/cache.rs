//! Set-associative cache hierarchy with LRU replacement, inclusive
//! levels, a next-line prefetcher, and a flat DRAM latency — the memory
//! system of the paper's Table 3.

/// Parameters of one cache level.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Access latency in cycles (total load-to-use at this level).
    pub latency: u32,
}

impl CacheConfig {
    fn sets(&self) -> usize {
        self.size / (self.ways * self.line)
    }
}

/// Memory hierarchy parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MemConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Additional DRAM latency in cycles beyond an LLC miss.
    pub dram_latency: u32,
    /// Next-line prefetch degree on a miss (0 disables).
    pub prefetch_degree: u32,
}

impl MemConfig {
    /// Snapdragon 855 Prime-core hierarchy (paper Table 3):
    /// L1D 64 KiB/4-way/4 cycles, L2 512 KiB/8-way/9 cycles,
    /// LLC 2 MiB/8-way/31 cycles.
    pub fn snapdragon855() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size: 64 << 10,
                ways: 4,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size: 512 << 10,
                ways: 8,
                line: 64,
                latency: 9,
            },
            llc: CacheConfig {
                size: 2 << 20,
                ways: 8,
                line: 64,
                latency: 31,
            },
            dram_latency: 130,
            prefetch_degree: 3,
        }
    }
}

/// Hit/miss counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (prefetches excluded).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-instruction for a run of `instrs` instructions
    /// (the paper's MPKI metric, Table 5).
    pub fn mpki(&self, instrs: u64) -> f64 {
        if instrs == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instrs as f64
        }
    }
}

/// One set-associative cache level. The tags of all sets live in one
/// contiguous `sets × ways` array; set `s` owns
/// `tags[s * ways..][..len[s]]`, ordered most-recent-first, so LRU
/// replacement is a shift of that slice.
#[derive(Debug)]
struct Level {
    cfg: CacheConfig,
    tags: Vec<u64>,
    len: Vec<usize>,
    /// `sets - 1` when the set count is a power of two, else `None`
    /// (set index by `%`).
    mask: Option<usize>,
    stats: CacheStats,
}

impl Level {
    fn new(cfg: CacheConfig) -> Level {
        let sets = cfg.sets();
        assert!(sets > 0, "cache level {cfg:?} has no sets");
        Level {
            tags: vec![0; sets * cfg.ways],
            len: vec![0; sets],
            mask: sets.is_power_of_two().then_some(sets - 1),
            cfg,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_index(&self, line_addr: u64) -> usize {
        match self.mask {
            Some(m) => line_addr as usize & m,
            None => line_addr as usize % self.len.len(),
        }
    }

    /// The set holding `line_addr`: its index and its valid tags.
    #[inline]
    fn set(&self, line_addr: u64) -> (usize, &[u64]) {
        let si = self.set_index(line_addr);
        let base = si * self.cfg.ways;
        (si, &self.tags[base..base + self.len[si]])
    }

    /// Look up a line; on hit promote to MRU. Returns hit.
    #[inline]
    fn probe(&mut self, line_addr: u64, demand: bool) -> bool {
        if demand {
            self.stats.accesses += 1;
        }
        let (si, set) = self.set(line_addr);
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            if pos > 0 {
                let base = si * self.cfg.ways;
                self.tags.copy_within(base..base + pos, base + 1);
                self.tags[base] = line_addr;
            }
            true
        } else {
            if demand {
                self.stats.misses += 1;
            }
            false
        }
    }

    /// Insert a line the level does not hold as MRU, evicting LRU if
    /// the set is full. Returns the evicted line, if any.
    #[inline]
    fn fill(&mut self, line_addr: u64) -> Option<u64> {
        let ways = self.cfg.ways;
        let (si, set) = self.set(line_addr);
        debug_assert!(!set.contains(&line_addr), "fill of a resident line");
        let n = set.len();
        let base = si * ways;
        let victim = if n == ways {
            Some(self.tags[base + ways - 1])
        } else {
            self.len[si] = n + 1;
            None
        };
        let kept = n.min(ways - 1);
        self.tags.copy_within(base..base + kept, base + 1);
        self.tags[base] = line_addr;
        victim
    }

    #[inline]
    fn invalidate(&mut self, line_addr: u64) {
        let (si, set) = self.set(line_addr);
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            let n = set.len();
            let base = si * self.cfg.ways;
            self.tags.copy_within(base + pos + 1..base + n, base + pos);
            self.len[si] = n - 1;
        }
    }
}

/// The three-level hierarchy plus DRAM-access counting.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: Level,
    l2: Level,
    llc: Level,
    /// `log2` of the line size when it is a power of two, else `None`
    /// (line index by `/`).
    line_shift: Option<u32>,
    dram_latency: u32,
    prefetch_degree: u32,
    dram_accesses: u64,
}

impl CacheHierarchy {
    /// Build a hierarchy from a [`MemConfig`].
    pub fn new(cfg: &MemConfig) -> CacheHierarchy {
        CacheHierarchy {
            line_shift: cfg
                .l1d
                .line
                .is_power_of_two()
                .then(|| cfg.l1d.line.trailing_zeros()),
            l1: Level::new(cfg.l1d.clone()),
            l2: Level::new(cfg.l2.clone()),
            llc: Level::new(cfg.llc.clone()),
            dram_latency: cfg.dram_latency,
            prefetch_degree: cfg.prefetch_degree,
            dram_accesses: 0,
        }
    }

    /// Access one cache line (by byte address); returns the load-to-use
    /// latency in cycles. Stores update state identically but their
    /// latency is hidden by the store buffer in the core model.
    pub fn access_line(&mut self, addr: u64) -> u32 {
        self.demand(self.line_of(addr))
    }

    /// The index of the line holding byte `addr`.
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.l1.cfg.line as u64,
        }
    }

    /// Demand access of one line (by line index), with next-line
    /// prefetch on a miss.
    #[inline]
    fn demand(&mut self, line: u64) -> u32 {
        let lat = self.lookup(line, true);
        if lat > self.l1.cfg.latency {
            // Miss somewhere: next-line prefetch.
            for d in 1..=self.prefetch_degree as u64 {
                self.lookup(line + d, false);
            }
        }
        lat
    }

    /// Look a line up level by level, promote it to MRU where found,
    /// and fill it into every level inside that one; an LLC or L2
    /// victim leaves the levels inside it. Returns the load-to-use
    /// latency. Only `demand` lookups count accesses and misses; DRAM
    /// fetches (demand or prefetch) always count.
    ///
    /// The levels stay inclusive (L1 ⊆ L2 ⊆ LLC), so the level that
    /// hits and every level outside it already hold the line, and
    /// each level that missed does not.
    #[inline]
    fn lookup(&mut self, line: u64, demand: bool) -> u32 {
        if self.l1.probe(line, demand) {
            return self.l1.cfg.latency;
        }
        let lat = if self.l2.probe(line, demand) {
            self.l2.cfg.latency
        } else {
            let lat = if self.llc.probe(line, demand) {
                self.llc.cfg.latency
            } else {
                self.dram_accesses += 1;
                if let Some(victim) = self.llc.fill(line) {
                    self.l2.invalidate(victim);
                    self.l1.invalidate(victim);
                }
                self.llc.cfg.latency + self.dram_latency
            };
            if let Some(victim) = self.l2.fill(line) {
                self.l1.invalidate(victim);
            }
            lat
        };
        self.l1.fill(line);
        lat
    }

    /// Access a byte range, touching every line it covers; returns the
    /// worst line latency plus one extra cycle per additional line. A
    /// range running past the top of the address space ends at its
    /// last line.
    pub fn access(&mut self, addr: u64, bytes: u32) -> u32 {
        let first = self.line_of(addr);
        let last = self.line_of(addr.saturating_add(bytes.max(1) as u64 - 1));
        let mut worst = 0;
        for l in first..=last {
            worst = worst.max(self.demand(l));
        }
        worst + (last - first) as u32
    }

    /// Per-level statistics `(l1, l2, llc)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1.stats, self.l2.stats, self.llc.stats)
    }

    /// Demand + prefetch DRAM accesses so far.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Reset statistics (keep cache contents) — used between the
    /// warm-up replay and the timed run.
    pub fn reset_stats(&mut self) {
        self.l1.stats = CacheStats::default();
        self.l2.stats = CacheStats::default();
        self.llc.stats = CacheStats::default();
        self.dram_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        // 4 lines of 64B, direct-ish: L1 2 sets x 2 ways.
        CacheHierarchy::new(&MemConfig {
            l1d: CacheConfig {
                size: 256,
                ways: 2,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size: 1024,
                ways: 2,
                line: 64,
                latency: 9,
            },
            llc: CacheConfig {
                size: 4096,
                ways: 4,
                line: 64,
                latency: 31,
            },
            dram_latency: 100,
            prefetch_degree: 0,
        })
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut h = tiny();
        assert_eq!(h.access_line(0), 131); // cold: LLC + DRAM
        assert_eq!(h.access_line(0), 4); // L1 hit
        assert_eq!(h.access_line(8), 4); // same line
        let (l1, _, _) = h.stats();
        assert_eq!(l1.accesses, 3);
        assert_eq!(l1.misses, 1);
        assert_eq!(h.dram_accesses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut h = tiny();
        // Set 0 holds lines with even line index (2 sets): lines 0,2,4
        // map to set 0; ways=2.
        h.access_line(0); // miss
        h.access_line(2 * 64); // miss
        h.access_line(0); // hit, promotes 0
        h.access_line(4 * 64); // miss, evicts line 2 (LRU)
        assert_eq!(h.access_line(0), 4, "line 0 stayed resident");
        let l2_hit = h.access_line(2 * 64);
        assert_eq!(l2_hit, 9, "line 2 fell to L2");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny();
        h.access_line(0);
        h.access_line(2 * 64);
        h.access_line(4 * 64); // evicts one of set 0 from L1 only
        let lat = h.access_line(0).min(h.access_line(2 * 64));
        assert!(lat <= 9, "evicted line still in L2");
    }

    #[test]
    fn multi_line_access_latency() {
        let mut h = tiny();
        h.access_line(0);
        h.access_line(64);
        // 128-byte access spanning two warm lines: max(4,4) + 1.
        assert_eq!(h.access(0, 128), 5);
        // Single byte: plain L1 latency.
        assert_eq!(h.access(3, 1), 4);
    }

    #[test]
    fn range_past_the_top_of_memory_ends_at_the_last_line() {
        let mut h = tiny();
        let top = u64::MAX - 63; // first byte of the last line
        assert_eq!(h.access(u64::MAX - 3, 64), 131, "one cold line");
        assert_eq!(h.access(top - 64, u32::MAX), 131 + 1, "two lines");
        assert_eq!(h.access(top, 1), 4);
        assert_eq!(h.stats().0.accesses, 4);
    }

    #[test]
    fn prefetch_hides_streaming_misses() {
        let mut pf = CacheHierarchy::new(&MemConfig {
            prefetch_degree: 3,
            ..MemConfig::snapdragon855()
        });
        let mut nopf = CacheHierarchy::new(&MemConfig {
            prefetch_degree: 0,
            ..MemConfig::snapdragon855()
        });
        for i in 0..1024u64 {
            pf.access(i * 16, 16);
            nopf.access(i * 16, 16);
        }
        let (pf1, _, _) = pf.stats();
        let (np1, _, _) = nopf.stats();
        assert!(
            pf1.misses < np1.misses / 2,
            "prefetcher should cut streaming misses: {} vs {}",
            pf1.misses,
            np1.misses
        );
    }

    #[test]
    fn inclusive_llc_eviction_invalidates_inner() {
        // LLC with 1 set x 2 ways so evictions are easy to force.
        let mut h = CacheHierarchy::new(&MemConfig {
            l1d: CacheConfig {
                size: 128,
                ways: 2,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size: 128,
                ways: 2,
                line: 64,
                latency: 9,
            },
            llc: CacheConfig {
                size: 128,
                ways: 2,
                line: 64,
                latency: 31,
            },
            dram_latency: 100,
            prefetch_degree: 0,
        });
        h.access_line(0);
        h.access_line(64);
        h.access_line(128); // LLC evicts line 0 -> back-invalidate
        let lat = h.access_line(0);
        assert_eq!(lat, 131, "line 0 must have left the whole hierarchy");
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut h = tiny();
        h.access_line(0);
        h.reset_stats();
        assert_eq!(h.stats().0.accesses, 0);
        assert_eq!(h.access_line(0), 4, "contents survive reset");
    }

    #[test]
    fn mpki_math() {
        let s = CacheStats {
            accesses: 100,
            misses: 10,
        };
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
    }
}
