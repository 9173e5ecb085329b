//! The `serve-store` query mix: what two closed-loop client sessions
//! ask the server, made from the benchmark seed alone.

/// SplitMix64: a tiny, well-mixed generator whose stream is a pure
/// function of its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5157_4e5f_6265_6e63)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Client sessions; each runs closed loop, one query in flight.
pub const SESSIONS: usize = 2;
/// Queries each session sends.
pub const QUERIES_PER_SESSION: usize = 500;
/// Kernels the skewed part of the mix favours.
const POPULAR: usize = 4;
/// Times the mix walks the whole inventory, in one seeded order.
const PASSES: usize = 2;
/// A popular query follows a walk visit of its kernel within this many
/// walk steps: few enough that the kernel's groups are still cached.
const WINDOW: usize = 8;

/// One `kernel=<id>` query per entry, per session, in send order.
///
/// The mix walks every kernel twice in one seeded order, a pass apart.
/// A pass inserts all of the plan's groups into the result cache, more
/// than it holds, so the second ask for a kernel finds its groups
/// evicted and replays them from the store again. Every other query
/// goes to one of a few seed-chosen popular kernels, with Zipf weights,
/// shortly after a walk visit of that kernel, so it is a cache answer
/// (or joins the visit in flight). The store replays are therefore the
/// same two per group for every seed, and so is the work; over eight
/// in ten queries are cache answers, so the median sits well inside
/// them. The 1000 samples put the tail at p99, the eleventh-slowest
/// query: among the two replays of each of the costliest kernels.
pub fn query_mix(kernel_ids: &[String], seed: u64) -> Vec<Vec<String>> {
    let total = SESSIONS * QUERIES_PER_SESSION;
    let walks = PASSES * kernel_ids.len();
    assert!(
        kernel_ids.len() >= POPULAR && total >= walks,
        "inventory does not fit the mix"
    );
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..kernel_ids.len()).collect();
    rng.shuffle(&mut order);
    let walk: Vec<usize> = order.iter().copied().cycle().take(walks).collect();
    rng.shuffle(&mut order);
    let popular = &order[..POPULAR];
    let weights: Vec<f64> = (1..=POPULAR).map(|r| 1.0 / r as f64).collect();
    let weight_sum: f64 = weights.iter().sum();

    // follow[i]: the popular queries sent right after walk step i.
    let mut follow: Vec<Vec<usize>> = vec![Vec::new(); walks];
    for _ in walks..total {
        let mut x = rng.unit() * weight_sum;
        let mut p = 0;
        while p + 1 < POPULAR && x >= weights[p] {
            x -= weights[p];
            p += 1;
        }
        let k = popular[p];
        let visits: Vec<usize> = (0..walks).filter(|&i| walk[i] == k).collect();
        let visit = visits[rng.below(visits.len())];
        follow[(visit + rng.below(WINDOW)).min(walks - 1)].push(k);
    }
    let mut sessions: Vec<Vec<String>> = (0..SESSIONS)
        .map(|_| Vec::with_capacity(QUERIES_PER_SESSION))
        .collect();
    let sequence = walk
        .iter()
        .zip(&follow)
        .flat_map(|(&k, f)| std::iter::once(k).chain(f.iter().copied()));
    for (i, k) in sequence.enumerate() {
        sessions[i % SESSIONS].push(format!("kernel={}", kernel_ids[k]));
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> Vec<String> {
        (0..59)
            .map(|i| format!("LIB{}.kernel_{i}", i % 12))
            .collect()
    }

    #[test]
    fn same_seed_same_mix() {
        assert_eq!(query_mix(&ids(), 42), query_mix(&ids(), 42));
    }

    #[test]
    fn another_seed_another_mix() {
        assert_ne!(query_mix(&ids(), 42), query_mix(&ids(), 43));
        assert_ne!(query_mix(&ids(), 1), query_mix(&ids(), 2));
    }

    #[test]
    fn each_session_sends_at_least_a_hundred_queries() {
        let mix = query_mix(&ids(), 7);
        assert_eq!(mix.len(), SESSIONS);
        for s in &mix {
            assert!(s.len() >= 100, "{} queries", s.len());
        }
    }

    #[test]
    fn every_kernel_is_asked_for_and_a_few_dominate() {
        let ids = ids();
        for seed in [1, 42, 99] {
            let all: Vec<String> = query_mix(&ids, seed).concat();
            let mut counts: Vec<usize> = ids
                .iter()
                .map(|id| all.iter().filter(|q| **q == format!("kernel={id}")).count())
                .collect();
            assert!(
                counts.iter().all(|&c| c >= 1),
                "seed {seed} misses a kernel"
            );
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let top: usize = counts[..POPULAR].iter().sum();
            assert!(
                top * 2 > all.len(),
                "seed {seed}: popular kernels get {top}"
            );
        }
    }
}
