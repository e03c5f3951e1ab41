//! Seeded inputs: LBL-shaped CSV bytes and query streams, plus the
//! fingerprints that identify them. Everything here is a function of the
//! seed alone, and the generator is the benchmark's own, so the inputs
//! stay the same when the program's data generators change.

use scwsc_core::solver::{Algorithm, CostModel, Query};

/// splitmix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// CSV text of an LBL-CONN-7-shaped connection trace: five Zipf-skewed
/// categorical attributes and a log-normal session length whose level
/// depends on (protocol, end state). Domain sizes scale with `rows` the
/// way the paper-shaped generator of the data crate scales them.
///
/// The shape (domains, skew, the per-group length levels) is fixed; the
/// seed draws the rows. Different seeds are different samples of one
/// trace distribution, so the work a query takes varies little between
/// seeds.
pub fn lbl_csv(rows: usize, seed: u64) -> String {
    let mut shape = Rng::new(0x1b1_c077);
    let mut rng = Rng::new(seed);
    let f = (rows as f64 / 700_000.0).max(0.005);
    let (protocols, states, flags) = (12, 8, 6);
    let local = ((1_600.0 * f) as usize).clamp(8, 1_600);
    let remote = ((2_500.0 * f) as usize).clamp(8, 2_500);
    let proto_d = Zipf::new(protocols, 1.1);
    let local_d = Zipf::new(local, 1.1);
    let remote_d = Zipf::new(remote, 1.1);
    let state_d = Zipf::new(states, 1.1);
    let flag_d = Zipf::new(flags, 1.1);
    let group_mu: Vec<f64> = (0..protocols * states)
        .map(|_| 2.0 + 2.0 * shape.normal())
        .collect();
    let mut out = String::with_capacity(rows * 56);
    out.push_str("protocol,localhost,remotehost,endstate,flags,session_length\n");
    for _ in 0..rows {
        let proto = proto_d.sample(&mut rng);
        let state = if rng.unit() < 0.7 {
            (proto + state_d.sample(&mut rng)) % states
        } else {
            state_d.sample(&mut rng)
        };
        let length = (group_mu[proto * states + state] + 0.8 * rng.normal()).exp();
        out.push_str(&format!(
            "proto{proto},lh{:04},rh{:04},state{state},flags{},{length}\n",
            local_d.sample(&mut rng),
            remote_d.sample(&mut rng),
            flag_d.sample(&mut rng),
        ));
    }
    out
}

/// Seed of table `i` of a run's pool of `pool` tables.
pub fn pool_seed(seed: u64, pool: usize, i: usize) -> u64 {
    seed.wrapping_mul(pool as u64).wrapping_add(i as u64)
}

const COSTS: [CostModel; 4] = [
    CostModel::Max,
    CostModel::Sum,
    CostModel::Mean,
    CostModel::Count,
];

/// `x` plus a seeded jitter of at most `±w`, rounded to three decimals so
/// every query has a short exact spelling.
fn jitter(rng: &mut Rng, x: f64, w: f64) -> f64 {
    ((x + (2.0 * rng.unit() - 1.0) * w) * 1000.0).round() / 1000.0
}

fn query(algorithm: Algorithm, k: usize, coverage: f64, cost: CostModel) -> Query {
    Query {
        algorithm,
        k,
        coverage,
        b: 1.0,
        eps: 1.0,
        cost,
    }
}

/// Every `(k, ŝ)` of a grid under every cost model in `costs`.
fn grid(algorithm: Algorithm, costs: &[CostModel], ks: &[usize], ss: &[f64]) -> Vec<Query> {
    let mut qs = Vec::new();
    for &cost in costs {
        for &k in ks {
            for &s in ss {
                qs.push(query(algorithm, k, s, cost));
            }
        }
    }
    qs
}

/// The `batch-solve` stream: a fixed grid of distinct queries over
/// algorithm, cost model, k and ŝ, in an order shuffled by the seed.
/// CWSC outnumbers CMC 4:1, so the overall median falls inside the CWSC
/// latencies rather than in the gap between the two families.
pub fn batch_queries(seed: u64) -> Vec<Query> {
    let mut qs = grid(
        Algorithm::Cwsc,
        &COSTS,
        &[4, 6, 8, 12],
        &[0.3, 0.45, 0.6, 0.75],
    );
    qs.extend(grid(Algorithm::Cmc, &COSTS, &[4, 8], &[0.4, 0.6]));
    Rng::new(seed ^ 0xba7c).shuffle(&mut qs);
    qs
}

/// The `cube-batch` stream: (algorithm, k, ŝ) over a fixed grid, CWSC
/// outnumbering CMC 2:1, shuffled by the seed. Set systems carry their
/// own weights, so the cost model stays `max`.
pub fn cube_queries(seed: u64) -> Vec<Query> {
    let ss = [0.2, 0.35, 0.5, 0.65, 0.8];
    let mut qs = grid(
        Algorithm::Cwsc,
        &[CostModel::Max],
        &[3, 4, 6, 8, 10, 12, 14, 16],
        &ss,
    );
    qs.extend(grid(
        Algorithm::Cmc,
        &[CostModel::Max],
        &[4, 8, 12, 16],
        &ss,
    ));
    Rng::new(seed ^ 0xc0be).shuffle(&mut qs);
    qs
}

/// The `cold-oneshot` query for pool instance `i`: a cheap CWSC on three
/// instances in four, a tick-capped CMC on the fourth, all under the
/// default `max` cost. The 3:1 mix of near-identical CWSC instances puts
/// the overall median inside one cluster of latencies rather than in a
/// gap between clusters.
pub fn oneshot_query(seed: u64, i: usize) -> Query {
    let mut rng = Rng::new(seed ^ 0x1e57 ^ ((i as u64) << 32));
    if i % 4 == 3 {
        query(
            Algorithm::Cmc,
            4,
            jitter(&mut rng, 0.5, 0.02),
            CostModel::Max,
        )
    } else {
        query(
            Algorithm::Cwsc,
            3,
            jitter(&mut rng, 0.8, 0.02),
            CostModel::Max,
        )
    }
}

/// The `serve-zipf` key space: `n` distinct queries by popularity rank,
/// all under the default `max` cost. Every fourth rank is a CMC query,
/// so the CMC share of requests is set by the rank structure; the seed
/// picks only k and ŝ. CWSC keys stay at k ≤ 6 and ŝ ≥ 0.6, where a solve
/// takes milliseconds: at low coverage, or under `sum` and `mean`, a
/// single CWSC key can take hundreds of milliseconds, and whether the
/// seed made such a key popular would then decide the tail. The
/// cost-model mix is `batch-solve`'s to measure.
pub fn serve_keys(seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x5e4e);
    let mut keys: Vec<Query> = Vec::with_capacity(n);
    while keys.len() < n {
        let q = if keys.len() % 4 == 3 {
            query(
                Algorithm::Cmc,
                3 + rng.below(3),
                jitter(&mut rng, 0.5, 0.05),
                CostModel::Max,
            )
        } else {
            query(
                Algorithm::Cwsc,
                3 + rng.below(4),
                jitter(&mut rng, 0.75, 0.15),
                CostModel::Max,
            )
        };
        if !keys.contains(&q) {
            keys.push(q);
        }
    }
    keys
}

/// The `serve-zipf` request stream: `len` key ranks drawn Zipf(1.0).
pub fn serve_stream(seed: u64, keys: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x2197);
    let zipf = Zipf::new(keys, 1.0);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

/// FNV-1a, 64-bit: a stable fingerprint of bytes and queries.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    pub fn query(&mut self, q: &Query) -> &mut Self {
        self.str(&query_label(q))
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Exact one-line spelling of a query, used in fingerprints and reports.
pub fn query_label(q: &Query) -> String {
    format!(
        "{}|k={}|s={:?}|b={:?}|eps={:?}|cost={}",
        q.algorithm.as_str(),
        q.k,
        q.coverage,
        q.b,
        q.eps,
        q.cost.as_str()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> String {
        let mut fp = Fingerprint::default();
        fp.str(&lbl_csv(500, seed));
        for q in batch_queries(seed)
            .iter()
            .chain(&cube_queries(seed))
            .chain(&serve_keys(seed, 64))
        {
            fp.query(q);
        }
        for r in serve_stream(seed, 64, 200) {
            fp.str(&r.to_string());
        }
        fp.hex()
    }

    #[test]
    fn same_seed_same_fingerprint() {
        assert_eq!(inputs(7), inputs(7));
        assert_eq!(lbl_csv(300, 3), lbl_csv(300, 3));
    }

    #[test]
    fn different_seed_different_fingerprint() {
        assert_ne!(inputs(7), inputs(8));
        assert_ne!(lbl_csv(300, 3), lbl_csv(300, 4));
        assert_ne!(batch_queries(1), batch_queries(2));
    }

    #[test]
    fn fingerprint_separates_fields() {
        let a = Fingerprint::default().str("ab").str("c").hex();
        let b = Fingerprint::default().str("a").str("bc").hex();
        assert_ne!(a, b);
    }

    #[test]
    fn csv_has_the_lbl_schema() {
        let csv = lbl_csv(1000, 1);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("protocol,localhost,remotehost,endstate,flags,session_length")
        );
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 1000);
        for row in rows {
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields.len(), 6);
            let m: f64 = fields[5].parse().unwrap();
            assert!(m > 0.0 && m.is_finite());
        }
    }

    #[test]
    fn streams_are_valid_queries() {
        for q in batch_queries(5).iter().chain(&cube_queries(5)) {
            assert!(q.coverage > 0.0 && q.coverage <= 1.0 && q.k >= 3);
        }
        let keys = serve_keys(5, 256);
        assert_eq!(keys.len(), 256);
        let cmc = keys
            .iter()
            .filter(|q| q.algorithm == Algorithm::Cmc)
            .count();
        assert_eq!(cmc, 64);
        assert!(serve_stream(5, 256, 1000).iter().all(|&r| r < 256));
        assert_eq!(batch_queries(5).len(), 80);
        assert_eq!(cube_queries(5).len(), 60);
    }
}
