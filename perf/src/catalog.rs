//! The `serve_mix` request mix: a catalog of distinct job specs, index 0 the
//! most popular, and Zipf draws over it.
//!
//! The catalog is built so that different seeds give the same *kind* of
//! traffic. The few large payloads (figure and analyze jobs) and the trace
//! jobs sit at fixed popularity ranks, and every solver job is sized to
//! cost about [`TARGET_JOB_MS`], so which specs a seed happens to touch
//! changes the work of a run by a few per cent, not by a factor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const CATALOG_SIZE: usize = 2000;
pub const ZIPF_S: f64 = 1.1;

/// What one cache miss should cost on the sandbox, give or take a third.
const TARGET_JOB_MS: f64 = 11.0;

/// `(slug, grid dimensions, ms per point per iteration, first n, n step,
/// n count)`. The unit costs were measured once on the sandbox and only
/// need to be right within a factor of two.
const APPS: [(&str, i32, f64, usize, usize, usize); 9] = [
    ("minibude", 1, 2.34e-2, 10, 2, 8),
    ("cloverleaf2d", 2, 8.06e-5, 48, 2, 8),
    ("cloverleaf3d", 3, 1.76e-4, 10, 1, 5),
    ("acoustic", 3, 5.6e-6, 24, 2, 8),
    ("opensbli-sa", 3, 3.66e-4, 8, 1, 4),
    ("opensbli-sn", 3, 2.2e-4, 9, 1, 5),
    ("mgcfd", 2, 4.6e-4, 21, 1, 8),
    ("volna", 2, 4.5e-5, 64, 2, 8),
    ("miniweather", 2, 1.9e-4, 50, 2, 5),
];

/// Apps with a distributed driver (`bwb_apps::jobspec::RANKED_APPS`); their
/// `n` values above are even so that two ranks divide them.
const RANKED: [&str; 3] = ["acoustic", "cloverleaf2d", "miniweather"];

/// The head of every catalog. Ranks 0 to 2 draw 30 % of all requests, so
/// they are three plain solver jobs whichever the seed; the figure, analyze
/// and trace jobs follow at odd ranks 3, 5, … 43. Every thread that records while a trace job runs keeps a 3 MB
/// event ring for the life of the process (`bwb_trace` never frees them),
/// so the trace jobs are few, and `serve_mix` executes them during warm-up,
/// one at a time: in the timed region they are cache hits, and the memory
/// they cost is the same in every run.
const FIXED: [&str; 24] = [
    r#"{"kind":"benchmark","app":"cloverleaf2d","n":48,"iterations":20}"#,
    r#"{"kind":"benchmark","app":"acoustic","n":32,"iterations":24}"#,
    r#"{"kind":"benchmark","app":"miniweather","n":50,"iterations":10}"#,
    r#"{"kind":"figure","figure":8}"#,
    r#"{"kind":"analyze","app":"cloverleaf2d"}"#,
    r#"{"kind":"figure","figure":3}"#,
    r#"{"kind":"analyze","app":"acoustic"}"#,
    r#"{"kind":"figure","figure":6}"#,
    r#"{"kind":"analyze","app":"clover2d_dist"}"#,
    r#"{"kind":"figure","figure":7}"#,
    r#"{"kind":"analyze","app":"cloverleaf3d"}"#,
    r#"{"kind":"figure","figure":5}"#,
    r#"{"kind":"analyze","app":"opensbli_sa"}"#,
    r#"{"kind":"figure","figure":9}"#,
    r#"{"kind":"analyze","app":"miniweather"}"#,
    r#"{"kind":"figure","figure":4}"#,
    r#"{"kind":"analyze","app":"acoustic_dist"}"#,
    r#"{"kind":"analyze","app":"opensbli_sn"}"#,
    r#"{"kind":"trace","app":"cloverleaf2d","n":48,"iterations":12}"#,
    r#"{"kind":"trace","app":"acoustic","n":32,"iterations":12}"#,
    r#"{"kind":"trace","app":"volna","n":48,"iterations":40}"#,
    r#"{"kind":"trace","app":"miniweather","n":32,"iterations":2}"#,
    r#"{"kind":"trace","app":"mgcfd","n":33,"iterations":4}"#,
    r#"{"kind":"trace","app":"cloverleaf3d","n":12,"iterations":6}"#,
];

pub fn is_trace_job(body: &str) -> bool {
    body.contains(r#""kind":"trace""#)
}

fn fixed_rank(i: usize) -> usize {
    if i < 3 {
        i
    } else {
        2 * i - 3
    }
}

/// Every solver spec the catalog can draw from, in a fixed order.
fn pool() -> Vec<String> {
    let mut out = Vec::new();
    for (slug, dim, unit_ms, n0, step, count) in APPS {
        for n in (0..count).map(|k| n0 + k * step) {
            let centre = TARGET_JOB_MS / (unit_ms * (n as f64).powi(dim));
            let (lo, hi) = (
                (0.8 * centre).ceil() as usize,
                (1.2 * centre).floor() as usize,
            );
            for it in lo.max(1)..=hi {
                let spec = format!(r#""app":"{slug}","n":{n},"iterations":{it}"#);
                out.push(format!(r#"{{"kind":"benchmark",{spec}}}"#));
                out.push(format!(r#"{{"kind":"benchmark",{spec},"parallel":true}}"#));
                if RANKED.contains(&slug) {
                    out.push(format!(r#"{{"kind":"benchmark",{spec},"ranks":2}}"#));
                }
            }
        }
    }
    out
}

/// `size` distinct request bodies, most popular first. The same seed gives
/// the same catalog.
pub fn build(seed: u64, size: usize) -> Vec<String> {
    let mut pool = pool();
    let fixed: Vec<usize> = (0..FIXED.len()).map(fixed_rank).collect();
    let last_fixed = *fixed.last().expect("FIXED is not empty");
    assert!(
        size > last_fixed,
        "catalog of {size} has no room for the fixed ranks"
    );
    assert!(
        pool.len() >= size - FIXED.len(),
        "spec pool of {} cannot fill a catalog of {size}",
        pool.len()
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca7a_1065);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let mut drawn = pool.into_iter();
    (0..size)
        .map(|rank| match fixed.iter().position(|&r| r == rank) {
            Some(i) => FIXED[i].to_string(),
            None => drawn.next().expect("pool size was checked above"),
        })
        .collect()
}

/// Draws catalog indices with probability ∝ 1 / (index + 1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The whole request sequence of one client, drawn before the clock starts.
pub fn draws(seed: u64, client: usize, catalog_len: usize, requests: usize) -> Vec<usize> {
    let zipf = Zipf::new(catalog_len, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9));
    (0..requests).map(|_| zipf.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_serve::Job;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_catalog_other_seed_other_catalog() {
        assert_eq!(build(7, CATALOG_SIZE), build(7, CATALOG_SIZE));
        assert_ne!(build(7, CATALOG_SIZE), build(8, CATALOG_SIZE));
        assert_eq!(draws(7, 0, 100, 50), draws(7, 0, 100, 50));
        assert_ne!(draws(7, 0, 100, 50), draws(7, 1, 100, 50));
    }

    #[test]
    fn every_spec_parses_and_the_cache_keys_are_distinct() {
        let catalog = build(1, CATALOG_SIZE);
        assert_eq!(catalog.len(), CATALOG_SIZE);
        let keys: HashSet<u64> = catalog
            .iter()
            .map(|body| {
                let doc = bwb_trace::json::parse(body).unwrap();
                let job = Job::parse(&doc).unwrap_or_else(|e| panic!("{body}: {e}"));
                job.cache_key("machine").0
            })
            .collect();
        assert_eq!(keys.len(), CATALOG_SIZE);
    }

    #[test]
    fn large_payload_jobs_keep_their_rank_across_seeds() {
        let (a, b) = (build(1, 64), build(2, 64));
        println!("spec pool holds {} solver specs", pool().len());
        for (i, body) in FIXED.iter().enumerate() {
            assert_eq!(a[fixed_rank(i)], *body);
            assert_eq!(b[fixed_rank(i)], *body);
        }
        let kinds = |c: &[String], k: &str| c.iter().filter(|b| b.contains(k)).count();
        let full = build(3, CATALOG_SIZE);
        for kind in [
            "\"benchmark\"",
            "\"trace\"",
            "\"figure\"",
            "\"analyze\"",
            "\"ranks\":2",
        ] {
            assert!(kinds(&full, kind) > 0, "no {kind} job in the catalog");
        }
    }

    #[test]
    fn zipf_prefers_the_head() {
        let zipf = Zipf::new(CATALOG_SIZE, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(5);
        let mut head = 0;
        for _ in 0..10_000 {
            let i = zipf.sample(&mut rng);
            assert!(i < CATALOG_SIZE);
            head += usize::from(i < 20);
        }
        // The top 1 % of the catalog draws about half of the traffic.
        assert!((4_000..7_000).contains(&head), "{head}");
    }
}
