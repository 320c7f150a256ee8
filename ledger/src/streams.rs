//! Seeded inputs. Everything a workload feeds the system derives from the
//! `--seed` argument through these functions, so one seed always yields the
//! same corpus, request streams and edit streams.

use hcg_fuzz::{generate_model, GenConfig};
use hcg_model::parser::model_to_xml;

/// Zipf exponent of the served model popularity.
pub const ZIPF_S: f64 = 1.1;

/// The two option mixes requests alternate between (query strings).
pub const OPTION_MIX: [&str; 2] = ["generator=hcg&arch=neon128", "generator=hcg&arch=avx256"];

/// One splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value derived from `(seed, k)`, injective in `k` for a fixed seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut s = seed.wrapping_mul(0xd134_2543_de82_ef95).wrapping_add(k);
    splitmix64(&mut s)
}

/// `n` generated models as XML; model `k` uses generator seed
/// `mix(seed, first + k)`, so disjoint `first` ranges give disjoint models.
pub fn corpus(seed: u64, first: u64, n: usize) -> Vec<String> {
    let cfg = GenConfig::default();
    (0..n as u64)
        .map(|k| model_to_xml(&generate_model(mix(seed, first + k), &cfg)))
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Cumulative Zipf([`ZIPF_S`]) weights over `n` ranks.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The request stream of one closed-loop client: `(model, option)` pairs,
/// model ranks Zipf-distributed.
pub struct ZipfStream<'a> {
    cdf: &'a [f64],
    state: u64,
}

impl<'a> ZipfStream<'a> {
    pub fn new(cdf: &'a [f64], seed: u64, client: u64) -> Self {
        ZipfStream {
            cdf,
            state: mix(seed, 0xc11e_0000 + client),
        }
    }

    pub fn next_request(&mut self) -> (usize, usize) {
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let model = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let option = (splitmix64(&mut self.state) & 1) as usize;
        (model, option)
    }
}

/// Request `j` of the cold stream: base model `j mod n` renamed `_r<j>`, so
/// every request carries distinct model bytes (a distinct cache key and
/// session) while costing the same compile as its base model.
pub fn cold_request(base: &[String], j: u64) -> (String, usize) {
    let xml = &base[(j % base.len() as u64) as usize];
    (rename(xml, &format!("_r{j}")), (j / 2 % 2) as usize)
}

/// `xml` with `suffix` appended to its model name.
fn rename(xml: &str, suffix: &str) -> String {
    const OPEN: &str = "<model name=\"";
    let start = xml
        .find(OPEN)
        .expect("model_to_xml output opens with <model name=")
        + OPEN.len();
    let end = start + xml[start..].find('"').expect("name attribute is closed");
    let mut out = String::with_capacity(xml.len() + suffix.len());
    out.push_str(&xml[..end]);
    out.push_str(suffix);
    out.push_str(&xml[end..]);
    out
}

/// The parameter-edit pick for edit `k` of paper model `m`.
pub fn edit_pick(seed: u64, m: usize, k: u64) -> u64 {
    mix(mix(seed, 0xed17_0000 + m as u64), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_requests(seed: u64, client: u64, n: usize) -> Vec<(usize, usize)> {
        let cdf = zipf_cdf(1000);
        let mut s = ZipfStream::new(&cdf, seed, client);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn seed_fixes_request_streams() {
        assert_eq!(zipf_requests(7, 0, 500), zipf_requests(7, 0, 500));
        assert_ne!(zipf_requests(7, 0, 500), zipf_requests(8, 0, 500));
        assert_ne!(zipf_requests(7, 0, 500), zipf_requests(7, 1, 500));
        let reqs = zipf_requests(7, 0, 5000);
        let top = reqs.iter().filter(|(m, _)| *m == 0).count();
        assert!(top > 500, "rank 1 dominates under s=1.1: {top}");
        assert!(reqs.iter().any(|&(_, o)| o == 1) && reqs.iter().any(|&(_, o)| o == 0));
    }

    #[test]
    fn seed_fixes_corpus_and_edit_streams() {
        assert_eq!(corpus(3, 0, 4), corpus(3, 0, 4));
        assert_ne!(corpus(3, 0, 4), corpus(4, 0, 4));
        assert_ne!(corpus(3, 0, 4), corpus(3, 4, 4), "disjoint ranges differ");
        let edits = |seed| (0..100).map(|k| edit_pick(seed, 2, k)).collect::<Vec<_>>();
        assert_eq!(edits(5), edits(5));
        assert_ne!(edits(5), edits(6));
        assert_ne!(permutation(1, 12), permutation(2, 12));
        let mut p = permutation(1, 12);
        p.sort_unstable();
        assert_eq!(p, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn cold_requests_are_distinct_and_parse() {
        let base = corpus(9, 0, 3);
        let (a, oa) = cold_request(&base, 0);
        let (b, _) = cold_request(&base, 3);
        let (c, oc) = cold_request(&base, 2);
        assert_ne!(a, b, "same base model, distinct bytes");
        assert_ne!(oa, oc, "each client alternates option mixes");
        assert_ne!(a, c);
        let ma = hcg_model::parser::model_from_xml(&a).unwrap();
        let mb = hcg_model::parser::model_from_xml(&b).unwrap();
        assert_eq!(ma.actors, mb.actors);
        assert!(ma.name.ends_with("_r0") && mb.name.ends_with("_r3"));
    }
}
