//! Seeded workload plans: every request line the daemon will see.
//!
//! A plan is a pure function of `(workload, seed)`. The daemon only ever
//! receives the generated lines: bundled circuit names, or inline `.apls`
//! text produced by `benchmarks::generate` + `serialize_circuit`. Every job
//! pins its seed, so every report body is reproducible in-process.

use apls_circuit::benchmarks::{self, GeneratorConfig};
use apls_io::serialize_circuit;
use apls_portfolio::PortfolioEngine;
use apls_service::JobSpec;
use std::borrow::Cow;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-schedule five-engine jobs on the small bundled circuits; every
    /// job solves, so the annealing kernels do the work.
    AnnealSmall,
    /// Fast-schedule jobs on generated 100–800-module circuits; shape
    /// functions, metrics and inline-circuit parsing dominate. Not in
    /// `BENCHMARK.json`: a run holds only four or five of its 7 s passes,
    /// too few to be steady on a shared host; run it by hand.
    HierLarge,
    /// Zipf resubmission of a primed working set; the reactor, protocol and
    /// cache keying do the work.
    ResubmitHits,
}

impl Workload {
    /// Every workload the command accepts.
    pub const ALL: [Workload; 3] =
        [Workload::AnnealSmall, Workload::HierLarge, Workload::ResubmitHits];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnnealSmall => "anneal_small",
            Workload::HierLarge => "hier_large",
            Workload::ResubmitHits => "resubmit_hits",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 finaliser: a strong 64-bit mix, so `mix(seed, i, lane)` gives
/// independent streams per request index and purpose.
pub fn mix(seed: u64, index: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the fixed job seeds of the `anneal_small` and `hier_large`
/// suites. A job's solve time swings up to 3× with its seed
/// (folded_cascode: 1.6–4.6 s over ten seeds), more than a run can average,
/// so the suites pin theirs, as they pin their circuits; the workload seed
/// picks the fresh-seed job of each pass.
const SUITE_SEED: u64 = 0x5017_e5ee_d000_0001;

// Purposes of the per-request draws (the `lane` argument of `mix`).
const LANE_JOB_SEED: u64 = 1;
const LANE_BLOCK: u64 = 2;

/// The `anneal_small` suite over the four small bundled circuits (9–22
/// modules), each entry with its own fixed seed. The two smallest appear
/// twice, so the median job of a pass falls inside their cluster rather than
/// on the edge between two circuits.
pub const SMALL_CYCLE: [&str; 6] = [
    "miller_opamp_fig6",
    "comparator_v2",
    "miller_v2",
    "miller_opamp_fig6",
    "comparator_v2",
    "folded_cascode",
];

/// The `hier_large` suite: `(modules, generator seed)` of generated
/// circuits, each with its own fixed job seed like the `anneal_small` suite.
/// The five-engine jobs share one size so the median falls inside their
/// cluster; the 800-module job runs on the three annealing lanes only.
pub const HIER_CYCLE: [(usize, u64); 5] = [(100, 1), (100, 2), (100, 3), (100, 4), (800, 1)];

/// Requests per `resubmit_hits` block. Every block holds the same mix in a
/// seeded order: hits on the keys in Zipf proportion, [`BLOCK_MISSES`]
/// fresh-seed misses on the bundled keys, and [`BLOCK_STREAMS`] streamed
/// requests.
pub const BLOCK: usize = 200;
/// Fresh-seed misses per block (one request in 20).
pub const BLOCK_MISSES: usize = 10;
/// Streamed requests per block (one in 10: 19 hits and one miss).
pub const BLOCK_STREAMS: usize = 20;
/// Zipf exponent of the `resubmit_hits` popularity law.
const ZIPF_EXPONENT: f64 = 1.0;

/// One distinct job: a circuit plus a pinned configuration and seed.
#[derive(Debug, Clone)]
pub struct Key {
    /// Short label for reports (`folded_cascode`, `gen250s1`, …).
    pub label: String,
    /// The request line (no trailing newline).
    pub line: String,
    /// The same request asking for a streamed answer.
    pub stream_line: String,
    /// A fresh-seed job line split around its seed digits: the key's own
    /// line in a suite, the fast-seqpair miss line in the working set.
    fresh_template: Option<(String, String)>,
}

impl Key {
    /// The key's fresh-seed job line with `seed` pinned.
    fn fresh_line(&self, seed: u64) -> String {
        let (head, tail) = self.fresh_template.as_ref().expect("the key takes fresh jobs");
        format!("{head}{seed}{tail}")
    }
}

/// One planned request.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// The request line.
    pub line: Cow<'a, str>,
    /// The working-set key it repeats, or `None` for a job of its own.
    pub key: Option<usize>,
    /// The key whose circuit and configuration the request places (its
    /// own key, or the key a fresh-seed job is made from).
    pub source: usize,
    /// Whether the request should be answered from the cache.
    pub expect_hit: bool,
    /// Whether the request asks for a streamed answer.
    pub stream: bool,
}

/// How request indices map onto keys.
#[derive(Debug, Clone)]
enum Sequence {
    /// Passes over a fixed job suite: request `i` is suite key `i % cycle`,
    /// and the last slot of every pass is a fresh-seed job on suite key
    /// `fresh`. The daemon's cache is off, so every request solves and every
    /// pass does the same work but for the fresh job.
    Passes {
        /// The suite key whose circuit and configuration the fresh job uses.
        fresh: usize,
    },
    /// Blocks of [`BLOCK`] requests over the working set, each a seeded
    /// permutation of the same slots.
    Blocks {
        /// The slots of one block, before permutation.
        slots: Vec<Slot>,
    },
}

/// One request slot of a `resubmit_hits` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: usize,
    miss: bool,
    stream: bool,
}

/// A seeded workload plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload seed.
    pub seed: u64,
    /// Client connections (one closed loop each).
    pub connections: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon result-cache capacity (holds every key of a run).
    pub cache_capacity: usize,
    /// The distinct jobs; `resubmit_hits` primes all of them before the
    /// window.
    pub keys: Vec<Key>,
    /// Requests per cycle: metrics cover whole cycles only, so every run
    /// measures the same mix.
    pub cycle: u64,
    sequence: Sequence,
}

impl Plan {
    /// Builds the plan of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::AnnealSmall => anneal_small(seed),
            Workload::HierLarge => hier_large(seed),
            Workload::ResubmitHits => resubmit_hits(seed),
        }
    }

    /// Whether the plan primes the cache before the window.
    pub fn primes(&self) -> bool {
        matches!(self.sequence, Sequence::Blocks { .. })
    }

    /// Request `index` of the plan (a pure function of the index).
    pub fn request(&self, index: u64) -> Request<'_> {
        match &self.sequence {
            Sequence::Passes { fresh } => {
                let slot = (index % self.cycle) as usize;
                match self.keys.get(slot) {
                    Some(key) => Request {
                        line: Cow::Borrowed(&key.line),
                        key: Some(slot),
                        source: slot,
                        expect_hit: false,
                        stream: false,
                    },
                    None => Request {
                        line: Cow::Owned(self.keys[*fresh].fresh_line(mix(
                            self.seed,
                            index / self.cycle,
                            LANE_JOB_SEED,
                        ))),
                        key: None,
                        source: *fresh,
                        expect_hit: false,
                        stream: false,
                    },
                }
            }
            Sequence::Blocks { slots } => {
                let slot = slots
                    [block_order(self.seed, index / BLOCK as u64)[(index % BLOCK as u64) as usize]];
                let key = &self.keys[slot.key];
                if slot.miss {
                    let line = key.fresh_line(mix(self.seed, index, LANE_JOB_SEED));
                    let line = if slot.stream { streamed(&line) } else { line };
                    Request {
                        line: Cow::Owned(line),
                        key: None,
                        source: slot.key,
                        expect_hit: false,
                        stream: slot.stream,
                    }
                } else {
                    let line = if slot.stream { &key.stream_line } else { &key.line };
                    Request {
                        line: Cow::Borrowed(line),
                        key: Some(slot.key),
                        source: slot.key,
                        expect_hit: true,
                        stream: slot.stream,
                    }
                }
            }
        }
    }

    /// FNV-1a digest of the working set and the first `count` request lines:
    /// equal seeds must print equal digests.
    pub fn digest(&self, count: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for key in &self.keys {
            eat(key.line.as_bytes());
        }
        for i in 0..count {
            eat(self.request(i).line.as_bytes());
        }
        h
    }
}

/// The seeded slot order of block `block` (Fisher–Yates).
fn block_order(seed: u64, block: u64) -> [usize; BLOCK] {
    let mut order = [0usize; BLOCK];
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    let seed = mix(seed, block, LANE_BLOCK);
    for i in (1..BLOCK).rev() {
        order.swap(i, (mix(seed, i as u64, 0) % (i as u64 + 1)) as usize);
    }
    order
}

/// The slots of one block: hits give each key its Zipf share (largest
/// remainder, at least one slot); misses go round-robin to the `bundled`
/// keys, whose fast-seqpair solves take milliseconds, so the solvers stay a
/// small part of the work.
fn block_slots(bundled: &[bool]) -> Vec<Slot> {
    let hits = BLOCK - BLOCK_MISSES;
    let weights: Vec<f64> =
        (1..=bundled.len()).map(|rank| 1.0 / (rank as f64).powf(ZIPF_EXPONENT)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * hits as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| (e.floor() as usize).max(1)).collect();
    let mut by_remainder: Vec<usize> = (0..bundled.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in by_remainder.iter().cycle() {
        match counts.iter().sum::<usize>().cmp(&hits) {
            std::cmp::Ordering::Less => counts[k] += 1,
            std::cmp::Ordering::Greater if counts[k] > 1 => counts[k] -= 1,
            std::cmp::Ordering::Greater => {}
            std::cmp::Ordering::Equal => break,
        }
    }
    let hit_slots = (0..bundled.len())
        .flat_map(|k| std::iter::repeat_n(k, counts[k]))
        .enumerate()
        .map(|(j, key)| Slot { key, miss: false, stream: j % 10 == 3 });
    let miss_keys: Vec<usize> = (0..bundled.len()).filter(|&k| bundled[k]).collect();
    let miss_slots = (0..BLOCK_MISSES).map(|m| Slot {
        key: miss_keys[m % miss_keys.len()],
        miss: true,
        stream: m == BLOCK_MISSES - 1,
    });
    let slots: Vec<Slot> = hit_slots.chain(miss_slots).collect();
    assert_eq!(slots.iter().filter(|s| s.stream).count(), BLOCK_STREAMS);
    slots
}

/// The streamed form of a request line: the `stream`/`id` fields appended
/// exactly where `JobSpec::to_json_line` puts them. One job is in flight per
/// connection, so a fixed correlation id never collides.
fn streamed(line: &str) -> String {
    let body = line.strip_suffix('}').expect("request lines are JSON objects");
    format!("{body},\"stream\":true,\"id\":1}}")
}

fn key_of(label: String, spec: &JobSpec, fresh: Option<&JobSpec>) -> Key {
    let line = spec.to_json_line();
    let fresh_template = fresh.map(|m| {
        let template = m.clone().with_seed(0).to_json_line();
        let at = template.rfind(",\"seed\":0").expect("seed field present") + ",\"seed\":".len();
        (template[..at].to_string(), template[at + 1..].to_string())
    });
    Key { label, stream_line: streamed(&line), line, fresh_template }
}

fn generated(module_count: usize, gen_seed: u64) -> (String, String) {
    let label = format!("gen{module_count}s{gen_seed}");
    let config = GeneratorConfig { module_count, seed: gen_seed, ..GeneratorConfig::default() };
    let circuit = benchmarks::generate(&label, config);
    (label, serialize_circuit(&circuit))
}

/// The keys of a suite of `jobs`, each with its fixed seed, and passes over
/// them whose last slot is a fresh-seed job like the first.
fn suite(jobs: Vec<(String, JobSpec)>) -> (Vec<Key>, Sequence) {
    let keys = jobs
        .into_iter()
        .enumerate()
        .map(|(i, (label, spec))| {
            let spec = spec.with_seed(mix(SUITE_SEED, i as u64, LANE_JOB_SEED));
            key_of(label, &spec, Some(&spec))
        })
        .collect();
    (keys, Sequence::Passes { fresh: 0 })
}

/// Full-schedule default portfolio, one restart: passes over
/// [`SMALL_CYCLE`] with fixed seeds plus one fresh-seed job, from one
/// connection. Two connections kept both cores busy, and the run-to-run
/// spread of every timing grew by 25–40%: the jobs then also measure how
/// the two workers disturb each other on a shared host.
fn anneal_small(seed: u64) -> Plan {
    let jobs = SMALL_CYCLE
        .iter()
        .map(|&name| (name.to_string(), JobSpec::bundled(name).with_restarts(1)))
        .collect();
    let (keys, sequence) = suite(jobs);
    Plan {
        seed,
        connections: 1,
        workers: 2,
        cache_capacity: 0,
        cycle: SMALL_CYCLE.len() as u64 + 1,
        keys,
        sequence,
    }
}

/// Fast-schedule jobs: passes over [`HIER_CYCLE`] with fixed seeds (five
/// engines at 100 modules, the three annealing lanes at 800) plus one
/// fresh-seed job on the first circuit.
fn hier_large(seed: u64) -> Plan {
    let jobs = HIER_CYCLE
        .iter()
        .map(|&(modules, gen_seed)| {
            let (label, text) = generated(modules, gen_seed);
            let mut spec = JobSpec::inline(text).with_restarts(1).with_fast(true);
            if modules > 100 {
                spec = spec.with_engines(annealing_lanes());
            }
            (label, spec)
        })
        .collect();
    let (keys, sequence) = suite(jobs);
    Plan {
        seed,
        connections: 1,
        workers: 2,
        cache_capacity: 0,
        cycle: HIER_CYCLE.len() as u64 + 1,
        keys,
        sequence,
    }
}

/// The three annealing lanes of the portfolio.
fn annealing_lanes() -> Vec<PortfolioEngine> {
    vec![PortfolioEngine::SequencePair, PortfolioEngine::HbTree, PortfolioEngine::Tempering]
}

/// Working set of `resubmit_hits`, in popularity order: bundled circuits
/// (fast five-engine portfolio) interleaved with generated inline circuits
/// (fast seqpair). The order is part of the workload, so a seed changes the
/// circuits and job seeds but not how popular a size is.
const WORKING_SET: [WorkingSetEntry; 13] = [
    WorkingSetEntry::Bundled("miller_opamp_fig6"),
    WorkingSetEntry::Inline(250),
    WorkingSetEntry::Bundled("comparator_v2"),
    WorkingSetEntry::Inline(20),
    WorkingSetEntry::Bundled("miller_v2"),
    WorkingSetEntry::Inline(1000),
    WorkingSetEntry::Bundled("folded_cascode"),
    WorkingSetEntry::Inline(50),
    WorkingSetEntry::Bundled("buffer"),
    WorkingSetEntry::Inline(500),
    WorkingSetEntry::Bundled("biasynth"),
    WorkingSetEntry::Inline(100),
    WorkingSetEntry::Bundled("lnamixbias"),
];

#[derive(Debug, Clone, Copy)]
enum WorkingSetEntry {
    Bundled(&'static str),
    Inline(usize),
}

fn resubmit_hits(seed: u64) -> Plan {
    let seqpair_fast = |spec: JobSpec| {
        spec.with_restarts(1).with_fast(true).with_engines(vec![PortfolioEngine::SequencePair])
    };
    let keys: Vec<Key> = WORKING_SET
        .iter()
        .enumerate()
        .map(|(k, entry)| {
            let job_seed = mix(seed, k as u64, LANE_JOB_SEED ^ 0x5eed);
            match *entry {
                WorkingSetEntry::Bundled(name) => {
                    let spec =
                        JobSpec::bundled(name).with_seed(job_seed).with_restarts(1).with_fast(true);
                    key_of(name.to_string(), &spec, Some(&seqpair_fast(JobSpec::bundled(name))))
                }
                WorkingSetEntry::Inline(modules) => {
                    let (label, text) = generated(modules, 1);
                    let spec = seqpair_fast(JobSpec::inline(text.clone())).with_seed(job_seed);
                    key_of(label, &spec, Some(&seqpair_fast(JobSpec::inline(text))))
                }
            }
        })
        .collect();
    let bundled: Vec<bool> =
        WORKING_SET.iter().map(|e| matches!(e, WorkingSetEntry::Bundled(_))).collect();
    let slots = block_slots(&bundled);
    Plan {
        seed,
        connections: 2,
        workers: 2,
        cache_capacity: 1 << 17,
        keys,
        cycle: BLOCK as u64,
        sequence: Sequence::Blocks { slots },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_service::json::Json;

    #[test]
    fn equal_seeds_give_equal_plans_and_digests() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7);
            let b = Plan::new(workload, 7);
            assert_eq!(a.digest(500), b.digest(500), "{}", workload.name());
            for i in 0..200 {
                assert_eq!(a.request(i).line, b.request(i).line);
            }
            assert_ne!(a.digest(500), Plan::new(workload, 8).digest(500), "{}", workload.name());
        }
    }

    #[test]
    fn every_request_is_a_valid_job_with_a_pinned_seed() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 3);
            for i in 0..50 {
                let request = plan.request(i);
                let json = Json::parse(&request.line).expect("request lines are JSON");
                let spec = JobSpec::from_json(&json).expect("request lines are valid jobs");
                assert!(spec.seed.is_some(), "{}: job {i} has no pinned seed", workload.name());
                assert_eq!(spec.stream == Some(true), request.stream);
            }
        }
    }

    #[test]
    fn suite_passes_repeat_fixed_jobs_and_end_with_a_fresh_one() {
        for workload in [Workload::AnnealSmall, Workload::HierLarge] {
            let plan = Plan::new(workload, 5);
            let other = Plan::new(workload, 6);
            let suite = plan.keys.len() as u64;
            assert_eq!(plan.cycle, suite + 1);
            assert_eq!(plan.cache_capacity, 0, "every request must solve");
            let fresh = |p: &Plan, pass: u64| p.request(pass * p.cycle + suite).line.into_owned();
            for pass in 0..3 {
                for slot in 0..suite {
                    let r = plan.request(pass * plan.cycle + slot);
                    assert_eq!(r.key, Some(slot as usize));
                    assert!(!r.expect_hit);
                    // the suite does not depend on the workload seed
                    assert_eq!(r.line, other.request(pass * plan.cycle + slot).line);
                }
                let line = fresh(&plan, pass);
                assert_eq!(plan.request(pass * plan.cycle + suite).key, None);
                assert!(plan.keys.iter().all(|k| k.line != line));
                assert_ne!(line, fresh(&plan, pass + 1));
                assert_ne!(line, fresh(&other, pass));
            }
        }
    }

    #[test]
    fn every_block_holds_the_same_mix() {
        let plan = Plan::new(Workload::ResubmitHits, 11);
        let bundled: Vec<bool> =
            WORKING_SET.iter().map(|e| matches!(e, WorkingSetEntry::Bundled(_))).collect();
        let slots = block_slots(&bundled);
        assert_eq!(slots.len(), BLOCK);
        assert_eq!(slots.iter().filter(|s| s.miss).count(), BLOCK_MISSES);
        assert!(slots.iter().filter(|s| s.miss).all(|s| bundled[s.key]));
        assert_eq!(slots.iter().filter(|s| s.stream).count(), BLOCK_STREAMS);
        assert_eq!(slots.iter().filter(|s| s.miss && s.stream).count(), 1);
        let mix_of = |block: u64| {
            let mut counts = vec![(0usize, 0usize, 0usize); plan.keys.len() + 1];
            for i in block * BLOCK as u64..(block + 1) * BLOCK as u64 {
                let r = plan.request(i);
                let c = &mut counts[r.key.unwrap_or(plan.keys.len())];
                c.0 += 1;
                c.1 += usize::from(r.stream);
                c.2 += usize::from(!r.expect_hit);
            }
            counts
        };
        // same mix in every block, in a different order
        assert_eq!(mix_of(0), mix_of(7));
        let order = |block: u64| -> Vec<String> {
            (block * BLOCK as u64..(block + 1) * BLOCK as u64)
                .map(|i| plan.request(i).line.into_owned())
                .take(20)
                .collect()
        };
        assert_ne!(order(0), order(7));
        // Zipf: the most popular key has the most slots, every key has one
        let counts = mix_of(0);
        assert!(counts[..plan.keys.len()].iter().all(|c| c.0 > 0));
        assert!(counts[1..plan.keys.len()].iter().all(|c| c.0 <= counts[0].0));
        // a fresh-seed miss keeps its key's circuit but never a primed seed
        let miss = (0..BLOCK as u64).map(|i| plan.request(i)).find(|r| r.key.is_none()).unwrap();
        assert!(!plan.keys.iter().any(|k| k.line == *miss.line || k.stream_line == *miss.line));
    }
}
