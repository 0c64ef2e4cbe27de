//! The traced run: replays plan requests in-process and records one span per
//! call into each layer's public functions.
//!
//! Spans are timed from the benchmark's own code, around the calls; nothing
//! inside the program is instrumented. They stay in memory and are written
//! out when the run ends, then reduced to self time per layer.

use crate::plan::{mix, Plan};
use apls_btree::{pack_btree_into, BStarTree, PackScratch, PackedBTree};
use apls_circuit::benchmarks::{self, BenchmarkCircuit};
use apls_circuit::{DeltaCost, ModuleId, Placement};
use apls_geometry::{total_overlap_area, Contour, Rect};
use apls_io::{canonical_hash, parse_circuit, serialize_circuit};
use apls_portfolio::{
    run_engine_once, run_portfolio, PortfolioConfig, PortfolioEngine, RestartOutcome,
};
use apls_seqpair::pack::pack_lcs;
use apls_seqpair::SequencePair;
use apls_service::json::Json;
use apls_service::{CircuitSource, JobSpec};
use apls_shapefn::{
    BTreeAnnealSolver, DeterministicPlacer, EnhancedShapeFunction, HierOptions, HierPlacer,
    ShapeModel, SubProblem, SubSolver,
};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique within a run).
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer call name, `layer.call`.
    pub name: String,
    /// Plan index of the request the call belongs to.
    pub job: u64,
    /// Start and end, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Operations the span covers (kernel repetitions, moves); 1 otherwise.
    pub ops: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Tracer::exit`].
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: String,
    job: u64,
    start_ns: u64,
}

/// In-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn enter(&self, name: impl Into<String>, job: u64, parent: Option<u32>) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name: name.into(), job, start_ns: self.now_ns() }
    }

    /// Closes a span covering `ops` operations.
    pub fn exit(&self, open: Open, ops: u64) {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            job: open.job,
            start_ns: open.start_ns,
            end_ns,
            ops,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        job: u64,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let open = self.enter(name, job, parent);
        let id = open.id;
        let out = f(id);
        self.exit(open, 1);
        out
    }

    /// The recorded spans, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-name reduction of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Calls recorded.
    pub calls: u64,
    /// Operations covered (sum of `ops`).
    pub ops: u64,
    /// Summed span duration (ns).
    pub total_ns: u64,
    /// Summed self time: duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Reduces spans to total and self time per name. A span's self time is its
/// duration minus the union of its children's intervals, clipped to it.
pub fn reduce(spans: &[Span]) -> BTreeMap<String, Layer> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let layer = layers.entry(s.name.clone()).or_default();
        layer.calls += 1;
        layer.ops += s.ops;
        layer.total_ns += s.ns();
        layer.self_ns += s.ns() - covered;
    }
    layers
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            apls_service::json::quote(&s.name),
            s.job,
            s.start_ns,
            s.end_ns,
            s.ops
        )?;
    }
    out.flush()
}

/// A [`SubSolver`] that records a span around every sub-solve of the
/// annealing solver the portfolio's hier lane installs.
struct TimedSolver {
    tracer: Arc<Tracer>,
    job: u64,
    parent: u32,
}

impl SubSolver for TimedSolver {
    fn name(&self) -> &'static str {
        BTreeAnnealSolver.name()
    }

    fn solve(&self, problem: &SubProblem<'_>) -> EnhancedShapeFunction {
        self.tracer.span("shapefn.hier_subsolve", self.job, Some(self.parent), |_| {
            BTreeAnnealSolver.solve(problem)
        })
    }
}

/// Annealing statistics of one lane, summed over replayed restarts.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneStats {
    /// Proposals evaluated (exact).
    pub moves: u64,
    /// Acceptance ratio weighted by moves, summed.
    pub accepted: f64,
}

/// What the replay found besides spans.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Requests replayed through the io layer.
    pub requests: u64,
    /// Request bytes replayed.
    pub request_bytes: u64,
    /// Distinct jobs solved in-process.
    pub jobs: u64,
    /// Restarts run through `run_engine_once`.
    pub restarts: u64,
    /// Annealing statistics per lane name.
    pub lanes: BTreeMap<&'static str, LaneStats>,
    /// Hier runs, and how many the pure-enumeration fallback won.
    pub hier_runs: u64,
    /// See `hier_runs`.
    pub enumeration_won: u64,
    /// Replayed bodies compared with served ones, and the mismatches.
    pub compared: u64,
    /// See `compared`.
    pub mismatches: Vec<String>,
    /// Σ served solve time of the compared jobs (ms), from the envelopes.
    pub served_solve_ms: f64,
    /// Σ replayed `run_portfolio` time of the compared jobs (ms).
    pub replay_solve_ms: f64,
}

/// Replays requests `0..count` of `plan`. `served(i)` returns the report
/// body the daemon served for request `i` with its envelope `solve_ms`, when
/// it was served; every replayed body is compared byte-for-byte with it.
pub fn replay(
    tracer: &Arc<Tracer>,
    plan: &Plan,
    count: u64,
    served: &dyn Fn(u64) -> Option<(String, f64)>,
) -> Result<ReplayOutcome, String> {
    // one thread per job, like the daemon's workers (`threads` defaults to 1)
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| e.to_string())?;
    pool.install(|| {
        let mut out = ReplayOutcome::default();
        let mut solved: HashSet<String> = HashSet::new();
        for job in 0..count {
            let request = plan.request(job);
            tracer.span("job", job, None, |root| {
                replay_request(tracer, &mut out, &mut solved, job, root, &request.line, served)
            })?;
        }
        Ok(out)
    })
}

fn replay_request(
    tracer: &Arc<Tracer>,
    out: &mut ReplayOutcome,
    solved: &mut HashSet<String>,
    job: u64,
    root: u32,
    line: &str,
    served: &dyn Fn(u64) -> Option<(String, f64)>,
) -> Result<(), String> {
    let t = tracer.as_ref();
    out.requests += 1;
    out.request_bytes += line.len() as u64 + 1;
    let spec = t.span("io.request_json_parse", job, Some(root), |_| {
        Json::parse(line).and_then(|json| JobSpec::from_json(&json))
    })?;
    let circuit = t.span("io.circuit_resolve", job, Some(root), |_| match &spec.circuit {
        CircuitSource::Bundled(name) => {
            benchmarks::by_name(name).ok_or_else(|| format!("unknown circuit {name}"))
        }
        CircuitSource::Inline(text) => parse_circuit(text).map_err(|e| e.to_string()),
    })?;
    let seed = spec.seed.ok_or("plan jobs pin their seed")?;
    let key = t.span("io.cache_key", job, Some(root), |_| {
        let text = serialize_circuit(&circuit);
        let hash = canonical_hash(&text);
        format!("{hash:016x}/{}/{seed}/{text}", spec.config_canonical())
    });
    if !solved.insert(key) {
        return Ok(()); // a hit: the daemon answers from its cache
    }
    out.jobs += 1;
    let config = spec.resolved_config(seed);
    let (report, solve_ms) = t.span("portfolio.solve", job, Some(root), |_| {
        let start = Instant::now();
        let report = run_portfolio(&circuit, &config);
        (report, start.elapsed().as_secs_f64() * 1e3)
    });
    let body = t.span("portfolio.report_json", job, Some(root), |_| report.to_json_deterministic());
    if let Some((served_body, served_ms)) = served(job) {
        out.compared += 1;
        out.served_solve_ms += served_ms;
        out.replay_solve_ms += solve_ms;
        if served_body != body {
            out.mismatches.push(format!("request {job}: served body differs from the replay"));
        }
    }
    let outcomes = replay_restarts(t, out, &circuit, &config, job, root);
    replay_shapefn(tracer, out, &circuit, &config, job, root);
    replay_circuit_and_kernels(t, &circuit, &outcomes, seed, job, root);
    Ok(())
}

/// Every restart of the plan through `run_engine_once`, one span per lane.
fn replay_restarts(
    t: &Tracer,
    out: &mut ReplayOutcome,
    circuit: &BenchmarkCircuit,
    config: &PortfolioConfig,
    job: u64,
    root: u32,
) -> Vec<RestartOutcome> {
    let settings = config.restart_settings();
    t.span("portfolio.restarts", job, Some(root), |parent| {
        let mut outcomes = Vec::new();
        for task in config.generations().into_iter().flatten() {
            let name = format!("engine.{}", task.engine.name());
            let outcome = t.span(name, job, Some(parent), |_| {
                run_engine_once(circuit, task.engine, task.seed, &settings)
            });
            out.restarts += 1;
            if task.engine.reports_annealing_stats() {
                let lane = out.lanes.entry(task.engine.name()).or_default();
                lane.moves += outcome.moves_attempted;
                lane.accepted +=
                    outcome.acceptance_ratio.unwrap_or(0.0) * outcome.moves_attempted as f64;
            }
            outcomes.push(outcome);
        }
        outcomes
    })
}

/// The shape-function layer: the hier lane's pipeline with a timed
/// sub-solver (composition = run − sub-solves), and the deterministic
/// enumeration.
fn replay_shapefn(
    tracer: &Arc<Tracer>,
    out: &mut ReplayOutcome,
    circuit: &BenchmarkCircuit,
    config: &PortfolioConfig,
    job: u64,
    root: u32,
) {
    let t = tracer.as_ref();
    for task in config.generations().into_iter().flatten() {
        match task.engine {
            PortfolioEngine::Hier => {
                let options = HierOptions::default()
                    .with_seed(task.seed)
                    .with_fast_schedule(config.fast_schedule)
                    .with_anneal_threshold(config.hier_anneal_threshold);
                let won = t.span("shapefn.hier_run", job, Some(root), |parent| {
                    let solver = TimedSolver { tracer: Arc::clone(tracer), job, parent };
                    HierPlacer::new(circuit)
                        .with_options(options)
                        .with_sub_solver(Box::new(solver))
                        .run()
                        .enumeration_won
                });
                out.hier_runs += 1;
                out.enumeration_won += u64::from(won);
            }
            PortfolioEngine::Deterministic => {
                t.span("shapefn.deterministic", job, Some(root), |_| {
                    black_box(DeterministicPlacer::new(circuit).run(ShapeModel::Enhanced));
                });
            }
            _ => {}
        }
    }
}

/// Kernel repetitions per span: enough work to time, bounded per job.
const KERNEL_MODULE_OPS: u64 = 200_000;
/// Delta-HPWL proposals timed per job.
const DELTA_OPS: u64 = 20_000;

/// `circuit.*` on every restart outcome, then the kernels on the circuit's
/// own dimensions with seeded trees and sequence pairs.
fn replay_circuit_and_kernels(
    t: &Tracer,
    circuit: &BenchmarkCircuit,
    outcomes: &[RestartOutcome],
    seed: u64,
    job: u64,
    root: u32,
) {
    let netlist = &circuit.netlist;
    for outcome in outcomes {
        t.span("circuit.metrics", job, Some(root), |_| {
            black_box(outcome.placement.metrics(netlist));
        });
        let rects: Vec<Rect> = outcome.placement.rects().collect();
        t.span("circuit.overlap_scan", job, Some(root), |_| {
            black_box(total_overlap_area(&rects));
        });
    }
    let n = netlist.module_count();
    if let Some(best) = outcomes.iter().min_by_key(|o| o.metrics.bounding_area) {
        delta_hpwl(t, netlist, &best.placement, n, job, root);
    }
    let dims = netlist.default_dims();
    let reps = (KERNEL_MODULE_OPS / n.max(1) as u64).max(1);

    let open = t.enter("kernel.contour_place", job, Some(root));
    for _ in 0..reps {
        let mut contour = Contour::new();
        let mut x = 0;
        for (i, d) in dims.iter().enumerate() {
            black_box(contour.place(x, d.w, d.h));
            x += if i % 3 == 0 { d.w / 2 } else { d.w };
        }
    }
    t.exit(open, reps * n as u64);

    let tree = BStarTree::balanced(&permutation(n, mix(seed, job, 11)));
    let mut scratch = PackScratch::new();
    let mut packed = PackedBTree::new();
    let open = t.enter("kernel.pack_btree", job, Some(root));
    for _ in 0..reps {
        pack_btree_into(&mut scratch, &tree, &dims, &mut packed);
        black_box(packed.area());
    }
    t.exit(open, reps);

    let sp = SequencePair::from_sequences(
        permutation(n, mix(seed, job, 12)),
        permutation(n, mix(seed, job, 13)),
    )
    .expect("two permutations of the same modules");
    let open = t.enter("kernel.pack_lcs", job, Some(root));
    for _ in 0..reps {
        black_box(pack_lcs(&sp, &dims));
    }
    t.exit(open, reps);
}

/// One-module proposals through `DeltaCost`: shift a module, evaluate, undo.
fn delta_hpwl(
    t: &Tracer,
    netlist: &apls_circuit::Netlist,
    placement: &Placement,
    n: usize,
    job: u64,
    root: u32,
) {
    let rect_of = |m: ModuleId| placement.get(m).map(|pm| pm.rect);
    let mut delta = DeltaCost::new(netlist.adjacency(), n);
    delta.begin();
    black_box(delta.refresh_all(rect_of));
    delta.commit();
    let open = t.enter("circuit.delta_hpwl", job, Some(root));
    for i in 0..DELTA_OPS {
        let m = ModuleId::from_index(i as usize % n);
        let shift = (i % 7) as i64 * 10 - 30;
        delta.begin();
        black_box(delta.delta_hpwl(&[m], |id| {
            let r = rect_of(id)?;
            Some(if id == m {
                Rect::new(r.x_min + shift, r.y_min, r.x_max + shift, r.y_max)
            } else {
                r
            })
        }));
        delta.undo();
    }
    t.exit(open, DELTA_OPS);
}

/// A seeded permutation of module ids `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<ModuleId> {
    let mut ids: Vec<ModuleId> = (0..n).map(ModuleId::from_index).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64, 0) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids
}

/// Cost of recording one span (enter + exit), in nanoseconds.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let tracer = Tracer::default();
    let start = Instant::now();
    for i in 0..N {
        tracer.span("calibration", i, None, |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.to_string(), job: 0, start_ns, end_ns, ops: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "job", 0, 100),
            span(1, Some(0), "solve", 10, 50),
            // overlapping siblings count once
            span(2, Some(0), "kernel", 40, 70),
            // a child running past its parent is clipped
            span(3, Some(0), "kernel", 90, 120),
            span(4, Some(1), "engine", 20, 30),
        ];
        let layers = reduce(&spans);
        assert_eq!(layers["job"].total_ns, 100);
        assert_eq!(layers["job"].self_ns, 100 - 60 - 10);
        assert_eq!(layers["solve"].self_ns, 30);
        assert_eq!(layers["engine"].self_ns, 10);
        assert_eq!(layers["kernel"].calls, 2);
        assert_eq!(layers["kernel"].total_ns, 60);
        assert_eq!(layers["kernel"].self_ns, 60);
    }

    #[test]
    fn tracer_nests_spans_by_parent() {
        let tracer = Tracer::default();
        tracer.span("outer", 3, None, |outer| {
            tracer.span("inner", 3, Some(outer), |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let layers = reduce(&spans);
        assert_eq!(layers["outer"].self_ns + layers["inner"].total_ns, layers["outer"].total_ns);
    }

    #[test]
    fn permutations_are_seeded() {
        let mut p = permutation(50, 9);
        assert_eq!(p, permutation(50, 9));
        assert_ne!(p, permutation(50, 10));
        p.sort();
        assert_eq!(p, (0..50).map(ModuleId::from_index).collect::<Vec<_>>());
    }
}
