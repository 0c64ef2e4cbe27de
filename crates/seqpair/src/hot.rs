//! The incremental sequence-pair evaluation hot path.
//!
//! [`HotSpEval`] reproduces the cost that [`crate::place::SymmetricPlacer`]
//! plus [`apls_circuit::Placement::hot_cost`] compute for a sequence-pair
//! — bit-identically — without building a [`apls_circuit::Placement`], a
//! [`crate::pack::PackedFloorplan`], or any other per-move allocation:
//!
//! * coordinates live in flat SoA `Vec<Coord>` arrays (one per axis, indexed
//!   by module), so the full legalisation sweeps are simple linear loops over
//!   primitive arrays that the optimiser can vectorise;
//! * the *base pack* (weighted-LCS, FAST-SP) is evaluated **incrementally**:
//!   a local move (swap / position swap) touches at most a handful of α
//!   positions, so the x sweep is replayed only from the smallest touched α
//!   position and the y sweep only up to the largest one, with the prefix
//!   state rebuilt in O(n) from the cached per-step insertions of the
//!   committed evaluation. A move with no undo record (or an invalidated
//!   cache) falls back to the full sweep — the same code path with the
//!   resweep window widened to the whole sequence;
//! * the symmetry legalisation replays the exact iterative-tightening /
//!   symmetry-island decision of `SymmetricPlacer::place`, sharing its
//!   kernels ([`crate::place::tighten_group_with`],
//!   [`crate::place::island_geometry`]) so the two code paths cannot drift;
//!   island internal geometry (and its local bounding box) is computed once
//!   per run and cached, and the per-member island assembly is deferred until
//!   a move actually selects the island construction;
//! * the islands are packed *first*: a bounded repack keeps every
//!   constraint-graph relation of the sequence pair, so the iterative result
//!   is at least as wide and as tall as the plain pack, and whenever the
//!   plain pack's area already exceeds the islands' the decision is settled
//!   without running the tightening loop at all;
//! * each bounded repack replays only the window a tightening pass can have
//!   changed: bounds are only ever raised above a module's current
//!   coordinate, so the x sweep restarts at the first raised α position and
//!   the y sweep at the last one, with the untouched prefix seeded from the
//!   current coordinates (the same trick as the base-pack resweep);
//! * wirelength is evaluated through [`DeltaCost`], which recomputes only
//!   the nets incident to modules whose final coordinates actually changed.
//!
//! The committed/proposal sweep caches are double-buffered: `commit` is a
//! buffer swap, rejection simply discards the proposal buffer (plus a
//! [`DeltaCost::undo`]), so rollback is O(touched nets).

use crate::pack::{LowerBounds, MaxFenwick};
use crate::place::{island_geometry, tighten_group_with, IslandGeometry};
use crate::SequencePair;
use apls_circuit::{ConstraintSet, DeltaCost, ModuleId, NetAdjacency};
use apls_geometry::{Coord, Dims, Rect};

/// Per-step state of the committed (or proposed) weighted-LCS sweeps, cached
/// so the next move can replay only the affected window.
#[derive(Debug, Clone, Default)]
struct SweepCache {
    /// β position of the module at α position `k` (at sweep time).
    bp: Vec<usize>,
    /// Value inserted into the x prefix structure at step `k` (`x + w`).
    vx: Vec<Coord>,
    /// Value inserted into the y prefix structure at step `k` of the reverse
    /// sweep (`y + h`).
    vy: Vec<Coord>,
    /// Base-pack coordinates, by module index.
    x0: Vec<Coord>,
    y0: Vec<Coord>,
}

impl SweepCache {
    fn ensure_len(&mut self, n: usize) {
        self.bp.resize(n, 0);
        self.vx.resize(n, 0);
        self.vy.resize(n, 0);
        self.x0.resize(n, 0);
        self.y0.resize(n, 0);
    }

    fn copy_from(&mut self, other: &SweepCache) {
        self.bp.clear();
        self.bp.extend_from_slice(&other.bp);
        self.vx.clear();
        self.vx.extend_from_slice(&other.vx);
        self.vy.clear();
        self.vy.extend_from_slice(&other.vy);
        self.x0.clear();
        self.x0.extend_from_slice(&other.x0);
        self.y0.clear();
        self.y0.extend_from_slice(&other.y0);
    }
}

/// Prefix-max structure for the weighted-LCS sweeps.
///
/// Coordinates are defined by the recurrence alone, so the structure is free
/// to pick whichever implementation is fastest: a flat array with linear
/// prefix scans for small sequences (the scans auto-vectorize and beat the
/// Fenwick constant by a wide margin up to well past typical analog sizes),
/// and a [`MaxFenwick`] above that for the O(n log n) asymptotics.
#[derive(Debug, Clone)]
struct SweepMax {
    vals: Vec<Coord>,
    fenwick: Option<MaxFenwick>,
}

impl SweepMax {
    /// Largest sequence length packed with linear prefix scans.
    const LINEAR_MAX: usize = 64;

    fn new(n: usize) -> Self {
        SweepMax { vals: vec![0; n], fenwick: (n > Self::LINEAR_MAX).then(|| MaxFenwick::new(n)) }
    }

    /// Starts a sweep over `n` positions with every prefix value zero.
    /// Positions may then be seeded via [`SweepMax::seed`]; call
    /// [`SweepMax::finish_seeding`] before the first query.
    fn begin(&mut self, n: usize) {
        self.vals.clear();
        self.vals.resize(n, 0);
    }

    /// Restores the cached insertion `v` at position `p` (bulk prefix replay).
    fn seed(&mut self, p: usize, v: Coord) {
        self.vals[p] = v;
    }

    fn finish_seeding(&mut self) {
        if let Some(f) = &mut self.fenwick {
            f.rebuild_from(&self.vals);
        }
    }

    /// Max over positions `[0, p)`, 0 when empty.
    fn prefix_max(&self, p: usize) -> Coord {
        match &self.fenwick {
            Some(f) => f.prefix_max(p),
            None => self.vals[..p].iter().copied().max().unwrap_or(0),
        }
    }

    fn update(&mut self, p: usize, v: Coord) {
        if let Some(f) = &mut self.fenwick {
            f.update(p, v);
        }
        let slot = &mut self.vals[p];
        if v > *slot {
            *slot = v;
        }
    }
}

/// How the evaluator scores a sequence-pair (mirrors
/// [`crate::anneal::SymmetryMode`] without borrowing the config).
#[derive(Debug, Clone, Copy)]
pub(crate) enum HotMode {
    /// Full symmetric legalisation (iterative tightening + island fallback).
    Exact,
    /// Plain packing plus `weight · symmetry_error`.
    Penalty {
        /// Cost weight of one doubled-dbu of symmetry error.
        weight: f64,
    },
}

/// Work counters of [`HotSpEval`]. Observe-only: no decision reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LegaliseCounts {
    /// Proposals scored.
    pub(crate) evaluations: u64,
    /// Legalisations the area bound settled for the islands without running
    /// the tightening loop.
    pub(crate) bound_prunes: u64,
    /// Tightening passes run.
    pub(crate) tighten_passes: u64,
    /// Bounded repacks run.
    pub(crate) repacks: u64,
}

impl std::ops::AddAssign for LegaliseCounts {
    fn add_assign(&mut self, other: Self) {
        self.evaluations += other.evaluations;
        self.bound_prunes += other.bound_prunes;
        self.tighten_passes += other.tighten_passes;
        self.repacks += other.repacks;
    }
}

/// Allocation-free, incrementally updated evaluator for the sequence-pair
/// annealing loop.
#[derive(Debug, Clone)]
pub(crate) struct HotSpEval<'a> {
    constraints: &'a ConstraintSet,
    dims: Vec<Dims>,
    n: usize,
    max_iterations: usize,
    mode: HotMode,
    wirelength_weight: f64,
    delta: DeltaCost,

    cur: SweepCache,
    prop: SweepCache,
    cache_valid: bool,

    sweep: SweepMax,

    // iterative-legalisation scratch
    bounds: LowerBounds,
    xi: Vec<Coord>,
    yi: Vec<Coord>,

    // symmetry islands: geometry cached per run (it only depends on the
    // groups, the dims and the member set, never on the encoding order)
    islands: Vec<IslandGeometry>,
    /// Local bounding box of each island's member rectangles.
    island_bbox: Vec<Rect>,
    module_to_island: Vec<Option<u32>>,
    reps: Vec<ModuleId>,
    outer_alpha: Vec<ModuleId>,
    outer_beta: Vec<ModuleId>,
    outer_beta_pos: Vec<usize>,
    outer_dims: Vec<Dims>,
    seen: Vec<bool>,
    ox: Vec<Coord>,
    oy: Vec<Coord>,
    isl_x: Vec<Coord>,
    isl_y: Vec<Coord>,
    // final (post-decision) coordinates of the open proposal
    fx: Vec<Coord>,
    fy: Vec<Coord>,

    counts: LegaliseCounts,
}

impl<'a> HotSpEval<'a> {
    pub(crate) fn new(
        constraints: &'a ConstraintSet,
        dims: Vec<Dims>,
        adjacency: NetAdjacency,
        initial_sp: &SequencePair,
        mode: HotMode,
        wirelength_weight: f64,
    ) -> Self {
        let n = dims.len();
        let max_iterations = 3 * n + 20;
        let mut islands = Vec::new();
        let mut island_bbox = Vec::new();
        let mut module_to_island: Vec<Option<u32>> = vec![None; n];
        for group in constraints.symmetry_groups() {
            let Some(geometry) = island_geometry(group, &dims, |m| initial_sp.contains(m)) else {
                continue;
            };
            let gi = u32::try_from(islands.len()).expect("island count fits in u32");
            for &m in &geometry.members {
                module_to_island[m.index()] = Some(gi);
            }
            let mut bbox = geometry.rects[0].1;
            for &(_, r) in &geometry.rects[1..] {
                bbox = bbox.union(&r);
            }
            island_bbox.push(bbox);
            islands.push(geometry);
        }
        let island_count = islands.len();
        HotSpEval {
            constraints,
            delta: DeltaCost::new(adjacency, n),
            n,
            max_iterations,
            mode,
            wirelength_weight,
            cur: SweepCache::default(),
            prop: SweepCache::default(),
            cache_valid: false,
            sweep: SweepMax::new(n),
            bounds: LowerBounds::empty(n),
            xi: vec![0; n],
            yi: vec![0; n],
            islands,
            island_bbox,
            module_to_island,
            reps: vec![ModuleId::from_index(0); island_count],
            outer_alpha: Vec::with_capacity(n),
            outer_beta: Vec::with_capacity(n),
            outer_beta_pos: vec![usize::MAX; n],
            outer_dims: dims.clone(),
            seen: vec![false; island_count],
            ox: vec![0; n],
            oy: vec![0; n],
            isl_x: vec![0; n],
            isl_y: vec![0; n],
            fx: vec![0; n],
            fy: vec![0; n],
            counts: LegaliseCounts::default(),
            dims,
        }
    }

    /// Work done so far (observe-only).
    pub(crate) fn counts(&self) -> LegaliseCounts {
        self.counts
    }

    /// Evaluates one proposal. `touched` lists the modules whose α/β
    /// positions may have changed since the last *committed* evaluation
    /// (duplicates allowed); pass `None` to force a full resweep.
    pub(crate) fn evaluate(&mut self, sp: &SequencePair, touched: Option<&[ModuleId]>) -> f64 {
        let n = self.n;
        debug_assert_eq!(sp.len(), n);
        self.counts.evaluations += 1;
        if n == 0 {
            self.delta.begin();
            let wl = self.delta.total();
            self.finish_initial_if_needed();
            return self.wirelength_weight * wl;
        }
        self.cur.ensure_len(n);
        self.prop.copy_from(&self.cur);

        // --- 1. base pack, incrementally resweeped --------------------------
        let window = match touched {
            Some(t) if self.cache_valid => {
                let mut lo = n;
                let mut hi = 0usize;
                for &m in t {
                    let p = sp.alpha_position(m);
                    lo = lo.min(p);
                    hi = hi.max(p);
                }
                if lo == n {
                    None // no-op move: the committed sweeps are still exact
                } else {
                    Some((lo, hi))
                }
            }
            _ => Some((0, n - 1)),
        };
        if let Some((s_min, s_max)) = window {
            let alpha = sp.alpha();
            // x sweep, replayed from s_min: restore the prefix state from the
            // cached insertions of steps 0..s_min in O(n).
            self.sweep.begin(n);
            for k in 0..s_min {
                self.sweep.seed(self.prop.bp[k], self.prop.vx[k]);
            }
            self.sweep.finish_seeding();
            for (k, &m) in alpha.iter().enumerate().skip(s_min) {
                let i = m.index();
                let bp = sp.beta_position(m);
                let start = self.sweep.prefix_max(bp);
                self.prop.x0[i] = start;
                self.prop.bp[k] = bp;
                self.prop.vx[k] = start + self.dims[i].w;
                self.sweep.update(bp, self.prop.vx[k]);
            }
            // y sweep runs in reverse α order, so its unchanged prefix is the
            // suffix s_max+1..n; replay down from s_max.
            self.sweep.begin(n);
            for k in (s_max + 1)..n {
                self.sweep.seed(self.prop.bp[k], self.prop.vy[k]);
            }
            self.sweep.finish_seeding();
            for k in (0..=s_max).rev() {
                let m = alpha[k];
                let i = m.index();
                let bp = self.prop.bp[k];
                let start = self.sweep.prefix_max(bp);
                self.prop.y0[i] = start;
                self.prop.vy[k] = start + self.dims[i].h;
                self.sweep.update(bp, self.prop.vy[k]);
            }
        }

        let mut plain_width: Coord = 0;
        let mut plain_height: Coord = 0;
        for &m in sp.alpha() {
            let i = m.index();
            plain_width = plain_width.max(self.prop.x0[i] + self.dims[i].w);
            plain_height = plain_height.max(self.prop.y0[i] + self.dims[i].h);
        }

        // --- 2. symmetry handling -------------------------------------------
        let cost = match self.mode {
            HotMode::Penalty { weight } => {
                self.fx.copy_from_slice(&self.prop.x0);
                self.fy.copy_from_slice(&self.prop.y0);
                let err = self.symmetry_error_of(sp, SymmetrySource::Final);
                self.hot_cost(sp) + weight * err as f64
            }
            HotMode::Exact => {
                if self.islands.is_empty() {
                    // No populated symmetry group: the first tightening pass
                    // changes nothing, and the island construction reduces to
                    // the identical plain packing, so the decision always
                    // keeps the base coordinates.
                    self.fx.copy_from_slice(&self.prop.x0);
                    self.fy.copy_from_slice(&self.prop.y0);
                } else {
                    self.legalise(sp, plain_width, plain_height);
                }
                self.hot_cost(sp)
            }
        };
        self.finish_initial_if_needed();
        cost
    }

    /// Accepts the open proposal: the proposal sweep cache becomes the
    /// committed one and the wirelength journal is dropped.
    pub(crate) fn commit(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.prop);
        self.delta.commit();
    }

    /// Rejects the open proposal: the wirelength caches roll back from the
    /// journal; the proposal sweep buffer is simply abandoned.
    pub(crate) fn rollback(&mut self) {
        self.delta.undo();
    }

    /// The very first evaluation scores the *current* state, not a proposal:
    /// promote it to committed immediately (the annealing driver only calls
    /// `commit`/`rollback` for proposals).
    fn finish_initial_if_needed(&mut self) {
        if !self.cache_valid {
            std::mem::swap(&mut self.cur, &mut self.prop);
            self.delta.commit();
            self.cache_valid = true;
        }
    }

    /// Replays `SymmetricPlacer::place` exactly: iterative tightening with
    /// bounded repacks, divergence guard, island fallback, compactness
    /// decision. Leaves the chosen coordinates in `fx`/`fy`.
    ///
    /// The islands are packed first. The plain pack starts at the origin, so
    /// its extents are the longest horizontal and vertical constraint-graph
    /// chains; every bounded repack keeps those relations, so the iterative
    /// result can be no narrower and no shorter. When the plain area already
    /// exceeds the islands' area, the iterative result would lose the
    /// compactness comparison (or not converge), and the tightening loop is
    /// skipped.
    fn legalise(&mut self, sp: &SequencePair, plain_width: Coord, plain_height: Coord) {
        self.build_outer(sp);
        let islands_area = self.islands_bbox_area();
        let use_iterative = if i128::from(plain_width) * i128::from(plain_height) > islands_area {
            self.counts.bound_prunes += 1;
            // Cross-check the bound against the loop it skips; the counters
            // describe the release path, so the replay leaves them alone.
            #[cfg(debug_assertions)]
            {
                let counts = self.counts;
                let converged = self.tighten(sp, plain_width);
                debug_assert!(
                    !self.iterative_wins(sp, converged, islands_area),
                    "area bound skipped a legalisation the tightening loop would have won"
                );
                self.counts = counts;
            }
            false
        } else {
            let converged = self.tighten(sp, plain_width);
            self.iterative_wins(sp, converged, islands_area)
        };
        if use_iterative {
            self.fx.copy_from_slice(&self.xi);
            self.fy.copy_from_slice(&self.yi);
        } else {
            self.assemble_islands();
            self.fx.copy_from_slice(&self.isl_x);
            self.fy.copy_from_slice(&self.isl_y);
        }
    }

    /// The iterative legalisation of `SymmetricPlacer::place` from the base
    /// pack into `xi`/`yi`; returns whether it converged.
    fn tighten(&mut self, sp: &SequencePair, plain_width: Coord) -> bool {
        let n = self.n;
        self.bounds.min_x.clear();
        self.bounds.min_x.resize(self.dims.len(), 0);
        self.bounds.min_y.clear();
        self.bounds.min_y.resize(self.dims.len(), 0);
        self.xi.copy_from_slice(&self.prop.x0[..n]);
        self.yi.copy_from_slice(&self.prop.y0[..n]);
        for it in 0..self.max_iterations {
            self.counts.tighten_passes += 1;
            let mut changed = false;
            for group in self.constraints.symmetry_groups() {
                let xi = &self.xi;
                let yi = &self.yi;
                let dims = &self.dims;
                changed |= tighten_group_with(
                    group,
                    &self.dims,
                    |m| {
                        if sp.contains(m) {
                            let i = m.index();
                            Some(Rect::new(xi[i], yi[i], xi[i] + dims[i].w, yi[i] + dims[i].h))
                        } else {
                            None
                        }
                    },
                    &mut self.bounds,
                );
            }
            if !changed {
                return true;
            }
            let (width, moved) = self.repack_with_bounds(sp);
            // Divergence guard: crossed-pair encodings can keep pushing each
            // other's mirror targets (see `SymmetricPlacer::place`).
            if width > 3 * plain_width.max(1) {
                return false;
            }
            // Tightening targets are a function of the coordinates alone, so a
            // repack that reproduced the current coordinates cannot raise any
            // bound on the next pass: it is guaranteed to report "unchanged".
            // Skipping that verification pass is exact as long as the cold
            // loop would still have had an iteration left to run it in.
            if !moved && it + 1 < self.max_iterations {
                return true;
            }
        }
        false
    }

    /// The compactness decision of `SymmetricPlacer::place`: keep the
    /// iterative result only if it converged to an exact mirror placement no
    /// larger than the islands.
    fn iterative_wins(&self, sp: &SequencePair, converged: bool, islands_area: i128) -> bool {
        converged
            && self.symmetry_error_of(sp, SymmetrySource::Iterative) == 0
            && self.bbox_area(sp, &self.xi, &self.yi) <= islands_area
    }

    /// Bounded weighted-LCS repack into `xi`/`yi`; returns the packed width
    /// and whether any coordinate differs from the previous `xi`/`yi`.
    /// Identical coordinates to `pack_with_bounds_constraint_graph` (same
    /// recurrence — see `pack_with_bounds_lcs`).
    ///
    /// `xi`/`yi` hold the previous repack (or the base pack), and a
    /// tightening pass raises a bound only above its module's current
    /// coordinate; every other module already sits at or above its bound. So
    /// the x sweep reproduces `xi` up to the first α position whose bound
    /// exceeds its coordinate and replays from there, with the prefix seeded
    /// from `xi + w`; the reverse-α y sweep likewise replays down from the
    /// last such position. An axis with no raised bound is already exact.
    fn repack_with_bounds(&mut self, sp: &SequencePair) -> (Coord, bool) {
        self.counts.repacks += 1;
        let n = self.n;
        let alpha = sp.alpha();
        let mut width: Coord = 0;
        let mut moved = false;
        // `prop.bp` already holds every module's β-position for this proposal
        // (written by the base-pack resweep, prefix copied from the committed
        // buffer), so the per-module β lookups can be plain array reads.
        let raised_x = |m: &ModuleId| self.bounds.min_x[m.index()] > self.xi[m.index()];
        let s_min = alpha.iter().position(raised_x).unwrap_or(n);
        self.sweep.begin(n);
        for (k, &m) in alpha[..s_min].iter().enumerate() {
            let i = m.index();
            let top = self.xi[i] + self.dims[i].w;
            width = width.max(top);
            self.sweep.seed(self.prop.bp[k], top);
        }
        if s_min < n {
            self.sweep.finish_seeding();
            for (k, &m) in alpha.iter().enumerate().skip(s_min) {
                let i = m.index();
                let bp = self.prop.bp[k];
                let start = self.bounds.min_x[i].max(self.sweep.prefix_max(bp));
                moved |= self.xi[i] != start;
                self.xi[i] = start;
                let top = start + self.dims[i].w;
                width = width.max(top);
                self.sweep.update(bp, top);
            }
        }
        let raised_y = |m: &ModuleId| self.bounds.min_y[m.index()] > self.yi[m.index()];
        if let Some(s_max) = alpha.iter().rposition(raised_y) {
            self.sweep.begin(n);
            for (k, &m) in alpha.iter().enumerate().skip(s_max + 1) {
                let i = m.index();
                self.sweep.seed(self.prop.bp[k], self.yi[i] + self.dims[i].h);
            }
            self.sweep.finish_seeding();
            for (k, &m) in alpha.iter().enumerate().take(s_max + 1).rev() {
                let i = m.index();
                let bp = self.prop.bp[k];
                let start = self.bounds.min_y[i].max(self.sweep.prefix_max(bp));
                moved |= self.yi[i] != start;
                self.yi[i] = start;
                self.sweep.update(bp, start + self.dims[i].h);
            }
        }
        (width, moved)
    }

    /// The reduction + outer pack of the symmetry-island construction over
    /// the cached island geometry: representative choice, outer sequence
    /// reduction, and one outer LCS pack into `ox`/`oy`.
    fn build_outer(&mut self, sp: &SequencePair) {
        // representative of each island = its member first in α
        for (gi, geometry) in self.islands.iter().enumerate() {
            self.reps[gi] = geometry
                .members
                .iter()
                .copied()
                .min_by_key(|m| sp.alpha_position(*m))
                .expect("non-empty island");
        }
        // outer sequences: islands collapse onto their representative
        self.outer_alpha.clear();
        self.seen.fill(false);
        for &m in sp.alpha() {
            match self.module_to_island[m.index()] {
                Some(gi) => {
                    if !self.seen[gi as usize] {
                        self.seen[gi as usize] = true;
                        self.outer_alpha.push(self.reps[gi as usize]);
                    }
                }
                None => self.outer_alpha.push(m),
            }
        }
        self.outer_beta.clear();
        self.seen.fill(false);
        for &m in sp.beta() {
            match self.module_to_island[m.index()] {
                Some(gi) => {
                    if !self.seen[gi as usize] {
                        self.seen[gi as usize] = true;
                        self.outer_beta.push(self.reps[gi as usize]);
                    }
                }
                None => self.outer_beta.push(m),
            }
        }
        // outer dims: the representative slot carries the island footprint
        self.outer_dims.clear();
        self.outer_dims.extend_from_slice(&self.dims);
        for (gi, geometry) in self.islands.iter().enumerate() {
            self.outer_dims[self.reps[gi].index()] = geometry.dims;
        }
        // outer pack (plain LCS over the reduced sequences)
        let outer_n = self.outer_alpha.len();
        for (p, &m) in self.outer_beta.iter().enumerate() {
            self.outer_beta_pos[m.index()] = p;
        }
        self.sweep.begin(outer_n);
        self.sweep.finish_seeding();
        for &m in &self.outer_alpha {
            let i = m.index();
            let bp = self.outer_beta_pos[i];
            let start = self.sweep.prefix_max(bp);
            self.ox[i] = start;
            self.sweep.update(bp, start + self.outer_dims[i].w);
        }
        self.sweep.begin(outer_n);
        self.sweep.finish_seeding();
        for &m in self.outer_alpha.iter().rev() {
            let i = m.index();
            let bp = self.outer_beta_pos[i];
            let start = self.sweep.prefix_max(bp);
            self.oy[i] = start;
            self.sweep.update(bp, start + self.outer_dims[i].h);
        }
    }

    /// Translates the cached island-local rectangles to their island origins;
    /// free modules take their outer coordinates directly. Requires
    /// [`HotSpEval::build_outer`] for the current proposal.
    fn assemble_islands(&mut self) {
        for &m in &self.outer_alpha {
            match self.module_to_island[m.index()] {
                Some(gi) => {
                    let geometry = &self.islands[gi as usize];
                    let (gx, gy) = (self.ox[m.index()], self.oy[m.index()]);
                    for &(member, local) in &geometry.rects {
                        self.isl_x[member.index()] = gx + local.x_min;
                        self.isl_y[member.index()] = gy + local.y_min;
                    }
                }
                None => {
                    self.isl_x[m.index()] = self.ox[m.index()];
                    self.isl_y[m.index()] = self.oy[m.index()];
                }
            }
        }
    }

    /// Bounding-box area the island construction would produce, from the
    /// outer pack and the cached per-island local bounding boxes — without
    /// materialising the per-member coordinates.
    fn islands_bbox_area(&self) -> i128 {
        let mut any = false;
        let mut min_x = Coord::MAX;
        let mut min_y = Coord::MAX;
        let mut max_x = Coord::MIN;
        let mut max_y = Coord::MIN;
        for &m in &self.outer_alpha {
            let i = m.index();
            let (lo_x, lo_y, hi_x, hi_y) = match self.module_to_island[i] {
                Some(gi) => {
                    let b = self.island_bbox[gi as usize];
                    (
                        self.ox[i] + b.x_min,
                        self.oy[i] + b.y_min,
                        self.ox[i] + b.x_max,
                        self.oy[i] + b.y_max,
                    )
                }
                None => (
                    self.ox[i],
                    self.oy[i],
                    self.ox[i] + self.dims[i].w,
                    self.oy[i] + self.dims[i].h,
                ),
            };
            min_x = min_x.min(lo_x);
            min_y = min_y.min(lo_y);
            max_x = max_x.max(hi_x);
            max_y = max_y.max(hi_y);
            any = true;
        }
        if !any {
            return i128::MAX;
        }
        i128::from(max_x - min_x) * i128::from(max_y - min_y)
    }

    /// Bounding-box area of the modules of `sp` at the given coordinates
    /// (matches `Placement::bounding_rect().area()`).
    fn bbox_area(&self, sp: &SequencePair, x: &[Coord], y: &[Coord]) -> i128 {
        let mut any = false;
        let mut min_x = Coord::MAX;
        let mut min_y = Coord::MAX;
        let mut max_x = Coord::MIN;
        let mut max_y = Coord::MIN;
        for &m in sp.alpha() {
            let i = m.index();
            min_x = min_x.min(x[i]);
            min_y = min_y.min(y[i]);
            max_x = max_x.max(x[i] + self.dims[i].w);
            max_y = max_y.max(y[i] + self.dims[i].h);
            any = true;
        }
        if !any {
            return i128::MAX;
        }
        i128::from(max_x - min_x) * i128::from(max_y - min_y)
    }

    /// `Placement::symmetry_error` over one of the coordinate sets.
    fn symmetry_error_of(&self, sp: &SequencePair, source: SymmetrySource) -> Coord {
        let (x, y) = match source {
            SymmetrySource::Iterative => (&self.xi, &self.yi),
            SymmetrySource::Final => (&self.fx, &self.fy),
        };
        self.constraints
            .symmetry_groups()
            .iter()
            .map(|g| {
                g.axis_error_with(|m| {
                    if sp.contains(m) {
                        let i = m.index();
                        Some((2 * x[i] + self.dims[i].w, 2 * y[i] + self.dims[i].h))
                    } else {
                        None
                    }
                })
            })
            .max()
            .unwrap_or(0)
    }

    /// `Placement::hot_cost` over the final coordinates, with the wirelength
    /// evaluated incrementally through [`DeltaCost`].
    fn hot_cost(&mut self, sp: &SequencePair) -> f64 {
        self.delta.begin();
        let mut min_x = Coord::MAX;
        let mut min_y = Coord::MAX;
        let mut max_x = Coord::MIN;
        let mut max_y = Coord::MIN;
        let mut any = false;
        for &m in sp.alpha() {
            let i = m.index();
            let rect = Rect::new(
                self.fx[i],
                self.fy[i],
                self.fx[i] + self.dims[i].w,
                self.fy[i] + self.dims[i].h,
            );
            min_x = min_x.min(rect.x_min);
            min_y = min_y.min(rect.y_min);
            max_x = max_x.max(rect.x_max);
            max_y = max_y.max(rect.y_max);
            any = true;
            self.delta.update(m, Some(rect));
        }
        let wirelength = self.delta.total();
        let area: i128 =
            if any { i128::from(max_x - min_x) * i128::from(max_y - min_y) } else { 0 };
        area as f64 + self.wirelength_weight * wirelength
    }
}

/// Which coordinate set a symmetry-error query reads.
#[derive(Debug, Clone, Copy)]
enum SymmetrySource {
    Iterative,
    Final,
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pack::pack_lcs;
    use crate::place::SymmetricPlacer;
    use crate::seq::SpUndoLog;
    use crate::symmetry::{canonical_symmetric_feasible, SymmetricMoveSet};
    use apls_anneal::rng::SeededRng;
    use apls_circuit::{Module, Netlist, SymmetryGroup};
    use proptest::prelude::*;

    fn id(i: usize) -> ModuleId {
        ModuleId::from_index(i)
    }

    /// A circuit whose nets give every module a wirelength stake: a chain of
    /// two-pin nets plus one net spanning everything.
    fn chain_netlist(dims: &[Dims]) -> Netlist {
        let mut nl = Netlist::new("prop");
        let ids: Vec<ModuleId> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| nl.add_module(Module::new(format!("m{i}"), d)))
            .collect();
        for w in ids.windows(2) {
            nl.add_net(format!("c{}", w[0].index()), [w[0], w[1]]);
        }
        if ids.len() >= 2 {
            nl.add_net("all", ids.clone());
        }
        nl
    }

    /// One scripted perturbation of the encoding (or the geometry).
    #[derive(Debug, Clone)]
    enum Step {
        /// Swap two α positions.
        SwapAlpha(usize, usize),
        /// Swap two β positions.
        SwapBeta(usize, usize),
        /// Swap two modules in both sequences.
        SwapBoth(usize, usize),
        /// Rotate one module (swap its width and height). Changes the dims
        /// the sweep caches were built over, so the evaluator must take the
        /// full-resweep fallback (`touched = None`).
        Rotate(usize),
    }

    type ArbCase = (Vec<Dims>, Vec<ModuleId>, Vec<ModuleId>, Vec<(Step, bool)>);

    fn arb_case() -> impl Strategy<Value = ArbCase> {
        (2usize..12).prop_flat_map(|n| {
            let perm = || {
                Just((0..n).collect::<Vec<usize>>())
                    .prop_shuffle()
                    .prop_map(|v| v.into_iter().map(id).collect::<Vec<ModuleId>>())
            };
            let step = (0u8..4, 0usize..n, 0usize..n, 0u8..2).prop_map(|(kind, i, j, acc)| {
                let step = match kind {
                    0 => Step::SwapAlpha(i, j),
                    1 => Step::SwapBeta(i, j),
                    2 => Step::SwapBoth(i, j),
                    _ => Step::Rotate(i),
                };
                (step, acc == 1)
            });
            (
                proptest::collection::vec((5i64..60, 5i64..60), n)
                    .prop_map(|v| v.into_iter().map(|(w, h)| Dims::new(w, h)).collect()),
                perm(),
                perm(),
                proptest::collection::vec(step, 1..30),
            )
        })
    }

    proptest! {
        /// The incremental evaluator's base pack equals `pack_lcs` — exact
        /// coordinates, exact cost — after arbitrary accepted/rejected
        /// swap/rotate sequences, including the full-resweep fallback that a
        /// dims change (rotation) forces.
        #[test]
        fn incremental_pack_matches_pack_lcs_under_swaps_and_rotations(
            (dims, alpha, beta, script) in arb_case()
        ) {
            let n = dims.len();
            let netlist = chain_netlist(&dims);
            let adjacency = NetAdjacency::new(&netlist);
            let constraints = ConstraintSet::new();
            let mut sp = SequencePair::from_sequences(alpha, beta).expect("same module set");
            let mut dims = dims;

            let mut eval = HotSpEval::new(
                &constraints,
                dims.clone(),
                adjacency.clone(),
                &sp,
                HotMode::Exact,
                0.5,
            );

            // Reference cost of the current encoding: a fresh `pack_lcs` and a
            // fresh full wirelength sweep every time.
            let reference = |sp: &SequencePair, dims: &[Dims], adj: &NetAdjacency| -> (Vec<Option<Rect>>, f64) {
                let fp = pack_lcs(sp, dims);
                let mut delta = DeltaCost::new(adj.clone(), dims.len());
                delta.begin();
                let wl = delta.refresh_all(|m| fp.rect_of(m));
                let mut bbox: Option<Rect> = None;
                for &(_, r) in fp.rects() {
                    bbox = Some(match bbox {
                        Some(b) => b.union(&r),
                        None => r,
                    });
                }
                let area = bbox.map_or(0i128, |b| b.area());
                let rects = (0..dims.len()).map(|i| fp.rect_of(id(i))).collect();
                (rects, area as f64 + 0.5 * wl)
            };

            // Initial evaluation (auto-commits inside the evaluator).
            let cost = eval.evaluate(&sp, None);
            let (rects, want) = reference(&sp, &dims, &adjacency);
            prop_assert_eq!(cost, want);
            for (i, r) in rects.iter().enumerate() {
                let r = r.expect("packed");
                prop_assert_eq!((eval.fx[i], eval.fy[i]), (r.x_min, r.y_min));
            }

            for (step, accept) in script {
                // Apply the proposal, remembering how to revert it.
                let touched: Option<Vec<ModuleId>> = match step {
                    Step::SwapAlpha(i, j) => {
                        let (a, b) = (sp.alpha()[i], sp.alpha()[j]);
                        sp.swap_in_alpha(i, j);
                        Some(vec![a, b])
                    }
                    Step::SwapBeta(i, j) => {
                        let (a, b) = (sp.beta()[i], sp.beta()[j]);
                        sp.swap_in_beta(i, j);
                        Some(vec![a, b])
                    }
                    Step::SwapBoth(i, j) => {
                        let (a, b) = (sp.alpha()[i], sp.alpha()[j]);
                        sp.swap_in_alpha(i, j);
                        let (bi, bj) = (sp.beta_position(a), sp.beta_position(b));
                        sp.swap_in_beta(bi, bj);
                        Some(vec![a, b])
                    }
                    Step::Rotate(i) => {
                        dims[i] = Dims::new(dims[i].h, dims[i].w);
                        eval.dims[i] = dims[i];
                        None // dims changed: the incremental window is invalid
                    }
                };

                let cost = eval.evaluate(&sp, touched.as_deref());
                let (rects, want) = reference(&sp, &dims, &adjacency);
                prop_assert_eq!(cost, want);
                for (i, r) in rects.iter().enumerate() {
                    let r = r.expect("packed");
                    prop_assert_eq!((eval.fx[i], eval.fy[i]), (r.x_min, r.y_min));
                }

                if accept {
                    eval.commit();
                } else {
                    eval.rollback();
                    // Revert the proposal (every step is an involution).
                    match step {
                        Step::SwapAlpha(i, j) => sp.swap_in_alpha(i, j),
                        Step::SwapBeta(i, j) => sp.swap_in_beta(i, j),
                        Step::SwapBoth(i, j) => {
                            let (a, b) = (sp.alpha()[i], sp.alpha()[j]);
                            sp.swap_in_alpha(i, j);
                            let (bi, bj) = (sp.beta_position(a), sp.beta_position(b));
                            sp.swap_in_beta(bi, bj);
                        }
                        Step::Rotate(i) => {
                            dims[i] = Dims::new(dims[i].h, dims[i].w);
                            eval.dims[i] = dims[i];
                        }
                    }
                }
            }
        }

        /// With symmetry groups present, the Exact-mode evaluator — islands
        /// first, area bound, windowed bounded repacks — reproduces the cold
        /// `SymmetricPlacer::place` coordinates and its `hot_cost` exactly,
        /// after arbitrary accepted/rejected swaps, symmetric-feasible moves
        /// and rotations of free modules, from arbitrary or canonical
        /// symmetric-feasible encodings.
        #[test]
        fn exact_legalisation_matches_the_cold_placer(
            (case, script) in arb_symmetric_case()
        ) {
            let SymCase { mut dims, constraints, alpha, beta, canonical } = case;
            let n = dims.len();
            let netlist = chain_netlist(&dims);
            let adjacency = NetAdjacency::new(&netlist);
            let mut sp = if canonical {
                canonical_symmetric_feasible(&(0..n).map(id).collect::<Vec<_>>(), &constraints)
            } else {
                SequencePair::from_sequences(alpha, beta).expect("same module set")
            };
            let free: Vec<usize> =
                (0..n).filter(|&i| constraints.symmetry_group_of(id(i)).is_none()).collect();
            let moves = SymmetricMoveSet::new(constraints.clone());
            let mut undo = SpUndoLog::default();

            let mut eval =
                HotSpEval::new(&constraints, dims.clone(), adjacency.clone(), &sp, HotMode::Exact, 0.5);
            let check = |eval: &HotSpEval<'_>, cost: f64, sp: &SequencePair, dims: &[Dims]| {
                let placement =
                    SymmetricPlacer::new(&netlist, &constraints).with_dims(dims.to_vec()).place(sp);
                prop_assert_eq!(cost, placement.hot_cost(&adjacency, 0.5));
                for i in 0..n {
                    let r = placement.get(id(i)).expect("placed").rect;
                    prop_assert_eq!((eval.fx[i], eval.fy[i]), (r.x_min, r.y_min), "module {}", i);
                }
            };

            let cost = eval.evaluate(&sp, None);
            check(&eval, cost, &sp, &dims);

            for (step, accept) in script {
                let touched: Option<Vec<ModuleId>> = match step {
                    SymStep::Swap(i, j) => {
                        let (a, b) = (sp.alpha()[i % n], sp.alpha()[j % n]);
                        sp.swap_in_alpha(i % n, j % n);
                        let (bi, bj) = (sp.beta_position(a), sp.beta_position(b));
                        sp.swap_in_beta(bi, bj);
                        Some(vec![a, b])
                    }
                    SymStep::SfMove(seed) => {
                        let mut rng = SeededRng::new(seed);
                        moves.perturb_logged_kind(&mut sp, &mut rng, &mut undo);
                        let mut touched = Vec::new();
                        undo.touched_modules(&sp, &mut touched);
                        Some(touched)
                    }
                    // Island geometry is cached per run from the member dims
                    // (the annealer never rotates), so only free modules turn.
                    SymStep::RotateFree(k) => {
                        if let Some(&i) = free.get(k % free.len().max(1)) {
                            dims[i] = Dims::new(dims[i].h, dims[i].w);
                            eval.dims[i] = dims[i];
                        }
                        None
                    }
                };

                let cost = eval.evaluate(&sp, touched.as_deref());
                check(&eval, cost, &sp, &dims);

                if accept {
                    eval.commit();
                } else {
                    eval.rollback();
                    match step {
                        SymStep::Swap(i, j) => {
                            let (a, b) = (sp.alpha()[i % n], sp.alpha()[j % n]);
                            sp.swap_in_alpha(i % n, j % n);
                            let (bi, bj) = (sp.beta_position(a), sp.beta_position(b));
                            sp.swap_in_beta(bi, bj);
                        }
                        SymStep::SfMove(_) => sp.undo(&mut undo),
                        SymStep::RotateFree(k) => {
                            if let Some(&i) = free.get(k % free.len().max(1)) {
                                dims[i] = Dims::new(dims[i].h, dims[i].w);
                                eval.dims[i] = dims[i];
                            }
                        }
                    }
                }
            }
        }
    }

    /// One scripted perturbation for the legalisation proptest.
    #[derive(Debug, Clone, Copy)]
    enum SymStep {
        /// Swap two modules (picked by α position) in both sequences.
        Swap(usize, usize),
        /// One symmetric-feasible move of [`SymmetricMoveSet`], seeded.
        SfMove(u64),
        /// Rotate the k-th module outside every symmetry group.
        RotateFree(usize),
    }

    /// A circuit with symmetry groups plus a starting encoding.
    #[derive(Debug, Clone)]
    struct SymCase {
        dims: Vec<Dims>,
        constraints: ConstraintSet,
        alpha: Vec<ModuleId>,
        beta: Vec<ModuleId>,
        /// Start from the canonical symmetric-feasible encoding instead.
        canonical: bool,
    }

    /// Modules `0..2p` form `p` pairs with matched dims, the next `s` are
    /// self-symmetric; pairs and cells are dealt round-robin over one or two
    /// groups; the remaining modules are free.
    fn arb_symmetric_case() -> impl Strategy<Value = (SymCase, Vec<(SymStep, bool)>)> {
        (3usize..12)
            .prop_flat_map(|n| {
                let perm = || {
                    Just((0..n).collect::<Vec<usize>>())
                        .prop_shuffle()
                        .prop_map(|v| v.into_iter().map(id).collect::<Vec<ModuleId>>())
                };
                let step = (0u8..3, 0usize..n, 0usize..n, 0u64..u64::MAX, 0u8..2).prop_map(
                    |(kind, i, j, seed, accept)| {
                        let step = match kind {
                            0 => SymStep::Swap(i, j),
                            1 => SymStep::SfMove(seed),
                            _ => SymStep::RotateFree(i),
                        };
                        (step, accept == 1)
                    },
                );
                (
                    (Just(n), 0usize..=n / 2, 0usize..=n, 1usize..=2),
                    proptest::collection::vec((4i64..40, 4i64..40), n),
                    (perm(), perm(), 0u8..2),
                    proptest::collection::vec(step, 1..25),
                )
            })
            .prop_map(
                |((n, pairs, selfs, group_count), sizes, (alpha, beta, canonical), script)| {
                    let canonical = canonical == 1;
                    let selfs = selfs.min(n - 2 * pairs);
                    let mut dims: Vec<Dims> =
                        sizes.into_iter().map(|(w, h)| Dims::new(w, h)).collect();
                    let mut groups: Vec<SymmetryGroup> =
                        (0..group_count).map(|g| SymmetryGroup::new(format!("g{g}"))).collect();
                    for k in 0..pairs {
                        dims[2 * k + 1] = dims[2 * k];
                        let g = &mut groups[k % group_count];
                        *g = g.clone().with_pair(id(2 * k), id(2 * k + 1));
                    }
                    for k in 0..selfs {
                        let g = &mut groups[(pairs + k) % group_count];
                        *g = g.clone().with_self_symmetric(id(2 * pairs + k));
                    }
                    let mut constraints = ConstraintSet::new();
                    for g in groups {
                        if !g.members().is_empty() {
                            constraints.add_symmetry_group(g);
                        }
                    }
                    (SymCase { dims, constraints, alpha, beta, canonical }, script)
                },
            )
    }
}
