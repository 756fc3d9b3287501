//! The obstacle-aware grid router.
//!
//! Where the paper's river router "cannot turn corners, and it ignores
//! objects in the path of the route", this module routes each net with
//! an A* maze search over a per-layer grid: the channel is rasterized
//! into node/edge blockage masks from the caller's obstacle rectangles
//! (queried through a per-layer [`SpatialIndex`], with a keep-out halo
//! of `width/2 + spacing` derived from the layer's design rule), and
//! the search walks `(layer, x, y)` states with Manhattan step costs, a
//! bend penalty, and a layer-change via cost. Layer changes emit real
//! contacts (`md`/`mp`/`bur` with their 4λ landing pads), so a grid
//! route can connect terminals on *different* layers and detour around
//! anything in the channel.
//!
//! Multi-net problems route **plan → negotiate**. Every net first
//! solves concurrently against the frozen obstacle-only grid (via
//! [`riot_geom::par::map_heavy`]); spacing-clean plans are the route.
//! Otherwise nets negotiate congestion, PathFinder-style (McMurchie &
//! Ebeling 1995): each round re-routes only the conflicting nets, one
//! at a time in net order, at `pres · occupancy + history` per grid
//! element other nets cover, with `pres` doubling and history growing
//! each round, until no net conflicts or the round cap reports the
//! channel unroutable. Plans are independent and re-routes ordered, so
//! the result is identical at any worker-thread count.
//!
//! The grid is **non-uniform**: node columns sit every
//! [`crate::RouterOptions::grid_pitch`] lambda *plus* a dedicated
//! column per terminal, so a coarse pitch never strands a pin. Edge
//! blockage is checked over the full span between adjacent columns,
//! keeping coarse grids exactly as safe as the 1λ default.
//!
//! All coordinates are channel-local lambda: the bottom edge is `y = 0`
//! (the *to* instance), the top edge is `y = height` (the *from*
//! instance), matching [`crate::river_route`].

use crate::error::RouteError;
use crate::river::{check_edge_spacing, spacing_lambda};
use crate::terminal::RouteProblem;
use riot_geom::{index::SpatialIndex, par, Layer, Path, Point, Rect};
use riot_sticks::ContactKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cost of one lambda of wire.
const COST_STEP: u64 = 2;
/// Extra cost when a net changes direction (fewer jogs, cleaner masks).
const COST_BEND: u64 = 3;
/// Cost of a layer change (a via costs area on both layers).
const COST_VIA: u64 = 40;
/// Deterministic per-net expansion cap: the search gives up (and the
/// net reports [`RouteError::Unroutable`]) rather than running forever.
const MAX_EXPANSIONS: u64 = 4_000_000;
/// Rip-up rounds a negotiation may run before the channel height is
/// declared unroutable.
const MAX_ROUNDS: u64 = 16;
/// Present-congestion cost per covering rect in the first negotiation
/// round; it doubles every round up to [`PRES_MAX`], which keeps every
/// path cost far inside `u64`.
const PRES_START: u64 = 2;
const PRES_MAX: u64 = 1 << 12;
/// Cost per round an element was found contested (its history).
const COST_HIST: u64 = 4;
/// Columns kept free beyond the terminal extent so detours can swing
/// around edge obstacles (added on top of the widest wire).
const X_SLACK: i64 = 8;
/// Half-extent of the x-window a net searches first, in lambda beyond
/// its own terminal span. Keeps per-net A* state small (and therefore
/// cache-resident under parallel planning); a net that cannot route
/// inside its window deterministically retries over the full channel.
const X_WINDOW: i64 = 32;

/// Minimum legal wire width on a layer in lambda (Mead & Conway: 3λ
/// metal, 2λ everything else) — a net narrower than this widens to the
/// floor on that layer so emitted masks stay DRC-clean.
fn min_width_lambda(layer: Layer) -> i64 {
    match layer {
        Layer::Metal => 3,
        _ => 2,
    }
}

/// The wire width a net actually uses on `layer`.
fn eff_width(width: i64, layer: Layer) -> i64 {
    width.max(min_width_lambda(layer))
}

/// Lifts a lambda-frame rectangle into the **half-lambda** clearance
/// frame. Mask emission inflates a width-`w` centerline by the
/// physical `w/2`, which is not a whole lambda when `w` is odd (the 3λ
/// metal floor is the common case) — so every clearance computation in
/// this module doubles its coordinates and works in exact half-lambda
/// integers: a width-`w` wire's edges sit exactly `w` half-lambdas
/// from its center, and the spacing rule on a layer is
/// `2 * spacing_lambda(layer)`.
fn phys(r: Rect) -> Rect {
    Rect::new(2 * r.x0, 2 * r.y0, 2 * r.x1, 2 * r.y1)
}

/// The contact kind joining two distinct routable layers.
fn via_kind(a: Layer, b: Layer) -> ContactKind {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match (lo, hi) {
        (Layer::Diffusion, Layer::Metal) => ContactKind::MetalDiffusion,
        (Layer::Poly, Layer::Metal) => ContactKind::MetalPoly,
        _ => ContactKind::Buried,
    }
}

/// A layer change on a routed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridVia {
    /// Cut center (channel-local lambda).
    pub position: Point,
    /// Which layers the contact joins.
    pub kind: ContactKind,
}

/// One grid-routed net: same-layer runs separated by vias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridWire {
    /// Net name (from the bottom terminal).
    pub name: String,
    /// Index of the net in the problem.
    pub net: usize,
    /// Requested width (max of the two terminal widths); each segment
    /// widens to its layer's minimum where needed.
    pub width: i64,
    /// Same-layer centerline runs, in bottom-to-top order. The width is
    /// the effective width on that segment's layer.
    pub segments: Vec<(Layer, i64, Path)>,
    /// Layer changes between consecutive segments.
    pub vias: Vec<GridVia>,
}

impl GridWire {
    /// The wire's start on the bottom channel edge.
    pub fn bottom_end(&self) -> Point {
        self.segments
            .first()
            .map_or(Point::new(0, 0), |s| s.2.start())
    }

    /// The wire's end on the top channel edge.
    pub fn top_end(&self) -> Point {
        self.segments.last().map_or(Point::new(0, 0), |s| s.2.end())
    }

    /// Every mask rectangle the net paints on routable layers, in
    /// **half-lambda** coordinates (exact physical extents): one rect
    /// per path segment inflated by its full width — a width-`w` wire's
    /// edges sit `w/2` lambda, i.e. `w` half-lambdas, from the
    /// centerline — plus the 4λ via landing pads on both joined layers.
    /// (Cut/buried boxes are concentric and strictly inside the pads'
    /// design-rule shadow, so they never add constraints.)
    pub fn rects(&self) -> Vec<(Layer, Rect)> {
        let mut out = Vec::new();
        for (layer, w, path) in &self.segments {
            for (a, b) in path.segments() {
                out.push((*layer, phys(Rect::from_points(a, b)).inflated(*w)));
            }
        }
        for v in &self.vias {
            let pad = phys(Rect::from_center(v.position, 0, 0)).inflated(4);
            let (a, b) = v.kind.layers();
            out.push((a, pad));
            out.push((b, pad));
        }
        out
    }
}

/// Solver counters for one [`grid_route`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// A* states popped across every net (including re-routes).
    pub expansions: u64,
    /// Total vias placed.
    pub vias: u64,
    /// Nets found violating spacing against another net, summed over
    /// the negotiation rounds (0 when the plans are already clean).
    pub conflicts: u64,
    /// Rip-up re-routes run to resolve those conflicts.
    pub retries: u64,
    /// Negotiation rounds: passes that ripped up and re-routed every
    /// conflicting net (see [`MAX_ROUNDS`]).
    pub restarts: u64,
}

/// A completed grid route across one channel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRoute {
    wires: Vec<GridWire>,
    height: i64,
    stats: GridStats,
    plan_expansions: Vec<u64>,
}

impl GridRoute {
    /// The routed nets, one per net, in problem order.
    pub fn wires(&self) -> &[GridWire] {
        &self.wires
    }

    /// Channel height in lambda (distance between the two edges).
    pub fn height(&self) -> i64 {
        self.height
    }

    /// Solver counters (expansions, vias, conflicts, retries).
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Per-net A* expansion counts from the concurrent plan phase
    /// (before any conflict re-route), in net order. Identical at any
    /// worker-thread count, so benchmarks use them as a deterministic
    /// work model: total work over the heaviest worker chunk is the
    /// parallelism the plan phase exposes, independent of how many
    /// cores the measuring host happens to have.
    pub fn plan_expansions(&self) -> &[u64] {
        &self.plan_expansions
    }
}

/// Checks a finished grid route for spacing violations: every pair of
/// rects from *different* nets, and every net rect against every
/// obstacle, must keep the layer's design-rule spacing (a net's own
/// geometry is contiguous and exempt, exactly as DRC merges connected
/// components). Obstacles are lambda-frame rects; the check runs in
/// the exact half-lambda frame.
///
/// # Errors
///
/// A human-readable description of the first violation (coordinates in
/// half-lambda).
pub fn verify_clearance(route: &GridRoute, obstacles: &[(Layer, Rect)]) -> Result<(), String> {
    let mut rects: Vec<(usize, Layer, Rect)> = owned_rects(route.wires.iter().map(GridWire::rects));
    rects.extend(obstacles.iter().map(|&(l, r)| (OBSTACLE, l, phys(r))));
    let mut first = Ok(());
    spacing_violations(&rects, |&(a, layer, ra), &(b, _, rb)| {
        first = Err(if b == OBSTACLE {
            format!(
                "net {} violates {layer} spacing against an obstacle (half-lambda): {ra} vs {rb}",
                route.wires[a].name
            )
        } else {
            format!(
                "nets {} and {} violate {layer} spacing (half-lambda): {ra} vs {rb}",
                route.wires[a].name, route.wires[b].name
            )
        });
        false
    });
    first
}

/// Owner tag of obstacle rects in [`spacing_violations`].
const OBSTACLE: usize = usize::MAX;

/// Tags each net's rects with the net's index.
fn owned_rects(nets: impl Iterator<Item = Vec<(Layer, Rect)>>) -> Vec<(usize, Layer, Rect)> {
    nets.enumerate()
        .flat_map(|(i, rects)| rects.into_iter().map(move |(l, r)| (i, l, r)))
        .collect()
}

/// Visits every pair of same-layer **half-lambda** rects with different
/// owners that violates the layer's spacing rule (two obstacles are
/// exempt) in one sort-and-sweep along x: a channel is long and thin, so
/// this beats a square-bucketed [`SpatialIndex`], which files each
/// crossing wire in every row. Pairs arrive as `(earlier, later)` in
/// slice order; `hit` returns `false` to stop.
fn spacing_violations(
    rects: &[(usize, Layer, Rect)],
    mut hit: impl FnMut(&(usize, Layer, Rect), &(usize, Layer, Rect)) -> bool,
) {
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_unstable_by_key(|&i| rects[i].2.x0);
    for (k, &i) in order.iter().enumerate() {
        let (a, s2) = (&rects[i], 2 * spacing_lambda(rects[i].1));
        for &j in order[k + 1..]
            .iter()
            .take_while(|&&j| rects[j].2.x0 - a.2.x1 < s2)
        {
            let b = &rects[j];
            let close = (b.2.y0 - a.2.y1).max(a.2.y0 - b.2.y1) < s2;
            if close && b.1 == a.1 && b.0 != a.0 && !(a.0 == OBSTACLE && b.0 == OBSTACLE) {
                let (first, second) = if i < j { (a, b) } else { (b, a) };
                if !hit(first, second) {
                    return;
                }
            }
        }
    }
}

/// Nets whose wires violate spacing against another net's, ascending.
fn contested(nets: &[Vec<(Layer, Rect)>]) -> Vec<usize> {
    let mut hit = vec![false; nets.len()];
    spacing_violations(&owned_rects(nets.iter().cloned()), |a, b| {
        hit[a.0] = true;
        hit[b.0] = true;
        true
    });
    (0..nets.len()).filter(|&i| hit[i]).collect()
}

/// One net's search inputs.
struct Spec {
    net: usize,
    name: String,
    width: i64,
    blayer: usize,
    tlayer: usize,
    bxi: usize,
    txi: usize,
}

/// A terminal keep-out: the vertical escape column reserved for one
/// net at its terminal. Other nets' searches must keep design-rule
/// spacing from it, so no other net can seal the terminal against the
/// channel edge; the owning net is exempt (the stub *is* its access
/// path). `x` is the lambda-frame column, `rect` the half-lambda
/// extent of a full-width wire along the stub.
struct Stub {
    x: i64,
    rect: Rect,
    layer: usize,
    owner: usize,
}

/// Per-(layer, width) values over the grid nodes plus the horizontal
/// and vertical edges between adjacent grid lines (edges cover their
/// full span, so coarse pitches stay safe).
struct Planes<T> {
    node: Vec<T>,
    hedge: Vec<T>,
    vedge: Vec<T>,
}

/// Obstacle blockage for one `(layer, width)`.
type Mask = Planes<bool>;

impl<T: Copy + Default> Planes<T> {
    /// Planes over an `nx × ny` grid; the node or the edge planes can be
    /// left empty where nothing reads them.
    fn new(nx: usize, ny: usize, nodes: bool, edges: bool) -> Self {
        let plane = |on: bool, n: usize| vec![T::default(); if on { n } else { 0 }];
        Planes {
            node: plane(nodes, nx * ny),
            hedge: plane(edges, (nx - 1) * ny),
            vedge: plane(edges, nx * (ny - 1)),
        }
    }
}

/// The rasterized channel: non-uniform axes and per-(layer, width)
/// blockage masks. Via pads share the `(layer, 4)` masks — a 4λ pad's
/// half-extent is exactly 4 half-lambdas — so those keys always exist.
struct Grid {
    xs: Vec<i64>,
    ys: Vec<i64>,
    height: i64,
    /// Keyed by `(layer index, width)`; few entries, linear scan.
    masks: Vec<((usize, i64), Mask)>,
    /// Terminal keep-outs, sorted by `x`.
    stubs: Vec<Stub>,
    /// Max x-distance (half-lambda) at which a stub can still matter.
    stub_reach: i64,
}

impl Grid {
    /// Per routable layer, the mask index a net's wires use and the
    /// one its via pads use.
    fn keys(&self, spec: &Spec) -> ([usize; 3], [usize; 3]) {
        let key = |li: usize, w: i64| {
            self.masks
                .iter()
                .position(|((l, mw), _)| *l == li && *mw == w)
                .expect("mask prebuilt for every (layer, width) a net can use")
        };
        (
            std::array::from_fn(|li| key(li, eff_width(spec.width, layer_of(li)))),
            std::array::from_fn(|li| key(li, 4)),
        )
    }

    /// Whether painting `rect` (half-lambda frame) on `layer` would
    /// violate spacing against another net's terminal keep-out.
    fn stub_blocked(&self, owner: usize, layer: usize, rect: Rect) -> bool {
        let lo = self
            .stubs
            .partition_point(|st| 2 * st.x < rect.x0 - self.stub_reach);
        let s2 = 2 * spacing_lambda(layer_of(layer));
        self.stubs[lo..]
            .iter()
            .take_while(|st| 2 * st.x <= rect.x1 + self.stub_reach)
            .filter(|st| st.owner != owner && st.layer == layer)
            .any(|st| {
                let r = st.rect;
                (r.x0 - rect.x1).max(rect.x0 - r.x1) < s2
                    && (r.y0 - rect.y1).max(rect.y0 - r.y1) < s2
            })
    }
}

/// One cell's negotiation state: how many net rects cover it, and in
/// how many rip-ups a ripped-up net's path used it while others did too.
#[derive(Clone, Copy, Default)]
struct Load {
    occ: u8,
    hist: u8,
}

/// Negotiation state, allocated only when planned wires conflict: one
/// [`Load`] plane per obstacle mask, over the same cells, plus the
/// present-congestion factor of the round. Counts saturate: they only
/// price the search, and conflicts are always decided on exact rects.
struct Congestion {
    loads: Vec<Planes<Load>>,
    pres: u64,
}

impl Congestion {
    /// Applies `f` to every cell that one of a net's `rects`
    /// (half-lambda frame) covers, in every plane of the rect's layer.
    fn visit(&mut self, grid: &Grid, rects: &[(Layer, Rect)], f: impl Fn(&mut Load)) {
        for &(layer, rect) in rects {
            let (li, s2) = (layer_idx(layer), 2 * spacing_lambda(layer));
            for (((l, w), _), planes) in grid.masks.iter().zip(&mut self.loads) {
                if *l == li {
                    cover(planes, &grid.xs, &grid.ys, rect, *w, s2, &f);
                }
            }
        }
    }

    /// Grows the history of every cell a ripped-up net's `path` used
    /// that other nets still occupy: the cells [`astar`] prices.
    fn remember(&mut self, grid: &Grid, spec: &Spec, path: &[(usize, Point)]) {
        let (wkeys, vkeys) = grid.keys(spec);
        let nx = grid.xs.len();
        let bump = |c: &mut Load| c.hist = c.hist.saturating_add(u8::from(c.occ > 0));
        for step in path.windows(2) {
            let ((la, a), (lb, b)) = (step[0], step[1]);
            let xi = grid.xs.partition_point(|&x| x < a.x.min(b.x));
            let yj = grid.ys.partition_point(|&y| y < a.y.min(b.y));
            let n = yj * nx + xi;
            if la != lb {
                bump(&mut self.loads[vkeys[la]].node[n]);
                bump(&mut self.loads[vkeys[lb]].node[n]);
            } else if a.y == b.y {
                bump(&mut self.loads[wkeys[la]].hedge[yj * (nx - 1) + xi]);
            } else {
                bump(&mut self.loads[wkeys[la]].vedge[n]);
            }
        }
    }
}

/// The negotiation price `pres · occupancy + history` of the cell
/// `pick` selects from load plane `k`; 0 while planning.
fn toll(cong: Option<&Congestion>, k: usize, pick: impl Fn(&Planes<Load>) -> Load) -> u64 {
    cong.map_or(0, |c| {
        let load = pick(&c.loads[k]);
        c.pres * u64::from(load.occ) + COST_HIST * u64::from(load.hist)
    })
}

fn layer_of(idx: usize) -> Layer {
    Layer::ROUTABLE[idx]
}

fn layer_idx(layer: Layer) -> usize {
    Layer::ROUTABLE
        .iter()
        .position(|&l| l == layer)
        .unwrap_or(0)
}

/// Builds the sorted, deduped coordinate axis: every multiple of
/// `pitch` across `[lo, hi]` plus each required coordinate.
fn axis(lo: i64, hi: i64, pitch: i64, required: impl IntoIterator<Item = i64>) -> Vec<i64> {
    let mut xs: Vec<i64> = Vec::new();
    let mut x = lo;
    while x < hi {
        xs.push(x);
        x += pitch;
    }
    xs.push(hi);
    xs.extend(required);
    xs.sort_unstable();
    xs.dedup();
    xs
}

/// Visits every element of `planes` that a wire of full width `w`
/// cannot use without violating spacing against rect `r` (half-lambda
/// frame). The covered band on each axis is the open interval
/// `(r.lo - s2 - w, r.hi + s2 + w)` in half-lambda: a wire center
/// (lambda coordinate `x`, physical edges at `2x ± w`) inside it has an
/// axis gap `< s2` to the rect, the DRC spacing predicate.
fn cover<T>(
    planes: &mut Planes<T>,
    xs: &[i64],
    ys: &[i64],
    r: Rect,
    w: i64,
    s2: i64,
    f: impl Fn(&mut T),
) {
    let nx = xs.len();
    let (xlo, xhi) = (r.x0 - s2 - w, r.x1 + s2 + w);
    let (ylo, yhi) = (r.y0 - s2 - w, r.y1 + s2 + w);
    let ia = xs.partition_point(|&x| 2 * x <= xlo);
    let ib = xs.partition_point(|&x| 2 * x < xhi);
    let ja = ys.partition_point(|&y| 2 * y <= ylo);
    let jb = ys.partition_point(|&y| 2 * y < yhi);
    // Runs of one row; a plane left empty is skipped.
    let run = |plane: &mut Vec<T>, cells| plane.get_mut(cells).into_iter().flatten().for_each(&f);
    for j in ja..jb {
        run(&mut planes.node, j * nx + ia..j * nx + ib);
        // Horizontal edges whose covered span [2*xs[i]-w, 2*xs[i+1]+w]
        // overlaps the rect's inflated x-range.
        let e = j * (nx - 1);
        run(
            &mut planes.hedge,
            e + ia.saturating_sub(1)..e + ib.min(nx - 1),
        );
    }
    // Vertical edges: the y-span test loosens by one row on each side.
    for j in ja.saturating_sub(1)..jb.min(ys.len() - 1) {
        run(&mut planes.vedge, j * nx + ia..j * nx + ib);
    }
}

fn build_grid(
    problem: &RouteProblem,
    obstacles: &[(Layer, Rect)],
    height: i64,
) -> Result<Grid, RouteError> {
    let pitch = problem.options.grid_pitch;
    let offsets = || problem.bottom.iter().chain(&problem.top).map(|t| t.offset);
    let wmax = problem
        .bottom
        .iter()
        .chain(&problem.top)
        .fold(2, |w, t| w.max(t.width));
    let (xlo, xhi) = (offsets().min().unwrap_or(0), offsets().max().unwrap_or(0));
    let slack = X_SLACK + wmax;
    let xs = axis(xlo - slack, xhi + slack, pitch, offsets());
    let ys = axis(0, height.max(1), pitch, [0, height.max(1)]);
    let (nx, ny) = (xs.len(), ys.len());

    // Per-layer obstacle indexes (the rasterizer queries these).
    let indexes: Vec<SpatialIndex> = Layer::ROUTABLE
        .iter()
        .map(|&l| {
            let rects: Vec<Rect> = obstacles.iter().filter(|o| o.0 == l).map(|o| o.1).collect();
            SpatialIndex::build(&rects)
        })
        .collect();

    // Every (layer, width) combination any net can occupy, plus the
    // `(layer, 4)` keys the via-pad checks read (a 4λ pad's half-extent
    // is 2λ = 4 half-lambdas, the same clearance profile as a width-4
    // wire). Rasterization is the serial prologue to the parallel plan
    // phase, so the handful of independent masks build on the worker
    // pool too.
    let mut keys: Vec<(usize, i64)> = (0..Layer::ROUTABLE.len()).map(|li| (li, 4)).collect();
    for (b, t) in problem.bottom.iter().zip(&problem.top) {
        let w = b.width.max(t.width);
        for li in 0..Layer::ROUTABLE.len() {
            let key = (li, eff_width(w, layer_of(li)));
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    let window = Rect::new(xs[0], ys[0], xs[nx - 1], ys[ny - 1]);
    let built = par::map_heavy(&keys, |&(li, w)| {
        let s2 = 2 * spacing_lambda(layer_of(li));
        let mut mask = Mask::new(nx, ny, true, true);
        for id in indexes[li].query(window.inflated((w + s2 + 1) / 2)) {
            let r = phys(indexes[li].rect(id));
            cover(&mut mask, &xs, &ys, r, w, s2, |b| *b = true);
        }
        mask
    });
    let masks = keys.into_iter().zip(built).collect();

    // Terminal keep-outs: reserve a vertical escape column per terminal
    // so no net can seal another's terminal against a channel edge. The
    // stub is long enough that a via escaping over a run hugging its
    // tip still fits (pad + spacing + the widest crossing wire).
    let h = height.max(1);
    let wmax_eff = wmax.max(3);
    let stub_len = (wmax_eff + 7).min(h);
    let mut stubs: Vec<Stub> = Vec::new();
    for (i, (b, t)) in problem.bottom.iter().zip(&problem.top).enumerate() {
        let stub = |x: i64, layer: Layer, y0: i64, y1: i64| Stub {
            x,
            rect: phys(Rect::new(x, y0, x, y1)).inflated(eff_width(b.width.max(t.width), layer)),
            layer: layer_idx(layer),
            owner: i,
        };
        stubs.push(stub(b.offset, b.layer, 0, stub_len));
        stubs.push(stub(t.offset, t.layer, (h - stub_len).max(0), h));
    }
    stubs.sort_unstable_by_key(|st| st.x);

    Ok(Grid {
        xs,
        ys,
        height: h,
        masks,
        stubs,
        // A stub's clearance field reaches `w + s2` half-lambdas from
        // its center; bound with the widest wire and widest rule.
        stub_reach: wmax_eff + 6,
    })
}

/// Directions a state can be entered with (for the bend penalty).
const DIR_NONE: u8 = 0;
const DIR_X: u8 = 1;
const DIR_Y: u8 = 2;
const DIR_VIA: u8 = 3;

/// The columns of `spec`'s windowed search: its terminal span widened
/// by [`X_WINDOW`] on each side, clipped to the channel.
fn net_window(grid: &Grid, spec: &Spec) -> (usize, usize) {
    let (a, b) = (grid.xs[spec.bxi], grid.xs[spec.txi]);
    let clo = grid.xs.partition_point(|&x| x < a.min(b) - X_WINDOW);
    let chi = grid.xs.partition_point(|&x| x <= a.max(b) + X_WINDOW) - 1;
    (clo, chi)
}

/// Routes one net: a windowed A* around the net's own terminal span
/// first (small state, cache-resident under parallel planning), then a
/// deterministic full-channel retry if the window has no path. With
/// `cong`, moves also pay its congestion prices. The expansion count
/// covers both searches when the retry runs.
fn route_net(
    grid: &Grid,
    spec: &Spec,
    cong: Option<&Congestion>,
) -> Result<(Vec<(usize, Point)>, u64), RouteError> {
    let (clo, chi) = net_window(grid, spec);
    let (found, windowed) = astar(grid, spec, clo, chi, cong);
    match found {
        Ok(path) => Ok((path, windowed)),
        Err(_) if clo > 0 || chi + 1 < grid.xs.len() => {
            let (found, full) = astar(grid, spec, 0, grid.xs.len() - 1, cong);
            found.map(|path| (path, windowed + full))
        }
        Err(e) => Err(e),
    }
}

/// A* maze search for one net over the rasterized grid, restricted to
/// columns `clo..=chi`. Returns the `(layer, point)` node sequence from
/// the bottom terminal to the top terminal, or
/// [`RouteError::Unroutable`] when no path exists inside the window,
/// together with the number of expansions either way. Obstacles and
/// other nets' terminal keep-outs block; other nets' wires, under
/// negotiation, only cost.
fn astar(
    grid: &Grid,
    spec: &Spec,
    clo: usize,
    chi: usize,
    cong: Option<&Congestion>,
) -> (Result<Vec<(usize, Point)>, RouteError>, u64) {
    let (nx, ny) = (grid.xs.len(), grid.ys.len());
    let wnx = chi - clo + 1;
    let nodes = wnx * ny;
    let states = Layer::ROUTABLE.len() * nodes;
    let unroutable = RouteError::Unroutable { net: spec.net };

    let (wkeys, vkeys) = grid.keys(spec);
    let wmasks = wkeys.map(|k| &grid.masks[k].1);
    let vmasks = vkeys.map(|k| &grid.masks[k].1);

    let start = spec.blayer * nodes + (spec.bxi - clo);
    let goal = spec.tlayer * nodes + (ny - 1) * wnx + (spec.txi - clo);
    let goal_x = grid.xs[spec.txi];

    if wmasks[spec.blayer].node[spec.bxi] || wmasks[spec.tlayer].node[(ny - 1) * nx + spec.txi] {
        return (Err(unroutable), 0);
    }

    let h = |state: usize| -> u64 {
        let li = state / nodes;
        let n = state % nodes;
        let (xi, yj) = (clo + n % wnx, n / wnx);
        let dist = (grid.xs[xi] - goal_x).unsigned_abs() + (grid.height - grid.ys[yj]) as u64;
        dist * COST_STEP + if li != spec.tlayer { COST_VIA } else { 0 }
    };

    let mut g: Vec<u64> = vec![u64::MAX; states];
    let mut came: Vec<u32> = vec![u32::MAX; states];
    let mut dir: Vec<u8> = vec![DIR_NONE; states];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    g[start] = 0;
    came[start] = start as u32;
    heap.push(Reverse((h(start), start as u32)));

    let mut expansions: u64 = 0;
    while let Some(Reverse((f, state))) = heap.pop() {
        let state = state as usize;
        if f != g[state].saturating_add(h(state)) {
            continue; // stale entry
        }
        if state == goal {
            break;
        }
        expansions += 1;
        if expansions > MAX_EXPANSIONS {
            return (Err(unroutable), expansions);
        }

        let li = state / nodes;
        let n = state % nodes;
        let (ci, yj) = (n % wnx, n / wnx);
        let xi = clo + ci;
        let gn = yj * nx + xi;
        let mask = wmasks[li];
        let din = dir[state];
        let bend = |d: u8| COST_BEND * u64::from(din != DIR_NONE && din != DIR_VIA && d != din);
        let mut relax = |next: usize, cost: u64, d: u8| {
            let t = g[state] + cost;
            if t < g[next] {
                g[next] = t;
                came[next] = state as u32;
                dir[next] = d;
                heap.push(Reverse((t + h(next), next as u32)));
            }
        };

        // Axis moves: blocked edges carry the full span between
        // columns, and the swept wire rect (half-lambda frame) must
        // clear other nets' terminal keep-outs.
        let p = Point::new(grid.xs[xi], grid.ys[yj]);
        let he = yj * (nx - 1) + xi;
        for (d, e, xj, yk, next) in [
            (ci + 1 < wnx).then(|| (DIR_X, he, xi + 1, yj, state + 1)),
            (ci > 0).then(|| (DIR_X, he - 1, xi - 1, yj, state - 1)),
            (yj + 1 < ny).then(|| (DIR_Y, gn, xi, yj + 1, state + wnx)),
            (yj > 0).then(|| (DIR_Y, gn - nx, xi, yj - 1, state - wnx)),
        ]
        .into_iter()
        .flatten()
        {
            let horizontal = d == DIR_X;
            let q = Point::new(grid.xs[xj], grid.ys[yk]);
            let swept = phys(Rect::from_points(p, q)).inflated(eff_width(spec.width, layer_of(li)));
            if (horizontal && mask.hedge[e])
                || (!horizontal && mask.vedge[e])
                || grid.stub_blocked(spec.net, li, swept)
            {
                continue;
            }
            let load = |l: &Planes<Load>| if horizontal { l.hedge[e] } else { l.vedge[e] };
            let cost = (q.x - p.x + q.y - p.y).unsigned_abs() * COST_STEP
                + bend(d)
                + toll(cong, wkeys[li], load);
            relax(next, cost, d);
        }

        // Layer change: the 4λ landing pads must clear obstacles and
        // keep-outs on both layers and fit inside the channel.
        let pad = phys(Rect::from_center(p, 0, 0)).inflated(4);
        if p.y >= 2
            && p.y <= grid.height - 2
            && !vmasks[li].node[gn]
            && !grid.stub_blocked(spec.net, li, pad)
        {
            for l2 in 0..Layer::ROUTABLE.len() {
                if l2 != li
                    && !vmasks[l2].node[gn]
                    && !wmasks[l2].node[gn]
                    && !grid.stub_blocked(spec.net, l2, pad)
                {
                    let cost = COST_VIA
                        + toll(cong, vkeys[li], |p| p.node[gn])
                        + toll(cong, vkeys[l2], |p| p.node[gn]);
                    relax(l2 * nodes + n, cost, DIR_VIA);
                }
            }
        }
    }

    if g[goal] == u64::MAX {
        return (Err(unroutable), expansions);
    }
    let mut path = Vec::new();
    let mut state = goal;
    loop {
        let li = state / nodes;
        let n = state % nodes;
        path.push((li, Point::new(grid.xs[clo + n % wnx], grid.ys[n / wnx])));
        if state == start {
            break;
        }
        state = came[state] as usize;
    }
    path.reverse();
    (Ok(path), expansions)
}

/// Converts a node sequence to segments + vias ([`Path`] merges the
/// collinear runs).
fn wire_from_path(spec: &Spec, path: &[(usize, Point)]) -> Result<GridWire, RouteError> {
    let degenerate = RouteError::Internal {
        context: "degenerate grid path",
    };
    let mut segments: Vec<(Layer, i64, Path)> = Vec::new();
    let mut vias: Vec<GridVia> = Vec::new();
    for &(li, p) in path {
        let layer = layer_of(li);
        match segments.last_mut() {
            Some((l, _, run)) if *l == layer => run.push(p).map_err(|_| degenerate.clone())?,
            last => {
                if let Some((prev, _, run)) = last {
                    if run.end() != p {
                        return Err(degenerate);
                    }
                    vias.push(GridVia {
                        position: p,
                        kind: via_kind(*prev, layer),
                    });
                }
                segments.push((layer, eff_width(spec.width, layer), Path::new(p)));
            }
        }
    }
    if segments.is_empty() {
        return Err(degenerate);
    }
    Ok(GridWire {
        name: spec.name.clone(),
        net: spec.net,
        width: spec.width,
        segments,
        vias,
    })
}

/// Routes the problem against the obstacle set, producing Manhattan
/// wires with vias. Obstacles are `(layer, rect)` pairs in channel
/// coordinates; non-routable layers are ignored.
///
/// # Errors
///
/// Shares the river router's input validation
/// ([`RouteError::CountMismatch`], [`RouteError::Empty`],
/// [`RouteError::BadWidth`], [`RouteError::TerminalsTooClose`]) but
/// accepts layer-changing nets; adds [`RouteError::Unroutable`] when
/// the maze has no path and [`RouteError::BadPitch`] for a bad grid
/// pitch. With [`crate::RouterOptions::exact_height`] set, a route that
/// needs more room fails rather than growing the channel.
pub fn grid_route(
    problem: &RouteProblem,
    obstacles: &[(Layer, Rect)],
) -> Result<GridRoute, RouteError> {
    let mut sp = riot_trace::span!("route.grid", nets = problem.bottom.len() as u64);
    let RouteProblem {
        bottom,
        top,
        options,
    } = problem;
    if bottom.len() != top.len() {
        return Err(RouteError::CountMismatch {
            bottom: bottom.len(),
            top: top.len(),
        });
    }
    if bottom.is_empty() {
        return Err(RouteError::Empty);
    }
    if options.grid_pitch <= 0 {
        return Err(RouteError::BadPitch {
            pitch: options.grid_pitch,
        });
    }
    let mut wmax: i64 = 2;
    for (i, (b, t)) in bottom.iter().zip(top).enumerate() {
        if b.width <= 0 || t.width <= 0 {
            return Err(RouteError::BadWidth {
                net: i,
                width: b.width.min(t.width),
            });
        }
        wmax = wmax.max(b.width.max(t.width));
    }
    for layer in Layer::ALL {
        for edge in [bottom, top] {
            let ts = edge.iter().filter(|t| t.layer == layer);
            check_edge_spacing(
                layer,
                spacing_lambda(layer),
                ts.map(|t| (t.offset, t.width)),
            )?;
        }
    }

    let heights: Vec<i64> = match options.exact_height {
        Some(h) => vec![h.max(1)],
        None => {
            let h0 = (2 * options.margin + 4 * (wmax + 3)).max(16);
            vec![h0, h0 * 2, h0 * 4]
        }
    };
    let mut last_err = RouteError::Empty;
    for &height in &heights {
        match solve_at(problem, obstacles, height) {
            Ok(route) => {
                let stats = route.stats;
                sp.field("expansions", stats.expansions);
                sp.field("vias", stats.vias);
                sp.field("conflicts", stats.conflicts);
                sp.field("retries", stats.retries);
                sp.field("restarts", stats.restarts);
                if riot_trace::enabled() {
                    let reg = riot_trace::registry();
                    reg.counter("route.grid.nets").add(route.wires.len() as u64);
                    reg.counter("route.grid.expansions").add(stats.expansions);
                    reg.counter("route.grid.vias").add(stats.vias);
                    reg.counter("route.grid.conflicts").add(stats.conflicts);
                    reg.counter("route.grid.retries").add(stats.retries);
                    reg.counter("route.grid.restarts").add(stats.restarts);
                    reg.histogram("route.grid.net_expansions")
                        .record(stats.expansions / route.wires.len().max(1) as u64);
                }
                return Ok(route);
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// One plan → negotiate solve at a fixed channel height.
fn solve_at(
    problem: &RouteProblem,
    obstacles: &[(Layer, Rect)],
    height: i64,
) -> Result<GridRoute, RouteError> {
    let grid = build_grid(problem, obstacles, height)?;
    let col = |x: i64| {
        grid.xs
            .binary_search(&x)
            .expect("terminal columns are grid lines")
    };
    let specs: Vec<Spec> = problem
        .bottom
        .iter()
        .zip(&problem.top)
        .enumerate()
        .map(|(i, (b, t))| Spec {
            net: i,
            name: b.name.clone(),
            width: b.width.max(t.width),
            blayer: layer_idx(b.layer),
            tlayer: layer_idx(t.layer),
            bxi: col(b.offset),
            txi: col(t.offset),
        })
        .collect();

    // Plan: every net solves concurrently against the frozen
    // obstacle-only grid. Results are positional, so the outcome is
    // identical at any thread count. The lowest failing net decides a
    // failed height, so once a net fails, every later net skips its
    // search; nets below it still run, and the error is the same. The
    // flag publishes no data, and `map_heavy`'s join orders the reads
    // below after every write, so `Relaxed` suffices.
    let failed = AtomicUsize::new(usize::MAX);
    let plans = par::map_heavy(&specs, |spec| {
        if failed.load(Ordering::Relaxed) < spec.net {
            return None;
        }
        let plan = route_net(&grid, spec, None);
        if plan.is_err() {
            failed.fetch_min(spec.net, Ordering::Relaxed);
        }
        Some(plan)
    });
    let (mut paths, mut wires, mut plan_expansions) = (Vec::new(), Vec::new(), Vec::new());
    for (spec, plan) in specs.iter().zip(plans) {
        // A skipped net lies above a failed one, whose error returns first.
        let net = failed.load(Ordering::Relaxed);
        let (path, expansions) = plan.unwrap_or(Err(RouteError::Unroutable { net }))?;
        plan_expansions.push(expansions);
        wires.push(wire_from_path(spec, &path)?);
        paths.push(path);
    }
    let mut stats = GridStats {
        expansions: plan_expansions.iter().sum(),
        ..GridStats::default()
    };
    negotiate(&grid, &specs, &mut paths, &mut wires, &mut stats)?;
    stats.vias = wires.iter().map(|w| w.vias.len() as u64).sum();
    Ok(GridRoute {
        wires,
        height: height.max(1),
        stats,
        plan_expansions,
    })
}

/// Resolves spacing conflicts between planned wires. Spacing-clean
/// plans are the route as they stand (one sweep, no occupancy
/// allocated). Otherwise each round rips up the conflicting nets in
/// net order and re-routes each against the others' current wires at
/// their congestion price; the round's spacing check runs on the exact
/// rects. Fails with the lowest still-conflicting net once
/// [`MAX_ROUNDS`] rounds have not cleared every conflict.
fn negotiate(
    grid: &Grid,
    specs: &[Spec],
    paths: &mut [Vec<(usize, Point)>],
    wires: &mut [GridWire],
    stats: &mut GridStats,
) -> Result<(), RouteError> {
    let mut rects: Vec<Vec<(Layer, Rect)>> = wires.iter().map(GridWire::rects).collect();
    let mut conflicts = contested(&rects);
    if conflicts.is_empty() {
        return Ok(());
    }
    // Searches read wire moves from edges and via pads from nodes, so
    // each load plane set holds only what its mask key is used for.
    let (nx, ny) = (grid.xs.len(), grid.ys.len());
    let loads = grid.masks.iter().map(|&((li, w), _)| {
        let wire = specs.iter().any(|s| eff_width(s.width, layer_of(li)) == w);
        Planes::new(nx, ny, w == 4, wire)
    });
    let mut cong = Congestion {
        loads: loads.collect(),
        pres: PRES_START,
    };
    for net in &rects {
        cong.visit(grid, net, |c| c.occ = c.occ.saturating_add(1));
    }
    while stats.restarts < MAX_ROUNDS {
        stats.restarts += 1;
        stats.conflicts += conflicts.len() as u64;
        for &i in &conflicts {
            // Rip up, and remember where the net collided with others.
            cong.visit(grid, &rects[i], |c| c.occ = c.occ.saturating_sub(1));
            cong.remember(grid, &specs[i], &paths[i]);
            let (path, expansions) = route_net(grid, &specs[i], Some(&cong))?;
            stats.retries += 1;
            stats.expansions += expansions;
            wires[i] = wire_from_path(&specs[i], &path)?;
            rects[i] = wires[i].rects();
            paths[i] = path;
            cong.visit(grid, &rects[i], |c| c.occ = c.occ.saturating_add(1));
        }
        conflicts = contested(&rects);
        if conflicts.is_empty() {
            return Ok(());
        }
        cong.pres = (cong.pres * 2).min(PRES_MAX);
    }
    Err(RouteError::Unroutable { net: conflicts[0] })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terminal::{RouteProblem, RouterOptions, Terminal};

    fn t(name: &str, offset: i64, layer: Layer) -> Terminal {
        Terminal::new(
            name,
            offset,
            layer,
            if layer == Layer::Metal { 3 } else { 2 },
        )
    }

    #[test]
    fn straight_net_routes_clean() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        let r = grid_route(&p, &[]).unwrap();
        assert_eq!(r.wires().len(), 1);
        assert_eq!(r.wires()[0].vias.len(), 0);
        assert_eq!(r.wires()[0].bottom_end(), Point::new(0, 0));
        assert_eq!(r.wires()[0].top_end(), Point::new(0, r.height()));
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn layer_mismatch_gets_a_via() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Poly)], vec![t("a", 0, Layer::Metal)]);
        let r = grid_route(&p, &[]).unwrap();
        let w = &r.wires()[0];
        assert_eq!(w.vias.len(), 1);
        assert_eq!(w.vias[0].kind, ContactKind::MetalPoly);
        assert_eq!(w.segments.first().unwrap().0, Layer::Poly);
        assert_eq!(w.segments.last().unwrap().0, Layer::Metal);
        // The metal segment widened to the 3λ metal floor.
        assert_eq!(w.segments.last().unwrap().1, 3);
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn obstacle_forces_a_detour() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        let clear = grid_route(&p, &[]).unwrap();
        // A metal block sitting square on the straight path.
        let obstacles = vec![(Layer::Metal, Rect::new(-4, 6, 4, 10))];
        let r = grid_route(&p, &obstacles).unwrap();
        verify_clearance(&r, &obstacles).unwrap();
        let len: i64 = r.wires()[0]
            .segments
            .iter()
            .map(|(_, _, p)| p.length())
            .sum();
        let clear_len: i64 = clear.wires()[0]
            .segments
            .iter()
            .map(|(_, _, p)| p.length())
            .sum();
        assert!(
            len > clear_len,
            "detour must be longer: {len} vs {clear_len}"
        );
    }

    #[test]
    fn walled_channel_is_unroutable() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        // Full-width walls on every routable layer, low enough to block
        // the channel at every escalated height.
        let obstacles: Vec<(Layer, Rect)> = Layer::ROUTABLE
            .iter()
            .map(|&l| (l, Rect::new(-100, 6, 100, 10)))
            .collect();
        let err = grid_route(&p, &obstacles).unwrap_err();
        assert_eq!(err, RouteError::Unroutable { net: 0 });
    }

    #[test]
    fn crossing_nets_resolve_by_layer_hop() {
        // The exact case the river router rejects as NotRiverRoutable.
        let p = RouteProblem::new(
            vec![t("a", 0, Layer::Metal), t("b", 12, Layer::Metal)],
            vec![t("a", 12, Layer::Metal), t("b", 0, Layer::Metal)],
        );
        assert!(matches!(
            crate::river_route(&p),
            Err(RouteError::NotRiverRoutable { .. })
        ));
        let r = grid_route(&p, &[]).unwrap();
        assert!(r.stats().conflicts >= 1, "crossing must conflict");
        let total_vias: usize = r.wires().iter().map(|w| w.vias.len()).sum();
        assert!(
            total_vias >= 2,
            "one net must hop layers: {total_vias} vias"
        );
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn exact_height_is_respected() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Poly)], vec![t("a", 6, Layer::Poly)])
            .with_options(RouterOptions {
                exact_height: Some(21),
                ..RouterOptions::new()
            });
        let r = grid_route(&p, &[]).unwrap();
        assert_eq!(r.height(), 21);
        assert_eq!(r.wires()[0].top_end(), Point::new(6, 21));
    }

    #[test]
    fn coarse_pitch_still_reaches_odd_terminals() {
        let p = RouteProblem::new(vec![t("a", 3, Layer::Poly)], vec![t("a", 11, Layer::Poly)])
            .with_options(RouterOptions {
                grid_pitch: 4,
                ..RouterOptions::new()
            });
        let r = grid_route(&p, &[]).unwrap();
        assert_eq!(r.wires()[0].bottom_end().x, 3);
        assert_eq!(r.wires()[0].top_end().x, 11);
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn bad_pitch_rejected() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Poly)], vec![t("a", 0, Layer::Poly)])
            .with_options(RouterOptions {
                grid_pitch: 0,
                ..RouterOptions::new()
            });
        assert_eq!(
            grid_route(&p, &[]).unwrap_err(),
            RouteError::BadPitch { pitch: 0 }
        );
    }

    #[test]
    fn validation_matches_river_for_bad_inputs() {
        let empty = RouteProblem::new(vec![], vec![]);
        assert_eq!(grid_route(&empty, &[]).unwrap_err(), RouteError::Empty);
        let mismatch = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![]);
        assert!(matches!(
            grid_route(&mismatch, &[]),
            Err(RouteError::CountMismatch { bottom: 1, top: 0 })
        ));
        let close = RouteProblem::new(
            vec![t("a", 0, Layer::Metal), t("b", 3, Layer::Metal)],
            vec![t("a", 0, Layer::Metal), t("b", 20, Layer::Metal)],
        );
        assert!(matches!(
            grid_route(&close, &[]),
            Err(RouteError::TerminalsTooClose { .. })
        ));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let bottom: Vec<Terminal> = (0..6)
            .map(|i| t(&format!("n{i}"), i * 8, Layer::Poly))
            .collect();
        let top: Vec<Terminal> = (0..6)
            .map(|i| t(&format!("n{i}"), (5 - i) * 8, Layer::Poly))
            .collect();
        let p = RouteProblem::new(bottom, top);
        let obstacles = vec![(Layer::Poly, Rect::new(10, 20, 18, 26))];
        par::set_threads(1);
        let serial = grid_route(&p, &obstacles).unwrap();
        par::set_threads(4);
        let parallel = grid_route(&p, &obstacles).unwrap();
        par::set_threads(0);
        assert_eq!(serial, parallel);
        verify_clearance(&serial, &obstacles).unwrap();
    }

    #[test]
    fn jointly_unroutable_channel_fails_within_the_round_cap() {
        // Two metal nets that swap sides, with poly and diffusion walled
        // off so neither can hop layers: each routes alone, but jointly
        // they must cross on metal, so negotiation runs out of rounds.
        let walls = [Layer::Diffusion, Layer::Poly].map(|l| (l, Rect::new(-50, -10, 50, 40)));
        let net = |name, x0, x1| (t(name, x0, Layer::Metal), t(name, x1, Layer::Metal));
        let route = |nets: Vec<(Terminal, Terminal)>| {
            let (bottom, top): (Vec<_>, Vec<_>) = nets.into_iter().unzip();
            let exact = RouterOptions {
                exact_height: Some(30),
                ..RouterOptions::new()
            };
            grid_route(&RouteProblem::new(bottom, top).with_options(exact), &walls)
        };
        assert!(route(vec![net("a", 0, 12)]).is_ok());
        assert!(route(vec![net("b", 12, 0)]).is_ok());
        let both = route(vec![net("a", 0, 12), net("b", 12, 0)]);
        assert_eq!(both.unwrap_err(), RouteError::Unroutable { net: 0 });
    }

    #[test]
    fn windowed_search_failure_counts_toward_expansions() {
        // Walls on every routable layer from the channel's left edge to
        // x = 100: net a (x = 0 to 0) has no path inside its window and
        // must detour past the wall's end, far outside it. Net b only
        // widens the channel.
        let walls = Layer::ROUTABLE.map(|l| (l, Rect::new(-100, 12, 100, 16)));
        let p = RouteProblem::new(
            vec![t("a", 0, Layer::Metal), t("b", 200, Layer::Metal)],
            vec![t("a", 0, Layer::Metal), t("b", 200, Layer::Metal)],
        )
        .with_options(RouterOptions {
            exact_height: Some(30),
            ..RouterOptions::new()
        });
        let r = grid_route(&p, &walls).unwrap();
        verify_clearance(&r, &walls).unwrap();

        let grid = build_grid(&p, &walls, 30).unwrap();
        let col = |x: i64| grid.xs.binary_search(&x).unwrap();
        let spec = Spec {
            net: 0,
            name: "a".into(),
            width: 3,
            blayer: layer_idx(Layer::Metal),
            tlayer: layer_idx(Layer::Metal),
            bxi: col(0),
            txi: col(0),
        };
        let (clo, chi) = net_window(&grid, &spec);
        let (windowed, tried) = astar(&grid, &spec, clo, chi, None);
        assert!(windowed.is_err() && tried > 0, "the window must fail");
        let (retry, retried) = astar(&grid, &spec, 0, grid.xs.len() - 1, None);
        assert!(retry.is_ok());
        assert_eq!(r.plan_expansions()[0], tried + retried);
        assert!(r.plan_expansions()[0] > retried);
    }

    #[test]
    fn verify_clearance_rejects_overlapping_wires() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        let mut r = grid_route(&p, &[]).unwrap();
        let twin = GridWire {
            name: "b".into(),
            net: 1,
            ..r.wires[0].clone()
        };
        r.wires.push(twin);
        let err = verify_clearance(&r, &[]).unwrap_err();
        assert!(err.starts_with("nets a and b violate"), "{err}");
        r.wires.pop();
        let block = [(Layer::Metal, Rect::new(-1, 5, 1, 6))];
        let err = verify_clearance(&r, &block).unwrap_err();
        assert!(err.starts_with("net a violates"), "{err}");
    }
}
