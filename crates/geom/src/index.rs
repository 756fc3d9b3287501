//! Spatial indexes over rectangles: bucketed uniform grids.
//!
//! The geometry hot paths (DRC spacing, connected-component discovery,
//! per-band render clipping) all ask the same question — *which
//! rectangles are near this one?* — and until this module existed they
//! all answered it with an all-pairs scan. Two grids answer it in
//! roughly O(k) per query:
//!
//! - [`SpatialIndex`] is **immutable**: rectangles are binned into a
//!   √n × √n grid of buckets (CSR layout, two-pass build, no
//!   per-bucket allocation), and a query gathers the buckets its window
//!   overlaps, deduplicates, and filters exactly. It holds only plain
//!   data plus atomic counters, so shared references can be queried
//!   freely from worker threads (see [`crate::par`]). One-shot passes
//!   (a full DRC, a full render) use it.
//! - [`BucketGrid`] is **mutable**: the same √n × √n sizing, but each
//!   bucket is a linked list in one node arena, so
//!   [`BucketGrid::insert`] and [`BucketGrid::remove`] cost O(buckets a
//!   rect spans) and never rebuild anything. Retained state that is
//!   patched edit by edit (the incremental DRC, the render cache) uses
//!   it.
//!
//! # Example
//!
//! ```
//! use riot_geom::{index::SpatialIndex, Rect};
//!
//! let rects = vec![
//!     Rect::new(0, 0, 10, 10),
//!     Rect::new(100, 100, 110, 110),
//!     Rect::new(12, 0, 20, 10),
//! ];
//! let idx = SpatialIndex::build(&rects);
//! // Touching the first rectangle only:
//! let hits: Vec<usize> = idx.query(Rect::new(5, 5, 9, 9)).collect();
//! assert_eq!(hits, vec![0]);
//! // Within 2 centimicrons of it: the gap-2 neighbor appears too.
//! let near: Vec<usize> = idx.within(Rect::new(0, 0, 10, 10), 2).collect();
//! assert_eq!(near, vec![0, 2]);
//! ```

use crate::point::Point;
use crate::rect::Rect;
use std::sync::Arc;

/// An immutable bucketed-grid index over a fixed set of [`Rect`]s.
///
/// Built once with [`SpatialIndex::build`]; queries never mutate the
/// structure (the only interior mutability is a metrics counter), so a
/// `&SpatialIndex` is freely shareable across threads.
#[derive(Debug)]
pub struct SpatialIndex {
    rects: Vec<Rect>,
    bounds: Rect,
    cols: usize,
    rows: usize,
    cell_w: i64,
    cell_h: i64,
    /// CSR bucket layout: ids of rects overlapping bucket `b` live in
    /// `entries[bucket_start[b]..bucket_start[b + 1]]`.
    bucket_start: Vec<u32>,
    entries: Vec<u32>,
    queries: Arc<riot_trace::Counter>,
}

impl SpatialIndex {
    /// Builds an index over `rects`. Ids handed back by queries are
    /// indices into this slice (also retrievable via [`Self::rect`]).
    ///
    /// Cost is O(n log n)-ish: one pass to bound, two passes to fill
    /// the CSR buckets (a rect spanning many buckets is inserted into
    /// each, so extremely elongated rects cost proportionally more).
    pub fn build(rects: &[Rect]) -> SpatialIndex {
        let _sp = riot_trace::span!("geom.index.build", rects = rects.len() as u64);
        let registry = riot_trace::registry();
        registry.counter("geom.index.builds").inc();
        registry.counter("geom.index.rects").add(rects.len() as u64);
        let queries = registry.counter("geom.index.queries");

        let n = rects.len();
        let bounds = rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .unwrap_or_default();
        // Target roughly one rect per bucket: a side of ceil(sqrt(n)).
        let side = (n as f64).sqrt().ceil().max(1.0) as usize;
        let cols = side;
        let rows = side;
        let cell_w = div_ceil_i64(bounds.width().max(1), cols as i64).max(1);
        let cell_h = div_ceil_i64(bounds.height().max(1), rows as i64).max(1);

        // Two-pass CSR fill: count, prefix-sum, then place.
        let mut bucket_start = vec![0u32; cols * rows + 1];
        let mut spans = Vec::with_capacity(n);
        for r in rects {
            let s = bucket_span(bounds, cell_w, cell_h, cols, rows, *r);
            for row in s.1 .0..=s.1 .1 {
                for col in s.0 .0..=s.0 .1 {
                    bucket_start[row * cols + col + 1] += 1;
                }
            }
            spans.push(s);
        }
        for b in 1..bucket_start.len() {
            bucket_start[b] += bucket_start[b - 1];
        }
        let mut cursor = bucket_start.clone();
        let mut entries = vec![0u32; bucket_start[cols * rows] as usize];
        for (id, s) in spans.iter().enumerate() {
            for row in s.1 .0..=s.1 .1 {
                for col in s.0 .0..=s.0 .1 {
                    let b = row * cols + col;
                    entries[cursor[b] as usize] = id as u32;
                    cursor[b] += 1;
                }
            }
        }

        SpatialIndex {
            rects: rects.to_vec(),
            bounds,
            cols,
            rows,
            cell_w,
            cell_h,
            bucket_start,
            entries,
            queries,
        }
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the index holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The rectangle behind an id returned by a query.
    pub fn rect(&self, id: usize) -> Rect {
        self.rects[id]
    }

    /// All indexed rectangles, in id order.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Bounding box of everything indexed (`Rect::default()` when empty).
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Ids of all rectangles that touch `window` (boundary contact
    /// counts, matching [`Rect::touches`]), in ascending id order.
    pub fn query(&self, window: Rect) -> impl Iterator<Item = usize> + '_ {
        let ids = self.candidates(window);
        ids.into_iter()
            .filter(move |&id| self.rects[id].touches(window))
    }

    /// Ids of all rectangles whose axis gap to `window` is at most
    /// `dist` on **both** axes — the neighborhood a spacing rule of
    /// `dist + 1` must inspect. `within(r, 0)` equals `query(r)`.
    ///
    /// # Panics
    ///
    /// Panics if `dist` is negative.
    pub fn within(&self, window: Rect, dist: i64) -> impl Iterator<Item = usize> + '_ {
        assert!(dist >= 0, "within() needs a non-negative distance");
        let grown = window.inflated(dist);
        self.query(grown)
    }

    /// The id and L∞ gap of the rectangle nearest to `p` (0 when `p`
    /// is inside one), or `None` for an empty index. Ties resolve to
    /// the lowest id.
    pub fn nearest(&self, p: Point) -> Option<(usize, i64)> {
        if self.rects.is_empty() {
            return None;
        }
        self.queries.inc();
        let (pc, pr) = self.bucket_of(p);
        let mut best: Option<(usize, i64)> = None;
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Once a candidate is in hand, stop as soon as every
            // unvisited bucket lies farther than the best gap: the
            // frame of visited buckets encloses `p` by at least
            // `enclosure` world units on every side.
            if let Some((_, gap)) = best {
                let enclosure = self.frame_enclosure(pc, pr, ring, p);
                if enclosure > gap {
                    break;
                }
            }
            for (col, row) in ring_buckets(pc, pr, ring, self.cols, self.rows) {
                let b = row * self.cols + col;
                let lo = self.bucket_start[b] as usize;
                let hi = self.bucket_start[b + 1] as usize;
                for &id in &self.entries[lo..hi] {
                    let gap = rect_point_gap(self.rects[id as usize], p);
                    let cand = (id as usize, gap);
                    best = Some(match best {
                        Some(b) if (b.1, b.0) <= (cand.1, cand.0) => b,
                        _ => cand,
                    });
                }
            }
        }
        best
    }

    /// Candidate ids from every bucket overlapping `window`, sorted
    /// ascending and deduplicated (a rect spanning several buckets
    /// appears once).
    fn candidates(&self, window: Rect) -> Vec<usize> {
        self.queries.inc();
        if self.rects.is_empty() || !self.bounds.touches(window) {
            return Vec::new();
        }
        let ((c0, c1), (r0, r1)) = bucket_span(
            self.bounds,
            self.cell_w,
            self.cell_h,
            self.cols,
            self.rows,
            window,
        );
        let mut ids = Vec::new();
        for row in r0..=r1 {
            for col in c0..=c1 {
                let b = row * self.cols + col;
                let lo = self.bucket_start[b] as usize;
                let hi = self.bucket_start[b + 1] as usize;
                ids.extend(self.entries[lo..hi].iter().map(|&id| id as usize));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The bucket containing `p`, clamped into the grid.
    fn bucket_of(&self, p: Point) -> (usize, usize) {
        let col = ((p.x - self.bounds.x0) / self.cell_w).clamp(0, self.cols as i64 - 1) as usize;
        let row = ((p.y - self.bounds.y0) / self.cell_h).clamp(0, self.rows as i64 - 1) as usize;
        (col, row)
    }

    /// How far, in world units, `p` is from the outside of the square
    /// frame of buckets `ring` wide around `(pc, pr)`. Anything in an
    /// unvisited bucket is at least this far away.
    fn frame_enclosure(&self, pc: usize, pr: usize, ring: usize, p: Point) -> i64 {
        let r = ring as i64;
        let fx0 = self.bounds.x0 + (pc as i64 - r) * self.cell_w;
        let fx1 = self.bounds.x0 + (pc as i64 + r + 1) * self.cell_w;
        let fy0 = self.bounds.y0 + (pr as i64 - r) * self.cell_h;
        let fy1 = self.bounds.y0 + (pr as i64 + r + 1) * self.cell_h;
        (p.x - fx0).min(fx1 - p.x).min(p.y - fy0).min(fy1 - p.y)
    }
}

/// Ends a [`BucketGrid`] bucket list and its chain of recycled nodes.
const NIL: u32 = u32::MAX;

/// One entry of a [`BucketGrid`] bucket list.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: u32,
    next: u32,
}

/// A mutable bucketed-grid index: a table of rects by id, plus the
/// buckets that find them.
///
/// Sized like [`SpatialIndex`] — about ⌈√n⌉ buckets a side over the
/// bounds it is built for — but each bucket is a singly linked list
/// threaded through one node arena, so entries are inserted and
/// removed in place: no per-bucket allocation, no side list of recent
/// edits, no periodic rebuild. Removed nodes are recycled, so the
/// arena stays at the high-water mark of live entries. Ids index the
/// rect table, so they should be dense, such as arena slots.
///
/// The grid **tiles the plane**: a cell outside the build bounds folds
/// onto the bucket at the same position modulo the grid. Geometry added
/// far from the original bounds, at negative coordinates, or to a grid
/// that was empty when built lands in buckets no denser than the ones
/// inside, instead of piling up on an edge. A rect wider than the grid
/// occupies each of its columns once. Queries filter exactly (a folded
/// bucket can hold far-away entries) and report each entry once.
///
/// # Example
///
/// ```
/// use riot_geom::{index::BucketGrid, Rect};
///
/// let mut grid = BucketGrid::build(vec![Rect::new(0, 0, 10, 10), Rect::new(50, 0, 60, 10)]);
/// grid.insert(7, Rect::new(-500, -500, -490, -490)); // far outside the build bounds
/// assert!(grid.remove(0));
/// let mut hits: Vec<u32> = grid.query(Rect::new(-1000, -1000, 55, 5)).collect();
/// hits.sort_unstable();
/// assert_eq!(hits, vec![1, 7]);
/// assert_eq!(grid.rect(7), Rect::new(-500, -500, -490, -490));
/// ```
#[derive(Debug, Clone)]
pub struct BucketGrid {
    cells: Cells,
    /// Each id's rect (stale once the id is removed).
    rects: Vec<Rect>,
    /// First node of each bucket's list, [`NIL`] when empty.
    head: Vec<u32>,
    nodes: Vec<Node>,
    /// Chain of recycled nodes, linked through `next`.
    free: u32,
    len: usize,
}

/// The cell geometry of a [`BucketGrid`]: origin, cell size and the
/// bucket dimensions cells fold onto. Cell sides and bucket dimensions
/// are powers of two, so a coordinate maps to its cell by a shift and
/// a cell to its bucket by a mask — no division on any path.
#[derive(Debug, Clone, Copy)]
struct Cells {
    x0: i64,
    y0: i64,
    /// log₂ of the cell width and height.
    shift_x: u32,
    shift_y: u32,
    /// log₂ of the bucket columns and rows.
    log_cols: u32,
    log_rows: u32,
}

impl Cells {
    /// Cells at least `extent / ⌈√n⌉` on a side (the next power of
    /// two) over `bounds`, and enough buckets that no two cells inside
    /// `bounds` fold together.
    fn new(bounds: Rect, n: usize) -> Cells {
        let side = (n as f64).sqrt().ceil().max(1.0);
        let axis = |extent: i64| -> (u32, u32) {
            let ideal = (extent.max(1) as f64 / side).max(1.0);
            let shift = (ideal.log2().ceil() as u32).min(62);
            let cells = (extent >> shift) as u64 + 1;
            (shift, cells.next_power_of_two().trailing_zeros())
        };
        let (shift_x, log_cols) = axis(bounds.width());
        let (shift_y, log_rows) = axis(bounds.height());
        Cells {
            x0: bounds.x0,
            y0: bounds.y0,
            shift_x,
            shift_y,
            log_cols,
            log_rows,
        }
    }

    fn cols(&self) -> i64 {
        1 << self.log_cols
    }

    fn rows(&self) -> i64 {
        1 << self.log_rows
    }

    /// The first unwrapped cell of `r` along each axis.
    fn first(&self, r: Rect) -> (i64, i64) {
        (
            (r.x0 - self.x0) >> self.shift_x,
            (r.y0 - self.y0) >> self.shift_y,
        )
    }

    /// The first unwrapped cell of `r` and its cell count along each
    /// axis, the counts capped at the bucket dimensions.
    fn span(&self, r: Rect) -> ((i64, i64), (i64, i64)) {
        let (cx, cy) = self.first(r);
        let nx = ((r.x1 - self.x0) >> self.shift_x) - cx + 1;
        let ny = ((r.y1 - self.y0) >> self.shift_y) - cy + 1;
        ((cx, nx.min(self.cols())), (cy, ny.min(self.rows())))
    }

    /// The first cell where the span of `r` meets a span starting at
    /// cell `q`, folded into the `cols × rows` cells from `q` on (a
    /// capped query span visits each bucket once, from that window).
    /// Only meaningful when the two spans meet.
    fn first_meet(&self, r: Rect, q: (i64, i64)) -> (i64, i64) {
        let (rx, ry) = self.first(r);
        (
            q.0 + ((rx.max(q.0) - q.0) & (self.cols() - 1)),
            q.1 + ((ry.max(q.1) - q.1) & (self.rows() - 1)),
        )
    }

    /// The bucket an unwrapped cell folds onto.
    fn bucket(&self, cx: i64, cy: i64) -> usize {
        (((cy & (self.rows() - 1)) << self.log_cols) | (cx & (self.cols() - 1))) as usize
    }

    fn buckets(&self) -> usize {
        1 << (self.log_cols + self.log_rows)
    }

    fn for_each_bucket(&self, r: Rect, mut f: impl FnMut(usize)) {
        let ((cx, nx), (cy, ny)) = self.span(r);
        for j in 0..ny {
            for i in 0..nx {
                f(self.bucket(cx + i, cy + j));
            }
        }
    }
}

impl BucketGrid {
    /// An empty grid with this one's cell geometry — for a collection
    /// that starts empty but will fill the same region.
    pub fn empty_like(&self) -> BucketGrid {
        BucketGrid::with_cells(self.cells)
    }

    fn with_cells(cells: Cells) -> BucketGrid {
        BucketGrid {
            cells,
            rects: Vec::new(),
            head: vec![NIL; cells.buckets()],
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Builds a grid over `rects` with the ids `0..rects.len()`, sized
    /// to their bounds. Two counting passes lay each bucket's list out
    /// contiguously in the node arena.
    pub fn build(rects: Vec<Rect>) -> BucketGrid {
        let bounds = rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .unwrap_or_default();
        let mut grid = BucketGrid::with_cells(Cells::new(bounds, rects.len()));
        let cells = grid.cells;
        let mut start = vec![0u32; grid.head.len() + 1];
        for &r in &rects {
            cells.for_each_bucket(r, |b| start[b + 1] += 1);
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        grid.nodes = vec![Node { id: 0, next: NIL }; start[grid.head.len()] as usize];
        let mut cursor = start.clone();
        for (id, &r) in rects.iter().enumerate() {
            cells.for_each_bucket(r, |b| {
                let at = cursor[b];
                cursor[b] += 1;
                let next = if at + 1 < start[b + 1] { at + 1 } else { NIL };
                grid.nodes[at as usize] = Node {
                    id: id as u32,
                    next,
                };
            });
        }
        for (b, head) in grid.head.iter_mut().enumerate() {
            if start[b] < start[b + 1] {
                *head = start[b];
            }
        }
        grid.len = rects.len();
        grid.rects = rects;
        grid
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rect entry `id` was inserted with.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never inserted (a removed id still reads its
    /// last rect).
    pub fn rect(&self, id: u32) -> Rect {
        self.rects[id as usize]
    }

    /// Adds the entry `id` covering `rect`. An id must not be inserted
    /// twice without a [`Self::remove`] between.
    pub fn insert(&mut self, id: u32, rect: Rect) {
        let slot = id as usize;
        if slot >= self.rects.len() {
            self.rects.resize(slot + 1, Rect::default());
        }
        self.rects[slot] = rect;
        let cells = self.cells;
        cells.for_each_bucket(rect, |b| {
            let node = Node {
                id,
                next: self.head[b],
            };
            let at = if self.free == NIL {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let at = self.free;
                self.free = self.nodes[at as usize].next;
                self.nodes[at as usize] = node;
                at
            };
            self.head[b] = at;
        });
        self.len += 1;
    }

    /// Removes the entry `id`. Returns `false` when it is not present.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(&rect) = self.rects.get(id as usize) else {
            return false;
        };
        let cells = self.cells;
        let mut found = false;
        cells.for_each_bucket(rect, |b| {
            let mut prev = NIL;
            let mut at = self.head[b];
            while at != NIL {
                let node = self.nodes[at as usize];
                if node.id == id {
                    if prev == NIL {
                        self.head[b] = node.next;
                    } else {
                        self.nodes[prev as usize].next = node.next;
                    }
                    self.nodes[at as usize].next = self.free;
                    self.free = at;
                    found = true;
                    return;
                }
                prev = at;
                at = node.next;
            }
        });
        if found {
            self.len -= 1;
        }
        found
    }

    /// Ids of all entries whose rect touches `window` (boundary contact
    /// counts, matching [`Rect::touches`]), each once, in no particular
    /// order.
    pub fn query(&self, window: Rect) -> impl Iterator<Item = u32> + '_ {
        let c = self.cells;
        let ((qx, nx), (qy, ny)) = c.span(window);
        (0..ny)
            .flat_map(move |j| (0..nx).map(move |i| (qx + i, qy + j)))
            .flat_map(move |(cx, cy)| {
                let list = BucketList {
                    nodes: &self.nodes,
                    at: self.head[c.bucket(cx, cy)],
                };
                // An entry spanning several visited buckets is reported
                // at the first cell where its span and the window's
                // meet.
                list.filter(move |&id| {
                    let r = self.rects[id as usize];
                    r.touches(window) && c.first_meet(r, (qx, qy)) == (cx, cy)
                })
            })
    }

    /// Ids of all entries whose axis gap to `window` is at most `dist`
    /// on **both** axes, as [`SpatialIndex::within`].
    ///
    /// # Panics
    ///
    /// Panics if `dist` is negative.
    pub fn within(&self, window: Rect, dist: i64) -> impl Iterator<Item = u32> + '_ {
        assert!(dist >= 0, "within() needs a non-negative distance");
        self.query(window.inflated(dist))
    }
}

/// Walks one bucket's list, yielding ids.
struct BucketList<'a> {
    nodes: &'a [Node],
    at: u32,
}

impl Iterator for BucketList<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        (self.at != NIL).then(|| {
            let node = self.nodes[self.at as usize];
            self.at = node.next;
            node.id
        })
    }
}

/// The L∞ gap from a point to a rectangle: 0 inside/on the boundary.
fn rect_point_gap(r: Rect, p: Point) -> i64 {
    let dx = (r.x0 - p.x).max(p.x - r.x1).max(0);
    let dy = (r.y0 - p.y).max(p.y - r.y1).max(0);
    dx.max(dy)
}

/// Buckets on the Chebyshev ring `ring` around `(pc, pr)`, clipped to
/// the grid.
fn ring_buckets(
    pc: usize,
    pr: usize,
    ring: usize,
    cols: usize,
    rows: usize,
) -> Vec<(usize, usize)> {
    let (pc, pr, ring) = (pc as i64, pr as i64, ring as i64);
    let mut out = Vec::new();
    let mut push = |c: i64, r: i64| {
        if c >= 0 && r >= 0 && c < cols as i64 && r < rows as i64 {
            out.push((c as usize, r as usize));
        }
    };
    if ring == 0 {
        push(pc, pr);
        return out;
    }
    for c in (pc - ring)..=(pc + ring) {
        push(c, pr - ring);
        push(c, pr + ring);
    }
    for r in (pr - ring + 1)..(pr + ring) {
        push(pc - ring, r);
        push(pc + ring, r);
    }
    out
}

/// The inclusive `(col, row)` bucket ranges a rectangle overlaps.
#[allow(clippy::type_complexity)]
fn bucket_span(
    bounds: Rect,
    cell_w: i64,
    cell_h: i64,
    cols: usize,
    rows: usize,
    r: Rect,
) -> ((usize, usize), (usize, usize)) {
    let c0 = ((r.x0 - bounds.x0) / cell_w).clamp(0, cols as i64 - 1) as usize;
    let c1 = ((r.x1 - bounds.x0) / cell_w).clamp(0, cols as i64 - 1) as usize;
    let r0 = ((r.y0 - bounds.y0) / cell_h).clamp(0, rows as i64 - 1) as usize;
    let r1 = ((r.y1 - bounds.y0) / cell_h).clamp(0, rows as i64 - 1) as usize;
    ((c0, c1), (r0, r1))
}

fn div_ceil_i64(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_rects(cols: i64, rows: i64, size: i64, pitch: i64) -> Vec<Rect> {
        let mut v = Vec::new();
        for c in 0..cols {
            for r in 0..rows {
                v.push(Rect::new(
                    c * pitch,
                    r * pitch,
                    c * pitch + size,
                    r * pitch + size,
                ));
            }
        }
        v
    }

    /// Reference all-pairs query the index must agree with.
    fn naive_touching(rects: &[Rect], window: Rect) -> Vec<usize> {
        rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.touches(window))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index() {
        let idx = SpatialIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.query(Rect::new(0, 0, 10, 10)).count(), 0);
        assert_eq!(idx.nearest(Point::new(0, 0)), None);
    }

    #[test]
    fn query_matches_naive_on_grid() {
        let rects = grid_rects(13, 9, 8, 20);
        let idx = SpatialIndex::build(&rects);
        for window in [
            Rect::new(0, 0, 5, 5),
            Rect::new(-100, -100, -50, -50),
            Rect::new(0, 0, 260, 180),
            Rect::new(35, 35, 37, 37),
            Rect::new(19, 19, 21, 21), // straddles pitch boundaries
        ] {
            let got: Vec<usize> = idx.query(window).collect();
            assert_eq!(got, naive_touching(&rects, window), "window {window}");
        }
    }

    #[test]
    fn query_matches_naive_on_soup() {
        // Deterministic pseudo-random soup without external crates.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rects: Vec<Rect> = (0..500)
            .map(|_| {
                let x = (next() % 10_000) as i64;
                let y = (next() % 10_000) as i64;
                let w = (next() % 400) as i64 + 1;
                let h = (next() % 400) as i64 + 1;
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let idx = SpatialIndex::build(&rects);
        for i in (0..rects.len()).step_by(17) {
            let got: Vec<usize> = idx.query(rects[i]).collect();
            assert_eq!(got, naive_touching(&rects, rects[i]), "rect {i}");
        }
    }

    #[test]
    fn within_expands_the_neighborhood() {
        let rects = vec![Rect::new(0, 0, 10, 10), Rect::new(15, 0, 25, 10)];
        let idx = SpatialIndex::build(&rects);
        let near0: Vec<usize> = idx.within(rects[0], 4).collect();
        assert_eq!(near0, vec![0]); // gap is 5 > 4
        let near1: Vec<usize> = idx.within(rects[0], 5).collect();
        assert_eq!(near1, vec![0, 1]);
    }

    #[test]
    fn within_is_query_at_zero() {
        let rects = grid_rects(5, 5, 8, 20);
        let idx = SpatialIndex::build(&rects);
        for &r in &rects {
            let a: Vec<usize> = idx.query(r).collect();
            let b: Vec<usize> = idx.within(r, 0).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn nearest_finds_the_closest_rect() {
        let rects = grid_rects(10, 10, 8, 100);
        let idx = SpatialIndex::build(&rects);
        // Inside rect (3, 4) => id 3 * 10 + 4, gap 0.
        assert_eq!(idx.nearest(Point::new(304, 402)), Some((34, 0)));
        // Just right of rect (0, 0): gap 2.
        assert_eq!(idx.nearest(Point::new(10, 4)), Some((0, 2)));
        // Far outside the grid: the corner rect wins.
        let (id, gap) = idx.nearest(Point::new(2000, 2000)).unwrap();
        assert_eq!(id, 99);
        assert_eq!(gap, 2000 - 908);
    }

    #[test]
    fn nearest_agrees_with_naive_scan() {
        let rects = grid_rects(7, 3, 10, 37);
        let idx = SpatialIndex::build(&rects);
        for p in [
            Point::new(0, 0),
            Point::new(-50, 80),
            Point::new(300, 50),
            Point::new(130, 130),
            Point::new(36, 36),
        ] {
            let naive = rects
                .iter()
                .enumerate()
                .map(|(i, &r)| (rect_point_gap(r, p), i))
                .min()
                .map(|(g, i)| (i, g));
            assert_eq!(idx.nearest(p), naive, "point {p}");
        }
    }

    #[test]
    fn degenerate_rects_are_indexed() {
        let rects = vec![Rect::new(5, 5, 5, 5), Rect::new(5, 0, 5, 10)];
        let idx = SpatialIndex::build(&rects);
        let got: Vec<usize> = idx.query(Rect::new(5, 5, 5, 5)).collect();
        assert_eq!(got, vec![0, 1]);
    }

    /// Xorshift stream for the soups below.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn sorted(it: impl Iterator<Item = u32>) -> Vec<usize> {
        let mut v: Vec<usize> = it.map(|id| id as usize).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn bucket_grid_build_matches_naive() {
        let mut next = xorshift(0x9E3779B97F4A7C15);
        let rects: Vec<Rect> = (0..500)
            .map(|_| {
                let x = (next() % 10_000) as i64;
                let y = (next() % 10_000) as i64;
                let w = (next() % 400) as i64;
                let h = (next() % 400) as i64;
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let grid = BucketGrid::build(rects.clone());
        assert_eq!(grid.len(), rects.len());
        for i in (0..rects.len()).step_by(7) {
            let got = sorted(grid.query(rects[i]));
            assert_eq!(got, naive_touching(&rects, rects[i]), "rect {i}");
        }
        for window in [
            Rect::new(-100, -100, -50, -50),
            Rect::new(-1 << 40, -1 << 40, 1 << 40, 1 << 40),
            Rect::new(5000, 5000, 5000, 5000),
        ] {
            let got = sorted(grid.query(window));
            assert_eq!(got, naive_touching(&rects, window), "window {window}");
        }
    }

    /// Random inserts, removes and moves — many far outside the build
    /// bounds, at negative coordinates, or wider than the whole grid —
    /// keep every query exact, and recycled nodes keep the arena at
    /// its high-water mark.
    #[test]
    fn bucket_grid_stays_exact_under_churn() {
        let mut next = xorshift(0xD1B54A32D192ED03);
        let rand_rect = |next: &mut dyn FnMut() -> u64| {
            let (x, y) = match next() % 4 {
                0 => (-(1 << 31) + (next() % 5000) as i64, (next() % 5000) as i64),
                1 => (
                    (1 << 31) - (next() % 5000) as i64,
                    -((next() % 90_000) as i64),
                ),
                _ => ((next() % 1000) as i64, (next() % 1000) as i64),
            };
            let w = if next().is_multiple_of(50) {
                1 << 33
            } else {
                (next() % 60) as i64
            };
            Rect::new(x, y, x + w, y + (next() % 60) as i64)
        };
        let mut live: Vec<Option<Rect>> = (0..64)
            .map(|i| Some(Rect::new(i * 15, i * 15, i * 15 + 10, i * 15 + 10)))
            .collect();
        let start: Vec<Rect> = live.iter().map(|r| r.unwrap()).collect();
        let mut grid = BucketGrid::build(start);
        let mut high_water = grid.nodes.len();
        for step in 0..3000 {
            let id = (next() % live.len() as u64) as usize;
            match live[id] {
                Some(r) => {
                    assert_eq!(grid.rect(id as u32), r);
                    assert!(grid.remove(id as u32), "step {step}");
                    assert!(!grid.remove(id as u32), "step {step}");
                    live[id] = None;
                }
                None => {
                    let r = rand_rect(&mut next);
                    grid.insert(id as u32, r);
                    live[id] = Some(r);
                }
            }
            if step % 50 == 0 {
                let window = rand_rect(&mut next).inflated((next() % 3000) as i64);
                let want: Vec<usize> = live
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.is_some_and(|r| r.touches(window)))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(sorted(grid.query(window)), want, "step {step}");
            }
            high_water = high_water.max(grid.nodes.len());
        }
        assert_eq!(grid.len(), live.iter().flatten().count());
        assert!(!grid.remove(u32::MAX));
        // Move every live entry back and forth: no node is ever leaked.
        let before = grid.nodes.len();
        for _ in 0..10 {
            for (id, r) in live.iter().enumerate() {
                if let Some(r) = *r {
                    assert!(grid.remove(id as u32));
                    grid.insert(id as u32, r);
                }
            }
        }
        assert_eq!(grid.nodes.len(), before);
        assert!(before <= high_water);
    }

    #[test]
    fn empty_bucket_grid_grows_and_within_matches_spatial_index() {
        let rects = grid_rects(9, 7, 8, 20);
        let spatial = SpatialIndex::build(&rects);
        let mut grid = BucketGrid::build(Vec::new()).empty_like();
        assert!(grid.is_empty());
        for (i, &r) in rects.iter().enumerate() {
            grid.insert(i as u32, r);
        }
        for &r in &rects {
            for dist in [0, 5, 12, 40] {
                let want: Vec<usize> = spatial.within(r, dist).collect();
                assert_eq!(sorted(grid.within(r, dist)), want);
            }
        }
    }

    #[test]
    fn query_counter_ticks() {
        let before = riot_trace::registry().counter("geom.index.queries").get();
        let idx = SpatialIndex::build(&[Rect::new(0, 0, 1, 1)]);
        let _ = idx.query(Rect::new(0, 0, 2, 2)).count();
        let after = riot_trace::registry().counter("geom.index.queries").get();
        assert!(after > before);
    }
}
