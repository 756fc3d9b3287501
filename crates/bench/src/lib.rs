//! Shared workload generators for the benchmarks and the `figures`
//! regeneration binary.
//!
//! Workloads are deterministic (seeded [`rand::rngs::StdRng`]) so bench
//! runs and EXPERIMENTS.md numbers are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riot::geom::{Layer, Rect};
use riot::route::{RouteProblem, RouterOptions, Terminal};

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The type of the filesystem holding `path` (the longest mount point
/// in `/proc/self/mounts` that contains it), or `"unknown"` where that
/// table cannot be read.
pub fn host_filesystem(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_), Some(point), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let point = point.replace("\\040", " ");
        if path.starts_with(&point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), kind));
        }
    }
    best.map_or("unknown", |(_, kind)| kind).to_string()
}

/// A deterministic RNG for workload generation.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// An order-preserving metal route problem with `n` nets: both edges
/// get increasing offsets with random design-rule-respecting gaps, and
/// the top edge is shifted right by `shift` lambda (bigger shifts mean
/// more overlapping jog spans, hence more tracks).
pub fn route_problem(n: usize, shift: i64, seed: u64) -> RouteProblem {
    let mut r = rng(seed);
    let mut bottom = Vec::with_capacity(n);
    let mut top = Vec::with_capacity(n);
    let (mut xb, mut xt) = (0i64, shift);
    for i in 0..n {
        xb += 6 + r.gen_range(0..8);
        xt += 6 + r.gen_range(0..8);
        bottom.push(Terminal::new(format!("n{i}"), xb, Layer::Metal, 3));
        top.push(Terminal::new(format!("n{i}"), xt, Layer::Metal, 3));
    }
    RouteProblem::new(bottom, top)
}

/// The same problem with a given channel capacity.
pub fn route_problem_with_capacity(n: usize, shift: i64, cap: usize, seed: u64) -> RouteProblem {
    route_problem(n, shift, seed).with_options(RouterOptions {
        tracks_per_channel: cap,
        ..RouterOptions::new()
    })
}

/// The grid-router channel height used by [`grid_route_workload`].
pub const GRID_WORKLOAD_HEIGHT: i64 = 48;

/// A synthetic chip channel the river router **cannot route at all**:
/// every net changes layers between its bottom and top terminal
/// (bottom on diffusion/poly/metal, top on a different routable
/// layer), so the river router's single-layer precondition fails on
/// net 0 — only the A* grid router, with vias, can solve it. Terminals
/// sit on jittered ~10λ columns with small top-edge jogs; the channel
/// height is pinned to [`GRID_WORKLOAD_HEIGHT`] so the obstacle field
/// from [`grid_route_obstacles`] stays clear of the terminal rows.
pub fn grid_route_workload(n: usize, seed: u64) -> RouteProblem {
    let mut r = rng(seed);
    let mut bottom = Vec::with_capacity(n);
    let mut top = Vec::with_capacity(n);
    let mut x = 0i64;
    for i in 0..n {
        x += 10 + r.gen_range(0..5);
        let blayer = Layer::ROUTABLE[r.gen_range(0..Layer::ROUTABLE.len())];
        let others: Vec<Layer> = Layer::ROUTABLE
            .iter()
            .copied()
            .filter(|l| *l != blayer)
            .collect();
        let tlayer = others[r.gen_range(0..others.len())];
        let jog = r.gen_range(-2..3);
        bottom.push(Terminal::new(format!("n{i}"), x, blayer, 2));
        top.push(Terminal::new(format!("n{i}"), x + jog, tlayer, 2));
    }
    RouteProblem::new(bottom, top).with_options(RouterOptions {
        exact_height: Some(GRID_WORKLOAD_HEIGHT),
        ..RouterOptions::new()
    })
}

/// The obstacle field that goes with [`grid_route_workload`]: `count`
/// blocks on random routable layers scattered across the channel's
/// mid-band (clear of both terminal escape zones), in channel-local
/// lambda. Dense enough to force detours and layer hops; sparse enough
/// that every net still has a path.
pub fn grid_route_obstacles(n: usize, count: usize, seed: u64) -> Vec<(Layer, Rect)> {
    let mut r = rng(seed ^ 0x0B57_AC1E);
    let span = 15 * n as i64 + 10;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let layer = Layer::ROUTABLE[r.gen_range(0..Layer::ROUTABLE.len())];
        let x0 = r.gen_range(0..span);
        let y0 = r.gen_range(14..33);
        let w = r.gen_range(3..7);
        let h = r.gen_range(2..5);
        out.push((layer, Rect::new(x0, y0, x0 + w, y0 + h)));
    }
    out
}

/// A comb cell with `n` left-edge pins for stretch benchmarks, plus a
/// stretch spec that moves every pin to a random (monotone) target.
pub fn stretch_workload(
    n: usize,
    seed: u64,
) -> (riot::sticks::SticksCell, riot::rest::StretchSpec) {
    let mut r = rng(seed);
    let cell = riot::cells::parametric::comb("bench", riot::geom::Side::Left, n, 6);
    // The comb's pins are at pitch 6; targets grow each gap by 0..8.
    let mut spec = riot::rest::StretchSpec::new(riot::rest::Axis::Y);
    let mut cum = 0;
    for i in 0..n {
        cum += r.gen_range(0..8);
        let original = 6 * (i as i64 + 1);
        spec.push_target(format!("P{i}"), original + cum);
    }
    (cell, spec)
}

/// CIF text for a synthetic chip with `cells` definitions of `shapes`
/// boxes each, and one top-level call per definition.
pub fn cif_workload(cells: usize, shapes: usize, seed: u64) -> String {
    let mut r = rng(seed);
    let mut out = String::new();
    use std::fmt::Write as _;
    for c in 1..=cells {
        let _ = writeln!(out, "DS {c} 1 1;");
        let _ = writeln!(out, "9 cell{c};");
        let _ = writeln!(out, "L NM;");
        for _ in 0..shapes {
            let x = r.gen_range(0..100_000);
            let y = r.gen_range(0..100_000);
            let w = 2 * r.gen_range(1..200);
            let h = 2 * r.gen_range(1..200);
            let _ = writeln!(out, "B {w} {h} {x} {y};");
        }
        let _ = writeln!(out, "94 P{c} 0 0 NM 250;");
        let _ = writeln!(out, "DF;");
    }
    for c in 1..=cells {
        let _ = writeln!(out, "C {c} T {} {};", (c as i64) * 1000, 0);
    }
    out.push_str("E\n");
    out
}

/// A flat soup of `n` boxes and wires spread over the four checked DRC
/// layers at roughly constant density (the occupied area grows with
/// `n`, so spacing-violation counts scale linearly, not quadratically).
pub fn rect_soup(n: usize, seed: u64) -> Vec<riot::cif::FlatShape> {
    use riot::cif::{FlatShape, Geometry};
    use riot::geom::{Layer, Path, Point, Rect, LAMBDA};
    let mut r = rng(seed);
    let layers = [Layer::Metal, Layer::Poly, Layer::Diffusion, Layer::Contact];
    let side = ((n as f64).sqrt() * 4.0).ceil() as i64 + 8;
    let mut shapes = Vec::with_capacity(n);
    for _ in 0..n {
        let layer = layers[r.gen_range(0..layers.len())];
        let x = r.gen_range(0..side) * LAMBDA;
        let y = r.gen_range(0..side) * LAMBDA;
        if r.gen_range(0..5) == 0 {
            let len = r.gen_range(2..10) * LAMBDA;
            let path = Path::from_points([
                Point::new(x, y),
                Point::new(x + len, y),
                Point::new(x + len, y + len),
            ])
            .expect("manhattan by construction");
            shapes.push(FlatShape {
                layer,
                geometry: Geometry::Wire {
                    width: r.gen_range(1..4) * LAMBDA,
                    path,
                },
                depth: 0,
            });
        } else {
            let w = r.gen_range(1..7) * LAMBDA;
            let h = r.gen_range(1..7) * LAMBDA;
            shapes.push(FlatShape {
                layer,
                geometry: Geometry::Box(Rect::new(x, y, x + w, y + h)),
                depth: 0,
            });
        }
    }
    shapes
}

/// CIF text for a DRC-clean chip built from one leaf symbol placed on
/// a `grid`×`grid` lattice — `leaf_shapes * grid * grid` flat shapes
/// total. Every box is 4λ×4λ metal with ≥4λ gaps inside the leaf and
/// ≥12λ between instances, so the whole chip passes `RuleSet::nmos`
/// with zero violations, and a single instance moved by ≤4λ stays
/// clean. This is the damage-region benchmark workload: huge chip, tiny
/// edits.
pub fn grid_chip(leaf_shapes: usize, grid: usize) -> String {
    use riot::geom::LAMBDA;
    use std::fmt::Write as _;
    assert!(leaf_shapes >= 1 && grid >= 1);
    let side = (leaf_shapes as f64).sqrt().ceil() as i64;
    let pitch = 8 * LAMBDA;
    let mut out = String::new();
    let _ = writeln!(out, "DS 1 1 1;");
    let _ = writeln!(out, "L NM;");
    for i in 0..leaf_shapes as i64 {
        let cx = (i % side) * pitch + 2 * LAMBDA;
        let cy = (i / side) * pitch + 2 * LAMBDA;
        let _ = writeln!(out, "B {} {} {cx} {cy};", 4 * LAMBDA, 4 * LAMBDA);
    }
    let _ = writeln!(out, "DF;");
    let instance_pitch = side * pitch + 8 * LAMBDA;
    for gy in 0..grid as i64 {
        for gx in 0..grid as i64 {
            let _ = writeln!(
                out,
                "C 1 T {} {};",
                gx * instance_pitch,
                gy * instance_pitch
            );
        }
    }
    out.push_str("E\n");
    out
}

/// CIF text for a deeply shared hierarchy: symbol `k` calls symbol
/// `k-1` `fanout` times (rotated and mirrored, so the flattener pays
/// full transform cost inside the tree), and the top level places the
/// deepest symbol `top_calls` times by translation. The flattened shape
/// count grows as `fanout^(levels-1)`, but there are only `levels`
/// distinct symbols — the memoizing flattener expands each exactly
/// once.
pub fn shared_hierarchy(
    levels: usize,
    fanout: usize,
    leaf_shapes: usize,
    top_calls: usize,
) -> String {
    use std::fmt::Write as _;
    assert!(levels >= 2 && fanout >= 1);
    let mut out = String::new();
    let orientations = ["R 0 1", "R -1 0", "R 0 -1", "M X", "M Y", "R 1 0"];
    for level in 1..=levels {
        let _ = writeln!(out, "DS {level} 1 1;");
        if level == 1 {
            let _ = writeln!(out, "L NM;");
            for s in 0..leaf_shapes {
                let x = (s as i64) * 700;
                if s % 4 != 3 {
                    // Multi-segment wires dominate assembled layouts;
                    // they are also where transform cost concentrates.
                    let _ = writeln!(
                        out,
                        "L NP; W 200 {x} 0 {x} 800 {} 800 {} 1600 {} 1600;",
                        x + 600,
                        x + 600,
                        x + 1200
                    );
                } else {
                    let _ = writeln!(out, "L NM; B 400 250 {x} {};", (s as i64) * 300);
                }
            }
        } else {
            for c in 0..fanout {
                let orient = orientations[c % orientations.len()];
                let _ = writeln!(
                    out,
                    "C {} T {} {} {orient};",
                    level - 1,
                    (c as i64) * 5000,
                    (level as i64) * 2500
                );
            }
        }
        let _ = writeln!(out, "DF;");
    }
    for c in 0..top_calls {
        let _ = writeln!(out, "C {levels} T {} 0;", (c as i64) * 100_000);
    }
    out.push_str("E\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_workloads_always_route() {
        for n in [4, 32] {
            for shift in [0, 50] {
                let p = route_problem(n, shift, 42);
                let r = riot::route::river_route(&p).expect("workload routable");
                assert_eq!(r.wires().len(), n);
            }
        }
    }

    #[test]
    fn grid_workload_routes_where_the_river_cannot() {
        let p = grid_route_workload(24, 7);
        let obstacles = grid_route_obstacles(24, 24, 7);
        assert!(
            matches!(
                riot::route::river_route(&p),
                Err(riot::route::RouteError::LayerMismatch { .. })
            ),
            "the workload must defeat the river router"
        );
        let route = riot::route::grid_route(&p, &obstacles).expect("grid routes it");
        assert_eq!(route.wires().len(), 24);
        riot::route::grid::verify_clearance(&route, &obstacles).unwrap();
    }

    #[test]
    fn workloads_deterministic() {
        assert_eq!(route_problem(16, 10, 7), route_problem(16, 10, 7));
        assert_eq!(cif_workload(3, 5, 1), cif_workload(3, 5, 1));
    }

    #[test]
    fn stretch_workload_feasible() {
        let (cell, spec) = stretch_workload(8, 3);
        let out = riot::rest::stretch(&cell, &spec).expect("monotone targets");
        out.validate().unwrap();
    }

    #[test]
    fn rect_soup_is_deterministic_and_checkable() {
        let a = rect_soup(200, 11);
        assert_eq!(a, rect_soup(200, 11));
        let rules = riot::drc::RuleSet::nmos();
        let indexed = riot::drc::check(&a, &rules);
        let naive = riot::drc::naive::check(&a, &rules);
        assert_eq!(indexed.len(), naive.len());
    }

    #[test]
    fn shared_hierarchy_flattens_both_ways() {
        let text = shared_hierarchy(4, 3, 4, 2);
        let file = riot::cif::parse(&text).unwrap();
        let memo = riot::cif::flatten(&file).unwrap();
        let rec = riot::cif::flatten_recursive(&file).unwrap();
        assert_eq!(memo, rec);
        // fanout^(levels-1) leaf instances per top call, times shapes.
        assert!(memo.len() >= 2 * 27 * 4);
    }

    #[test]
    fn grid_chip_is_drc_clean_and_sized_right() {
        let file = riot::cif::parse(&grid_chip(9, 3)).unwrap();
        let flat = riot::cif::flatten(&file).unwrap();
        assert_eq!(flat.len(), 9 * 3 * 3);
        let violations = riot::drc::check(&flat, &riot::drc::RuleSet::nmos());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn cif_workload_parses() {
        let f = riot::cif::parse(&cif_workload(4, 10, 9)).unwrap();
        assert_eq!(f.cells().len(), 4);
        assert_eq!(f.top_calls().len(), 4);
    }
}
