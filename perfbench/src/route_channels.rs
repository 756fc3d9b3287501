//! `route-channels`: a seeded set of channels through
//! [`riot::route::solve`], the entry the ROUTE command uses, each
//! result turned into its route cell.
//!
//! Most channels are layer-changing obstacle channels
//! ([`riot_bench::grid_route_workload`] with
//! [`riot_bench::grid_route_obstacles`]): the river precondition fails
//! and `solve` falls back to the grid router. A few are congested
//! single-layer channels sent with engine Grid
//! ([`riot_bench::route_problem`]`(n, 20, 7)`); the 256-net one ends at
//! the grid router's restart limit. Every channel of the set routes:
//! the 288-net channel of the same seed, which ends `Unroutable` after
//! seconds of search, is not in it.

use crate::metrics::{mean, median, peak_rss_mb, percentile, Report, Rng};
use crate::Args;
use riot::drc::RuleSet;
use riot::geom::{Layer, Rect};
use riot::route::{
    grid, grid_route, river_route, solve, GridStats, RouteError, RouteProblem, RouteResult,
    RouterEngine, RouterOptions,
};
use riot::sticks::SticksCell;
use std::time::Instant;

/// Obstacle channels as (net count, channels of that size), each with
/// its own seeded layout. The 256-net group holds the median channel
/// of the whole set, so `op_p50_us` is the middle of one homogeneous
/// group rather than a boundary between two.
const OBSTACLE_CHANNELS: [(usize, usize); 4] = [(64, 8), (128, 8), (256, 16), (512, 8)];
/// Net counts of the congested channels. A run routes each equally
/// often, so `minor_p50_us` is the middle of the 192-net samples.
const CONGESTED_SIZES: [usize; 3] = [128, 192, 256];
const CONGESTED_SHIFT: i64 = 20;
const CONGESTED_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// One channel to route.
struct Channel {
    problem: RouteProblem,
    obstacles: Vec<(Layer, Rect)>,
    congested: bool,
}

/// The channel set for `seed`.
fn channels(seed: u64) -> Vec<Channel> {
    let mut rng = Rng::new(seed, 0x20C7E);
    let mut out = Vec::new();
    for &(n, count) in &OBSTACLE_CHANNELS {
        for _ in 0..count {
            let s = rng.next_u64();
            out.push(Channel {
                problem: riot_bench::grid_route_workload(n, s),
                obstacles: riot_bench::grid_route_obstacles(n, n, s),
                congested: false,
            });
        }
    }
    for &n in &CONGESTED_SIZES {
        out.push(Channel {
            problem: riot_bench::route_problem(n, CONGESTED_SHIFT, CONGESTED_SEED).with_options(
                RouterOptions {
                    engine: RouterEngine::Grid,
                    ..RouterOptions::new()
                },
            ),
            obstacles: Vec::new(),
            congested: true,
        });
    }
    out
}

/// Nanoseconds per layer for one traced channel.
#[derive(Default, Clone, Copy)]
struct RouteNs {
    river: f64,
    grid: f64,
    cellgen: f64,
}

/// Routes one channel and builds its route cell: `solve` when
/// untraced; with `traced`, the same dispatch `solve` makes (river
/// attempt, grid fallback) with each call timed.
fn route(
    c: &Channel,
    traced: bool,
) -> (f64, RouteNs, Result<(RouteResult, SticksCell), RouteError>) {
    let mut ns = RouteNs::default();
    let start = Instant::now();
    let result = if traced {
        let river = match c.problem.options.engine {
            RouterEngine::River => {
                let t = Instant::now();
                let r = river_route(&c.problem);
                ns.river = t.elapsed().as_nanos() as f64;
                Some(r)
            }
            RouterEngine::Grid => None,
        };
        match river {
            Some(Ok(r)) => Ok(RouteResult::River(r)),
            None
            | Some(Err(RouteError::LayerMismatch { .. }))
            | Some(Err(RouteError::NotRiverRoutable { .. })) => {
                let t = Instant::now();
                let g = grid_route(&c.problem, &c.obstacles);
                ns.grid = t.elapsed().as_nanos() as f64;
                g.map(RouteResult::Grid)
            }
            Some(Err(e)) => Err(e),
        }
    } else {
        solve(&c.problem, &c.obstacles)
    };
    let result = result.map(|r| {
        let t = Instant::now();
        let cell = r.to_sticks_cell("perfbench_route");
        ns.cellgen = t.elapsed().as_nanos() as f64;
        (r, cell)
    });
    (start.elapsed().as_nanos() as f64, ns, result)
}

/// A routed channel connects every net, clears every obstacle, and its
/// route cell is valid and DRC-clean at mask level.
fn check(c: &Channel, r: &RouteResult, cell: &SticksCell) -> Result<(), String> {
    if r.net_count() != c.problem.bottom.len() {
        return Err(format!(
            "routed {} of {} nets",
            r.net_count(),
            c.problem.bottom.len()
        ));
    }
    if let RouteResult::Grid(g) = r {
        grid::verify_clearance(g, &c.obstacles)?;
    }
    cell.validate().map_err(|e| format!("route cell: {e}"))?;
    let shapes: Vec<riot::cif::FlatShape> = riot::sticks::mask::to_cif_cell(cell, 1)
        .shapes
        .into_iter()
        .map(|s| riot::cif::FlatShape {
            layer: s.layer,
            geometry: s.geometry,
            depth: 0,
        })
        .collect();
    let violations = riot::drc::check(&shapes, &RuleSet::nmos());
    if !violations.is_empty() {
        return Err(format!(
            "route cell has {} DRC violations, first {:?}",
            violations.len(),
            violations[0]
        ));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut set = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        set = channels(args.seed);
        setups.push(t.elapsed().as_secs_f64());
    }

    // The run repeats passes over the whole set until the measured
    // time is up, so that every channel is sampled across the run.
    let mut obstacle = Vec::new();
    let mut congested = Vec::new();
    let mut layers = Vec::new();
    let mut stats = GridStats::default();
    let mut checked = vec![false; set.len()];
    let (mut attempted, mut failed, mut routed_nets, mut distinct_nets) = (0u64, 0u64, 0u64, 0u64);
    let mut busy_s = 0.0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        for (i, c) in set.iter().enumerate() {
            let (total_ns, ns, result) = route(c, args.trace);
            attempted += 1;
            busy_s += total_ns / 1e9;
            if args.trace {
                layers.push((total_ns, ns));
            }
            if c.congested {
                congested.push(total_ns / 1e3);
            } else {
                obstacle.push(total_ns / 1e3);
            }
            match result {
                Ok((r, cell)) => {
                    routed_nets += r.net_count() as u64;
                    // Checks and solver counters once per distinct
                    // channel: the counters of one channel repeat
                    // exactly.
                    if !checked[i] {
                        check(c, &r, &cell).map_err(|e| format!("channel {i}: {e}"))?;
                        checked[i] = true;
                        distinct_nets += r.net_count() as u64;
                        if let RouteResult::Grid(g) = &r {
                            let s = g.stats();
                            stats.expansions += s.expansions;
                            stats.vias += s.vias;
                            stats.conflicts += s.conflicts;
                            stats.retries += s.retries;
                            stats.restarts += s.restarts;
                        }
                    }
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("channel {i} ({} nets): {e}", c.problem.bottom.len());
                }
            }
        }
    }
    let mut rep = Report::new(attempted, failed);
    if args.trace {
        // Tracing overhead: every obstacle channel once more each way,
        // interleaved so that both halves see the same machine state.
        let (mut traced_obstacle, mut untraced_obstacle) = (Vec::new(), Vec::new());
        for (i, c) in set.iter().filter(|c| !c.congested).enumerate() {
            for traced in [i % 2 == 0, i % 2 != 0] {
                let ns = route(c, traced).0;
                if traced {
                    traced_obstacle.push(ns);
                } else {
                    untraced_obstacle.push(ns);
                }
            }
        }
        let per =
            |f: fn(&RouteNs) -> f64| mean(&layers.iter().map(|(_, n)| f(n)).collect::<Vec<_>>());
        let river = per(|n| n.river);
        let grid_ns = per(|n| n.grid);
        let cellgen = per(|n| n.cellgen);
        let total = mean(&layers.iter().map(|(t, _)| *t).collect::<Vec<_>>());
        let unattributed = total - (river + grid_ns + cellgen);
        rep.set("route.river.attempt_us", river / 1e3);
        rep.set("route.grid.solve_ms", grid_ns / 1e6);
        rep.set("route.cellgen_us", cellgen / 1e3);
        rep.set("route.op_total_ms", total / 1e6);
        rep.set("route.unattributed_us", unattributed / 1e3);
        rep.set("route.unattributed_share", unattributed / total);
        rep.set(
            "route.trace_overhead_us",
            (median(&mut traced_obstacle) - median(&mut untraced_obstacle)) / 1e3,
        );
        rep.set("e2e.work_per_s", routed_nets as f64 / busy_s);
        crate::metrics::set_tails(&mut rep, &mut obstacle, &mut congested);
        // Solver counters over the distinct channels of the set.
        let nets = distinct_nets as f64;
        rep.set(
            "route.grid.expansions_per_net",
            stats.expansions as f64 / nets,
        );
        rep.set("route.grid.conflicts", stats.conflicts as f64);
        rep.set("route.grid.restarts", stats.restarts as f64);
        rep.set("route.grid.vias", stats.vias as f64);
        rep.set(
            "route.grid.commit_ratio",
            nets / (nets + stats.conflicts as f64 + stats.retries as f64),
        );
    } else {
        rep.set("setup_s", median(&mut setups));
        rep.set("op_p50_us", percentile(&mut obstacle, 0.50));
        rep.set("minor_p50_us", percentile(&mut congested, 0.50));
        rep.set("ok_ratio", (attempted - failed) as f64 / attempted as f64);
        rep.set("peak_rss_mb", peak_rss_mb("self")?);
    }
    Ok(rep)
}
