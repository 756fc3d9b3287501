//! Differential properties of the grid maze router, checked through
//! the *other* subsystems: every route it emits must pass the real
//! mask-level DRC (`riot::drc`), clear every obstacle it was given
//! (`grid::verify_clearance`), and come out bit-identical at any
//! planner thread count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riot::drc::RuleSet;
use riot::geom::{par, Layer, Rect};
use riot::route::{grid, grid_route, river_route, GridRoute, RouteProblem, Terminal};

/// Layer-appropriate terminal width (metal's minimum is 3λ).
fn width_for(layer: Layer) -> i64 {
    if layer == Layer::Metal {
        3
    } else {
        2
    }
}

/// Builds an order-preserving channel from per-net (gap, bottom-layer,
/// top-layer, jog) picks. Layers come from `Layer::ROUTABLE` indices,
/// so nets freely mismatch layers — the case the river router rejects.
fn channel(nets: &[(i64, u8, u8, i64)]) -> RouteProblem {
    let mut bottom = Vec::with_capacity(nets.len());
    let mut top = Vec::with_capacity(nets.len());
    let mut x = 0i64;
    for (i, &(gap, bl, tl, jog)) in nets.iter().enumerate() {
        x += 10 + gap;
        let blayer = Layer::ROUTABLE[bl as usize % Layer::ROUTABLE.len()];
        let tlayer = Layer::ROUTABLE[tl as usize % Layer::ROUTABLE.len()];
        bottom.push(Terminal::new(format!("n{i}"), x, blayer, width_for(blayer)));
        top.push(Terminal::new(
            format!("n{i}"),
            x + jog,
            tlayer,
            width_for(tlayer),
        ));
    }
    RouteProblem::new(bottom, top)
}

/// Full mask-level DRC of the routed cell: sticks → CIF shapes →
/// `RuleSet::nmos`.
fn drc_violations(route: &GridRoute) -> Vec<riot::drc::Violation> {
    let cell = route.to_sticks_cell("grid_route_prop");
    cell.validate().expect("route cell validates");
    let shapes: Vec<riot::cif::FlatShape> = riot::sticks::mask::to_cif_cell(&cell, 1)
        .shapes
        .into_iter()
        .map(|s| riot::cif::FlatShape {
            layer: s.layer,
            geometry: s.geometry,
            depth: 0,
        })
        .collect();
    riot::drc::check(&shapes, &RuleSet::nmos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Obstacle-free channels always route, the result is DRC-clean at
    /// mask level, and 1-thread and 4-thread planning agree exactly.
    #[test]
    fn random_channels_route_drc_clean_and_thread_invariant(
        nets in prop::collection::vec((0i64..5, 0u8..3, 0u8..3, -2i64..3), 2..10)
    ) {
        let problem = channel(&nets);
        par::set_threads(1);
        let serial = grid_route(&problem, &[]);
        par::set_threads(4);
        let parallel = grid_route(&problem, &[]);
        par::set_threads(0);
        let route = serial.expect("obstacle-free channel routes");
        prop_assert_eq!(&route, &parallel.expect("parallel solve agrees"));
        let v = drc_violations(&route);
        prop_assert!(v.is_empty(), "grid route has DRC violations: {v:?}");
    }

    /// Against a random obstacle soup the router either reports the
    /// channel unroutable or returns geometry that clears every
    /// obstacle by the layer's spacing rule *and* passes mask DRC.
    #[test]
    fn random_obstacle_soups_are_respected(
        nets in prop::collection::vec((0i64..5, 0u8..3, 0u8..3, -2i64..3), 2..8),
        blocks in prop::collection::vec(
            (0u8..3, 0i64..120, 8i64..30, 3i64..7, 2i64..5), 0..12
        )
    ) {
        let problem = channel(&nets);
        let obstacles: Vec<(Layer, Rect)> = blocks
            .iter()
            .map(|&(l, x0, y0, w, h)| {
                let layer = Layer::ROUTABLE[l as usize % Layer::ROUTABLE.len()];
                (layer, Rect::new(x0, y0, x0 + w, y0 + h))
            })
            .collect();
        if let Ok(route) = grid_route(&problem, &obstacles) {
            grid::verify_clearance(&route, &obstacles)
                .map_err(TestCaseError::fail)?;
            let v = drc_violations(&route);
            prop_assert!(v.is_empty(), "grid route has DRC violations: {v:?}");
        }
    }
}

#[test]
fn crossing_layer_pair_defeats_river_but_grid_routes() {
    // The canonical case the tentpole exists for: terminals whose
    // layers differ end-to-end. The river router refuses (it cannot
    // change layers); the grid router places vias and succeeds.
    let problem = RouteProblem::new(
        vec![
            Terminal::new("a", 10, Layer::Poly, 2),
            Terminal::new("b", 20, Layer::Metal, 3),
        ],
        vec![
            Terminal::new("a", 20, Layer::Metal, 3),
            Terminal::new("b", 30, Layer::Poly, 2),
        ],
    );
    assert!(river_route(&problem).is_err(), "river must reject");
    let route = grid_route(&problem, &[]).expect("grid routes the crossing pair");
    assert_eq!(route.wires().len(), 2);
    assert!(route.stats().vias >= 2, "layer changes need vias");
    let v = drc_violations(&route);
    assert!(
        v.is_empty(),
        "crossing-pair route has DRC violations: {v:?}"
    );
}

/// A single-layer, order-preserving channel from per-net (bottom gap,
/// top gap) picks on `layer`: river-routable whenever the river router
/// accepts its spacing.
fn river_channel(layer: Layer, gaps: &[(i64, i64)], shift: i64) -> RouteProblem {
    let w = width_for(layer);
    let (mut xb, mut xt) = (0, shift);
    let (mut bottom, mut top) = (Vec::new(), Vec::new());
    for (i, &(gb, gt)) in gaps.iter().enumerate() {
        xb += 6 + gb;
        xt += 6 + gt;
        bottom.push(Terminal::new(format!("n{i}"), xb, layer, w));
        top.push(Terminal::new(format!("n{i}"), xt, layer, w));
    }
    RouteProblem::new(bottom, top)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Completeness against the river router: every small single-layer
    /// channel the river router solves, the grid router solves too, and
    /// its route clears spacing and passes mask DRC.
    #[test]
    fn river_routable_channels_grid_route_clean(
        layer in 0u8..3,
        gaps in prop::collection::vec((0i64..8, 0i64..8), 1..7),
        shift in -16i64..17,
    ) {
        let problem = river_channel(Layer::ROUTABLE[layer as usize], &gaps, shift);
        prop_assume!(river_route(&problem).is_ok());
        let route = grid_route(&problem, &[]).expect("river-routable channel grid-routes");
        grid::verify_clearance(&route, &[]).map_err(TestCaseError::fail)?;
        let v = drc_violations(&route);
        prop_assert!(v.is_empty(), "grid route has DRC violations: {v:?}");
    }
}

/// `riot_bench::route_problem(n, 20, 7)`, the benchmark's congested
/// all-metal channel family (rebuilt here: the benchmark crate depends
/// on this one).
fn congested_channel(n: usize) -> RouteProblem {
    let mut rng = StdRng::seed_from_u64(7);
    let gaps: Vec<(i64, i64)> = (0..n)
        .map(|_| (rng.gen_range(0..8), rng.gen_range(0..8)))
        .collect();
    river_channel(Layer::Metal, &gaps, 20)
}

#[test]
fn congested_288_net_channel_routes_clean() {
    // The 288-net channel of the benchmark's congested family, which
    // ended `Unroutable` before the nets negotiated congestion.
    let problem = congested_channel(288);
    let route = grid_route(&problem, &[]).expect("288-net congested channel routes");
    assert_eq!(route.wires().len(), 288);
    grid::verify_clearance(&route, &[]).expect("clearance");
    let v = drc_violations(&route);
    assert!(v.is_empty(), "288-net route has DRC violations: {v:?}");
}
