//! Straight-line "bring out" routes.
//!
//! When connectors are routed *past* a composition cell's bounding box,
//! Riot makes "a simple straight-line route cell for those connectors to
//! the edge of the cell". This module builds that cell.

use crate::error::RouteError;
use crate::terminal::Terminal;
use riot_geom::{Layer, Path, Point, Rect, Side};
use riot_sticks::{Pin, SticksCell, SymWire};
use std::collections::HashSet;

/// Builds a straight-line route cell: every terminal is extended
/// perpendicular to its edge by `length` lambda.
///
/// The bottom edge keeps the terminal names; top pins get primes
/// appended on collision, exactly like river-route cells.
///
/// # Errors
///
/// [`RouteError::Empty`] with no terminals, [`RouteError::BadWidth`]
/// for non-positive widths, and [`RouteError::TerminalsTooClose`] when
/// two same-layer terminals violate spacing.
pub fn straight_route(
    terminals: &[Terminal],
    length: i64,
    name: impl Into<String>,
) -> Result<SticksCell, RouteError> {
    let _sp = riot_trace::span!("route.straight", terminals = terminals.len() as u64);
    if terminals.is_empty() {
        return Err(RouteError::Empty);
    }
    let length = length.max(1);
    for (i, t) in terminals.iter().enumerate() {
        if t.width <= 0 {
            return Err(RouteError::BadWidth {
                net: i,
                width: t.width,
            });
        }
    }
    // Same-layer spacing along the edge.
    let mut layers: Vec<_> = terminals.iter().map(|t| t.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    for layer in layers {
        let mut ts: Vec<(i64, i64)> = terminals
            .iter()
            .filter(|t| t.layer == layer)
            .map(|t| (t.offset, t.width))
            .collect();
        ts.sort_unstable();
        let spacing = crate::river::spacing_lambda(layer);
        for w in ts.windows(2) {
            if w[1].0 - w[0].0 < w[0].1 / 2 + w[1].1 / 2 + spacing {
                return Err(RouteError::TerminalsTooClose {
                    layer,
                    offsets: (w[0].0, w[1].0),
                });
            }
        }
    }

    // The emptiness check above guarantees these; keep them typed so a
    // regression there can never panic a session.
    let xmin = terminals
        .iter()
        .map(|t| t.offset)
        .min()
        .ok_or(RouteError::Empty)?;
    let xmax = terminals
        .iter()
        .map(|t| t.offset)
        .max()
        .ok_or(RouteError::Empty)?;
    let wmax = terminals
        .iter()
        .map(|t| t.width)
        .max()
        .ok_or(RouteError::Empty)?;
    let pad = wmax / 2 + 2;
    let bbox = Rect::new(xmin - pad, 0, xmax + pad, length);
    let mut cell = SticksCell::new(name, bbox);
    let mut used = HashSet::new();
    for t in terminals {
        let pin = |y| (t.layer, Point::new(t.offset, y), t.width);
        push_pin_pair(&mut cell, &mut used, &t.name, [pin(0), pin(length)]);
        cell.push_wire(SymWire {
            layer: t.layer,
            width: t.width,
            path: Path::from_points([Point::new(t.offset, 0), Point::new(t.offset, length)])
                .map_err(|_| RouteError::Internal {
                    context: "degenerate bring-out wire",
                })?,
        });
    }
    Ok(cell)
}

/// Returns `base` if unused, else `base` with primes appended until
/// unique, registering the result in `used`.
pub(crate) fn unique_pin_name(base: &str, used: &mut HashSet<String>) -> String {
    let mut name = base.to_owned();
    while !used.insert(name.clone()) {
        name.push('\'');
    }
    name
}

/// Adds a net's two pins to `cell`, `[bottom, top]` as `(layer,
/// position, width)`, named by [`unique_pin_name`] in that order.
pub(crate) fn push_pin_pair(
    cell: &mut SticksCell,
    used: &mut HashSet<String>,
    net: &str,
    [bottom, top]: [(Layer, Point, i64); 2],
) {
    for (side, (layer, position, width)) in [(Side::Bottom, bottom), (Side::Top, top)] {
        let name = unique_pin_name(net, used);
        cell.push_pin(Pin {
            name,
            side,
            layer,
            position,
            width,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_geom::Layer;

    #[test]
    fn brings_out_connectors() {
        let ts = vec![
            Terminal::new("vdd", 0, Layer::Metal, 3),
            Terminal::new("clk", 10, Layer::Poly, 2),
        ];
        let cell = straight_route(&ts, 6, "out0").unwrap();
        cell.validate().unwrap();
        assert_eq!(cell.bbox().height(), 6);
        assert_eq!(cell.pins().len(), 4);
        assert_eq!(cell.wires().len(), 2);
        assert_eq!(cell.pin("vdd").unwrap().position.y, 0);
        assert_eq!(cell.pin("vdd'").unwrap().position.y, 6);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            straight_route(&[], 4, "x"),
            Err(RouteError::Empty)
        ));
    }

    #[test]
    fn close_same_layer_terminals_rejected() {
        let ts = vec![
            Terminal::new("a", 0, Layer::Metal, 3),
            Terminal::new("b", 4, Layer::Metal, 3),
        ];
        assert!(matches!(
            straight_route(&ts, 4, "x"),
            Err(RouteError::TerminalsTooClose { .. })
        ));
    }

    #[test]
    fn different_layers_may_sit_close() {
        let ts = vec![
            Terminal::new("a", 0, Layer::Metal, 3),
            Terminal::new("b", 2, Layer::Poly, 2),
        ];
        assert!(straight_route(&ts, 4, "x").is_ok());
    }

    #[test]
    fn unique_names() {
        let mut used = HashSet::new();
        assert_eq!(unique_pin_name("a", &mut used), "a");
        assert_eq!(unique_pin_name("a", &mut used), "a'");
        assert_eq!(unique_pin_name("a", &mut used), "a''");
    }

    #[test]
    fn zero_length_clamped() {
        let ts = vec![Terminal::new("a", 0, Layer::Metal, 3)];
        let cell = straight_route(&ts, 0, "x").unwrap();
        assert_eq!(cell.bbox().height(), 1);
    }
}
