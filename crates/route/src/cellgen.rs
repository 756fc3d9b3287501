//! Route-cell generation: turning a finished route into a Sticks cell.
//!
//! "Riot then makes a new Sticks cell containing the river route wires
//! and places an instance of that route cell next to the to instance."
//! Grid routes become route cells the same way, with a contact per via.
//! Route cells are ordinary cells: they appear in the cell menu and can
//! be instantiated, moved and deleted like anything else.

use crate::grid::GridRoute;
use crate::river::RiverRoute;
use crate::straight::push_pin_pair;
use riot_geom::Rect;
use riot_sticks::{Contact, SticksCell, SymWire};

impl RiverRoute {
    /// Builds the Sticks route cell for this route.
    ///
    /// Bottom-edge pins keep the net names; top-edge pins get a prime
    /// (`'`) appended when the name would collide. The cell's bounding
    /// box spans the terminal extent plus a design-rule margin on each
    /// side.
    pub fn to_sticks_cell(&self, name: impl Into<String>) -> SticksCell {
        let mut xmin = i64::MAX;
        let mut xmax = i64::MIN;
        let mut wmax: i64 = 0;
        for w in self.wires() {
            for &p in w.path.points() {
                xmin = xmin.min(p.x);
                xmax = xmax.max(p.x);
            }
            wmax = wmax.max(w.width);
        }
        let pad = wmax / 2 + 2;
        let bbox = Rect::new(xmin - pad, 0, xmax + pad, self.height());
        let mut cell = SticksCell::new(name, bbox);

        let mut used = std::collections::HashSet::new();
        for w in self.wires() {
            let pins = [w.path.start(), w.path.end()].map(|p| (w.layer, p, w.width));
            push_pin_pair(&mut cell, &mut used, &w.name, pins);
            cell.push_wire(SymWire {
                layer: w.layer,
                width: w.width,
                path: w.path.clone(),
            });
        }
        cell
    }
}

impl GridRoute {
    /// Builds the Sticks route cell for this route: wires per segment,
    /// a contact per via, pins on both channel edges (primed on name
    /// collision, like the river cell).
    pub fn to_sticks_cell(&self, name: impl Into<String>) -> SticksCell {
        let mut xmin = i64::MAX;
        let mut xmax = i64::MIN;
        let mut wmax: i64 = 0;
        for w in self.wires() {
            for (_, sw, path) in &w.segments {
                wmax = wmax.max(*sw);
                for &p in path.points() {
                    xmin = xmin.min(p.x);
                    xmax = xmax.max(p.x);
                }
            }
            for v in &w.vias {
                xmin = xmin.min(v.position.x);
                xmax = xmax.max(v.position.x);
            }
        }
        let pad = (wmax + 1) / 2 + 2;
        let bbox = Rect::new(xmin - pad, 0, xmax + pad, self.height());
        let mut cell = SticksCell::new(name, bbox);

        let mut used = std::collections::HashSet::new();
        for w in self.wires() {
            if let (Some((bl, bw, bp)), Some((tl, tw, tp))) =
                (w.segments.first(), w.segments.last())
            {
                let pins = [(*bl, bp.start(), *bw), (*tl, tp.end(), *tw)];
                push_pin_pair(&mut cell, &mut used, &w.name, pins);
            }
            for (layer, sw, path) in &w.segments {
                cell.push_wire(SymWire {
                    layer: *layer,
                    width: *sw,
                    path: path.clone(),
                });
            }
            for v in &w.vias {
                cell.push_contact(Contact {
                    kind: v.kind,
                    position: v.position,
                });
            }
        }
        cell
    }
}

#[cfg(test)]
mod tests {
    use crate::river::river_route;
    use crate::terminal::{RouteProblem, Terminal};
    use riot_geom::{Layer, Side};

    fn route_cell() -> riot_sticks::SticksCell {
        let p = RouteProblem::new(
            vec![
                Terminal::new("a", 0, Layer::Metal, 3),
                Terminal::new("b", 10, Layer::Poly, 2),
            ],
            vec![
                Terminal::new("a", 8, Layer::Metal, 3),
                Terminal::new("b", 22, Layer::Poly, 2),
            ],
        );
        river_route(&p).unwrap().to_sticks_cell("r0")
    }

    #[test]
    fn route_cell_is_valid_sticks_with_contacts() {
        let p = RouteProblem::new(
            vec![
                Terminal::new("a", 0, Layer::Poly, 2),
                Terminal::new("b", 10, Layer::Diffusion, 2),
            ],
            vec![
                Terminal::new("a", 0, Layer::Metal, 3),
                Terminal::new("b", 10, Layer::Metal, 3),
            ],
        );
        let r = crate::grid_route(&p, &[]).unwrap();
        let cell = r.to_sticks_cell("g0");
        cell.validate().unwrap();
        assert!(cell.contacts().len() >= 2);
        let cif = riot_sticks::mask::to_cif_cell(&cell, 1);
        assert!(cif.shapes.len() >= 4);
        // Pins keep net names, primes on collision.
        assert!(cell.pin("a").is_some());
        assert!(cell.pin("a'").is_some());
    }

    #[test]
    fn route_cell_is_valid_sticks() {
        let cell = route_cell();
        cell.validate().unwrap();
        assert_eq!(cell.name(), "r0");
    }

    #[test]
    fn pins_on_both_edges() {
        let cell = route_cell();
        assert_eq!(cell.pins_on_side(Side::Bottom).len(), 2);
        assert_eq!(cell.pins_on_side(Side::Top).len(), 2);
        // Net names survive; top duplicates get primes.
        assert!(cell.pin("a").is_some());
        assert!(cell.pin("a'").is_some());
    }

    #[test]
    fn cell_round_trips_through_sticks_text() {
        let cell = route_cell();
        let text = riot_sticks::to_text(&cell);
        let again = riot_sticks::parse(&text).unwrap();
        assert_eq!(cell, again);
    }

    #[test]
    fn mask_generation_works_on_route_cells() {
        let cell = route_cell();
        let cif = riot_sticks::mask::to_cif_cell(&cell, 3);
        assert_eq!(cif.connectors.len(), 4);
        assert_eq!(cif.shapes.len(), 2);
    }
}
