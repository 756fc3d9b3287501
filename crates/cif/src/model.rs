//! Semantic CIF model: cells, shapes, calls and connectors.

use crate::ast::{CifCommand, TransformPrimitive};
use crate::error::{ErrorKind, ParseCifError};
use riot_geom::{Layer, Orientation, Path, Point, Rect, Transform};
use std::collections::BTreeMap;

/// A connector declared with the Riot `94` user extension:
/// `94 name x y layer [width];`.
///
/// Riot uses connectors for its logical connection operations; the size
/// and color of the connector cross on screen indicate the width and
/// layer of the wire making the connection inside the cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CifConnector {
    /// Connector name, unique within its cell.
    pub name: String,
    /// Location in the cell's coordinates.
    pub location: Point,
    /// Wire layer.
    pub layer: Layer,
    /// Wire width in centimicrons.
    pub width: i64,
}

/// One piece of painted geometry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Geometry {
    /// An axis-aligned box (CIF `B`, after direction resolution).
    Box(Rect),
    /// A polygon (CIF `P`).
    Polygon(Vec<Point>),
    /// A wire along a Manhattan path (CIF `W`).
    Wire {
        /// Wire width.
        width: i64,
        /// Centerline.
        path: Path,
    },
    /// A round flash (CIF `R`).
    Flash {
        /// Diameter.
        diameter: i64,
        /// Center point.
        center: Point,
    },
}

impl Geometry {
    /// Bounding box of the painted extent.
    pub fn bounding_box(&self) -> Rect {
        match self {
            Geometry::Box(r) => *r,
            Geometry::Polygon(pts) => {
                let mut bb = Rect::at_point(pts[0]);
                for &p in &pts[1..] {
                    bb = bb.union_point(p);
                }
                bb
            }
            Geometry::Wire { width, path } => path.bounding_box(*width),
            Geometry::Flash { diameter, center } => {
                Rect::from_center(*center, *diameter, *diameter)
            }
        }
    }

    /// Returns the geometry translated by `d`.
    pub fn translated(&self, d: Point) -> Geometry {
        match self {
            Geometry::Box(r) => Geometry::Box(r.translated(d)),
            Geometry::Polygon(pts) => Geometry::Polygon(pts.iter().map(|&p| p + d).collect()),
            Geometry::Wire { width, path } => Geometry::Wire {
                width: *width,
                path: path.translated(d),
            },
            Geometry::Flash { diameter, center } => Geometry::Flash {
                diameter: *diameter,
                center: *center + d,
            },
        }
    }
}

/// Geometry on a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Mask layer.
    pub layer: Layer,
    /// Painted geometry.
    pub geometry: Geometry,
}

/// An instantiation of another cell (CIF `C` command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CifCall {
    /// Symbol number of the called cell.
    pub cell: u32,
    /// Placement transform.
    pub transform: Transform,
}

/// One CIF symbol definition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CifCell {
    /// Symbol number.
    pub id: u32,
    /// Name from the `9 name;` extension, if present.
    pub name: Option<String>,
    /// Painted geometry.
    pub shapes: Vec<Shape>,
    /// Calls of other symbols.
    pub calls: Vec<CifCall>,
    /// Connectors from `94` extensions.
    pub connectors: Vec<CifConnector>,
}

impl CifCell {
    /// Bounding box of this cell's **own** geometry (not its calls).
    /// `None` when the cell paints nothing itself.
    pub fn local_bounding_box(&self) -> Option<Rect> {
        let mut bb: Option<Rect> = None;
        for s in &self.shapes {
            let b = s.geometry.bounding_box();
            bb = Some(match bb {
                Some(acc) => acc.union(b),
                None => b,
            });
        }
        bb
    }

    /// Looks up a connector by name.
    pub fn connector(&self, name: &str) -> Option<&CifConnector> {
        self.connectors.iter().find(|c| c.name == name)
    }
}

/// A parsed CIF file: symbol definitions plus top-level calls/shapes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CifFile {
    cells: BTreeMap<u32, CifCell>,
    top_calls: Vec<CifCall>,
    top_shapes: Vec<Shape>,
}

impl CifFile {
    /// Creates an empty CIF file.
    pub fn new() -> Self {
        CifFile::default()
    }

    /// The symbol definitions, ordered by symbol number.
    pub fn cells(&self) -> Vec<&CifCell> {
        self.cells.values().collect()
    }

    /// Looks up a definition by symbol number.
    pub fn cell(&self, id: u32) -> Option<&CifCell> {
        self.cells.get(&id)
    }

    /// Looks up a definition by its `9`-extension name.
    pub fn cell_by_name(&self, name: &str) -> Option<&CifCell> {
        self.cells
            .values()
            .find(|c| c.name.as_deref() == Some(name))
    }

    /// Top-level calls (the "root" instantiations).
    pub fn top_calls(&self) -> &[CifCall] {
        &self.top_calls
    }

    /// Top-level painted geometry.
    pub fn top_shapes(&self) -> &[Shape] {
        &self.top_shapes
    }

    /// Adds (or replaces) a definition, returning its symbol number.
    pub fn insert_cell(&mut self, cell: CifCell) -> u32 {
        let id = cell.id;
        self.cells.insert(id, cell);
        id
    }

    /// Adds a definition under the next free symbol number.
    pub fn add_cell(&mut self, mut cell: CifCell) -> u32 {
        let id = self.cells.keys().max().map_or(1, |m| m + 1);
        cell.id = id;
        self.cells.insert(id, cell);
        id
    }

    /// Appends a top-level call.
    pub fn push_top_call(&mut self, call: CifCall) {
        self.top_calls.push(call);
    }

    /// Mutable access to the top-level calls, for incremental editing
    /// flows ([`crate::FlattenCache`]) that reposition or remove
    /// instantiations in place.
    pub fn top_calls_mut(&mut self) -> &mut Vec<CifCall> {
        &mut self.top_calls
    }

    /// Mutable access to the top-level painted geometry.
    pub fn top_shapes_mut(&mut self) -> &mut Vec<Shape> {
        &mut self.top_shapes
    }

    /// Builds the semantic model from a raw command list.
    ///
    /// # Errors
    ///
    /// Fails on unbalanced `DS`/`DF`, duplicate or undefined symbols,
    /// unknown layers, geometry before a layer selection, non-Manhattan
    /// rotations or box directions, and malformed connector extensions.
    pub fn from_commands(commands: Vec<CifCommand>) -> Result<Self, ParseCifError> {
        Builder::default().run(commands)
    }
}

#[derive(Debug, Default)]
struct Scope {
    shapes: Vec<Shape>,
    calls: Vec<CifCall>,
    connectors: Vec<CifConnector>,
    name: Option<String>,
    layer: Option<Layer>,
    scale: (i64, i64),
}

#[derive(Debug, Default)]
struct Builder {
    file: CifFile,
    current: Option<(u32, Scope)>,
    top: Scope,
    line: usize,
}

impl Builder {
    fn err(&self, kind: ErrorKind) -> ParseCifError {
        // Command-level position info was consumed by the parser; report
        // the ordinal of the offending command instead of a text line.
        ParseCifError::new(self.line, kind)
    }

    fn scope(&mut self) -> &mut Scope {
        match &mut self.current {
            Some((_, s)) => s,
            None => &mut self.top,
        }
    }

    fn scale(&mut self, v: i64) -> i64 {
        let (a, b) = self.scope().scale;
        v * a / b
    }

    fn scale_point(&mut self, p: Point) -> Point {
        Point::new(self.scale(p.x), self.scale(p.y))
    }

    fn run(mut self, commands: Vec<CifCommand>) -> Result<CifFile, ParseCifError> {
        self.top.scale = (1, 1);
        for (i, cmd) in commands.into_iter().enumerate() {
            self.line = i + 1;
            self.command(cmd)?;
        }
        if self.current.is_some() {
            return Err(self.err(ErrorKind::UnbalancedDefinition));
        }
        // Resolve calls: every called symbol must exist.
        let all_calls = self
            .file
            .cells
            .values()
            .flat_map(|c| c.calls.iter())
            .chain(self.top.calls.iter());
        for call in all_calls {
            if !self.file.cells.contains_key(&call.cell) {
                return Err(ParseCifError::new(
                    self.line,
                    ErrorKind::UndefinedSymbol(call.cell),
                ));
            }
        }
        self.file.top_calls = std::mem::take(&mut self.top.calls);
        self.file.top_shapes = std::mem::take(&mut self.top.shapes);
        Ok(self.file)
    }

    fn command(&mut self, cmd: CifCommand) -> Result<(), ParseCifError> {
        match cmd {
            CifCommand::DefStart { id, a, b } => {
                if self.current.is_some() {
                    return Err(self.err(ErrorKind::UnbalancedDefinition));
                }
                if self.file.cells.contains_key(&id) {
                    return Err(self.err(ErrorKind::DuplicateSymbol(id)));
                }
                let scope = Scope {
                    scale: (a, b),
                    ..Scope::default()
                };
                self.current = Some((id, scope));
            }
            CifCommand::DefFinish => {
                let Some((id, scope)) = self.current.take() else {
                    return Err(self.err(ErrorKind::UnbalancedDefinition));
                };
                self.file.cells.insert(
                    id,
                    CifCell {
                        id,
                        name: scope.name,
                        shapes: scope.shapes,
                        calls: scope.calls,
                        connectors: scope.connectors,
                    },
                );
            }
            CifCommand::DefDelete(id) => {
                self.file.cells.retain(|&k, _| k < id);
            }
            CifCommand::Layer(name) => {
                let layer = Layer::from_cif_name(&name)
                    .ok_or_else(|| self.err(ErrorKind::UnknownLayer(name)))?;
                self.scope().layer = Some(layer);
            }
            CifCommand::BoxCmd {
                length,
                width,
                center,
                direction,
            } => {
                let layer = self.current_layer()?;
                let length = self.scale(length);
                let width = self.scale(width);
                let center = self.scale_point(center);
                let (length, width) = match direction.unwrap_or((1, 0)) {
                    (dx, 0) if dx != 0 => (length, width),
                    (0, dy) if dy != 0 => (width, length),
                    (dx, dy) => return Err(self.err(ErrorKind::NonManhattanBoxDirection(dx, dy))),
                };
                let rect = Rect::from_center(center, length, width);
                self.scope().shapes.push(Shape {
                    layer,
                    geometry: Geometry::Box(rect),
                });
            }
            CifCommand::Polygon(points) => {
                let layer = self.current_layer()?;
                let pts = points.into_iter().map(|p| self.scale_point(p)).collect();
                self.scope().shapes.push(Shape {
                    layer,
                    geometry: Geometry::Polygon(pts),
                });
            }
            CifCommand::Wire { width, points } => {
                let layer = self.current_layer()?;
                let width = self.scale(width);
                let pts: Vec<Point> = points.into_iter().map(|p| self.scale_point(p)).collect();
                let path = Path::from_points(pts).map_err(|_| self.err(ErrorKind::EmptyWire))?;
                self.scope().shapes.push(Shape {
                    layer,
                    geometry: Geometry::Wire { width, path },
                });
            }
            CifCommand::RoundFlash { diameter, center } => {
                let layer = self.current_layer()?;
                let diameter = self.scale(diameter);
                let center = self.scale_point(center);
                self.scope().shapes.push(Shape {
                    layer,
                    geometry: Geometry::Flash { diameter, center },
                });
            }
            CifCommand::Call { id, transforms } => {
                let transform = self.fold_transforms(&transforms)?;
                self.scope().calls.push(CifCall {
                    cell: id,
                    transform,
                });
            }
            CifCommand::UserExtension { code: 9, text } => {
                self.scope().name = Some(text);
            }
            CifCommand::UserExtension { code: 94, text } => {
                let conn = self.parse_connector(&text)?;
                self.scope().connectors.push(conn);
            }
            CifCommand::UserExtension { .. } => {
                // Other extensions pass through unused, as CIF requires.
            }
            CifCommand::End => {}
        }
        Ok(())
    }

    fn current_layer(&mut self) -> Result<Layer, ParseCifError> {
        self.scope()
            .layer
            .ok_or_else(|| ParseCifError::new(self.line, ErrorKind::NoCurrentLayer))
    }

    fn fold_transforms(&self, prims: &[TransformPrimitive]) -> Result<Transform, ParseCifError> {
        let mut t = Transform::IDENTITY;
        for prim in prims {
            let step = match *prim {
                TransformPrimitive::Translate(p) => Transform::translate(p),
                TransformPrimitive::MirrorX => Transform::orient(Orientation::MX),
                TransformPrimitive::MirrorY => Transform::orient(Orientation::MY),
                TransformPrimitive::Rotate(a, b) => {
                    let o = match (a.signum(), b.signum()) {
                        (1, 0) => Orientation::R0,
                        (0, 1) => Orientation::R90,
                        (-1, 0) => Orientation::R180,
                        (0, -1) => Orientation::R270,
                        _ => {
                            return Err(ParseCifError::new(
                                self.line,
                                ErrorKind::NonManhattanRotation(a, b),
                            ))
                        }
                    };
                    Transform::orient(o)
                }
            };
            t = t.then(step);
        }
        Ok(t)
    }

    fn parse_connector(&mut self, text: &str) -> Result<CifConnector, ParseCifError> {
        let fields: Vec<&str> = text.split_whitespace().collect();
        let bad = || ParseCifError::new(self.line, ErrorKind::BadConnector(text.to_owned()));
        if fields.len() < 4 || fields.len() > 5 {
            return Err(bad());
        }
        let name = fields[0].to_owned();
        let x: i64 = fields[1].parse().map_err(|_| bad())?;
        let y: i64 = fields[2].parse().map_err(|_| bad())?;
        let layer = Layer::from_cif_name(fields[3]).ok_or_else(bad)?;
        let width: i64 = match fields.get(4) {
            Some(w) => w.parse().map_err(|_| bad())?,
            None => layer.default_width(),
        };
        if width <= 0 {
            return Err(bad());
        }
        Ok(CifConnector {
            name,
            location: self.scale_point(Point::new(x, y)),
            layer,
            width: self.scale(width),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const SAMPLE: &str = "\
DS 1 2 1;
9 cellA;
L NM;
B 10 4 5 2;
94 out 10 2 NM 3;
DF;
DS 2;
9 cellB;
L NP;
W 2 0 0 0 10;
C 1 T 20 0;
DF;
C 2 R 0 1;
E";

    #[test]
    fn builds_cells_with_scale() {
        let f = parse(SAMPLE).unwrap();
        assert_eq!(f.cells().len(), 2);
        let a = f.cell_by_name("cellA").unwrap();
        // Scale 2/1 doubles all distances.
        assert_eq!(a.shapes[0].geometry, Geometry::Box(Rect::new(0, 0, 20, 8)));
        assert_eq!(a.connectors[0].location, Point::new(20, 4));
        assert_eq!(a.connectors[0].width, 6);
    }

    #[test]
    fn calls_resolved() {
        let f = parse(SAMPLE).unwrap();
        let b = f.cell_by_name("cellB").unwrap();
        assert_eq!(b.calls.len(), 1);
        assert_eq!(b.calls[0].cell, 1);
        assert_eq!(
            b.calls[0].transform,
            Transform::translate(Point::new(20, 0))
        );
        assert_eq!(f.top_calls().len(), 1);
        assert_eq!(f.top_calls()[0].transform.orient, Orientation::R90);
    }

    #[test]
    fn undefined_call_rejected() {
        let err = parse("C 9;E").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndefinedSymbol(9));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let err = parse("DS 1;DF;DS 1;DF;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateSymbol(1));
    }

    #[test]
    fn nested_definition_rejected() {
        let err = parse("DS 1;DS 2;DF;DF;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnbalancedDefinition);
    }

    #[test]
    fn unterminated_definition_rejected() {
        let err = parse("DS 1;L NM;B 2 2 0 0;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnbalancedDefinition);
    }

    #[test]
    fn geometry_without_layer_rejected() {
        let err = parse("DS 1;B 2 2 0 0;DF;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::NoCurrentLayer);
    }

    #[test]
    fn unknown_layer_rejected() {
        let err = parse("DS 1;L QQ;DF;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownLayer("QQ".to_owned()));
    }

    #[test]
    fn box_direction_rotates() {
        let f = parse("DS 1;L NM;B 10 4 0 0 0 1;DF;").unwrap();
        let c = f.cell(1).unwrap();
        // Rotated 90°: length runs along y.
        assert_eq!(c.shapes[0].geometry, Geometry::Box(Rect::new(-2, -5, 2, 5)));
    }

    #[test]
    fn non_manhattan_rotation_rejected() {
        let err = parse("DS 1;DF;C 1 R 1 1;E").unwrap_err();
        assert_eq!(err.kind, ErrorKind::NonManhattanRotation(1, 1));
    }

    #[test]
    fn def_delete_removes_higher_symbols() {
        let f = parse("DS 1;DF;DS 2;DF;DD 2;DS 2;DF;E").unwrap();
        assert_eq!(f.cells().len(), 2);
    }

    #[test]
    fn connector_default_width() {
        let f = parse("DS 1;94 a 0 0 NP;DF;").unwrap();
        let c = f.cell(1).unwrap();
        assert_eq!(c.connectors[0].width, Layer::Poly.default_width());
        assert_eq!(c.connector("a").unwrap().layer, Layer::Poly);
        assert!(c.connector("b").is_none());
    }

    #[test]
    fn malformed_connector_rejected() {
        assert!(parse("DS 1;94 a 0 NP;DF;").is_err());
        assert!(parse("DS 1;94 a 0 0 QQ;DF;").is_err());
        assert!(parse("DS 1;94 a 0 0 NM -5;DF;").is_err());
    }

    #[test]
    fn local_bounding_box() {
        let f = parse("DS 1;L NM;B 10 4 5 2;W 2 0 0 0 20;DF;").unwrap();
        let c = f.cell(1).unwrap();
        assert_eq!(c.local_bounding_box(), Some(Rect::new(-1, -1, 10, 21)));
    }

    #[test]
    fn unknown_extension_ignored() {
        let f = parse("DS 1;42 whatever text;DF;").unwrap();
        assert_eq!(f.cells().len(), 1);
    }
}
