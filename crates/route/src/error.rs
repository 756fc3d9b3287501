//! Routing errors.

use riot_geom::Layer;
use std::fmt;

/// Why a route could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The bottom and top terminal lists have different lengths.
    CountMismatch {
        /// Bottom terminal count.
        bottom: usize,
        /// Top terminal count.
        top: usize,
    },
    /// A net's two terminals are on different layers (river routes never
    /// change layers).
    LayerMismatch {
        /// Net index.
        net: usize,
        /// Bottom terminal layer.
        bottom: Layer,
        /// Top terminal layer.
        top: Layer,
    },
    /// Two same-layer nets would have to cross — not a river route.
    NotRiverRoutable {
        /// Layer on which the crossing occurs.
        layer: Layer,
        /// First net (by index into the problem).
        first: usize,
        /// Second, crossing net.
        second: usize,
    },
    /// Two terminals on the same edge and layer sit closer than the
    /// design rules allow.
    TerminalsTooClose {
        /// Layer of both terminals.
        layer: Layer,
        /// The two offending offsets.
        offsets: (i64, i64),
    },
    /// A terminal has a non-positive width.
    BadWidth {
        /// Net index.
        net: usize,
        /// Offending width.
        width: i64,
    },
    /// There are no nets to route.
    Empty,
    /// An exact channel height was requested but the tracks need more.
    ChannelTooTight {
        /// Lambda the route needs.
        needed: i64,
        /// Lambda available.
        available: i64,
    },
    /// The grid router exhausted the maze: no obstacle-free path exists
    /// for the net inside the channel window (or the search hit its
    /// deterministic expansion cap), or the net still violated spacing
    /// against another net when negotiation hit its round cap.
    Unroutable {
        /// Net index.
        net: usize,
    },
    /// The grid router's options are unusable (non-positive pitch).
    BadPitch {
        /// Offending pitch.
        pitch: i64,
    },
    /// A router invariant failed while emitting geometry. This is a bug
    /// in the router, not in the input — but it surfaces as an error so
    /// a malformed problem can never panic an interactive session.
    Internal {
        /// Which invariant broke.
        context: &'static str,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::CountMismatch { bottom, top } => write!(
                f,
                "terminal count mismatch: {bottom} on the bottom edge, {top} on the top"
            ),
            RouteError::LayerMismatch { net, bottom, top } => write!(
                f,
                "net {net} changes layers ({bottom} to {top}); river routes cannot"
            ),
            RouteError::NotRiverRoutable {
                layer,
                first,
                second,
            } => write!(
                f,
                "nets {first} and {second} cross on layer {layer}; not a river route"
            ),
            RouteError::TerminalsTooClose { layer, offsets } => write!(
                f,
                "terminals at {} and {} too close on layer {layer}",
                offsets.0, offsets.1
            ),
            RouteError::BadWidth { net, width } => {
                write!(f, "net {net} has non-positive width {width}")
            }
            RouteError::Empty => f.write_str("no nets to route"),
            RouteError::ChannelTooTight { needed, available } => write!(
                f,
                "route needs a {needed} lambda channel but only {available} is available"
            ),
            RouteError::Unroutable { net } => {
                write!(f, "net {net} has no clear path through the channel")
            }
            RouteError::BadPitch { pitch } => {
                write!(f, "grid pitch must be positive, got {pitch}")
            }
            RouteError::Internal { context } => {
                write!(f, "router invariant violated ({context}); please report")
            }
        }
    }
}

impl std::error::Error for RouteError {}
