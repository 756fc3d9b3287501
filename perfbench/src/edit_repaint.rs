//! `edit-repaint`: one edit, from `Editor::execute` to the last
//! repainted pixel, on a lattice chip of 122,500 flat shapes.
//!
//! The chip is held twice: as an [`Editor`] composition (one instance
//! per lattice site) and as the mirrored CIF model whose retained
//! derived state — [`FlattenCache`], [`DrcState`], display list,
//! [`RenderCache`] and framebuffer — every edit patches. An edit is
//! `execute`, `take_damage`, mirror the moved instance into the CIF
//! model, flatten-cache sync, DRC patch, display-list patch and
//! dirty-band repaint. The stream is single-instance nudges of ±4λ
//! with an `undo` after about one nudge in ten, and a run makes a
//! fixed number of edits (see [`SIZING_RATE`]). Set-up (editor build,
//! full flatten, `DrcState::build`, full render) is the full-recompute
//! use of the same layers.

use crate::metrics::{mean, median, peak_rss_mb, percentile, Report, Rng};
use crate::Args;
use riot::cif::{CifFile, FlatShape, FlattenCache};
use riot::core::{Cell, Checkpoint, Command, Editor, InstanceId, Library};
use riot::drc::{check_incremental, DrcState, RuleSet, Violation};
use riot::geom::{Point, Rect, Transform, LAMBDA};
use riot::graphics::{render_ops_banded, DrawOp, Framebuffer, RenderCache, Viewport};
use riot::ui::render::flat_cif_ops;
use std::time::Instant;

/// Flat shapes per lattice instance.
const LEAF_SHAPES: usize = 100;
/// Lattice side: `GRID * GRID` instances, `LEAF_SHAPES * GRID * GRID`
/// flat shapes. Each edit's DRC patch scans every shape; at 250,000
/// shapes the scan outgrew the cache, and on a shared 2-CPU host the
/// median edit time then followed the host's memory traffic, from 5.1
/// to 8.3 ms between runs minutes apart. At 122,500 shapes it held
/// within 6%.
const GRID: usize = 25;
const SCREEN_W: usize = 1024;
const SCREEN_H: usize = 768;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Chance that an edit after a nudge is an `undo`.
const UNDO_CHANCE: f64 = 0.1;
/// A run's size: `--seconds` × `SIZING_RATE` edits. The editor keeps
/// every edit's journal and undo records, so memory grows with the
/// number of edits; fixing the work rather than the time keeps the
/// memory figure independent of the pipeline's speed. On a 2-CPU host
/// the pipeline runs about this many edits per second, so a run lasts
/// about `--seconds`.
const SIZING_RATE: f64 = 250.0;

/// The CIF model and everything derived from it.
struct Retained {
    file: CifFile,
    cache: FlattenCache,
    state: DrcState,
    ops: Vec<DrawOp>,
    fb: Framebuffer,
    rc: RenderCache,
    vp: Viewport,
}

/// Nanoseconds per set-up stage.
#[derive(Clone, Copy)]
struct SetupNs {
    core: f64,
    flatten: f64,
    drc: f64,
    render: f64,
}

/// The leaf symbol of the lattice chip as an editor library cell, plus
/// an empty composition to place it in.
fn library(file: &CifFile) -> Result<Library, String> {
    let def = file.cells()[0].id;
    let mut flat = Vec::new();
    riot::cif::flatten::flatten_cell(file, def, Transform::IDENTITY, 1, &mut flat)
        .map_err(|e| format!("leaf flatten: {e}"))?;
    let shapes = flat
        .into_iter()
        .map(|f| riot::cif::Shape {
            layer: f.layer,
            geometry: f.geometry,
        })
        .collect();
    let mut lib = Library::new();
    lib.add_cell(Cell::from_cif_shapes("leaf", shapes, Vec::new()))
        .map_err(|e| e.to_string())?;
    lib.add_cell(Cell::new_composition("CHIP"))
        .map_err(|e| e.to_string())?;
    Ok(lib)
}

/// Places one instance per top-level call of the lattice, at the
/// call's position, through the editor's own commands.
fn build_editor(lib: &mut Library, file: &CifFile) -> Result<Checkpoint, String> {
    let mut ed = Editor::open(lib, "CHIP").map_err(|e| e.to_string())?;
    for (k, call) in file.top_calls().iter().enumerate() {
        let instance = format!("I{k}");
        ed.execute(Command::Create {
            cell: "leaf".into(),
            instance: instance.clone(),
        })
        .map_err(|e| format!("create {instance}: {e}"))?;
        ed.execute(Command::Translate {
            instance,
            d: call.transform.apply(Point::new(0, 0)),
        })
        .map_err(|e| format!("place I{k}: {e}"))?;
    }
    Ok(ed.suspend())
}

/// One full set-up: the editor composition, then the retained derived
/// state from scratch.
fn setup(text: &str, rules: &RuleSet) -> Result<(Library, Checkpoint, Retained, SetupNs), String> {
    let t = Instant::now();
    let file = riot::cif::parse(text).map_err(|e| format!("chip parse: {e}"))?;
    let mut lib = library(&file)?;
    let cp = build_editor(&mut lib, &file)?;
    let core = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let mut cache = FlattenCache::new();
    let first = cache
        .update(&file)
        .map_err(|e| format!("full flatten: {e}"))?;
    let flatten = t.elapsed().as_nanos() as f64;
    if !first.full || cache.shapes().len() != LEAF_SHAPES * GRID * GRID {
        return Err("first flatten-cache sync must be a full build of the chip".into());
    }

    let t = Instant::now();
    let state = DrcState::build(cache.shapes(), rules);
    let drc = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let chip = riot::cif::flatten::bounding_box_of(cache.shapes()).ok_or("empty chip")?;
    let vp = Viewport::fit(chip, SCREEN_W, SCREEN_H);
    let ops = flat_cif_ops(cache.shapes()).ops().to_vec();
    let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H);
    render_ops_banded(&ops, &vp, &mut fb);
    let rc = RenderCache::build(&ops, &vp);
    let render = t.elapsed().as_nanos() as f64;

    let retained = Retained {
        file,
        cache,
        state,
        ops,
        fb,
        rc,
        vp,
    };
    Ok((
        lib,
        cp,
        retained,
        SetupNs {
            core,
            flatten,
            drc,
            render,
        },
    ))
}

fn violation_keys(mut vs: Vec<Violation>) -> Vec<String> {
    vs.sort_by_key(|v| format!("{v:?}"));
    vs.into_iter().map(|v| format!("{v:?}")).collect()
}

/// The retained state equals a full recompute of the current CIF
/// model: shapes, violations, display list and pixels.
fn check_against_full(r: &Retained, rules: &RuleSet) -> Result<(), String> {
    let (shapes, _) =
        riot::cif::flatten_counted(&r.file).map_err(|e| format!("full flatten: {e}"))?;
    if r.cache.shapes() != shapes.as_slice() {
        return Err("flatten cache differs from a full flatten".into());
    }
    let full: Vec<FlatShape> = shapes;
    if violation_keys(r.state.violations()) != violation_keys(riot::drc::check(&full, rules)) {
        return Err("patched DRC differs from a full check".into());
    }
    let ops = flat_cif_ops(&full).ops().to_vec();
    if r.ops != ops {
        return Err("patched display list differs from a full build".into());
    }
    let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H);
    render_ops_banded(&ops, &r.vp, &mut fb);
    if r.fb != fb {
        return Err("dirty-band repaint differs from a full render".into());
    }
    Ok(())
}

/// Whether the union of `by` covers every point of `r`.
fn covered(r: Rect, by: &[Rect]) -> bool {
    if by.iter().any(|b| b.contains_rect(r)) {
        return true;
    }
    // Cut `r` by the first rect that overlaps it with positive area and
    // require the pieces outside that rect to be covered by the rest.
    let Some(b) = by
        .iter()
        .find(|b| b.x0 < r.x1 && r.x0 < b.x1 && b.y0 < r.y1 && r.y0 < b.y1)
    else {
        return false;
    };
    let mut pieces = Vec::with_capacity(4);
    if r.x0 < b.x0 {
        pieces.push(Rect::new(r.x0, r.y0, b.x0, r.y1));
    }
    if b.x1 < r.x1 {
        pieces.push(Rect::new(b.x1, r.y0, r.x1, r.y1));
    }
    let (mx0, mx1) = (r.x0.max(b.x0), r.x1.min(b.x1));
    if r.y0 < b.y0 {
        pieces.push(Rect::new(mx0, r.y0, mx1, b.y0));
    }
    if b.y1 < r.y1 {
        pieces.push(Rect::new(mx0, b.y1, mx1, r.y1));
    }
    pieces.into_iter().all(|p| covered(p, by))
}

/// One edit of the stream, on lattice instance `k`.
enum Edit {
    Nudge { k: usize, d: Point },
    Undo { k: usize },
}

impl Edit {
    fn instance(&self) -> usize {
        match self {
            Edit::Nudge { k, .. } | Edit::Undo { k } => *k,
        }
    }

    fn command(&self) -> Command {
        match self {
            Edit::Nudge { k, d } => Command::Translate {
                instance: format!("I{k}"),
                d: *d,
            },
            Edit::Undo { .. } => Command::Undo,
        }
    }
}

/// The seeded edit stream. Each instance stays within ±4λ of its
/// lattice site on each axis, so the chip stays DRC-clean; an undo
/// always directly follows a nudge, so it reverts that nudge.
struct Stream {
    rng: Rng,
    offsets: Vec<Point>,
    /// The previous edit, when it was a nudge: its instance and that
    /// instance's offset before it.
    last_nudge: Option<(usize, Point)>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed, 0xED17),
            offsets: vec![Point::new(0, 0); GRID * GRID],
            last_nudge: None,
        }
    }

    fn next(&mut self) -> Edit {
        if let Some((k, prev)) = self.last_nudge.take() {
            if self.rng.unit() < UNDO_CHANCE {
                self.offsets[k] = prev;
                return Edit::Undo { k };
            }
        }
        let k = self.rng.below((GRID * GRID) as u64) as usize;
        let prev = self.offsets[k];
        let step = |off: i64, rng: &mut Rng| {
            if off != 0 {
                -off
            } else if rng.below(2) == 0 {
                4 * LAMBDA
            } else {
                -4 * LAMBDA
            }
        };
        let d = if self.rng.below(2) == 0 {
            Point::new(step(prev.x, &mut self.rng), 0)
        } else {
            Point::new(0, step(prev.y, &mut self.rng))
        };
        self.offsets[k] = Point::new(prev.x + d.x, prev.y + d.y);
        self.last_nudge = Some((k, prev));
        Edit::Nudge { k, d }
    }
}

/// Nanoseconds per layer for one traced edit.
#[derive(Default, Clone, Copy)]
struct EditNs {
    apply: f64,
    damage: f64,
    flatten: f64,
    drc: f64,
    repaint: f64,
}

/// What one edit did, for the checks and the counts.
struct EditOutcome {
    total_ns: f64,
    layers: Option<EditNs>,
    damage_rects: usize,
    patched_pairs: usize,
}

/// Runs one edit through the whole pipeline. With `traced`, each call
/// into a layer is timed separately.
fn edit(
    ed: &mut Editor<'_>,
    r: &mut Retained,
    ids: &[InstanceId],
    e: &Edit,
    traced: bool,
) -> Result<EditOutcome, String> {
    let k = e.instance();
    let mut ns = EditNs::default();
    let lap = |t: &mut Instant, slot: &mut f64| {
        if traced {
            let now = Instant::now();
            *slot = (now - *t).as_nanos() as f64;
            *t = now;
        }
    };
    let start = Instant::now();
    let mut t = start;
    ed.execute(e.command())
        .map_err(|err| format!("execute: {err}"))?;
    lap(&mut t, &mut ns.apply);
    let damage = ed.take_damage();
    lap(&mut t, &mut ns.damage);
    // Mirroring the edit into the CIF model is the benchmark's glue,
    // not a layer: it is left out of every lap.
    let moved = ed.instance(ids[k]).map_err(|e| e.to_string())?.transform;
    r.file.top_calls_mut()[k].transform = moved;
    if traced {
        t = Instant::now();
    }
    let delta = r
        .cache
        .update(&r.file)
        .map_err(|e| format!("flatten sync: {e}"))?;
    lap(&mut t, &mut ns.flatten);
    let patched = check_incremental(&mut r.state, &delta.dirty, r.cache.shapes());
    lap(&mut t, &mut ns.drc);
    let range = k * LEAF_SHAPES..(k + 1) * LEAF_SHAPES;
    let seg = flat_cif_ops(&r.cache.shapes()[range.clone()]);
    r.ops[range.clone()].clone_from_slice(seg.ops());
    let changed: Vec<usize> = range.collect();
    r.rc.sync(&r.ops, &r.vp, &changed);
    r.rc.render(&r.ops, &mut r.fb, &delta.dirty);
    let end = Instant::now();
    if traced {
        ns.repaint = (end - t).as_nanos() as f64;
    }
    let total_ns = (end - start).as_nanos() as f64;

    // Checks, off the clock: the edit stayed incremental and the
    // editor's acknowledged damage covers everything the flatten
    // cache reports as changed.
    if delta.full || damage.full {
        return Err("a single-instance edit fell back to a full rebuild".into());
    }
    if delta.dirty.is_empty() {
        return Err("an edit reported no damage".into());
    }
    if let Some(r) = delta.dirty.iter().find(|d| !covered(**d, &damage.rects)) {
        return Err(format!(
            "editor damage {:?} does not cover flatten damage {r:?}",
            damage.rects
        ));
    }
    if r.state.full_rebuilds() != 0 {
        return Err("DRC patch fell back to a full rebuild".into());
    }
    Ok(EditOutcome {
        total_ns,
        layers: traced.then_some(ns),
        damage_rects: damage.rects.len(),
        patched_pairs: patched,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let rules = RuleSet::nmos();
    let text = riot_bench::grid_chip(LEAF_SHAPES, GRID);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so that peak memory holds one.
        drop(kept.take());
        let t = Instant::now();
        let (lib, cp, retained, ns) = setup(&text, &rules)?;
        setups.push((t.elapsed().as_secs_f64(), ns));
        kept = Some((lib, cp, retained));
    }
    let (mut lib, cp, mut r) = kept.expect("at least one set-up");
    let mut ed = Editor::resume(&mut lib, cp).map_err(|e| e.to_string())?;
    // A resumed session starts with full damage: the set-up above is
    // its baseline.
    ed.take_damage();
    let ids: Vec<InstanceId> = (0..GRID * GRID)
        .map(|k| {
            ed.find_instance(&format!("I{k}"))
                .ok_or(format!("I{k} missing"))
        })
        .collect::<Result<_, _>>()?;

    let mut stream = Stream::new(args.seed);
    // The first edit is checked against a full recompute and is not
    // timed.
    edit(&mut ed, &mut r, &ids, &stream.next(), false)?;
    check_against_full(&r, &rules)?;

    let mut nudges = Vec::new();
    let mut undos = Vec::new();
    let mut traced_total = Vec::new();
    let mut untraced_total = Vec::new();
    let mut layers = Vec::new();
    let mut damage_rects = 0usize;
    let mut patched_pairs = 0usize;
    let mut attempted = 0u64;
    let total = (args.seconds * SIZING_RATE).ceil() as u64;
    while attempted < total {
        let e = stream.next();
        let traced = args.trace && attempted.is_multiple_of(2);
        attempted += 1;
        // A rejected edit would leave the stream's offsets out of step
        // with the editor, so it ends the run as a failed check.
        let out = edit(&mut ed, &mut r, &ids, &e, traced)?;
        damage_rects += out.damage_rects;
        patched_pairs += out.patched_pairs;
        let us = out.total_ns / 1e3;
        if matches!(e, Edit::Undo { .. }) {
            undos.push(us);
        } else {
            nudges.push(us);
        }
        match out.layers {
            Some(ns) => {
                traced_total.push(out.total_ns);
                layers.push(ns);
            }
            None => untraced_total.push(out.total_ns),
        }
    }
    check_against_full(&r, &rules)?;
    if nudges.is_empty() || undos.is_empty() {
        return Err("the run is too short to time edits and undos".into());
    }

    let mut rep = Report::new(attempted, 0);
    let edits = (nudges.len() + undos.len()) as f64;
    if args.trace {
        let per = |f: fn(&EditNs) -> f64| mean(&layers.iter().map(f).collect::<Vec<_>>()) / 1e3;
        let apply = per(|n| n.apply);
        let damage = per(|n| n.damage);
        let flatten = per(|n| n.flatten);
        let drc = per(|n| n.drc);
        let repaint = per(|n| n.repaint);
        let total = mean(&traced_total) / 1e3;
        let unattributed = total - (apply + damage + flatten + drc + repaint);
        rep.set("core.apply_us", apply);
        rep.set("core.damage_us", damage);
        rep.set("cif.flatten_us", flatten);
        rep.set("drc.patch_us", drc);
        rep.set("gfx.repaint_us", repaint);
        rep.set("edit.op_total_us", total);
        rep.set("edit.unattributed_us", unattributed);
        rep.set("edit.unattributed_share", unattributed / total);
        rep.set(
            "edit.trace_overhead_us",
            (median(&mut traced_total) - median(&mut untraced_total)) / 1e3,
        );
        rep.set("core.damage_rects_per_edit", damage_rects as f64 / edits);
        rep.set("drc.patched_pairs_per_edit", patched_pairs as f64 / edits);
        rep.set("drc.full_rebuilds", r.state.full_rebuilds() as f64);
        let busy_s = nudges.iter().chain(&undos).sum::<f64>() / 1e6;
        rep.set("e2e.work_per_s", edits / busy_s);
        crate::metrics::set_tails(&mut rep, &mut nudges, &mut undos);
        let stage = |f: fn(&SetupNs) -> f64| {
            median(&mut setups.iter().map(|(_, ns)| f(ns) / 1e6).collect::<Vec<_>>())
        };
        rep.set("core.build_ms", stage(|n| n.core));
        rep.set("cif.flatten_full_ms", stage(|n| n.flatten));
        rep.set("drc.build_ms", stage(|n| n.drc));
        rep.set("gfx.render_full_ms", stage(|n| n.render));
    } else {
        rep.set(
            "setup_s",
            median(&mut setups.iter().map(|(s, _)| *s).collect::<Vec<_>>()),
        );
        rep.set("op_p50_us", percentile(&mut nudges, 0.50));
        rep.set("minor_p50_us", percentile(&mut undos, 0.50));
        rep.set("ok_ratio", edits / attempted as f64);
        rep.set("peak_rss_mb", peak_rss_mb("self")?);
    }
    Ok(rep)
}
