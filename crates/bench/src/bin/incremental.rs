//! The damage-region benchmark: one-instance edits on a huge flat chip,
//! incremental recompute (flatten cache + DRC patch + dirty-band
//! repaint) vs full recompute, emitting `BENCH_incremental.json`.
//!
//! ```text
//! cargo run --release -p riot-bench --bin incremental -- \
//!     [--leaf-shapes L] [--grid G] [--iters K] [--min-speedup X] [--out PATH]
//! ```
//!
//! The workload is [`riot_bench::grid_chip`]: a DRC-clean leaf of `L`
//! metal boxes placed on a `G`×`G` lattice (`L*G*G` flat shapes; the
//! defaults give a one-million-shape chip). Each edit translates one
//! top-level instance by 4λ — the single-instance move the damage
//! engine is built for. Before a single number is timed, both pipelines
//! run once on the same edit and every artifact is asserted equal:
//! flattened shape lists, sorted violation sets, patched display lists,
//! and the framebuffer pixels. The speedup claim is only ever made
//! about results that were proven identical.

use riot::cif::{FlatShape, FlattenCache};
use riot::drc::{check_incremental, DrcState, RuleSet, Violation};
use riot::geom::{Point, Rect, Transform};
use riot::graphics::{render_ops_banded, DrawOp, Framebuffer, RenderCache, Viewport};
use riot::ui::render::flat_cif_ops;
use std::time::Instant;

const SCREEN_W: usize = 1024;
const SCREEN_H: usize = 768;

struct Args {
    leaf_shapes: usize,
    grid: usize,
    iters: usize,
    min_speedup: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        leaf_shapes: 100,
        grid: 100,
        iters: 5,
        min_speedup: 0.0,
        out: "BENCH_incremental.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--leaf-shapes" => {
                args.leaf_shapes = value("--leaf-shapes").parse().expect("--leaf-shapes")
            }
            "--grid" => args.grid = value("--grid").parse().expect("--grid"),
            "--iters" => args.iters = value("--iters").parse().expect("--iters"),
            "--min-speedup" => {
                args.min_speedup = value("--min-speedup").parse().expect("--min-speedup");
            }
            "--out" => args.out = value("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn violation_keys(mut vs: Vec<Violation>) -> Vec<String> {
    vs.sort_by_key(|v| format!("{v:?}"));
    vs.into_iter().map(|v| format!("{v:?}")).collect()
}

/// Moves top call `k` to lattice position plus `dx`, returning the new
/// transform that was installed.
fn move_call(file: &mut riot::cif::CifFile, k: usize, base: Point, dx: i64) {
    file.top_calls_mut()[k].transform = Transform::translate(Point::new(base.x + dx, base.y));
}

/// Per-stage nanosecond record for one pipeline pass.
#[derive(Clone, Copy, Default)]
struct StageNs {
    flatten: u64,
    drc: u64,
    render: u64,
}

impl StageNs {
    fn total(&self) -> u64 {
        self.flatten + self.drc + self.render
    }

    fn min(self, other: StageNs) -> StageNs {
        StageNs {
            flatten: self.flatten.min(other.flatten),
            drc: self.drc.min(other.drc),
            render: self.render.min(other.render),
        }
    }
}

/// One full-recompute pass: flatten from scratch, check the whole chip,
/// rebuild the display list, render every band.
fn full_pass(
    file: &riot::cif::CifFile,
    rules: &RuleSet,
    vp: &Viewport,
) -> (
    StageNs,
    Vec<FlatShape>,
    Vec<Violation>,
    Vec<DrawOp>,
    Framebuffer,
) {
    let mut ns = StageNs::default();
    let t = Instant::now();
    let (shapes, _) = riot::cif::flatten_counted(file).expect("full flatten");
    ns.flatten = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let violations = riot::drc::check(&shapes, rules);
    ns.drc = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let ops = flat_cif_ops(&shapes).ops().to_vec();
    let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H);
    render_ops_banded(&ops, vp, &mut fb);
    ns.render = t.elapsed().as_nanos() as u64;
    (ns, shapes, violations, ops, fb)
}

/// One incremental pass over an already-applied edit: sync the flatten
/// cache, patch the retained DRC state from the damage rects, patch the
/// retained display list (segment `k` of the uniform grid), and repaint
/// only the damaged pixels of the retained framebuffer through the
/// retained [`RenderCache`].
#[allow(clippy::too_many_arguments)]
fn incremental_pass(
    file: &riot::cif::CifFile,
    k: usize,
    leaf_shapes: usize,
    rules: &RuleSet,
    vp: &Viewport,
    cache: &mut FlattenCache,
    state: &mut DrcState,
    ops: &mut [DrawOp],
    rc: &mut RenderCache,
    fb: &mut Framebuffer,
) -> (StageNs, Vec<Rect>, usize) {
    let _ = rules;
    let mut ns = StageNs::default();
    let t = Instant::now();
    let delta = cache.update(file).expect("incremental flatten");
    ns.flatten = t.elapsed().as_nanos() as u64;
    assert!(!delta.full, "a single-instance move must not rebuild");
    let t = Instant::now();
    let patched = check_incremental(state, &delta.dirty, cache.shapes());
    ns.drc = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    // The grid is uniform — every top call expands to exactly
    // `leaf_shapes` ops at a known offset — so the retained display
    // list is patched in place (verified against a from-scratch build
    // before any timing below).
    let seg = &cache.shapes()[k * leaf_shapes..(k + 1) * leaf_shapes];
    let seg_ops = flat_cif_ops(seg);
    ops[k * leaf_shapes..(k + 1) * leaf_shapes].clone_from_slice(seg_ops.ops());
    let changed: Vec<usize> = (k * leaf_shapes..(k + 1) * leaf_shapes).collect();
    rc.sync(ops, vp, &changed);
    rc.render(ops, fb, &delta.dirty);
    ns.render = t.elapsed().as_nanos() as u64;
    (ns, delta.dirty, patched)
}

fn main() {
    let args = parse_args();
    let rules = RuleSet::nmos();
    let text = riot_bench::grid_chip(args.leaf_shapes, args.grid);
    let mut file = riot::cif::parse(&text).expect("grid chip parses");
    let calls = file.top_calls().len();
    let bases: Vec<Point> = file
        .top_calls()
        .iter()
        .map(|c| c.transform.apply(Point::new(0, 0)))
        .collect();

    // Retained state: flatten cache, DRC state, display list,
    // framebuffer. Built once; every edit patches them.
    let mut cache = FlattenCache::new();
    let first = cache.update(&file).expect("initial flatten");
    assert!(first.full, "first sync is the full build");
    let n = cache.shapes().len();
    let chip = cache
        .shapes()
        .iter()
        .map(|s| s.geometry.bounding_box())
        .reduce(|a, b| a.union(b))
        .expect("non-empty chip");
    let vp = Viewport::fit(chip, SCREEN_W, SCREEN_H);

    let t = Instant::now();
    let mut state = DrcState::build(cache.shapes(), &rules);
    let build_ns = t.elapsed().as_nanos() as u64;
    let mut ops = flat_cif_ops(cache.shapes()).ops().to_vec();
    let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H);
    render_ops_banded(&ops, &vp, &mut fb);
    let mut rc = RenderCache::build(&ops, &vp);

    // -------- verify phase: one edit, both pipelines, everything equal
    let k0 = calls / 2;
    move_call(&mut file, k0, bases[k0], 4 * riot::geom::LAMBDA);
    let (_, dirty, _) = incremental_pass(
        &file,
        k0,
        args.leaf_shapes,
        &rules,
        &vp,
        &mut cache,
        &mut state,
        &mut ops,
        &mut rc,
        &mut fb,
    );
    let (_, shapes, violations, full_ops, full_fb) = full_pass(&file, &rules, &vp);
    assert_eq!(cache.shapes(), shapes.as_slice(), "flatten diverged");
    assert_eq!(
        violation_keys(state.violations()),
        violation_keys(violations),
        "DRC diverged"
    );
    assert_eq!(ops, full_ops, "patched display list diverged");
    assert_eq!(fb, full_fb, "dirty-band repaint diverged");
    assert_eq!(state.full_rebuilds(), 0, "damage under-reported");
    assert!(!dirty.is_empty(), "a move must report damage");
    eprintln!(
        "verified: {n} shapes, {} dirty rects, pipelines identical",
        dirty.len()
    );

    // -------- timing: full recompute (on the already-edited file)
    let mut full_ns = StageNs {
        flatten: u64::MAX,
        drc: u64::MAX,
        render: u64::MAX,
    };
    let mut full_total = u64::MAX;
    for _ in 0..args.iters.max(1) {
        let (ns, ..) = full_pass(&file, &rules, &vp);
        full_ns = full_ns.min(ns);
        full_total = full_total.min(ns.total());
    }

    // -------- timing: incremental, one fresh single-instance move each
    let mut incr_ns = StageNs {
        flatten: u64::MAX,
        drc: u64::MAX,
        render: u64::MAX,
    };
    let mut incr_total = u64::MAX;
    let mut dirty_rects = 0usize;
    let mut patched_pairs = 0usize;
    for i in 0..args.iters.max(1) {
        let k = (k0 + 1 + i * 37) % calls;
        let dx = if i % 2 == 0 { 4 } else { -4 } * riot::geom::LAMBDA;
        move_call(&mut file, k, bases[k], dx);
        let (ns, dirty, patched) = incremental_pass(
            &file,
            k,
            args.leaf_shapes,
            &rules,
            &vp,
            &mut cache,
            &mut state,
            &mut ops,
            &mut rc,
            &mut fb,
        );
        incr_ns = incr_ns.min(ns);
        incr_total = incr_total.min(ns.total());
        dirty_rects = dirty.len();
        patched_pairs = patched;
    }
    assert_eq!(state.full_rebuilds(), 0, "timed edits stayed incremental");

    // -------- final cross-check: the retained state is still exact
    let (_, shapes, violations, full_ops, full_fb) = full_pass(&file, &rules, &vp);
    assert_eq!(cache.shapes(), shapes.as_slice(), "flatten drifted");
    assert_eq!(
        violation_keys(state.violations()),
        violation_keys(violations),
        "DRC drifted"
    );
    assert_eq!(ops, full_ops, "display list drifted");
    assert_eq!(fb, full_fb, "framebuffer drifted");

    let speedup = full_total as f64 / incr_total as f64;
    eprintln!(
        "incremental: {n} shapes, full {:.2} ms (flatten {:.2} drc {:.2} render {:.2}), \
         incremental {:.3} ms (flatten {:.3} drc {:.3} render {:.3}), speedup {speedup:.1}x",
        full_total as f64 / 1e6,
        full_ns.flatten as f64 / 1e6,
        full_ns.drc as f64 / 1e6,
        full_ns.render as f64 / 1e6,
        incr_total as f64 / 1e6,
        incr_ns.flatten as f64 / 1e6,
        incr_ns.drc as f64 / 1e6,
        incr_ns.render as f64 / 1e6,
    );
    if args.min_speedup > 0.0 {
        assert!(
            speedup >= args.min_speedup,
            "speedup {speedup:.2}x below required {:.2}x",
            args.min_speedup
        );
    }

    // The filesystem of the directory the report is written to.
    let out_dir = std::path::Path::new(&args.out)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    let json = format!(
        "{{\n  \"schema\": \"riot-bench-incremental/1\",\n  \"leaf_shapes\": {},\n  \"grid\": {},\n  \"flat_shapes\": {},\n  \"iters\": {},\n  \"host_cpus\": {},\n  \"filesystem\": \"{}\",\n  \"state_build_ns\": {},\n  \"dirty_rects\": {},\n  \"patched_pairs\": {},\n  \"full\": {{ \"flatten_ns\": {}, \"drc_ns\": {}, \"render_ns\": {}, \"total_ns\": {} }},\n  \"incremental\": {{ \"flatten_ns\": {}, \"drc_ns\": {}, \"render_ns\": {}, \"total_ns\": {}, \"full_rebuilds\": {} }},\n  \"speedup\": {:.2}\n}}\n",
        args.leaf_shapes,
        args.grid,
        n,
        args.iters,
        riot_bench::host_cpus(),
        riot_bench::host_filesystem(out_dir),
        build_ns,
        dirty_rects,
        patched_pairs,
        full_ns.flatten,
        full_ns.drc,
        full_ns.render,
        full_total,
        incr_ns.flatten,
        incr_ns.drc,
        incr_ns.render,
        incr_total,
        state.full_rebuilds(),
        speedup
    );
    std::fs::write(&args.out, &json).expect("write benchmark output");
    eprintln!("wrote {}", args.out);
}
