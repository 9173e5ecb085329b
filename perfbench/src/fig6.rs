//! `fig6-sweep`: the Figure 6 layer sweep — 13 sampled convolution
//! layer shapes × {GEMM, SpMM} (FP32), each Neon@128 on Prime at full
//! scale through `runner::measure`, with `accel::GpuModel` giving the
//! offload time and the Neon/GPU crossover.

use crate::layers::{layer_values, no_store_or_server, traced_group};
use crate::spans::Tracer;
use crate::{
    out_dir, peak_rss_mb, repeat_units, stats, timed_setup, Checks, Outcome, Run,
    SHORT_SETUP_BUDGET,
};
use std::time::Instant;
use swan_accel::GpuModel;
use swan_core::{measure, Impl, Kernel, Measurement, Scale};
use swan_kernels::xp::{conv_layers, GemmF32, Shape, SpmmF32};
use swan_simd::Width;
use swan_uarch::{CoreConfig, SimResult};

/// Layer shapes sampled from the 156-layer sweep, as the
/// `swan-report fig6` figure samples them.
const POINTS: usize = 13;

/// One sweep point: a layer shape in one kernel form.
struct Point {
    spmm: bool,
    shape: Shape,
    kernel: Box<dyn Kernel>,
}

fn points() -> Vec<Point> {
    let layers = conv_layers();
    let step = (layers.len() / POINTS).max(1);
    let mut out = Vec::new();
    for &shape in layers.iter().step_by(step) {
        out.push(Point {
            spmm: false,
            shape,
            kernel: Box::new(GemmF32::with_shape(shape)),
        });
        out.push(Point {
            spmm: true,
            shape,
            kernel: Box::new(SpmmF32::with_shape(shape)),
        });
    }
    out
}

/// One untraced sweep. The sweep is this workload's query: a request
/// for Figure 6 waits for all of it. (Single points are no steady
/// query: their latencies are 26 sizes spread over four orders of
/// magnitude, so a percentile of them jumps between points.)
struct Unit {
    wall_s: f64,
    measurements: Vec<Measurement>,
}

fn sweep(points: &[Point], seed: u64) -> Unit {
    let prime = CoreConfig::prime();
    let t0 = Instant::now();
    let measurements = points
        .iter()
        .map(|p| {
            measure(
                p.kernel.as_ref(),
                Impl::Neon,
                Width::W128,
                &prime,
                Scale(1.0),
                seed,
            )
        })
        .collect();
    Unit {
        wall_s: t0.elapsed().as_secs_f64(),
        measurements,
    }
}

/// The paper's finding (d): for each kernel form, Neon wins the
/// smallest layer and the modelled GPU overtakes it at some operation
/// count within the sweep.
fn check_crossover(points: &[Point], ms: &[Measurement], checks: &mut Checks) {
    let gpu = GpuModel::default();
    for spmm in [false, true] {
        let kind = if spmm { "SpMM" } else { "GEMM" };
        let neon_wins: Vec<bool> = points
            .iter()
            .zip(ms)
            .filter(|(p, _)| p.spmm == spmm)
            .map(|(_, m)| {
                let t = if spmm {
                    gpu.spmm_time(m.work_ops)
                } else {
                    gpu.gemm_time(m.work_ops)
                };
                t.seconds().is_some_and(|g| m.seconds() <= g)
            })
            .collect();
        checks.expect(neon_wins.first() == Some(&true), || {
            format!("{kind}: the GPU model wins the smallest layer")
        });
        checks.expect(neon_wins.contains(&false), || {
            format!("{kind}: no Neon/GPU crossover")
        });
    }
}

/// Check one point's operation count and stream.
fn check_point(p: &Point, m: &Measurement, checks: &mut Checks) {
    let s = p.shape;
    let id = format!("{}@{}x{}x{}", p.kernel.meta().id(), s.m, s.k, s.n);
    if p.spmm {
        checks.expect(m.work_ops > 0 && m.work_ops <= s.macs(), || {
            format!(
                "{id}: work_ops {} outside (0, m·k·n = {}]",
                m.work_ops,
                s.macs()
            )
        });
    } else {
        checks.expect(m.work_ops == s.macs(), || {
            format!("{id}: work_ops {} != m·k·n = {}", m.work_ops, s.macs())
        });
    }
    checks.expect(m.sim.instrs == m.trace.total() && m.sim.instrs > 0, || {
        format!(
            "{id}: simulated {} of {} recorded instructions",
            m.sim.instrs,
            m.trace.total()
        )
    });
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (setup_s, points) = timed_setup(5, SHORT_SETUP_BUDGET, points);
    let mut out = Outcome::default();
    let units: Vec<Unit> = repeat_units(run.seconds, || sweep(&points, run.seed));
    let first = &units[0].measurements;
    for (p, m) in points.iter().zip(first) {
        check_point(p, m, &mut out.checks);
    }
    check_crossover(&points, first, &mut out.checks);
    for u in &units[1..] {
        for (p, (m, m0)) in points.iter().zip(u.measurements.iter().zip(first)) {
            out.checks.expect(m == m0, || {
                format!(
                    "{}: differs between two sweeps of one run",
                    p.kernel.meta().id()
                )
            });
        }
    }
    out.attempted = (units.len() * points.len()) as u64;
    out.units = units.len();
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let wall_s = stats::median(&walls);
    let lat: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let (tail_pct, tail_ms) = stats::tail(&lat);
    let steps: u64 = first.iter().map(|m| m.sim.instrs).sum();
    let v = &mut out.values;
    v.insert("wall_s", wall_s);
    v.insert("setup_s", setup_s);
    v.insert("sim_msteps_per_s", steps as f64 / wall_s / 1e6);
    v.insert("query_p50_ms", stats::median(&lat));
    v.insert("query_tail_ms", tail_ms);
    v.insert("queries_per_s", 1.0 / wall_s);
    v.insert("query.samples", lat.len() as f64);
    v.insert("query.tail_pct", tail_pct);
    if run.trace {
        traced(run, &points, &units[0], &mut out)?;
    }
    out.values.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced sweep: each point through [`traced_group`] on Prime,
/// checked against the untraced sweep.
fn traced(run: &Run, points: &[Point], untraced: &Unit, out: &mut Outcome) -> Result<(), String> {
    let prime = [CoreConfig::prime()];
    let mut tr = Tracer::new();
    let root = tr.begin("bench.unit", None);
    let mut sims: Vec<SimResult> = Vec::new();
    for (p, m) in points.iter().zip(&untraced.measurements) {
        let k = p.kernel.as_ref();
        let g = traced_group(
            &mut tr,
            Some(root),
            k,
            Impl::Neon,
            Width::W128,
            Scale(1.0),
            run.seed,
            &prime,
            None,
        )?;
        out.checks
            .expect(g.sims[0] == m.sim && g.work_ops == m.work_ops, || {
                format!(
                    "{}: traced measurement differs from the untraced one",
                    k.meta().id()
                )
            });
        sims.extend(g.sims);
    }
    tr.end(root, points.len() as u64);
    out.attempted += points.len() as u64;
    let path = out_dir().join(format!("spans-fig6-sweep-seed{}.tsv", run.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let total_s = tr.span(root).busy_ns as f64 / 1e9;
    let v = &mut out.values;
    layer_values(&tr, &sims.iter().collect::<Vec<_>>(), v);
    v.insert("core.report.render_ms", 0.0);
    v.insert("trace.total_s", total_s);
    v.insert("trace.untraced_wall_s", untraced.wall_s);
    v.insert("trace_overhead", total_s / untraced.wall_s - 1.0);
    no_store_or_server(v);
    Ok(())
}
