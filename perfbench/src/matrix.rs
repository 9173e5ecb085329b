//! `matrix-cold`: the full quick campaign on one thread with no trace
//! store and no journal, then `aggregate` and the `fig1`…`tab7`
//! renders — the default `swan-report` path.

use crate::golden::Golden;
use crate::layers::{layer_values, no_store_or_server, traced_group};
use crate::spans::Tracer;
use crate::{
    out_dir, peak_rss_mb, repeat_units, stats, timed_setup, Checks, Outcome, Run,
    SHORT_SETUP_BUDGET,
};
use std::hint::black_box;
use std::time::Instant;
use swan_core::report::{self, SuiteResults};
use swan_core::{aggregate, execution_groups, plan, try_execute_plan_with, Kernel, Measurement};
use swan_core::{Scale, Scenario};
use swan_uarch::SimResult;

/// One untraced campaign. The campaign is this workload's query: a
/// `swan-report` user waits for all of it. (Single groups are no steady
/// query: their latencies spread over three orders of magnitude, so a
/// percentile of them moves by a few percent per rank.)
struct Unit {
    wall_s: f64,
    measurements: Vec<Option<Measurement>>,
    failures: usize,
}

/// Every report the default `swan-report all` path renders from a
/// suite, as text; returns how many there were.
fn render(suite: &SuiteResults, checks: &mut Checks) -> u64 {
    let reports = [
        report::fig1(suite),
        report::fig2(suite),
        report::fig3(suite),
        report::tab4(suite),
        report::tab5(suite),
        report::fig4(suite),
        report::fig5a(suite),
        report::fig5b(suite),
        report::tab6(suite),
        report::tab7(suite),
    ];
    for r in &reports {
        let text = black_box(r.to_string());
        checks.expect(text.lines().count() > 3, || {
            format!("{}: empty report", r.title)
        });
    }
    reports.len() as u64
}

fn campaign(kernels: &[Box<dyn Kernel>], plan: &[Scenario], checks: &mut Checks) -> Unit {
    let t0 = Instant::now();
    let (measurements, failures) = try_execute_plan_with(kernels, plan, 1, None, |_| {});
    let suite = aggregate(kernels, plan, &measurements, plan[0].scale);
    checks.expect(suite.kernels.len() == kernels.len(), || {
        format!(
            "aggregate completed {} of {} kernels",
            suite.kernels.len(),
            kernels.len()
        )
    });
    render(&suite, checks);
    let wall_s = t0.elapsed().as_secs_f64();
    Unit {
        wall_s,
        measurements,
        failures: failures.len(),
    }
}

/// Check one scenario's simulation against the golden suite (when it
/// was collected at this seed and scale) and against its own stream.
fn check_scenario(checks: &mut Checks, golden: Option<&Golden>, sc: &Scenario, m: &Measurement) {
    checks.expect(m.sim.instrs == m.trace.total(), || {
        format!(
            "{}: simulated {} of {} recorded instructions",
            sc.id(),
            m.sim.instrs,
            m.trace.total()
        )
    });
    if let Some(g) = golden {
        checks.result(g.check(&sc.id(), &m.sim));
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let scale = Scale::quick();
    let (setup_s, (kernels, plan, n_groups)) = timed_setup(5, SHORT_SETUP_BUDGET, || {
        let kernels = swan_kernels::all_kernels();
        let plan = plan(&kernels, scale, run.seed);
        let groups = execution_groups(&plan).len();
        (kernels, plan, groups)
    });
    let golden = Golden::load_for(run.seed, scale)?;
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    let units: Vec<Unit> = repeat_units(run.seconds, || campaign(&kernels, &plan, checks));
    let first = &units[0].measurements;
    for (n, u) in units.iter().enumerate() {
        out.attempted += n_groups as u64;
        out.failed += u.failures as u64;
        for ((sc, m), m0) in plan.iter().zip(&u.measurements).zip(first) {
            match m {
                None => checks.expect(false, || format!("{}: not measured", sc.id())),
                Some(m) if n == 0 => check_scenario(checks, golden.as_ref(), sc, m),
                Some(m) => checks.expect(Some(m) == m0.as_ref(), || {
                    format!("{}: differs between two campaigns of one run", sc.id())
                }),
            }
        }
    }
    out.units = units.len();
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let wall_s = stats::median(&walls);
    let lat: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let (tail_pct, tail_ms) = stats::tail(&lat);
    let steps: u64 = first.iter().flatten().map(|m| m.sim.instrs).sum();
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
        traced(run, &kernels, &plan, &units[0], &mut out)?;
    }
    out.values.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced campaign: every group through [`traced_group`], then
/// `aggregate` and the renders under one span, with each scenario's
/// simulation checked against the untraced campaign's.
fn traced(
    run: &Run,
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    untraced: &Unit,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let root = tr.begin("bench.unit", None);
    let mut sims: Vec<Option<SimResult>> = vec![None; plan.len()];
    let groups = execution_groups(plan);
    for group in &groups {
        let sc = &plan[group[0]];
        let cfgs: Vec<_> = group.iter().map(|&i| plan[i].core.config()).collect();
        let k = kernels[sc.kernel].as_ref();
        match traced_group(
            &mut tr,
            Some(root),
            k,
            sc.imp,
            sc.width,
            sc.scale,
            sc.seed,
            &cfgs,
            None,
        ) {
            Ok(g) => {
                for (&i, sim) in group.iter().zip(g.sims) {
                    sims[i] = Some(sim);
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: traced group failed: {e}");
            }
        }
    }
    let r = tr.begin("core.report.render", Some(root));
    let suite = aggregate(kernels, plan, &untraced.measurements, plan[0].scale);
    let n = render(&suite, &mut out.checks);
    tr.end(r, n);
    tr.end(root, groups.len() as u64);
    out.attempted += groups.len() as u64;
    for ((sc, sim), m) in plan.iter().zip(&sims).zip(&untraced.measurements) {
        out.checks.expect(
            sim.is_some() && sim.as_ref() == m.as_ref().map(|m| &m.sim),
            || {
                format!(
                    "{}: traced simulation differs from the untraced one",
                    sc.id()
                )
            },
        );
    }
    let path = out_dir().join(format!("spans-matrix-cold-seed{}.tsv", run.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let total_s = tr.span(root).busy_ns as f64 / 1e9;
    let measured: Vec<&SimResult> = sims.iter().flatten().collect();
    let v = &mut out.values;
    layer_values(&tr, &measured, v);
    v.insert(
        "core.report.render_ms",
        tr.totals("core.report.render").busy_ns as f64 / 1e6,
    );
    v.insert("trace.total_s", total_s);
    v.insert("trace.untraced_wall_s", untraced.wall_s);
    v.insert("trace_overhead", total_s / untraced.wall_s - 1.0);
    no_store_or_server(v);
    Ok(())
}
