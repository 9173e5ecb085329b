//! `serve-store`: a `swan_serve::Server` with one worker and a result
//! cache smaller than the plan, over a trace store the set-up filled,
//! answering two closed-loop client sessions of seeded `kernel=…`
//! queries.

use crate::golden::Golden;
use crate::layers::{layer_values, ratio, traced_group};
use crate::mix::{query_mix, SESSIONS};
use crate::spans::{Span, Tracer};
use crate::{out_dir, peak_rss_mb, repeat_units, stats, timed_setup, Checks, Outcome, Run};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use swan_core::TraceStore;
use swan_core::{execution_groups, plan, record_group, Kernel, Scale, Scenario, ScenarioFilter};
use swan_serve::{QueryEvent, Server, ServerConfig, Tier};
use swan_uarch::SimResult;

/// Result-cache capacity, in groups: fewer than the plan's 201, so the
/// mix evicts and evicted groups come back from the store.
const CACHE_GROUPS: usize = 128;
/// Store fills timed for the set-up median of the untraced run.
const SETUP_REPS: usize = 3;
/// The traced run replays every `REPLAY_STRIDE`-th plan group from the
/// store under spans; a fixed subset keeps the traced run short and
/// its exact counts a function of the seed alone.
const REPLAY_STRIDE: usize = 4;

/// What filling the store left behind.
struct Filled {
    /// Recorded instructions per stream id.
    instrs: HashMap<String, u64>,
    /// Bytes of store entries on disk.
    bytes: u64,
}

/// Fill an empty store with every plan group's recording.
fn fill(kernels: &[Box<dyn Kernel>], plan: &[Scenario], dir: &Path) -> Result<Filled, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = TraceStore::open(dir, kernels).map_err(|e| format!("cannot open store: {e}"))?;
    let groups = execution_groups(plan);
    let mut instrs = HashMap::new();
    for g in &groups {
        let sc = &plan[g[0]];
        let rec = record_group(
            kernels[sc.kernel].as_ref(),
            sc.imp,
            sc.width,
            sc.scale,
            sc.seed,
            Some(&store),
        );
        if !rec.from_store() {
            return Err(format!(
                "{}: recording did not reach the store",
                sc.stream_id()
            ));
        }
        instrs.insert(sc.stream_id(), rec.data.total());
    }
    let (entries, bytes) = store.disk_usage();
    if entries != groups.len() as u64 {
        return Err(format!(
            "store holds {entries} entries for {} groups",
            groups.len()
        ));
    }
    Ok(Filled { instrs, bytes })
}

/// One query's timing and answer tiers.
struct Sample {
    start: Instant,
    end: Instant,
    groups: usize,
    cache_only: bool,
    any_fresh: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One pass of the mix against a fresh server.
struct Unit {
    start: Instant,
    wall_s: f64,
    sessions: Vec<Vec<Sample>>,
    failed: u64,
    groups: [u64; 3],
    fresh_steps: u64,
    stats_line: String,
}

/// What the answers are checked against.
struct Expect<'a> {
    instrs: &'a HashMap<String, u64>,
    golden: Option<&'a Golden>,
    /// First answer seen per scenario id; every later answer (another
    /// tier, another session, another pass) must equal it.
    seen: Mutex<HashMap<String, SimResult>>,
    checks: Mutex<Checks>,
}

impl Expect<'_> {
    fn check(&self, sc: &Scenario, sim: &SimResult) {
        let mut checks = self.checks.lock().expect("checks lock");
        let want = self.instrs.get(&sc.stream_id()).copied();
        checks.expect(want == Some(sim.instrs), || {
            format!(
                "{}: answered {} instructions, recorded {want:?}",
                sc.id(),
                sim.instrs
            )
        });
        if let Some(g) = self.golden {
            checks.result(g.check(&sc.id(), sim));
        }
        let mut seen = self.seen.lock().expect("seen lock");
        match seen.get(&sc.id()) {
            Some(first) => checks.expect(first == sim, || {
                format!("{}: two answers for one scenario differ", sc.id())
            }),
            None => {
                seen.insert(sc.id(), sim.clone());
            }
        }
    }
}

fn mix_unit(
    store: &Arc<TraceStore>,
    seed: u64,
    mix: &[Vec<Vec<ScenarioFilter>>],
    expect: &Expect,
) -> Unit {
    let server = Server::new(
        swan_kernels::all_kernels(),
        Some(store.clone()),
        ServerConfig {
            scale: Scale::quick(),
            seed,
            workers: 1,
            queue_cap: 256,
            cache_groups: CACHE_GROUPS,
            max_requests: SESSIONS,
        },
    );
    let misses = store.stats().misses;
    let barrier = Barrier::new(mix.len());
    let totals = Mutex::new(([0u64; 3], 0u64, 0u64));
    let start = Instant::now();
    let sessions: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = mix
            .iter()
            .map(|queries| {
                let (server, barrier, totals) = (&server, &barrier, &totals);
                s.spawn(move || {
                    barrier.wait();
                    let mut samples = Vec::with_capacity(queries.len());
                    for filters in queries {
                        let mut steps = 0u64;
                        let start = Instant::now();
                        let reply = server.query_with(filters, |ev| {
                            if let QueryEvent::Group {
                                tier: Tier::Fresh,
                                rows,
                                ..
                            } = ev
                            {
                                steps += rows.iter().map(|(_, m)| m.sim.instrs).sum::<u64>();
                            }
                        });
                        let end = Instant::now();
                        let mut t = totals.lock().expect("totals lock");
                        t.2 += steps;
                        match reply {
                            Ok(r) => {
                                t.0[0] += r.stats.cached as u64;
                                t.0[1] += r.stats.shared as u64;
                                t.0[2] += r.stats.fresh as u64;
                                t.1 += u64::from(r.stats.failures > 0);
                                drop(t);
                                for (sc, m) in r.plan.iter().zip(&r.measurements) {
                                    match m {
                                        Some(m) => expect.check(sc, &m.sim),
                                        None => expect
                                            .checks
                                            .lock()
                                            .expect("checks lock")
                                            .expect(false, || format!("{}: no answer", sc.id())),
                                    }
                                }
                                samples.push(Sample {
                                    start,
                                    end,
                                    groups: r.stats.groups,
                                    cache_only: r.stats.cached == r.stats.groups,
                                    any_fresh: r.stats.fresh > 0,
                                });
                            }
                            Err(e) => {
                                t.1 += 1;
                                eprintln!("perfbench: query failed: {e}");
                            }
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client session panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats_line = server.stats_line();
    drop(server);
    expect
        .checks
        .lock()
        .expect("checks lock")
        .expect(store.stats().misses == misses, || {
            "the server recorded a group the store should have held".to_string()
        });
    let (groups, failed, fresh_steps) = totals.into_inner().expect("totals lock");
    Unit {
        start,
        wall_s,
        sessions,
        failed,
        groups,
        fresh_steps,
        stats_line,
    }
}

/// One `key=value` counter of the server's `serve:` stats line.
fn stat(line: &str, key: &str) -> f64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let dir = out_dir().join(format!("store-{}", std::process::id()));
    let out = measure(run, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn measure(run: &Run, dir: &Path) -> Result<Outcome, String> {
    let scale = Scale::quick();
    let mut fill_s = Vec::new();
    let reps = if run.trace { 1 } else { SETUP_REPS };
    let (setup_s, filled) = timed_setup(reps, Duration::ZERO, || {
        let kernels = swan_kernels::all_kernels();
        let plan = plan(&kernels, scale, run.seed);
        let t = Instant::now();
        let filled = fill(&kernels, &plan, dir);
        fill_s.push(t.elapsed().as_secs_f64());
        filled.map(|f| (kernels, plan, f))
    });
    let (kernels, plan, filled) = filled?;
    let store =
        Arc::new(TraceStore::open(dir, &kernels).map_err(|e| format!("cannot open store: {e}"))?);
    let ids: Vec<String> = kernels.iter().map(|k| k.meta().id()).collect();
    let mix: Vec<Vec<Vec<ScenarioFilter>>> = query_mix(&ids, run.seed)
        .iter()
        .map(|session| {
            session
                .iter()
                .map(|q| ScenarioFilter::parse(q).map(|f| vec![f]))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let golden = Golden::load_for(run.seed, scale)?;
    let expect = Expect {
        instrs: &filled.instrs,
        golden: golden.as_ref(),
        seen: Mutex::new(HashMap::new()),
        checks: Mutex::new(Checks::default()),
    };
    let units: Vec<Unit> = repeat_units(run.seconds, || mix_unit(&store, run.seed, &mix, &expect));
    let mut out = Outcome::default();
    let queries: usize = mix.iter().map(Vec::len).sum();
    out.attempted = (queries * units.len()) as u64;
    out.failed = units.iter().map(|u| u.failed).sum();
    out.units = units.len();
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let wall_s = stats::median(&walls);
    let lat: Vec<f64> = units
        .iter()
        .flat_map(|u| u.sessions.iter().flatten().map(Sample::ms))
        .collect();
    let (tail_pct, tail_ms) = stats::tail(&lat);
    let msteps: Vec<f64> = units
        .iter()
        .map(|u| u.fresh_steps as f64 / u.wall_s / 1e6)
        .collect();
    let v = &mut out.values;
    v.insert("wall_s", wall_s);
    v.insert("setup_s", setup_s);
    v.insert("sim_msteps_per_s", stats::median(&msteps));
    v.insert("query_p50_ms", stats::median(&lat));
    v.insert("query_tail_ms", tail_ms);
    v.insert("queries_per_s", queries as f64 / wall_s);
    v.insert("query.samples", lat.len() as f64);
    v.insert("query.tail_pct", tail_pct);
    let recorded: u64 = filled.instrs.values().sum();
    v.insert("core.tracestore.bytes", filled.bytes as f64);
    v.insert(
        "core.tracestore.bytes_per_instr",
        ratio(filled.bytes as f64, recorded as f64),
    );
    v.insert("core.tracestore.populate_s", stats::median(&fill_s));
    if run.trace {
        traced(
            run, &kernels, &plan, &store, &mix, &expect, &units[0], &mut out,
        )?;
    }
    out.checks = expect.checks.into_inner().expect("checks lock");
    out.values.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// The traced run: the mix again with a span per query, then every
/// [`REPLAY_STRIDE`]-th plan group measured through [`traced_group`]
/// from the store — one lookup and two store-backed replays, as the
/// server's worker does — and checked against the answers the server
/// gave for its scenarios.
#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    store: &Arc<TraceStore>,
    mix: &[Vec<Vec<ScenarioFilter>>],
    expect: &Expect,
    untraced: &Unit,
    out: &mut Outcome,
) -> Result<(), String> {
    let u = mix_unit(store, run.seed, mix, expect);
    out.attempted += u.sessions.iter().map(|s| s.len() as u64).sum::<u64>();
    out.failed += u.failed;
    let mut tr = Tracer::new();
    let at = |t: Instant| t.saturating_duration_since(u.start).as_nanos() as u64;
    let end = (u.wall_s * 1e9) as u64;
    let whole = |name, parent, items| Span {
        name,
        parent,
        start_ns: 0,
        end_ns: end,
        busy_ns: end,
        items,
    };
    let root = tr.push(whole("serve.mix", None, 0));
    for session in &u.sessions {
        let s = tr.push(whole("serve.session", Some(root), session.len() as u64));
        for q in session {
            let (a, b) = (at(q.start), at(q.end));
            tr.push(Span {
                name: "serve.query",
                parent: Some(s),
                start_ns: a,
                end_ns: b,
                busy_ns: b - a,
                items: q.groups as u64,
            });
        }
    }
    let pass = tr.begin("core.tracestore.pass", None);
    let groups: Vec<Vec<usize>> = execution_groups(plan)
        .into_iter()
        .step_by(REPLAY_STRIDE)
        .collect();
    let mut sims = Vec::new();
    for g in &groups {
        let sc = &plan[g[0]];
        let cfgs: Vec<_> = g.iter().map(|&i| plan[i].core.config()).collect();
        let k = kernels[sc.kernel].as_ref();
        let traced = traced_group(
            &mut tr,
            Some(pass),
            k,
            sc.imp,
            sc.width,
            sc.scale,
            sc.seed,
            &cfgs,
            Some(store),
        )?;
        let mut checks = expect.checks.lock().expect("checks lock");
        let seen = expect.seen.lock().expect("seen lock");
        for (&i, sim) in g.iter().zip(&traced.sims) {
            let id = plan[i].id();
            checks.expect(seen.get(&id) == Some(sim), || {
                format!("{id}: traced replay differs from the served answer")
            });
        }
        sims.extend(traced.sims);
    }
    tr.end(pass, groups.len() as u64);
    let path = out_dir().join(format!("spans-serve-store-seed{}.tsv", run.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let samples: Vec<&Sample> = u.sessions.iter().flatten().collect();
    let p50 = |keep: fn(&Sample) -> bool| {
        let v: Vec<f64> = samples.iter().filter(|s| keep(s)).map(|s| s.ms()).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let v = &mut out.values;
    layer_values(&tr, &sims.iter().collect::<Vec<_>>(), v);
    let [cache, shared, fresh] = u.groups.map(|g| g as f64);
    v.insert("serve.groups.cache", cache);
    v.insert("serve.groups.shared", shared);
    v.insert("serve.groups.fresh", fresh);
    v.insert(
        "serve.cache_hit_ratio",
        ratio(cache, cache + shared + fresh),
    );
    v.insert("serve.cache_query_p50_ms", p50(|s| s.cache_only));
    v.insert("serve.fresh_query_p50_ms", p50(|s| s.any_fresh));
    v.insert(
        "serve.fresh_group_ms",
        ratio(
            stat(&u.stats_line, "fresh_ns") / 1e6,
            stat(&u.stats_line, "fresh"),
        ),
    );
    v.insert("core.report.render_ms", 0.0);
    v.insert("trace.total_s", u.wall_s);
    v.insert("trace.untraced_wall_s", untraced.wall_s);
    v.insert("trace_overhead", u.wall_s / untraced.wall_s - 1.0);
    Ok(())
}
