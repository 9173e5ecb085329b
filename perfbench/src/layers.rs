//! The traced form of one group measurement, rebuilt from the public
//! calls `runner::measure_recorded` makes, with a span around each
//! layer, and the per-layer metrics the spans yield.

use crate::metrics::Values;
use crate::spans::{Span, Tracer};
use std::time::Instant;
use swan_core::{record_group, Impl, Kernel, Scale, TraceStore};
use swan_simd::{TraceInstr, Width};
use swan_uarch::{CoreConfig, MultiCore, SimResult};

/// What one traced group measurement produced.
#[derive(Debug)]
pub struct GroupRun {
    /// One result per configuration, in order.
    pub sims: Vec<SimResult>,
    /// Useful operations of the recorded invocation.
    pub work_ops: u64,
}

/// Measure one group the way `runner::measure_recorded` does: obtain
/// the recording (`record_group`), replay it once to warm every core's
/// caches and once timed, then finalize. Spans:
///
/// - `core.group` (items: cores), the root;
/// - `simd.record` (instructions) without a store, or
///   `core.tracestore.lookup` (bytes read) with one;
/// - one pass span per replay: `simd.decode` for an in-memory
///   recording, `core.tracestore.replay` for a store-backed one
///   (items: instructions; self time is decode, or waiting on the
///   decoder thread);
/// - under each pass, `uarch.warm` or `uarch.timed` (items: model
///   steps), busy only inside the batch closure.
///
/// With a store, the recording must be a verified hit: a miss would
/// record, which the store workload never does while measuring.
#[allow(clippy::too_many_arguments)]
pub fn traced_group(
    tr: &mut Tracer,
    parent: Option<usize>,
    kernel: &dyn Kernel,
    imp: Impl,
    width: Width,
    scale: Scale,
    seed: u64,
    cfgs: &[CoreConfig],
    store: Option<&TraceStore>,
) -> Result<GroupRun, String> {
    let group = tr.begin("core.group", parent);
    let mut rec = match store {
        None => {
            let s = tr.begin("simd.record", Some(group));
            let rec = record_group(kernel, imp, width, scale, seed, None);
            tr.end(s, rec.data.total());
            rec
        }
        Some(store) => {
            let before = store.stats();
            let s = tr.begin("core.tracestore.lookup", Some(group));
            let rec = record_group(kernel, imp, width, scale, seed, Some(store));
            let after = store.stats();
            tr.end(s, after.bytes_read - before.bytes_read);
            if after.misses != before.misses || !rec.from_store() {
                return Err(format!(
                    "{}: trace store miss while measuring",
                    kernel.meta().id()
                ));
            }
            rec
        }
    };
    let pass = if rec.from_store() {
        "core.tracestore.replay"
    } else {
        "simd.decode"
    };
    let cores = cfgs.len() as u64;
    let mut multi = MultiCore::new(cfgs);
    multi.begin_warm();
    let mut replay = |tr: &mut Tracer, model: &'static str, step: &mut dyn FnMut(&[TraceInstr])| {
        let p = tr.begin(pass, Some(group));
        let (mut busy, mut instrs) = (0u64, 0u64);
        rec.replay_batches(|b| {
            let t = Instant::now();
            step(b);
            busy += t.elapsed().as_nanos() as u64;
            instrs += b.len() as u64;
        });
        tr.end(p, instrs);
        let (start_ns, end_ns) = (tr.span(p).start_ns, tr.span(p).end_ns);
        tr.push(Span {
            name: model,
            parent: Some(p),
            start_ns,
            end_ns,
            busy_ns: busy,
            items: instrs * cores,
        });
    };
    replay(tr, "uarch.warm", &mut |b| multi.warm_batch(b));
    multi.begin_timed();
    replay(tr, "uarch.timed", &mut |b| multi.step_batch(b));
    let sims = multi.finalize();
    tr.end(group, cores);
    Ok(GroupRun {
        sims,
        work_ops: rec.work_ops,
    })
}

/// `num / den`, or 0 when nothing was done (`den` = 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics the group spans and the simulated results of
/// a traced run give. `uarch.cache.accesses` is the L1D line accesses
/// of the timed pass, which equal the warm pass's: both walk the same
/// reference stream through the same cache code, and the warm pass
/// does nothing else. `uarch.sched.ns_per_step` is derived, timed
/// minus warm model time per step.
pub fn layer_values(tr: &Tracer, sims: &[&SimResult], v: &mut Values) {
    let rec = tr.totals("simd.record");
    let dec = tr.totals("simd.decode");
    let warm = tr.totals("uarch.warm");
    let timed = tr.totals("uarch.timed");
    let group = tr.totals("core.group");
    let lookup = tr.totals("core.tracestore.lookup");
    let replay = tr.totals("core.tracestore.replay");
    let accesses: u64 = sims.iter().map(|s| s.l1d.accesses).sum();
    let f = |x: u64| x as f64;
    v.insert("simd.record.instrs", f(rec.items));
    v.insert(
        "simd.record.ns_per_instr",
        ratio(f(rec.busy_ns), f(rec.items)),
    );
    v.insert("simd.decode.instrs", f(dec.items));
    v.insert(
        "simd.decode.ns_per_instr",
        ratio(f(dec.self_ns), f(dec.items)),
    );
    v.insert("uarch.cache.accesses", f(accesses));
    v.insert(
        "uarch.cache.ns_per_access",
        ratio(f(warm.busy_ns), f(accesses)),
    );
    v.insert(
        "uarch.warm.ns_per_step",
        ratio(f(warm.busy_ns), f(warm.items)),
    );
    v.insert(
        "uarch.timed.ns_per_step",
        ratio(f(timed.busy_ns), f(timed.items)),
    );
    v.insert(
        "uarch.sched.ns_per_step",
        ratio(f(timed.busy_ns) - f(warm.busy_ns), f(timed.items)),
    );
    v.insert(
        "uarch.multicore.mean_fanout",
        ratio(f(group.items), f(group.count)),
    );
    v.insert("uarch.sim.cycles", f(sims.iter().map(|s| s.cycles).sum()));
    v.insert(
        "uarch.sim.l1d_misses",
        f(sims.iter().map(|s| s.l1d.misses).sum()),
    );
    v.insert(
        "uarch.sim.llc_misses",
        f(sims.iter().map(|s| s.llc.misses).sum()),
    );
    v.insert(
        "uarch.sim.dram_accesses",
        f(sims.iter().map(|s| s.dram_accesses).sum()),
    );
    v.insert(
        "core.tracestore.lookup_ns_per_byte",
        ratio(f(lookup.busy_ns), f(lookup.items)),
    );
    v.insert(
        "core.tracestore.replay_ns_per_instr",
        ratio(f(replay.self_ns), f(replay.items)),
    );
}

/// Zero the store and serving metrics of a workload that runs with
/// neither a trace store nor a server.
pub fn no_store_or_server(v: &mut Values) {
    for m in [
        "core.tracestore.bytes",
        "core.tracestore.bytes_per_instr",
        "core.tracestore.populate_s",
        "serve.groups.cache",
        "serve.groups.shared",
        "serve.groups.fresh",
        "serve.cache_hit_ratio",
        "serve.cache_query_p50_ms",
        "serve.fresh_query_p50_ms",
        "serve.fresh_group_ms",
    ] {
        v.insert(m, 0.0);
    }
}
