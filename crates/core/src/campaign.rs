//! Suite-level measurement campaign: plan → execute → aggregate.
//!
//! [`plan`] expands a kernel inventory into the paper's full scenario
//! matrix — 59 kernels × {Scalar, Auto, Neon} × vector widths ×
//! {Prime, Gold, Silver, Figure 5(b) sweep} — as a flat, canonically
//! ordered list of [`Scenario`] descriptors. The executor
//! ([`try_execute_plan_checkpointed`]) shards *scenarios* across
//! `std::thread` workers: scenarios sharing one instruction stream
//! (same kernel and [`Scenario::stream`] — the implementation and width
//! that execute, so an Auto scenario whose kernel declares Auto to be
//! its Scalar or Neon@128 code joins that group) are
//! measured from a *single* functional execution, recorded through
//! the trace codec while it warms every member's core model, then
//! replayed once (timed pass) into those models
//! ([`crate::runner::measure_group`]), so the shard unit is a stream
//! group, far finer than a whole kernel, and the emulator runs each
//! stream only once. [`aggregate`] folds per-scenario [`Measurement`]s back into
//! [`KernelResults`]/[`SuiteResults`], so every `report::fig*/tab*`
//! generator consumes the same shapes as before.
//!
//! Per-scenario results depend only on the scenario itself (the tracer
//! is thread-local, addresses are virtualized), so serial, sharded,
//! and plan-permuted executions are bit-identical — enforced by
//! `tests/streaming_equivalence.rs`.

use crate::checkpoint::CampaignJournal;
use crate::kernel::{Impl, Kernel, KernelMeta, Scale};
use crate::report::{KernelResults, SuiteResults, FIG5_KERNELS};
use crate::runner::{measure_group, width_factor, Measurement};
use crate::scenario::Scenario;
use crate::tracestore::TraceStore;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use swan_simd::Width;
use swan_uarch::{CoreConfig, CoreId};

/// Run `work(i)` for `i in 0..n` across up to `workers` scoped
/// threads (1 = inline on the caller), returning the results in index
/// order. Workers pull indices from a shared counter, so shard
/// assignment is dynamic but the output order is deterministic.
/// `work` must not panic (wrap fallible work in `catch_unwind`); a
/// panicking closure would poison the slot mutex and abort the scope.
pub(crate) fn shard_indexed<T: Send>(
    n: usize,
    workers: usize,
    work: impl Fn(usize) -> T + Send + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i);
                slots.lock().expect("shard worker panicked")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("shard worker panicked")
        .into_iter()
        .map(|r| r.expect("every index processed"))
        .collect()
}

// =====================================================================
// Plan
// =====================================================================

/// Whether a kernel is one of the paper's eight Figure 5
/// representatives (which additionally sweep widths and core configs).
fn is_fig5_representative(meta: &KernelMeta) -> bool {
    FIG5_KERNELS
        .iter()
        .any(|&(l, n)| meta.library.info().symbol == l && meta.name == n)
}

/// Expand the paper's matrix for one kernel, in canonical order:
/// Scalar@128 on the three Figure 4 cores, Auto@128 on Prime,
/// Neon@128 on the three cores, then (representatives only) Neon@128
/// across the Figure 5(b) sweep and Neon at the wider widths on Prime.
/// Each scenario records the stream it executes under the kernel's
/// Auto declaration.
fn plan_kernel(kernel: usize, k: &dyn Kernel, scale: Scale, seed: u64) -> Vec<Scenario> {
    let meta = k.meta();
    let auto = k.auto_stream();
    let kernel_id = meta.id();
    let mut out = Vec::new();
    let mut push = |imp: Impl, width: Width, core: CoreId| {
        out.push(Scenario {
            kernel,
            kernel_id: kernel_id.clone(),
            imp,
            width,
            core,
            scale,
            seed,
            stream: auto.resolve(imp, width),
        });
    };
    for core in CoreId::BASE {
        push(Impl::Scalar, Width::W128, core);
    }
    push(Impl::Auto, Width::W128, CoreId::Prime);
    for core in CoreId::BASE {
        push(Impl::Neon, Width::W128, core);
    }
    if is_fig5_representative(&meta) {
        for core in CoreId::FIG5B {
            push(Impl::Neon, Width::W128, core);
        }
        for width in [Width::W256, Width::W512, Width::W1024] {
            push(Impl::Neon, width, CoreId::Prime);
        }
    }
    out
}

/// Expand a kernel inventory into the paper's complete scenario
/// matrix, flat and canonically ordered (kernels in inventory order,
/// each kernel's scenarios in `plan_kernel` order). The plan is a
/// pure function of the inventory, scale, and seed — deterministic and
/// duplicate-free (`crates/core/tests/plan_properties.rs`).
pub fn plan(kernels: &[Box<dyn Kernel>], scale: Scale, seed: u64) -> Vec<Scenario> {
    kernels
        .iter()
        .enumerate()
        .flat_map(|(i, k)| plan_kernel(i, k.as_ref(), scale, seed))
        .collect()
}

// =====================================================================
// Execute
// =====================================================================

/// Partition a plan into execution groups: scenarios sharing one
/// instruction stream (`Scenario::stream_key`, so an Auto scenario
/// joins the Scalar or Neon@128 group of the stream it executes),
/// grouped in order of first appearance, each group's members in plan
/// order. One group is
/// the unit of work a campaign worker executes (one recorded
/// execution replayed to the group's cores) — and the unit the
/// checkpoint journal persists and the campaign server deduplicates,
/// which is why the grouping itself is public API: anything that
/// schedules, caches, or subscribes to campaign work at group
/// granularity must agree on these exact index sets.
pub fn execution_groups(plan: &[Scenario]) -> Vec<Vec<usize>> {
    let mut order: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(usize, Impl, Width, u64, u64), usize> = HashMap::new();
    for (i, sc) in plan.iter().enumerate() {
        match by_key.entry(sc.stream_key()) {
            std::collections::hash_map::Entry::Occupied(e) => order[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(order.len());
                order.push(vec![i]);
            }
        }
    }
    order
}

fn group_progress(plan: &[Scenario], group: &[usize]) -> String {
    let sc = &plan[group[0]];
    format!(
        "measuring {} [{} core{}]",
        sc.stream_id(),
        group.len(),
        if group.len() == 1 { "" } else { "s" }
    )
}

/// Scatter per-group results back into plan order. An empty member
/// list for a group (a failed group) leaves that group's plan slots
/// `None`; otherwise every slot is filled exactly once by its group.
pub(crate) fn scatter_groups<T>(
    plan_len: usize,
    groups: &[Vec<usize>],
    per_group: Vec<Vec<T>>,
) -> Vec<Option<T>> {
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(plan_len).collect();
    for (group, items) in groups.iter().zip(per_group) {
        for (&i, item) in group.iter().zip(items) {
            out[i] = Some(item);
        }
    }
    out
}

/// Measure one group with panic isolation: any measurement panic
/// becomes a [`KernelFailure`] naming the group's stream (shard
/// workers must not panic).
fn measure_group_caught(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    group: &[usize],
    store: Option<&TraceStore>,
) -> Result<Vec<Measurement>, KernelFailure> {
    let sc = &plan[group[0]];
    let kernel = kernels[sc.kernel].as_ref();
    let (imp, width) = sc.stream;
    // Members share one energy model: an Auto member scales vector-op
    // energy as the stream it joined does.
    debug_assert!(
        group
            .iter()
            .all(|&i| width_factor(plan[i].imp, plan[i].width) == width_factor(imp, width)),
        "{}: members with different width factors",
        sc.stream_id()
    );
    catch_unwind(AssertUnwindSafe(|| {
        let cfgs: Vec<CoreConfig> = group.iter().map(|&i| plan[i].core.config()).collect();
        measure_group(kernel, imp, width, sc.scale, sc.seed, &cfgs, store, |_| {}).0
    }))
    .map_err(|p| {
        let message = if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        KernelFailure {
            id: sc.kernel_id.clone(),
            message: format!("{}: {message}", sc.stream_id()),
        }
    })
}

/// Outcome of a plan execution: plan-order measurements (`None` for
/// failed groups and for groups outside this worker's shard) plus the
/// resume/shard accounting.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// One slot per plan scenario; `Some` for every scenario whose
    /// group was resumed from the journal or executed by this run.
    pub measurements: Vec<Option<Measurement>>,
    /// One failure per group whose measurement panicked.
    pub failures: Vec<KernelFailure>,
    /// Total scenario groups in the plan.
    pub total_groups: usize,
    /// Groups loaded from the journal (zero functional re-executions).
    pub resumed_groups: usize,
    /// Groups simulated (and journaled) by this run.
    pub executed_groups: usize,
    /// Groups left to other workers' shards.
    pub skipped_groups: usize,
}

impl CheckpointedRun {
    /// The plan-order measurements of a run that measured every
    /// scenario.
    ///
    /// # Panics
    ///
    /// Panics with a summary naming every failed group's kernel if any
    /// group failed, or if a worker shard left groups to other
    /// workers.
    pub fn into_measurements(self) -> Vec<Measurement> {
        assert!(
            self.failures.is_empty(),
            "campaign kernels panicked: {:?}",
            self.failures
                .iter()
                .map(|f| format!("{}: {}", f.id, f.message))
                .collect::<Vec<_>>()
        );
        self.measurements
            .into_iter()
            .map(|m| m.expect("no failures and no shard, so every scenario measured"))
            .collect()
    }
}

/// Execute a plan: the campaign executor every caller goes through.
///
/// Execution groups are sharded across `threads` workers; each group
/// replays a verified `store` entry when one exists (no functional
/// execution) and records into the store otherwise. Cold-store,
/// warm-store and store-disabled runs are bit-identical, and so are
/// serial, sharded and plan-permuted runs. A panicking group becomes
/// one [`KernelFailure`] with `None` in its members' slots; sibling
/// groups are measured normally.
///
/// With a checkpoint `journal`, groups holding a verified journal
/// entry are *loaded*, never re-simulated, and each measured group is
/// persisted the moment it completes — so a kill at any instant loses
/// at most the groups in flight, and the next run picks up where this
/// one died.
///
/// `shard` restricts execution to one worker's disjoint subset: with
/// `Some((i, of))` only remaining groups whose *canonical* group index
/// `g` satisfies `g % of == i` are simulated (the rest are reported as
/// skipped). Sharding by canonical index — not by position in the
/// remaining list — keeps worker subsets disjoint and jointly complete
/// even when workers start at different times against a partially
/// filled journal. Journal write failures are logged, never fatal: the
/// measurement still counts, only its durability is lost.
pub fn try_execute_plan_checkpointed(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    threads: usize,
    store: Option<&TraceStore>,
    journal: Option<&CampaignJournal>,
    shard: Option<(usize, usize)>,
    progress: impl Fn(&str) + Send + Sync,
) -> CheckpointedRun {
    if let Some((i, of)) = shard {
        assert!(of > 0 && i < of, "worker shard must be i/of with i < of");
    }
    let groups = execution_groups(plan);
    let mut per_group: Vec<Vec<Measurement>> = vec![Vec::new(); groups.len()];
    let mut work: Vec<usize> = Vec::new();
    let mut resumed_groups = 0usize;
    let mut skipped_groups = 0usize;
    for (gi, group) in groups.iter().enumerate() {
        if let Some(ms) = journal.and_then(|j| j.load_group(plan, group)) {
            per_group[gi] = ms;
            resumed_groups += 1;
        } else if shard.is_none_or(|(i, of)| gi % of == i) {
            work.push(gi);
        } else {
            skipped_groups += 1;
        }
    }
    // The worker closure cannot panic, as `shard_indexed` requires:
    // measurement panics are converted to failures here.
    let results: Vec<Result<Vec<Measurement>, KernelFailure>> =
        shard_indexed(work.len(), threads, |wi| {
            let gi = work[wi];
            let group = &groups[gi];
            progress(&group_progress(plan, group));
            let r = measure_group_caught(kernels, plan, group, store);
            if let (Some(journal), Ok(ms)) = (journal, &r) {
                if let Err(e) = journal.record_group(plan, group, ms) {
                    eprintln!(
                        "checkpoint: cannot journal {} ({e}); the group's \
                         result is kept but will re-simulate after a restart",
                        plan[group[0]].stream_id()
                    );
                }
            }
            r
        });
    let mut failures = Vec::new();
    for (&gi, r) in work.iter().zip(results) {
        match r {
            Ok(ms) => per_group[gi] = ms,
            Err(f) => failures.push(f),
        }
    }
    let executed_groups = work.len() - failures.len();
    CheckpointedRun {
        measurements: scatter_groups(plan.len(), &groups, per_group),
        failures,
        total_groups: groups.len(),
        resumed_groups,
        executed_groups,
        skipped_groups,
    }
}

/// Execute a plan without a journal or a worker shard, isolating
/// per-group panics: the [`try_execute_plan_checkpointed`] outcome as
/// plan-order measurements (`None` for failed groups' members) plus
/// one [`KernelFailure`] per failed group.
pub fn try_execute_plan_with(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    threads: usize,
    store: Option<&TraceStore>,
    progress: impl Fn(&str) + Send + Sync,
) -> (Vec<Option<Measurement>>, Vec<KernelFailure>) {
    let run = try_execute_plan_checkpointed(kernels, plan, threads, store, None, None, progress);
    (run.measurements, run.failures)
}

// =====================================================================
// Aggregate
// =====================================================================

/// Fold one kernel's per-scenario measurements back into the
/// [`KernelResults`] shape the report generators consume. `None` when
/// any required scenario is missing from the plan or unmeasured (a
/// failed group, or a filtered subset plan).
fn aggregate_kernel(
    meta: KernelMeta,
    plan: &[Scenario],
    measurements: &[Option<Measurement>],
    indices: &[usize],
) -> Option<KernelResults> {
    let find = |imp: Impl, width: Width, core: CoreId| -> Option<Measurement> {
        indices
            .iter()
            .find(|&&i| {
                let sc = &plan[i];
                sc.imp == imp && sc.width == width && sc.core == core
            })
            .and_then(|&i| measurements[i].clone())
    };
    let neon = find(Impl::Neon, Width::W128, CoreId::Prime)?;
    let widths = if is_fig5_representative(&meta) {
        Some([
            neon.clone(),
            find(Impl::Neon, Width::W256, CoreId::Prime)?,
            find(Impl::Neon, Width::W512, CoreId::Prime)?,
            find(Impl::Neon, Width::W1024, CoreId::Prime)?,
        ])
    } else {
        None
    };
    let sweep = if is_fig5_representative(&meta) {
        let mut s = Vec::with_capacity(6);
        for core in CoreId::FIG5B {
            s.push(find(Impl::Neon, Width::W128, core)?);
        }
        Some(<[Measurement; 6]>::try_from(s).expect("6 sweep configs"))
    } else {
        None
    };
    Some(KernelResults {
        scalar: find(Impl::Scalar, Width::W128, CoreId::Prime)?,
        auto: find(Impl::Auto, Width::W128, CoreId::Prime)?,
        scalar_gold: find(Impl::Scalar, Width::W128, CoreId::Gold)?,
        neon_gold: find(Impl::Neon, Width::W128, CoreId::Gold)?,
        scalar_silver: find(Impl::Scalar, Width::W128, CoreId::Silver)?,
        neon_silver: find(Impl::Neon, Width::W128, CoreId::Silver)?,
        neon,
        widths,
        sweep,
        meta,
    })
}

/// Fold per-scenario measurements back into [`SuiteResults`]: one
/// [`KernelResults`] per inventory kernel whose matrix is complete, in
/// inventory order. Kernels with missing or unmeasured scenarios
/// (failed groups, filtered subset plans) are skipped.
pub fn aggregate(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    measurements: &[Option<Measurement>],
    scale: Scale,
) -> SuiteResults {
    assert_eq!(plan.len(), measurements.len());
    let mut by_kernel: Vec<Vec<usize>> = vec![Vec::new(); kernels.len()];
    for (i, sc) in plan.iter().enumerate() {
        by_kernel[sc.kernel].push(i);
    }
    let out = kernels
        .iter()
        .enumerate()
        .filter_map(|(ki, k)| aggregate_kernel(k.meta(), plan, measurements, &by_kernel[ki]))
        .collect();
    SuiteResults {
        kernels: out,
        scale,
    }
}

/// A kernel whose measurement panicked during a campaign.
#[derive(Clone, Debug)]
pub struct KernelFailure {
    /// `LIB.kernel` identifier of the failed kernel.
    pub id: String,
    /// The panic payload, stringified (prefixed with the panicking
    /// scenario stream's id).
    pub message: String,
}
