//! Measurement runner: trace a kernel invocation, drive it through
//! the timing model, and attach power/energy.
//!
//! The default path is *record-once / replay-once*
//! ([`measure_group`]): the kernel executes exactly once under a
//! recording sink that encodes the dynamic instruction stream into a
//! compact replay buffer (in memory, or spilled into a trace-store
//! entry). A warm tap on the same live stream warms the caches of a
//! [`swan_uarch::MultiCore`] fan-out of the group's core
//! configurations while the kernel records (§4.3), and the recording
//! is then replayed once, timed, into the same fan-out — so N
//! configurations cost one functional execution plus one stream
//! decode, mirroring the paper's capture-one-trace,
//! replay-into-every-core methodology. A verified trace-store hit has
//! no execution to tap, so it warms by a replay first. Each pass walks
//! the caches once per distinct memory hierarchy among the
//! configurations (one for every registered core); the timed pass then
//! runs one scheduler stage per distinct pipeline (configurations that
//! differ only in clock and power share one) over the walk's
//! per-instruction cache latencies. Live warming and replay warming
//! are bit-identical — the warm pass only walks the memory references,
//! in program order, and the tap sees exactly the instructions the
//! encoder sees. [`capture`] + [`simulate_trace`] remain as the
//! explicit materialized batch path (and all are bit-identical; see
//! the `streaming_equivalence` integration tests).

use crate::kernel::{Impl, Kernel, Scale};
use crate::profile::{self, Phase, ProfileScope};
use crate::tracestore::{StoreKey, StoredRecording, TraceStore};
use swan_simd::trace::{
    self, session_width, stream_into_at, Mode, Session, TraceSink, DEFAULT_BATCH_INSTRS,
};
use swan_simd::{EncodedTrace, RecordSink, TeeRecord, TraceData, TraceInstr, Width};
use swan_uarch::{simulate, CoreConfig, EnergyModel, MultiCore, SimResult};

/// One measured (kernel, implementation, width, core) point.
/// Equality is exact (floats compare bitwise-equal values), which is
/// what the checkpoint journal's byte-identity tests rely on.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Dynamic instruction histograms.
    pub trace: TraceData,
    /// Timing simulation result.
    pub sim: SimResult,
    /// Average chip power in watts (includes DRAM), Figure 3.
    pub power_w: f64,
    /// Energy in joules for one invocation.
    pub energy_j: f64,
    /// Useful arithmetic ops per invocation (Figure 6 axis).
    pub work_ops: u64,
}

impl Measurement {
    /// Execution time in seconds for one invocation.
    pub fn seconds(&self) -> f64 {
        self.sim.seconds
    }
}

/// Attach the energy model to a finished simulation.
fn attach_energy(
    histograms: TraceData,
    sim: SimResult,
    cfg: &CoreConfig,
    width_factor: f64,
    work_ops: u64,
) -> Measurement {
    let energy = EnergyModel::default().energy(&sim, cfg, width_factor);
    let power_w = if sim.seconds > 0.0 {
        energy.total_j() / sim.seconds
    } else {
        0.0
    };
    Measurement {
        trace: histograms,
        sim,
        power_w,
        energy_j: energy.total_j(),
        work_ops,
    }
}

/// Capture the full dynamic trace of one kernel configuration
/// (functional execution under the tracer). Returns the trace and the
/// kernel's useful-operation count.
///
/// This materializes the whole trace — O(dynamic instruction count)
/// memory. Prefer [`measure`]/[`measure_multi`], which stream.
pub fn capture(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
) -> (TraceData, u64) {
    let mut inst = kernel.instantiate(scale, seed);
    let sess = Session::begin(Mode::Full);
    inst.run(imp, w);
    (sess.finish(), inst.work_ops())
}

/// Replay a captured trace through the timing model on one core
/// configuration (with cache warm-up, §4.3) and attach power/energy.
/// `width_factor` scales vector-op energy for wide registers.
pub fn simulate_trace(
    trace: &TraceData,
    cfg: &CoreConfig,
    width_factor: f64,
    work_ops: u64,
) -> Measurement {
    let sim = simulate(trace, cfg);
    attach_energy(trace.histograms(), sim, cfg, width_factor, work_ops)
}

/// Execute a kernel configuration exactly once under a
/// [`RecordSink`], producing the compact replayable encoding of its
/// dynamic instruction stream. Returns the histograms, the recording,
/// and the kernel's useful-operation count.
///
/// The session opens at the scenario's width and the kernel invocation
/// reads it back from the session, instead of the width being threaded
/// through every call layer.
pub fn record(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
) -> (TraceData, EncodedTrace, u64) {
    let mut inst = kernel.instantiate(scale, seed);
    let (data, rec, ()) = stream_into_at(w, RecordSink::new(), || inst.run(imp, session_width()));
    (data, rec.finish(), inst.work_ops())
}

/// A scenario group's recording, however it was obtained: freshly
/// executed into memory, freshly executed while spilling into a
/// trace-store entry, or replayed straight from a verified store hit.
/// All three replay the bit-identical stream.
#[derive(Debug)]
pub struct GroupRecording {
    /// Instruction histograms of the recorded stream (never a
    /// materialized trace).
    pub data: TraceData,
    /// Useful-operation count of the recorded invocation.
    pub work_ops: u64,
    /// Fallback-pool references of the recorded session.
    pub fallback_refs: u64,
    source: RecordingSource,
}

#[derive(Debug)]
enum RecordingSource {
    Memory(EncodedTrace),
    Store(Box<StoredRecording>),
}

impl GroupRecording {
    /// Whether this recording replays from a trace-store file
    /// (O(chunk) resident) rather than an in-memory buffer.
    pub fn from_store(&self) -> bool {
        matches!(self.source, RecordingSource::Store(_))
    }

    /// Drive the recorded stream out as decoded instruction batches —
    /// the monomorphic fast path for core-model consumers. Store-backed
    /// recordings decode double-buffered (chunk `k+1` is read and
    /// verified while the consumer simulates chunk `k`); in-memory
    /// recordings decode serially into one reusable arena. The
    /// concatenated batches equal the live execution's instruction
    /// stream, overhead runs expanded.
    pub fn replay_batches(&mut self, consume: impl FnMut(&[TraceInstr])) {
        match &mut self.source {
            RecordingSource::Memory(enc) => enc.replay_batches(consume),
            RecordingSource::Store(stored) => stored.replay_batches(consume),
        }
    }
}

/// The warm half of a live recording: gathers the executing kernel's
/// instructions into one reused [`DEFAULT_BATCH_INSTRS`] arena and
/// warms the fan-out's caches with each full arena — the same batches,
/// overhead runs expanded the same way, that a replay of the recording
/// would feed [`MultiCore::warm_batch`].
struct WarmTap {
    multi: MultiCore,
    arena: Vec<TraceInstr>,
}

impl WarmTap {
    fn new(cfgs: &[CoreConfig]) -> WarmTap {
        let mut multi = MultiCore::new(cfgs);
        multi.begin_warm();
        WarmTap {
            multi,
            arena: Vec::with_capacity(DEFAULT_BATCH_INSTRS),
        }
    }

    fn warm(&mut self) {
        let _span = ProfileScope::enter(Phase::Warm);
        self.multi.warm_batch(&self.arena);
        self.arena.clear();
    }

    /// Warm the last, partial arena and hand back the warmed fan-out.
    fn finish(mut self) -> MultiCore {
        if !self.arena.is_empty() {
            self.warm();
        }
        self.multi
    }
}

impl TraceSink for WarmTap {
    // Overhead runs use the default expansion, instruction by
    // instruction, exactly as batch decode expands them.
    #[inline]
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.arena.push(*ins);
        if self.arena.len() == DEFAULT_BATCH_INSTRS {
            self.warm();
        }
    }
}

/// One functional execution of a group's kernel into a recording sink.
struct Executed<R> {
    data: TraceData,
    record: R,
    fallback_refs: u64,
    work_ops: u64,
    /// The fan-out its live stream warmed, when one was tapped.
    warmed: Option<MultiCore>,
}

/// Execute a kernel configuration exactly once into `record`, holding
/// the session's fallback counter alongside the usual outputs — the
/// shared recording closure of the memory and store paths. With
/// `warm`, the live stream is teed into a [`WarmTap`] over those
/// configurations, flushed when the session ends.
fn execute_recorded<R: TraceSink>(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    record: R,
    warm: Option<&[CoreConfig]>,
) -> Executed<R> {
    let mut inst = kernel.instantiate(scale, seed);
    let run = || {
        inst.run(imp, session_width());
        // Read inside the session so the value is bound to this
        // session's registry.
        trace::buffer_fallback_refs()
    };
    let (data, record, fallback_refs, warmed) = match warm {
        None => {
            let (data, record, fallback_refs) = stream_into_at(w, record, run);
            (data, record, fallback_refs, None)
        }
        Some(cfgs) => {
            let tee = TeeRecord::new(record, WarmTap::new(cfgs));
            let (data, tee, fallback_refs) = stream_into_at(w, tee, run);
            (data, tee.record, fallback_refs, Some(tee.inner.finish()))
        }
    };
    Executed {
        data,
        record,
        fallback_refs,
        work_ops: inst.work_ops(),
        warmed,
    }
}

/// Obtain a scenario group's recording, consulting `store` first when
/// one is given: a verified hit replays from disk with **no**
/// functional execution; a miss executes the kernel exactly once,
/// spilling the encoding chunk by chunk into a new store entry
/// (O(chunk budget) resident); without a store the recording stays in
/// memory, exactly as before the store existed. All three paths yield
/// bit-identical replays, which is the store's cardinal invariant.
///
/// `imp` at `w` is first resolved to the stream it executes
/// ([`Kernel::auto_stream`]), so an Auto request for a kernel whose
/// Auto build is its Scalar or Neon@128 code records, and looks up,
/// that stream's store entry.
///
/// Store I/O failures never fail the measurement: they are logged and
/// the group falls back to an in-memory recording.
pub fn record_group(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    store: Option<&TraceStore>,
) -> GroupRecording {
    obtain_recording(kernel, imp, w, scale, seed, store, None).0
}

/// [`record_group`], warming a fan-out over `warm` live whenever the
/// kernel executes. Returns the warmed fan-out, or `None` when the
/// recording came from a store hit (or no fan-out was asked for).
fn obtain_recording(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    store: Option<&TraceStore>,
    warm: Option<&[CoreConfig]>,
) -> (GroupRecording, Option<MultiCore>) {
    let (imp, w) = kernel.auto_stream().resolve(imp, w);
    if let Some(store) = store {
        let key = StoreKey::group(&kernel.meta().id(), imp, w, scale, seed);
        let hit = {
            let _span = ProfileScope::enter(Phase::StoreLookup);
            store.lookup(&key)
        };
        if let Some(stored) = hit {
            let rec = GroupRecording {
                data: stored.histograms.histograms(),
                work_ops: stored.work_ops,
                fallback_refs: stored.fallback_refs,
                source: RecordingSource::Store(Box::new(stored)),
            };
            return (rec, None);
        }
        match store.begin_insert(&key) {
            Ok((pending, spill)) => {
                // The codec times its own spill writes; subtract the
                // delta from the recording and commit spans so their
                // self time stays exclusive of spill I/O.
                let run = {
                    let _span = ProfileScope::enter(Phase::Record);
                    let spill0 = profile::codec_spill_ns();
                    let out = execute_recorded(kernel, imp, w, scale, seed, spill, warm);
                    profile::exclude_enclosed(profile::codec_spill_ns() - spill0);
                    out
                };
                profile::add_counts(Phase::Record, run.data.total(), 0);
                let committed = {
                    let _span = ProfileScope::enter(Phase::StoreCommit);
                    let spill0 = profile::codec_spill_ns();
                    let out = store.commit(
                        pending,
                        run.record,
                        run.work_ops,
                        run.fallback_refs,
                        run.data.histograms(),
                    );
                    profile::exclude_enclosed(profile::codec_spill_ns() - spill0);
                    out
                };
                match committed {
                    Ok(stored) => {
                        let rec = GroupRecording {
                            data: run.data.histograms(),
                            work_ops: run.work_ops,
                            fallback_refs: run.fallback_refs,
                            source: RecordingSource::Store(Box::new(stored)),
                        };
                        return (rec, run.warmed);
                    }
                    // The re-record below warms a fresh fan-out; this
                    // one is dropped with `run`.
                    Err(e) => eprintln!(
                        "trace store: commit of {} failed ({e}); re-recording in memory",
                        key.stream_id()
                    ),
                }
            }
            Err(e) => eprintln!(
                "trace store: cannot start entry for {} ({e}); recording in memory",
                key.stream_id()
            ),
        }
    }
    let run = {
        let _span = ProfileScope::enter(Phase::Record);
        execute_recorded(kernel, imp, w, scale, seed, RecordSink::new(), warm)
    };
    profile::add_counts(Phase::Record, run.data.total(), 0);
    let rec = GroupRecording {
        data: run.data.histograms(),
        work_ops: run.work_ops,
        fallback_refs: run.fallback_refs,
        source: RecordingSource::Memory(run.record.finish()),
    };
    (rec, run.warmed)
}

/// Vector-op energy scale factor for an implementation at a width
/// (equal for a request and the stream it resolves to: Auto and
/// Neon@128 both scale by 1).
pub(crate) fn width_factor(imp: Impl, w: Width) -> f64 {
    if imp == Impl::Neon {
        w.factor() as f64
    } else {
        1.0
    }
}

/// Measure one execution group — one kernel configuration's
/// instruction stream — on several core configurations at once,
/// without materializing the trace.
///
/// The recording comes from [`record_group`]'s sources (for the
/// stream `imp` at `w` resolves to): a verified
/// `store` hit, or else exactly one functional execution (spilled into
/// a new store entry on a miss, in memory without a store). When the
/// kernel executes, a tap on its live stream warms every model's
/// caches as it records (the paper warms caches before each measured
/// iteration, §4.3); a store hit warms by replaying the recording
/// instead. The recording is then replayed once, timed, on the batch
/// path (store-backed recordings decode the next chunk on a second
/// thread meanwhile). Each arena of instructions is walked once
/// through each distinct cache hierarchy (configurations with equal
/// `MemConfig`s share one); in the timed pass one scheduler stage per
/// distinct pipeline then steps the arena over that walk's cache
/// latencies. `on_timed` sees every timed batch after the models
/// stepped it (the golden digest hashes them).
///
/// Live and replay warming are bit-identical, so this equals the batch
/// capture-and-replay of one trace with every source. Returns one
/// [`Measurement`] per entry of `cfgs`, in order, and the recording.
#[allow(clippy::too_many_arguments)]
pub fn measure_group(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    cfgs: &[CoreConfig],
    store: Option<&TraceStore>,
    mut on_timed: impl FnMut(&[TraceInstr]),
) -> (Vec<Measurement>, GroupRecording) {
    let (mut rec, warmed) = obtain_recording(kernel, imp, w, scale, seed, store, Some(cfgs));
    let mut multi = warmed.unwrap_or_else(|| {
        // A store hit: no execution to tap, so warm by replay. One
        // profiling span per batch (not per pass): the decode work
        // between batches — inline arena refills or the decoder
        // thread's chunk reads — times itself inside the codec, so
        // span time here is purely model stepping.
        let mut multi = MultiCore::new(cfgs);
        multi.begin_warm();
        rec.replay_batches(|b| {
            let _span = ProfileScope::enter(Phase::Warm);
            multi.warm_batch(b)
        });
        multi
    });
    multi.begin_timed();
    rec.replay_batches(|b| {
        {
            let _span = ProfileScope::enter(Phase::Timed);
            multi.step_batch(b);
        }
        on_timed(b);
    });
    let stats = multi.batch_stats();
    profile::add_counts(Phase::Warm, stats.warm_instrs, 0);
    profile::add_counts(Phase::Timed, stats.timed_instrs, 0);
    let wf = width_factor(imp, w);
    let sims = multi.finalize();
    let measurements = cfgs
        .iter()
        .zip(sims)
        .map(|(cfg, sim)| attach_energy(rec.data.histograms(), sim, cfg, wf, rec.work_ops))
        .collect();
    (measurements, rec)
}

/// Measure one kernel configuration on several core configurations at
/// once: [`measure_group`] without a trace store. The kernel executes
/// exactly *once*, warming every model's caches live while it records,
/// and the recording is replayed once, timed. Returns one
/// [`Measurement`] per entry of `cfgs`, in order.
pub fn measure_multi(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    cfgs: &[CoreConfig],
    scale: Scale,
    seed: u64,
) -> Vec<Measurement> {
    measure_group(kernel, imp, w, scale, seed, cfgs, None, |_| {}).0
}

/// Measure one configuration of a kernel (streaming; single-core
/// convenience form of [`measure_multi`]).
pub fn measure(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    cfg: &CoreConfig,
    scale: Scale,
    seed: u64,
) -> Measurement {
    measure_multi(kernel, imp, w, std::slice::from_ref(cfg), scale, seed)
        .pop()
        .expect("one config in, one measurement out")
}

/// Verify a kernel: run the Scalar and Neon implementations (every
/// width) on the same inputs and compare outputs within the kernel's
/// tolerance. Returns a description of the first mismatch.
pub fn verify_kernel(kernel: &dyn Kernel, scale: Scale, seed: u64) -> Result<(), String> {
    let meta = kernel.meta();
    let mut reference = kernel.instantiate(scale, seed);
    reference.run(Impl::Scalar, Width::W128);
    let expect = reference.output();
    for w in Width::ALL {
        let mut inst = kernel.instantiate(scale, seed);
        inst.run(Impl::Neon, w);
        compare(
            &meta.id(),
            &format!("Neon@{w}"),
            &expect,
            &inst.output(),
            meta.tolerance,
        )?;
    }
    let mut auto = kernel.instantiate(scale, seed);
    auto.run(Impl::Auto, Width::W128);
    compare(&meta.id(), "Auto", &expect, &auto.output(), meta.tolerance)?;
    Ok(())
}

fn compare(id: &str, which: &str, expect: &[f64], got: &[f64], tol: f64) -> Result<(), String> {
    if expect.len() != got.len() {
        return Err(format!(
            "{id} {which}: output length {} != scalar {}",
            got.len(),
            expect.len()
        ));
    }
    for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
        let err = (e - g).abs();
        let bound = tol * e.abs().max(1.0);
        if err > bound {
            return Err(format!(
                "{id} {which}: output[{i}] = {g}, scalar = {e} (tol {tol})"
            ));
        }
    }
    Ok(())
}
