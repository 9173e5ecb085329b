//! Every kernel's Auto declaration ([`Kernel::auto_stream`]) holds by
//! construction: a kernel that declares its Auto build to be the
//! Scalar or Neon@128 stream records exactly that stream for
//! `Impl::Auto`, which is what lets a campaign measure its Auto
//! scenario from that stream's execution group.

use std::collections::HashSet;
use swan_core::{execution_groups, plan, record, AutoStream, Impl, Kernel, Scale};
use swan_simd::trace::{HashSink, TraceSink};
use swan_simd::{TraceData, Width};

/// Digest, histograms and work count of one recorded execution.
fn recorded(kernel: &dyn Kernel, imp: Impl, w: Width) -> (u64, TraceData, u64) {
    let (data, enc, work_ops) = record(kernel, imp, w, Scale::test(), 42);
    let mut hash = HashSink::new();
    enc.replay_batches(|b| {
        for ins in b {
            hash.on_instr(ins);
        }
    });
    (hash.digest(), data, work_ops)
}

#[test]
fn declared_auto_streams_record_identically() {
    let mut own = Vec::new();
    for k in swan_kernels::all_kernels() {
        let id = k.meta().id();
        match k.auto_stream() {
            AutoStream::Own => own.push(id),
            declared => {
                let (imp, w) = declared.resolve(Impl::Auto, Width::W128);
                assert_ne!(imp, Impl::Auto, "{id}");
                assert_eq!(
                    recorded(k.as_ref(), Impl::Auto, Width::W128),
                    recorded(k.as_ref(), imp, w),
                    "{id}: Auto is not the {imp}@{w} stream it declares"
                );
            }
        }
    }
    assert_eq!(own, ["SK.blit_row_srcover", "LV.quantize"]);
}

/// The quick plan groups each distinct stream once: every member of a
/// group names the group's stream, no two groups share one, and the
/// 57 declared Auto scenarios join their Scalar or Neon@128 groups.
#[test]
fn quick_plan_has_one_group_per_stream() {
    let kernels = swan_kernels::all_kernels();
    let plan = plan(&kernels, Scale::quick(), 42);
    let groups = execution_groups(&plan);
    let mut streams = HashSet::new();
    for g in &groups {
        let stream = plan[g[0]].stream_id();
        for &i in g {
            assert_eq!(plan[i].stream_id(), stream, "{}", plan[i].id());
        }
        assert!(streams.insert(stream.clone()), "{stream} in two groups");
    }
    assert_eq!((plan.len(), groups.len()), (485, 144));
}
