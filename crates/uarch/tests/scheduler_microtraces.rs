//! Scheduler microtraces: tiny synthetic instruction streams, no
//! kernels, whose exact cycle counts follow by hand from the model's
//! rules (fetch `decode_width` per cycle, issue when the operands and a
//! unit of the op's pool are free, a blocking op holds its unit for
//! its whole latency, in-order cores never issue before the previous
//! issue, in-order commit, `cycles = last commit + 1`). None of the
//! streams touches memory or branches, so caches and mispredicts play
//! no part.

use swan_simd::trace::{Class, Op};
use swan_simd::{TraceData, TraceInstr};
use swan_uarch::{simulate_cold, CoreConfig, SimResult};

/// One register-only instruction writing value `dst` from `srcs`.
fn instr(op: Op, class: Class, dst: u32, srcs: &[u32]) -> TraceInstr {
    let mut s = [0u32; 4];
    s[..srcs.len()].copy_from_slice(srcs);
    TraceInstr {
        op,
        class,
        dst,
        srcs: s,
        nsrc: srcs.len() as u8,
        mem: None,
    }
}

fn run(instrs: Vec<TraceInstr>, cfg: &CoreConfig) -> SimResult {
    let mut t = TraceData::default();
    for ins in &instrs {
        t.by_op[ins.op as usize] += 1;
        t.by_class[ins.class as usize] += 1;
    }
    t.instrs = instrs;
    simulate_cold(&t, cfg)
}

/// `n` independent scalar divides (latency 12, blocking).
fn divides(n: u32) -> Vec<TraceInstr> {
    (1..=n)
        .map(|d| instr(Op::SDiv, Class::SInt, d, &[]))
        .collect()
}

/// Back-to-back blocking divides on one ALU occupy it for their full
/// latency: divide `i` issues at `12 i` and completes at `12 (i + 1)`,
/// so ten of them take 12 · 10 + 1 cycles. With Prime's three ALUs
/// they issue three at a time, at 0, 12, 24 and 36: 12 · 4 + 1.
#[test]
fn blocking_divides_occupy_their_unit_for_the_full_latency() {
    let one_alu = CoreConfig {
        scalar_alus: 1,
        ..CoreConfig::prime()
    };
    let r = run(divides(10), &one_alu);
    assert_eq!(r.cycles, 121);
    assert_eq!(r.instrs, 10);
    assert_eq!((r.fe_stall_cycles, r.be_stall_cycles), (0, 0));

    let r = run(divides(10), &CoreConfig::prime());
    assert_eq!(r.cycles, 49);
}

/// A divide (ALU, 12 cycles), an add that consumes it, and an
/// independent FP divide (ASIMD pipe, 10 cycles).
///
/// Out of order (Prime), the FP divide issues at its dispatch cycle 0
/// and completes at 10; the add issues at 12 and completes at 13; all
/// three commit by cycle 13: 14 cycles. In order (Silver), the FP
/// divide may not issue before the add's issue at 12, so it completes
/// at 22: 23 cycles. Silver with out-of-order issue is back to 14
/// (its FP divide dispatches at cycle 1, from the second fetch group
/// of its 2-wide decode, and completes at 11), so the 9 extra cycles
/// are the in-order issue rule alone.
#[test]
fn in_order_issue_serialises_behind_a_long_latency_op() {
    let stream = || {
        vec![
            instr(Op::SDiv, Class::SInt, 1, &[]),
            instr(Op::SAlu, Class::SInt, 2, &[1]),
            instr(Op::SFDiv, Class::SFloat, 3, &[]),
        ]
    };
    assert_eq!(run(stream(), &CoreConfig::prime()).cycles, 14);
    assert_eq!(run(stream(), &CoreConfig::silver()).cycles, 23);
    let silver_ooo = CoreConfig {
        in_order: false,
        ..CoreConfig::silver()
    };
    assert_eq!(run(stream(), &silver_ooo).cycles, 14);
}
