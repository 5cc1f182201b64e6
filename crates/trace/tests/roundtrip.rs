//! Round-trip properties: recording any generator stream and replaying
//! it must reproduce the exact op sequence, for every benchmark, core
//! and seed — the foundation the system-level differential tests build
//! on.

use cmpleak_cpu::{TraceOp, Workload};
use cmpleak_trace::{record_workloads, OpDecoder, OpEncoder, TraceFile, TraceRecorder};
use cmpleak_workloads::{GenerationalWorkload, WorkloadSpec};
use proptest::prelude::*;

proptest! {
    /// Replay equals live generation op-for-op across the whole suite.
    #[test]
    fn replay_matches_live_stream(
        idx in 0usize..6,
        core in 0usize..4,
        seed in 0u64..100_000,
    ) {
        let spec = WorkloadSpec::paper_suite()[idx];
        let mut live = GenerationalWorkload::new(spec, core, 4, seed);
        let mut rec = TraceRecorder::new(spec.name, seed);
        let info = rec.record_core(&mut live, 20_000);
        let (ops, instructions) = (info.ops, info.instructions);
        prop_assert!(instructions >= 20_000);
        prop_assert!(instructions - 20_000 < 64, "overshoot is at most one op's instructions");

        let tf = TraceFile::from_bytes(rec.to_bytes()).unwrap();
        let mut replay = tf.core_workload(0).unwrap();
        prop_assert_eq!(replay.name(), spec.name);
        let mut fresh = GenerationalWorkload::new(spec, core, 4, seed);
        for i in 0..ops {
            let (r, l) = (replay.next_op(), fresh.next_op());
            prop_assert_eq!(r, l, "op {} diverged", i);
        }
        prop_assert!(replay.try_next_op().is_none());
    }

    /// The fast batch decoder (1/2-byte varint fast paths + generic
    /// fallback) equals sequential `decode`, for arbitrary op mixes —
    /// including large deltas that force long varints — and for every
    /// split of the stream into odd-sized batches.
    #[test]
    fn batch_decode_equals_sequential_decode(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u32..1 << 20).prop_map(TraceOp::Exec),
                any::<u64>().prop_map(|a| TraceOp::Load(a >> 4)),
                any::<u64>().prop_map(|a| TraceOp::Store(a >> 4)),
            ],
            1..200,
        ),
        chunk in 1usize..70,
    ) {
        let mut enc = OpEncoder::new();
        let mut buf = Vec::new();
        for &op in &ops {
            enc.encode(op, &mut buf);
        }
        let mut seq = OpDecoder::new();
        let mut sp = 0;
        let sequential: Vec<TraceOp> =
            std::iter::from_fn(|| seq.decode(&buf, &mut sp)).collect();
        prop_assert_eq!(&sequential, &ops);

        let mut bat = OpDecoder::new();
        let mut bp = 0;
        let mut batched = Vec::new();
        let mut out = vec![TraceOp::Exec(0); chunk];
        loop {
            let n = bat.decode_batch(&buf, &mut bp, &mut out);
            batched.extend_from_slice(&out[..n]);
            if n < chunk {
                break;
            }
        }
        prop_assert_eq!(&batched, &ops, "batch decode diverged (chunk {})", chunk);
        prop_assert_eq!(bp, sp, "batch decode must consume the same bytes");
    }

    /// The encoded stream is compact: well under 4 bytes per op on the
    /// suite's spatially local streams.
    #[test]
    fn encoding_is_compact(idx in 0usize..6, seed in 0u64..10_000) {
        let spec = WorkloadSpec::paper_suite()[idx];
        let mut live = GenerationalWorkload::new(spec, 0, 4, seed);
        let mut rec = TraceRecorder::new(spec.name, seed);
        let info = rec.record_core(&mut live, 30_000);
        let per_op = info.len as f64 / info.ops as f64;
        prop_assert!(per_op < 4.0, "{}: {per_op:.2} bytes/op", spec.name);
    }
}

#[test]
fn multi_core_recording_keeps_streams_independent() {
    let spec = WorkloadSpec::water_ns();
    let mut wls: Vec<Box<dyn Workload>> = (0..4)
        .map(|c| Box::new(GenerationalWorkload::new(spec, c, 4, 42)) as Box<dyn Workload>)
        .collect();
    let rec = record_workloads(spec.name, 42, &mut wls, 5_000);
    let tf = TraceFile::from_bytes(rec.to_bytes()).unwrap();
    assert_eq!(tf.n_cores(), 4);
    assert!(tf.min_core_instructions() >= 5_000);
    // Each replayed stream must match a fresh generator for its core.
    for core in 0..4 {
        let mut replay = tf.core_workload(core).unwrap();
        let mut fresh = GenerationalWorkload::new(spec, core, 4, 42);
        for _ in 0..replay.total_ops() {
            assert_eq!(replay.next_op(), fresh.next_op(), "core {core}");
        }
    }
}

#[test]
fn instruction_accounting_matches_op_sum() {
    let spec = WorkloadSpec::fmm();
    let mut live = GenerationalWorkload::new(spec, 1, 4, 9);
    let mut rec = TraceRecorder::new(spec.name, 9);
    rec.record_core(&mut live, 8_000);
    let tf = TraceFile::from_bytes(rec.to_bytes()).unwrap();
    let mut replay = tf.core_workload(0).unwrap();
    let mut sum = 0u64;
    let mut ops = 0u64;
    while let Some(op) = replay.try_next_op() {
        sum += op.instructions();
        ops += 1;
        // Sanity: decoded ops are well-formed.
        if let TraceOp::Exec(n) = op {
            assert!(n < 1_000_000, "implausible exec burst {n}");
        }
    }
    assert_eq!(ops, tf.header().cores[0].ops);
    assert_eq!(sum, tf.header().cores[0].instructions);
}

proptest! {
    /// Hostile input: a valid image with bytes flipped and/or cut short
    /// either fails to open, or opens into streams that replay in full
    /// to their recorded op counts — never a panic partway through.
    #[test]
    fn damaged_images_fail_at_open_or_replay_in_full(
        seed in 0u64..1_000,
        cut in 0usize..8192,
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 0..4),
    ) {
        let spec = WorkloadSpec::water_ns();
        let mut wls: Vec<Box<dyn Workload>> = (0..2)
            .map(|c| Box::new(GenerationalWorkload::new(spec, c, 2, seed)) as Box<dyn Workload>)
            .collect();
        let mut image = record_workloads(spec.name, seed, &mut wls, 300).to_bytes();
        for (at, mask) in &flips {
            let i = at % image.len();
            image[i] ^= mask;
        }
        // Half the cases also cut the image short.
        let truncated = cut < 4096;
        if truncated {
            image.truncate(cut % image.len());
        }
        let damaged = !flips.is_empty() || truncated;
        match TraceFile::from_bytes(image) {
            Ok(tf) => {
                for mut w in tf.workloads() {
                    let mut instructions = 0;
                    for _ in 0..w.total_ops() {
                        instructions += w.next_op().instructions();
                    }
                    prop_assert!(w.try_next_op().is_none());
                    prop_assert_eq!(instructions, w.total_instructions());
                }
            }
            Err(_) => prop_assert!(damaged, "an undamaged image must open"),
        }
    }
}
