//! Micro-benchmarks for the substrate components: tag arrays, MSHRs,
//! decay counter banks, the MESI machine, workload generation, thermal
//! stepping, and raw simulator throughput.

use cmpleak_coherence::bus::SnoopKind;
use cmpleak_coherence::mesi::{step, Event, MesiState, SnoopContext};
use cmpleak_coherence::Technique;
use cmpleak_cpu::Workload;
use cmpleak_mem::{
    DecayBank, DecayConfig, Geometry, LineAddr, LineStateBank, LookupOutcome, Mshr, SetAssocArray,
    ShadowTags,
};
use cmpleak_power::{PowerParams, ThermalModel};
use cmpleak_system::{run_simulation, CmpConfig};
use cmpleak_workloads::{GenerationalWorkload, WorkloadSpec, Xoshiro256pp};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

#[derive(Default, Clone)]
struct V(bool);
impl cmpleak_mem::array::LineMeta for V {
    fn is_valid(&self) -> bool {
        self.0
    }
    fn to_byte(&self) -> u8 {
        self.0.into()
    }
    fn from_byte(b: u8) -> Self {
        V(b != 0)
    }
}

fn bench_mem(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem");
    g.measurement_time(Duration::from_secs(3)).sample_size(30);

    // Tag array lookup/fill mix over a 1 MB, 8-way array.
    g.bench_function("tag_array_access_mix", |b| {
        let geom = Geometry::new(1 << 20, 64, 8);
        let mut arr: SetAssocArray<V> = SetAssocArray::new(geom);
        let mut rng = Xoshiro256pp::seeded(1);
        b.iter(|| {
            let line = LineAddr(rng.below(1 << 18));
            match arr.lookup(line) {
                LookupOutcome::Hit(_) => {}
                LookupOutcome::Miss => {
                    let v = arr.victim(line);
                    arr.fill(v, line, V(true));
                }
            }
        })
    });

    g.bench_function("mshr_allocate_complete", |b| {
        let mut mshr: Mshr<u32> = Mshr::new(16, 8);
        let mut targets = Vec::with_capacity(8);
        let mut i = 0u64;
        b.iter(|| {
            let line = LineAddr(i % 13);
            i += 1;
            mshr.allocate(line, 0, false);
            targets.clear();
            mshr.complete(line, &mut targets);
        })
    });

    // One decay tick over a 16K-line bank (the recurring cost of the
    // hierarchical counter scan, now word-chunked over the columnar
    // line-state bank).
    g.bench_function("decay_bank_tick_16k_lines", |b| {
        let mut bank = DecayBank::new(DecayConfig::fixed(4 << 10));
        let mut st = LineStateBank::new(16 * 1024);
        for slot in 0..16 * 1024 {
            bank.on_access(&mut st, slot);
        }
        let mut now = 0u64;
        let mut sink = Vec::new();
        b.iter(|| {
            now += 1 << 10;
            sink.clear();
            bank.advance(&mut st, now, &mut sink);
            // Keep lines live so every tick scans everything.
            if sink.len() > 8 * 1024 {
                for slot in 0..16 * 1024 {
                    bank.on_access(&mut st, slot);
                }
            }
        })
    });

    g.bench_function("shadow_tags_access", |b| {
        let mut sh = ShadowTags::new(Geometry::new(1 << 18, 64, 8));
        let mut rng = Xoshiro256pp::seeded(3);
        b.iter(|| sh.access(LineAddr(rng.below(1 << 16))))
    });
    g.finish();
}

fn bench_coherence(c: &mut Criterion) {
    let mut g = c.benchmark_group("coherence");
    g.measurement_time(Duration::from_secs(3)).sample_size(30);
    let events = [
        Event::PrRead,
        Event::PrWrite,
        Event::Snoop(SnoopKind::BusRd),
        Event::Snoop(SnoopKind::BusRdX),
        Event::TurnOff,
        Event::Grant,
    ];
    g.bench_function("mesi_step_walk", |b| {
        let mut state = MesiState::Invalid;
        let mut i = 0usize;
        let ctx = SnoopContext { upper_has_copy: true, pending_write: false };
        b.iter(|| {
            let t = step(state, events[i % events.len()], ctx);
            i += 1;
            if let Some(n) = t.next {
                state = n;
            } else if state == MesiState::Invalid {
                state = MesiState::Exclusive; // re-seed after gating
            }
            t
        })
    });
    g.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    g.measurement_time(Duration::from_secs(3)).sample_size(30);
    for spec in [WorkloadSpec::fmm(), WorkloadSpec::mpeg2dec()] {
        g.bench_function(format!("generate_{}", spec.name), |b| {
            b.iter_batched(
                || GenerationalWorkload::new(spec, 0, 4, 42),
                |mut w| {
                    let mut acc = 0u64;
                    for _ in 0..10_000 {
                        acc = acc.wrapping_add(w.next_op().instructions());
                    }
                    acc
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_thermal(c: &mut Criterion) {
    let mut g = c.benchmark_group("thermal");
    g.measurement_time(Duration::from_secs(3)).sample_size(30);
    g.bench_function("rc_step_8_blocks", |b| {
        let mut m = ThermalModel::new(PowerParams::default(), 4);
        let powers = vec![0.5; 8];
        b.iter(|| m.step(&powers, 2.5e-6))
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.measurement_time(Duration::from_secs(10)).sample_size(10);
    for technique in [Technique::Baseline, Technique::Decay { decay_cycles: 64 * 1024 }] {
        g.bench_function(format!("throughput_{}", technique.name()), |b| {
            b.iter(|| {
                let mut cfg = CmpConfig::paper_system(1, technique);
                cfg.instructions_per_core = 50_000;
                let wls: Vec<Box<dyn Workload>> = (0..4)
                    .map(|core| {
                        Box::new(GenerationalWorkload::new(WorkloadSpec::water_ns(), core, 4, 1))
                            as Box<dyn Workload>
                    })
                    .collect();
                run_simulation(cfg, wls)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mem,
    bench_coherence,
    bench_workloads,
    bench_thermal,
    bench_simulator
);
criterion_main!(benches);
