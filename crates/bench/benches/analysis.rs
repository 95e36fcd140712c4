//! Criterion benchmarks: the analyzer must scale to the paper's corpus
//! (~40,000 traces), so measure packets/second through each stage —
//! simulation, calibration, sender replay, receiver analysis, and the
//! full all-profiles fingerprint sweep.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tcpa_filter::{apply, FilterConfig};
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::{Connection, Trace};
use tcpanaly::fingerprint::{fingerprint, fingerprint_one};
use tcpanaly::receiver::analyze_receiver;
use tcpanaly::sender::analyze_sender;
use tcpanaly::Analyzer;

fn reference_traces() -> (Trace, Trace) {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        100 * 1024,
        4242,
    );
    (out.sender_trace(), out.receiver_trace())
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.throughput(Throughput::Bytes(100 * 1024));
    g.bench_function("bulk_transfer_100k", |b| {
        b.iter(|| {
            run_transfer(
                profiles::reno(),
                profiles::reno(),
                &PathSpec::default(),
                100 * 1024,
                std::hint::black_box(4242),
            )
        })
    });
    g.finish();
}

fn bench_calibration(c: &mut Criterion) {
    let (sender_trace, _) = reference_traces();
    let n = sender_trace.len() as u64;
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        100 * 1024,
        4242,
    );
    let (dup_trace, _) = apply(&out.sender_tap, &FilterConfig::irix_duplicating(), 1);

    let mut g = c.benchmark_group("calibration");
    g.throughput(Throughput::Elements(n));
    // The calibration owns the trace it cleans, so each iteration gets a
    // fresh copy from the untimed setup.
    for (name, trace) in [
        ("clean_trace", &sender_trace),
        ("duplicated_trace", &dup_trace),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || trace.clone(),
                |t| Analyzer::at_sender().calibrate(std::hint::black_box(t)),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_sender_analysis(c: &mut Criterion) {
    let (sender_trace, _) = reference_traces();
    let n = sender_trace.len() as u64;
    let conn = Connection::split(&sender_trace).remove(0);
    let cfg = profiles::reno();

    let mut g = c.benchmark_group("sender_analysis");
    g.throughput(Throughput::Elements(n));
    g.bench_function("replay_one_profile", |b| {
        b.iter(|| analyze_sender(std::hint::black_box(&conn), &cfg))
    });
    g.bench_function("fingerprint_one", |b| {
        b.iter(|| fingerprint_one(std::hint::black_box(&conn), &cfg))
    });
    g.bench_function("fingerprint_all_profiles", |b| {
        b.iter(|| fingerprint(std::hint::black_box(&conn)))
    });
    g.finish();
}

fn bench_receiver_analysis(c: &mut Criterion) {
    let (_, receiver_trace) = reference_traces();
    let n = receiver_trace.len() as u64;
    let conn = Connection::split(&receiver_trace).remove(0);

    let mut g = c.benchmark_group("receiver_analysis");
    g.throughput(Throughput::Elements(n));
    g.bench_function("ack_obligations", |b| {
        b.iter(|| analyze_receiver(std::hint::black_box(&conn)))
    });
    g.finish();
}

fn bench_connection_split(c: &mut Criterion) {
    let (sender_trace, _) = reference_traces();
    let n = sender_trace.len() as u64;
    let mut g = c.benchmark_group("trace_model");
    g.throughput(Throughput::Elements(n));
    g.bench_function("connection_split", |b| {
        b.iter_batched(
            || sender_trace.clone(),
            |t| Connection::split(std::hint::black_box(&t)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_calibration,
    bench_sender_analysis,
    bench_receiver_analysis,
    bench_connection_split
);
criterion_main!(benches);
