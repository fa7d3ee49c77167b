//! Wire-protocol throughput: encode/decode of the message shapes that
//! dominate SOR traffic, supporting the paper's "minimize traffic load"
//! claim with byte counts in the bench names, and the CRC-32 that
//! frames every message, WAL record and checkpoint.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sor_proto::checksum::crc32;
use sor_proto::{Message, SensedRecord};

fn upload(records: usize, values: usize) -> Message {
    Message::SensedDataUpload {
        task_id: 42,
        records: (0..records)
            .map(|i| SensedRecord {
                timestamp: 1000.0 + i as f64,
                window: 3.0,
                sensor: (i % 8) as u16,
                values: (0..values).map(|v| v as f64 * 0.25 + 20.0).collect(),
            })
            .collect(),
    }
}

/// One trail upload as `TRAIL_SCRIPT` produces it: temperature and
/// humidity (3 readings each), accelerometer (40 × 3 axes) and GPS
/// (10 × 3), a 1,333-byte frame.
fn trail_upload() -> Message {
    Message::SensedDataUpload {
        task_id: 42,
        records: [(1u16, 3usize), (2, 3), (3, 120), (4, 30)]
            .into_iter()
            .map(|(sensor, values)| SensedRecord {
                timestamp: 1000.0 + f64::from(sensor),
                window: 3.0,
                sensor,
                values: (0..values).map(|v| v as f64 * 0.25 + 20.0).collect(),
            })
            .collect(),
    }
}

/// The upload shapes both groups measure, each with its record count.
fn uploads() -> Vec<(String, usize, Message)> {
    let mut shapes: Vec<(String, usize, Message)> = [(1usize, 5usize), (10, 10), (100, 40)]
        .into_iter()
        .map(|(records, values)| ("upload".to_string(), records, upload(records, values)))
        .collect();
    shapes.push(("trail".to_string(), 4, trail_upload()));
    shapes
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto/encode");
    for (shape, records, msg) in uploads() {
        let size = msg.encode().len();
        g.bench_with_input(
            BenchmarkId::new(format!("{shape}_{size}B"), records),
            &msg,
            |b, msg| b.iter(|| black_box(msg.encode())),
        );
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto/decode");
    for (shape, records, msg) in uploads() {
        let frame = msg.encode();
        g.bench_with_input(
            BenchmarkId::new(format!("{shape}_{}B", frame.len()), records),
            &frame,
            |b, frame| b.iter(|| black_box(Message::decode(frame).unwrap())),
        );
    }
    g.finish();
}

fn bench_small_control_messages(c: &mut Criterion) {
    let msgs = [
        Message::WakeUp { token: 5 },
        Message::Ping { token: 5, uptime_ms: 123_456 },
        Message::TaskComplete { task_id: 9, status: 0 },
    ];
    c.bench_function("proto/control_roundtrip", |b| {
        b.iter(|| {
            for m in &msgs {
                black_box(Message::decode(&m.encode()).unwrap());
            }
        })
    });
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto/crc32");
    // About one trail upload frame, and about one trail checkpoint.
    for len in [1_400usize, 4 << 20] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        g.bench_function(format!("{len}B"), |b| b.iter(|| black_box(crc32(black_box(&data)))));
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_encode, bench_decode, bench_small_control_messages, bench_crc32
}
criterion_main!(benches);
