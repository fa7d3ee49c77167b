//! Upload-ack latency of a durable server: `handle_message_ctx` on one
//! trail-shaped `SensedDataUpload` (four records of 3, 3, 120 and 30
//! readings, a 1,333-byte frame) against a write-ahead log on a
//! simulated disk. One call re-encodes the frame, stores it in the
//! inbox, and appends and flushes its log record before it returns (the
//! ack), with a checkpoint every 4,096 logged ops as the default
//! options take them.
//!
//! Method: after a warm-up, every upload is timed on its own and the
//! per-upload quantiles are printed. The Data Processor drains the
//! inbox every 200 uploads, outside the timed calls, as the periodic
//! pass would between bursts.

use std::hint::black_box;
use std::time::Instant;

use sor_durable::{DurableOptions, SimDisk};
use sor_obs::Recorder;
use sor_proto::{Message, SensedRecord};
use sor_sensors::SensorKind;
use sor_server::{ApplicationSpec, SensingServer};
use sor_sim::scenario::{trail_features, TRAIL_SCRIPT};

const WARM_UP: usize = 2_000;
const TIMED: usize = 20_000;
const DRAIN_EVERY: usize = 200;

fn trail_upload(task_id: u64, k: usize) -> Message {
    let readings = [
        (SensorKind::Temperature, 3),
        (SensorKind::Humidity, 3),
        (SensorKind::Accelerometer, 120),
        (SensorKind::Gps, 30),
    ];
    Message::SensedDataUpload {
        task_id,
        records: readings
            .into_iter()
            .map(|(kind, n)| SensedRecord {
                timestamp: k as f64 * 10.0,
                window: 3.0,
                sensor: kind.wire_id(),
                values: (0..n).map(|v| 20.0 + (k * 7 + v) as f64 * 0.125).collect(),
            })
            .collect(),
    }
}

/// The `q`-quantile of ascending `xs`, interpolating between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn main() {
    let disk = SimDisk::new(1);
    let (mut server, _) = SensingServer::durable(
        Box::new(disk),
        DurableOptions::default(),
        Recorder::disabled(),
        0.0,
    )
    .unwrap();
    server
        .register_application(ApplicationSpec {
            app_id: 1,
            name: "trail".into(),
            creator: "bench".into(),
            category: "hiking-trail".into(),
            latitude: 43.05,
            longitude: -76.15,
            radius_m: 500.0,
            script: TRAIL_SCRIPT.into(),
            period_seconds: 3600.0,
            instants: 360,
            features: trail_features(),
        })
        .unwrap();
    let replies = server
        .handle_message(&Message::ParticipationRequest {
            token: 7,
            app_id: 1,
            latitude: 43.0501,
            longitude: -76.1501,
            budget: 20,
            stay_seconds: 3600.0,
        })
        .unwrap();
    let Some((_, Message::ScheduleAssignment { task_id, .. })) = replies.first() else {
        panic!("no schedule: {replies:?}")
    };
    let uploads: Vec<Message> = (0..64).map(|k| trail_upload(*task_id, k)).collect();
    assert_eq!(uploads[0].encode().len(), 1_333, "a trail upload frame");

    let mut micros = Vec::with_capacity(TIMED);
    for k in 0..WARM_UP + TIMED {
        let msg = &uploads[k % uploads.len()];
        let t0 = Instant::now();
        black_box(server.handle_message_ctx(msg, None).unwrap());
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if k >= WARM_UP {
            micros.push(us);
        }
        if k % DRAIN_EVERY == DRAIN_EVERY - 1 {
            server.process_data().unwrap();
        }
    }
    micros.sort_by(f64::total_cmp);
    println!(
        "bench upload_ack/durable_trail: {TIMED} uploads after {WARM_UP} warm-up, per-upload \
         µs p25 {:.2}, p50 {:.2}, p75 {:.2}, p99 {:.2}",
        quantile(&micros, 0.25),
        quantile(&micros, 0.5),
        quantile(&micros, 0.75),
        quantile(&micros, 0.99),
    );
}
