//! Run-archive acceptance: seal → unseal → load must re-export
//! byte-identically to the live `sor export` artifacts, at one worker
//! and at eight, and the byte codecs underneath must round-trip
//! arbitrary registries, rings, and sketches exactly.

use proptest::prelude::*;
use sor_durable::{seal, unseal, ArtifactError};
use sor_obs::query::causal_tree;
use sor_obs::sample::{sample_trace, SamplePolicy};
use sor_obs::{MetricsRegistry, Recorder, RunArchive, SpaceSaving, WindowRing};
use sor_sim::scenario::{run_coffee_field_test_traced, FieldTestConfig};

/// The live export artifacts exactly as `sor export` derives them, plus
/// the sealed archive of the same run.
struct LiveRun {
    trace_json: String,
    metrics_json: String,
    windows_json: String,
    health_txt: String,
    tree: String,
    sealed: Vec<u8>,
}

fn run_once(threads: usize) -> LiveRun {
    sor_par::with_threads(threads, || {
        let rec = Recorder::enabled();
        let cfg = FieldTestConfig::quick(3);
        let out = run_coffee_field_test_traced(cfg, rec.clone()).expect("field test");
        // Rebuild the live export by hand — independently of the archive
        // hook — so the byte-identity below compares two separate paths.
        let raw = rec.trace_snapshot().expect("trace");
        let (sampled, stats) = sample_trace(&raw, &SamplePolicy::from_env(cfg.seed));
        let mut metrics = rec.metrics_snapshot().expect("metrics");
        stats.record_into(&mut metrics);
        let (archive, _) =
            out.archive(&rec, &cfg, "coffee_field_test", "test-sha").expect("archive hook");
        assert_eq!(sor_par::current_threads(), threads);
        LiveRun {
            trace_json: sampled.to_json(),
            metrics_json: metrics.to_json(),
            windows_json: out.windows.as_ref().map(WindowRing::summary_json).unwrap_or_default(),
            health_txt: out.health.as_ref().map(|h| h.render()).unwrap_or_default(),
            tree: sampled.render_tree(),
            sealed: seal(&archive.to_bytes()),
        }
    })
}

#[test]
fn archived_run_reexports_byte_identically_at_one_and_eight_workers() {
    let mut reexports = Vec::new();
    for threads in [1usize, 8] {
        let live = run_once(threads);
        let payload = unseal(&live.sealed).expect("seal roundtrip");
        let back = RunArchive::from_bytes(payload).expect("archive parses");
        assert_eq!(
            back.trace.to_json(),
            live.trace_json,
            "trace re-export differs at {threads} workers"
        );
        assert_eq!(
            back.metrics.to_json(),
            live.metrics_json,
            "metrics re-export differs at {threads} workers"
        );
        assert_eq!(
            back.windows.as_ref().map(WindowRing::summary_json).unwrap_or_default(),
            live.windows_json,
            "window summary differs at {threads} workers"
        );
        assert_eq!(
            back.health.as_ref().map(|h| h.render()).unwrap_or_default(),
            live.health_txt,
            "health report differs at {threads} workers"
        );
        // The archived causal tree reconstructs the live renderer
        // byte-for-byte, and provenance recorded the worker count.
        assert_eq!(causal_tree(&back.trace, None), live.tree);
        assert_eq!(back.meta.threads, threads as u32);
        assert_eq!(back.meta.scenario, "coffee_field_test");
        assert_eq!(back.meta.seed, 3);
        // Serialization is a fixed point: re-encoding changes nothing.
        assert_eq!(seal(&back.to_bytes()), live.sealed);
        reexports.push((live.trace_json, live.metrics_json));
    }
    // The run itself is worker-count invariant (the golden-trace
    // contract), so the archives agree across 1 and 8 workers too.
    assert_eq!(reexports[0], reexports[1], "archive content depends on worker count");
}

#[test]
fn tampered_seals_never_parse() {
    let live = run_once(1);
    let mut torn = live.sealed.clone();
    torn.truncate(torn.len() - 3);
    assert!(matches!(unseal(&torn), Err(ArtifactError::Frame(_))));
    let mut flipped = live.sealed.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(
        unseal(&flipped).is_err() || RunArchive::from_bytes(unseal(&flipped).unwrap()).is_none(),
        "bit flip at byte {mid} survived both the CRC and the parser"
    );
}

fn registry_strategy() -> impl Strategy<Value = MetricsRegistry> {
    (
        proptest::collection::vec(("[a-z]{1,6}\\.[a-z_]{1,10}", 0u64..1000), 0..8),
        proptest::collection::vec(("[a-z]{1,6}\\.[a-z_]{1,10}", -1e9f64..1e9), 0..8),
        proptest::collection::vec(
            ("[a-z]{1,6}\\.[a-z_]{1,10}", proptest::collection::vec(-1e6f64..1e6, 1..16)),
            0..4,
        ),
    )
        .prop_map(|(counters, gauges, observations)| {
            let mut m = MetricsRegistry::new();
            for (name, n) in counters {
                m.count(&name, n);
            }
            for (name, v) in gauges {
                m.gauge(&name, v);
            }
            for (name, vs) in observations {
                for v in vs {
                    m.observe(&name, v);
                }
            }
            m
        })
}

proptest! {
    /// Registry bytes round-trip exactly: equality, JSON export, and
    /// CSV export all survive.
    #[test]
    fn registry_bytes_roundtrip(m in registry_strategy()) {
        let back = MetricsRegistry::from_bytes(&m.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(back.to_json(), m.to_json());
        prop_assert_eq!(back.to_csv(), m.to_csv());
    }

    /// Window rings round-trip through bytes with every closed window,
    /// eviction counter, and roll cursor intact — a restored ring keeps
    /// rolling identically to the original.
    #[test]
    fn window_ring_bytes_roundtrip(
        m in registry_strategy(),
        capacity in 1usize..6,
        rolls in 1usize..10,
    ) {
        let mut ring = WindowRing::new(capacity);
        let mut live = m;
        for i in 0..rolls {
            live.count("tick.rolls_done", 1);
            ring.roll(i as f64 * 30.0, &live);
        }
        let back = WindowRing::from_bytes(&ring.to_bytes()).expect("roundtrip");
        prop_assert_eq!(back.summary_json(), ring.summary_json());
        prop_assert_eq!(back.evicted(), ring.evicted());
        let mut a = ring;
        let mut b = back;
        live.count("tick.rolls_done", 1);
        a.roll(1e6, &live);
        b.roll(1e6, &live);
        prop_assert_eq!(a.summary_json(), b.summary_json());
    }

    /// Top-k sketches round-trip with slot order preserved, so restored
    /// sketches evict identically under further offers.
    #[test]
    fn topk_bytes_roundtrip(
        offers in proptest::collection::vec(("[a-z]{1,4}", 1u64..100), 0..32),
        k in 1usize..6,
    ) {
        let mut s = SpaceSaving::new(k);
        for (key, w) in &offers {
            s.offer(key, *w);
        }
        let back = SpaceSaving::from_bytes(&s.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&back, &s);
        let mut a = s;
        let mut b = back;
        a.offer("zz", 1);
        b.offer("zz", 1);
        prop_assert_eq!(a.render("t"), b.render("t"));
    }
}
