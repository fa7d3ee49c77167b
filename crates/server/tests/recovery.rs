//! Exact scheduler recovery: a server that crashes with nothing left to
//! commit, recovers from its disk and gets its applications registered
//! again sends every later `ScheduleAssignment` exactly as the server
//! that never crashed, bit for bit.
//!
//! Each test drives a durable server and a crash-free twin through the
//! same events. An event ticks the server to its time, delivers its
//! message (if any) and commits, so a crash taken between two events
//! loses nothing.

use sor_durable::{DurableOptions, SimDisk};
use sor_obs::Recorder;
use sor_proto::Message;
use sor_server::{ApplicationSpec, Extractor, FeatureSpec, SensingServer};

const LATITUDE: f64 = 43.05;
const LONGITUDE: f64 = -76.15;

/// A place with a 3600 s period, 360 instants and two features whose σ
/// differ, so its scheduler runs a composite kernel.
fn place(app_id: u64) -> ApplicationSpec {
    ApplicationSpec {
        app_id,
        name: format!("cafe {app_id}"),
        creator: "owner".into(),
        category: "coffee-shop".into(),
        latitude: LATITUDE,
        longitude: LONGITUDE,
        radius_m: 150.0,
        script: "get_temperature_readings(3)".into(),
        period_seconds: 3600.0,
        instants: 360,
        features: vec![
            FeatureSpec::new("temperature", "°F", Extractor::Mean { sensor: 1 }, 60.0),
            FeatureSpec::new("noise", "dB", Extractor::Mean { sensor: 3 }, 25.0),
        ],
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Join { at: f64, app_id: u64, token: u64, budget: u32, stay: f64 },
    Complete { at: f64, task_id: u64 },
    Tick { at: f64 },
}

impl Event {
    fn at(&self) -> f64 {
        match *self {
            Event::Join { at, .. } | Event::Complete { at, .. } | Event::Tick { at } => at,
        }
    }
}

fn open(disk: &SimDisk, apps: &[ApplicationSpec], now: f64) -> SensingServer {
    let (mut server, _) = SensingServer::durable(
        Box::new(disk.clone()),
        DurableOptions::default(),
        Recorder::disabled(),
        now,
    )
    .unwrap();
    for spec in apps {
        server.register_application(spec.clone()).unwrap();
    }
    server
}

/// Applies one event and commits; returns the schedule assignments sent.
fn step(server: &mut SensingServer, event: Event) -> Vec<(u64, Message)> {
    server.tick(event.at());
    let msg = match event {
        Event::Join { app_id, token, budget, stay, .. } => Some(Message::ParticipationRequest {
            token,
            app_id,
            latitude: LATITUDE,
            longitude: LONGITUDE,
            budget,
            stay_seconds: stay,
        }),
        Event::Complete { task_id, .. } => Some(Message::TaskComplete { task_id, status: 0 }),
        Event::Tick { .. } => None,
    };
    let replies = msg.map(|m| server.handle_message(&m).unwrap()).unwrap_or_default();
    server.durable_database().commit().unwrap();
    replies
}

/// The replies sent for each event of a run.
type Sent = Vec<Vec<(u64, Message)>>;

/// The assignments sent for each event from index `from` on: by a
/// crash-free server, and by one that crashes right before that event.
fn run_both(apps: &[ApplicationSpec], events: &[Event], from: usize) -> (Sent, Sent) {
    let run = |crash: bool| {
        let disk = SimDisk::new(7);
        let mut server = open(&disk, apps, 0.0);
        let mut sent = Vec::new();
        for (k, &event) in events.iter().enumerate() {
            if crash && k == from {
                assert_eq!(server.durable_database().pending_ops(), 0, "crash loses no op");
                let now = server.now();
                drop(server);
                disk.crash();
                server = open(&disk, apps, now);
            }
            let replies = step(&mut server, event);
            if k >= from {
                sent.push(replies);
            }
        }
        sent
    };
    (run(false), run(true))
}

/// User 7 joins at 0 s and completes at 900 s; user 8 joins at 900 s;
/// the server crashes at 1200 s; user 9 joins at 1300 s. The finished
/// task's readings stay in the recovered scheduler's executed prefix,
/// so the plans sent at 1300 s are the crash-free ones.
#[test]
fn completion_before_crash_then_admission_after_it() {
    let apps = [place(1)];
    let join = |at, token| Event::Join { at, app_id: 1, token, budget: 8, stay: 2700.0 };
    let events = [
        join(0.0, 7),
        Event::Complete { at: 900.0, task_id: 0 },
        join(900.0, 8),
        Event::Tick { at: 1200.0 },
        join(1300.0, 9),
    ];
    let (crash_free, recovered) = run_both(&apps, &events, 4);
    assert_eq!(crash_free[0].len(), 2, "tasks 1 and 2 get plans: {crash_free:?}");
    assert_eq!(recovered, crash_free);
}

/// SplitMix64: a seeded, dependency-free source of event parameters.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Events 20–170 s apart over one period: joins (budget 3–10, stay
/// 300–2700 s), completions of a random running task, and bare ticks.
/// Returns the events and the index of the first event after a crash
/// point drawn from 600–3000 s.
fn random_schedule(seed: u64) -> (Vec<Event>, usize) {
    let mut rng = Rng(seed);
    let mut events = Vec::new();
    // (task id, departure) of every admitted task still running.
    let mut running: Vec<(u64, f64)> = Vec::new();
    let (mut t, mut next_task, mut next_token) = (0.0, 0u64, 100u64);
    while t < 3600.0 {
        running.retain(|&(_, departure)| departure > t);
        let event = match rng.range(0, 9) {
            0..=4 => {
                let stay = rng.range(300, 2700) as f64;
                running.push((next_task, t + stay));
                next_task += 1;
                next_token += 1;
                let (app_id, budget) = (rng.range(1, 2), rng.range(3, 10) as u32);
                Event::Join { at: t, app_id, token: next_token, budget, stay }
            }
            5..=7 if !running.is_empty() => {
                let (task_id, _) = running.remove(rng.range(0, running.len() as u64 - 1) as usize);
                Event::Complete { at: t, task_id }
            }
            _ => Event::Tick { at: t },
        };
        events.push(event);
        t += rng.range(20, 170) as f64;
    }
    let crash_at = rng.range(600, 3000) as f64;
    let from = events.iter().position(|e| e.at() > crash_at).unwrap_or(events.len());
    (events, from)
}

#[test]
fn seeded_crash_sweep_recovers_every_plan_exactly() {
    let apps = [place(1), place(2)];
    let mut diverged = Vec::new();
    for seed in 0..40 {
        let (events, from) = random_schedule(seed);
        let (crash_free, recovered) = run_both(&apps, &events, from);
        assert!(crash_free.iter().any(|sent| !sent.is_empty()), "seed {seed} sends nothing");
        if recovered != crash_free {
            diverged.push(seed);
        }
    }
    assert!(diverged.is_empty(), "recovered plans differ at seeds {diverged:?}");
}
