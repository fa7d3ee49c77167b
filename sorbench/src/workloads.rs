//! The three workloads: set-up, timed region, output checks and digest.
//!
//! - `admission_churn` stresses the scheduler: 25 phones per coffee
//!   shop arrive over the first half of the period, and every arrival
//!   (and every completion) replans the shop. Ephemeral server, so the
//!   write-ahead log is bypassed.
//! - `trail_collection` stresses the write path: few hikers with big
//!   budgets upload long GPS/accelerometer traces to a durable server
//!   that crashes and recovers halfway, and the Data Processor
//!   re-extracts features from a growing record table.
//! - `rank_storm` stresses ranking: an open loop of rank requests at
//!   fixed rates, with write batches (held-back uploads plus a Data
//!   Processor pass) that invalidate the rank cache and block reads.
//!   The scheduler does nothing in its timed region.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sor_core::ranking::Preference;
use sor_core::UserPreferences;
use sor_frontend::MobileFrontend;
use sor_obs::Trace;
use sor_sensors::environment::Environment;
use sor_sensors::{SensorKind, SensorManager, SimulatedProvider};
use sor_server::processor::RECORDS_TABLE;
use sor_server::ranker::rank_category;
use sor_server::{ApplicationSpec, FeatureSpec, SensingServer};
use sor_sim::scenario::{coffee_features, trail_features, COFFEE_SCRIPT, TRAIL_SCRIPT};
use sor_sim::EventQueue;

use crate::gen::{self, Rng};
use crate::probe::{DiskStats, Layer, LedgerTotals, Probe};
use crate::sim::{err, Counts, Deployment, PhonePlan, Samples, SimConfig};
use crate::stats::Fnv;

/// A registered workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scheduler-bound admissions and replans.
    AdmissionChurn,
    /// Write-path-bound durable collection with a crash.
    TrailCollection,
    /// Ranking-bound open loop beside write batches.
    RankStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::AdmissionChurn, Workload::TrailCollection, Workload::RankStorm];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdmissionChurn => "admission_churn",
            Workload::TrailCollection => "trail_collection",
            Workload::RankStorm => "rank_storm",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes of one workload's episode.
#[derive(Debug, Clone, Copy)]
struct Shape {
    places: usize,
    phones_per_place: usize,
    period: f64,
    instants: usize,
    budget: u32,
    sweep: f64,
}

impl Shape {
    fn of(w: Workload, smoke: bool) -> Shape {
        match (w, smoke) {
            (Workload::AdmissionChurn, false) => Shape {
                places: 16,
                phones_per_place: 25,
                period: 3600.0,
                instants: 360,
                budget: 12,
                sweep: 20.0,
            },
            // Few idle sweeps and enough scheduling work per admission
            // that the harness's own bookkeeping stays well under the
            // ledger's 2% limit even in a debug build.
            (Workload::AdmissionChurn, true) => Shape {
                places: 2,
                phones_per_place: 10,
                period: 600.0,
                instants: 120,
                budget: 6,
                sweep: 60.0,
            },
            (Workload::TrailCollection, false) => Shape {
                places: 10,
                phones_per_place: 2,
                period: 10_800.0,
                instants: 1080,
                budget: 400,
                sweep: 30.0,
            },
            (Workload::TrailCollection, true) => Shape {
                places: 3,
                phones_per_place: 2,
                period: 1200.0,
                instants: 120,
                budget: 30,
                sweep: 30.0,
            },
            (Workload::RankStorm, false) => Shape {
                places: 64,
                phones_per_place: 2,
                period: 1800.0,
                instants: 180,
                budget: 17,
                sweep: 30.0,
            },
            (Workload::RankStorm, true) => Shape {
                places: 8,
                phones_per_place: 2,
                period: 600.0,
                instants: 60,
                budget: 8,
                sweep: 30.0,
            },
        }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig { sweep_interval: self.sweep, process_interval: 120.0, horizon: self.period }
    }
}

/// The open loop's rate ladder: `(requests per second, requests)`. The
/// 200 req/s rung is the one the headline rank latency is read from,
/// so it gets the most requests: 3600 over three episodes.
const RUNGS: [(f64, usize); 4] = [(100.0, 100), (200.0, 1200), (400.0, 400), (800.0, 800)];
const SMOKE_RUNGS: [(f64, usize); 2] = [(200.0, 60), (800.0, 60)];
/// The rung `rank_p50_ms`/`rank_p99_ms` and the request latency use.
pub const HEADLINE_RATE: f64 = 200.0;
/// Requests between write batches in the open loop. Every batch bumps
/// the features epoch; at 250 requests an epoch the expected cache hit
/// ratio under Zipf(1.1) over 512 profiles is 61%, so the median
/// request is a hit, and nine batches an episode give the refresh
/// median its samples.
const BATCH_EVERY: usize = 250;
const SMOKE_BATCH_EVERY: usize = 30;
/// Preference profiles the open loop draws from.
const PROFILES: usize = 512;
/// Rank latency limit for `rank_max_rps`.
pub const RANK_LIMIT_S: f64 = 0.050;

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Set-up wall time: inputs, server, phones, and (rank_storm) the
    /// collection that fills the features table.
    pub setup_s: f64,
    /// Wall time of the timed region.
    pub run_s: f64,
    /// The workload's user-facing request latencies.
    pub request: Vec<f64>,
    /// Request-boundary latencies by kind.
    pub samples: Samples,
    /// rank_storm: latency from due time, per rung `(rate, samples)`.
    pub rungs: Vec<(f64, Vec<f64>)>,
    /// rank_storm: how late the generator woke when it had to wait.
    pub oversleep: Vec<f64>,
    /// rank_storm: rank call service times, split by inferred cache hit.
    pub rank_hit: Vec<f64>,
    /// See `rank_hit`.
    pub rank_miss: Vec<f64>,
    /// Work counts.
    pub counts: Counts,
    /// Storage-call counts (durable workloads).
    pub disk: DiskStats,
    /// Per-layer self times of a traced episode.
    pub ledger: LedgerTotals,
    /// Spans of a traced episode.
    pub trace: Trace,
    /// FNV-1a over features, the final ranking and stored schedules.
    pub digest: u64,
    /// Failed output checks.
    pub violations: Vec<String>,
}

/// Runs one episode of `w`: set-up, the timed region, then checks.
///
/// # Errors
///
/// Program errors that abort the episode.
pub fn run_episode(w: Workload, seed: u64, smoke: bool, traced: bool) -> Result<Episode, String> {
    let start = Instant::now();
    let probe = Probe::new(traced);
    let shape = Shape::of(w, smoke);
    match w {
        Workload::AdmissionChurn => admission_churn(shape, seed, probe, start),
        Workload::TrailCollection => trail_collection(shape, seed, probe, start),
        Workload::RankStorm => rank_storm(shape, seed, smoke, probe, start),
    }
}

fn app_specs(
    envs: &[Arc<dyn Environment>],
    shape: &Shape,
    category: &str,
    radius_m: f64,
    script: &str,
    features: &[FeatureSpec],
) -> Vec<ApplicationSpec> {
    envs.iter()
        .enumerate()
        .map(|(i, env)| {
            let (latitude, longitude) = env.location();
            ApplicationSpec {
                app_id: i as u64 + 1,
                name: env.name().to_string(),
                creator: "sorbench".into(),
                category: category.into(),
                latitude,
                longitude,
                radius_m,
                script: script.into(),
                period_seconds: shape.period,
                instants: shape.instants,
                features: features.to_vec(),
            }
        })
        .collect()
}

/// Adds `phones_per_place` phones per place, arriving staggered (with
/// seeded jitter) over the first half of the period and staying to its
/// end, as in the paper's field tests.
fn add_phones(
    dep: &mut Deployment,
    envs: &[Arc<dyn Environment>],
    shape: &Shape,
    sensors: &[SensorKind],
    sample_interval: f64,
    seed: u64,
) {
    let mut rng = Rng::new(seed, 10);
    let slot = shape.period / (2.0 * shape.phones_per_place as f64);
    for (place, env) in envs.iter().enumerate() {
        for p in 0..shape.phones_per_place {
            let mut mgr = SensorManager::new();
            mgr.set_sample_interval(sample_interval);
            for &kind in sensors {
                mgr.register(SimulatedProvider::new(kind, Arc::clone(env)));
            }
            let token = (place as u64 + 1) * 1000 + p as u64;
            let arrival = (p as f64 + rng.range(0.25, 0.75)) * slot;
            let plan = PhonePlan {
                app_id: place as u64 + 1,
                budget: shape.budget,
                arrival,
                stay: shape.period - arrival,
            };
            dep.add_phone(MobileFrontend::new(token, mgr), plan);
        }
    }
}

const COFFEE_SENSORS: [SensorKind; 5] = [
    SensorKind::Temperature,
    SensorKind::Light,
    SensorKind::Microphone,
    SensorKind::WifiRssi,
    SensorKind::Gps,
];

const TRAIL_SENSORS: [SensorKind; 4] =
    [SensorKind::Temperature, SensorKind::Humidity, SensorKind::Accelerometer, SensorKind::Gps];

fn neutral(features: usize) -> UserPreferences {
    UserPreferences::new("neutral", (0..features).map(|_| Preference::largest(3)).collect())
}

fn shared<E: Environment + 'static>(envs: Vec<E>) -> Vec<Arc<dyn Environment>> {
    envs.into_iter().map(|e| Arc::new(e) as Arc<dyn Environment>).collect()
}

fn admission_churn(
    shape: Shape,
    seed: u64,
    probe: Probe,
    start: Instant,
) -> Result<Episode, String> {
    let envs = shared(gen::coffee_shops(seed, shape.places));
    let apps = app_specs(&envs, &shape, "coffee-shop", 300.0, COFFEE_SCRIPT, &coffee_features());
    let mut dep = Deployment::ephemeral(&apps, probe.clone(), shape.sim_config())?;
    add_phones(&mut dep, &envs, &shape, &COFFEE_SENSORS, 0.5, seed);
    dep.schedule_processing();

    let mut ep = Episode { setup_s: start.elapsed().as_secs_f64(), ..Episode::default() };
    probe.arm();
    let t0 = Instant::now();
    dep.run()?;
    let ranking = final_rank(&mut dep, "coffee-shop", 4)?;
    ep.run_s = t0.elapsed().as_secs_f64();
    (ep.ledger, ep.trace) = probe.disarm();

    let phones = dep.plans().len() as u64;
    if dep.counts.admits != phones || dep.counts.rejected > 0 {
        ep.violations.push(format!(
            "{} of {phones} admissions accepted, {} messages rejected",
            dep.counts.admits, dep.counts.rejected
        ));
    }
    for task in dep.server.participation().all() {
        let times = dep.server.stored_schedule(task.task_id).map_err(err)?;
        if times.len() > task.budget as usize {
            ep.violations.push(format!(
                "task {} stores {} sense times over its budget {}",
                task.task_id,
                times.len(),
                task.budget
            ));
        }
        if times.iter().any(|&t| t < task.arrival || t > task.departure) {
            ep.violations.push(format!(
                "task {} has sense times outside its stay [{}, {}]",
                task.task_id, task.arrival, task.departure
            ));
        }
    }
    check_covers(&mut ep.violations, &ranking, apps.len());
    ep.digest = digest(&dep.server, &apps, &ranking)?;
    ep.request = dep.samples.admit.clone();
    Ok(finish(ep, dep, DiskStats::default()))
}

fn trail_collection(
    shape: Shape,
    seed: u64,
    probe: Probe,
    start: Instant,
) -> Result<Episode, String> {
    let envs = shared(gen::trails(seed, shape.places));
    let features = trail_features();
    let apps = app_specs(&envs, &shape, "hiking-trail", 5_000.0, TRAIL_SCRIPT, &features);
    let (mut dep, disk) =
        Deployment::durable(&apps, seed ^ 0xD15C, probe.clone(), shape.sim_config())?;
    add_phones(&mut dep, &envs, &shape, &TRAIL_SENSORS, 2.0, seed);
    dep.schedule_processing();
    dep.schedule_crash(shape.period / 2.0);
    dep.keep_acked();
    // Storage calls made while opening the first server are set-up.
    *disk.borrow_mut() = DiskStats::default();

    let mut ep = Episode { setup_s: start.elapsed().as_secs_f64(), ..Episode::default() };
    probe.arm();
    let t0 = Instant::now();
    dep.run()?;
    let ranking = final_rank(&mut dep, "hiking-trail", features.len())?;
    ep.run_s = t0.elapsed().as_secs_f64();
    (ep.ledger, ep.trace) = probe.disarm();

    if dep.counts.recoveries != 1 {
        ep.violations.push(format!("{} recoveries, expected 1", dep.counts.recoveries));
    }
    let stored = dep.server.database().table(RECORDS_TABLE).map_err(err)?.len() as u64;
    if stored != dep.counts.acked_records {
        ep.violations.push(format!(
            "after the crash {stored} records are stored but {} were acked",
            dep.counts.acked_records
        ));
    }
    for app in &apps {
        let acked = dep.acked.get(&app.app_id).map_or(&[][..], Vec::as_slice);
        for spec in &features {
            let expected = spec.extract(acked).ok();
            let got = dep.server.feature_value(app.app_id, &spec.name).map_err(err)?;
            let agree = match (expected, got) {
                (Some(e), Some(g)) => (e - g).abs() <= 1e-12 * e.abs().max(g.abs()),
                (None, None) => true,
                _ => false,
            };
            if !agree {
                ep.violations.push(format!(
                    "{} of app {}: server has {got:?}, acked records give {expected:?}",
                    spec.name, app.app_id
                ));
            }
        }
    }
    check_covers(&mut ep.violations, &ranking, apps.len());
    ep.digest = digest(&dep.server, &apps, &ranking)?;
    ep.request = dep.samples.upload.clone();
    let disk = *disk.borrow();
    Ok(finish(ep, dep, disk))
}

fn rank_storm(
    shape: Shape,
    seed: u64,
    smoke: bool,
    probe: Probe,
    start: Instant,
) -> Result<Episode, String> {
    let envs = shared(gen::coffee_shops(seed, shape.places));
    let apps = app_specs(&envs, &shape, "coffee-shop", 300.0, COFFEE_SCRIPT, &coffee_features());
    let mut dep = Deployment::ephemeral(&apps, probe.clone(), shape.sim_config())?;
    add_phones(&mut dep, &envs, &shape, &COFFEE_SENSORS, 0.5, seed);
    dep.schedule_processing();
    dep.hold_back(seed);
    dep.run()?;
    // The collection is set-up: only the open loop below is timed.
    dep.samples = Samples::default();
    dep.counts = Counts::default();
    let rungs: &[(f64, usize)] = if smoke { &SMOKE_RUNGS } else { &RUNGS };
    let batch_every = if smoke { SMOKE_BATCH_EVERY } else { BATCH_EVERY };
    let total: usize = rungs.iter().map(|&(_, n)| n).sum();
    let profiles = gen::coffee_profiles(seed, PROFILES);
    let stream = gen::request_stream(seed, PROFILES, total);
    let held = std::mem::take(&mut dep.held);
    let batches = (total - 1) / batch_every;
    let share = held.len().div_ceil(batches.max(1));
    let mut held = held.into_iter();

    let mut ep = Episode { setup_s: start.elapsed().as_secs_f64(), ..Episode::default() };
    // Responses seen per profile: (features epoch, app order).
    let mut seen: HashMap<usize, (u64, Vec<u64>)> = HashMap::new();
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut next = 0usize;
    probe.arm();
    let origin = Instant::now();
    for &(rate, n) in rungs {
        let rung_start = origin.elapsed().as_secs_f64();
        probe.time(Layer::SimQueue, 0, || {
            for i in 0..n {
                queue.schedule(rung_start + i as f64 / rate, next + i);
            }
        });
        next += n;
        let mut latencies = Vec::with_capacity(n);
        while let Some((due, i)) = probe.time(Layer::SimQueue, 0, || queue.pop()) {
            let mark = probe.event_begin("rank.request", i as u64 + 1);
            if let Some(late) = probe.time(Layer::BenchIdle, 0, || wait_until(origin, due)) {
                ep.oversleep.push(late);
            }
            if i > 0 && i % batch_every == 0 {
                write_batch(&mut dep, held.by_ref().take(share))?;
            }
            let k = stream[i];
            let t0 = Instant::now();
            let ranking = probe
                .time(Layer::ServerRank, i as u64 + 1, || {
                    dep.server.rank("coffee-shop", &profiles[k])
                })
                .map_err(err)?;
            let done = Instant::now();
            latencies.push(done.duration_since(origin).as_secs_f64() - due);
            let service = done.duration_since(t0).as_secs_f64();
            dep.counts.rank_requests += 1;
            let epoch = dep.server.features_epoch();
            match seen.get(&k) {
                Some((e, order)) if *e == epoch => {
                    ep.rank_hit.push(service);
                    if *order != ranking.app_order {
                        ep.violations.push(format!(
                            "profile {k} got two different rankings in epoch {epoch}"
                        ));
                    }
                }
                _ => {
                    ep.rank_miss.push(service);
                    seen.insert(k, (epoch, ranking.app_order));
                }
            }
            probe.event_end(mark, true);
        }
        ep.rungs.push((rate, latencies));
    }
    ep.run_s = origin.elapsed().as_secs_f64();
    (ep.ledger, ep.trace) = probe.disarm();

    if held.next().is_some() {
        ep.violations.push("held-back uploads left over after the last write batch".into());
    }
    let epoch = dep.server.features_epoch();
    let db = dep.server.database();
    for (k, (e, order)) in &seen {
        if *e != epoch {
            continue;
        }
        let fresh = rank_category(db, dep.server.applications(), "coffee-shop", &profiles[*k])
            .map_err(err)?;
        if fresh.app_order != *order {
            ep.violations.push(format!("profile {k}: cached ranking differs from a fresh one"));
        }
    }
    let ranking =
        rank_category(db, dep.server.applications(), "coffee-shop", &neutral(4)).map_err(err)?;
    check_covers(&mut ep.violations, &ranking, apps.len());
    ep.digest = digest(&dep.server, &apps, &ranking)?;
    ep.request = ep
        .rungs
        .iter()
        .filter(|(rate, _)| *rate == HEADLINE_RATE)
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    Ok(finish(ep, dep, DiskStats::default()))
}

/// Replays held-back upload frames, then runs a Data Processor pass,
/// which bumps the features epoch and so invalidates the rank cache.
fn write_batch(dep: &mut Deployment, frames: impl Iterator<Item = Vec<u8>>) -> Result<(), String> {
    let now = dep.server.now();
    let probe = dep.probe_handle();
    for frame in frames {
        let t0 = Instant::now();
        let decoded =
            probe.time(Layer::ProtoDecode, 0, || sor_proto::Message::decode_traced(&frame));
        match decoded {
            Ok((msg, ctx)) => dep.handle_at_server(t0, &msg, ctx, frame.len(), now),
            Err(_) => dep.counts.decode_failures += 1,
        }
    }
    dep.process()
}

/// Sleeps, then spins, until `due` seconds after `origin`. Returns how
/// late it woke, or `None` when the request was already due. The spin
/// covers the last millisecond: on a busy host a sleep can overshoot by
/// hundreds of microseconds, which would be charged to the requests.
fn wait_until(origin: Instant, due: f64) -> Option<f64> {
    const SPIN_S: f64 = 1e-3;
    let gap = due - origin.elapsed().as_secs_f64();
    if gap <= 0.0 {
        return None;
    }
    if gap > SPIN_S {
        std::thread::sleep(Duration::from_secs_f64(gap - SPIN_S));
    }
    while origin.elapsed().as_secs_f64() < due {
        std::hint::spin_loop();
    }
    Some(origin.elapsed().as_secs_f64() - due)
}

fn final_rank(
    dep: &mut Deployment,
    category: &str,
    features: usize,
) -> Result<sor_server::ranker::CategoryRanking, String> {
    let probe = dep.probe_handle();
    let ranking =
        probe.time(Layer::ServerRank, 0, || dep.server.rank(category, &neutral(features)));
    dep.counts.rank_requests += 1;
    ranking.map_err(err)
}

fn check_covers(
    violations: &mut Vec<String>,
    ranking: &sor_server::ranker::CategoryRanking,
    places: usize,
) {
    let mut ids = ranking.app_order.clone();
    ids.sort_unstable();
    if ids != (1..=places as u64).collect::<Vec<_>>() {
        violations.push(format!("final ranking covers {} of {places} places", ids.len()));
    }
}

/// FNV-1a over every feature value, the final ranking and every stored
/// schedule, in id order.
fn digest(
    server: &SensingServer,
    apps: &[ApplicationSpec],
    ranking: &sor_server::ranker::CategoryRanking,
) -> Result<u64, String> {
    let mut h = Fnv::default();
    for app in apps {
        for spec in &app.features {
            match server.feature_value(app.app_id, &spec.name).map_err(err)? {
                Some(v) => h.f64(v),
                None => h.u64(u64::MAX),
            }
        }
    }
    ranking.app_order.iter().for_each(|&id| h.u64(id));
    for task in server.participation().all() {
        h.u64(task.task_id);
        for t in server.stored_schedule(task.task_id).map_err(err)? {
            h.f64(t);
        }
    }
    Ok(h.finish())
}

fn finish(mut ep: Episode, dep: Deployment, disk: DiskStats) -> Episode {
    ep.samples = dep.samples;
    ep.counts = dep.counts;
    ep.disk = disk;
    ep
}
