//! The benchmark's own discrete-event loop: real `SensingServer`,
//! `MobileFrontend`s and `Transport` driven from a `sor_sim::EventQueue`,
//! with every call into them going through the [`Probe`]. It follows
//! `SorWorld`'s event semantics (scan, sweep, deliver, periodic
//! processing, crash and recovery) but owns the loop, so it can put
//! request-boundary timestamps exactly where a user would see them.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

use sor_durable::{DurableOptions, SimDisk};
use sor_frontend::MobileFrontend;
use sor_obs::Recorder;
use sor_proto::{Message, TraceContext};
use sor_server::feature::RawRecord;
use sor_server::{ApplicationSpec, SensingServer};
use sor_sim::{Endpoint, EventQueue, Transport};

use crate::probe::{DiskStats, Layer, Probe, TimedDisk};

/// When a phone shows up, at which place, and what it offers.
#[derive(Debug, Clone, Copy)]
pub struct PhonePlan {
    /// The place (application) whose barcode it scans.
    pub app_id: u64,
    /// Sensing budget it offers.
    pub budget: u32,
    /// Scan time (simulated seconds).
    pub arrival: f64,
    /// Announced stay after the scan.
    pub stay: f64,
}

/// Timers of one deployment (simulated seconds).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Phone task sweep period.
    pub sweep_interval: f64,
    /// Data Processor pass period.
    pub process_interval: f64,
    /// End of the sensing period: no sweeps or passes after it.
    pub horizon: f64,
}

#[derive(Debug)]
enum Ev {
    Scan(usize),
    Deliver(Endpoint, Vec<u8>),
    Sweep(usize),
    Process,
    Crash,
}

#[derive(Debug)]
struct Durable {
    disk: SimDisk,
    stats: Rc<RefCell<DiskStats>>,
    apps: Vec<ApplicationSpec>,
}

/// Request-boundary latencies, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Decode + admission handling + encode of the reply assignments.
    pub admit: Vec<f64>,
    /// Decode + upload handling up to the ack (WAL commit included).
    pub upload: Vec<f64>,
    /// `process_data` passes.
    pub refresh: Vec<f64>,
    /// Crash recoveries: reopen plus re-registration.
    pub recovery: Vec<f64>,
}

impl Samples {
    /// Appends another episode's samples.
    pub fn absorb(&mut self, other: Samples) {
        self.admit.extend(other.admit);
        self.upload.extend(other.upload);
        self.refresh.extend(other.refresh);
        self.recovery.extend(other.recovery);
    }
}

/// Work counts, observed from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Participation requests handled.
    pub admits: u64,
    /// Task completions (and other control messages) handled.
    pub completes: u64,
    /// Uploads handled.
    pub uploads: u64,
    /// Bytes of the upload frames the server acked.
    pub upload_bytes: u64,
    /// Records inside acked uploads.
    pub acked_records: u64,
    /// Messages the server rejected.
    pub rejected: u64,
    /// Frames that failed to decode.
    pub decode_failures: u64,
    /// Data Processor passes.
    pub process_passes: u64,
    /// Records those passes stored.
    pub records_stored: u64,
    /// Rank requests served.
    pub rank_requests: u64,
    /// Schedule assignments the server sent.
    pub assignments_sent: u64,
    /// Assignments whose sense times differ from the last ones sent for
    /// the same task (first assignments count as changed). Traced only.
    pub assignments_changed: u64,
    /// Phone script runs (uploads plus failed runs).
    pub script_runs: u64,
    /// Tasks a phone reported as failed.
    pub tasks_failed: u64,
    /// Frames put on the transport.
    pub frames: u64,
    /// Bytes of those frames.
    pub frame_bytes: u64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Server crashes recovered from.
    pub recoveries: u64,
}

impl Counts {
    /// Adds another episode's counts.
    pub fn absorb(&mut self, o: &Counts) {
        let pairs: [(&mut u64, u64); 18] = [
            (&mut self.admits, o.admits),
            (&mut self.completes, o.completes),
            (&mut self.uploads, o.uploads),
            (&mut self.upload_bytes, o.upload_bytes),
            (&mut self.acked_records, o.acked_records),
            (&mut self.rejected, o.rejected),
            (&mut self.decode_failures, o.decode_failures),
            (&mut self.process_passes, o.process_passes),
            (&mut self.records_stored, o.records_stored),
            (&mut self.rank_requests, o.rank_requests),
            (&mut self.assignments_sent, o.assignments_sent),
            (&mut self.assignments_changed, o.assignments_changed),
            (&mut self.script_runs, o.script_runs),
            (&mut self.tasks_failed, o.tasks_failed),
            (&mut self.frames, o.frames),
            (&mut self.frame_bytes, o.frame_bytes),
            (&mut self.events, o.events),
            (&mut self.recoveries, o.recoveries),
        ];
        for (mine, theirs) in pairs {
            *mine += theirs;
        }
    }

    /// Operations the server was asked to perform.
    pub fn attempted(&self) -> u64 {
        self.admits
            + self.completes
            + self.uploads
            + self.process_passes
            + self.rank_requests
            + self.recoveries
            + self.decode_failures
    }

    /// Operations that were rejected, undecodable or errored.
    pub fn failed(&self) -> u64 {
        self.rejected + self.decode_failures
    }
}

/// One simulated deployment.
pub struct Deployment {
    /// The sensing server under test.
    pub server: SensingServer,
    phones: Vec<MobileFrontend>,
    plans: Vec<PhonePlan>,
    tokens: HashMap<u64, usize>,
    transport: Transport,
    queue: EventQueue<Ev>,
    probe: Probe,
    cfg: SimConfig,
    durable: Option<Durable>,
    hold_seed: Option<u64>,
    upload_seq: HashMap<u64, u64>,
    keep_acked: bool,
    last_sent: HashMap<u64, Vec<f64>>,
    /// Upload frames held back from the server (see [`Deployment::hold_back`]).
    pub held: Vec<Vec<u8>>,
    /// Per application, the records of every acked upload in ack order
    /// (kept with [`Deployment::keep_acked`]).
    pub acked: BTreeMap<u64, Vec<RawRecord>>,
    /// Latencies observed so far.
    pub samples: Samples,
    /// Work observed so far.
    pub counts: Counts,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("phones", &self.phones.len())
            .field("pending", &self.queue.len())
            .field("counts", &self.counts)
            .finish()
    }
}

/// Stringifies a program error at the benchmark boundary.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Deployment {
    /// A deployment around an in-memory server with `apps` registered.
    ///
    /// # Errors
    ///
    /// Server construction or registration failures.
    pub fn ephemeral(
        apps: &[ApplicationSpec],
        probe: Probe,
        cfg: SimConfig,
    ) -> Result<Self, String> {
        let mut server = SensingServer::new().map_err(err)?;
        for spec in apps {
            server.register_application(spec.clone()).map_err(err)?;
        }
        Ok(Self::around(server, probe, cfg, None))
    }

    /// A deployment whose server persists to a fresh [`SimDisk`] with
    /// the default durability options, so [`Deployment::schedule_crash`]
    /// can kill and recover it.
    ///
    /// # Errors
    ///
    /// Server construction or registration failures.
    pub fn durable(
        apps: &[ApplicationSpec],
        disk_seed: u64,
        probe: Probe,
        cfg: SimConfig,
    ) -> Result<(Self, Rc<RefCell<DiskStats>>), String> {
        let durable =
            Durable { disk: SimDisk::new(disk_seed), stats: Rc::default(), apps: apps.to_vec() };
        let stats = durable.stats.clone();
        let server = open_durable(&durable, &probe, 0.0)?;
        Ok((Self::around(server, probe, cfg, Some(durable)), stats))
    }

    fn around(
        server: SensingServer,
        probe: Probe,
        cfg: SimConfig,
        durable: Option<Durable>,
    ) -> Self {
        Deployment {
            server,
            phones: Vec::new(),
            plans: Vec::new(),
            tokens: HashMap::new(),
            transport: Transport::perfect(),
            queue: EventQueue::new(),
            probe,
            cfg,
            durable,
            hold_seed: None,
            upload_seq: HashMap::new(),
            keep_acked: false,
            last_sent: HashMap::new(),
            held: Vec::new(),
            acked: BTreeMap::new(),
            samples: Samples::default(),
            counts: Counts::default(),
        }
    }

    /// Adds a phone that scans and then sweeps on the configured period.
    pub fn add_phone(&mut self, phone: MobileFrontend, plan: PhonePlan) {
        let idx = self.phones.len();
        self.tokens.insert(phone.token(), idx);
        self.phones.push(phone);
        self.plans.push(plan);
        self.queue.schedule(plan.arrival, Ev::Scan(idx));
        self.queue.schedule(plan.arrival + 1.0, Ev::Sweep(idx));
    }

    /// Schedules the periodic Data Processor passes.
    pub fn schedule_processing(&mut self) {
        self.queue.schedule(self.cfg.process_interval, Ev::Process);
    }

    /// Schedules an abrupt server death (and recovery) at `at`.
    pub fn schedule_crash(&mut self, at: f64) {
        self.queue.schedule(at, Ev::Crash);
    }

    /// Holds back every other upload of each task (by
    /// [`crate::gen::held_back`]) instead of handing it to the server.
    pub fn hold_back(&mut self, seed: u64) {
        self.hold_seed = Some(seed);
    }

    /// Keeps a copy of every acked upload's records in [`Deployment::acked`].
    pub fn keep_acked(&mut self) {
        self.keep_acked = true;
    }

    /// The phones' plans, in phone order.
    pub fn plans(&self) -> &[PhonePlan] {
        &self.plans
    }

    /// The probe this deployment charges, for calls made around it.
    pub fn probe_handle(&self) -> Probe {
        self.probe.clone()
    }

    /// Runs events until the queue drains, then settles the server
    /// clock past the horizon and runs a last Data Processor pass.
    ///
    /// # Errors
    ///
    /// Program errors that are not per-request rejections.
    pub fn run(&mut self) -> Result<(), String> {
        while let Some((now, ev)) = self.probe.time(Layer::SimQueue, 0, || self.queue.pop()) {
            self.counts.events += 1;
            self.dispatch(now, ev)?;
        }
        let end = self.cfg.horizon + 60.0;
        self.probe.time(Layer::ServerTick, 0, || self.server.tick(end));
        self.process()
    }

    fn dispatch(&mut self, now: f64, ev: Ev) -> Result<(), String> {
        match ev {
            Ev::Scan(p) => {
                let token = self.phones[p].token();
                let mark = self.probe.event_begin("sim.scan", token);
                let plan = self.plans[p];
                let req = self.probe.time(Layer::FrontendBusy, token, || {
                    let phone = &mut self.phones[p];
                    let out =
                        if phone.now() < now { phone.advance_to_ctx(now) } else { Vec::new() };
                    (out, phone.scan_barcode(plan.app_id, plan.budget, plan.stay))
                });
                self.forward_phone(now, req.0);
                self.send(now, Endpoint::Server, &req.1, token);
                self.probe.event_end(mark, true);
            }
            Ev::Sweep(p) => {
                let token = self.phones[p].token();
                let mark = self.probe.event_begin("sim.sweep", token);
                let msgs = self
                    .probe
                    .time(Layer::FrontendBusy, token, || self.phones[p].advance_to_ctx(now));
                let busy = !msgs.is_empty();
                self.forward_phone(now, msgs);
                let next = now + self.cfg.sweep_interval;
                if next <= self.cfg.horizon {
                    self.probe.time(Layer::SimQueue, 0, || self.queue.schedule(next, Ev::Sweep(p)));
                }
                self.probe.event_end(mark, busy);
            }
            Ev::Deliver(Endpoint::Server, frame) => self.deliver_to_server(now, frame)?,
            Ev::Deliver(Endpoint::Phone(p), frame) => {
                let token = self.phones[p].token();
                let mark = self.probe.event_begin("sim.deliver", token);
                let decoded =
                    self.probe.time(Layer::ProtoDecode, token, || Message::decode_traced(&frame));
                match decoded {
                    Ok((msg, ctx)) => {
                        let (out, replies) = self.probe.time(Layer::FrontendBusy, token, || {
                            let phone = &mut self.phones[p];
                            let out = if phone.now() < now {
                                phone.advance_to_ctx(now)
                            } else {
                                Vec::new()
                            };
                            (out, phone.handle_message_ctx(&msg, ctx))
                        });
                        self.forward_phone(now, out);
                        for reply in replies {
                            self.send(now, Endpoint::Server, &reply, token);
                        }
                    }
                    Err(_) => self.counts.decode_failures += 1,
                }
                self.probe.event_end(mark, true);
            }
            Ev::Process => {
                let mark = self.probe.event_begin("sim.process", 0);
                self.probe.time(Layer::ServerTick, 0, || self.server.tick(now));
                self.process()?;
                let next = now + self.cfg.process_interval;
                if next <= self.cfg.horizon {
                    self.probe.time(Layer::SimQueue, 0, || self.queue.schedule(next, Ev::Process));
                }
                self.probe.event_end(mark, true);
            }
            Ev::Crash => {
                let mark = self.probe.event_begin("sim.crash", 0);
                let durable =
                    self.durable.as_ref().ok_or("crash scheduled on an ephemeral server")?;
                // Kill: the old server is dropped without a chance to
                // sync; the disk's fault model resolves unflushed bytes.
                durable.disk.crash();
                let t0 = Instant::now();
                self.server = self
                    .probe
                    .time(Layer::DurableRecovery, 0, || open_durable(durable, &self.probe, now))?;
                self.samples.recovery.push(t0.elapsed().as_secs_f64());
                self.counts.recoveries += 1;
                self.probe.event_end(mark, true);
            }
        }
        Ok(())
    }

    /// One timed Data Processor pass.
    ///
    /// # Errors
    ///
    /// Storage errors from the pass.
    pub fn process(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let (stored, _) =
            self.probe.time(Layer::ServerProcess, 0, || self.server.process_data()).map_err(err)?;
        self.samples.refresh.push(t0.elapsed().as_secs_f64());
        self.counts.process_passes += 1;
        self.counts.records_stored += stored as u64;
        Ok(())
    }

    fn deliver_to_server(&mut self, now: f64, frame: Vec<u8>) -> Result<(), String> {
        let mark = self.probe.event_begin("sim.deliver", 0);
        self.probe.time(Layer::ServerTick, 0, || self.server.tick(now));
        let t0 = Instant::now();
        let Ok((msg, ctx)) =
            self.probe.time(Layer::ProtoDecode, 0, || Message::decode_traced(&frame))
        else {
            self.counts.decode_failures += 1;
            self.probe.event_end(mark, true);
            return Ok(());
        };
        if let (Some(seed), Message::SensedDataUpload { task_id, .. }) = (self.hold_seed, &msg) {
            let seq = self.upload_seq.entry(*task_id).or_insert(0);
            *seq += 1;
            if crate::gen::held_back(seed, *task_id, *seq - 1) {
                self.held.push(frame);
                self.probe.event_end(mark, false);
                return Ok(());
            }
        }
        self.handle_at_server(t0, &msg, ctx, frame.len(), now);
        self.probe.event_end(mark, true);
        Ok(())
    }

    /// Hands one decoded message to the server and ships its replies;
    /// `t0` is when the frame reached the server (before decoding).
    /// Records the message's latency by kind.
    pub fn handle_at_server(
        &mut self,
        t0: Instant,
        msg: &Message,
        ctx: Option<TraceContext>,
        frame_len: usize,
        now: f64,
    ) {
        let (layer, trace) = match msg {
            Message::ParticipationRequest { token, .. } => (Layer::ServerAdmit, *token),
            Message::SensedDataUpload { task_id, .. } => (Layer::ServerUpload, *task_id + 1),
            Message::TaskComplete { task_id, .. } => (Layer::ServerComplete, *task_id + 1),
            _ => (Layer::ServerComplete, 0),
        };
        let result = self.probe.time(layer, trace, || self.server.handle_message_ctx(msg, ctx));
        let Ok(replies) = result else {
            self.counts.rejected += 1;
            return;
        };
        let mut assignments = Vec::new();
        for (token, reply, _) in replies {
            if let Some(&p) = self.tokens.get(&token) {
                self.send(now, Endpoint::Phone(p), &reply, trace);
            }
            if let Message::ScheduleAssignment { task_id, sense_times, .. } = reply {
                assignments.push((task_id, sense_times));
            }
        }
        let latency = t0.elapsed().as_secs_f64();
        self.counts.assignments_sent += assignments.len() as u64;
        if self.probe.traced() {
            for (task_id, sense_times) in assignments {
                // Unchanged means: exactly the still-future part of the
                // previous assignment, i.e. a redundant re-send.
                let unchanged = self.last_sent.get(&task_id).is_some_and(|prev| {
                    prev.iter().copied().filter(|&t| t > now).eq(sense_times.iter().copied())
                });
                if !unchanged {
                    self.counts.assignments_changed += 1;
                }
                self.last_sent.insert(task_id, sense_times);
            }
        }
        match msg {
            Message::ParticipationRequest { .. } => {
                self.counts.admits += 1;
                self.samples.admit.push(latency);
            }
            Message::SensedDataUpload { task_id, records } => {
                self.counts.uploads += 1;
                self.counts.upload_bytes += frame_len as u64;
                self.counts.acked_records += records.len() as u64;
                self.samples.upload.push(latency);
                if self.keep_acked {
                    let app = self.server.participation().task(*task_id).map_or(0, |t| t.app_id);
                    self.acked.entry(app).or_default().extend(records.iter().map(|r| RawRecord {
                        timestamp: r.timestamp,
                        window: r.window,
                        sensor: r.sensor,
                        values: r.values.clone(),
                    }));
                }
            }
            _ => self.counts.completes += 1,
        }
    }

    fn forward_phone(&mut self, now: f64, msgs: Vec<(Message, Option<TraceContext>)>) {
        for (msg, _) in msgs {
            let trace = match &msg {
                Message::SensedDataUpload { task_id, .. } => {
                    self.counts.script_runs += 1;
                    *task_id + 1
                }
                Message::TaskComplete { task_id, status } => {
                    if *status != 0 {
                        self.counts.script_runs += 1;
                        self.counts.tasks_failed += 1;
                    }
                    *task_id + 1
                }
                _ => 0,
            };
            self.send(now, Endpoint::Server, &msg, trace);
        }
    }

    fn send(&mut self, now: f64, to: Endpoint, msg: &Message, trace: u64) {
        let flight =
            self.probe.time(Layer::ProtoEncode, trace, || self.transport.send(now, to, msg));
        if let Some(flight) = flight {
            self.counts.frames += 1;
            self.counts.frame_bytes += flight.frame.len() as u64;
            self.probe.time(Layer::SimQueue, 0, || {
                self.queue.schedule(flight.deliver_at, Ev::Deliver(flight.to, flight.frame))
            });
        }
    }
}

/// Opens (or recovers) a durable server on the deployment's disk and
/// re-registers its applications: configuration is not data, so a
/// restarted server gets it from its operator again.
fn open_durable(durable: &Durable, probe: &Probe, now: f64) -> Result<SensingServer, String> {
    let storage = TimedDisk::new(durable.disk.clone(), probe.clone(), durable.stats.clone());
    let (mut server, _report) = SensingServer::durable(
        Box::new(storage),
        DurableOptions::default(),
        Recorder::disabled(),
        now,
    )
    .map_err(err)?;
    for spec in &durable.apps {
        server.register_application(spec.clone()).map_err(err)?;
    }
    Ok(server)
}
