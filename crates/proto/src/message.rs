//! The typed messages exchanged between mobile frontend and sensing
//! server, with self-describing checksummed frames.
//!
//! Frame layout:
//!
//! ```text
//! +-------+------+----------------+---------+-------+
//! | magic | type | payload length | payload | crc32 |
//! | 4 B   | 1 B  | varint         | ...     | 4 B   |
//! +-------+------+----------------+---------+-------+
//! ```
//!
//! When the high bit of the type byte ([`TRACED_FLAG`]) is set, a
//! [`TraceContext`] (trace id + parent span id, both varints) is
//! spliced between the type byte and the payload length:
//!
//! ```text
//! +-------+-----------+----------+-------------+-----+---------+-------+
//! | magic | type|0x80 | trace id | parent span | len | payload | crc32 |
//! +-------+-----------+----------+-------------+-----+---------+-------+
//! ```
//!
//! Untraced frames are byte-identical to the pre-context format, so the
//! context costs nothing when tracing is off. The CRC covers everything
//! before it: magic, type, optional context, length and payload.

use crate::checksum::crc32;
use crate::varint;
use crate::wire::{Reader, Writer};
use crate::ProtoError;

/// Frame magic: "SOR1".
pub const MAGIC: [u8; 4] = *b"SOR1";

/// High bit of the frame type byte: set when a [`TraceContext`] follows.
pub const TRACED_FLAG: u8 = 0x80;

/// Causal trace context carried on a wire frame: which logical trace
/// the message belongs to and which span caused it. Varint-encoded, so
/// a typical context costs 2–4 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Logical trace id (e.g. derived from the originating task id).
    pub trace_id: u64,
    /// Span id of the causing span in the sender's trace; 0 = none.
    pub parent_span: u64,
}

impl TraceContext {
    /// A context with a trace id but no causal parent.
    pub fn root(trace_id: u64) -> Self {
        TraceContext { trace_id, parent_span: 0 }
    }

    /// The same trace, re-parented under `parent_span`.
    pub fn child(self, parent_span: u64) -> Self {
        TraceContext { trace_id: self.trace_id, parent_span }
    }
}

/// One raw acquisition record: the paper's 3-tuple `(t, Δt, d)` of §IV-A
/// plus the sensor kind it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SensedRecord {
    /// Timestamp `t` (seconds since epoch or scenario start).
    pub timestamp: f64,
    /// Window `Δt`: "a short period of time (typically several seconds)"
    /// within which multiple readings are taken.
    pub window: f64,
    /// Sensor kind discriminant (the sensors crate defines the registry).
    pub sensor: u16,
    /// The set of readings `d` taken within `[t, t + Δt]`.
    pub values: Vec<f64>,
}

/// A per-sensor privacy setting from the Local Preference Manager
/// (§II-A: "a user may not want to expose his/her exact locations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorPermission {
    /// Sensor kind discriminant.
    pub sensor: u16,
    /// Whether this phone will serve readings from that sensor.
    pub allowed: bool,
}

/// All SOR wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Frontend → server: user scanned the 2D barcode of a target place.
    ParticipationRequest {
        /// Token uniquely identifying the mobile device (§II-B).
        token: u64,
        /// Application (target place) id from the barcode.
        app_id: u64,
        /// Device-reported latitude (degrees).
        latitude: f64,
        /// Device-reported longitude (degrees).
        longitude: f64,
        /// Sensing budget the user is willing to spend.
        budget: u32,
        /// Expected remaining stay in seconds (0 = unknown).
        stay_seconds: f64,
    },
    /// Server → frontend: the computed schedule plus the task script.
    ScheduleAssignment {
        /// Task id minted by the Participation Manager.
        task_id: u64,
        /// The SenseScript source describing *how* to sense.
        script: String,
        /// Wall-clock times (seconds) at which to run the script.
        sense_times: Vec<f64>,
    },
    /// Frontend → server: sensed data for a task.
    SensedDataUpload {
        /// Task the data belongs to.
        task_id: u64,
        /// The acquired records.
        records: Vec<SensedRecord>,
    },
    /// Frontend → server: privacy preferences for this device.
    PreferenceUpdate {
        /// Device token.
        token: u64,
        /// Per-sensor permissions.
        permissions: Vec<SensorPermission>,
    },
    /// Server → frontend via the push channel (the paper's Google Cloud
    /// Messaging fallback): "ping me, I lost track of you".
    WakeUp {
        /// Device token being paged.
        token: u64,
    },
    /// Frontend → server: response to [`Message::WakeUp`].
    Ping {
        /// Device token.
        token: u64,
        /// Milliseconds of uptime, a liveness hint.
        uptime_ms: u64,
    },
    /// Either direction: terminate a task (user left the place, budget
    /// exhausted, or error).
    TaskComplete {
        /// The finished task.
        task_id: u64,
        /// 0 = success; anything else is an error code.
        status: u32,
    },
}

/// Discriminants (stable wire values).
impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::ParticipationRequest { .. } => 1,
            Message::ScheduleAssignment { .. } => 2,
            Message::SensedDataUpload { .. } => 3,
            Message::PreferenceUpdate { .. } => 4,
            Message::WakeUp { .. } => 5,
            Message::Ping { .. } => 6,
            Message::TaskComplete { .. } => 7,
        }
    }

    /// Encodes the message into a framed, checksummed byte vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Encodes the message, optionally splicing a [`TraceContext`] into
    /// the frame. `encode_traced(None)` is byte-identical to
    /// [`Message::encode`]. The payload is sized before anything is
    /// written, so the frame is encoded once, into a buffer of exactly
    /// its length.
    pub fn encode_traced(&self, ctx: Option<TraceContext>) -> Vec<u8> {
        let payload_len = self.payload_len();
        let ctx_len =
            ctx.map_or(0, |c| varint::encoded_len(c.trace_id) + varint::encoded_len(c.parent_span));
        let frame_len =
            MAGIC.len() + 1 + ctx_len + varint::encoded_len(payload_len as u64) + payload_len + 4;
        let mut frame = Writer::with_capacity(frame_len);
        frame.put_raw(&MAGIC);
        match ctx {
            Some(ctx) => {
                frame.put_u8(self.type_byte() | TRACED_FLAG);
                frame.put_uvar(ctx.trace_id);
                frame.put_uvar(ctx.parent_span);
            }
            None => frame.put_u8(self.type_byte()),
        }
        frame.put_uvar(payload_len as u64);
        self.encode_payload(&mut frame);
        let crc = crc32(frame.as_slice());
        frame.put_u32(crc);
        debug_assert_eq!(frame.len(), frame_len, "payload_len disagrees with encode_payload");
        frame.into_bytes()
    }

    /// Bytes [`Message::encode_payload`] writes.
    fn payload_len(&self) -> usize {
        let uvar = varint::encoded_len;
        let f64_seq = |vs: &[f64]| uvar(vs.len() as u64) + 8 * vs.len();
        match self {
            Message::ParticipationRequest { token, app_id, budget, .. } => {
                uvar(*token) + uvar(*app_id) + 8 + 8 + uvar(*budget as u64) + 8
            }
            Message::ScheduleAssignment { task_id, script, sense_times } => {
                uvar(*task_id) + uvar(script.len() as u64) + script.len() + f64_seq(sense_times)
            }
            Message::SensedDataUpload { task_id, records } => {
                let body: usize =
                    records.iter().map(|r| 16 + uvar(r.sensor as u64) + f64_seq(&r.values)).sum();
                uvar(*task_id) + uvar(records.len() as u64) + body
            }
            Message::PreferenceUpdate { token, permissions } => {
                let body: usize = permissions.iter().map(|p| uvar(p.sensor as u64) + 1).sum();
                uvar(*token) + uvar(permissions.len() as u64) + body
            }
            Message::WakeUp { token } => uvar(*token),
            Message::Ping { token, uptime_ms } => uvar(*token) + uvar(*uptime_ms),
            Message::TaskComplete { task_id, status } => uvar(*task_id) + uvar(*status as u64),
        }
    }

    /// Writes the payload: the fields in declaration order.
    fn encode_payload(&self, payload: &mut Writer) {
        match self {
            Message::ParticipationRequest {
                token,
                app_id,
                latitude,
                longitude,
                budget,
                stay_seconds,
            } => {
                payload.put_uvar(*token);
                payload.put_uvar(*app_id);
                payload.put_f64(*latitude);
                payload.put_f64(*longitude);
                payload.put_uvar(*budget as u64);
                payload.put_f64(*stay_seconds);
            }
            Message::ScheduleAssignment { task_id, script, sense_times } => {
                payload.put_uvar(*task_id);
                payload.put_str(script);
                payload.put_f64_seq(sense_times);
            }
            Message::SensedDataUpload { task_id, records } => {
                payload.put_uvar(*task_id);
                payload.put_uvar(records.len() as u64);
                for r in records {
                    payload.put_f64(r.timestamp);
                    payload.put_f64(r.window);
                    payload.put_uvar(r.sensor as u64);
                    payload.put_f64_seq(&r.values);
                }
            }
            Message::PreferenceUpdate { token, permissions } => {
                payload.put_uvar(*token);
                payload.put_uvar(permissions.len() as u64);
                for p in permissions {
                    payload.put_uvar(p.sensor as u64);
                    payload.put_u8(p.allowed as u8);
                }
            }
            Message::WakeUp { token } => payload.put_uvar(*token),
            Message::Ping { token, uptime_ms } => {
                payload.put_uvar(*token);
                payload.put_uvar(*uptime_ms);
            }
            Message::TaskComplete { task_id, status } => {
                payload.put_uvar(*task_id);
                payload.put_uvar(*status as u64);
            }
        }
    }

    /// Decodes a full frame, ignoring any embedded [`TraceContext`].
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]: bad magic, unknown type, truncation, CRC
    /// mismatch, or trailing bytes after the frame.
    pub fn decode(frame: &[u8]) -> Result<Self, ProtoError> {
        Self::decode_traced(frame).map(|(msg, _)| msg)
    }

    /// Decodes a full frame along with its [`TraceContext`], if the
    /// sender attached one.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]: bad magic, unknown type, truncation, CRC
    /// mismatch, or trailing bytes after the frame.
    pub fn decode_traced(frame: &[u8]) -> Result<(Self, Option<TraceContext>), ProtoError> {
        let mut r = Reader::new(frame);
        let magic: [u8; 4] = {
            let mut m = [0u8; 4];
            for b in &mut m {
                *b = r.get_u8()?;
            }
            m
        };
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let raw_ty = r.get_u8()?;
        let ty = raw_ty & !TRACED_FLAG;
        let ctx = if raw_ty & TRACED_FLAG != 0 {
            Some(TraceContext { trace_id: r.get_uvar()?, parent_span: r.get_uvar()? })
        } else {
            None
        };
        let len = r.get_uvar()? as usize;
        if r.remaining() < len + 4 {
            return Err(ProtoError::LengthMismatch {
                declared: len,
                available: r.remaining().saturating_sub(4),
            });
        }
        let body_end = frame.len() - r.remaining() + len;
        let payload = &frame[frame.len() - r.remaining()..body_end];
        let stored_crc =
            u32::from_le_bytes(frame[body_end..body_end + 4].try_into().expect("4 bytes"));
        let computed = crc32(&frame[..body_end]);
        if computed != stored_crc {
            return Err(ProtoError::ChecksumMismatch { computed, stored: stored_crc });
        }
        if frame.len() > body_end + 4 {
            return Err(ProtoError::TrailingBytes(frame.len() - body_end - 4));
        }

        let mut p = Reader::new(payload);
        let msg = match ty {
            1 => Message::ParticipationRequest {
                token: p.get_uvar()?,
                app_id: p.get_uvar()?,
                latitude: p.get_f64()?,
                longitude: p.get_f64()?,
                budget: p.get_uvar()? as u32,
                stay_seconds: p.get_f64()?,
            },
            2 => Message::ScheduleAssignment {
                task_id: p.get_uvar()?,
                script: p.get_str()?.to_owned(),
                sense_times: p.get_f64_seq()?,
            },
            3 => {
                let task_id = p.get_uvar()?;
                let n = p.get_uvar()? as usize;
                let mut records = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    records.push(SensedRecord {
                        timestamp: p.get_f64()?,
                        window: p.get_f64()?,
                        sensor: p.get_uvar()? as u16,
                        values: p.get_f64_seq()?,
                    });
                }
                Message::SensedDataUpload { task_id, records }
            }
            4 => {
                let token = p.get_uvar()?;
                let n = p.get_uvar()? as usize;
                let mut permissions = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    permissions.push(SensorPermission {
                        sensor: p.get_uvar()? as u16,
                        allowed: p.get_u8()? != 0,
                    });
                }
                Message::PreferenceUpdate { token, permissions }
            }
            5 => Message::WakeUp { token: p.get_uvar()? },
            6 => Message::Ping { token: p.get_uvar()?, uptime_ms: p.get_uvar()? },
            7 => Message::TaskComplete { task_id: p.get_uvar()?, status: p.get_uvar()? as u32 },
            other => return Err(ProtoError::UnknownMessageType(other)),
        };
        if p.remaining() > 0 {
            return Err(ProtoError::TrailingBytes(p.remaining()));
        }
        Ok((msg, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::ParticipationRequest {
                token: 0xABCD,
                app_id: 3,
                latitude: 43.0481,
                longitude: -76.1474,
                budget: 17,
                stay_seconds: 3600.0,
            },
            Message::ScheduleAssignment {
                task_id: 9,
                script: "local l = get_light_readings(5)\nreport(l)".to_owned(),
                sense_times: vec![10.0, 170.0, 330.0],
            },
            Message::SensedDataUpload {
                task_id: 9,
                records: vec![
                    SensedRecord {
                        timestamp: 100.0,
                        window: 3.0,
                        sensor: 1,
                        values: vec![20.0, 20.5],
                    },
                    SensedRecord { timestamp: 170.0, window: 3.0, sensor: 2, values: vec![] },
                ],
            },
            Message::PreferenceUpdate {
                token: 77,
                permissions: vec![
                    SensorPermission { sensor: 0, allowed: false },
                    SensorPermission { sensor: 3, allowed: true },
                ],
            },
            Message::WakeUp { token: 5 },
            Message::Ping { token: 5, uptime_ms: 123_456 },
            Message::TaskComplete { task_id: 9, status: 0 },
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in sample_messages() {
            let frame = msg.encode();
            let back = Message::decode(&frame).unwrap();
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = sample_messages()[0].encode();
        frame[0] = b'X';
        assert!(matches!(Message::decode(&frame), Err(ProtoError::BadMagic(_))));
    }

    #[test]
    fn corruption_detected_by_crc() {
        for msg in sample_messages() {
            let mut frame = msg.encode();
            let mid = frame.len() / 2;
            frame[mid] ^= 0x40;
            let err = Message::decode(&frame).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtoError::ChecksumMismatch { .. }
                        | ProtoError::LengthMismatch { .. }
                        | ProtoError::VarintOverflow
                        | ProtoError::UnexpectedEof { .. }
                        | ProtoError::UnknownMessageType(_)
                        | ProtoError::InvalidUtf8
                ),
                "corruption slipped through: {err:?}"
            );
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = sample_messages()[2].encode();
        for cut in [1, frame.len() / 2, frame.len() - 1] {
            assert!(Message::decode(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = sample_messages()[0].encode();
        frame.push(0);
        assert!(matches!(
            Message::decode(&frame),
            Err(ProtoError::TrailingBytes(_) | ProtoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        // Build a syntactically valid frame with type 99.
        let mut w = Writer::new();
        w.put_raw(&MAGIC);
        w.put_u8(99);
        w.put_uvar(0);
        let crc = crc32(w.as_slice());
        w.put_u32(crc);
        assert_eq!(Message::decode(w.as_slice()), Err(ProtoError::UnknownMessageType(99)));
    }

    #[test]
    fn empty_upload_roundtrips() {
        let msg = Message::SensedDataUpload { task_id: 1, records: vec![] };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn encoding_is_compact() {
        // A wake-up frame should be tiny: 4 magic + 1 type + 1 len +
        // 1 token + 4 crc = 11 bytes.
        let frame = Message::WakeUp { token: 5 }.encode();
        assert_eq!(frame.len(), 11);
    }

    #[test]
    fn traced_frames_roundtrip_context() {
        let ctx = TraceContext { trace_id: 42, parent_span: 9000 };
        for msg in sample_messages() {
            let frame = msg.encode_traced(Some(ctx));
            let (back, got) = Message::decode_traced(&frame).unwrap();
            assert_eq!(back, msg);
            assert_eq!(got, Some(ctx));
            // The context-oblivious decoder accepts the same frame.
            assert_eq!(Message::decode(&frame).unwrap(), msg);
        }
    }

    /// The two-buffer encoder the exact-size one replaced: the payload
    /// into a growing writer, then copied into the frame.
    fn legacy_encode(msg: &Message, ctx: Option<TraceContext>) -> Vec<u8> {
        let mut payload = Writer::new();
        match msg {
            Message::ParticipationRequest {
                token,
                app_id,
                latitude,
                longitude,
                budget,
                stay_seconds,
            } => {
                payload.put_uvar(*token);
                payload.put_uvar(*app_id);
                payload.put_f64(*latitude);
                payload.put_f64(*longitude);
                payload.put_uvar(*budget as u64);
                payload.put_f64(*stay_seconds);
            }
            Message::ScheduleAssignment { task_id, script, sense_times } => {
                payload.put_uvar(*task_id);
                payload.put_str(script);
                payload.put_f64_seq(sense_times);
            }
            Message::SensedDataUpload { task_id, records } => {
                payload.put_uvar(*task_id);
                payload.put_uvar(records.len() as u64);
                for r in records {
                    payload.put_f64(r.timestamp);
                    payload.put_f64(r.window);
                    payload.put_uvar(r.sensor as u64);
                    payload.put_f64_seq(&r.values);
                }
            }
            Message::PreferenceUpdate { token, permissions } => {
                payload.put_uvar(*token);
                payload.put_uvar(permissions.len() as u64);
                for p in permissions {
                    payload.put_uvar(p.sensor as u64);
                    payload.put_u8(p.allowed as u8);
                }
            }
            Message::WakeUp { token } => payload.put_uvar(*token),
            Message::Ping { token, uptime_ms } => {
                payload.put_uvar(*token);
                payload.put_uvar(*uptime_ms);
            }
            Message::TaskComplete { task_id, status } => {
                payload.put_uvar(*task_id);
                payload.put_uvar(*status as u64);
            }
        }
        let payload = payload.into_bytes();
        let mut frame = Writer::with_capacity(payload.len() + 16);
        frame.put_raw(&MAGIC);
        match ctx {
            Some(ctx) => {
                frame.put_u8(msg.type_byte() | TRACED_FLAG);
                frame.put_uvar(ctx.trace_id);
                frame.put_uvar(ctx.parent_span);
            }
            None => frame.put_u8(msg.type_byte()),
        }
        frame.put_uvar(payload.len() as u64);
        frame.put_raw(&payload);
        let crc = crc32(frame.as_slice());
        frame.put_u32(crc);
        frame.into_bytes()
    }

    /// [`sample_messages`] plus shapes whose lengths cross varint
    /// boundaries: a 3/3/120/30-reading trail upload, a script over 127
    /// bytes, wide field values, and empty collections.
    fn encoder_cases() -> Vec<Message> {
        let trail_record = |i: usize, n: usize| SensedRecord {
            timestamp: 1000.0 + i as f64,
            window: 3.0,
            sensor: [2, 3, 4, 9][i],
            values: (0..n).map(|v| v as f64 * 0.125 - 7.0).collect(),
        };
        let mut cases = sample_messages();
        cases.extend([
            Message::SensedDataUpload {
                task_id: 1 << 20,
                records: [3, 3, 120, 30]
                    .into_iter()
                    .enumerate()
                    .map(|(i, n)| trail_record(i, n))
                    .collect(),
            },
            Message::ScheduleAssignment {
                task_id: u64::MAX,
                script: "x".repeat(300),
                sense_times: (0..200).map(f64::from).collect(),
            },
            Message::ScheduleAssignment { task_id: 0, script: String::new(), sense_times: vec![] },
            Message::ParticipationRequest {
                token: u64::MAX,
                app_id: 128,
                latitude: f64::NAN,
                longitude: -0.0,
                budget: u32::MAX,
                stay_seconds: f64::INFINITY,
            },
            Message::PreferenceUpdate {
                token: 0,
                permissions: (0..130)
                    .map(|k| SensorPermission { sensor: k * 500, allowed: k % 2 == 0 })
                    .collect(),
            },
            Message::PreferenceUpdate { token: 1, permissions: vec![] },
            Message::WakeUp { token: u64::MAX },
            Message::Ping { token: 0, uptime_ms: u64::MAX },
            Message::TaskComplete { task_id: 300, status: u32::MAX },
        ]);
        cases
    }

    #[test]
    fn exact_size_encoder_matches_the_two_buffer_encoder() {
        let contexts = [
            None,
            Some(TraceContext::root(0)),
            Some(TraceContext { trace_id: 300, parent_span: 9000 }),
            Some(TraceContext { trace_id: u64::MAX, parent_span: u64::MAX }),
        ];
        for msg in encoder_cases() {
            for ctx in contexts {
                let frame = msg.encode_traced(ctx);
                assert_eq!(frame, legacy_encode(&msg, ctx), "{msg:?} with {ctx:?}");
                assert_eq!(frame.capacity(), frame.len(), "one exact-size buffer: {msg:?}");
            }
        }
    }

    #[test]
    fn untraced_frames_are_byte_identical_to_legacy_encoding() {
        for msg in sample_messages() {
            assert_eq!(msg.encode_traced(None), msg.encode());
            let (_, ctx) = Message::decode_traced(&msg.encode()).unwrap();
            assert_eq!(ctx, None);
        }
    }

    #[test]
    fn trace_context_is_compact_and_crc_covered() {
        // WakeUp + small context: 11 legacy bytes + 2 context varints.
        let ctx = TraceContext::root(7).child(3);
        let frame = Message::WakeUp { token: 5 }.encode_traced(Some(ctx));
        assert_eq!(frame.len(), 13);
        // Flipping a context byte must break the CRC.
        let mut bad = frame.clone();
        bad[5] ^= 0x01; // trace id varint
        assert!(Message::decode_traced(&bad).is_err());
    }

    #[test]
    fn traced_corruption_detected() {
        let ctx = TraceContext { trace_id: u64::MAX, parent_span: u64::MAX };
        for msg in sample_messages() {
            let frame = msg.encode_traced(Some(ctx));
            let mut bad = frame.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            assert!(Message::decode_traced(&bad).is_err());
            for cut in [5, frame.len() / 2, frame.len() - 1] {
                assert!(Message::decode_traced(&frame[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn trace_context_helpers() {
        let root = TraceContext::root(11);
        assert_eq!(root, TraceContext { trace_id: 11, parent_span: 0 });
        assert_eq!(root.child(4), TraceContext { trace_id: 11, parent_span: 4 });
    }
}
