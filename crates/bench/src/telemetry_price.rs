//! What the endpoint telemetry costs a message, measured inside one
//! process: the calls a run made into its endpoints' [`Telemetry`] handles
//! (trace events and histogram samples, both counted by the handles), at
//! the isolated ns per call timed right here. `bench_gate` holds it to its
//! overhead budget; the `phase_probe` example prints it.

use fm_telemetry::{EventKind, Metric, Telemetry};
use std::hint::black_box;
use std::time::Instant;

/// Telemetry calls per message and the isolated ns per call.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryPrice {
    pub trace_calls: f64,
    pub record_calls: f64,
    pub trace_ns: f64,
    pub record_ns: f64,
}

impl TelemetryPrice {
    /// Price the calls `handles` recorded over a run of `msgs` messages.
    pub fn of(handles: &[&Telemetry], msgs: u64) -> Self {
        let per_msg = |calls: u64| calls as f64 / msgs as f64;
        let records = handles
            .iter()
            .flat_map(|h| Metric::ALL.map(|m| h.metric(m).count));
        let t = Telemetry::new(0);
        TelemetryPrice {
            trace_calls: per_msg(handles.iter().map(|h| h.events_recorded()).sum()),
            record_calls: per_msg(records.sum()),
            trace_ns: ns_per_call(|i| t.trace(i, EventKind::PeerDead { peer: i as u16 })),
            record_ns: ns_per_call(|i| t.record(Metric::AckRttTicks, i & 0xFFF)),
        }
    }

    /// Nanoseconds of telemetry per message.
    pub fn ns_per_msg(&self) -> f64 {
        self.trace_calls * self.trace_ns + self.record_calls * self.record_ns
    }
}

/// Mean ns per `call` over a burst, the best of three bursts (which strips
/// scheduler noise from a number this small).
fn ns_per_call(call: impl Fn(u64)) -> f64 {
    const CALLS: u64 = 1 << 18;
    (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..CALLS {
                call(black_box(i));
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}
