//! One workload, one process: set-up, warm-up, timed segments, metrics.
//!
//! The untraced pass yields the end-to-end metrics. The traced pass runs
//! the probes that belong to its workload (the layer ladder rides
//! `stream_inline`), then the same workload with spans and the counting
//! allocator on, and yields the per-layer metrics. A metric's value is the
//! median over segments.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use fm_core::{EndpointConfig, FabricKind, FaultConfig, MemCluster, NodeId};

use crate::clock::now_ns;
use crate::json::Json;
use crate::oracle::Oracle;
use crate::schema::{self, WorkloadDef, END_TO_END, PER_LAYER};
use crate::spans::{SpanName, Spans};
use crate::stats::{median, quantile_u32, quartiles};
use crate::workloads::{
    incast_config, lossy_config, pair, Counters, Ctx, LargeTransfer, MpiPingPong, Pattern,
    PingPong, SegOut, Stream, Switched, Workload, FULL, H_DATA, H_ECHO, LARGE, LARGE_FRAGS, SHORT,
};
use crate::{alloc, env, ladder};

/// Times the cluster is built and warmed in one run, spread evenly through
/// it; `setup_s` is the median, so one cold first build does not set it.
const SETUPS: usize = 7;
/// The warm-up of a set-up is this share of a segment: long enough that
/// `setup_s` is mostly counted work, not a few cold milliseconds.
const WARMUP_SHARE: u64 = 4;
/// Fewest timed segments of a run (quartiles need three).
const MIN_SEGMENTS: usize = 3;
/// Untraced segments the traced pass runs first, to price tracing itself.
const BASELINE_SEGMENTS: usize = 3;

fn baseline_segments() -> usize {
    if ladder::quick() {
        1
    } else {
        BASELINE_SEGMENTS
    }
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Wall-clock budget of the whole run.
    pub seconds: f64,
    /// Run exactly this many timed segments instead of filling `seconds`.
    pub segments: Option<usize>,
    pub trace: bool,
    /// A quarter-length ladder and one baseline segment (`--quick`).
    pub quick: bool,
    /// Where the Chrome-trace file of a traced run goes.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    /// `{correct, attempted, failed, metrics}` — the one-line result.
    pub line: Json,
    /// The same metrics with quartiles and sample counts, plus span
    /// aggregates; the caller adds the environment block when it writes
    /// the file.
    pub detail: Vec<(&'static str, Json)>,
    pub correct: bool,
}

fn build(name: &str, seed: u64, ops: u64) -> Box<dyn Workload> {
    let config = EndpointConfig {
        seed,
        ..Default::default()
    };
    let oracle = |flows: usize, per_flow: u64, len: usize| {
        Arc::new(Oracle::new(seed, flows, per_flow as u32, len, true))
    };
    match name {
        "pingpong_inline" => Box::new(PingPong::build(
            FabricKind::Ring,
            config,
            SHORT,
            oracle(2, ops, SHORT),
        )),
        "udp_pingpong" => Box::new(PingPong::build(
            FabricKind::Udp,
            config,
            SHORT,
            oracle(2, ops, SHORT),
        )),
        "stream_inline" => Box::new(Stream::build(config, None, FULL, oracle(1, ops, FULL))),
        "lossy_stream" => Box::new(Stream::build(
            lossy_config(seed),
            Some(FaultConfig::uniform(seed, 0.01)),
            FULL,
            oracle(1, ops, FULL),
        )),
        "switched_pairs" => Box::new(Switched::build(
            config,
            Pattern::Pairs,
            oracle(4, ops / 4, FULL),
        )),
        "incast_switched" => {
            let oracle = oracle(7, ops / 7, FULL);
            Box::new(Switched::build(
                incast_config(seed),
                Pattern::Incast,
                oracle,
            ))
        }
        "large_transfer" => Box::new(LargeTransfer::build(config, oracle(1, ops, LARGE))),
        "mpi_pingpong" => Box::new(MpiPingPong::build(oracle(2, ops, SHORT))),
        other => unreachable!("workload `{other}` was checked against the schema"),
    }
}

/// One timed segment and its latency quantiles.
struct Seg {
    wall_ns: u64,
    out: SegOut,
    rtt_p50: f64,
    rtt_p99: f64,
    rtt_p999: f64,
    delivery_p50: f64,
    delivery_p99: f64,
    rtt_samples: usize,
    delivery_samples: usize,
}

fn measure(w: &mut dyn Workload, ops: u64, cx: &mut Ctx, scratch: &mut Vec<u32>) -> Seg {
    w.oracle().begin_segment(w.per_flow(ops));
    cx.rtt_ns.clear();
    cx.spans.begin_segment();
    let t0 = now_ns();
    let out = w.run(ops, cx);
    let wall_ns = now_ns() - t0;
    cx.spans.end_segment();
    w.oracle().end_segment();
    if !w.quiescent() {
        w.oracle().violation();
    }
    w.oracle().take_delivery_samples(scratch);
    Seg {
        wall_ns,
        out,
        rtt_p50: quantile_u32(&mut cx.rtt_ns, 0.5),
        rtt_p99: quantile_u32(&mut cx.rtt_ns, 0.99),
        rtt_p999: quantile_u32(&mut cx.rtt_ns, 0.999),
        delivery_p50: quantile_u32(scratch, 0.5),
        delivery_p99: quantile_u32(scratch, 0.99),
        rtt_samples: cx.rtt_ns.len(),
        delivery_samples: scratch.len(),
    }
}

fn new_ctx(trace: bool, ops: u64) -> Ctx {
    Ctx {
        spans: Spans::new(trace),
        // Sized for the busiest sampler (one sample per stream round), so
        // the timed region never grows it.
        rtt_ns: Vec::with_capacity(ops as usize),
    }
}

/// Median `wall_ns / ops` of a few untraced segments of a freshly built
/// workload: the short references the derived per-layer metrics subtract.
fn reference_ns_per_op(mut w: Box<dyn Workload>, ops: u64, tally: &mut Tally) -> f64 {
    let ops = ladder::scaled(ops);
    let mut cx = new_ctx(false, ops);
    let mut scratch = Vec::new();
    measure(w.as_mut(), ops / 4, &mut cx, &mut scratch); // warm-up
    let per_op: Vec<f64> = (0..baseline_segments())
        .map(|_| measure(w.as_mut(), ops, &mut cx, &mut scratch).wall_ns as f64 / ops as f64)
        .collect();
    tally.absorb(w.oracle());
    median(&per_op)
}

/// Attempted/failed operations summed over every oracle a run used.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn absorb(&mut self, o: &Oracle) {
        self.attempted += o.attempted();
        self.failed += o.failed();
    }
}

/// A metric's per-segment values.
struct Series(Vec<f64>);

impl Series {
    fn of(segs: &[Seg], f: impl Fn(&Seg) -> f64) -> Self {
        Series(segs.iter().map(f).collect())
    }

    fn detail(&self, unit: &str) -> Json {
        let (q1, med, q3) = quartiles(&self.0);
        Json::obj([
            ("value", Json::Num(med)),
            ("unit", Json::str(unit)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(self.0.len() as f64)),
        ])
    }
}

/// Whether the run, `share` of the way through its budget at most, still
/// has a segment to time: a fixed count when `--segments` names one, else
/// `--seconds` of wall clock (and at least `MIN_SEGMENTS`).
fn keep_going(args: &RunArgs, done: usize, started_ns: u64, share: f64) -> bool {
    let due = |n: usize| done < (n as f64 * share).ceil() as usize;
    match args.segments {
        Some(n) => due(n.max(1)),
        None => due(MIN_SEGMENTS) || ((now_ns() - started_ns) as f64) < args.seconds * 1e9 * share,
    }
}

fn msgs_per_s(s: &Seg) -> f64 {
    s.out.delivered as f64 / (s.wall_ns as f64 / 1e9)
}

fn mib_per_s(s: &Seg) -> f64 {
    s.out.payload_bytes as f64 / (s.wall_ns as f64 / 1e9) / (1u64 << 20) as f64
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let def = schema::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if args.quick {
        ladder::set_quick();
    }
    if args.trace {
        run_traced(def, args)
    } else {
        Ok(run_untraced(def, args))
    }
}

fn finish(
    def: &WorkloadDef,
    args: &RunArgs,
    tally: &Tally,
    defs: &[schema::MetricDef],
    details: BTreeMap<&'static str, Json>,
    extra: Vec<(&'static str, Json)>,
) -> Outcome {
    let correct = tally.failed == 0 && tally.attempted > 0;
    let metrics = Json::obj(defs.iter().map(|d| {
        let full = details
            .get(d.name)
            .unwrap_or_else(|| panic!("metric `{}` not measured", d.name));
        let pick = |k: &str| full.get(k).cloned().unwrap_or(Json::Null);
        (
            d.name,
            Json::obj([("value", pick("value")), ("unit", pick("unit"))]),
        )
    }));
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics),
    ]);
    let mut detail = vec![
        ("workload", Json::str(def.name)),
        ("traced", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        ("ops_attempted", Json::Num(tally.attempted as f64)),
        ("ops_failed", Json::Num(tally.failed as f64)),
        ("segment_ops", Json::Num(def.segment_ops as f64)),
        ("threads", Json::Num(1.0)),
        (
            "metrics",
            Json::obj(defs.iter().map(|d| (d.name, details[d.name].clone()))),
        ),
    ];
    detail.extend(extra);
    Outcome {
        line,
        detail,
        correct,
    }
}

fn run_untraced(def: &WorkloadDef, args: &RunArgs) -> Outcome {
    let started = now_ns();
    let ops = def.segment_ops;
    let mut cx = new_ctx(false, ops);
    let mut scratch = Vec::new();
    let mut tally = Tally::default();

    // Set-up (build, register handlers, shake hands on UDP, warm up) is
    // repeated at even intervals through the run, each followed by its
    // share of the timed segments: seven set-ups in the first half second
    // of a process would all sit in whatever the host was doing just then.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut segs = Vec::new();
    for epoch in 1..=SETUPS {
        let t0 = now_ns();
        let mut w = build(def.name, args.seed, ops);
        measure(w.as_mut(), ops / WARMUP_SHARE, &mut cx, &mut scratch);
        setups.push((now_ns() - t0) as f64 / 1e9);
        while keep_going(args, segs.len(), started, epoch as f64 / SETUPS as f64) {
            segs.push(measure(w.as_mut(), ops, &mut cx, &mut scratch));
        }
        tally.absorb(w.oracle());
    }

    let mut details = BTreeMap::new();
    let mut put = |name: &'static str, series: Series| {
        let unit = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("declared metric")
            .unit;
        details.insert(name, series.detail(unit));
    };
    put("setup_s", Series(setups));
    put("msg_rate_per_s", Series::of(&segs, msgs_per_s));
    put("goodput_mbs", Series::of(&segs, mib_per_s));
    put("rtt_p50_ns", Series::of(&segs, |s| s.rtt_p50));
    put("delivery_p50_ns", Series::of(&segs, |s| s.delivery_p50));
    put("peak_rss_kib", Series(vec![env::peak_rss_kib()]));
    let extra = vec![
        (
            "ns_per_op",
            Series::of(&segs, |s| s.wall_ns as f64 / ops as f64).detail("ns"),
        ),
        (
            "ns_per_op_by_segment",
            Json::Arr(
                segs.iter()
                    .map(|s| Json::Num(s.wall_ns as f64 / ops as f64))
                    .collect(),
            ),
        ),
        (
            "rounds_per_segment",
            Series::of(&segs, |s| s.out.rounds as f64).detail("count"),
        ),
        (
            "rtt_samples_per_segment",
            Json::Num(segs[0].rtt_samples as f64),
        ),
        (
            "delivery_samples_per_segment",
            Json::Num(segs[0].delivery_samples as f64),
        ),
        (
            "fairness_jain",
            Series::of(&segs, |s| s.out.fairness).detail("ratio"),
        ),
    ];
    finish(def, args, &tally, &END_TO_END, details, extra)
}

/// Two-thread ping-pong over the same ring mesh: the one diagnostic that
/// puts the scheduler back in, to price the cross-core hand-off the
/// inline drive leaves out. Unpinned; returns the median round trip, ns.
fn threads_pingpong_p50(config: EndpointConfig) -> f64 {
    let rounds = ladder::scaled(20_000) as u32;
    let (mut a, mut b) = pair(MemCluster::with_fabric(2, config, FabricKind::Ring));
    b.register_handler_at(H_DATA, |out, src, data| out.send_copy(src, H_ECHO, data));
    let echoed = Arc::new(AtomicU32::new(0));
    let e = echoed.clone();
    // Release/Acquire pair: the echo count publishes nothing else, but the
    // driver must observe it promptly and in order.
    a.register_handler_at(H_ECHO, move |_, _, _| {
        e.fetch_add(1, Ordering::Release);
    });
    let stop = AtomicBool::new(false);
    let mut samples = Vec::with_capacity(rounds as usize);
    std::thread::scope(|s| {
        let echo_side = s.spawn(|| {
            let mut empty = 0u32;
            while !stop.load(Ordering::Acquire) {
                if b.extract() == 0 {
                    empty += 1;
                    // Stay polite on a one-core box without giving up the
                    // core on every empty poll.
                    if empty.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
            }
        });
        for i in 0..rounds {
            let t0 = now_ns();
            a.send(NodeId(1), H_DATA, &[0x5A; SHORT]);
            let mut empty = 0u32;
            while echoed.load(Ordering::Acquire) != i + 1 {
                if a.extract() == 0 {
                    empty += 1;
                    if empty.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
            }
            samples.push((now_ns() - t0).min(u32::MAX as u64) as u32);
        }
        stop.store(true, Ordering::Release);
        echo_side.join().expect("echo thread panicked");
    });
    quantile_u32(&mut samples, 0.5)
}

/// The layer ladder, size sweeps and Table-4 fits. Nothing here depends on
/// which workload is being traced; `pingpong_round_ns` and `stream_msg_ns`
/// are the references the rung sums are held against.
fn run_ladder(
    config: EndpointConfig,
    pingpong_round_ns: f64,
    stream_msg_ns: f64,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let mut layer = BTreeMap::new();

    // Frame and endpoint rungs across the size sweep.
    let frame: Vec<(f64, f64, f64)> = ladder::SIZES
        .iter()
        .map(|&n| ladder::frame_rungs(n))
        .collect();
    let core_round: Vec<f64> = ladder::SIZES
        .iter()
        .map(|&n| ladder::core_pingpong(n))
        .collect();
    let core_msg: Vec<f64> = ladder::SIZES
        .iter()
        .map(|&n| ladder::core_stream(n))
        .collect();
    let at = |len: usize| {
        ladder::SIZES
            .iter()
            .position(|&n| n == len)
            .expect("size in sweep")
    };
    let (i0, i16, i128) = (at(0), at(SHORT), at(FULL));
    layer.insert("frame.crc32_ns_16", frame[i16].0);
    layer.insert("frame.encode_ns_16", frame[i16].1);
    layer.insert("frame.decode_ns_16", frame[i16].2);
    layer.insert("frame.crc32_ns_128", frame[i128].0);
    layer.insert("frame.encode_ns_128", frame[i128].1);
    layer.insert("frame.decode_ns_128", frame[i128].2);
    let fabric = ladder::fabric_rung();
    layer.insert("fabric.push_poll_ns", fabric);
    layer.insert("endpoint.core_ns_per_msg_16", core_round[i16] / 2.0);
    layer.insert("endpoint.core_ns_per_msg_128", core_msg[i128]);

    // The live loops across the same sweep (count-only handlers: a 0-B
    // payload cannot carry the oracle's header).
    let mut stack_round = Vec::new();
    let mut stack_msg = Vec::new();
    for &len in &ladder::SIZES {
        let pp = PingPong::build(FabricKind::Ring, config, len, Arc::new(Oracle::counting(2)));
        stack_round.push(reference_ns_per_op(Box::new(pp), 10_000, tally));
        let st = Stream::build(config, None, len, Arc::new(Oracle::counting(1)));
        stack_msg.push(reference_ns_per_op(Box::new(st), 30_000, tally));
    }
    let frame_round: Vec<f64> = frame
        .iter()
        .map(|&(_, enc, dec)| 2.0 * (enc + dec))
        .collect();
    let frame_msg: Vec<f64> = frame.iter().map(|&(_, enc, dec)| enc + dec).collect();
    let stack = ladder::table4(&stack_round, &stack_msg);
    layer.insert("stack.t0_ns", stack.t0_us * 1e3);
    layer.insert("stack.r_inf_mbs", stack.r_inf_mbs);
    layer.insert("stack.n_half_bytes", stack.n_half_bytes);
    let codec = ladder::table4(&frame_round, &frame_msg);
    layer.insert("frame.t0_ns", codec.t0_us * 1e3);
    layer.insert("frame.r_inf_mbs", codec.r_inf_mbs);
    layer.insert("frame.n_half_bytes", codec.n_half_bytes);
    let core = ladder::table4(&core_round, &core_msg);
    layer.insert("endpoint.t0_ns", core.t0_us * 1e3);
    layer.insert("endpoint.r_inf_mbs", core.r_inf_mbs);
    layer.insert("endpoint.n_half_bytes", core.n_half_bytes);

    // Ladder sums. A stream message costs one data frame through codec,
    // ring and protocol, plus its share of an ack frame; a ping-pong round
    // costs two data frames and their acks. What the rungs leave of the
    // measured figure is MemEndpoint glue plus the harness itself.
    let ack_codec = frame[i0].1 + frame[i0].2 + fabric;
    let acks_per_data = 0.25;
    let (_, enc128, dec128) = frame[i128];
    let sum128 = enc128 + dec128 + fabric + core_msg[i128] + acks_per_data * ack_codec;
    let (_, enc16, dec16) = frame[i16];
    let sum16 = 2.0 * (enc16 + dec16 + fabric) + core_round[i16] + ack_codec;
    layer.insert("ladder.sum_over_e2e_128", sum128 / stream_msg_ns);
    layer.insert("ladder.sum_over_e2e_16", sum16 / pingpong_round_ns);
    layer.insert("mem.glue_ns_per_msg_128", stream_msg_ns - sum128);
    layer
}

/// What a traced pass measures besides its workload's own spans and
/// counters. Each probe rides the one pass whose workload it explains, so
/// a set of runs measures every number once: the ladder (which does not
/// depend on the traced workload) with `stream_inline`, the two-thread
/// diagnostic with `pingpong_inline`, and elsewhere only the reference the
/// workload's derived difference subtracts.
struct Probes {
    layer: BTreeMap<&'static str, f64>,
    derived: Option<Derived>,
}

/// A metric's name and how it follows from the workload's own untraced
/// ns/op.
type Derived = (&'static str, Box<dyn Fn(f64) -> f64>);

fn run_probes(def: &WorkloadDef, seed: u64, tally: &mut Tally) -> Probes {
    let config = EndpointConfig {
        seed,
        ..Default::default()
    };
    // The two base workloads exactly as the untraced pass runs them
    // (oracle on), shorter.
    let stream_ref = |tally: &mut Tally| {
        reference_ns_per_op(build("stream_inline", seed, 60_000), 60_000, tally)
    };
    let pingpong_ref = |tally: &mut Tally| {
        reference_ns_per_op(build("pingpong_inline", seed, 20_000), 20_000, tally)
    };
    let stream_probe = |config: EndpointConfig, faults, tally: &mut Tally| {
        let oracle = Arc::new(Oracle::new(seed, 1, 60_000, FULL, true));
        let probe = Stream::build(config, faults, FULL, oracle);
        reference_ns_per_op(Box::new(probe), 60_000, tally)
    };
    let mut layer = BTreeMap::new();
    let derived: Option<Derived> = match def.name {
        "stream_inline" => {
            let stream = stream_ref(tally);
            layer = run_ladder(config, pingpong_ref(tally), stream, tally);
            let untraced = EndpointConfig {
                trace_one_in: 0,
                ..config
            };
            layer.insert(
                "telemetry.trace_ns_per_msg",
                stream - stream_probe(untraced, None, tally),
            );
            None
        }
        "pingpong_inline" => {
            let p50 = threads_pingpong_p50(config);
            layer.insert("threads.pingpong_rtt_p50_ns", p50);
            Some((
                "threads.handoff_ns_per_round",
                Box::new(move |round| p50 - round),
            ))
        }
        "lossy_stream" => {
            // Zero-rate injector against none, same stream; 1.25 frames
            // cross the injector per message (data + ack share).
            let with = stream_probe(config, Some(FaultConfig::new(seed)), tally);
            layer.insert(
                "fault.injector_ns_per_frame",
                (with - stream_ref(tally)) / 1.25,
            );
            None
        }
        "switched_pairs" => {
            let stream = stream_ref(tally);
            Some(("switched.hop_ns_per_msg", Box::new(move |msg| msg - stream)))
        }
        "udp_pingpong" => {
            let pingpong = pingpong_ref(tally);
            Some((
                "udp.wire_ns_per_msg",
                Box::new(move |round| (round - pingpong) / 2.0),
            ))
        }
        "large_transfer" => {
            let (fragment, reassemble) = ladder::seg_rungs();
            layer.insert("seg.fragment_ns_per_frag", fragment);
            layer.insert("seg.reassemble_ns_per_frag", reassemble);
            let stream = stream_ref(tally);
            Some((
                "seg.overhead_ns_per_frag",
                Box::new(move |large| large / LARGE_FRAGS as f64 - stream),
            ))
        }
        "mpi_pingpong" => {
            let (envelope, matchqueue) = ladder::fmmpi_rungs();
            layer.insert("fmmpi.envelope_ns", envelope);
            layer.insert("fmmpi.matchqueue_ns", matchqueue);
            let pingpong = pingpong_ref(tally);
            Some((
                "fmmpi.overhead_ns_per_round",
                Box::new(move |round| round - pingpong),
            ))
        }
        _ => None,
    };
    Probes { layer, derived }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_traced(def: &WorkloadDef, args: &RunArgs) -> Result<Outcome, String> {
    let started = now_ns();
    let ops = def.segment_ops;
    let mut tally = Tally::default();
    let Probes { mut layer, derived } = run_probes(def, args.seed, &mut tally);

    // The workload itself: untraced baseline, then traced segments.
    let mut scratch = Vec::new();
    let mut w = build(def.name, args.seed, ops);
    let mut plain = new_ctx(false, ops);
    measure(w.as_mut(), ops / WARMUP_SHARE, &mut plain, &mut scratch);
    let baseline: Vec<f64> = (0..baseline_segments())
        .map(|_| measure(w.as_mut(), ops, &mut plain, &mut scratch).wall_ns as f64 / ops as f64)
        .collect();
    let baseline_ns_per_op = median(&baseline);

    let mut cx = new_ctx(true, ops);
    let counters_before = w.counters();
    alloc::set_enabled(true);
    let allocs_before = alloc::snapshot();
    let mut segs = Vec::new();
    while keep_going(args, segs.len(), started, 1.0) {
        segs.push(measure(w.as_mut(), ops, &mut cx, &mut scratch));
    }
    let allocs_after = alloc::snapshot();
    alloc::set_enabled(false);
    let c: Counters = w.counters().since(&counters_before);
    tally.absorb(w.oracle());

    let msgs: u64 = segs.iter().map(|s| s.out.delivered).sum();
    let wall_ns: u64 = segs.iter().map(|s| s.wall_ns).sum();
    let traced_ns_per_op = median(
        &segs
            .iter()
            .map(|s| s.wall_ns as f64 / ops as f64)
            .collect::<Vec<_>>(),
    );

    // Span self times must account for the segments' wall time.
    let self_over_wall = cx.spans.self_sum_ns() as f64 / wall_ns as f64;
    if !(0.95..=1.05).contains(&self_over_wall) {
        tally.failed += 1;
    }

    let sp = |n: SpanName| cx.spans.agg(n);
    let self_of = |names: &[SpanName]| names.iter().map(|&n| sp(n).self_ns).sum::<u64>();
    let sends = [
        SpanName::MemSend,
        SpanName::MemSendLarge,
        SpanName::FmmpiSend,
    ];
    let tx = [SpanName::MemExtractTx, SpanName::MemService];
    let rx = [SpanName::MemExtractRx, SpanName::FmmpiTryRecv];
    layer.insert("mem.send_self_ns", ratio(self_of(&sends), msgs));
    layer.insert("mem.extract_tx_self_ns", ratio(self_of(&tx), msgs));
    layer.insert("mem.extract_rx_self_ns", ratio(self_of(&rx), msgs));
    let polls = tx.iter().chain(&rx).map(|&n| sp(n));
    let (idle, calls) = polls.fold((0, 0), |(i, c), a| (i + a.idle, c + a.count));
    layer.insert("mem.idle_extract_share", ratio(idle, calls));
    layer.insert(
        "switched.pump_self_ns_per_frame",
        ratio(sp(SpanName::SwitchedPump).self_ns, c.switch_forwarded),
    );
    layer.insert(
        "harness.self_ns_per_msg",
        ratio(sp(SpanName::Segment).self_ns, msgs),
    );
    layer.insert(
        "harness.trace_overhead_pct",
        (traced_ns_per_op - baseline_ns_per_op) / baseline_ns_per_op * 100.0,
    );

    layer.insert(
        "fabric.frames_per_batch",
        ratio(c.ring_polled, c.ring_batches),
    );
    layer.insert(
        "fabric.full_share",
        ratio(c.ring_full, c.ring_pushed + c.ring_full),
    );
    layer.insert(
        "endpoint.ack_frames_per_data",
        ratio(c.ack_frames_sent, c.sent),
    );
    layer.insert(
        "endpoint.retransmits_per_loss",
        ratio(c.retransmitted, c.fault_dropped + c.fault_corrupted),
    );
    layer.insert(
        "endpoint.timer_retransmit_share",
        ratio(c.timer_retransmits, c.retransmitted),
    );
    layer.insert(
        "endpoint.duplicates_per_delivered",
        ratio(c.duplicates, c.delivered),
    );
    layer.insert(
        "endpoint.rejects_per_delivered",
        ratio(c.rejected, c.delivered),
    );
    layer.insert("endpoint.peak_outstanding", w.peak_outstanding() as f64);
    layer.insert("fault.dropped", c.fault_dropped as f64);
    layer.insert("fault.corrupted", c.fault_corrupted as f64);
    layer.insert("fault.duplicated", c.fault_duplicated as f64);
    layer.insert("fault.delayed", c.fault_delayed as f64);
    layer.insert("switched.forwarded", c.switch_forwarded as f64);
    layer.insert("switched.stalled", c.switch_stalled as f64);
    layer.insert("udp.datagrams_per_msg", ratio(c.udp_datagrams_out, msgs));
    layer.insert("udp.backpressure", c.udp_backpressure as f64);
    layer.insert(
        "alloc.allocs_per_msg",
        ratio(allocs_after.0 - allocs_before.0, msgs),
    );
    layer.insert(
        "alloc.bytes_per_msg",
        ratio(allocs_after.1 - allocs_before.1, msgs),
    );

    if let Some((name, from_own_ns_per_op)) = derived {
        layer.insert(name, from_own_ns_per_op(baseline_ns_per_op));
    }

    let med = |f: fn(&Seg) -> f64| median(&segs.iter().map(f).collect::<Vec<_>>());
    layer.insert("tail.rtt_p99_ns", med(|s| s.rtt_p99));
    layer.insert("tail.rtt_p999_ns", med(|s| s.rtt_p999));
    layer.insert("tail.delivery_p99_ns", med(|s| s.delivery_p99));
    layer.insert("fairness_jain", med(|s| s.out.fairness));
    layer.insert("failed_share", ratio(tally.failed, tally.attempted));

    // Raw spans out, for chrome://tracing or Perfetto.
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("{}.trace.json", def.name));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    cx.spans
        .write_chrome_trace(&mut file, def.name)
        .and_then(|()| file.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let details = PER_LAYER
        .iter()
        .map(|d| {
            let v = layer.get(d.name).copied().unwrap_or(0.0);
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            )
        })
        .collect();
    let extra = vec![
        ("traced_segments", Json::Num(segs.len() as f64)),
        ("untraced_ns_per_op", Json::Num(baseline_ns_per_op)),
        ("traced_ns_per_op", Json::Num(traced_ns_per_op)),
        ("spans_self_over_wall", Json::Num(self_over_wall)),
        ("spans", cx.spans.aggregates_json()),
        ("chrome_trace", Json::Str(path.display().to_string())),
    ];
    Ok(finish(def, args, &tally, &PER_LAYER, details, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        decl.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn keys(obj: &Json) -> Vec<String> {
        obj.as_obj().iter().map(|(k, _)| k.clone()).collect()
    }

    /// A `--quick` result carries every declared name and no other, on the
    /// workload that carries the ladder and the cheapest of each other
    /// family, in both passes.
    #[test]
    fn quick_results_have_exactly_the_declared_key_shape() {
        // Traced runs switch the allocator gate; keep its own test out.
        let _gate = alloc::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        assert_eq!(
            declared("workloads"),
            schema::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for workload in [
            "stream_inline",
            "mpi_pingpong",
            "incast_switched",
            "large_transfer",
        ] {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run(&RunArgs {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.0,
                    segments: Some(1),
                    trace,
                    quick: true,
                    out_dir: out_dir.clone(),
                })
                .expect("run");
                assert!(
                    outcome.correct,
                    "{workload} trace={trace}: {}",
                    outcome.line.render()
                );
                assert_eq!(
                    keys(&outcome.line),
                    ["correct", "attempted", "failed", "metrics"]
                );
                let metrics = outcome.line.get("metrics").expect("metrics");
                assert_eq!(keys(metrics), declared(key), "{workload} {key}");
                for (name, m) in metrics.as_obj() {
                    assert_eq!(keys(m), ["value", "unit"], "{name}");
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{name}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
