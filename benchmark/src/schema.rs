//! Names, units and directions of every workload and metric.
//!
//! `BENCHMARK.json` at the repository root declares the same lists; a unit
//! test keeps the two in step, so a result can never carry an undeclared
//! name or miss a declared one.

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Operations per timed segment: rounds for the ping-pongs, messages
    /// otherwise.
    pub segment_ops: u64,
}

pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "pingpong_inline",
        why: "t0: 16-B stop-and-wait echo on the ring mesh; per-call work (window slot, ack, handler dispatch) dominates, per-byte work is small",
        segment_ops: 100_000,
    },
    WorkloadDef {
        name: "stream_inline",
        why: "r_inf: one-way 128-B window-limited stream; per-byte work (two CRC passes, copies) and ack amortisation dominate",
        segment_ops: 400_000,
    },
    WorkloadDef {
        name: "lossy_stream",
        why: "stream_inline at 1% drop/dup/corrupt/delay with wall-clock adaptive RTO; the reliability layer does the extra work",
        segment_ops: 150_000,
    },
    WorkloadDef {
        name: "switched_pairs",
        why: "4 disjoint 128-B streams through one 8-port switch shard; prices one uncontended hop plus DRR over stream_inline",
        segment_ops: 240_000,
    },
    WorkloadDef {
        name: "incast_switched",
        why: "7 senders into 1 throttled receiver (window 32, ring 8); the return-to-sender bounce path does nearly all the work",
        segment_ops: 10_500,
    },
    WorkloadDef {
        name: "udp_pingpong",
        why: "pingpong_inline over loopback UDP sockets in one process (not a real link); kernel crossings dominate, codec gains should not show",
        segment_ops: 30_000,
    },
    WorkloadDef {
        name: "large_transfer",
        why: "4-KiB send_large in 36 fragments, window-limited; segmentation, reassembly and the Vec hand-off do the work",
        segment_ops: 5_000,
    },
    WorkloadDef {
        name: "mpi_pingpong",
        why: "16-B tagged fm-mpi send/try_recv echo; envelope and MatchQueue cost on top of pingpong_inline",
        segment_ops: 60_000,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the stack sees; every workload reports every one, from
/// the untraced pass. Regression bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s", "lower"),
    m("msg_rate_per_s", "1/s", "higher"),
    m("goodput_mbs", "MiB/s", "higher"),
    m("rtt_p50_ns", "ns", "lower"),
    m("delivery_p50_ns", "ns", "lower"),
    m("peak_rss_kib", "KiB", "lower"),
];

/// Single-layer metrics from the traced pass; ungated. A metric whose
/// layer the workload does not execute reads 0.
pub const PER_LAYER: [MetricDef; 63] = [
    m("frame.crc32_ns_16", "ns", "lower"),
    m("frame.crc32_ns_128", "ns", "lower"),
    m("frame.encode_ns_16", "ns", "lower"),
    m("frame.encode_ns_128", "ns", "lower"),
    m("frame.decode_ns_16", "ns", "lower"),
    m("frame.decode_ns_128", "ns", "lower"),
    m("fabric.push_poll_ns", "ns", "lower"),
    m("fabric.frames_per_batch", "ratio", "higher"),
    m("fabric.full_share", "ratio", "lower"),
    m("endpoint.core_ns_per_msg_16", "ns", "lower"),
    m("endpoint.core_ns_per_msg_128", "ns", "lower"),
    m("endpoint.ack_frames_per_data", "ratio", "lower"),
    m("endpoint.retransmits_per_loss", "ratio", "lower"),
    m("endpoint.timer_retransmit_share", "ratio", "lower"),
    m("endpoint.duplicates_per_delivered", "ratio", "lower"),
    m("endpoint.rejects_per_delivered", "ratio", "lower"),
    m("endpoint.peak_outstanding", "count", "lower"),
    m("mem.send_self_ns", "ns", "lower"),
    m("mem.extract_tx_self_ns", "ns", "lower"),
    m("mem.extract_rx_self_ns", "ns", "lower"),
    m("mem.idle_extract_share", "ratio", "lower"),
    m("mem.glue_ns_per_msg_128", "ns", "lower"),
    m("fault.injector_ns_per_frame", "ns", "lower"),
    m("fault.dropped", "count", "lower"),
    m("fault.corrupted", "count", "lower"),
    m("fault.duplicated", "count", "lower"),
    m("fault.delayed", "count", "lower"),
    m("switched.pump_self_ns_per_frame", "ns", "lower"),
    m("switched.hop_ns_per_msg", "ns", "lower"),
    m("switched.forwarded", "count", "higher"),
    m("switched.stalled", "count", "lower"),
    m("udp.wire_ns_per_msg", "ns", "lower"),
    m("udp.datagrams_per_msg", "ratio", "lower"),
    m("udp.backpressure", "count", "lower"),
    m("seg.fragment_ns_per_frag", "ns", "lower"),
    m("seg.reassemble_ns_per_frag", "ns", "lower"),
    m("seg.overhead_ns_per_frag", "ns", "lower"),
    m("fmmpi.envelope_ns", "ns", "lower"),
    m("fmmpi.matchqueue_ns", "ns", "lower"),
    m("fmmpi.overhead_ns_per_round", "ns", "lower"),
    m("telemetry.trace_ns_per_msg", "ns", "lower"),
    m("alloc.allocs_per_msg", "ratio", "lower"),
    m("alloc.bytes_per_msg", "B", "lower"),
    m("stack.t0_ns", "ns", "lower"),
    m("stack.r_inf_mbs", "MiB/s", "higher"),
    m("stack.n_half_bytes", "B", "lower"),
    m("frame.t0_ns", "ns", "lower"),
    m("frame.r_inf_mbs", "MiB/s", "higher"),
    m("frame.n_half_bytes", "B", "lower"),
    m("endpoint.t0_ns", "ns", "lower"),
    m("endpoint.r_inf_mbs", "MiB/s", "higher"),
    m("endpoint.n_half_bytes", "B", "lower"),
    m("ladder.sum_over_e2e_16", "ratio", "higher"),
    m("ladder.sum_over_e2e_128", "ratio", "higher"),
    m("threads.pingpong_rtt_p50_ns", "ns", "lower"),
    m("threads.handoff_ns_per_round", "ns", "lower"),
    m("tail.rtt_p99_ns", "ns", "lower"),
    m("tail.rtt_p999_ns", "ns", "lower"),
    m("tail.delivery_p99_ns", "ns", "lower"),
    m("harness.self_ns_per_msg", "ns", "lower"),
    m("harness.trace_overhead_pct", "%", "lower"),
    m("fairness_jain", "ratio", "higher"),
    m("failed_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names_units_and_directions() {
        let decl = declared();
        let workloads = decl.get("workloads").expect("workloads");
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in workloads.as_arr().iter().zip(&WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let list = decl.get(key).expect(key);
            assert_eq!(
                names(list),
                defs.iter().map(|d| d.name).collect::<Vec<_>>(),
                "{key}"
            );
            for (entry, d) in list.as_arr().iter().zip(defs) {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn declared_limits_hold() {
        let decl = declared();
        for e in decl.get("end_to_end").expect("end_to_end").as_arr() {
            let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{e:?}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
    }
}
