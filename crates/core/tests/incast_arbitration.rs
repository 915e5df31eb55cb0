//! Return-to-sender arbitration under incast is a counted, repeatable
//! quantity: the ack reach, not the reorder window's far edge, is what
//! holds the senders back.
//!
//! Seven hosts stream into one through a single 8-port switch shard, all
//! driven inline by this thread on the virtual tick: the receiver extracts
//! two messages a round, the senders `service()`, the shard pumps. With a
//! 32-frame window against an 8-frame receive ring the senders always
//! overrun the receiver. A parked frame is acked only once it lies within
//! `reorder_window − window` of its source's in-order point, so a sender
//! runs at most `reorder_window` ahead and then waits for acks instead of
//! being bounced as too far: what bounces is the paper's in-order bounce
//! alone, a handful of times in 10 500 messages (before the ack reach,
//! ~8 per delivered message). Nothing is lost on this wire, so nothing is
//! re-acked and neither timers nor hole repair fire. The constants below
//! are what the ack-reach engine produces; a later engine that moves them
//! has changed arbitration and says why.

use fm_core::{EndpointConfig, EndpointStats, HandlerId, NodeId, SwitchTopology, SwitchedCluster};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const HOSTS: usize = 8;
const SENDERS: usize = HOSTS - 1;
const PER_SENDER: u32 = 1_500;
const H_DATA: HandlerId = HandlerId(1);

/// Recorded with the ack reach in place: the 10 in-order bounces the
/// engine before it also made, without its 85 839 too-far ones (85 849 and
/// `[3766, 4423, 4757, 4952, 5086, 5179, 5251]` there).
const REJECTED: u64 = 10;
const FINISH_ROUND: [u64; SENDERS] = [3765, 4422, 4752, 4951, 5085, 5179, 5251];

#[test]
fn incast_bounces_and_finishing_rounds_are_what_they_were() {
    let config = EndpointConfig {
        window: 32,
        recv_ring: 8,
        retransmit_per_extract: 8,
        ..Default::default()
    };
    let topo = SwitchTopology::for_cluster_wide(HOSTS);
    let mut cluster = SwitchedCluster::new(&topo, config);
    let got: Arc<[AtomicU32; HOSTS]> = Arc::new(std::array::from_fn(|_| AtomicU32::new(0)));
    let g = got.clone();
    cluster.endpoints[0].register_handler_at(H_DATA, move |_, src, data| {
        // Per-source order: each sender numbers its messages from zero.
        let want = g[src.index()].fetch_add(1, Ordering::Relaxed);
        assert_eq!(data[..4], want.to_le_bytes(), "from {src}");
    });

    let mut sent = [0u32; HOSTS];
    let mut finish_round = [0u64; SENDERS];
    let mut round = 0u64;
    while finish_round.contains(&0) {
        round += 1;
        assert!(round < 1_000_000, "incast wedged: {finish_round:?}");
        for (src, ep) in cluster.endpoints.iter_mut().enumerate().skip(1) {
            let mut payload = [0u8; 128];
            while sent[src] < PER_SENDER {
                payload[..4].copy_from_slice(&sent[src].to_le_bytes());
                if ep.try_send(NodeId(0), H_DATA, &payload).is_err() {
                    break;
                }
                sent[src] += 1;
            }
            assert!(ep.outstanding() <= config.window);
        }
        cluster.endpoints[0].extract_budget(2);
        for ep in &mut cluster.endpoints[1..] {
            ep.service();
        }
        for shard in &mut cluster.shards {
            shard.pump();
        }
        for (flow, done) in finish_round.iter_mut().enumerate() {
            if *done == 0 && got[flow + 1].load(Ordering::Relaxed) == PER_SENDER {
                *done = round;
            }
        }
    }
    while !cluster.endpoints.iter().all(|ep| ep.is_quiescent()) {
        cluster.drive_round();
    }

    let receiver = cluster.endpoints[0].stats();
    let senders: Vec<EndpointStats> = cluster.endpoints[1..].iter().map(|ep| ep.stats()).collect();
    let total = |field: fn(&EndpointStats) -> u64| senders.iter().map(field).sum::<u64>();
    assert_eq!(receiver.delivered, SENDERS as u64 * PER_SENDER as u64);
    assert_eq!(total(|s| s.timer_retransmits), 0, "nothing was lost");
    assert_eq!(
        total(|s| s.gap_retransmits),
        0,
        "hole repair stayed out of it"
    );
    assert_eq!(receiver.duplicates, 0, "every frame was acked once");
    assert_eq!(receiver.rejected, REJECTED);
    assert_eq!(total(|s| s.bounced), REJECTED);
    assert_eq!(
        total(|s| s.retransmitted),
        REJECTED,
        "one resend per bounce"
    );
    assert_eq!(finish_round, FINISH_ROUND);
}
