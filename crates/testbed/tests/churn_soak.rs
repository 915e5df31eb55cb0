//! Churn on the shipped engine: messages to live partners delivered once,
//! in order, the rest counted lost once by their senders; every down
//! partner declared dead within `detect_bound` rounds, no live one ever;
//! afterwards every participant quiescent, `recv_buffered() == 0`.

use fm_testbed::campaign::{churn, ChurnReport};

fn assert_clean(r: &ChurnReport) {
    assert!(r.accounting_ok && r.violations == 0 && r.quiescent, "{r:?}");
    assert!(r.dead_detections > 0, "{r:?}");
    assert_eq!(r.dead_detections, r.expected_detections, "{r:?}");
    assert!(r.max_detect_rounds <= r.detect_bound, "{r:?}");
    assert!(r.late <= r.abandoned && r.dups <= r.enqueued / 10, "{r:?}");
    assert_eq!(r.enqueued, r.delivered + r.abandoned);
}

#[test]
fn churn_stays_clean_as_epochs_add_up_and_replays_its_seed() {
    let (short, long) = (churn(32, 32, 2, 3, 77), churn(32, 32, 4, 3, 77));
    assert_clean(&short);
    assert_clean(&long);
    assert!(long.dead_detections > short.dead_detections);
    assert_eq!(short.digest, churn(32, 32, 2, 3, 77).digest);
    assert_ne!(short.digest, churn(32, 32, 2, 3, 78).digest);
}
