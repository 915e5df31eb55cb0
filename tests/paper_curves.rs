//! Paper-curve regression suite.
//!
//! The committed CSVs under `results/` are the repo's reproduction of the
//! paper's figures (generated by the `fm-bench` bins at the full 65 535
//! packet stream). These tests regenerate every curve through the same
//! testbed code at a reduced stream length and assert each point stays
//! within **±15%** of the committed value — so a calibration or protocol
//! change that bends a curve fails loudly, pointing at the figure it bent.
//!
//! Tolerance notes:
//! * latency sweeps are pure simulated time and deterministic — they
//!   reproduce exactly; the 15% headroom is for future jittered models;
//! * bandwidth points depend on the stream length only through startup
//!   amortization (`t0 / (count · per-packet)`), well under 1% at the
//!   4 000-packet stream used here, so 15% is generous;
//! * the Myrinet API sweeps are synchronous per-packet pipelines; their
//!   bandwidth is essentially count-independent.
//!
//! The ordering test pins the paper's qualitative ablation story — the
//! *shape* of Table 4 and Figures 3/4 (streaming helps, all-DMA trades
//! latency for bandwidth, flow control is nearly free) and the ablation
//! sweep's ack-batching curve. Those orderings inverting means the model
//! no longer tells the paper's story, whatever the tolerances say.

use fm_bench::{layer_metrics, measure_layer, LayerCurves, FIGURE_SIZES};
use fm_myrinet::analytic;
use fm_myrinet_api::{api_bandwidth_sweep, api_latency_sweep, ApiVariant};
use fm_testbed::scaling::{incast_config, live_incast_wired, ClusterWiring};
use fm_testbed::Layer;
use std::collections::BTreeMap;

/// Reduced stream length for bandwidth sweeps (the committed CSVs used the
/// paper's 65 535).
const STREAM_COUNT: usize = 4_000;
/// Ping-pong rounds per API latency point (matches the fig9/table4 bins).
const API_ROUNDS: usize = 10;
/// Packets per API bandwidth point (the bins use 100–2000 depending on
/// stream length; the sweep is count-insensitive).
const API_COUNT: usize = 200;
/// Point-wise tolerance against the committed curves.
const TOL: f64 = 0.15;

type Curve = Vec<(usize, f64)>;

/// Parse a `layer,bytes,value` CSV into per-layer curves.
fn load_curves(file: &str) -> BTreeMap<String, Curve> {
    let path = format!("results/{file}");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with the fm-bench bins)"));
    let mut out: BTreeMap<String, Curve> = BTreeMap::new();
    for line in text.lines().skip(1).filter(|l| !l.trim().is_empty()) {
        let mut f = line.split(',');
        let layer = f.next().expect("layer column").to_string();
        let bytes: usize = f.next().expect("bytes column").parse().expect("bytes");
        let value: f64 = f.next().expect("value column").parse().expect("value");
        out.entry(layer).or_default().push((bytes, value));
    }
    assert!(!out.is_empty(), "{path} has no data rows");
    out
}

fn assert_curve_matches(figure: &str, layer: &str, what: &str, got: &Curve, want: &Curve) {
    assert_eq!(
        got.len(),
        want.len(),
        "{figure}/{layer}/{what}: point count changed"
    );
    for (&(gn, gv), &(wn, wv)) in got.iter().zip(want) {
        assert_eq!(gn, wn, "{figure}/{layer}/{what}: packet sizes diverged");
        let err = (gv - wv).abs() / wv.abs().max(1e-9);
        assert!(
            err <= TOL,
            "{figure}/{layer}/{what} at {wn} B: got {gv:.4}, committed {wv:.4} \
             ({:.1}% off, tolerance {:.0}%)",
            err * 100.0,
            TOL * 100.0
        );
    }
}

/// Regenerate the named curve pair the same way the fm-bench bins do.
fn regenerate(name: &str) -> LayerCurves {
    if name == "Theoretical peak (Appendix A)" {
        return LayerCurves {
            name: name.to_string(),
            latency_us: FIGURE_SIZES
                .iter()
                .map(|&n| (n, analytic::latency_ns(n) / 1000.0))
                .collect(),
            bandwidth_mbs: FIGURE_SIZES
                .iter()
                .map(|&n| (n, analytic::bandwidth_mbs(n)))
                .collect(),
        };
    }
    for v in [ApiVariant::SendImm, ApiVariant::Send] {
        if v.name() == name {
            return LayerCurves {
                name: name.to_string(),
                latency_us: api_latency_sweep(v, &FIGURE_SIZES, API_ROUNDS),
                bandwidth_mbs: api_bandwidth_sweep(v, &FIGURE_SIZES, API_COUNT),
            };
        }
    }
    let layer = Layer::ALL
        .into_iter()
        .find(|l| l.name() == name)
        .unwrap_or_else(|| panic!("committed CSV names unknown layer {name:?}"));
    measure_layer(layer, STREAM_COUNT)
}

/// Every layer of one figure, both panels, point-wise against `results/`.
fn check_figure(fig: &str) {
    let latency = load_curves(&format!("{fig}_latency.csv"));
    let bandwidth = load_curves(&format!("{fig}_bandwidth.csv"));
    assert_eq!(
        latency.keys().collect::<Vec<_>>(),
        bandwidth.keys().collect::<Vec<_>>(),
        "{fig}: panels list different layers"
    );
    for (layer, want_lat) in &latency {
        let got = regenerate(layer);
        assert_curve_matches(fig, layer, "latency_us", &got.latency_us, want_lat);
        assert_curve_matches(fig, layer, "mbs", &got.bandwidth_mbs, &bandwidth[layer]);
    }
}

#[test]
fn figure3_lanai_curves_match_committed() {
    check_figure("figure3");
}

#[test]
fn figure4_sbus_curves_match_committed() {
    check_figure("figure4");
}

#[test]
fn figure7_buffer_mgmt_curves_match_committed() {
    check_figure("figure7");
}

#[test]
fn figure8_flow_control_curves_match_committed() {
    check_figure("figure8");
}

#[test]
fn figure9_api_comparison_curves_match_committed() {
    check_figure("figure9");
}

#[test]
fn table4_summary_metrics_match_committed() {
    let text = std::fs::read_to_string("results/table4.csv").expect("results/table4.csv");
    let mut checked = 0;
    for line in text.lines().skip(1).filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split(',').collect();
        let (name, t0, rinf, nhalf) = (
            f[0],
            f[2].parse::<f64>().unwrap(),
            f[4].parse::<f64>().unwrap(),
            f[6].parse::<f64>().unwrap(),
        );
        let m = if let Some(v) = [ApiVariant::SendImm, ApiVariant::Send]
            .into_iter()
            .find(|v| v.name() == name)
        {
            // The API never reaches half power within the figure sizes;
            // the table's metrics come from the kilobyte sweep (as in the
            // table4 bin).
            let big_sizes = [256usize, 512, 1024, 2048, 4096, 8192, 16384, 32768];
            let lat = api_latency_sweep(v, &FIGURE_SIZES, API_ROUNDS);
            let bw = api_bandwidth_sweep(v, &big_sizes, API_COUNT);
            fm_metrics::derive_metrics(&lat, &bw)
        } else {
            let layer = Layer::ALL
                .into_iter()
                .find(|l| l.name() == name)
                .unwrap_or_else(|| panic!("table4.csv names unknown layer {name:?}"));
            layer_metrics(&measure_layer(layer, STREAM_COUNT))
        };
        for (what, got, want) in [
            ("t0_sim_us", m.t0_us, t0),
            ("rinf_sim_mbs", m.r_inf_mbs, rinf),
            ("nhalf_sim_b", m.n_half_bytes, nhalf),
        ] {
            let err = (got - want).abs() / want.abs().max(1e-9);
            assert!(
                err <= TOL,
                "table4/{name}/{what}: got {got:.2}, committed {want:.2} ({:.1}% off)",
                err * 100.0
            );
        }
        checked += 1;
    }
    assert!(checked >= 9, "table4.csv lost rows: {checked}");
}

/// The switched-cluster extension curves (BENCH_scaling.json, Section 4.5
/// pushed past two nodes) must hold under *both* cluster wirings — the
/// original single-trunk tree and the fat-tree the scaling sweep runs on —
/// not just whichever topology the experiment helpers default to. Only the
/// deterministic outputs are asserted (fairness from drive-round completion
/// indices, reject bounds, delivery counts); wall-clock MB/s is left to the
/// bench gates.
#[test]
fn incast_invariants_hold_under_both_wirings() {
    const K: usize = 15;
    const COUNT: usize = 300;
    for wiring in ClusterWiring::ALL {
        let r = live_incast_wired(K, COUNT, incast_config(), wiring);
        assert_eq!(r.delivered, (K * COUNT) as u64, "{wiring:?}: lost messages");
        assert!(
            r.rejected > 0,
            "{wiring:?}: incast must actually exercise the bounce path"
        );
        assert_eq!(
            r.violations, 0,
            "{wiring:?}: duplicate or reordered delivery"
        );
        assert!(
            r.peaks.outstanding <= incast_config().window,
            "{wiring:?}: a reject queue reached {} > window {}",
            r.peaks.outstanding,
            incast_config().window
        );
        assert!(
            r.fairness >= 0.8,
            "{wiring:?}: K={K} fairness {:.4} < 0.8 (capture effect is back)",
            r.fairness
        );
    }
    // The wide wiring is the one that keeps paths short as n grows: by
    // n = 64 the tree chain is 11 switch traversals corner to corner, the
    // fat tree still 3.
    let far = |t: &fm_myrinet::SwitchTopology| t.hops(fm_core::NodeId(0), fm_core::NodeId(63));
    assert!(far(&ClusterWiring::Tree.topology(64)) > far(&ClusterWiring::Wide.topology(64)));
    assert_eq!(far(&ClusterWiring::Wide.topology(64)), 3);
}

/// The paper's qualitative ablation story must never invert, independent
/// of the 15% point tolerances.
#[test]
fn ablation_step_ordering_does_not_invert() {
    let baseline = layer_metrics(&measure_layer(Layer::LanaiBaseline, STREAM_COUNT));
    let streamed = layer_metrics(&measure_layer(Layer::LanaiStreamed, STREAM_COUNT));
    let hybrid = layer_metrics(&measure_layer(Layer::Hybrid, STREAM_COUNT));
    let alldma = layer_metrics(&measure_layer(Layer::AllDma, STREAM_COUNT));
    let bufmgmt = layer_metrics(&measure_layer(Layer::HybridBufMgmt, STREAM_COUNT));
    let fullfm = layer_metrics(&measure_layer(Layer::FullFm, STREAM_COUNT));

    // Figure 3: stream-lining the LCP main loop helps latency, full stop.
    assert!(
        streamed.t0_us < baseline.t0_us,
        "streamed LCP must beat baseline t0: {:.2} vs {:.2}",
        streamed.t0_us,
        baseline.t0_us
    );
    // Figure 4: the short/long tradeoff — hybrid wins startup latency,
    // all-DMA wins asymptotic bandwidth. Both directions must hold.
    assert!(
        hybrid.t0_us < alldma.t0_us,
        "hybrid must beat all-DMA t0: {:.2} vs {:.2}",
        hybrid.t0_us,
        alldma.t0_us
    );
    assert!(
        alldma.r_inf_mbs > hybrid.r_inf_mbs,
        "all-DMA must beat hybrid r_inf: {:.2} vs {:.2}",
        alldma.r_inf_mbs,
        hybrid.r_inf_mbs
    );
    // Figure 8: flow control costs a little startup, never a lot — and
    // buffer management sits between bare hybrid and the full layer.
    assert!(bufmgmt.t0_us > hybrid.t0_us);
    assert!(fullfm.t0_us > bufmgmt.t0_us);
    assert!(
        fullfm.t0_us - bufmgmt.t0_us < 1.0,
        "flow control must stay nearly free: +{:.2} us",
        fullfm.t0_us - bufmgmt.t0_us
    );

    // Ablation sweep (results/ablation.csv): batching acks four-to-a-frame
    // is what makes flow control cheap — bandwidth must rise strictly with
    // the batch size, and the committed curve must still say so.
    let text = std::fs::read_to_string("results/ablation.csv").expect("results/ablation.csv");
    let ack_batch: Vec<(u64, f64)> = text
        .lines()
        .skip(1)
        .filter_map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            (f[0] == "ack_batch").then(|| (f[1].parse().unwrap(), f[2].parse().unwrap()))
        })
        .collect();
    assert!(
        ack_batch.len() >= 3,
        "ablation.csv lost its ack_batch sweep"
    );
    for w in ack_batch.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "ack batching must strictly increase bandwidth: {:?}",
            ack_batch
        );
    }
}
