//! Bulk transfer over the FM byte-stream layer (the paper's TCP-over-FM
//! direction): node 0 streams a "file" to node 1 over one port while a
//! record-oriented control conversation runs on another — two streams
//! multiplexed over one FM endpoint pair.
//!
//! ```sh
//! cargo run --release --example file_transfer
//! ```

use fm_repro::fm_core::stream::StreamMux;
use fm_repro::prelude::*;
use std::time::Instant;

const FILE_BYTES: usize = 2 * 1024 * 1024;
const DATA_PORT: u16 = 20;
const CTRL_PORT: u16 = 21;

fn main() {
    let mut nodes = MemCluster::new(2);
    let mut receiver_ep = nodes.pop().expect("node 1");
    let mut sender_ep = nodes.pop().expect("node 0");
    let sender_mux = StreamMux::attach(&mut sender_ep);
    let receiver_mux = StreamMux::attach(&mut receiver_ep);

    // The "file": pseudo-random but reproducible bytes.
    let file: Vec<u8> = {
        let mut rng = fm_repro::fm_des::rng::Xoshiro256::seed_from_u64(2026);
        let mut buf = vec![0u8; FILE_BYTES];
        rng.fill_bytes(&mut buf);
        buf
    };
    let checksum: u64 = file.iter().map(|&b| b as u64).sum();

    // Receiver thread: reads the file, then reports its checksum on the
    // control stream.
    let receiver = std::thread::spawn(move || {
        let mut data_rx = receiver_mux.open(NodeId(0), DATA_PORT);
        let mut ctrl_tx = receiver_mux.open(NodeId(0), CTRL_PORT);
        let mut got = Vec::with_capacity(FILE_BYTES);
        data_rx.read_to_end(&mut receiver_ep, &mut got);
        let sum: u64 = got.iter().map(|&b| b as u64).sum();
        ctrl_tx.write_record(&mut receiver_ep, &sum.to_le_bytes());
        ctrl_tx.finish(&mut receiver_ep);
        // Drain trailing acks.
        for _ in 0..20 {
            receiver_ep.extract();
            std::thread::yield_now();
        }
        (got.len(), data_rx.reordered_chunks())
    });

    // Sender: stream the file, then await the checksum report.
    let mut data_tx = sender_mux.open(NodeId(1), DATA_PORT);
    let mut ctrl_rx = sender_mux.open(NodeId(1), CTRL_PORT);
    let start = Instant::now();
    data_tx.write(&mut sender_ep, &file);
    data_tx.finish(&mut sender_ep);
    let report = ctrl_rx
        .read_record(&mut sender_ep)
        .expect("checksum report");
    let elapsed = start.elapsed();

    let (bytes, reordered) = receiver.join().expect("receiver");
    let remote_sum = u64::from_le_bytes(report[..8].try_into().expect("8B"));
    assert_eq!(bytes, FILE_BYTES);
    assert_eq!(remote_sum, checksum, "checksums must agree");

    let mbs = FILE_BYTES as f64 / elapsed.as_secs_f64() / (1 << 20) as f64;
    println!(
        "transferred {FILE_BYTES} bytes in {:.1} ms = {mbs:.1} MB/s",
        elapsed.as_secs_f64() * 1e3
    );
    println!("checksum verified remotely: {checksum:#018x}");
    println!("chunks that arrived out of order and were resequenced: {reordered}");
    let s = sender_ep.stats();
    println!(
        "FM frames under the hood: {} sent ({} retransmitted after bounces)",
        s.sent, s.retransmitted
    );
}
