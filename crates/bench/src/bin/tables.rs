//! The paper's qualitative tables (1, 2, 3 and the Figure-5 memory
//! characteristics), rendered from the code that embodies them — so the
//! printed claims stay true to the implementation.

use fm_metrics::Table;
use fm_myrinet_api::consts as api;
use fm_testbed::TestbedConfig;

fn table1() {
    let mut t = Table::new(["function", "operation", "implemented by"])
        .with_title("Table 1: FM 1.0 layer calls");
    t.row([
        "FM_send_4(dest,handler,i0..i3)",
        "send a four-word message",
        "fm_core::mem::MemEndpoint::send_4",
    ]);
    t.row([
        "FM_send(dest,handler,buf,size)",
        "send a long message (<= 32 words)",
        "fm_core::mem::MemEndpoint::send",
    ]);
    t.row([
        "FM_extract()",
        "process received messages",
        "fm_core::mem::MemEndpoint::extract",
    ]);
    println!("{}", t.render());
}

fn table2() {
    let mut t = Table::new(["metric", "definition", "extracted by"])
        .with_title("Table 2: definitions of performance metrics");
    t.row([
        "r_inf",
        "peak bandwidth for infinitely large packets",
        "fm_metrics::fit (Hockney slope)",
    ]);
    t.row([
        "n_1/2",
        "packet size achieving r_inf / 2",
        "fm_metrics::fit (curve crossing)",
    ]);
    t.row([
        "t0",
        "startup overhead",
        "fm_metrics::fit (latency intercept)",
    ]);
    t.row(["l", "packet latency (one way)", "fm_testbed::run_pingpong"]);
    println!("{}", t.render());
}

fn table3() {
    let mut t = Table::new(["feature", "Fast Messages 1.0", "Myrinet API 2.0"])
        .with_title("Table 3: selected differences between FM and the Myrinet API");
    t.row([
        "data movement",
        "direct from user space (PIO out, DMA in)",
        "user space + DMA region, scatter-gather",
    ]);
    t.row([
        "delivery",
        "guaranteed (return-to-sender)",
        "not guaranteed",
    ]);
    t.row(["delivery order", "no guarantee", "preserved"]);
    t.row(["reconfiguration", "manual", "automatic, continuous"]);
    t.row([
        "buffering",
        "large number of small buffers",
        "small number of large buffers",
    ]);
    t.row([
        "fault detection",
        "assumes reliable network",
        "message checksums",
    ]);
    println!("{}", t.render());
    println!(
        "modeled API costs: control loop {} LANai instr, dispatch {}, checksum {} instr/8B,\n\
         {} outstanding send buffer(s)\n",
        api::API_LOOP_INSTR,
        api::API_DISPATCH_INSTR,
        api::API_CHECKSUM_INSTR_PER_8B,
        api::API_OUTSTANDING
    );
}

fn table5() {
    let mut t = Table::new([
        "characteristic",
        "regular memory",
        "DMA region",
        "LANai SRAM",
    ])
    .with_title("Figure 5: memory characteristics");
    t.row(["capacity", "virtual memory", "pinned physical", "128 KB"]);
    t.row([
        "host access",
        "load/store",
        "load/store",
        "load/store (over SBus)",
    ]);
    t.row(["LANai access", "none", "DMA only", "load/store"]);
    println!("{}", t.render());
}

fn queues() {
    let cfg = TestbedConfig::default();
    let mut t = Table::new(["queue", "location", "sized (testbed default)"])
        .with_title("Figure 6: the four FM queues");
    t.row([
        "LANai send queue".to_string(),
        "LANai SRAM (host writes by PIO)".to_string(),
        format!("{} packets", cfg.send_queue),
    ]);
    t.row([
        "LANai receive queue".to_string(),
        "LANai SRAM (channel DMA fills)".to_string(),
        format!("aggregated <= {} per delivery", cfg.agg_max),
    ]);
    t.row([
        "host receive queue".to_string(),
        "pinned DMA region".to_string(),
        "256 frames (EndpointConfig)".to_string(),
    ]);
    t.row([
        "host reject queue".to_string(),
        "host memory (window)".to_string(),
        format!("{} packets", cfg.window),
    ]);
    println!("{}", t.render());
}

fn main() {
    table1();
    table2();
    table3();
    table5();
    queues();
}
