//! Regenerates the **§6 backbone throughput** experiment: iperf3-style TCP
//! transfers between every pair of backbone PoPs.
//!
//! The paper reports an average of ≈400 Mbps with a minimum of 60 Mbps and
//! a maximum of 750 Mbps across PoP pairs, over VLANs provisioned on the
//! education networks. The reproduction runs the Reno flow model over
//! per-pair links whose latency, capacity and loss vary the way
//! wide-area VLAN paths do, and reports the same matrix + summary row.
//!
//! Run with: `cargo run --release --bin backbone_tput [megabytes_per_flow]`

use peering_bench::positive_arg;
use peering_netsim::{
    FaultInjector, LinkConfig, MacAddr, PortId, SimDuration, SimTime, Simulator, TcpFlowConfig,
    TcpReceiver, TcpSender,
};

/// Backbone PoP pairs: per-pair one-way latency (ms), capacity (Mbps) and
/// data-plane loss (%) — the spread models intercontinental VLAN paths
/// (Amsterdam/Seattle/Phoenix/São Paulo + US universities).
fn pair_link(a: usize, b: usize) -> (u64, u64, u8) {
    let latency_ms = 2 + ((a * 13 + b * 29) % 34) as u64; // 2–35 ms one-way
    let capacity = [800u64, 600, 950, 300, 700, 450][(a + b) % 6]; // Mbps provisioned
                                                                   // The education-network VLANs are effectively loss-free; congestion
                                                                   // loss emerges from the queues themselves.
    (latency_ms, capacity, 0)
}

fn measure(a: usize, b: usize, bytes: u64) -> f64 {
    let (latency_ms, cap_mbps, loss) = pair_link(a, b);
    let mut sim = Simulator::new((a * 100 + b) as u64);
    let cfg = TcpFlowConfig::new(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        bytes,
    );
    let tx = sim.add_node(Box::new(TcpSender::new(cfg)));
    let rx = sim.add_node(Box::new(TcpReceiver::new(
        MacAddr::from_id(2),
        "10.0.0.2".parse().unwrap(),
    )));
    let link = LinkConfig::provisioned(SimDuration::from_millis(latency_ms), cap_mbps * 1_000_000)
        .with_queue_bytes(4 * 1024 * 1024)
        .with_faults(FaultInjector::dropping(loss).data_plane_only());
    sim.connect(tx, PortId(0), rx, PortId(0), link);
    sim.set_timer(tx, SimDuration::ZERO, 0);
    sim.run_until(SimTime::from_nanos(600_000_000_000));
    sim.node::<TcpSender>(tx)
        .unwrap()
        .throughput_bps()
        .unwrap_or(0.0)
        / 1e6
}

fn main() {
    let mb = positive_arg("backbone_tput [megabytes_per_flow > 0]", 40);
    let pops = [
        "amsterdam01",
        "seattle01",
        "phoenix01",
        "saopaulo01",
        "gatech01",
        "clemson01",
    ];
    println!("# §6 backbone TCP throughput (Mbps), {mb} MB per flow");
    println!("# paper: avg ≈400 Mbps, min 60, max 750 across PoP pairs\n");
    print!("{:>12}", "");
    for p in &pops {
        print!(" {:>11}", &p[..p.len().min(11)]);
    }
    println!();
    let mut all = Vec::new();
    for (i, pi) in pops.iter().enumerate() {
        print!("{:>12}", &pi[..pi.len().min(12)]);
        for (j, _) in pops.iter().enumerate() {
            if i == j {
                print!(" {:>11}", "-");
            } else {
                let mbps = measure(i, j, mb * 1_000_000);
                all.push(mbps);
                print!(" {:>11.0}", mbps);
            }
        }
        println!();
    }
    let avg = all.iter().sum::<f64>() / all.len() as f64;
    let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = all.iter().cloned().fold(0.0f64, f64::max);
    println!("\nsummary: avg {avg:.0} Mbps, min {min:.0}, max {max:.0}   (paper: avg ≈400, min 60, max 750)");
    println!(
        "shape check — hundreds of Mbps average, multi-x spread across pairs: {}",
        avg > 100.0 && avg < 1000.0 && max / min.max(1.0) > 3.0
    );
}
