//! PHOLD kernel stress test — the classic synthetic Time Warp benchmark
//! (no circuit structure, pure kernel load), sweeping the locality knob to
//! show how remote-message fraction drives rollback behaviour, plus a real
//! threaded run for machines with multiple cores.
//!
//! ```sh
//! cargo run --release --example phold_stress
//! ```

use parlogsim::prelude::*;
use parlogsim::timewarp::Phold;

fn round_robin(n: usize, k: usize) -> Vec<u32> {
    (0..n).map(|i| (i % k) as u32).collect()
}

fn main() {
    let nodes = 8;
    println!("PHOLD: 256 LPs, population 4/LP, horizon 2000, {nodes} virtual nodes\n");
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>9} {:>11}",
        "locality", "events", "messages", "rollbacks", "time(s)", "efficiency"
    );
    for locality in [90u8, 70, 50, 30, 10] {
        let model = Phold {
            lps: 256,
            population_per_lp: 4,
            horizon: 2_000,
            locality_pct: locality,
            ..Default::default()
        };
        let res = Simulator::new(&model)
            .run(Backend::Platform { assignment: &round_robin(model.lps, nodes), nodes })
            .unwrap();
        println!(
            "{:<10} {:>9} {:>10} {:>10} {:>9.2} {:>10.0}%",
            format!("{locality}%"),
            res.stats.events_committed,
            res.stats.app_messages,
            res.stats.rollbacks(),
            res.outcome.exec_time_s().unwrap(),
            100.0 * res.stats.events_committed as f64 / res.stats.events_processed as f64
        );
    }

    // Real threads (wall-clock; interesting on true multi-core hosts).
    let model = Phold { lps: 128, horizon: 1_000, ..Default::default() };
    let seq = Simulator::new(&model).run(Backend::Sequential).unwrap();
    println!(
        "\nthreaded executive sanity: sequential handled {} events",
        seq.stats.events_processed
    );
    for clusters in [1usize, 2, 4] {
        let res = Simulator::new(&model)
            .run(Backend::Threaded { assignment: &round_robin(model.lps, clusters), clusters })
            .unwrap();
        assert_eq!(
            res.stats.events_committed, seq.stats.events_processed,
            "threaded run must commit the same events"
        );
        println!(
            "  {clusters} cluster(s): wall {:?}, {} rollbacks, {} remote messages",
            res.outcome.wall().unwrap(),
            res.stats.rollbacks(),
            res.stats.app_messages
        );
    }
}
