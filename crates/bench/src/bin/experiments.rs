//! Prints the paper's evaluation tables regenerated against the synthetic
//! workloads.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qfe-bench --bin experiments --release -- [all|table1|…|table7|initial-size|entropy|user-study|ablation|manager|qbo-batch|skyline-parallel|rounds|service|chaos|cluster] [--paper-scale] [--fleet-sessions N]
//! ```
//!
//! The default scale is `Small` (reduced cardinalities, runs in seconds);
//! `--paper-scale` uses the paper's dataset cardinalities and δ = 1 s.

use qfe_bench::{
    ablation_estimator, extra_entropy, extra_initial_size, fleet_json, manager_report,
    qbo_batch_json, qbo_batch_measurements, qbo_batch_report, rounds_json, rounds_measurements,
    rounds_report, run_fleet, skyline_parallel_json, skyline_parallel_report,
    skyline_parallel_rows, table1, table2, table3, table4, table5, table6, table7, user_study,
    FleetConfig, Scale, Scenario,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--paper-scale") {
        Scale::Paper
    } else {
        Scale::Small
    };
    let mut fleet_sessions = None;
    let mut selections: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fleet-sessions" => {
                i += 1;
                fleet_sessions = args.get(i).and_then(|v| v.parse::<usize>().ok());
                if fleet_sessions.is_none() {
                    eprintln!("--fleet-sessions needs a number");
                    std::process::exit(2);
                }
            }
            a if a.starts_with("--") => {}
            a => selections.push(a),
        }
        i += 1;
    }
    let selections = if selections.is_empty() {
        vec!["all"]
    } else {
        selections
    };

    let run_all = selections.contains(&"all");
    let want = |name: &str| run_all || selections.contains(&name);

    println!("QFE reproduction experiments (scale: {scale:?})\n");
    if want("table1") {
        println!("{}", table1(scale));
    }
    if want("table2") {
        println!("{}", table2(scale));
    }
    if want("table3") {
        println!("{}", table3(scale));
    }
    if want("table4") {
        println!("{}", table4(scale));
    }
    if want("table5") {
        println!("{}", table5(scale));
    }
    if want("table6") {
        println!("{}", table6(scale));
    }
    if want("table7") {
        println!("{}", table7(scale));
    }
    if want("initial-size") {
        println!("{}", extra_initial_size(scale));
    }
    if want("entropy") {
        println!("{}", extra_entropy(scale));
    }
    if want("user-study") {
        println!("{}", user_study(scale));
    }
    if want("ablation") {
        println!("{}", ablation_estimator(scale));
    }
    if want("manager") {
        println!("{}", manager_report());
    }
    if want("qbo-batch") {
        let (rows, join_rows) = qbo_batch_measurements(scale, 80, 3);
        println!("{}", qbo_batch_report(&rows, join_rows));
        let json = qbo_batch_json(scale, &rows, join_rows);
        let path = "BENCH_qbo.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if want("skyline-parallel") {
        let rows = skyline_parallel_rows(scale, &[1, 2, 4, 8], 3);
        println!("{}", skyline_parallel_report(&rows));
        let json = skyline_parallel_json(scale, &rows);
        let path = "BENCH_skyline.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if want("rounds") {
        let rows = rounds_measurements(scale, &[10, 50, 200]);
        println!("{}", rounds_report(&rows));
        let json = rounds_json(scale, &rows);
        let path = "BENCH_rounds.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    for (name, scenario, path) in [
        ("service", Scenario::Service, "BENCH_service.json"),
        ("chaos", Scenario::Chaos, "BENCH_chaos.json"),
        (
            "cluster",
            Scenario::Cluster { shards: 4 },
            "BENCH_cluster.json",
        ),
    ] {
        if !want(name) {
            continue;
        }
        let mut config = FleetConfig::new(scenario);
        config.sessions = fleet_sessions.unwrap_or(config.sessions);
        let report = run_fleet(&config);
        let json = fleet_json(&config, &report);
        println!("{json}");
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        if report.lost_sessions > 0 || report.duplicate_effects > 0 {
            eprintln!(
                "{name} fleet FAILED its exactly-once guarantee: {} lost, {} duplicated",
                report.lost_sessions, report.duplicate_effects
            );
            std::process::exit(1);
        }
    }
}
