//! The seconds-scale setting of every workload, untraced and traced: the
//! same output checks as the measured runs, and exactly the metric names
//! `BENCHMARK.json` lists.

use impress_json::Json;
use impress_stackbench::{imrp, service, sim, Budget, Outcome};

const ONE_ROUND: Budget = Budget {
    seconds: 0.0,
    min_rounds: 1,
};

fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the package");
    let doc = impress_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named metric")
                .to_string()
        })
        .collect()
}

fn assert_sound(workload: &str, traced: bool, out: &Outcome) {
    assert!(out.correct(), "{workload}: {:?}", out.errors);
    assert!(out.tasks > 0, "{workload}: attempted nothing");
    assert_eq!(out.failed_tasks, 0, "{workload}: tasks failed");
    assert_eq!(out.failed_campaigns, 0, "{workload}: campaigns failed");
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
    let want = listed(if traced { "per_layer" } else { "end_to_end" });
    assert_eq!(names, want, "{workload}: metric names");
    if !traced {
        for m in &out.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{workload}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn imrp_smoke() {
    for traced in [false, true] {
        let out = imrp::run(&imrp::Params::smoke(), 7, ONE_ROUND, traced);
        assert_sound("imrp-24", traced, &out);
    }
}

#[test]
fn service_smoke() {
    for traced in [false, true] {
        let out = service::run(&service::Params::smoke(), 7, ONE_ROUND, traced);
        assert_sound("service-10k", traced, &out);
    }
}

#[test]
fn sim_healthy_smoke() {
    for traced in [false, true] {
        let out = sim::run(&sim::Params::smoke(false), 7, ONE_ROUND, traced);
        assert_sound("sim-1m", traced, &out);
    }
}

#[test]
fn sim_gray_smoke() {
    for traced in [false, true] {
        let out = sim::run(&sim::Params::smoke(true), 7, ONE_ROUND, traced);
        assert_sound("sim-gray", traced, &out);
        if traced {
            let retries = out.get("pilot.retries").unwrap_or(0.0);
            let heartbeats = out.get("pilot.control.heartbeats").unwrap_or(0.0);
            let events = out.get("telemetry.events").unwrap_or(0.0);
            assert!(
                retries > 0.0 && heartbeats > 0.0 && events > 0.0,
                "gray environment inert"
            );
        }
    }
}
