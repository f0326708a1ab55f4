//! The stack benchmark's command line:
//! `stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use impress_stackbench::{imrp, service, sim, Budget, Outcome};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds)) =
        (arg("--workload"), arg("--seed"), arg("--seconds"))
    else {
        eprintln!("usage: stackbench --workload <imrp-24|service-10k|sim-1m|sim-gray> --seed <n> --seconds <s> [--trace <0|1>]");
        return ExitCode::from(2);
    };
    let (Ok(seed), Ok(seconds)) = (seed.parse::<u64>(), seconds.parse::<f64>()) else {
        eprintln!("--seed must be a whole number and --seconds a number");
        return ExitCode::from(2);
    };
    let traced = arg("--trace").as_deref() == Some("1");
    let budget = Budget {
        seconds,
        min_rounds: 3,
    };
    let out: Outcome = match workload.as_str() {
        "imrp-24" => imrp::run(&imrp::Params::full(), seed, budget, traced),
        "service-10k" => service::run(&service::Params::full(), seed, budget, traced),
        "sim-1m" => sim::run(&sim::Params::healthy(), seed, budget, traced),
        "sim-gray" => sim::run(&sim::Params::gray(), seed, budget, traced),
        other => {
            eprintln!("unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for e in out.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    println!("{}", host_line(&workload, seed, traced, &out));
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

fn host_line(workload: &str, seed: u64, traced: bool, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = format!(
        "# host {{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"nproc\":{nproc},\"profile\":\"{profile}\",\"commit\":\"{}\",\"rounds\":{},\"tasks\":{},\"failed_tasks\":{},\"campaigns\":{},\"failed_campaigns\":{}",
        u8::from(traced),
        commit(),
        out.rounds,
        out.tasks,
        out.failed_tasks,
        out.campaigns,
        out.failed_campaigns
    );
    for (k, v) in &out.info {
        s.push_str(&format!(",\"{k}\":{v}"));
    }
    s.push('}');
    s
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.tasks.max(1),
        out.failed_tasks,
        metrics.join(",")
    )
}

/// JSON has no NaN or infinity; a non-finite value is reported as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The commit the benchmark was built from, read from `.git` when the
/// checkout has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}
