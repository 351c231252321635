//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric as a `name = value unit` line, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics traced). Exits
//! non-zero when a correctness check fails.

use platod2gl_perfbench::common::Metric;
use platod2gl_perfbench::{run, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().expect("current directory is readable");
    let scratch = cwd.join(".bench_work");
    let work = scratch.join(std::process::id().to_string());
    let outcome = run(&args.workload, args.seed, args.seconds, args.trace, &work)
        .expect("workload name was validated");
    let _ = std::fs::remove_dir_all(&work);
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(&scratch);

    let mut violations = outcome.violations.clone();
    // Every workload reports every metric of its run kind.
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric { name, value, unit }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                outcome
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        violations.push(format!("{name} was not measured"));
                        Metric {
                            name,
                            value: 0.0,
                            unit: "",
                        }
                    })
            })
            .collect()
    };
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                violations.push(format!("{} is not finite", m.name));
                m.value = 0.0;
            }
            m
        })
        .collect();

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "fail_ratio = {fail_ratio} ratio ({} of {} ops)",
        outcome.failed, outcome.attempted
    );
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
