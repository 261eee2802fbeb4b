//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <name>      print one report (table1..table3, fig4..fig16, verify)
//! experiments ext_zoo [--n N] [--seed S]
//!                         the generated-population report at an explicit
//!                         population size / master seed (defaults 120 / 42)
//! experiments all         print every report, with per-report wall time,
//!                         compilation-pipeline statistics and a one-screen
//!                         global metrics summary at the end
//! experiments list        list available reports
//! ```

use roboshape::Pipeline;
use roboshape_experiments::report_generators;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parses `--n N` / `--seed S` from the arguments after the report name.
/// Only `ext_zoo` takes them; anything else with flags is an error.
fn parse_zoo_flags(rest: &[String]) -> Result<(usize, u64), String> {
    let (mut n, mut seed) = (120usize, 42u64);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--n" => {
                n = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--n needs a positive integer, got `{value}`"))?;
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got `{value}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((n, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().cloned().unwrap_or_else(|| "list".to_string());
    if args.len() > 1 {
        if arg != "ext_zoo" {
            eprintln!("only `ext_zoo` takes flags (--n, --seed); got `{arg}`");
            return ExitCode::FAILURE;
        }
        match parse_zoo_flags(&args[1..]) {
            Ok((n, seed)) => {
                println!("{}", roboshape_experiments::ext_zoo_with(n, seed));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("{e}; usage: experiments ext_zoo [--n N] [--seed S]");
                return ExitCode::FAILURE;
            }
        }
    }
    let generators = match arg.as_str() {
        "all" => report_generators(),
        "list" => {
            println!("available reports:");
            for (name, _) in report_generators() {
                println!("  {name}");
            }
            println!("  all");
            return ExitCode::SUCCESS;
        }
        name => {
            let found: Vec<_> = report_generators()
                .into_iter()
                .filter(|(n, _)| *n == name)
                .collect();
            if found.is_empty() {
                eprintln!("unknown report `{name}`; try `experiments list`");
                return ExitCode::FAILURE;
            }
            found
        }
    };

    let timed = arg == "all";
    let mut timings: Vec<(&str, Duration)> = Vec::new();
    for (name, generate) in generators {
        let start = Instant::now();
        let body = generate();
        timings.push((name, start.elapsed()));
        println!("{body}");
    }

    if timed {
        // Every generator above ran through the shared pipeline store, so
        // later reports reuse the schedules and block plans of earlier
        // ones; the stats below show how much was shared.
        let pipeline = Pipeline::global();
        println!("== report timings ==");
        for (name, wall) in &timings {
            println!("{name:<16} {wall:>12.3?}");
        }
        let total: Duration = timings.iter().map(|(_, w)| *w).sum();
        println!("{:<16} {total:>12.3?}", "total");
        println!();
        println!("{}", pipeline.observer().report());
        println!("{}", pipeline.store().stats());
        // The one-screen global metrics summary: sim cycle histograms,
        // scheduler/DSE throughput, per-stage cache counters.
        let snapshot = roboshape::obs::metrics().snapshot();
        if !snapshot.is_empty() {
            println!();
            println!("== metrics ==");
            println!("{snapshot}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_zoo_flags;

    fn flags(v: &[&str]) -> Result<(usize, u64), String> {
        parse_zoo_flags(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zoo_flags_parse_and_default() {
        assert_eq!(flags(&[]), Ok((120, 42)));
        assert_eq!(flags(&["--n", "16", "--seed", "7"]), Ok((16, 7)));
    }

    #[test]
    fn zoo_population_must_be_positive() {
        let err = flags(&["--n", "0"]).unwrap_err();
        assert!(
            err.contains("--n needs a positive integer, got `0`"),
            "{err}"
        );
        assert!(flags(&["--n", "-3"]).is_err());
        assert!(flags(&["--n", "many"]).is_err());
    }
}
