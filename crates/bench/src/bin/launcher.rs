//! Multi-process TCP deployment launcher.
//!
//! Spawns each node as its own OS process (re-executing this binary),
//! wires them together over loopback TCP, runs the YCSB smoke workload
//! from the driver nodes, and verifies the merged commit history against
//! the serializability checker's serial replay. See
//! [`aloha_bench::multiproc`] for the protocol.
//!
//! ```text
//! cargo run -q -p aloha-bench --bin launcher            # 2-FE/4-BE smoke
//! cargo run -q -p aloha-bench --bin launcher -- --kill  # + SIGKILL a node
//! ```
//!
//! Options: `--servers N`, `--drivers N`, `--txns N` (per driver),
//! `--epoch-micros U`, `--keys N` (per partition), `--durable`, `--kill`,
//! `--scratch DIR` (a fresh directory per run: one holding a previous
//! run's `wal-*` is refused).

use std::time::Duration;

use aloha_bench::multiproc::{self, LaunchOpts, CHILD_FLAG};

fn parse(args: &[String], opts: &mut LaunchOpts) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--servers" => {
                opts.servers = value()?.parse().map_err(|e| format!("--servers: {e}"))?
            }
            "--drivers" => {
                opts.drivers = value()?.parse().map_err(|e| format!("--drivers: {e}"))?
            }
            "--txns" => {
                opts.txns_per_driver = value()?.parse().map_err(|e| format!("--txns: {e}"))?;
            }
            "--epoch-micros" => {
                opts.epoch = Duration::from_micros(
                    value()?
                        .parse()
                        .map_err(|e| format!("--epoch-micros: {e}"))?,
                );
            }
            "--keys" => {
                opts.keys_per_partition = value()?.parse().map_err(|e| format!("--keys: {e}"))?;
            }
            "--durable" => opts.durable = true,
            "--kill" => opts.kill = true,
            "--scratch" => opts.scratch = value()?.into(),
            "-h" | "--help" => {
                println!(
                    "usage: launcher [--servers N] [--drivers N] [--txns N] \
                     [--epoch-micros U] [--keys N] [--durable] [--kill] [--scratch DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.drivers == 0 || opts.drivers > opts.servers {
        return Err("need 1 <= drivers <= servers".into());
    }
    if opts.kill && opts.drivers >= opts.servers {
        return Err("--kill needs a non-driver node to kill".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child processes re-enter this same binary with CHILD_FLAG first.
    if args.first().map(String::as_str) == Some(CHILD_FLAG) {
        multiproc::child_main(&args[1..]);
    }

    let scratch = std::env::temp_dir().join(format!("aloha-launch-{}", std::process::id()));
    let mut opts = LaunchOpts::smoke(&scratch);
    if let Err(e) = parse(&args, &mut opts) {
        eprintln!("launcher: {e}");
        std::process::exit(2);
    }

    println!(
        "# launching {} node processes ({} drivers, {} txns each{}{})",
        opts.servers,
        opts.drivers,
        opts.txns_per_driver,
        if opts.durable || opts.kill {
            ", durable WAL"
        } else {
            ""
        },
        if opts.kill { ", SIGKILL mid-run" } else { "" },
    );
    let report = match multiproc::launch(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("launcher failed: {e}");
            let _ = std::fs::remove_dir_all(&scratch);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "committed={} aborted={} history_records={} divergences={}{}",
        report.committed,
        report.aborted,
        report.history_records,
        report.divergences,
        if report.killed {
            " (node killed + respawned)"
        } else {
            ""
        },
    );
    if report.committed == 0 {
        eprintln!("FAIL: no transaction committed");
        std::process::exit(1);
    }
    if report.divergences != 0 {
        eprintln!("FAIL: final state diverges from serial replay");
        std::process::exit(1);
    }
    println!("serializability check passed");
}
