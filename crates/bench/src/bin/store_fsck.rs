//! `store_fsck` — check (and optionally repair) a durable campaign store.
//!
//! Scans the store directory a bench binary populated via
//! `--checkpoint <dir>`: the write-ahead log is frame-validated, and torn
//! tails and corrupt interior frames are counted. With `--repair` the
//! log is additionally run through the normal open path, which moves
//! damaged frames into the `campaign.quarantine` sidecar and truncates
//! the torn tail — exactly the repair a resuming run would perform, made
//! explicit and inspectable.
//!
//! Exit status: 0 when the log is clean or was just repaired, 2 when
//! damage remains (log damage without `--repair`), 1 on usage or I/O
//! errors, including a missing directory. The report is deterministic
//! for given store bytes.
//!
//! Usage: `store_fsck <dir> [--repair]`

use optassign_obs::Obs;
use optassign_store::io::RealIo;
use optassign_store::{fsck, FsckReport};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: store_fsck <dir> [--repair]";

fn print_report(dir: &std::path::Path, report: &FsckReport) {
    println!("store_fsck: {}", dir.display());
    println!("  wal records         : {}", report.wal_records);
    println!("  quarantined frames  : {}", report.quarantined_frames);
    println!("  quarantined bytes   : {}", report.quarantined_bytes);
    println!("  torn-tail bytes     : {}", report.tail_truncated_bytes);
    println!("  magic one bit off   : {}", report.header_damaged);
    println!("  sidecar entries     : {}", report.sidecar_entries);
    println!("  repaired            : {}", report.repaired);
}

fn main() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut repair = false;
    for arg in std::env::args().skip(1) {
        if arg == "--repair" {
            repair = true;
        } else if !arg.starts_with("--") && dir.is_none() {
            dir = Some(PathBuf::from(arg));
        } else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let Some(dir) = dir else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    match fsck(&dir, &RealIo, repair, &Obs::disabled()) {
        Ok(report) => {
            print_report(&dir, &report);
            if report.is_clean() || report.repaired {
                println!("store_fsck: OK");
                ExitCode::SUCCESS
            } else {
                println!("store_fsck: damage found (re-run with --repair)");
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("store_fsck: {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}
