//! `fleetd` — the elastic fleet as a service.
//!
//! ```text
//! fleetd run <config.json>          start the daemon (foreground)
//! fleetd ctl <socket> <json-line>   send one control request, print the response
//! ```
//!
//! See the crate docs ([`onslicing_fleetd`]) and the repository README's
//! "Service mode" section for the config-file reference and the protocol
//! catalogue.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::path::Path;
use std::process::ExitCode;

use onslicing_fleetd::{run, send_request, FleetdConfig};

const USAGE: &str = "usage:\n  fleetd run <config.json>\n  fleetd ctl <socket> <json-line>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") if args.len() == 2 => FleetdConfig::load(Path::new(&args[1]))
            .and_then(run)
            .map(|reason| eprintln!("fleetd: exiting ({reason:?})")),
        Some("ctl") if args.len() == 3 => {
            send_request(Path::new(&args[1]), &args[2]).map(|response| println!("{response}"))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetd: {e}");
            ExitCode::FAILURE
        }
    }
}
