//! The `fem2-serve` binary: run the simulation service, generate the
//! static report site, or act as a thin client.
//!
//! ```text
//! fem2-serve serve --data-dir DIR [--port N] [--workers N] [--queue N]
//! fem2-serve report --data-dir DIR --out DIR
//! fem2-serve submit --addr HOST:PORT [--wait] FILE
//! fem2-serve status --addr HOST:PORT ID
//! fem2-serve result --addr HOST:PORT ID
//! fem2-serve list --addr HOST:PORT
//! fem2-serve stats --addr HOST:PORT
//! ```
//!
//! `serve` is the default subcommand when the first argument is a flag.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use fem2_serve::{client, report, ChaosPlan, ServeOptions};

const USAGE: &str = "usage: fem2-serve <serve|report|submit|status|result|list|stats> ...
  serve        --data-dir DIR [--port N] [--workers N] [--queue N] [--chaos PLAN]
               [--quota-cycles N] [--quota-events N] [--quota-memory WORDS]
               PLAN is inline JSON ('{...}') or a file path; see chaos docs
               quotas reject plates whose static cost bound exceeds them (422)
  report       --data-dir DIR --out DIR
  submit       --addr HOST:PORT [--wait] FILE
  status       --addr HOST:PORT ID
  result       --addr HOST:PORT ID
  list         --addr HOST:PORT
  stats        --addr HOST:PORT      the server's /stats counters";

struct Args {
    data_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    addr: Option<SocketAddr>,
    port: u16,
    workers: usize,
    queue: usize,
    wait: bool,
    chaos: Option<ChaosPlan>,
    quota_cycles: Option<u64>,
    quota_events: Option<u64>,
    quota_memory: Option<u64>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        data_dir: None,
        out: None,
        addr: None,
        port: 7299,
        workers: 2,
        queue: 16,
        wait: false,
        chaos: None,
        quota_cycles: None,
        quota_events: None,
        quota_memory: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--data-dir" => out.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--out" => out.out = Some(PathBuf::from(value("--out")?)),
            "--addr" => {
                let raw = value("--addr")?;
                out.addr = Some(raw.parse().map_err(|e| format!("--addr {raw}: {e}"))?);
            }
            "--port" => {
                let raw = value("--port")?;
                out.port = raw.parse().map_err(|e| format!("--port {raw}: {e}"))?;
            }
            "--workers" => {
                let raw = value("--workers")?;
                out.workers = raw.parse().map_err(|e| format!("--workers {raw}: {e}"))?;
            }
            "--queue" => {
                let raw = value("--queue")?;
                out.queue = raw.parse().map_err(|e| format!("--queue {raw}: {e}"))?;
            }
            "--chaos" => out.chaos = Some(ChaosPlan::load(&value("--chaos")?)?),
            "--quota-cycles" => {
                let raw = value("--quota-cycles")?;
                out.quota_cycles = Some(
                    raw.parse()
                        .map_err(|e| format!("--quota-cycles {raw}: {e}"))?,
                );
            }
            "--quota-events" => {
                let raw = value("--quota-events")?;
                out.quota_events = Some(
                    raw.parse()
                        .map_err(|e| format!("--quota-events {raw}: {e}"))?,
                );
            }
            "--quota-memory" => {
                let raw = value("--quota-memory")?;
                out.quota_memory = Some(
                    raw.parse()
                        .map_err(|e| format!("--quota-memory {raw}: {e}"))?,
                );
            }
            "--wait" => out.wait = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => out.positional.push(other.to_string()),
        }
    }
    Ok(out)
}

fn data_dir(a: &Args) -> Result<PathBuf, String> {
    a.data_dir
        .clone()
        .ok_or_else(|| "--data-dir is required".into())
}

fn addr(a: &Args) -> Result<SocketAddr, String> {
    a.addr.ok_or_else(|| "--addr HOST:PORT is required".into())
}

fn job_id(a: &Args) -> Result<u64, String> {
    let raw = a
        .positional
        .first()
        .ok_or_else(|| "a job id is required".to_string())?;
    raw.parse().map_err(|e| format!("job id {raw}: {e}"))
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let mut opts = ServeOptions::new(data_dir(a)?);
    opts.port = a.port;
    opts.workers = a.workers;
    opts.queue_capacity = a.queue;
    opts.chaos = a.chaos.clone();
    opts.quota_cycles = a.quota_cycles;
    opts.quota_events = a.quota_events;
    opts.quota_memory_words = a.quota_memory;
    let mut handle = fem2_serve::start(&opts)?;
    let chaos = if opts.chaos.as_ref().is_some_and(ChaosPlan::is_armed) {
        ", CHAOS ARMED"
    } else {
        ""
    };
    println!(
        "fem2-serve listening on http://{} (data-dir {}, {} workers, queue {}{chaos})",
        handle.addr(),
        opts.data_dir.display(),
        opts.workers,
        opts.queue_capacity
    );
    handle.wait();
    Ok(())
}

fn cmd_report(a: &Args) -> Result<(), String> {
    let out = a
        .out
        .clone()
        .ok_or_else(|| "--out is required".to_string())?;
    let pages = report::generate(&data_dir(a)?, &out)?;
    println!("wrote {pages} pages under {}", out.display());
    Ok(())
}

fn cmd_submit(a: &Args) -> Result<(), String> {
    let addr = addr(a)?;
    let file = a
        .positional
        .first()
        .ok_or_else(|| "submit needs a job-spec JSON file".to_string())?;
    let body = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let (status, resp) = client::request(addr, "POST", "/jobs", Some(&body))?;
    println!("{status}: {resp}");
    if status >= 400 {
        return Err(format!("submission refused with {status}"));
    }
    if a.wait {
        let v = serde_json::parse_value(&resp).map_err(|e| format!("bad response: {e}"))?;
        let id = match v.get_field("id").map_err(|e| e.to_string())? {
            serde_json::Value::UInt(id) => *id,
            other => return Err(format!("bad id field: {other:?}")),
        };
        let outcome = client::wait_done(addr, id)?;
        let text = serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string())?;
        println!("{text}");
    }
    Ok(())
}

fn cmd_get(a: &Args, path: String) -> Result<(), String> {
    let (status, resp) = client::request(addr(a)?, "GET", &path, None)?;
    println!("{resp}");
    if status >= 400 {
        return Err(format!("GET {path} -> {status}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Some(flag) if flag.starts_with("--") => ("serve", &argv[..]),
        Some(cmd) => (cmd, &argv[1..]),
    };
    let run = parse_args(rest).and_then(|args| match cmd {
        "serve" => cmd_serve(&args),
        "report" => cmd_report(&args),
        "submit" => cmd_submit(&args),
        "status" => {
            let id = job_id(&args)?;
            cmd_get(&args, format!("/jobs/{id}"))
        }
        "result" => {
            let id = job_id(&args)?;
            cmd_get(&args, format!("/jobs/{id}/result"))
        }
        "list" => cmd_get(&args, "/jobs".to_string()),
        "stats" => cmd_get(&args, "/stats".to_string()),
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fem2-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
