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

use std::fmt::Display;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::slice;
use std::str::FromStr;

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
    wait: bool,
    /// The `serve` flags, over the defaults of [`ServeOptions::new`] and
    /// port 7299; `--data-dir` is filled in by `cmd_serve`.
    serve: ServeOptions,
    positional: Vec<String>,
}

/// The value after `flag`, parsed; an error names the flag and the value.
fn flag_value<T: FromStr>(it: &mut slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag} {raw}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        data_dir: None,
        out: None,
        addr: None,
        wait: false,
        serve: ServeOptions {
            port: 7299,
            ..ServeOptions::new(PathBuf::new())
        },
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, it) = (arg.as_str(), &mut it);
        match flag {
            "--data-dir" => out.data_dir = Some(flag_value(it, flag)?),
            "--out" => out.out = Some(flag_value(it, flag)?),
            "--addr" => out.addr = Some(flag_value(it, flag)?),
            "--port" => out.serve.port = flag_value(it, flag)?,
            "--workers" => out.serve.workers = flag_value(it, flag)?,
            "--queue" => out.serve.queue_capacity = flag_value(it, flag)?,
            "--chaos" => out.serve.chaos = Some(ChaosPlan::load(&flag_value::<String>(it, flag)?)?),
            "--quota-cycles" => out.serve.quota_cycles = Some(flag_value(it, flag)?),
            "--quota-events" => out.serve.quota_events = Some(flag_value(it, flag)?),
            "--quota-memory" => out.serve.quota_memory_words = Some(flag_value(it, flag)?),
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

fn cmd_serve(a: Args) -> Result<(), String> {
    let opts = ServeOptions {
        data_dir: data_dir(&a)?,
        ..a.serve
    };
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
        "serve" => cmd_serve(args),
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
