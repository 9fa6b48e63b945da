//! fem2-console: the FEM-2 application user's workstation, interactive.
//!
//! ```console
//! $ cargo run -p fem2-appvm --bin fem2-console
//! fem2> DEFINE MODEL wing
//! model wing defined
//! fem2> HELP
//! ...
//! fem2> QUIT
//! ```
//!
//! Pass `--db <dir>` to persist the model database to a directory; pipe a
//! script on stdin for batch use. Errors never end the session (a console
//! survives typos).

use fem2_appvm::{Database, Session, SessionError};
use std::io::{BufRead, IsTerminal, Write};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut db_dir: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--db" => db_dir = args.next(),
            "--help" | "-h" => {
                println!("usage: fem2-console [--db <dir>]");
                println!("Interactive FEM-2 console; type HELP at the prompt.");
                return;
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let db = match db_dir {
        Some(dir) => match Database::on_disk(&dir) {
            Ok(db) => {
                eprintln!("(database: {dir}, {} models)", db.len());
                db
            }
            Err(e) => {
                eprintln!("cannot open database {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => Database::in_memory(),
    };

    let mut session = Session::new(db);
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        println!("FEM-2 interactive console — type HELP for commands, QUIT to exit.");
    }
    loop {
        if interactive {
            print!("fem2> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        if !interactive {
            // Echo script lines so transcripts read like a session.
            let trimmed = line.trim_end();
            if !trimmed.is_empty() {
                println!("fem2> {trimmed}");
            }
        }
        match session.exec(&line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(SessionError::Parse(m)) => println!("?parse: {m}"),
            Err(SessionError::Exec(m)) => println!("?error: {m}"),
        }
        if session.finished() {
            break;
        }
    }
}
