//! `helios` binary entry point — see [`helios_cli`] for the commands.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    if let Err(e) = helios_cli::run(&argv, &mut stdout) {
        // A closed pipe (e.g. `helios ... | head`) is not an error.
        if let helios_cli::CliError::Io(io) = &e {
            if io.kind() == std::io::ErrorKind::BrokenPipe {
                return;
            }
        }
        eprintln!("helios: {e}");
        std::process::exit(match e {
            helios_cli::CliError::Usage(_) => 2,
            // Resumable drain (SIGINT/SIGTERM on a store sweep) gets
            // its own code so wrappers can re-run instead of failing.
            helios_cli::CliError::Interrupted(_) => 3,
            _ => 1,
        });
    }
}
