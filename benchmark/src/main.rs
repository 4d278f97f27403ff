fn main() -> std::process::ExitCode {
    nova_benchmark::cli::main()
}
