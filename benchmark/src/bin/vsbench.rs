//! The benchmark binary that measures: no allocator instrumentation.

fn main() -> std::process::ExitCode {
    vsync_benchmark::cli::main(false)
}
