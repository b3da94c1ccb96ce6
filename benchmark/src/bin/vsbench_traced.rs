//! The same program with the counting allocator installed; per-layer runs use it.

#[global_allocator]
static ALLOC: vsync_benchmark::alloc::Counting = vsync_benchmark::alloc::Counting;

fn main() -> std::process::ExitCode {
    vsync_benchmark::cli::main(true)
}
