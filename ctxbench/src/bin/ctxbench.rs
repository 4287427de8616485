//! The benchmark binary: end-to-end metrics (`--trace 0`) or per-layer
//! metrics (`--trace 1`). Its global allocator keeps the held-memory
//! figure and, in a traced run, the allocation counts. See
//! `ctxbench/README.md` for the command line.

use ctxres_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    CountingAlloc::mark_installed();
    std::process::exit(ctxres_benchmark::cli_main());
}
