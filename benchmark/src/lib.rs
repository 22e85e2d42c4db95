//! The repo benchmark: a real-cost ledger for the Mantle reproduction,
//! end to end and layer by layer. See `README.md` beside `Cargo.toml`.

pub mod alloc;
pub mod compare;
pub mod counters;
pub mod driver;
pub mod gen;
pub mod isolated;
pub mod mirror;
pub mod ops;
pub mod procfs;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
pub mod world;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
