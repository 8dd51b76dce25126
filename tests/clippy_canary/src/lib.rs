//! Canary for the repository's lint configuration. Each marked line
//! breaks one determinism or panic rule (d1-d8, see DESIGN.md) and must
//! draw the lint its marker names: `tests/clippy_gate.rs` runs clippy here with the root
//! clippy.toml, and `tests/manifests.rs` runs its `cfg!(test)` scan. A
//! mistyped path in clippy.toml would silently ban nothing; this
//! crate turns that into a test failure.
// The crate-root and hot-path lints of the workspace crates.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::indexing_slicing, unsafe_code)]
#![allow(dead_code, unused_variables, clippy::diverging_sub_expression)]

use std::collections::HashMap; // fires d2: clippy::disallowed_types

pub struct HashOrder {
    pub by_id: HashMap<u64, u32>, // fires d2: clippy::disallowed_types
}

pub fn wall_clock_entropy_environment() {
    let t = std::time::SystemTime::now(); // fires d1: clippy::disallowed_types
    let i = std::time::Instant::now(); // fires d1: clippy::disallowed_types
    let s = std::collections::hash_map::RandomState::new(); // fires d1: clippy::disallowed_types
    let h: std::collections::HashSet<u64> = Default::default(); // fires d2: clippy::disallowed_types
    let n = std::thread::available_parallelism(); // fires d1: clippy::disallowed_methods
    let e = std::env::var("SEED"); // fires d1: clippy::disallowed_methods
    let v = std::env::vars(); // fires d1: clippy::disallowed_methods
    let r = std::fs::read_to_string("cache.json"); // fires d1: clippy::disallowed_methods
    let f = std::fs::File::open("entry.json"); // fires d1: clippy::disallowed_methods
    let m = std::fs::rename("a.tmp", "a.json"); // fires d1: clippy::disallowed_methods
}

pub fn panics(v: &[u32], o: Option<u32>, r: Result<u32, ()>) -> u32 {
    let a = o.unwrap(); // fires d3: clippy::unwrap_used
    let b = r.expect("present"); // fires d3: clippy::expect_used
    let c = v[0]; // fires d3: clippy::indexing_slicing
    let d = v[1..3].len() as u32; // fires d3: clippy::indexing_slicing
    if a > b {
        panic!("boom"); // fires d3: clippy::panic
    }
    if c > d {
        todo!() // fires d3: clippy::todo
    }
    a + b + c + d
}

pub fn test_harness_branches() -> u32 {
    let mut x = 0;
    if cfg!(test) { // scanned: runtime cfg!(test)
        x += 1;
    }
    if cfg!(not(test)) { // scanned: runtime cfg!(test)
        x += 2;
    }
    x
}

static mut SHARED: u64 = 0;

pub fn concurrency() -> u64 {
    std::thread::spawn(|| {}); // fires d8: clippy::disallowed_methods
    unsafe { SHARED } // fires d8: unsafe_code
}
