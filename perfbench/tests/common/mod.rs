use std::path::PathBuf;

use helios_perfbench::{Ctx, Scale};

/// A test-scale context rooted at the repository, with a private
/// scratch directory per test.
pub fn ctx(name: &str, seed: u64) -> Ctx {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
        .to_path_buf();
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the test scratch directory");
    Ctx {
        root,
        work,
        seed,
        seconds: 0.0,
        scale: Scale::Small,
    }
}
