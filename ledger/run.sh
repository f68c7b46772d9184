#!/usr/bin/env bash
# Build this package, then run the ledger with the given arguments.
#
# `cargo run --bin ledger` would build only that executable, and the
# worker-process workload needs `sparkline-worker` beside it; `cargo build`
# builds both. The build is a no-op after the first call in a checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/ledger" "$@"
