#!/usr/bin/env bash
# Builds the apls daemon and the benchmark client from source, then runs one
# benchmark invocation. Run from the repository root, for example:
#
#   bash servebench/run.sh --workload anneal_small --seed 1 --seconds 30 --trace 0
#
# Build artefacts go under $CARGO_TARGET_DIR (default .bench_build). The two
# Cargo workspaces get separate target directories: sharing one makes each
# build invalidate the other's copies of the common crates.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
apls="$target/release/apls"
bench="$target/servebench-build/release/servebench"

# crates/service/build.rs watches .git/HEAD, which a source tree without git
# lacks, so cargo would re-run it and relink both binaries on every call.
# Build only when the sources differ from those of the last build.
sources=$(find Cargo.toml Cargo.lock src crates vendor \
    servebench/Cargo.toml servebench/Cargo.lock servebench/src -type f -print0 |
    sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
stamp="$target/servebench-build/sources.sha256"
if [ ! -x "$apls" ] || [ ! -x "$bench" ] || [ "$(cat "$stamp" 2>/dev/null)" != "$sources" ]; then
    cargo build --release --offline --quiet --target-dir "$target" --bin apls >&2
    cargo build --release --offline --quiet --target-dir "$target/servebench-build" \
        --manifest-path servebench/Cargo.toml >&2
    echo "$sources" > "$stamp"
fi
exec "$bench" --apls "$apls" --out-dir "$target/servebench-out" "$@"
