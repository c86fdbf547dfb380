#!/usr/bin/env bash
# kite-lint: the offline invariant linter (crates/lint) over the whole
# workspace. Prints every violation and a count; there is no baseline, so
# any violation fails the pass.
#
# Exit codes: 0 clean, 1 violations, 2 usage/IO error. The same check runs
# as a workspace test (crates/lint/tests/workspace.rs), so `cargo test -q`
# enforces it too; this script is the fast, human-facing form.
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q --release -p kite-lint -- --root . "$@"
