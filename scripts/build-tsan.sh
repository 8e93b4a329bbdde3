#!/usr/bin/env bash
# One-command ThreadSanitizer pass over the threading- and
# quantized-labelled suites (scheduler, thread pool, both conv engines):
# configure build-tsan/, build it, and run `ctest -L
# 'threading|quantized'` with halt_on_error. Equivalent to
# `cmake --workflow --preset tsan`; kept as a script so CI and shells
# without preset support can call it the same way.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake --workflow --preset tsan "$@"
