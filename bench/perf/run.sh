#!/bin/sh
# Build perf.exe from source and run it with the given arguments.
# Run from the repository root, e.g.
#   sh bench/perf/run.sh --workload list-read --seed 7 --trace 0
# --root pins the build to this checkout; --cache=disabled keeps every
# build output inside it.
exec dune exec --cache=disabled --root . bench/perf/perf.exe -- "$@"
