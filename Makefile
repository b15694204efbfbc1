.PHONY: all build test bench bench-full examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bin/optik_bench.exe -- figures 2>&1 | tee bench_output.txt

bench-full:
	dune exec bin/optik_bench.exe -- figures --full 2>&1 | tee bench_output_full.txt

examples:
	dune exec examples/quickstart.exe
	dune exec examples/kv_cache.exe
	dune exec examples/job_queue.exe
	dune exec examples/dedup_index.exe

doc:
	dune build @doc

clean:
	dune clean
