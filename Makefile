# Mirrors .github/workflows/ci.yml so local and CI invocations stay identical.
# Performance is measured by one harness, `make benchmark` (benchmark/README.md);
# nothing here compares a measurement with a number taken on another machine.
GO ?= go

.PHONY: all build vet fmt test race bench bench-train serve test-generic cross pack scale benchmark benchmark-compare loc paper-accuracy

all: build vet fmt test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "gofmt needed on:" >&2; echo "$$diff" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The training-side kernel figures: the three GEMMs of a layer at the
# cache-resident ResMADE shape and at the DMV output layer (GFLOP/s), and a
# whole step on the paper's two configurations (tuples/s). benchmark/ reports
# the same two quantities end to end as tensor.gemm_gflop_s and
# core.train_tuples_per_s.
bench-train:
	$(GO) test -run='^$$' -bench='TrainGEMM(Mul|MulBT|MulATAdd)(DMV)?$$' -benchmem ./internal/tensor
	$(GO) test -run='^$$' -bench='TrainStep(DMV|Census)$$' -benchmem ./internal/core

# Full suite forced onto the pure-Go kernel tier: proves the SIMD dispatch
# fallback path stays correct, not just compiled.
test-generic:
	DUET_KERNEL=generic $(GO) test ./...

# Cross-compile + vet both released architectures; the arm64 pass assembles
# the NEON kernels even when the build host is amd64.
cross:
	GOARCH=amd64 $(GO) build ./... && GOARCH=amd64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# Pack a 2M-row demo table into the .duetcol columnar format.
pack:
	$(GO) run ./cmd/duettrain -syn census -rows 2000000 -pack census.duetcol

# The columnar-store invariants at multi-million-row size (scale_test.go:
# mapped vs in-memory training/join throughput and peak RSS; ~4 min).
scale:
	DUET_SCALE_ROWS=2000000 $(GO) test -run TestScaleStore -timeout 30m -v .

# The performance reference (benchmark/README.md): every workload, both
# passes, five runs each; then one row per workload x end-to-end metric
# against the committed baseline.
benchmark:
	$(GO) run ./benchmark --workload all --seed 1 --repeat 5 --out benchmark/out/mine.json

benchmark-compare:
	$(GO) run ./benchmark --compare benchmark/baseline.json benchmark/out/mine.json

# The paper's Table II at tiny scale with the cost column and the run time
# masked, so what is left is every estimator's accuracy on every dataset:
# run it on two commits and `diff` the outputs to show a change kept (or
# moved) the paper's numbers.
paper-accuracy:
	@$(GO) run ./cmd/duetbench -exp table2 -scale tiny | awk '/\|/ {$$3="-"} !/^completed in/'

# Go lines outside benchmark/, two figures so simplicity PRs state before and
# after from one command: non-test lines first (the size ROADMAP quotes and
# CI prints), then every *.go line, tests included.
loc:
	@printf 'non-test '; find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l
	@printf 'all      '; find . -name '*.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

serve:
	$(GO) run ./cmd/duetserve -syn census -rows 20000
