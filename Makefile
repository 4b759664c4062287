# Mirrors .github/workflows/ci.yml so local and CI invocations stay identical.
# Performance is measured by one harness, `make benchmark` (benchmark/README.md);
# nothing here compares a measurement with a number taken on another machine.
GO ?= go

.PHONY: all build vet fmt test race bench bench-train bench-plan bench-estimate bench-serve golden serve test-generic cross pack scale benchmark benchmark-compare loc paper-accuracy

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
# cache-resident ResMADE shape and at the DMV output layer (GFLOP/s), on
# every kernel tier the host has, best first (avx512's 8x32 tile above
# avx2's 8x8 where the CPU has AVX-512; the generic rows take a few seconds),
# and a whole step on the paper's two configurations on the active tier
# (tuples/s). benchmark/ reports the same two quantities end to end, on the
# active tier, as tensor.gemm_gflop_s and core.train_tuples_per_s.
# ParallelForPhase prices one fork and join on a two-wide worker set (µs per
# phase): empty with the worker awake, empty after it has parked (the wake),
# and a 128K-element ReLU.
bench-train:
	$(GO) test -run='^$$' -bench='TrainGEMMTier|ParallelForPhase' -benchmem ./internal/tensor
	$(GO) test -run='^$$' -bench='TrainStep(DMV|Census)$$' -benchmem ./internal/core

# The serving-side kernel figure: Plan.Forward in µs per row on untrained
# DMV- and census-shaped nets, one row per call (b1) and 64 rows per call
# (b64), at 1 and 2 workers. b64/w1 over b1/w1 is the weight reuse a batch
# buys on one core; benchmark/ reports the same pass as made.plan_us_b1 and
# made.plan_us_b64.
bench-plan:
	$(GO) test -run='^$$' -bench='PlanForward' -benchmem ./internal/made

# The estimate pass around the plan: one 64-query EstimateCardBatch on an
# untrained DMV model (µs/call and allocs/op; its plan is bench-plan's DMV
# b64 row) and on the model embed_burst serves (trained like
# benchmark/stack.go's trainModel), and one Softmax at the DMV model's two
# widest logit blocks, the masked product's per-column cost.
# Call minus plan is the masked product's share, the pass benchmark/ reports
# as core.self_us.
bench-estimate:
	$(GO) test -run='^$$' -bench='EstimateBurstDMV' -benchmem ./internal/core
	$(GO) test -run='^$$' -bench='Softmax' -benchmem ./internal/nn

# The serve engine around the pass: queries/s of single Estimate calls that
# all miss the cache, from one caller (bare, with metrics, traced) and from
# 1, 2 and 4 callers sharing one engine. One pass runs at a time, so more
# callers should answer about what one does; clearly fewer means waiting
# callers take the processor from the pass in flight. benchmark/'s
# embed_point is the two-caller case end to end.
bench-serve:
	$(GO) test -run='^$$' -bench='Estimate(LoneMiss|Contended)' -benchmem ./internal/serve

# The bitwise contract: trained weights, losses and estimates hashed against
# internal/core/testdata/golden.txt. A change that means to move numbers
# reruns it with -update (go test -run Golden ./internal/core -update) and
# commits the file's diff as the record.
golden:
	$(GO) test -run Golden ./internal/core

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

# One synthetic census model from a one-model manifest: trains a short run on
# first start and saves census.duet in the working directory, which later
# starts load.
serve:
	$(GO) run ./cmd/duetserve -manifest examples/serving/census.json
