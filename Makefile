# Wayfinder build/test entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so a green `make ci` locally means a green build.

GO ?= go

# Lint tooling is pinned so local runs and CI agree on what "clean"
# means. `make tools` installs both; `make lint` runs whatever is
# present and prints install instructions for what is not, so a machine
# without network access (or without the tools) degrades to a warning
# instead of a red build.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test test-purego race fmt vet vet-wf bench bench-cache bench-search \
	fuzz-smoke smoke smoke-wfd smoke-faults smoke-transfer wfperf-check \
	tools lint cover ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-purego runs the packages behind the numeric kernels with the purego
# build tag, which makes internal/stats run its Go loops instead of the
# AVX2 assembly on every host: the kernels' own bit-identity tests, the
# nn, DeepTune and GP suites, and core's golden report hashes, so every
# pinned digest is checked on both kernel paths at session level.
test-purego:
	$(GO) test -tags purego ./internal/stats ./internal/nn ./internal/deeptune ./internal/gp ./internal/core

# race sets go test's timeout explicitly: on a 2-vCPU host the daemon
# package alone takes ~9 min under the race detector, and the default
# 10-minute timeout trips when it races side by side with the experiments
# package.
race:
	$(GO) test -race -timeout 30m ./...

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet runs twice: natively, where asmdecl checks the amd64 assembly's
# frame layouts against its Go declarations, and for arm64, so the build
# without assembly (the Go kernel loops) keeps compiling and vetting.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# vet-wf runs the repository's own determinism-invariant analyzers
# (cmd/wfvet: walltime, globalrand, maprange, floateq) over the whole
# tree. A finding is a red build; deliberate violations carry a
# //wfvet:ignore <analyzer> <reason> pragma in source.
vet-wf:
	$(GO) run ./cmd/wfvet ./...

tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# lint runs staticcheck and govulncheck when they are installed and
# degrades to a warning when they are not, so `make lint` is safe to run
# everywhere while CI (which runs `make tools` first) gets the real
# checks.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (make tools installs $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (make tools installs $(GOVULNCHECK_VERSION))"; \
	fi

# cover enforces coverage floors on the packages that carry the
# correctness guarantees: the deterministic engine and the daemon's
# scheduler/journal/recovery machinery.
COVER_FLOOR_CORE ?= 85
COVER_FLOOR_WFD  ?= 85

cover:
	@set -e; \
	check() { \
		pkg=$$1; floor=$$2; \
		pct=$$($(GO) test -cover "$$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		if [ "$$(awk "BEGIN{print ($$pct < $$floor)}")" = 1 ]; then \
			echo "cover: $$pkg coverage $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
	}; \
	check ./internal/core $(COVER_FLOOR_CORE); \
	check ./internal/wfd $(COVER_FLOOR_WFD)

# bench is a smoke pass: one iteration per benchmark, no tests. The
# scheduler benchmarks (worker pool, async event queue, straggler study)
# additionally run under the race detector, so the concurrent dispatch
# paths are raced on every push without paying race overhead on the
# heavyweight model-training benchmarks.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .
	$(GO) test -race -bench='Parallel|Straggler|Scaling' -benchtime=1x -run='^$$' .

# bench-cache races the artifact-cache and fleet-topology benchmarks: the
# shared-store dedup (in-flight build tickets, two-wave batch execution,
# cross-host fetches) is the newest concurrent machinery, so it gets its
# own race-detector smoke on every push.
bench-cache:
	$(GO) test -race -bench='CacheHit|Fleet' -benchtime=1x -run='^$$' .

# bench-search races the incremental-surrogate hot paths: the in-place
# Cholesky extension (GPAdd matches BenchmarkGPAddIncremental), the
# sliding-window add (extend + rank-1 downdate), the batched acquisition
# paths (batch EI and the DTM pool pass), the windowed DTM retrain, the
# sequential Bayesian proposal and the native constant-liar batch
# proposal, and the DeepTune observe path — so the model side of the
# search loop gets its own race-detector smoke on every push. Their
# steady-state allocation gates are the root package's Test…Allocs, which
# `make test` and `make race` run: counted inside a benchmark, a CPU
# profile's own allocations land in the count.
bench-search:
	$(GO) test -race -bench='GPAdd|GPWindowed|EIBatch|DTMScorePool|DTMUpdate|BayesianPropose|DeepTuneObserve' -benchtime=1x -run='^$$' .

# fuzz-smoke runs each fuzz target for a short burst. The restore targets
# cover the searcher checkpoints and the DTM transfer snapshot a corpus
# warm start restores: mutated and truncated inputs must fail Restore
# with an error, never panic. FuzzJobFile covers the job-file path wfctl
# start and submit share (parse, spec, validate): every input ends in an
# error or a spec. FuzzFaultParse covers the fault-schedule DSL: every
# input ends in an error or a schedule that survives String → Parse
# unchanged. FuzzFromKV covers the snapshot and corpus config decoder:
# every name → value map ends in an error or an in-domain configuration
# that survives KV → FromKV unchanged. FuzzKconfigParse covers the Kconfig
# parser: every source ends in an error or a tree whose defaults,
# validation, dependency order, printer and space conversion all run
# without a panic. FuzzResultJSON is differential: the hand-written
# Result encoder must write the bytes encoding/json's reflection writes,
# and fail where it fails. FuzzResume covers core's resume of mutated
# session snapshots: every input ends in an error or a session that
# survives Step(1); its inputs are whole snapshots (20–80 KB), which the
# minimizer would spend the burst shrinking, so it runs without
# minimization and a crasher is kept as found. `go test -fuzz` takes one
# target per run, hence one line each; the committed seeds under
# internal/search/testdata/fuzz, internal/deeptune/testdata/fuzz,
# internal/wfd/testdata/fuzz, internal/fault/testdata/fuzz,
# internal/configspace/testdata/fuzz and internal/core/testdata/fuzz run
# with every plain `go test` as well.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDeepTuneRestore$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzBayesianRestore$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzUnicornRestore$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzDTMRestore$$' -fuzztime $(FUZZTIME) ./internal/deeptune
	$(GO) test -run '^$$' -fuzz '^FuzzJobFile$$' -fuzztime $(FUZZTIME) ./internal/wfd
	$(GO) test -run '^$$' -fuzz '^FuzzFaultParse$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzFromKV$$' -fuzztime $(FUZZTIME) ./internal/configspace
	$(GO) test -run '^$$' -fuzz '^FuzzKconfigParse$$' -fuzztime $(FUZZTIME) ./internal/kconfig
	$(GO) test -run '^$$' -fuzz '^FuzzResultJSON$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzResume$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/core

# smoke builds and runs every example program: quickstart exercises the
# blocking Session lifecycle, streaming exercises the v2 lifecycle end to
# end (event stream, mid-session cancellation, snapshot, byte-identical
# resume) and fails non-zero if the resumed session diverges from the
# uninterrupted reference; nginx-throughput, unikraft, transfer-learning
# and memory-footprint run the paper's use cases at their built-in sizes
# (seconds each) and fail non-zero on any session error. The last line
# runs `wfctl start` on an async fleet over the committed minimal job
# file: the job file → JobSpec → session path the daemon shares.
smoke:
	$(GO) run ./examples/quickstart -l 24
	$(GO) run ./examples/streaming -l 32
	$(GO) run ./examples/nginx-throughput
	$(GO) run ./examples/unikraft
	$(GO) run ./examples/transfer-learning
	$(GO) run ./examples/memory-footprint
	$(GO) run ./cmd/wfctl start -s random -workers 4 -async -l 24 cmd/wfctl/testdata/minimal.yaml

# smoke-wfd is the daemon's SIGKILL gauntlet: build race-enabled wfd and
# wfctl binaries, run a journaling daemon, kill -9 it mid-flight, restart
# it over the same state dir, and assert every job's canonical report is
# byte-identical to an uninterrupted reference run.
smoke-wfd:
	./scripts/smoke_wfd.sh

# smoke-transfer is the tuning-memory gauntlet under the race detector:
# the empty-corpus golden pin (cold start ≡ today, byte-for-byte), the
# frozen-corpus byte-reproducibility and warm snapshot/resume tests, the
# corpus store's own deposit/query determinism suite, then the
# transferscale experiment end to end — it reports whether the median
# observations-to-target falls strictly as the corpus grows, and the
# committed BENCH_PR10.json is the same run captured as JSON. The test
# legs carry the race coverage (the experiment's sessions are
# sequential; racing them only multiplies its wall-clock several-fold).
smoke-transfer:
	$(GO) test -race -count=1 -run 'TestCorpusEmptyGolden|TestCorpusFrozenDeterminism|TestCorpusWarmSnapshotResume' ./internal/core
	$(GO) test -race -count=1 ./internal/corpus
	$(GO) run ./cmd/wfbench -exp transferscale

# smoke-faults is the fault-injection gauntlet under the race detector:
# the churn byte-identity and mid-fault snapshot/resume tests, then the
# elasticity and locality experiments end to end (complete histories
# under host churn; locality-dispatch transfer recovery).
smoke-faults:
	$(GO) test -race -count=1 -run 'TestFaultDeterminism|TestFaultSnapshotResume|TestRetryElsewhere|TestEmptyScheduleGolden' ./internal/core
	$(GO) run -race ./cmd/wfbench -exp elasticity
	$(GO) run -race ./cmd/wfbench -exp locality

# wfperf-check vets and race-tests the benchmark harness. cmd/wfperf is a
# module of its own, so `go build ./...` and `go test ./...` never compile
# it, yet it builds against the library's public and internal APIs; its
# tests run each workload at tiny sizes and check the pinned result
# digests.
wfperf-check:
	cd cmd/wfperf && $(GO) vet . && $(GO) test -race -count=1 .

ci: fmt vet vet-wf build test-purego race bench bench-cache bench-search fuzz-smoke smoke smoke-wfd smoke-faults smoke-transfer wfperf-check
