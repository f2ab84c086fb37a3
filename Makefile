GO ?= go

# Minimum combined statement coverage for the core evaluation packages
# (internal/pax, internal/xpath). Measured ~91% at the time the gate was
# introduced; the threshold leaves headroom so the gate flags real
# regressions, not noise.
COVER_MIN ?= 85
# Per-target budget of the fuzz smoke in the check gate.
FUZZTIME ?= 10s

.PHONY: check build vet test test-race cover fuzz-smoke codec-smoke batch-smoke fault-smoke edit-smoke docs-check lint lint-fixtures fmt-check

# The tier-1 verification gate: everything must compile, vet clean, pass,
# stay race-free under the concurrent serving load tests, hold the
# coverage floor on the core packages, survive a short fuzz smoke of the
# parser, the wire codec, the arena and the edit path, prove the wire
# codec still writes and reads its golden bytes, prove multi-query
# batching is answer- and cost-transparent, prove failover keeps answers
# byte-identical to centralized evaluation on a seeded fault schedule
# over both transports, keep the documentation honest and gofmt-clean
# source, and hold the machine-checked invariants of tools/paxlint.
check: build vet test test-race cover codec-smoke batch-smoke fault-smoke edit-smoke fuzz-smoke docs-check fmt-check lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Coverage floor for the core evaluation packages. Uses -short: the gate
# measures coverage, the full differential sweep runs in `test`.
cover:
	$(GO) test -short -coverprofile=cover.out ./internal/pax ./internal/xpath
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% below floor $(COVER_MIN)%"; exit 1; }

# Short fuzz smoke: each target runs with a small time budget on top of
# its checked-in seed corpus (testdata/fuzz). go test allows one -fuzz
# target per invocation, hence the separate runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/xpath
	$(GO) test -run=^$$ -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/xpath
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/dist
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEnvelope -fuzztime=$(FUZZTIME) ./internal/dist
	$(GO) test -run=^$$ -fuzz=FuzzDecodeStageMessage -fuzztime=$(FUZZTIME) ./internal/pax
	$(GO) test -run=^$$ -fuzz=FuzzArenaRoundTrip -fuzztime=$(FUZZTIME) ./internal/arena
	$(GO) test -run=^$$ -fuzz=FuzzArenaSplice -fuzztime=$(FUZZTIME) ./internal/arena
	$(GO) test -run=^$$ -fuzz=FuzzEditOps -fuzztime=$(FUZZTIME) ./internal/fragment

# Codec smoke: every corpus message must encode to its golden bytes
# (testdata/golden, regenerated only with -update) and decode back to the
# value it came from in both envelope directions, every registered tag
# must have a golden file, and the frame write path must stay within its
# allocation cap.
codec-smoke:
	$(GO) test -run='TestGoldenBytes|TestEveryTagHasGoldenBytes|TestCorpusRoundTrip' ./internal/pax
	$(GO) test -run='TestFrameWritePathAllocs' ./internal/dist

# Batching smoke: a batch of one must be byte-identical to the unbatched
# path on the full fixed query corpus, coalesced batches must conserve
# cost exactly (per-query ledgers sum to the transport totals), and the
# batch envelope codec must round-trip.
batch-smoke:
	$(GO) test -run='TestBatchOfOneMatchesDirect|TestBatchCostConservation|TestBatchEnvelopeRoundTrip' ./internal/pax

# Fault-injection smoke: a fixed-seed slice of the randomized
# kill/restart schedules on both transports — replicated fleets injured
# mid-deployment must keep answering byte-identically to centralized
# evaluation, within the failover visit bound, with the per-query cost
# ledgers conserved. The full 200-schedule-per-transport corpus runs in
# `test` (TestFaultInjectionLocal / TestFaultInjectionTCP).
fault-smoke:
	$(GO) test -run='TestFaultSmoke' ./internal/harness

# Mutation smoke: a fixed-seed slice of the mutation differential (edit
# schedules interleaved with queries on both transports, answers checked
# against a rebuilt centralized oracle, scoped-vs-bump twins compared),
# plus the version-protocol and public-API edit regressions. The full
# >=500-case-per-transport corpus runs in `test`
# (TestEditDifferentialLocalCorpus / TestEditDifferentialTCPCorpus).
edit-smoke:
	$(GO) test -run='TestEditSmoke' ./internal/harness
	$(GO) test -run='TestEditVersionProtocol|TestEditOneVersionAnswersAndStalePut' ./internal/pax
	$(GO) test -run='TestApplyEdit' .

# Documentation gate: vet plus tools/docscheck, which fails on exported
# identifiers of the public paxq package missing doc comments, on cmd/*
# flags absent from cmd/README.md / ARCHITECTURE.md, on cmd/README.md flag
# rows a binary no longer defines, and on internal/cmd packages missing
# from ARCHITECTURE.md's package map. Depends on the vet target (rather
# than re-running go vet) so `make check` vets once.
docs-check: vet
	$(GO) run ./tools/docscheck

# Invariant gate: tools/paxlint runs five custom analyzers over the whole
# module and fails on any violation of the wire, ledger, context, panic
# or lock-scope discipline (see ARCHITECTURE.md, "Machine-checked
# invariants"). Suppressions require a //paxlint:allow marker with a
# reason.
lint:
	$(GO) run ./tools/paxlint

# The analyzers' own test suites: every analyzer runs against positive
# and negative fixture packages under tools/paxlint/*/testdata with
# exact expected-diagnostic matching, plus the docscheck fixture suite.
# Already covered by `make test` (go test ./...); this target exists for
# a quick loop while writing or tuning analyzers.
lint-fixtures:
	$(GO) test ./tools/paxlint/... ./tools/docscheck

# Formatting gate: fails when gofmt would rewrite any Go file in the tree
# (bench/ included).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
