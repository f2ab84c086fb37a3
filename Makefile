GO ?= go

# Minimum combined statement coverage for the core evaluation packages
# (internal/pax, internal/xpath). Measured ~91% at the time the gate was
# introduced; the threshold leaves headroom so the gate flags real
# regressions, not noise.
COVER_MIN ?= 85
# Per-target budget of the fuzz smoke in the check gate.
FUZZTIME ?= 10s

.PHONY: check build vet bench-vet test test-race cover fuzz-smoke codec-smoke alloc-smoke fault-smoke edit-smoke docs-check lint lint-fixtures fmt-check

# The tier-1 verification gate: everything must compile, vet clean, pass,
# stay race-free under the concurrent serving load tests, hold the
# coverage floor on the core packages, survive a short fuzz smoke of the
# query parser, the wire codec, the arena, the edit path, the XML escaper
# and the XML parser,
# prove the wire
# codec still writes and reads its golden bytes, hold every allocation
# cap of the hot paths, prove failover keeps answers
# byte-identical to centralized evaluation on a seeded fault schedule
# over both transports, keep the documentation honest and gofmt-clean
# source, and hold the machine-checked invariants of tools/paxlint.
check: build vet bench-vet test test-race cover codec-smoke alloc-smoke fault-smoke edit-smoke fuzz-smoke docs-check fmt-check lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The benchmark lives in its own module (bench/), which `go build ./...`
# never compiles: vet it separately, so a product API change that breaks
# the benchmark's build fails the gate.
bench-vet:
	$(GO) vet -C bench ./...

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
	$(GO) test -run=^$$ -fuzz=FuzzSerializeEscape -fuzztime=$(FUZZTIME) ./internal/xmltree
	$(GO) test -run=^$$ -fuzz=FuzzParseRoundTrip -fuzztime=$(FUZZTIME) ./internal/xmltree

# Codec smoke: every corpus message must encode to its golden bytes
# (testdata/golden, regenerated only with -update) and decode back to the
# value it came from in both envelope directions, every registered tag
# must have a golden file, and no decoded message may alias the frame it
# came from (the transport pools incoming frames): overwriting the frame
# after decoding must not change the message's re-encoding. The retired
# batch tags 11 and 12 must stay unregistered: a frame carrying one fails
# with dist.ErrUnknownTag.
codec-smoke:
	$(GO) test -run='TestGoldenBytes|TestEveryTagHasGoldenBytes|TestCorpusRoundTrip|TestDecodedMessagesDoNotAliasFrame|TestRetiredTagsAreUnknown' ./internal/pax

# Allocation smoke: every testing.AllocsPerRun cap, by name — the arena's
# mask kernels and structural joins allocate nothing in steady state, the
# pooled frame write and read paths and the metered Local round trip stay
# within their per-call budgets, formula constructors that fold to an existing operand
# allocate nothing, and neither does a warmed boolexpr.Builder asked for a
# node it already holds, a Stage-1 pass allocates per predicate, spine
# node and virtual node, not per node, and takes its predicate masks and
# operand temporaries from a slab pooled per visit, allocating only the
# selection-entry masks a memoized result keeps, which no later pass
# overwrites,
# a fragment's selection visit (startSelection, then the sweep, under an
# env or after the fragment's Stage-1 pass) allocates per returned item,
# not per node, its row and
# subtree-end stacks living on the goroutine's stack and its masks in a
# slab pooled per visit, which no kept outcome reads, serializing a
# pointer subtree allocates exactly its output string, building a
# fragment's file form allocates its text and one offsets array, a second
# ShipXML answer from a fragment allocates nothing for its XML (a slice of
# the file form), decoding an answers section costs the same few
# allocations (at most 3) for 1, 100 or 1 000 answers, a ShipXML query allocates as often for 1 000 answers as for 100 (±1: each
# answer list is made once at its final size), a ShipXML answer is stored
# once per side — an extra answer costs at most two answer records through
# Engine.Run, and a site record plus one paxq.Answer through
# Cluster.Query, for every shape: no site keeps a candidate between
# stages — a warm Stage 1, read
# from the site's memo, allocates the same on a fragment 30 times larger
# and runs no qualifier pass, so it takes no mask, and a site's
# fragment edit allocates at most 200 times, within 10 of the same edit
# on a fragment 30 times smaller, and at most 32 bytes per node of the
# fragment (it copies pointer-free index columns and masks only), and a
# cut fragmentation of the XMark document holds at most 96 bytes of heap
# per node (its columns, masks, values and origins; no pointer tree), and
# a value with a sign inside it (a page range, a date) is rejected as a
# number without the allocating float parse, which accepts exactly what
# strconv.ParseFloat does.
alloc-smoke:
	$(GO) test -run='TestKernelSweepAllocs|TestJoinAllocs|TestNumOfNearNumberAllocs|TestNumOfMatchesParseFloat' ./internal/arena
	$(GO) test -run='TestFrameWritePathAllocs|TestFrameReadPathAllocs|TestLocalCallAllocsBounded' ./internal/dist
	$(GO) test -run='TestNaryFoldAllocs' ./internal/boolexpr
	$(GO) test -run='TestQualPassAllocsPerSpine|TestMaskPassAllocs|TestPooledMasksDoNotLeak' ./internal/parbox
	$(GO) test -run='TestTraversalAllocsPerFragment|TestDecodeAnswersAllocs|TestAnswerXMLAllocs|TestPooledSelectionMasksDoNotLeak|TestShipAnswersAllocsIndependentOfCount|TestShipAnswerBytesPerAnswer|TestStage1HitAllocs' ./internal/pax
	$(GO) test -run='TestShipAnswerBytesPerAnswer' .
	$(GO) test -run='TestSerializeStringAllocs' ./internal/xmltree
	$(GO) test -run='TestApplyEditAllocsIndependentOfSize|TestApplyEditBytesPerNode|TestFileFormAllocs|TestCutBytesPerNode' ./internal/fragment

# Fault-injection smoke: a fixed-seed slice of the randomized
# kill/restart schedules on both transports — replicated fleets injured
# mid-deployment must keep answering byte-identically to centralized
# evaluation, within the failover visit bound, with the per-query cost
# ledgers conserved. A failed query runs again, whole, on the next replica
# of each failed group. The full 200-schedule-per-transport corpus runs in
# `test` (TestFaultInjectionLocal / TestFaultInjectionTCP). A refused dial
# costs exactly one attempt and fails at once (TestTCPDialCount counts the
# dials); the query retry loop owns every wait, and replication or a retry
# policy is what survives a restart (TestRefusedSiteContract counts the
# calls on both transports). A group whose members hold a fragment at
# two versions still answers at one of them (TestFailoverVersionSkew), and
# with a hot query memoized on both members each member answers from its
# own version: the edited member's Stage-1 memo entry stops matching, the
# lagging member's still matches (TestStage1MemoLaggingReplica). Two
# edits landing between a query's Stage 1 and Stage 2 leave the site
# without the version Stage 1 read: it answers ErrVersionSkew, and the
# query runs again once, on an unreplicated engine without a retry
# policy, over both transports (TestVersionSkewRerunsQuery). A site
# restarting while queries run on it, as paxq's outage drill does, keeps
# answering them (TestRestartDuringQueries; `test-race` runs it under the
# race detector, which holds Restart's swap of the compile cache to the
# handlers reading it).
fault-smoke:
	$(GO) test -run='TestFaultSmoke|TestTCPDialCount|TestRefusedSiteContract|TestFailoverVersionSkew|TestStage1MemoLaggingReplica|TestVersionSkewRerunsQuery|TestRestartDuringQueries' ./internal/harness ./internal/dist ./internal/pax

# Mutation smoke: a fixed-seed slice of the mutation differential (edit
# schedules interleaved with queries on both transports, answers checked
# against a rebuilt centralized oracle, ledgers conserved), plus the
# version-protocol and snapshot regressions, two concurrent
# deliveries of one edit applying once and swapping the fragment set once,
# requests sharing one fragment set exactly when no edit lies between them,
# a later stage reading the version the first one read after one edit and
# failing with ErrVersionSkew after two, the public-API edit regressions,
# and the oracles of the site's columns-only path: the mirror's check of
# every spliced successor against the pointer-tree edit of the old
# version, rejected edits failing with typed errors, long splice chains
# with concurrent forks equal to their edited pointer trees at every step
# while the shared value pool stays within twice the live nodes, and the
# file form sites write from arena columns byte-identical to the pointer
# serializer.
# Post-edit answers' shipped XML is compared with the edited document,
# answers crossing a fragment boundary included. The full
# >=500-case-per-transport corpus runs in `test`
# (TestEditDifferentialLocalCorpus / TestEditDifferentialTCPCorpus).
edit-smoke:
	$(GO) test -run='TestEditSmoke' ./internal/harness
	$(GO) test -run='TestEditVersionProtocol|TestEditConcurrentDeliveriesApplyOnce|TestEditSnapshotIdentity|TestEditOneVersionAnswersAndStalePut' ./internal/pax
	$(GO) test -run='TestApplyEditMatchesOracleAndSplicedArena|TestEditTypedErrors' ./internal/fragment
	$(GO) test -run='TestSpliceChains' ./internal/arena
	$(GO) test -run='TestArenaSerializeMatchesPointer' ./internal/harness
	$(GO) test -run='TestApplyEdit' .

# Documentation gate: vet plus tools/docscheck, which fails on exported
# identifiers of the public paxq package missing doc comments, on cmd/*
# flags absent from cmd/README.md / ARCHITECTURE.md, on cmd/README.md flag
# rows a binary no longer defines, on internal/cmd packages missing from
# ARCHITECTURE.md's package map, on package-map rows naming packages that
# no longer exist, and on cmd/README.md metric rows a binary does not
# emit. Depends on the vet target (rather
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
