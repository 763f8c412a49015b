GO ?= go

.PHONY: all check lint lint-budget budget lint-fix-scan vet build cross bench-build test race cover bench-smoke fuzz-smoke chaos-smoke storm-smoke bench bench-full

all: check

# The full pre-merge gate: the custom analyzer suite, the hot-path
# allocation budget, static checks, build, tests (incl. race on the
# concurrent packages), a quick allocation-guard smoke over the crypto
# fast paths, a build-and-test of the bench/ module (its own go.mod, so
# `go build ./...` skips it), a short fuzz run over the wire-format
# parsers, a cross-build of the per-platform socket engines, and the
# short-seed chaos run (HIP-recovers-the-migration, via the
# fault-injection harness) and storm run (control-plane overload under
# mass evacuation), each diffed against its committed golden.
check: lint budget vet build cross bench-build test race bench-smoke fuzz-smoke chaos-smoke storm-smoke

# hiplint (cmd/hiplint + internal/analysis) machine-checks the DESIGN.md
# §5a contracts with four checks: append-API aliasing (appendalias),
# lock ordering (lockorder), secret hygiene in logs and compares
# (secflow) and the hot-path allocation idioms the compiler does not
# report (hotpath; the ones it does are `budget`'s). Key wipes and pooled
# buffers are refereed at run time, by keymat's and netsim's test-binary
# ledgers, the simulator's run-to-completion contract by netsim itself (a
# blocking Proc API called from a handler or for another process panics),
# and its per-seed determinism by internal/experiments' same-seed referee
# (every experiment twice in one process, packet trace compared), so
# `test` checks them.
# The whole module loads into one program so the interprocedural checks
# see cross-package call chains. Findings are waived only with
# //lint:allow <check> <reason>; the hot set carries zero waivers.
lint:
	$(GO) run ./cmd/hiplint ./...

# The compiler-diagnostic half of the hotpath contract: rebuild with
# -gcflags='-m=2 -d=ssa/check_bce/debug=1', fold escape and retained
# bounds-check diagnostics onto the hot set, and fail on ANY drift from
# the tracked LINT_BUDGET.json — regressions must be fixed, improvements
# committed via `make lint-budget`. The go build cache replays the
# diagnostics, so a clean tree re-checks in seconds.
budget:
	$(GO) run ./cmd/hiplint -budget ./...

# Regenerate LINT_BUDGET.json from the current tree; commit the result.
lint-budget:
	$(GO) run ./cmd/hiplint -budget -write ./...

# Reporting mode: per-analyzer finding counts as JSON (always exit 0),
# for tracking the finding trajectory across PRs.
lint-fix-scan:
	$(GO) run ./cmd/hiplint -counts ./...

# go vet, plus the gofmt gate over every Go file of this module (bench/
# is a module of its own and stays out: bench-build covers it).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l internal cmd examples *.go); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# hipudp's socket engines are build-tagged files that change signature in
# lockstep: batch_linux.go (sendmmsg/recvmmsg with UDP GSO/GRO, on
# linux/amd64 and linux/arm64) and batch_portable.go (everything else).
# keymat's CTR kernel is split the same way: ctr_amd64.go/.s (AES-NI) and
# ctr_noasm.go. `build` compiles only this machine's, so vet both
# packages, their tests included (on amd64 that is asmdecl over the
# kernel; elsewhere, that the portable file builds), and build the module
# for one platform of each other kind.
CROSS_TARGETS = linux/arm64 linux/386 darwin/amd64 windows/amd64

cross:
	@for t in $(CROSS_TARGETS); do \
		echo "cross: $$t"; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) vet ./internal/hipudp ./internal/keymat && \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) build ./... || exit 1; \
	done

# bench/ is a module of its own (replace hipcloud => ../): vet and test
# it here so that a rename in a package it calls cannot break the
# BENCHMARK.json harness unnoticed.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Race detection is scoped to the packages that actually run concurrent
# goroutines sharing state: netsim (scheduler handoff between process
# goroutines), simtcp and hipsim (pump/kernel processes over netsim),
# hipudp (real sockets: reader/timer goroutines vs callers), teredo
# (tunnel taps in scheduler context) and rubis (request handlers against
# the shared in-memory DB). rvs, hipdns and cloud are single-threaded
# sans-io today, but they sit directly on the control-plane path the
# concurrent layers drive, so they run under race too as cheap insurance
# against a goroutine slipping in. Everything else is sans-io
# single-threaded code already covered by `test`; re-running it under
# race only slowed the gate. hipudp's blocked callers sleep on condition
# variables, and a lost wake-up shows up as a hang, not a failure: it runs
# five times under a timeout.
RACE_PKGS = ./internal/netsim ./internal/simtcp ./internal/hipsim \
	./internal/teredo ./internal/rubis ./internal/faults \
	./internal/rvs ./internal/hipdns ./internal/cloud

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=5 -timeout 120s ./internal/hipudp

# Coverage report, not a gate (`check` does not run it): the tier-1 tests
# with every internal/ package instrumented. Each test binary writes every
# instrumented block, so a block appears once per binary; awk keeps its
# largest count, then prints the statements no test runs, per package,
# and the internal/ total.
COVER_DIR = .bench_build/cover

cover:
	mkdir -p $(COVER_DIR)
	$(GO) test -coverpkg=./internal/... -coverprofile=$(COVER_DIR)/profile.out ./... > $(COVER_DIR)/test.log
	@awk '$$1 == "mode:" { next } \
	{ n[$$1] = $$2; if (!($$1 in c) || $$3 > c[$$1]) c[$$1] = $$3 } \
	END { \
		for (b in n) { p = b; sub(/\/[^\/]*:.*/, "", p); tot[p] += n[b]; if (c[b] == 0) un[p] += n[b] } \
		for (p in tot) { printf "%-36s %5d of %5d statements uncovered\n", p, un[p], tot[p] | "sort"; T += tot[p]; U += un[p] } \
		close("sort"); printf "internal/ total: %d of %d statements uncovered\n", U, T \
	}' $(COVER_DIR)/profile.out

# Fast allocation smoke: the Seal/OpenAppend/Record benches report B/op and
# allocs/op, so each suite's open side (CTR, GCM, ChaCha) shows next to its
# seal side; the AllocsPerRun guard tests (run by `test`) enforce the
# 0-alloc contract.
# The scheduler microbenches ride along so a regression in the
# run-to-completion core (event dispatch, timer churn, process hand-off)
# shows up in B/op before it shows up in the sim_rubis workload; CPUUse is
# the one virtual-CPU charge path (Use and UseAsync share its task).
# LockstepBulk is the stream core's bulk path from Write to Read with a
# full send buffer: 0 B/op once its buffers have grown, as they slide in
# their arrays instead of regrowing. PumpBulk is hipudp's real data plane
# over loopback, 16 KiB writes from Conn.Write through the header+payload
# seal (esp's SealHdrAppend bench is its crypto half) into pooled frames,
# sendmmsg, recvmmsg and onFrames to Conn.Read: about 0 B/op once warm, so
# a transmit- or receive-path allocation shows here without running bench/.
# Fig2Request is one Figure 2 request per scenario on a warm simulated
# deployment, client to proxy to web tier to database and back: about a
# dozen allocs/op (the route's and the query's strings), so page, body,
# header or packet garbage on the request path shows here. CTRXor is
# keymat's AES-CTR keystream alone (the AES-NI kernel where the CPU has
# it) and must read 0 allocs/op; Solve is the puzzle search, reported per
# attempt.
bench-smoke:
	$(GO) test -run=NONE -bench='Seal|OpenAppend|Record|CTRXor|Solve|EventThroughput|TimerResetFire|ProcSleepWake|ProcContextSwitch|CPUUse|LockstepBulk|PumpBulk|Fig2Request' \
		-benchtime=10x -benchmem \
		./internal/esp ./internal/tlslite ./internal/keymat ./internal/puzzle ./internal/netsim ./internal/stream ./internal/hipudp ./internal/experiments

# Short fuzz pass over every fuzz target (go test allows one
# -fuzz pattern per invocation, hence one line per target), so the
# checked-in corpora and 30 s of fresh inputs run in the gate. esp.FuzzOpen
# has no keys, so it stops at the ICV check; keymat.FuzzCipherOpen and
# tlslite.FuzzOpenRecord hold the keys and fuzz what lies behind it, and
# keymat.FuzzCTRKeystream holds the CTR keystream (the AES-NI kernel where
# the CPU has it) to cipher.NewCTR's over fuzz-chosen keys, IVs and
# lengths. The twelfth target, hipudp.FuzzFrameDemux, feeds datagrams to
# a live stack's frame demux as an outsider would, split at an
# input-chosen UDP_GRO segment size (appendSegments) into one vector for
# onFrames, as readLoop does; the thirteenth, tlslite.FuzzHandshake, plays
# an arbitrary peer to Server and to Client; the fourteenth, stream.FuzzTransfer, runs two stream conns through
# input-chosen loss, duplication, reordering and ACK coalescing
# (stream.CoalesceACKs, as hipudp sends) and checks exactly-once,
# in-order delivery and the lend invariant. Each new interesting input is
# minimized for at most 1 s (the default is 60 s), so the 30 s go to
# fuzzing rather than to shrinking the first finds.
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzOpen$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/esp
	$(GO) test -run=NONE -fuzz=FuzzSealOpenRoundTrip$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/esp
	$(GO) test -run=NONE -fuzz=FuzzCipherOpen$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/keymat
	$(GO) test -run=NONE -fuzz=FuzzCTRKeystream$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/keymat
	$(GO) test -run=NONE -fuzz=FuzzOpenRecord$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/tlslite
	$(GO) test -run=NONE -fuzz=FuzzHandshake$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/tlslite
	$(GO) test -run=NONE -fuzz=FuzzReadRequest$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/microhttp
	$(GO) test -run=NONE -fuzz=FuzzReadResponse$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/microhttp
	$(GO) test -run=NONE -fuzz=FuzzParseMessage$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/hipdns
	$(GO) test -run=NONE -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/hipwire
	$(GO) test -run=NONE -fuzz=FuzzParseSegment$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/stream
	$(GO) test -run=NONE -fuzz=FuzzTransfer$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/stream
	$(GO) test -run=NONE -fuzz=FuzzDecodeData$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/teredo
	$(GO) test -run=NONE -fuzz=FuzzFrameDemux$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/hipudp

# Short-seed chaos run: drives the RUBiS tiers through the fault
# schedule (internal/faults) for all three scenarios and diffs the
# recovery/request-loss table against the committed golden. benchcloud
# prints one header line, the table, then a blank line; sed keeps the
# table.
chaos-smoke:
	$(GO) run ./cmd/benchcloud -run chaos -short -seed 1 | sed '1d;$$d' | \
		diff - internal/experiments/testdata/chaos_short_seed1.golden

# Short-seed storm run: evacuates every service VM off one physical host
# under inter-zone loss and a DNS CPU stall, and diffs the re-contact /
# recovery / shed table per transport tier against the committed golden
# (same framing as chaos-smoke).
storm-smoke:
	$(GO) run ./cmd/benchcloud -run storm -short -seed 1 | sed '1d;$$d' | \
		diff - internal/experiments/testdata/storm_short_seed1.golden

# Regenerate the tracked control-plane snapshot BENCH_CONTROL.json (the
# full-scale storm experiment: re-contact latency, recovery time, shed and
# retransmit counts per transport tier), which no BENCHMARK.json workload
# covers. Everything else is a BENCHMARK.json number: simulator host time
# is the sim_rubis workload and its netsim.* per-layer metrics, data-plane
# numbers (ESP seal/open GB/s per suite, real-UDP goodput, syscalls per
# packet) are per-layer metrics of the udp_* workloads:
# `cd bench && go run . -trace 1`. Commit the refreshed file when the
# numbers move for a reason. The snapshot is written to a temp file and
# renamed into place, so an interrupted or failing run can never leave a
# truncated tracked file behind.
bench:
	$(GO) run ./cmd/benchcloud -run storm -json > BENCH_CONTROL.json.tmp
	mv BENCH_CONTROL.json.tmp BENCH_CONTROL.json
	@cat BENCH_CONTROL.json

# Full Go benchmark sweep, including the paper-figure reproductions.
bench-full:
	$(GO) test -run=NONE -bench . -benchmem ./...
