# Standard checks for the examl-go reproduction. `make ci` is the full
# gate: gofmt + vet + build + tests + a race-detector pass over every
# package that spawns goroutines (the §V hybrid thread pool, both
# engines, and the telemetry bit-identity test in the root package).

GO ?= go
GOFMT ?= gofmt

# Packages with real concurrency: the worker pool, the threaded kernels,
# both engines, the fault path (multi-goroutine worlds and the TCP
# survivor-recovery protocol), the message-passing runtime, the
# telemetry collector, and the public API (whose root tests include
# the telemetry bit-identity check).
RACE_PKGS = ./internal/threadpool/... \
            ./internal/likelihood/... \
            ./internal/enginecore/... \
            ./internal/search/... \
            ./internal/decentral/... \
            ./internal/forkjoin/... \
            ./internal/fault/... \
            ./internal/mpi/... \
            ./internal/mpinet/... \
            ./internal/telemetry/... \
            ./internal/metrics/... \
            ./internal/service/... \
            ./internal/phyrun/... \
            .

.PHONY: all fmt vet build test race bench bench-e2e-smoke kernel-bce fuzz-smoke smoke-net smoke-threads smoke-ranks smoke-trace smoke-phyrun smoke-alloc ci clean

all: ci

fmt:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# vet runs twice: natively (on amd64 that includes asmdecl over the
# likelihood package's AVX2 routines) and for arm64, where the same
# package builds without them (lanes_other.go), so the portable path
# keeps compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -bench=. -benchmem .

# bench-e2e-smoke is one traced end-to-end benchmark run
# (benchmark/README.md) of the partition-rich loopback-TCP workload. It
# fails unless every inference passed its checks and the run issued at
# most SMOKE_MAX_PROBES model-parameter probes and at most
# SMOKE_MAX_COLLECTIVES collectives per inference. Both counts repeat
# exactly, so unlike a time they can gate: 141.75 probes (the mean over
# the run's four inferences; 193 under the fixed-count golden section,
# before that 205 and 349, docs/PERFORMANCE.md §7 and §9) and 282.25
# collectives (331.5 before the lockstep Brent search, 1098 before an SPR
# prune point scored all its candidates through one,
# docs/PERFORMANCE.md §8). The gates are those counts + 5 % and + 10 %.
# The same run must also hold at most SMOKE_MAX_LIVE_HEAP_MB of live
# heap (mem.live_heap_mb): 14.38 MB since the distribution keeps
# partitions whole on a rank (19.0 MB while every rank held a slice of
# every partition, docs/PERFORMANCE.md §10); the gate is that reading
# + 10 %.
#
# It then runs the two PSR workloads once each and fails unless the run's
# own output checks passed (every op's final likelihood against the
# reference score, the run's median shortfall and mean Robinson-Foulds
# distance): a change to the site-rate optimiser that the benchmark would
# report as incorrect is refused here first. sites-psr-t2 runs untraced,
# as a timed benchmark run does. parts-m-psr-fj runs traced: it
# is fork-join, so its traversal descriptors go on the wire, and its
# mpi.bytes.traversal-descriptor per inference must equal
# SMOKE_DESCRIPTOR_BYTES, 2743985 at seed 5 (Table I's dominant class;
# internal/traversal's byte-golden tests pin the descriptor and
# gradient-plan frames themselves). The count repeats exactly, and no
# change that leaves the wire format alone moves it. It was 2735053 while
# a gradient plan's convergence mask held one byte per edge; the mask now
# holds one bit per (edge, class) slot, so each of the 203 masked plans of
# an inference grows from 29 bytes to 73 (20 partitions × 29 edges bits),
# 44 bytes each.
SMOKE_MAX_PROBES = 148
SMOKE_MAX_COLLECTIVES = 310
SMOKE_MAX_LIVE_HEAP_MB = 15.8
SMOKE_DESCRIPTOR_BYTES = 2743985
bench-e2e-smoke:
	@out=$$(bash benchmark/run.sh --workload parts-gamma-tcp --seed 5 --seconds 10 --trace 1 | tail -n 1) && \
	case "$$out" in *'"correct":true'*) ;; *) echo "bench-e2e-smoke: run not correct: $$out"; exit 1;; esac && \
	probes=$$(printf '%s' "$$out" | sed -n 's/.*"engine\.evaluate_probe\.calls":{"value":\([0-9]*\).*/\1/p') && \
	{ test -n "$$probes" && test "$$probes" -le $(SMOKE_MAX_PROBES) || \
		{ echo "bench-e2e-smoke: engine.evaluate_probe.calls = '$$probes' per inference, want <= $(SMOKE_MAX_PROBES)"; exit 1; }; } && \
	colls=$$(printf '%s' "$$out" | sed -n 's/.*"mpi\.collectives":{"value":\([0-9]*\).*/\1/p') && \
	{ test -n "$$colls" && test "$$colls" -le $(SMOKE_MAX_COLLECTIVES) || \
		{ echo "bench-e2e-smoke: mpi.collectives = '$$colls' per inference, want <= $(SMOKE_MAX_COLLECTIVES)"; exit 1; }; } && \
	heap=$$(printf '%s' "$$out" | sed -n 's/.*"mem\.live_heap_mb":{"value":\([0-9.]*\).*/\1/p') && \
	{ test -n "$$heap" && awk -v h="$$heap" -v max=$(SMOKE_MAX_LIVE_HEAP_MB) 'BEGIN { exit !(h <= max) }' || \
		{ echo "bench-e2e-smoke: mem.live_heap_mb = '$$heap', want <= $(SMOKE_MAX_LIVE_HEAP_MB)"; exit 1; }; } && \
	echo "bench-e2e-smoke: correct, $$probes model-parameter probes, $$colls collectives and $$heap MB live heap per inference OK"
	@out=$$(bash benchmark/run.sh --workload sites-psr-t2 --seed 5 --seconds 10 --trace 0 | tail -n 1) && \
	case "$$out" in *'"correct":true'*'"failed":0,'*) echo "bench-e2e-smoke: sites-psr-t2 correct, no failed op OK";; \
		*) echo "bench-e2e-smoke: sites-psr-t2: want \"correct\":true with \"failed\":0, got: $$out"; exit 1;; esac
	@out=$$(bash benchmark/run.sh --workload parts-m-psr-fj --seed 5 --seconds 10 --trace 1 | tail -n 1) && \
	case "$$out" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-e2e-smoke: parts-m-psr-fj: want \"correct\":true with \"failed\":0, got: $$out"; exit 1;; esac && \
	desc=$$(printf '%s' "$$out" | sed -n 's/.*"mpi\.bytes\.traversal-descriptor":{"value":\([0-9.]*\).*/\1/p') && \
	{ test "$$desc" = "$(SMOKE_DESCRIPTOR_BYTES)" || \
		{ echo "bench-e2e-smoke: parts-m-psr-fj mpi.bytes.traversal-descriptor = '$$desc' per inference, want exactly $(SMOKE_DESCRIPTOR_BYTES)"; exit 1; }; } && \
	echo "bench-e2e-smoke: parts-m-psr-fj correct, no failed op, $$desc descriptor bytes per inference OK"

# kernel-bce counts the bounds checks the compiler leaves in the files
# that hold the likelihood block workers and fails when there are more
# than KERNEL_BCE_MAX. The site loops of the Newview, evaluation,
# sum-table and insertion workers index plane windows of the block's
# width and compile without a per-element check (docs/PERFORMANCE.md
# §6); what is counted here is what remains by design — one check per
# window taken, the gathers from tip tables (indexed by input data) and
# the per-site P-matrix pick under PSR. It was 234 while each Γ operand
# shape had a worker of its own and a cherry copied its CLV column from a
# tip-tip pair table, checking every store and every pair-table read per
# site, and the PSR sum-table fill had an inner-inner worker besides the
# one for every shape; one worker per operation, tip flags in place of
# the shapes, left 184. It was 238 while the Γ sum table was
# pattern-major, its fill's stores and its derivative's row slices
# checked per site; the plane-major table is read and written through
# windows. It was 184 while gamma.go and psr.go held the derivative
# workers (4 + 6 checks) and each model had its own insertion-score
# tail; with the workers in soa_gamma.go and soa_psr.go and one tail
# for both models (sumInsertionLnl) it is 177. The count is a property
# of the source and the compiler, not of the machine: it repeats exactly
# under GOTOOLCHAIN=local (go1.24), so like the two counts above it can
# gate.
# A new check inside a site loop shows as a count above the gate; the
# listing per file says where to look. The Go loops that continue after
# the vector lanes (lanes.go) start at the lane count; what they check is
# a tip side's table row.
KERNEL_BCE_MAX = 177
KERNEL_BCE_FILES = soa_gamma.go soa_psr.go insertion.go
kernel-bce:
	@out=$$(GOTOOLCHAIN=local $(GO) build -gcflags=-d=ssa/check_bce/debug=1 ./internal/likelihood 2>&1 | grep ': Found Is' || true); \
	total=0; \
	for f in $(KERNEL_BCE_FILES); do \
		n=$$(printf '%s\n' "$$out" | grep -c "/$$f:" || true); \
		echo "kernel-bce: $$f $$n"; total=$$((total + n)); \
	done; \
	test "$$total" -gt 0 || { echo "kernel-bce: the compiler reported no bounds checks at all: is -d=ssa/check_bce still understood?"; exit 1; }; \
	test "$$total" -le $(KERNEL_BCE_MAX) || { echo "kernel-bce: $$total bounds checks left in the block-worker files, want <= $(KERNEL_BCE_MAX)"; exit 1; }; \
	echo "kernel-bce: $$total bounds checks left in the block-worker files (<= $(KERNEL_BCE_MAX)) OK"

# fuzz-smoke gives every native fuzz target a short pass over its seed
# corpus and 10 s of mutation (ROADMAP 3c): the decoders of bytes a peer
# sent (the traversal plans, a TCP data frame and a stream of frames, a
# rendezvous hello and welcome) and of files a user hands in (PHYLIP,
# partition files, Newick, checkpoints, a campaign manifest, JSONL
# traces) must fail with an error, never a panic, a loaded manifest must
# save and load back to itself, the frame parser must read the same
# frames however its bytes arrive, a hello the rendezvous coordinator
# admits must take a free seat of its world, a submitted JobSpec the
# daemon accepts must meet every bound a worker relies on, and the Γ
# site lanes of every width the CPU runs must match the Go loops bit for
# bit with every slice they touch against a PROT_NONE page
# (FuzzGammaLanes, linux/amd64).
fuzz-smoke:
	$(GO) test ./internal/traversal -run '^$$' -fuzz '^FuzzDecodeInsertPlan$$' -fuzztime 10s
	$(GO) test ./internal/traversal -run '^$$' -fuzz '^FuzzDecodeDescriptor$$' -fuzztime 10s
	$(GO) test ./internal/traversal -run '^$$' -fuzz '^FuzzDecodeGradPlan$$' -fuzztime 10s
	$(GO) test ./internal/enginecore -run '^$$' -fuzz '^FuzzDecodeSiteRateResolution$$' -fuzztime 10s
	$(GO) test ./internal/msa -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s
	$(GO) test ./internal/likelihood -run '^$$' -fuzz '^FuzzGammaLanes$$' -fuzztime 10s
	$(GO) test ./internal/mpinet -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s
	$(GO) test ./internal/mpinet -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime 10s
	$(GO) test ./internal/mpinet -run '^$$' -fuzz '^FuzzWelcome$$' -fuzztime 10s
	$(GO) test ./internal/mpinet -run '^$$' -fuzz '^FuzzHello$$' -fuzztime 10s
	$(GO) test ./internal/msa -run '^$$' -fuzz '^FuzzParsePhylip$$' -fuzztime 10s
	$(GO) test ./internal/msa -run '^$$' -fuzz '^FuzzParsePartitionFile$$' -fuzztime 10s
	$(GO) test ./internal/tree -run '^$$' -fuzz '^FuzzParseNewick$$' -fuzztime 10s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 10s
	$(GO) test ./internal/service/client -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 10s
	$(GO) test ./internal/phyrun -run '^$$' -fuzz '^FuzzLoadManifest$$' -fuzztime 10s
	$(GO) test ./internal/phytrace -run '^$$' -fuzz '^FuzzTraceParse$$' -fuzztime 10s

# smoke-alloc runs the parts-m-psr-fj shape through the fork-join binary
# (seqgen 16 taxa × 20 genes × 100 bp, seed 5; raxml-light -m PSR -M -np 2
# -iter 2) and fails when the P-matrix sets its kernels carved from new
# storage, pset_allocs summed over the ranks, exceed SMOKE_MAX_PSET_ALLOCS.
# The count repeats exactly: 2392. The bound comes from the store's
# (internal/likelihood/pstore.go): each of the 20 kernels keeps at most 3
# sets per edge (3 × 29 = 87), carves storage 8 sets at a time, and may
# carve that much once more as site-rate resolutions raise its category
# count (a chunk made for fewer categories holds fewer sets of more) —
# 20 × 2 × (87 + 8) = 3800. A miss that allocates its own set again reads
# about 17 700.
SMOKE_MAX_PSET_ALLOCS = 3800
smoke-alloc:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/ ./cmd/raxml-light ./cmd/seqgen && \
	$$tmp/seqgen -taxa 16 -partitions 20 -genelen 100 -seed 5 -o $$tmp/data >/dev/null && \
	$$tmp/raxml-light -s $$tmp/data.phy -q $$tmp/data.parts.txt -m PSR -M -np 2 -iter 2 -p 5 \
		-stats-json $$tmp/stats.json -n $$tmp/run >/dev/null && \
	sets=$$(awk '/^      "pset_allocs":/ { s += $$2 } END { print s + 0 }' $$tmp/stats.json) && \
	{ test "$$sets" -gt 0 && test "$$sets" -le $(SMOKE_MAX_PSET_ALLOCS) || \
		{ echo "smoke-alloc: pset_allocs = '$$sets' per inference, want 1..$(SMOKE_MAX_PSET_ALLOCS)"; exit 1; }; } && \
	echo "smoke-alloc: $$sets P-matrix sets carved per inference OK"

# smoke-net runs real multi-process inferences over loopback TCP
# (docs/NETWORKING.md). First a decentralized one: simulate a tiny
# dataset, then examl -net-launch forks 4 worker processes that
# rendezvous and must all finish. Then a fork-join one, raxml-light -M
# -np 3 -net-launch, whose workers decode every frame the master sends —
# descriptors, gradient plans, insertion plans — from the wire: it must
# write the same best tree as the in-process -np 3 run and reach the same
# log likelihood to the last bit after every iteration (the trace's
# "iter" events, as in smoke-ranks), and it must have verified some SPR
# insertion (the spr_verifications total > 0 in -stats-json), so that one
# branch's one-edge gradient plans crossed the wire too. The in-process
# run's trace must hold one "perf" event per rank, three, each with engine
# calls and receives counted: the master's and the workers' counters are
# harvested where the run driver harvests every rank's, after the rank's
# body. So must the -net-launch run's per-process traces, each with
# receives counted: TCP receives count as polled or parked too.
smoke-net:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/ ./cmd/examl ./cmd/raxml-light ./cmd/seqgen && \
	$$tmp/seqgen -taxa 10 -partitions 2 -genelen 60 -seed 33 -o $$tmp/tiny && \
	$$tmp/examl -s $$tmp/tiny.phy -q $$tmp/tiny.parts.txt -np 4 -net-launch \
		-iter 3 -n $$tmp/smoke && \
	test -s $$tmp/smoke.bestTree.nwk && \
	$$tmp/seqgen -taxa 12 -partitions 3 -genelen 80 -seed 33 -o $$tmp/fj >/dev/null && \
	$$tmp/raxml-light -s $$tmp/fj.phy -q $$tmp/fj.parts.txt -M -np 3 \
		-trace $$tmp/ip.jsonl -n $$tmp/ip >/dev/null && \
	$$tmp/raxml-light -s $$tmp/fj.phy -q $$tmp/fj.parts.txt -M -np 3 -net-launch \
		-stats-json $$tmp/net.json -trace $$tmp/net.jsonl -n $$tmp/net >/dev/null && \
	sed -n 's/.*"ev":"iter","rank":0,.*"lnl":\([^,]*\),.*/\1/p' $$tmp/ip.jsonl > $$tmp/ip.lnl && \
	sed -n 's/.*"ev":"iter","rank":0,.*"lnl":\([^,]*\),.*/\1/p' $$tmp/net.jsonl.rank0 > $$tmp/net.lnl && \
	test -s $$tmp/ip.lnl && cmp $$tmp/ip.lnl $$tmp/net.lnl && \
	cmp $$tmp/ip.bestTree.nwk $$tmp/net.bestTree.nwk && \
	perf=$$(sed -n 's/.*"ev":"perf","rank":\([0-9]*\),.*"engine_calls":\([0-9]*\),.*"recv_polled":\([0-9]*\),"recv_parked":\([0-9]*\),.*/\1:\2:\3:\4/p' $$tmp/ip.jsonl | paste -sd ' ' -) && \
	{ echo "$$perf" | awk '{ for (i = 1; i <= NF; i++) { split($$i, f, ":"); if (f[2] > 0 && f[3] + f[4] > 0) n++ } } END { exit !(NF == 3 && n == 3) }' || \
		{ echo "smoke-net: in-process fork-join perf events (rank:engine_calls:recv_polled:recv_parked) '$$perf': want 3, each with engine calls and receives"; exit 1; }; } && \
	netperf=$$(for f in $$tmp/net.jsonl.rank*; do sed -n 's/.*"ev":"perf",.*"recv_polled":\([0-9]*\),"recv_parked":\([0-9]*\),.*/\1:\2/p' $$f; done | paste -sd ' ' -) && \
	{ echo "$$netperf" | awk '{ for (i = 1; i <= NF; i++) { split($$i, f, ":"); if (f[1] + f[2] > 0) n++ } } END { exit !(NF == 3 && n == 3) }' || \
		{ echo "smoke-net: -net-launch fork-join perf events (recv_polled:recv_parked) '$$netperf': want 3, each with receives"; exit 1; }; } && \
	verif=$$(sed -n 's/^  "spr_verifications": \([0-9]*\),*$$/\1/p' $$tmp/net.json) && \
	{ test -n "$$verif" && test "$$verif" -gt 0 || \
		{ echo "smoke-net: fork-join spr_verifications='$$verif', want some"; exit 1; }; } && \
	echo "smoke-net: 4-process decentralized run OK; 3-process fork-join run same lnL bits after every iteration and same tree as in-process, $$verif verifications; in-process perf events $$perf and -net-launch receives $$netperf OK"

# smoke-threads is the §V hybrid drill at the CLI (docs/PERFORMANCE.md §6,
# docs/DETERMINISM.md §2): the same PSR inference of a 16 × 1500 bp
# alignment at one thread and at two must write byte-identical best trees
# and reach the same log likelihood to the last bit after every iteration
# (the trace's "iter" events print it in full), and the two-thread run
# must have executed every engine call as at most one pool dispatch that
# woke a parked worker at most once — counters that repeat or are bounded
# by construction, so they can gate where a time cannot. On a host whose
# /proc/cpuinfo lists avx2 the run's lane share must be at least
# SMOKE_MIN_LANE_SHARE: every PSR site runs in vector lanes (there is no
# tail), so a silent fall back to the Go loops fails here.
SMOKE_MIN_LANE_SHARE = 0.99
smoke-threads:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/ ./cmd/examl ./cmd/seqgen && \
	$$tmp/seqgen -taxa 16 -partitions 1 -genelen 1500 -seed 33 -o $$tmp/d >/dev/null && \
	for T in 1 2; do \
		$$tmp/examl -s $$tmp/d.phy -q $$tmp/d.parts.txt -m PSR -y -iter 3 -p 7 -T $$T \
			-stats-json $$tmp/t$$T.json -trace $$tmp/t$$T.jsonl -n $$tmp/t$$T >/dev/null || exit 1; \
		sed -n 's/.*"ev":"iter".*"lnl":\([^,]*\),.*/\1/p' $$tmp/t$$T.jsonl > $$tmp/t$$T.lnl; \
	done && \
	test -s $$tmp/t1.lnl && cmp $$tmp/t1.lnl $$tmp/t2.lnl && \
	cmp $$tmp/t1.bestTree.nwk $$tmp/t2.bestTree.nwk && \
	field() { sed -n "s/^  \"$$1\": \([0-9]*\),*$$/\1/p" $$tmp/t2.json; } && \
	calls=$$(field engine_calls) && disp=$$(field pool_dispatches) && wakes=$$(field pool_wakes) && \
	{ test -n "$$calls" && test -n "$$disp" && test -n "$$wakes" && test "$$disp" -gt 0 && \
	  test "$$disp" -le "$$calls" && test "$$wakes" -le "$$calls" || \
		{ echo "smoke-threads: engine_calls='$$calls' pool_dispatches='$$disp' pool_wakes='$$wakes': want 0 < dispatches <= calls and wakes <= calls"; exit 1; }; } && \
	share=$$(sed -n 's/^  "lane_share": \([0-9.e+-]*\),*$$/\1/p' $$tmp/t2.json) && \
	if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then \
		awk -v s="$$share" -v min=$(SMOKE_MIN_LANE_SHARE) 'BEGIN { exit !(s != "" && s + 0 >= min) }' || \
			{ echo "smoke-threads: lane_share='$$share' on an AVX2 host, want >= $(SMOKE_MIN_LANE_SHARE)"; exit 1; }; \
	fi && \
	echo "smoke-threads: -T 1 and -T 2 same lnL bits after every iteration, same tree; $$calls engine calls, $$disp pool dispatches, $$wakes wakes, lane share $$share OK"

# smoke-ranks is the same drill for in-process ranks (docs/PERFORMANCE.md
# §6 "Waiting", docs/DETERMINISM.md §2): the Γ inference of the same
# 16 × 1500 bp alignment at -np 2 under GOMAXPROCS=1, where every receive
# parks, and under GOMAXPROCS=2, where receives poll before they park,
# must write byte-identical best trees and reach the same log likelihood
# to the last bit after every iteration. A world polls only when each of
# its ranks can hold a processor, so the GOMAXPROCS=1 leg and a -np 3 leg
# under GOMAXPROCS=2 must count no polled receive (and some parked ones),
# and the polling leg some polled ones: counts that are zero by
# construction, so they can gate where a time cannot. On a host whose
# /proc/cpuinfo lists avx512f, avx512dq and avx512bw every leg must report
# lane_width 8 and lane_share exactly 1: the Γ twin of smoke-threads' PSR
# gate — at eight lanes every Γ site runs in lanes, the last 1–7 of a block
# under a mask, so a silent fallback to four lanes (whose tail of up to
# three sites is Go) shows.
smoke-ranks:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/ ./cmd/examl ./cmd/seqgen && \
	$$tmp/seqgen -taxa 16 -partitions 1 -genelen 1500 -seed 33 -o $$tmp/d >/dev/null && \
	for leg in 1:2 2:2 2:3; do \
		P=$${leg%:*}; N=$${leg#*:}; \
		GOMAXPROCS=$$P $$tmp/examl -s $$tmp/d.phy -q $$tmp/d.parts.txt -m GAMMA -y -iter 3 -p 7 -np $$N \
			-stats-json $$tmp/p$$P-np$$N.json -trace $$tmp/p$$P-np$$N.jsonl -n $$tmp/p$$P-np$$N >/dev/null || exit 1; \
		sed -n 's/.*"ev":"iter","rank":0,.*"lnl":\([^,]*\),.*/\1/p' $$tmp/p$$P-np$$N.jsonl > $$tmp/p$$P-np$$N.lnl; \
	done && \
	test -s $$tmp/p1-np2.lnl && cmp $$tmp/p1-np2.lnl $$tmp/p2-np2.lnl && \
	cmp $$tmp/p1-np2.bestTree.nwk $$tmp/p2-np2.bestTree.nwk && \
	field() { sed -n "s/^  \"$$2\": \([0-9]*\),*$$/\1/p" $$tmp/$$1.json; } && \
	for run in p1-np2 p2-np3; do \
		polled=$$(field $$run recv_polled) && parked=$$(field $$run recv_parked) && \
		{ test "$$polled" = 0 && test -n "$$parked" && test "$$parked" -gt 0 || \
			{ echo "smoke-ranks: $$run recv_polled='$$polled' recv_parked='$$parked': want 0 polled and some parked"; exit 1; }; }; \
	done && \
	polled=$$(field p2-np2 recv_polled) && \
	{ test -n "$$polled" && test "$$polled" -gt 0 || \
		{ echo "smoke-ranks: p2-np2 recv_polled='$$polled': want some polled receives"; exit 1; }; } && \
	if grep -qw avx512f /proc/cpuinfo 2>/dev/null && grep -qw avx512dq /proc/cpuinfo && grep -qw avx512bw /proc/cpuinfo; then \
		for run in p1-np2 p2-np2 p2-np3; do \
			share=$$(sed -n 's/^  "lane_share": \([0-9.e+-]*\),*$$/\1/p' $$tmp/$$run.json) && width=$$(field $$run lane_width) && \
			{ test "$$share" = 1 && test "$$width" = 8 || \
				{ echo "smoke-ranks: $$run lane_share='$$share' lane_width='$$width' on an AVX-512 host, want 1 and 8"; exit 1; }; }; \
		done; \
	fi && \
	echo "smoke-ranks: -np 2 under GOMAXPROCS=1 and 2 same lnL bits after every iteration, same tree; $$polled polled receives at GOMAXPROCS=2, none where the gate is off; Γ lane width $$(field p2-np2 lane_width), lane share $$(sed -n 's/^  "lane_share": \([0-9.e+-]*\),*$$/\1/p' $$tmp/p2-np2.json) OK"

# smoke-trace exercises the observability plane end to end
# (docs/OBSERVABILITY.md): a 2-process loopback run streams per-rank
# JSONL traces, phytrace merges them into a Chrome trace and must find
# a nonzero critical path (-check).
smoke-trace:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/ ./cmd/examl ./cmd/seqgen ./cmd/phytrace && \
	$$tmp/seqgen -taxa 10 -partitions 2 -genelen 60 -seed 33 -o $$tmp/tiny && \
	$$tmp/examl -s $$tmp/tiny.phy -q $$tmp/tiny.parts.txt -np 2 -net-launch \
		-iter 2 -trace $$tmp/run.jsonl -n $$tmp/smoke && \
	$$tmp/phytrace -check -o $$tmp/run.chrome.json \
		$$tmp/run.jsonl.rank0 $$tmp/run.jsonl.rank1 && \
	test -s $$tmp/run.chrome.json && \
	echo "smoke-trace: 2-rank trace merge + critical path OK"

# smoke-phyrun exercises the campaign orchestrator's resume contract
# (docs/ORCHESTRATOR.md): run a small multi-start + bootstrap campaign
# to completion, run the same campaign again but kill the process after
# 3 durable tasks (-die-after-tasks exits 7), try to resume it with
# another -iter (refused: the manifest pins the inputs digest, and stays
# byte-unchanged), resume it from the manifest at a different worker
# count, and require every output (best tree, supports, consensus,
# replicates, campaign.json) byte-identical between the
# interrupted-and-resumed run and the uninterrupted one. The full run's
# log must carry the phyrun: prefix once per line.
smoke-phyrun:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/ ./cmd/phyrun && \
	$$tmp/phyrun -sim-taxa 8 -sim-genelen 60 -sim-seed 33 -p 7 \
		-starts 2 -parsimony-starts 1 -bootstrap 4 -iter 2 -workers 3 \
		-n $$tmp/full >$$tmp/full.log 2>&1 && \
	! grep '^phyrun: phyrun:' $$tmp/full.log && \
	{ $$tmp/phyrun -sim-taxa 8 -sim-genelen 60 -sim-seed 33 -p 7 \
		-starts 2 -parsimony-starts 1 -bootstrap 4 -iter 2 -workers 2 \
		-n $$tmp/res -campaign $$tmp/res.campaign.manifest \
		-die-after-tasks 3 >/dev/null 2>&1; \
	  test $$? -eq 7; } && \
	cp $$tmp/res.campaign.manifest $$tmp/killed.manifest && \
	! $$tmp/phyrun -sim-taxa 8 -sim-genelen 60 -sim-seed 33 -p 7 \
		-starts 2 -parsimony-starts 1 -bootstrap 4 -iter 3 -workers 2 \
		-n $$tmp/res -campaign $$tmp/res.campaign.manifest >/dev/null 2>&1 && \
	cmp $$tmp/killed.manifest $$tmp/res.campaign.manifest && \
	$$tmp/phyrun -sim-taxa 8 -sim-genelen 60 -sim-seed 33 -p 7 \
		-starts 2 -parsimony-starts 1 -bootstrap 4 -iter 2 -workers 4 \
		-n $$tmp/res -campaign $$tmp/res.campaign.manifest >/dev/null 2>&1 && \
	for f in bestTree.nwk support.nwk consensus.nwk bootstraps.nwk campaign.json; do \
		cmp $$tmp/full.$$f $$tmp/res.$$f || exit 1; \
	done && \
	echo "smoke-phyrun: kill-and-resume campaign bit-identical, resume with other inputs refused OK"

ci: fmt vet build test bench-e2e-smoke kernel-bce fuzz-smoke race smoke-net smoke-threads smoke-ranks smoke-trace smoke-phyrun smoke-alloc

clean:
	$(GO) clean ./...
