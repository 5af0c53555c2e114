# Build, test and benchmark entry points. The bench targets are the
# performance counterpart of the golden-figure tests: `make bench`
# refreshes BENCH_results.json (generated, not committed), `make
# bench-check` gates the current tree against the committed
# BENCH_baseline.json, and `make bench-baseline` promotes fresh results
# to the new baseline (do this only on the reference machine, with the
# regression understood). `make loadgen-smoke` drives a short
# closed-loop ingest run under the race detector and fails if any
# acked batch is lost or double-counted. `make pop-smoke` streams a
# 10^4-host churned study under the race detector and fails unless
# every scheduled run is accounted exactly once. `make cluster-smoke`
# drives the routed 3-node cluster under the race detector, SIGKILLs
# one node mid-upload, and fails unless the merged multi-node dataset
# holds every acked batch exactly once; `make cluster-smoke-v2` is the
# same run with the fleet pinned to the v2 JSON framing. `make e2e`
# runs the process-level chaos suite (real binaries, kill -9 inside the
# journal fsync window, seeded regression replay); `make e2e-smoke` and
# `make e2e-seeds` run its halves. `make loc` prints non-test Go lines
# per package, for the root module and for fleetbench/, with and
# without comment and blank lines.

GO ?= go
THRESHOLD ?= 0.15

.PHONY: all build test race bench bench-check bench-baseline loadgen-smoke loadgen-smoke-v2 pop-smoke cluster-smoke cluster-smoke-v2 e2e e2e-smoke e2e-smoke-v3 e2e-restart e2e-seeds loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) run ./cmd/uucs-bench -out BENCH_results.json

bench-check:
	$(GO) run ./cmd/uucs-bench -out BENCH_results.json -compare BENCH_baseline.json -threshold $(THRESHOLD)

bench-baseline:
	$(GO) run ./cmd/uucs-bench -out BENCH_baseline.json

loadgen-smoke:
	$(GO) run -race ./cmd/uucs-loadgen -clients 8 -duration 2s -protocol v3 -smoke

# The legacy-framing gate: the same closed-loop ingest with the fleet
# pinned to the v2 JSON framing, proving rolling upgrades stay safe.
loadgen-smoke-v2:
	$(GO) run -race ./cmd/uucs-loadgen -clients 8 -duration 2s -protocol v2 -smoke

pop-smoke:
	$(GO) run -race ./cmd/uucs-internet -hosts 10000 -runs 2 -churn -smoke

cluster-smoke:
	$(GO) run -race ./cmd/uucs-loadgen -nodes n1,n2,n3 -kill-node n2 -clients 8 -batches 300 -protocol v3 -smoke

cluster-smoke-v2:
	$(GO) run -race ./cmd/uucs-loadgen -nodes n1,n2,n3 -kill-node n2 -clients 8 -batches 300 -protocol v2 -smoke

e2e:
	scripts/e2e/run.sh

e2e-smoke:
	scripts/e2e/run.sh -smoke

# The crash/restart smoke with every client pinned to the v3 binary
# framing, so the journal replayed across the kill holds verbatim
# binary frames.
e2e-smoke-v3:
	E2E_PROTOCOL=v3 scripts/e2e/run.sh -smoke

# The segmented-journal restart smoke: SIGKILL after several segments
# seal, restart, exactly-once convergence from the multi-segment
# journal.
e2e-restart:
	scripts/e2e/run.sh -restart

e2e-seeds:
	scripts/e2e/run.sh -seeds

loc:
	scripts/loc.sh
