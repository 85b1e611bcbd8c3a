# Development entry points. Everything is plain `go` underneath — the
# targets just pin the invocations CI and the docs refer to.
#
#   make build   compile every package and command
#   make fmt     fail if gofmt would change any file (and list those files)
#   make test    run the full test suite
#   make race    test suite under the race detector
#   make vet     go vet over every package
#   make lint    bbslint, the project's own analyzers (see ARCHITECTURE.md)
#   make bench   quick paper-figure benchmarks
#   make bench-module  vet + test the nested bench/ module (bbsperf)
#   make fuzz    run every fuzz target briefly (FUZZTIME to adjust)
#   make check   build + fmt + vet + lint + test + bench-module + race

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build fmt test race vet lint lint-fix-scope bench bench-module fuzz check

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## fmt: every .go file in the tree, bench/ included, must be gofmt-clean;
## the files gofmt would rewrite are listed on stderr
fmt:
	test -z "$$(gofmt -l . | tee /dev/stderr)"

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the full test suite under the race detector (the parallel
## mining engine's concurrency tests are only meaningful here)
race:
	$(GO) test -race ./...

## vet: static analysis over every package
vet:
	$(GO) vet ./...

## lint: the project-specific analyzers — seven checks covering concurrency,
## determinism, error handling, snapshot immutability and hot-path
## allocation (see internal/lint/README.md for the catalogue).
## Exit 1 means findings; fix them or suppress with
## //lint:ignore <analyzer> <reason>. ./... reaches the nested bench/
## module too (bbsperf).
lint:
	$(GO) run ./cmd/bbslint ./...

## lint-fix-scope: per-analyzer counts of //lint:ignore suppression
## directives — the debt the linter is not seeing. Keep it flat or
## shrinking: TestSuppressionBudget (cmd/bbslint) fails unless each count
## equals the Suppressions column of internal/lint/README.md.
lint-fix-scope:
	$(GO) run ./cmd/bbslint -suppressions ./...

## bench: the paper-figure benchmarks plus the workers sweep (quick form;
## `go run ./cmd/bbsbench -fig all` regenerates the full figures)
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-module: bench/ is its own Go module (the frozen benchmark, bbsperf),
## so the ./... patterns above never compile it; vet and test it from inside
## so a change to a package it imports cannot break it unnoticed
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## fuzz: run each fuzz target for FUZZTIME (go fuzzing accepts one target
## per invocation, hence the one-per-line form)
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzHasherPositions$$' -fuzztime $(FUZZTIME) ./internal/sighash
	$(GO) test -run '^$$' -fuzz '^FuzzSignatureBits$$' -fuzztime $(FUZZTIME) ./internal/sighash
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBBS$$' -fuzztime $(FUZZTIME) ./internal/sigfile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/txdb
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecord$$' -fuzztime $(FUZZTIME) ./internal/txdb
	$(GO) test -run '^$$' -fuzz '^FuzzParseBasketLine$$' -fuzztime $(FUZZTIME) ./internal/txdb
	$(GO) test -run '^$$' -fuzz '^FuzzSetWords$$' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz '^FuzzGrowAppend$$' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz '^FuzzSparseSlice$$' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz '^FuzzDenseSliceSnapshots$$' -fuzztime $(FUZZTIME) ./internal/bitvec

## check: everything CI gates on — build, gofmt, vet, lint, tests (root
## module and bench/), race
check: build fmt vet lint test bench-module race
