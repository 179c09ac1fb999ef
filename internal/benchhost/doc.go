// Package benchhost fingerprints the machine a throughput baseline is
// recorded on: the CPU model, GOMAXPROCS and the Go toolchain version.
// Throughput numbers are only comparable between runs with the same
// fingerprint. `make bench` stores it in BENCH_harness.json next to the
// baselines, and scripts/benchhost, run by scripts/verify.sh before its
// throughput gates, fails unless the live fingerprint matches.
package benchhost
