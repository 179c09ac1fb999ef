// Command benchhost checks that BENCH_harness.json in the current
// directory was recorded on this host: its "host" fingerprint must equal
// the live one (internal/benchhost). scripts/verify.sh runs it before
// the throughput gates, so they never judge a baseline measured on
// another machine. On a mismatch it exits 1 and asks for a re-record.
//
// Usage: go run ./scripts/benchhost
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/benchhost"
)

func main() {
	data, err := os.ReadFile("BENCH_harness.json")
	if err != nil {
		fail("reading baseline: %v", err)
	}
	var rec struct {
		Host benchhost.Host `json:"host"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		fail("BENCH_harness.json: %v", err)
	}
	if now := benchhost.Current(); rec.Host != now {
		fail("BENCH_harness.json was recorded on %+v, this host is %+v", rec.Host, now)
	}
	fmt.Printf("BENCH_harness.json host matches: %+v\n", rec.Host)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchhost: "+format+"; run make bench\n", args...)
	os.Exit(1)
}
