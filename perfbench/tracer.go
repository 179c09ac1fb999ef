package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share
// its id; Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one branch per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	jobs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, jobID int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Job: jobID})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	s := t.begin(name, parent, -1)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(s)
	return d
}

// job records a closed-loop request as a root span with the server's
// reported simulation time as its child: the rest of the span is HTTP,
// queueing, memo lookup, compilation and JSON encoding.
func (t *tracer) job(o outcome) {
	end := time.Since(t.t0).Nanoseconds()
	start := end - o.latency.Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.jobs
	t.jobs++
	t.spans = append(t.spans, span{Name: "job." + o.job.Kind, Start: start, End: end, Parent: -1, Job: id})
	if o.res != nil && o.res.SimMS > 0 {
		root := len(t.spans) - 1
		sim := int64(o.res.SimMS * 1e6)
		t.spans = append(t.spans, span{Name: "job.sim", Start: end - sim, End: end, Parent: root, Job: id})
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func (t *tracer) selfTimes() (map[string]int64, map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	count := map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
		count[s.Name]++
	}
	return self, count
}

// summary prints each span name's self time and its share of all
// traced time.
func (t *tracer) summary() {
	self, count := t.selfTimes()
	var total int64
	names := make([]string, 0, len(self))
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("%-28s %8s %12s %7s\n", "span", "count", "self_ms", "share")
	for _, n := range names {
		fmt.Printf("%-28s %8d %12.3f %6.2f%%\n", n, count[n], float64(self[n])/1e6, 100*float64(self[n])/float64(total))
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
