package main

import (
	"strings"
	"testing"
	"time"
)

// TestPerturbedExpectationFails checks that the benchmark reports a
// reply that disagrees with the recorded counters as a failure, and
// that the unperturbed table passes the same run.
func TestPerturbedExpectationFails(t *testing.T) {
	const seed = 7
	first, ok := fullSweep(seed).next()
	if !ok {
		t.Fatal("empty full-sweep sequence")
	}
	for _, perturb := range []bool{false, true} {
		exp, err := loadExpectations("expected.tsv")
		if err != nil {
			t.Fatal(err)
		}
		if perturb {
			c := exp.counters[first.Key]
			c.Conflict++
			exp.counters[first.Key] = c
		}
		rep, err := measure(options{workload: "full-sweep", seed: seed, window: 300 * time.Millisecond, exp: exp})
		if err != nil {
			t.Fatal(err)
		}
		if perturb {
			if rep.Correct || rep.Failed == 0 || !strings.Contains(strings.Join(rep.failures, "\n"), first.Key) {
				t.Errorf("perturbed %s: correct=%v failed=%d failures=%q", first.Key, rep.Correct, rep.Failed, rep.failures)
			}
		} else if !rep.Correct || rep.Failed != 0 {
			t.Errorf("unperturbed run: failed=%d failures=%q", rep.Failed, rep.failures)
		}
	}
}

// TestSequencesNeverRepeat walks each workload's sequence to
// exhaustion: no fresh spec may repeat, every one must have recorded
// counters, and an exhausted sequence stays exhausted.
func TestSequencesNeverRepeat(t *testing.T) {
	exp, err := loadExpectations("expected.tsv")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"full-sweep", "service-mix", "trace-replay"} {
		seq, err := newSequence(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for {
			jb, ok := seq.next()
			if !ok {
				break
			}
			if _, ok := exp.counters[jb.Key]; !ok {
				t.Fatalf("%s: no recorded counters for %s", w, jb.Key)
			}
			if jb.Kind != "repeat" && seen[jb.Key] {
				t.Fatalf("%s: %s repeats", w, jb.Key)
			}
			seen[jb.Key] = true
		}
		if _, ok := seq.next(); ok {
			t.Errorf("%s: sequence resumed after exhaustion", w)
		}
	}
}
