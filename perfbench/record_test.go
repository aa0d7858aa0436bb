package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecords(t *testing.T, rs ...record) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	path := filepath.Join(t.TempDir(), "records.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesDifferentProvenance(t *testing.T) {
	prov := provenance{NProc: 2, GOMAXPROCS: 2, Workers: 1, GOGC: "400", GoVersion: "go1.24.0", GOARCH: "amd64", Scheduler: "runtime-coro"}
	rec := func(p provenance, wall float64) record {
		return record{Workload: "paper-cold", Provenance: p, Correct: true, Metrics: map[string]float64{"wall_s": wall}}
	}
	base := writeRecords(t, rec(prov, 10), rec(prov, 12), rec(prov, 11))
	same := writeRecords(t, rec(prov, 9), rec(prov, 10))

	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, same}, &out, &errOut); code != 0 {
		t.Fatalf("same provenance: exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "-13.64%") {
		t.Errorf("comparison output lacks the wall_s change (11 -> 9.5): %q", out.String())
	}

	for _, change := range []func(*provenance){
		func(p *provenance) { p.NProc = 4 },
		func(p *provenance) { p.GOGC = "100" },
		func(p *provenance) { p.Scheduler = "channel" },
		func(p *provenance) { p.GoVersion = "go1.25.0" },
	} {
		other := prov
		change(&other)
		cand := writeRecords(t, rec(other, 10))
		out.Reset()
		errOut.Reset()
		if code := compareMain([]string{base, cand}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "refusing") {
			t.Errorf("provenance %+v: exit %d, stderr %q; want a refusal", other, code, errOut.String())
		}
	}
}

// TestCompareKeepsSeedsApart: a chaos seed does other work than seed 0, so
// runs of different seeds are never pooled into one median.
func TestCompareKeepsSeedsApart(t *testing.T) {
	prov := provenance{NProc: 2, GOMAXPROCS: 2, Workers: 1, GOGC: "400", GoVersion: "go1.24.0", GOARCH: "amd64", Scheduler: "runtime-coro"}
	rec := func(seed int64, wall float64) record {
		return record{Workload: "scaling-cold", Seed: seed, Provenance: prov, Correct: true, Metrics: map[string]float64{"wall_s": wall}}
	}
	base := writeRecords(t, rec(0, 10), rec(7, 20), rec(0, 10), rec(7, 20))
	cand := writeRecords(t, rec(0, 11), rec(7, 22), rec(7, 22), rec(9, 50))

	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, cand}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"scaling-cold seed=0 trace=0 (2 baseline runs, 1 candidate runs)",
		"scaling-cold seed=7 trace=0 (2 baseline runs, 2 candidate runs)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	// Each seed moved by +10%. Pooled, the medians would read 15 -> 22
	// (+46.67%), from seed 7 run twice and seed 9 only on one side.
	if strings.Count(got, "+10.00%") != 2 || strings.Contains(got, "seed=9") {
		t.Errorf("want a +10%% change per seed and no unmatched seed 9:\n%s", got)
	}
}

// TestCheckScheduler: the channel backend on amd64 and a degraded fast path
// fail the run instead of reading as a program regression.
func TestCheckScheduler(t *testing.T) {
	cases := []struct {
		arch, backend, degraded string
		ok                      bool
	}{
		{"amd64", "runtime-coro", "", true},
		{"arm64", "channel", "", true},
		{"amd64", "channel", "", false},
		{"amd64", "channel", "self-test failed", false},
	}
	for _, c := range cases {
		r := &ready{Provenance: provenance{GOARCH: c.arch, Scheduler: c.backend}, Degraded: c.degraded}
		if err := checkScheduler(r); (err == nil) != c.ok {
			t.Errorf("%s/%s degraded=%q: err %v, want ok=%v", c.arch, c.backend, c.degraded, err, c.ok)
		}
	}
}
