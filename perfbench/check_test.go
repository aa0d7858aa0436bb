package main

import (
	"strings"
	"testing"
)

func TestSplitCapture(t *testing.T) {
	out := "chaos: fault injection enabled (seed 3)\n" +
		"\n--- E1 ---\nline one\nline two\n" +
		"\n--- ablation: HT capacity ---\n== table ==\n\nafter a blank line\n" +
		"\nreproduced all experiments in 1.0s (host time)\n"
	got, err := splitCapture(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"E1":                    "line one\nline two\n",
		"ablation: HT capacity": "== table ==\n\nafter a blank line\n",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d: %q", len(got), len(want), got)
	}
	for id, body := range want {
		if got[id] != body {
			t.Errorf("%s = %q, want %q", id, got[id], body)
		}
	}
	for _, bad := range []string{
		"no sections at all\n",
		"\n--- E1 ---\nbody\n",                               // no footer
		"\n--- E1 ---\na\n\n--- E1 ---\nb\n\nreproduced x\n", // repeated section
	} {
		if _, err := splitCapture(bad); err == nil {
			t.Errorf("splitCapture(%q): want an error", bad)
		}
	}
}

// TestCommittedExpectations reads the repository's committed capture and
// bench record: every catalog section is present, and the cold event counts
// are the committed ones (A6 alone, the rest of the catalog summed).
func TestCommittedExpectations(t *testing.T) {
	exp, err := loadExpectations("..", t.TempDir(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	wls := workloads()
	if got := exp.total(wls["scaling-cold"].sections); got != 62_839_189 {
		t.Errorf("scaling-cold events = %d, want 62839189", got)
	}
	if got := exp.total(wls["paper-cold"].sections); got != 79_460_402 {
		t.Errorf("paper-cold events = %d, want 79460402", got)
	}
	if n := len(wls["catalog-warm"].sections); n != len(catalog) || len(exp.m) != len(catalog) {
		t.Errorf("catalog-warm runs %d sections, expectations hold %d, catalog has %d", n, len(exp.m), len(catalog))
	}
}

func TestExpectationsCheck(t *testing.T) {
	committed := &expectations{m: map[string]expected{"E1": {Digest: digest("body\n"), Events: 10}}}
	ok := sectionResult{ID: "E1", Digest: digest("body\n"), Events: 10}
	if bad := committed.check(ok, true); len(bad) != 0 {
		t.Errorf("matching cold section flagged: %v", bad)
	}
	cases := []struct {
		name string
		r    sectionResult
		cold bool
		want string
	}{
		{"body", sectionResult{ID: "E1", Digest: digest("other\n"), Events: 10}, true, "rendered output differs"},
		{"events", sectionResult{ID: "E1", Digest: ok.Digest, Events: 11}, true, "11 simulated events, reference 10"},
		{"served", sectionResult{ID: "E1", Digest: ok.Digest, Events: 3}, false, "cache-served"},
		{"error", sectionResult{ID: "E1", Err: "stalled"}, true, "failed: stalled"},
		{"unknown", sectionResult{ID: "E2", Digest: ok.Digest}, true, "no reference"},
	}
	for _, c := range cases {
		bad := committed.check(c.r, c.cold)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, ";"), c.want) {
			t.Errorf("%s: got %v, want a mismatch mentioning %q", c.name, bad, c.want)
		}
	}
	if bad := committed.check(sectionResult{ID: "E1", Digest: ok.Digest}, false); len(bad) != 0 {
		t.Errorf("cache-served section with no events flagged: %v", bad)
	}

	// A nonzero seed adopts its first cold result and holds later passes to it.
	dir := t.TempDir()
	seeded, err := loadExpectations("..", dir, 7, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if bad := seeded.check(ok, true); len(bad) != 0 {
		t.Errorf("first cold result not adopted: %v", bad)
	}
	if err := seeded.save(); err != nil {
		t.Fatal(err)
	}
	again, err := loadExpectations("..", dir, 7, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if bad := again.check(sectionResult{ID: "E1", Digest: ok.Digest, Events: 12}, true); len(bad) == 0 {
		t.Error("a repeat run with different events passed")
	}
	if bad := again.check(sectionResult{ID: "E5", Digest: ok.Digest}, false); len(bad) == 0 {
		t.Error("a cache-served section with no reference was adopted")
	}
}
