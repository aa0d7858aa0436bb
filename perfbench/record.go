package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// recordsFile collects one JSON line per run, with its provenance.
var recordsFile = filepath.Join(stateDir, "records.jsonl")

type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      int                `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Metrics    map[string]float64 `json:"metrics"`
}

func appendRecord(r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(recordsFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain compares two record files (a baseline and a candidate,
// typically records.jsonl from two checkouts) by workload, seed and mode:
// seeds do different work, so only runs of one seed are pooled. It prints the
// median of each metric on both sides, the candidate's change against the
// baseline median, and each side's interquartile spread as a share of its
// median. It refuses (exit 2) when the records' provenance differs, since
// then a difference says nothing about the program.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASELINE.jsonl CANDIDATE.jsonl")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		sides[i] = rs
	}
	type group struct {
		workload string
		seed     int64
		trace    int
	}
	byGroup := [2]map[group][]record{{}, {}}
	provs := map[provenance]bool{}
	for i, rs := range sides {
		for _, r := range rs {
			if !r.Correct {
				continue
			}
			provs[r.Provenance] = true
			g := group{r.Workload, r.Seed, r.Trace}
			byGroup[i][g] = append(byGroup[i][g], r)
		}
	}
	if len(provs) > 1 {
		fmt.Fprintln(stderr, "perfbench compare: refusing to compare records with different provenance:")
		for p := range provs {
			fmt.Fprintf(stderr, "  %+v\n", p)
		}
		return 2
	}
	var groups []group
	for g := range byGroup[0] {
		if len(byGroup[1][g]) > 0 {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return a.trace < b.trace
	})
	for _, g := range groups {
		base, cand := byGroup[0][g], byGroup[1][g]
		fmt.Fprintf(stdout, "%s seed=%d trace=%d (%d baseline runs, %d candidate runs)\n", g.workload, g.seed, g.trace, len(base), len(cand))
		var names []string
		for name := range base[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bv, cv := metricValues(base, name), metricValues(cand, name)
			bm, cm := median(bv), median(cv)
			fmt.Fprintf(stdout, "  %-26s %14.6g -> %14.6g  %+7.2f%%  spread %s -> %s\n",
				name, bm, cm, 100*ratio(cm-bm, bm), spreadText(bv), spreadText(cv))
		}
	}
	return 0
}

func metricValues(rs []record, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func spreadText(vs []float64) string {
	s, err := spread(vs)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*s)
}
