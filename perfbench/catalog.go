package main

import (
	"fmt"

	"tsxhpc/internal/experiments"
)

// section is one reproduce section: id is the header cmd/reproduce prints
// (and reproduce_output.txt holds), alias the short selector used in metric
// names, and run renders the body through the same experiments.Suite method
// and format cmd/reproduce uses. gain is the section's headline figure where
// it has one (E5, E8), else 0.
type section struct {
	id, alias string
	run       func(*experiments.Suite) (body string, gain float64, err error)
}

type renderer interface{ Render() string }

// rendered adapts a one-result Suite method to section.run.
func rendered[T renderer](f func(*experiments.Suite) (T, error)) func(*experiments.Suite) (string, float64, error) {
	return func(s *experiments.Suite) (string, float64, error) {
		r, err := f(s)
		if err != nil {
			return "", 0, err
		}
		return r.Render(), 0, nil
	}
}

// catalog lists the sections in cmd/reproduce's order; the bodies must stay
// byte-identical to what cmd/reproduce prints, which the capture check
// enforces.
var catalog = []section{
	{"E1", "E1", rendered((*experiments.Suite).Figure1)},
	{"E2", "E2", rendered((*experiments.Suite).Figure2)},
	{"E3", "E3", rendered((*experiments.Suite).Table1)},
	{"E4", "E4", rendered((*experiments.Suite).Figure3)},
	{"E5", "E5", func(s *experiments.Suite) (string, float64, error) {
		t, gain, err := s.Figure4()
		if err != nil {
			return "", 0, err
		}
		return t.Render() + fmt.Sprintf("tsx.coarsen over baseline @8T (geomean): %.2fx (paper: 1.41x mean)\n", gain), gain, nil
	}},
	{"E6", "E6", rendered((*experiments.Suite).Figure5a)},
	{"E7", "E7", rendered((*experiments.Suite).Figure5b)},
	{"E8", "E8", func(s *experiments.Suite) (string, float64, error) {
		t, gain, err := s.Figure6()
		if err != nil {
			return "", 0, err
		}
		return t.Render() + fmt.Sprintf("tsx.busywait average gain over mutex: %.2fx (paper: 1.31x)\n", gain), gain, nil
	}},
	{"E9", "E9", rendered(func(s *experiments.Suite) (renderer, error) {
		return s.RetrySweep([]int{1, 2, 3, 4, 5, 6, 8, 10})
	})},
	{"ablation: HT capacity", "A1", rendered((*experiments.Suite).HTCapacityAblation)},
	{"ablation: conflict wiring", "A2", rendered((*experiments.Suite).ConflictWiringAblation)},
	{"ablation: lockset elision", "A3", rendered((*experiments.Suite).LocksetAblation)},
	{"ablation: adaptive coarsening", "A4", rendered((*experiments.Suite).AdaptiveCoarseningAblation)},
	{"abort anatomy", "A5", func(s *experiments.Suite) (string, float64, error) {
		body, err := s.AbortAnatomy()
		return body, 0, err
	}},
	{"model anatomy", "A7", rendered((*experiments.Suite).ModelAnatomy)},
	{"scaling curves", "A6", func(s *experiments.Suite) (string, float64, error) {
		cores, clients, err := s.ScalingCurve()
		if err != nil {
			return "", 0, err
		}
		return cores.Render() + clients.Render(), 0, nil
	}},
}

// paperGains are the paper's headline values the E5 and E8 gains are judged
// against (the only reference values the repository holds).
var paperGains = map[string]float64{"E5": 1.41, "E8": 1.31}

// workload names the sections one benchmark workload runs.
type workload struct {
	name     string
	sections []section
	// warm serves every cell from a cache filled during preparation.
	warm bool
}

func workloads() map[string]workload {
	var paper, scaling []section
	for _, s := range catalog {
		if s.alias == "A6" {
			scaling = append(scaling, s)
		} else {
			paper = append(paper, s)
		}
	}
	return map[string]workload{
		"scaling-cold": {name: "scaling-cold", sections: scaling},
		"paper-cold":   {name: "paper-cold", sections: paper},
		"catalog-warm": {name: "catalog-warm", sections: catalog, warm: true},
	}
}

// sectionsByAlias selects catalog sections by alias, in catalog order.
func sectionsByAlias(aliases ...string) []section {
	want := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		want[a] = true
	}
	var out []section
	for _, s := range catalog {
		if want[s.alias] {
			out = append(out, s)
		}
	}
	return out
}
