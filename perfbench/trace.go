package main

import (
	"maps"
	"regexp"
	"time"
)

// traced is the --trace 1 run. It makes untraced passes first (the
// denominator of trace.overhead, and the source of spans, runner counts and
// Go heap counts), then two traced worker processes (CPU profile, plus
// probe counters on the cold workloads, whose two counter sets must be
// identical), then the layer probes.
func (b *bench) traced(warmDir string) (map[string]float64, error) {
	var budget time.Duration // cold: a single untraced pass
	if b.wl.warm {
		budget = time.Duration(b.opts.seconds) * time.Second / 2
	}
	plain, err := b.untraced(warmDir, budget)
	if err != nil {
		return nil, err
	}
	var tracedPasses []passResult
	var counterSets []map[string]uint64
	cpuNs := map[string]int64{}
	for i := 0; i < 2; i++ {
		w, workers := workerSpec{mode: modePass, traced: true}, 1
		if b.wl.warm {
			// Ten workers of the untraced batch size, so the profile of
			// passes this short still gathers a few hundred samples and the
			// traced passes run as warm as the untraced ones.
			w.passes, workers = warmPassesPerWorker, 10
		}
		for j := 0; j < workers; j++ {
			r, err := b.measuring(w, warmDir)
			if err != nil {
				return nil, err
			}
			for _, p := range r.passes {
				b.checkPass(p, !b.wl.warm)
			}
			tracedPasses = append(tracedPasses, r.passes...)
			if j == 0 {
				counterSets = append(counterSets, r.passes[0].Counters)
			}
			for layer, ns := range r.profile {
				cpuNs[layer] += ns
			}
		}
	}
	b.verify(maps.Equal(counterSets[0], counterSets[1]), "the two traced runs produced different counter sets")
	pr, err := b.spawn(workerSpec{mode: modeProbes})
	if err != nil {
		return nil, err
	}
	m := layerMetrics(plain, tracedPasses, cpuNs)
	maps.Copy(m, pr.probes)
	m["span_s.setup"] = median(b.spans)
	m["init.cpu_s"] = median(b.inits)
	return m, nil
}

// layerMetrics derives the per-layer metrics other than the layer probes
// and the set-up span.
func layerMetrics(plain, traced []passResult, cpuNs map[string]int64) map[string]float64 {
	m := map[string]float64{}
	var total int64
	for _, ns := range cpuNs {
		total += ns
	}
	for _, l := range layers {
		m[l+".cpu_share"] = ratio(float64(cpuNs[l]), float64(total))
	}

	c := counterSum(traced[0].Counters)
	m["sim.events"] = float64(traced[0].Events)
	for _, k := range []string{"hits", "misses", "transfers", "invalidations", "evictions"} {
		m["l1."+k] = c(`^l1/` + k + `$`)
	}
	m["l1.hit_ratio"] = ratio(m["l1.hits"], m["l1.hits"]+m["l1.misses"])
	// The default HTM model counts under htm/, the others under htm/<model>/.
	htm := func(rest string) float64 { return c(`^htm/([a-z]+/)?` + rest + `$`) }
	m["htm.starts"], m["htm.commits"] = htm("starts"), htm("commits")
	for _, cause := range []string{"conflict", "capacity", "lock-busy"} {
		m["htm.aborts."+cause] = htm("abort/" + cause)
	}
	m["htm.aborts.other"] = htm("abort/(explicit|spurious|syscall|none)")
	m["htm.commit_ratio"] = ratio(m["htm.commits"], m["htm.starts"])
	m["tl2.starts"], m["tl2.commits"], m["tl2.aborts"] = c(`^tl2/starts$`), c(`^tl2/commits$`), c(`^tl2/abort/`)
	m["tl2.commit_ratio"] = ratio(m["tl2.commits"], m["tl2.starts"])
	m["tsx.fallbacks"] = c(`^tsx/site/[^/]+/fallbacks$`)
	// Virtual-time phases per engine (the per-thread rows are their parts).
	phases := c(`^vt/[^/]+/(other|txn|wasted|serial|spin|wait)$`)
	m["vt.spin_share"] = ratio(c(`^vt/[^/]+/spin$`), phases)
	m["vt.wait_share"] = ratio(c(`^vt/[^/]+/wait$`), phases)

	pick := func(f func(passResult) float64) []float64 { return values(plain, f) }
	m["runner.cells_executed"] = median(pick(func(p passResult) float64 { return float64(p.Runner.Executed) }))
	m["runner.cells_deduped"] = median(pick(func(p passResult) float64 { return float64(p.Runner.Deduped) }))
	m["runner.cache_hits"] = median(pick(func(p passResult) float64 { return float64(p.Runner.CacheHits) }))
	m["runner.cache_misses"] = median(pick(func(p passResult) float64 { return float64(p.Runner.CacheMisses) }))
	for _, s := range catalog {
		m["section_s."+s.alias] = median(pick(func(p passResult) float64 {
			for _, r := range p.Sections {
				if r.ID == s.id {
					return r.Seconds
				}
			}
			return 0 // not part of this workload
		}))
	}
	m["gc.cycles"] = mean(pick(func(p passResult) float64 { return float64(p.GCCycles) }))
	m["alloc.objects"] = median(pick(func(p passResult) float64 { return float64(p.Mallocs) }))
	wall := func(p passResult) float64 { return p.Wall }
	m["trace.overhead"] = ratio(median(values(traced, wall)), median(values(plain, wall)))
	return m
}

// values maps f over passes.
func values(ps []passResult, f func(passResult) float64) []float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	return vs
}

// counterSum returns a function summing every counter whose name matches a
// pattern; a nil set (a warm pass simulates nothing) sums to 0.
func counterSum(set map[string]uint64) func(pattern string) float64 {
	return func(pattern string) float64 {
		re := regexp.MustCompile(pattern)
		var n uint64
		for name, v := range set {
			if re.MatchString(name) {
				n += v
			}
		}
		return float64(n)
	}
}

// ratio is num/den, or 0 when den is 0 (no attempts, no samples).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
