package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/probe"
	"tsxhpc/internal/runopts"
	"tsxhpc/internal/sim"
)

// Worker modes. Every measured pass runs in a fresh worker process, so no
// pass inherits another's heap, caches or coroutine pool.
const (
	modeSetup  = "setup"  // set up, report ready, run the gauge, exit
	modePass   = "pass"   // run the workload's sections -passes times
	modeProbes = "probes" // time the layer probes
)

// message is one JSON line a worker writes to its standard output.
type message struct {
	Ready   *ready             `json:"ready,omitempty"`
	Pass    *passResult        `json:"pass,omitempty"`
	Profile map[string]int64   `json:"profile,omitempty"` // CPU ns per layer
	Probes  map[string]float64 `json:"probes,omitempty"`
	Gauge   float64            `json:"gauge_s,omitempty"` // gauge's CPU seconds
}

// ready is sent once the first cell could be submitted.
type ready struct {
	Provenance provenance `json:"provenance"`
	// Setup is the wall time from the start of main until ready: runopts
	// Setup (the model/code fingerprint and opening the memo store) and
	// the scheduler and provenance checks.
	Setup     float64 `json:"setup_s"`
	SetupSpan float64 `json:"setup_span_s"` // runopts Setup alone
	// InitCPU is the CPU the process used before main: exec, the Go
	// runtime and package initialisation, including sim's coroutine
	// self-test. It is bimodal by host spell, so it is kept out of Setup.
	InitCPU  float64 `json:"init_cpu_s"`
	Degraded string  `json:"degraded,omitempty"`
	// Fingerprint scopes the memo store (simulator code, model, fault
	// plan); empty when the cache is off.
	Fingerprint string `json:"fingerprint,omitempty"`
}

type passResult struct {
	Wall       float64            `json:"wall_s"`
	CPU        float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Mallocs    uint64             `json:"mallocs"`
	GCCycles   uint32             `json:"gc_cycles"`
	Events     uint64             `json:"events"`
	Runner     runnerStats        `json:"runner"`
	Sections   []sectionResult    `json:"sections"`
	Gains      map[string]float64 `json:"gains,omitempty"`
	Counters   map[string]uint64  `json:"counters,omitempty"`
}

type runnerStats struct {
	Executed, Deduped, CacheHits, CacheMisses, CacheInvalid uint64
}

type sectionResult struct {
	ID      string  `json:"id"`
	Alias   string  `json:"alias"`
	Digest  string  `json:"digest,omitempty"`
	Events  uint64  `json:"events"`
	Seconds float64 `json:"seconds"`
	Err     string  `json:"err,omitempty"`
}

// workerSpec is what the orchestrator asks one worker process to do.
type workerSpec struct {
	mode     string
	workload string
	sections string // comma-separated aliases overriding the workload's
	seed     int64
	cache    string // "" runs with the persistent cache off
	parallel int
	// passes above 1 give every pass its own Suite and store handle, timed
	// inside the pass (the warm workload's unit of work): one suite would
	// serve a repeated pass from memory.
	passes int
	traced bool
}

func (w workerSpec) args() []string {
	return []string{"worker",
		"-mode", w.mode, "-workload", w.workload, "-sections", w.sections,
		"-seed", fmt.Sprint(w.seed), "-cache", w.cache, "-parallel", fmt.Sprint(w.parallel),
		"-passes", fmt.Sprint(w.passes), fmt.Sprintf("-traced=%t", w.traced)}
}

// processSettings applies the settings cmd/reproduce gives users: GOGC 400
// unless GOGC is set, and GOMAXPROCS no higher than the CPU count.
func processSettings() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
}

// Set when package main initialises, after every package it imports: the
// start of main for set-up timing, and the CPU spent before it.
var (
	mainStart = time.Now()
	initCPU   = cpuSeconds()
)

func workerMain(args []string) error {
	processSettings()
	var w workerSpec
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.StringVar(&w.mode, "mode", modePass, "setup, pass or probes")
	fs.StringVar(&w.workload, "workload", "", "workload name")
	fs.StringVar(&w.sections, "sections", "", "comma-separated section aliases (overrides the workload's)")
	fs.Int64Var(&w.seed, "seed", 0, "0: committed catalog; else the -chaos seed")
	fs.StringVar(&w.cache, "cache", "", "persistent cache directory (empty: off)")
	fs.IntVar(&w.parallel, "parallel", 1, "host workers")
	fs.IntVar(&w.passes, "passes", 1, "passes to run")
	fs.BoolVar(&w.traced, "traced", false, "CPU profile, plus probe counters unless warm")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if w.mode == modeProbes {
		m, err := layerProbes()
		if err != nil {
			return err
		}
		return out.Encode(message{Probes: m})
	}
	secs, err := w.sectionList()
	if err != nil {
		return err
	}

	opts := runopts.Options{Parallel: w.parallel, Cache: w.cache, ChaosSeed: w.seed, ChaosSet: w.seed != 0}
	if opts.Cache == "" {
		opts.Cache = runopts.CacheOff
	}
	// Probe counters disable the cache (a cached cell never simulates), so
	// a traced pass over cached cells keeps to the profile and spans.
	opts.Metrics = w.traced && w.cache == ""
	t0 := time.Now()
	suite, store, cleanup := opts.Setup(os.Stderr)
	rd := ready{Provenance: currentProvenance(), SetupSpan: time.Since(t0).Seconds(), InitCPU: initCPU}
	if store != nil {
		rd.Fingerprint = store.Fingerprint()
	}
	if degraded, why := sim.SchedulerDegraded(); degraded {
		rd.Degraded = why
	}
	rd.Setup = time.Since(mainStart).Seconds()
	if err := out.Encode(message{Ready: &rd}); err != nil {
		cleanup()
		return err
	}
	if w.mode == modeSetup {
		cleanup()
		return out.Encode(message{Gauge: gauge()})
	}

	var prof bytes.Buffer
	if w.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			cleanup()
			return err
		}
	}
	fresh := w.passes > 1
	for i := 0; i < w.passes; i++ {
		var res passResult
		if fresh {
			cleanup()
			res = measure(func(r *passResult) {
				suite, _, cleanup = opts.Setup(os.Stderr)
				runSections(suite, secs, r)
			})
		} else {
			res = measure(func(r *passResult) { runSections(suite, secs, r) })
		}
		if opts.Metrics {
			res.Counters = map[string]uint64{}
			for _, c := range probe.GlobalSnapshot().Counters {
				res.Counters[c.Name] = c.Value
			}
		}
		if err := out.Encode(message{Pass: &res}); err != nil {
			cleanup()
			return err
		}
	}
	cleanup()
	if w.traced {
		pprof.StopCPUProfile()
		folded, err := foldProfile(prof.Bytes())
		if err != nil {
			return err
		}
		return out.Encode(message{Profile: folded})
	}
	return nil
}

func (w workerSpec) sectionList() ([]section, error) {
	if w.sections != "" {
		return sectionsByAlias(splitList(w.sections)...), nil
	}
	wl, ok := workloads()[w.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", w.workload)
	}
	return wl.sections, nil
}

// measure times one pass: host wall and CPU seconds, and the Go heap's
// allocation and collection counts.
func measure(run func(*passResult)) passResult {
	var res passResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	run(&res)
	res.Wall = time.Since(t0).Seconds()
	res.CPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs
	res.GCCycles = after.NumGC - before.NumGC
	return res
}

// runSections runs secs in order on suite, recording a span, the simulated
// event count and a digest of the rendered body for each.
func runSections(suite *experiments.Suite, secs []section, res *passResult) {
	st0 := suite.E.Stats()
	for _, s := range secs {
		ev0 := suite.E.Stats().Events
		t0 := time.Now()
		body, gain, err := runSection(s, suite)
		r := sectionResult{ID: s.id, Alias: s.alias, Seconds: time.Since(t0).Seconds(), Events: suite.E.Stats().Events - ev0}
		if err != nil {
			r.Err = err.Error()
		} else {
			r.Digest = digest(body)
		}
		if gain != 0 {
			if res.Gains == nil {
				res.Gains = map[string]float64{}
			}
			res.Gains[s.alias] = gain
		}
		res.Sections = append(res.Sections, r)
	}
	st := suite.E.Stats()
	res.Events = st.Events - st0.Events
	res.Runner = runnerStats{
		Executed: st.Executed - st0.Executed, Deduped: st.Deduped - st0.Deduped,
		CacheHits: st.CacheHits - st0.CacheHits, CacheMisses: st.CacheMisses - st0.CacheMisses,
		CacheInvalid: st.CacheInvalid - st0.CacheInvalid,
	}
}

// runSection runs one section, turning a panic into an error as
// cmd/reproduce does.
func runSection(s section, suite *experiments.Suite) (body string, gain float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = fmt.Errorf("section panicked: %w", e)
			} else {
				err = fmt.Errorf("section panicked: %v", p)
			}
		}
	}()
	return s.run(suite)
}

// cpuSeconds is the process's user+system CPU time, all threads included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
