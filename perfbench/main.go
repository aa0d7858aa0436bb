// Command perfbench is the repository's benchmark. It runs one workload of
// the reproduce catalog through the same public entry points cmd/reproduce
// uses (runopts.Options.Setup and the experiments.Suite section methods),
// one fresh worker process per pass, one host worker per pass, and prints
// the workload's metrics as one JSON line:
//
//	bash perfbench/run.sh --workload paper-cold --seed 0 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced passes; --trace 1
// reports the per-layer metrics from a traced run (spans, probe counters,
// a CPU profile folded by layer, and timed layer probes). Every section of
// every pass is checked against the committed capture (seed 0) or against
// the seed's own first result (nonzero seeds run under -chaos <seed>).
// README.md describes the workloads, the metrics and the noise.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tsxhpc/internal/sim"
)

// stateDir, relative to the checkout root, holds everything a run leaves
// behind: the warm and reference caches, adopted references for nonzero
// seeds, and the run records.
const stateDir = ".bench_build/state"

// runBudget bounds one invocation; workers still running at the deadline
// are killed and the run fails.
const runBudget = 170 * time.Second

// measureWorkers is the host worker count of every measured pass (the
// -parallel 1 equivalent): serial runs spread least on a small shared host,
// and serial events per CPU-second compare across hosts.
const measureWorkers = 1

// setupSamples is how many set-up-only workers each run starts, on top of
// the set-up of every measuring worker: half before the measured passes and
// half after, so the median spans the host's slower and faster spells.
const setupSamples = 30

// warmPassesPerWorker is how many back-to-back catalog passes one warm
// worker process makes (one pass takes tens of milliseconds).
const warmPassesPerWorker = 10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var o runOpts
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "scaling-cold, paper-cold or catalog-warm")
	fs.Int64Var(&o.seed, "seed", 0, "0: the committed catalog; nonzero: the catalog under -chaos <seed>")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads()[o.workload]; !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (scaling-cold, paper-cold, catalog-warm), --seed >= 0, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is recorded beside every result; records with different
// provenance are not compared. Worker processes report all fields but
// Workers, the orchestrator's setting (prep workers use every CPU).
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Scheduler  string `json:"scheduler"`
}

func currentProvenance() provenance {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "400"
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc, GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Scheduler: sim.SchedulerBackend(),
	}
}

// checkScheduler fails on a silent slow path: the portable channel
// scheduler on amd64, or a fast path that degraded at start-up.
func checkScheduler(r *ready) error {
	if r.Degraded != "" {
		return fmt.Errorf("scheduler degraded to the channel backend: %s", r.Degraded)
	}
	if r.Provenance.GOARCH == "amd64" && r.Provenance.Scheduler != "runtime-coro" {
		return fmt.Errorf("scheduler backend %q on amd64; the runtime-coro fast path is expected", r.Provenance.Scheduler)
	}
	return nil
}

// workerRun is everything one worker process reported.
type workerRun struct {
	ready   *ready
	passes  []passResult
	profile map[string]int64
	probes  map[string]float64
	gauge   float64
}

// bench holds one invocation's state.
type bench struct {
	ctx      context.Context
	exe      string
	opts     runOpts
	wl       workload
	exp      *expectations
	attempts int      // checks made: one per section per pass, plus run-level checks
	failures []string // one line per failed check
	prov     *provenance
	setups   []float64 // start of main until ready
	spans    []float64 // runopts Setup spans
	inits    []float64 // CPU before main
	gauges   []float64 // gauge CPU seconds, one per set-up-only worker
}

// spawn runs one worker process to completion and collects its messages.
func (b *bench) spawn(w workerSpec) (*workerRun, error) {
	cmd := exec.CommandContext(b.ctx, b.exe, w.args()...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &workerRun{}
	dec := json.NewDecoder(bufio.NewReader(stdout))
	var decodeErr error
	for {
		var m message
		if err := dec.Decode(&m); err != nil {
			if !errors.Is(err, io.EOF) {
				decodeErr = err
			}
			break
		}
		switch {
		case m.Ready != nil:
			run.ready = m.Ready
		case m.Pass != nil:
			run.passes = append(run.passes, *m.Pass)
		case m.Profile != nil:
			run.profile = m.Profile
		case m.Probes != nil:
			run.probes = m.Probes
		case m.Gauge != 0:
			run.gauge = m.Gauge
		}
	}
	_, _ = io.Copy(io.Discard, stdout) // drain so Wait cannot block on a full pipe
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("worker %s %s: %w", w.mode, w.workload, err)
	}
	if decodeErr != nil {
		return nil, fmt.Errorf("worker %s %s: %w", w.mode, w.workload, decodeErr)
	}
	if w.mode != modeProbes {
		if run.ready == nil {
			return nil, fmt.Errorf("worker %s %s reported no set-up", w.mode, w.workload)
		}
		if err := b.noteReady(run); err != nil {
			return nil, err
		}
	}
	if w.mode == modeSetup && run.gauge == 0 {
		return nil, fmt.Errorf("worker %s reported no gauge time", w.workload)
	}
	if w.mode == modePass && len(run.passes) != w.passes {
		return nil, fmt.Errorf("worker %s ran %d of %d passes", w.workload, len(run.passes), w.passes)
	}
	return run, nil
}

// noteReady checks a worker's scheduler and provenance and records its
// set-up time.
func (b *bench) noteReady(r *workerRun) error {
	if err := checkScheduler(r.ready); err != nil {
		return err
	}
	p := r.ready.Provenance
	if b.prov == nil {
		b.prov = &p
	} else if *b.prov != p {
		return fmt.Errorf("worker provenance changed within a run: %+v vs %+v", *b.prov, p)
	}
	return nil
}

// checkPass counts a pass's sections as attempted and records every
// mismatch against the expectations. A cold pass ran in catalog order with
// nothing cached, so its event counts must match; otherwise every cell must
// have been served from the cache.
func (b *bench) checkPass(p passResult, cold bool) {
	for _, s := range p.Sections {
		bad := b.exp.check(s, cold)
		b.verify(len(bad) == 0, "%s", strings.Join(bad, "; "))
	}
	if !cold {
		b.verify(p.Runner.Executed == 0 && p.Runner.CacheMisses == 0 && p.Runner.CacheInvalid == 0,
			"warm pass simulated %d cells (%d misses, %d invalid)", p.Runner.Executed, p.Runner.CacheMisses, p.Runner.CacheInvalid)
	}
}

// verify counts one check and records it as failed unless ok.
func (b *bench) verify(ok bool, format string, args ...any) {
	b.attempts++
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func run(o runOpts) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	declared, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{ctx: ctx, exe: exe, opts: o, wl: workloads()[o.workload]}
	// The set-up samples also learn the model fingerprint, which scopes
	// everything kept between runs.
	fp, err := b.sampleSetup(setupSamples / 2)
	if err != nil {
		return nil, err
	}
	if fp == "" {
		return nil, errors.New("the memo store could not be opened, so the build has no model fingerprint")
	}
	if b.exp, err = loadExpectations(".", stateDir, o.seed, fp); err != nil {
		return nil, err
	}
	gains, err := b.referenceGains()
	if err != nil {
		return nil, err
	}
	warmDir := ""
	if b.wl.warm {
		if warmDir, err = b.warmCache(fp); err != nil {
			return nil, err
		}
	}

	var m map[string]float64
	var passes []passResult
	if o.trace == 0 {
		if passes, err = b.untraced(warmDir, time.Duration(o.seconds)*time.Second); err != nil {
			return nil, err
		}
	} else if m, err = b.traced(warmDir); err != nil {
		return nil, err
	}
	if _, err := b.sampleSetup(setupSamples - setupSamples/2); err != nil {
		return nil, err
	}
	if o.trace == 0 {
		m = b.endToEnd(passes, gains)
	} else {
		m["host.gauge_s"] = median(b.gauges)
	}
	if err := b.exp.save(); err != nil {
		return nil, err
	}

	res := &result{Attempted: b.attempts, Failed: len(b.failures), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	want := declared.endToEnd
	if o.trace == 1 {
		want = declared.perLayer
	}
	for name, v := range m {
		unit, ok := want[name]
		if !ok || !validName(name) {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range want {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("declared metric %q was not measured", name)
		}
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	prov := *b.prov
	prov.Workers = measureWorkers
	fmt.Printf("provenance: workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d workers=%d gogc=%s go=%s scheduler=%s\n",
		o.workload, o.seed, o.trace, prov.NProc, prov.GOMAXPROCS, prov.Workers, prov.GOGC, prov.GoVersion, prov.Scheduler)
	if err := appendRecord(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Provenance: prov, Correct: res.Correct, Metrics: m}); err != nil {
		return nil, err
	}
	return res, nil
}

// sampleSetup starts n set-up-only workers, which also time the gauge, and
// returns the model fingerprint they report.
func (b *bench) sampleSetup(n int) (fingerprint string, err error) {
	for i := 0; i < n; i++ {
		r, err := b.measuring(workerSpec{mode: modeSetup}, "")
		if err != nil {
			return "", err
		}
		fingerprint = r.ready.Fingerprint
		b.gauges = append(b.gauges, r.gauge)
	}
	return fingerprint, nil
}

// measuring runs a worker with one host worker on the workload's cache:
// the warm cache, or a fresh empty directory (removed afterwards).
func (b *bench) measuring(w workerSpec, warmDir string) (*workerRun, error) {
	w.workload, w.seed, w.parallel = b.wl.name, b.opts.seed, measureWorkers
	if w.passes == 0 {
		w.passes = 1
	}
	switch {
	case warmDir != "":
		w.cache = warmDir
	case w.traced:
		// Probe counters need every cell simulated: the cache stays off.
	default:
		dir, err := os.MkdirTemp(stateDir, "cold-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		w.cache = dir
	}
	r, err := b.spawn(w)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, r.ready.Setup)
	b.spans = append(b.spans, r.ready.SetupSpan)
	b.inits = append(b.inits, r.ready.InitCPU)
	return r, nil
}

// untraced runs measuring workers, at least one, for as long as the next
// one is expected to end within the budget, and checks every pass.
func (b *bench) untraced(warmDir string, budget time.Duration) ([]passResult, error) {
	var passes []passResult
	start := time.Now()
	for {
		w := workerSpec{mode: modePass}
		if b.wl.warm {
			w.passes = warmPassesPerWorker
		}
		t0 := time.Now()
		r, err := b.measuring(w, warmDir)
		if err != nil {
			return nil, err
		}
		for _, p := range r.passes {
			b.checkPass(p, !b.wl.warm)
		}
		passes = append(passes, r.passes...)
		if time.Since(start)+time.Since(t0) > budget {
			return passes, nil
		}
	}
}

// referenceGains returns the fault-free E5 and E8 headline gains. They are a
// property of the model, not of the seed, so they come from the committed
// catalog's E5 and E8 (checked against the capture) under every seed and
// workload, served from a reference cache after the first run.
func (b *bench) referenceGains() (map[string]float64, error) {
	committed, err := loadExpectations(".", stateDir, 0, "")
	if err != nil {
		return nil, err
	}
	r, err := b.spawn(workerSpec{mode: modePass, workload: b.wl.name, sections: "E5,E8",
		cache: filepath.Join(stateDir, "ref-cache"), parallel: runtime.NumCPU(), passes: 1})
	if err != nil {
		return nil, err
	}
	p := r.passes[0]
	for _, s := range p.Sections {
		b.verify(s.Err == "" && s.Digest == committed.m[s.ID].Digest,
			"%s (fault-free reference): output differs from %s %s", s.ID, captureFile, s.Err)
	}
	for alias := range paperGains {
		if p.Gains[alias] == 0 {
			return nil, fmt.Errorf("reference pass reported no %s gain", alias)
		}
	}
	return p.Gains, nil
}

// warmCache returns the workload's filled cache directory for this seed,
// filling it on first use: a full catalog pass in catalog order into a
// fresh directory, checked like a cold pass and moved into place only when
// correct. The memo store keeps entries under the model fingerprint fp, so
// the cache counts as filled when that subdirectory exists. The fill is
// preparation and counts toward no metric.
func (b *bench) warmCache(fp string) (string, error) {
	dir := filepath.Join(stateDir, fmt.Sprintf("warm-seed%d", b.opts.seed))
	if _, err := os.Stat(filepath.Join(dir, fp)); err == nil {
		return dir, nil
	}
	tmp, err := os.MkdirTemp(stateDir, "warm-fill-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	r, err := b.spawn(workerSpec{mode: modePass, workload: b.wl.name, seed: b.opts.seed,
		cache: tmp, parallel: runtime.NumCPU(), passes: 1})
	if err != nil {
		return "", err
	}
	if r.ready.Fingerprint != fp {
		return "", fmt.Errorf("fill fingerprint %s, expected %s", r.ready.Fingerprint, fp)
	}
	before := len(b.failures)
	b.checkPass(r.passes[0], true)
	if len(b.failures) > before {
		return "", fmt.Errorf("warm cache fill failed its checks: %s", strings.Join(b.failures[before:], "; "))
	}
	if err := b.exp.save(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, os.Rename(filepath.Join(tmp, fp), filepath.Join(dir, fp))
}

// endToEnd computes the end-to-end metrics from untraced passes.
// The time metrics are scaled to the reference host's speed by the run's
// median gauge time; the unscaled figures are printed beside the result.
func (b *bench) endToEnd(passes []passResult, gains map[string]float64) map[string]float64 {
	host := median(b.gauges)
	wall := median(values(passes, func(p passResult) float64 { return p.Wall }))
	cpu := median(values(passes, func(p passResult) float64 { return p.CPU }))
	setup := median(b.setups)
	fmt.Printf("host (unscaled): gauge_s=%.6f wall_s=%.6f cpu_s=%.6f setup_s=%.6f\n", host, wall, cpu, setup)
	scale := gaugeRef / host
	return map[string]float64{
		"wall_s": wall * scale,
		"cpu_s":  cpu * scale,
		"events_per_cpu_s": median(values(passes, func(p passResult) float64 {
			if b.wl.warm {
				// Nothing simulates on a warm pass: the rate is the simulated
				// events the served catalog stands for, per CPU-second.
				return float64(b.exp.total(b.wl.sections)) / p.CPU
			}
			return float64(p.Events) / p.CPU
		})) / scale,
		"alloc_mb":              median(values(passes, func(p passResult) float64 { return float64(p.AllocBytes) / 1e6 })),
		"setup_s":               setup * scale,
		"paper_gap.e5_coarsen":  gap(gains["E5"], paperGains["E5"]),
		"paper_gap.e8_busywait": gap(gains["E8"], paperGains["E8"]),
	}
}

func gap(measured, paper float64) float64 {
	d := measured - paper
	if d < 0 {
		d = -d
	}
	return d / paper
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// declared is the metric list of BENCHMARK.json: name → unit.
type declared struct {
	endToEnd, perLayer map[string]string
}

func readDeclared(path string) (declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return declared{}, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return declared{}, fmt.Errorf("%s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d, nil
}
