package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
)

// These tests drive the whole tool in-process through run(). They must not
// run in parallel with each other: run() may install process-wide
// sim.RunDefaults (restored on return).

// TestRunSubsetSucceeds is the plain path: a fast subset reproduces cleanly,
// exit code 0, section headers present, success footer intact.
func TestRunSubsetSucceeds(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "A3", benchPath: ""}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "--- ablation: lockset elision ---") {
		t.Fatalf("missing section header:\n%s", s)
	}
	if !strings.Contains(s, "reproduced all experiments in") {
		t.Fatalf("missing success footer:\n%s", s)
	}
}

// TestRunUnknownOnly checks usage errors: an unknown selector is a distinct
// exit code with the valid ids listed, and nothing runs.
func TestRunUnknownOnly(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "E99", benchPath: ""}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown experiment "E99"`) {
		t.Fatalf("stderr does not name the bad selector: %s", msg)
	}
	// The error must teach the fix: every catalog alias listed, in order.
	aliases := make([]string, 0, len(catalog))
	for _, ex := range catalog {
		aliases = append(aliases, ex.alias)
	}
	if want := "(valid: " + strings.Join(aliases, ", ") + ")"; !strings.Contains(msg, want) {
		t.Fatalf("stderr %q does not list the valid ids %q", msg, want)
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected stdout: %s", out.String())
	}
}

// TestRunCycleBudgetContainment is the graceful-degradation contract at the
// CLI level: an impossibly small virtual-cycle budget fails each selected
// experiment in place — typed stall message with per-thread states — while
// the run completes, lists the failures, and exits non-zero.
func TestRunCycleBudgetContainment(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{Options: runopts.Options{MaxCycles: 100_000}, only: "E9,A3", benchPath: ""}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "FAILED:"); got != 2 {
		t.Fatalf("FAILED sections = %d, want 2 (one per selected experiment):\n%s", got, s)
	}
	for _, want := range []string{
		// The dump names the thread that tripped the budget in the headline
		// ("last running tN"); per-thread lines report runnable/blocked/done —
		// the scheduler does not track a separate "running" state.
		"virtual-cycle budget of 100000 exceeded (last running t",
		"state=runnable",
		"failures:",
		"reproduced with 2 failed experiment(s) in",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "reproduced all experiments") {
		t.Fatalf("success footer printed despite failures:\n%s", s)
	}
}

// TestRunChaosDeterministic checks the -chaos contract: same seed, same
// stdout (the host-time footer excepted — it is compared structurally).
func TestRunChaosDeterministic(t *testing.T) {
	render := func(seed int64) string {
		var out, errOut strings.Builder
		code := run(options{Options: runopts.Options{ChaosSet: true, ChaosSeed: seed}, only: "A3", benchPath: ""}, &out, &errOut)
		if code != 0 {
			t.Fatalf("chaos run exit = %d: %s%s", code, out.String(), errOut.String())
		}
		s := out.String()
		if !strings.Contains(s, "chaos: fault injection enabled (seed") {
			t.Fatalf("missing chaos banner:\n%s", s)
		}
		// Strip the wall-clock footer before comparing.
		i := strings.LastIndex(s, "\nreproduced all experiments in")
		return s[:i]
	}
	a := render(7)
	b := render(7)
	if a != b {
		t.Fatalf("same chaos seed produced different output:\n%s\n---\n%s", a, b)
	}
}

// stripFooter removes the run-variant host-time footer: everything above it
// is the byte-comparable experiment output.
func stripFooter(t *testing.T, s string) string {
	t.Helper()
	i := strings.LastIndex(s, "\nreproduced all experiments in")
	if i < 0 {
		t.Fatalf("missing success footer:\n%s", s)
	}
	return s[:i]
}

func readBench(t *testing.T, path string) benchReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunWarmColdFullCatalog is the headline cache contract over the whole
// catalog: a second run against a populated cache simulates nothing — every
// cell is served from disk — and its stdout is byte-identical to the cold
// run's, while the bench report records the cold/warm pair with the hit
// counts.
func TestRunWarmColdFullCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog (twice) is too slow for -short")
	}
	cache := t.TempDir()
	bench := filepath.Join(t.TempDir(), "bench.json")
	do := func() (string, benchReport) {
		var out, errOut strings.Builder
		if code := run(options{Options: runopts.Options{Cache: cache}, benchPath: bench}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return out.String(), readBench(t, bench)
	}
	coldOut, coldRep := do()
	if coldRep.CacheHits != 0 || coldRep.JobsExecuted == 0 {
		t.Fatalf("cold run report = %+v, want 0 hits and >0 executed", coldRep)
	}
	warmOut, warmRep := do()
	if stripFooter(t, coldOut) != stripFooter(t, warmOut) {
		t.Fatal("warm stdout differs from cold stdout")
	}
	if warmRep.JobsExecuted != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", warmRep.JobsExecuted)
	}
	if warmRep.CacheHits == 0 || warmRep.CacheMisses != 0 || warmRep.CacheInvalid != 0 {
		t.Fatalf("warm run cache counts = %d/%d/%d, want all hits",
			warmRep.CacheHits, warmRep.CacheMisses, warmRep.CacheInvalid)
	}
	if warmRep.ColdSeconds != coldRep.ColdSeconds || warmRep.WarmSeconds <= 0 {
		t.Fatalf("bench did not record the cold/warm pair: cold %.3f→%.3f, warm %.3f",
			coldRep.ColdSeconds, warmRep.ColdSeconds, warmRep.WarmSeconds)
	}
	// Entry decoding is ~three orders of magnitude faster than simulating;
	// 10x leaves generous headroom for a noisy CI host.
	if warmRep.WarmSeconds > coldRep.ColdSeconds/10 {
		t.Fatalf("warm run not >=10x faster: cold %.3fs, warm %.3fs", coldRep.ColdSeconds, warmRep.WarmSeconds)
	}
}

// TestRunBenchWarmCarriesEventStats: a fully cache-served run simulates
// nothing, so its own event counters are zero — the warm report must carry
// the cold run's total_sim_events / events_per_second forward rather than
// clobber them (the bench ratchet reads these fields from the committed
// report).
func TestRunBenchWarmCarriesEventStats(t *testing.T) {
	cache := t.TempDir()
	bench := filepath.Join(t.TempDir(), "bench.json")
	do := func() benchReport {
		var out, errOut strings.Builder
		o := options{
			Options:   runopts.Options{Cache: cache},
			only:      "A3",
			benchPath: bench,
			// Partial run: force the report so the test stays fast.
			benchForce: true,
		}
		if code := run(o, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return readBench(t, bench)
	}
	cold := do()
	if cold.JobsExecuted == 0 || cold.TotalSimEvents == 0 || cold.EventsPerSec <= 0 {
		t.Fatalf("cold run recorded no simulation work: %+v", cold)
	}
	warm := do()
	if warm.JobsExecuted != 0 || warm.CacheHits == 0 {
		t.Fatalf("second run was not fully cache-served: %+v", warm)
	}
	if warm.TotalSimEvents != cold.TotalSimEvents || warm.EventsPerSec != cold.EventsPerSec {
		t.Fatalf("warm run clobbered event stats: cold %d @ %.0f ev/s, warm %d @ %.0f ev/s",
			cold.TotalSimEvents, cold.EventsPerSec, warm.TotalSimEvents, warm.EventsPerSec)
	}
	// The per-experiment rows must carry too, not just the totals: a
	// cache-served section's own event counter is zero, and the report used
	// to record that zero over the cold run's real count.
	if len(warm.Experiments) != len(cold.Experiments) || len(cold.Experiments) == 0 {
		t.Fatalf("experiment rows: cold %d, warm %d", len(cold.Experiments), len(warm.Experiments))
	}
	for i, row := range warm.Experiments {
		if row.SimEvents == 0 || row.SimEvents != cold.Experiments[i].SimEvents {
			t.Fatalf("experiment %s sim_events: cold %d, warm %d",
				row.ID, cold.Experiments[i].SimEvents, row.SimEvents)
		}
	}
}

// TestRunChaosSeedIsolation: different chaos seeds produce different model
// fingerprints, so runs never share cache entries — and equal seeds do.
func TestRunChaosSeedIsolation(t *testing.T) {
	cache := t.TempDir()
	benchDir := t.TempDir()
	do := func(seed int64, name string) benchReport {
		var out, errOut strings.Builder
		bench := filepath.Join(benchDir, name)
		o := options{
			Options:   runopts.Options{Cache: cache, ChaosSet: true, ChaosSeed: seed},
			only:      "A3",
			benchPath: bench,
			// A partial run: the report is only written because it is forced.
			benchForce: true,
		}
		if code := run(o, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return readBench(t, bench)
	}
	first := do(1, "b1.json")
	if first.CacheHits != 0 {
		t.Fatalf("first seed-1 run hit %d entries in an empty cache", first.CacheHits)
	}
	other := do(2, "b2.json")
	if other.CacheHits != 0 {
		t.Fatalf("seed-2 run shared %d entries with seed 1", other.CacheHits)
	}
	if other.Fingerprint == first.Fingerprint {
		t.Fatal("seeds 1 and 2 share a model fingerprint")
	}
	again := do(1, "b3.json")
	if again.CacheHits == 0 || again.JobsExecuted != 0 {
		t.Fatalf("repeat seed-1 run did not reuse its entries: %+v", again)
	}
}

// TestRunBenchPartialGuard: a -only subset must not clobber the
// full-catalog bench record unless forced.
func TestRunBenchPartialGuard(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	if code := run(options{only: "A3", benchPath: bench}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if _, err := os.Stat(bench); err == nil {
		t.Fatal("partial run wrote the bench file without -benchforce")
	}
	if !strings.Contains(errOut.String(), "partial (-only) run") {
		t.Fatalf("missing skip note on stderr: %s", errOut.String())
	}
	errOut.Reset()
	if code := run(options{only: "A3", benchPath: bench, benchForce: true}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	rep := readBench(t, bench)
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "ablation: lockset elision" {
		t.Fatalf("forced partial report = %+v", rep.Experiments)
	}
}

// TestRunTimeout checks the host wall-clock budget: a budget no experiment
// can meet fails the section with a timeout cause and a non-zero exit.
func TestRunTimeout(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{only: "E2", benchPath: "", timeout: time.Nanosecond}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "host wall-clock budget exceeded") {
		t.Fatalf("missing timeout cause:\n%s", out.String())
	}
}

// TestRunPoisonQuarantineDegraded: a poisoned cell prefix fails its section
// while the other section reproduces; the run lists the quarantined cells
// on stdout and exits with the degraded code, distinct from total failure.
func TestRunPoisonQuarantineDegraded(t *testing.T) {
	var out, errOut strings.Builder
	o := options{
		Options: runopts.Options{Quarantine: 8, Poison: "lockset/"},
		only:    "E9,A3",
	}
	code := run(o, &out, &errOut)
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d (degraded); stderr: %s", code, exitDegraded, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "FAILED:"); got != 1 {
		t.Fatalf("FAILED sections = %d, want 1 (A3 only):\n%s", got, s)
	}
	for _, want := range []string{
		"quarantined cells",
		"\n  lockset/",
		runner.ErrPoisoned.Error(),
		"reproduced with 1 failed experiment(s) in",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("stdout missing %q:\n%s", want, s)
		}
	}

	// Same scenario with a zero quarantine cap: the same degradation now
	// counts as a total failure.
	out.Reset()
	errOut.Reset()
	o.Quarantine = 0
	if code := run(o, &out, &errOut); code != exitTotalFailure {
		t.Fatalf("exit with quarantine cap 0 = %d, want %d", code, exitTotalFailure)
	}
}

// cleanSubset is the stdout of an uninterrupted, fault-free, uncached run
// of E9 and A3, footer stripped: the reference every resumed run must match.
func cleanSubset(t *testing.T) string {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(options{only: "E9,A3"}, &out, &errOut); code != 0 {
		t.Fatalf("clean run exit = %d; stderr: %s", code, errOut.String())
	}
	return stripFooter(t, out.String())
}

// rerunFromCache reruns E9 and A3 on cache and returns the footer-stripped
// stdout and the bench report, failing unless the run exits 0.
func rerunFromCache(t *testing.T, cache string) (string, benchReport) {
	t.Helper()
	var out, errOut strings.Builder
	bench := filepath.Join(t.TempDir(), "bench.json")
	o := options{Options: runopts.Options{Cache: cache}, only: "E9,A3", benchPath: bench, benchForce: true}
	if code := run(o, &out, &errOut); code != 0 {
		t.Fatalf("rerun exit = %d; stderr: %s", code, errOut.String())
	}
	return stripFooter(t, out.String()), readBench(t, bench)
}

// TestRunResumeByteIdentity: a run that fails partway has already stored
// every completed cell in the result cache, so a rerun on the same cache
// serves those cells from disk, simulates only the rest, and prints stdout
// byte-identical to an uninterrupted run.
func TestRunResumeByteIdentity(t *testing.T) {
	clean := cleanSubset(t)
	cache := t.TempDir()
	var out, errOut strings.Builder
	o := options{Options: runopts.Options{Cache: cache, Quarantine: 8, Poison: "lockset/"}, only: "E9,A3"}
	if code := run(o, &out, &errOut); code != exitDegraded {
		t.Fatalf("poisoned run exit = %d, want %d; stderr: %s", code, exitDegraded, errOut.String())
	}
	got, rep := rerunFromCache(t, cache)
	if got != clean {
		t.Fatalf("rerun stdout differs from uninterrupted run:\n--- clean ---\n%s\n--- rerun ---\n%s", clean, got)
	}
	if rep.CacheHits == 0 || rep.JobsExecuted == 0 {
		t.Fatalf("rerun = %d cache hits, %d executed; want E9 served and A3 simulated", rep.CacheHits, rep.JobsExecuted)
	}
}

// interruptAfterFirstSection makes the section loop see the interrupted
// flag (what the first SIGINT raises) once E9, the first selected section,
// has finished. The returned func restores the catalog and the flag.
func interruptAfterFirstSection() (restore func()) {
	orig := catalog
	catalog = append([]experiment(nil), orig...)
	for i := range catalog {
		if catalog[i].alias == "E9" {
			body := catalog[i].run
			catalog[i].run = func(s *experiments.Suite) (string, error) {
				defer interrupted.Store(true)
				return body(s)
			}
		}
	}
	return func() {
		catalog = orig
		interrupted.Store(false)
	}
}

// TestRunInterruptExitsResumable: interrupted after one section, the run
// exits 130 without a completion footer. With the cache on it points at the
// cache, and a rerun on the same cache serves the finished section from
// disk with byte-identical stdout; with the cache off it says a rerun starts
// over.
func TestRunInterruptExitsResumable(t *testing.T) {
	clean := cleanSubset(t)
	interrupt := func(cache string) (string, string) {
		restore := interruptAfterFirstSection()
		var out, errOut strings.Builder
		code := run(options{Options: runopts.Options{Cache: cache}, only: "E9,A3"}, &out, &errOut)
		restore()
		if code != exitInterrupted {
			t.Fatalf("exit = %d, want %d; stderr: %s", code, exitInterrupted, errOut.String())
		}
		if strings.Contains(out.String(), "reproduced") || !strings.Contains(out.String(), "--- E9 ---") {
			t.Fatalf("interrupted run should print E9 and no footer:\n%s", out.String())
		}
		return out.String(), errOut.String()
	}

	_, errOut := interrupt(runopts.CacheOff)
	if !strings.Contains(errOut, "1 section(s) to go (cache off; a rerun starts over)") {
		t.Fatalf("stderr missing start-over note: %s", errOut)
	}

	cache := t.TempDir()
	_, errOut = interrupt(cache)
	if !strings.Contains(errOut, "1 section(s) done and 1 to go; rerun with the same -cache to continue") {
		t.Fatalf("stderr missing cache resume hint: %s", errOut)
	}
	got, rep := rerunFromCache(t, cache)
	if got != clean {
		t.Fatalf("post-interrupt rerun differs from a clean run:\n--- clean ---\n%s\n--- rerun ---\n%s", clean, got)
	}
	if rep.CacheHits == 0 {
		t.Fatalf("rerun served nothing from the cache: %+v", rep)
	}
}

// TestRunFullCatalogContainment: under a virtual-cycle budget no cell can
// meet, every section of the catalog fails in place with the typed budget
// cause, the failure summary lists each one, and the run is a total failure.
func TestRunFullCatalogContainment(t *testing.T) {
	var out, errOut strings.Builder
	code := run(options{Options: runopts.Options{MaxCycles: 1_000}, benchPath: ""}, &out, &errOut)
	if code != exitTotalFailure {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitTotalFailure, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "FAILED:"); got != len(catalog) {
		t.Fatalf("FAILED sections = %d, want %d (every section):\n%s", got, len(catalog), s)
	}
	for _, ex := range catalog {
		if !strings.Contains(s, "\n  "+ex.id+": ") {
			t.Fatalf("failure summary does not list %s:\n%s", ex.id, s)
		}
	}
	if !strings.Contains(s, "virtual-cycle budget of 1000 exceeded") {
		t.Fatalf("missing the typed budget cause:\n%s", s)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from this run")

// metricsLines renders a sidecar's counters and histograms one per line,
// leaving out the provenance fields (toolchain, scheduler, parallelism).
func metricsLines(rep runopts.MetricsReport) string {
	var b strings.Builder
	for _, c := range rep.Counters {
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	for _, h := range rep.Hists {
		fmt.Fprintf(&b, "hist %s count=%d sum=%d buckets=%v\n", h.Name, h.Count, h.Sum, h.Buckets)
	}
	return b.String()
}

// metricsChildEnv, when set, makes TestRunMetricsGolden the probed run
// itself, writing its sidecar to the named path.
const metricsChildEnv = "REPRODUCE_METRICS_GOLDEN_OUT"

// TestRunMetricsGolden pins the probed sidecar of E5, A4 and A5, which
// between them touch every counter family (htm, tl2 with its gv lag
// histogram, both elision sites, the adaptive coarsener, virtual-time
// phases and the L1 plane), against testdata/metrics_E5_A4_A5.golden.
// The run happens in a child process: sections abandoned by earlier tests
// (TestRunTimeout, TestRunFullCatalogContainment) keep simulating in this
// one, and machines they build once probes are armed would join the
// sidecar. Regenerate with:
//
//	go test ./cmd/reproduce -run TestRunMetricsGolden -update
func TestRunMetricsGolden(t *testing.T) {
	if path := os.Getenv(metricsChildEnv); path != "" {
		var out, errOut strings.Builder
		o := options{Options: runopts.Options{Metrics: true, MetricsOut: path}, only: "E5,A4,A5", benchForce: true}
		if code := run(o, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
		}
		return
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	child := exec.Command(os.Args[0], "-test.run=^TestRunMetricsGolden$")
	child.Env = append(os.Environ(), metricsChildEnv+"="+path)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("probed run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep runopts.MetricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	got := metricsLines(rep)
	golden := filepath.Join("testdata", "metrics_E5_A4_A5.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("sidecar differs from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("sidecar has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
