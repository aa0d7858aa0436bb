package main

import (
	"flag"
	"strings"
	"testing"

	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
)

// drive runs the tool in-process.
func drive(t *testing.T, o options) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(o, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestVerifyCleanSweep: a seed sweep across all engines agrees, prints the
// zero-violations summary, and exits 0.
func TestVerifyCleanSweep(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 6
	}
	code, out, errOut := drive(t, options{seeds: n, engines: "tsx,tl2,coarse,fine"})
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "0 divergences, 0 serializability violations, 0 invariant violations, 0 failures") {
		t.Fatalf("missing clean summary:\n%s", out)
	}
	if !strings.Contains(out, "verify: OK") {
		t.Fatalf("missing OK footer:\n%s", out)
	}
}

// TestVerifyDeterministicOutput: same flags, same bytes — independent of the
// host worker count (results are reported in seed order).
func TestVerifyDeterministicOutput(t *testing.T) {
	do := func(parallel int) string {
		o := options{seeds: 8, engines: "tsx,tl2,coarse,fine", verbose: true}
		o.Parallel = parallel
		code, out, errOut := drive(t, o)
		if code != 0 {
			t.Fatalf("exit = %d: %s%s", code, out, errOut)
		}
		return out
	}
	a := do(1)
	b := do(8)
	if a != b {
		t.Fatalf("-parallel changed the output:\n%s\n---\n%s", a, b)
	}
}

// TestVerifyChaosDeterministic: under -chaos the sweep still agrees and
// stays byte-deterministic per seed.
func TestVerifyChaosDeterministic(t *testing.T) {
	do := func() string {
		o := options{seeds: 5, engines: "tsx,tl2,coarse,fine", verbose: true}
		o.ChaosSet = true
		o.ChaosSeed = 1
		code, out, errOut := drive(t, o)
		if code != 0 {
			t.Fatalf("exit = %d: %s%s", code, out, errOut)
		}
		return out
	}
	a := do()
	if !strings.Contains(a, "chaos: fault injection enabled (seed 1)") {
		t.Fatalf("missing chaos banner:\n%s", a)
	}
	if a != do() {
		t.Fatal("same chaos seed produced different output")
	}
}

// TestVerifyUsageErrors: bad flag values are usage errors — exit 2, message
// on stderr naming the valid values, nothing on stdout.
func TestVerifyUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"bad engine", options{seeds: 5, engines: "tsx,hle"}, `unknown engine "hle" (valid: tsx, tl2, coarse, fine)`},
		{"no engines", options{seeds: 5, engines: ","}, "no engines selected"},
		{"zero seeds", options{seeds: 0, engines: "tsx"}, "-seeds must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := drive(t, tc.o)
			if code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Fatalf("stderr %q does not mention %q", errOut, tc.want)
			}
			if out != "" {
				t.Fatalf("usage error wrote to stdout: %q", out)
			}
		})
	}
}

// TestVerifySingleEngine: a one-engine run still checks serializability
// (the per-engine oracle needs no second engine to compare against).
func TestVerifySingleEngine(t *testing.T) {
	o := options{seeds: 4, engines: "fine"}
	o.Options = runopts.Options{Parallel: 2}
	code, out, _ := drive(t, o)
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "4 seeds x fine:") {
		t.Fatalf("summary missing engine list:\n%s", out)
	}
}

// TestVerifyRejectsUnhonouredFlags: verify builds its machines itself and
// never opens the result cache or writes sidecars, so the flags that would
// ask it to — and the retry, journal and job-chaos flags that no binary has
// any more — are not defined: parsing fails naming the flag, which the
// command line turns into exit 2.
func TestVerifyRejectsUnhonouredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "/tmp/c"},
		{"-metrics"},
		{"-metricsout", "m.json"},
		{"-trace", "t.json"},
		{"-retries", "3"},
		{"-journal", "off"},
		{"-resume"},
		{"-jobchaos", "1"},
	} {
		t.Run(args[0], func(t *testing.T) {
			fs := flag.NewFlagSet("verify", flag.ContinueOnError)
			var usage strings.Builder
			fs.SetOutput(&usage)
			var o options
			register(fs, &o)
			err := fs.Parse(args)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
				t.Fatalf("err = %v, want an undefined-flag error naming %s", err, args[0])
			}
		})
	}
	// The flags verify does honour still parse.
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var o options
	register(fs, &o)
	if err := fs.Parse([]string{"-seeds", "3", "-poison", "seed/2", "-quarantine", "1", "-chaos", "4", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	o.Finish(fs)
	if o.seeds != 3 || o.Poison != "seed/2" || o.Quarantine != 1 || !o.ChaosSet || o.Parallel != 2 {
		t.Fatalf("parsed options = %+v", o)
	}
}

// TestVerifyPoisonContained: a seed that fails is reported in place and the
// rest of the sweep still cross-checks — degraded exit, not total failure,
// unless the quarantine cap says otherwise.
func TestVerifyPoisonContained(t *testing.T) {
	o := options{seeds: 9, engines: "tsx,fine"}
	o.Options = runopts.Options{Quarantine: 8, Poison: "seed/4"}
	code, out, errOut := drive(t, o)
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d (degraded)\nstdout:\n%s\nstderr:\n%s", code, exitDegraded, out, errOut)
	}
	for _, want := range []string{
		"seed    4 ERROR",
		runner.ErrPoisoned.Error(),
		"verify: 9 seeds x tsx,fine:",
		"verify: DEGRADED: 1 of 9 seeds errored (1 quarantined); the rest agree",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "verify: OK") || strings.Contains(out, "FAILED") {
		t.Fatalf("degraded run claimed OK or FAILED:\n%s", out)
	}

	// A zero quarantine cap turns the same degradation into a total failure.
	o.Quarantine = 0
	if code, _, _ := drive(t, o); code != exitTotalFailure {
		t.Fatalf("exit with quarantine cap 0 = %d, want %d", code, exitTotalFailure)
	}
}

// TestVerifySupervisionParallelDeterminism: a degraded sweep's stdout —
// errored seeds, verdicts and totals — is byte-identical at -parallel 1
// and 8.
func TestVerifySupervisionParallelDeterminism(t *testing.T) {
	do := func(parallel int) string {
		o := options{seeds: 12, engines: "tsx,fine", verbose: true}
		o.Options = runopts.Options{Parallel: parallel, Quarantine: 8, Poison: "seed/3,seed/11"}
		code, out, errOut := drive(t, o)
		if code != exitDegraded {
			t.Fatalf("exit = %d at -parallel %d\nstdout:\n%s\nstderr:\n%s", code, parallel, out, errOut)
		}
		return out
	}
	out1, out8 := do(1), do(8)
	if out1 != out8 {
		t.Fatalf("-parallel changed stdout:\n%s\n---\n%s", out1, out8)
	}
	if !strings.Contains(out1, "2 of 12 seeds errored (2 quarantined)") {
		t.Fatalf("stdout missing the quarantine count:\n%s", out1)
	}
}

// TestVerifyInterruptExitsResumable: with the interrupted flag raised (what
// the first SIGINT does), the sweep stops submitting seeds and exits 130
// without a verdict, saying a rerun starts over; the rerun completes the
// clean sweep.
func TestVerifyInterruptExitsResumable(t *testing.T) {
	o := options{seeds: 9, engines: "tsx,fine", verbose: true}
	interrupted.Store(true)
	code, out, errOut := drive(t, o)
	interrupted.Store(false)
	if code != exitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitInterrupted, errOut)
	}
	if strings.Contains(out, "verify: OK") {
		t.Fatalf("interrupted run printed a verdict:\n%s", out)
	}
	if !strings.Contains(errOut, "0 seed(s) done and 9 to go (no state is kept; a rerun starts over)") {
		t.Fatalf("stderr missing start-over note:\n%s", errOut)
	}
	if code, out, errOut := drive(t, o); code != 0 || !strings.Contains(out, "verify: OK") {
		t.Fatalf("rerun exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
