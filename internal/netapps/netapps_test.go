package netapps

import (
	"testing"

	"tsxhpc/internal/core"
	"tsxhpc/internal/harness"
)

// TestAllAppsAllModesValidate is the correctness gate: every workload
// delivers every byte in order under every locking-module implementation
// (Run validates stream integrity internally).
func TestAllAppsAllModesValidate(t *testing.T) {
	for _, name := range Names() {
		for _, mode := range Modes {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				if _, err := Run(name, mode); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := Run("nope", core.ModeMutex); err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run("netferret", core.ModeTSXCond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("netferret", core.ModeTSXCond)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.ReadCycles != b.ReadCycles {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// bw returns the bandwidth of app under mode, normalized to mutex.
func bw(t *testing.T, name string, mode core.LockMode) float64 {
	t.Helper()
	ref, err := Run(name, core.ModeMutex)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(name, mode)
	if err != nil {
		t.Fatal(err)
	}
	return r.Bandwidth() / ref.Bandwidth()
}

// TestFigure6AbortOnCondVarHurtsFerret pins Section 6.2: unconditionally
// aborting on condition-variable operations drops performance on netferret
// (many small packets), while the bulk-transfer workloads barely notice.
func TestFigure6AbortOnCondVarHurtsFerret(t *testing.T) {
	ferret := bw(t, "netferret", core.ModeTSXAbort)
	if ferret >= 0.97 {
		t.Errorf("netferret tsx.abort = %.2fx mutex, expected a drop", ferret)
	}
	for _, name := range []string{"netstreamcluster", "netdedup"} {
		if v := bw(t, name, core.ModeTSXAbort); v < 0.9 {
			t.Errorf("%s tsx.abort = %.2fx mutex, expected near parity", name, v)
		}
	}
}

// TestFigure6TransactionAwareCondVar pins the tsx.cond result: better than
// tsx.abort on netferret, with some benefit over mutex, and near mutex on
// the others (overall average similar to mutex).
func TestFigure6TransactionAwareCondVar(t *testing.T) {
	ferretCond := bw(t, "netferret", core.ModeTSXCond)
	ferretAbort := bw(t, "netferret", core.ModeTSXAbort)
	if ferretCond <= ferretAbort {
		t.Errorf("netferret: tsx.cond (%.2f) should beat tsx.abort (%.2f)", ferretCond, ferretAbort)
	}
	if ferretCond < 1.0 {
		t.Errorf("netferret: tsx.cond (%.2f) should provide some benefit over mutex", ferretCond)
	}
}

// TestFigure6BusyWaiting pins the headline result: busy waiting removes the
// futex sleep/wake delay from the critical path; the TSX-elided stack with
// busy waiting improves every workload and beats the mutex busy-wait
// variant, averaging ~1.3x over mutex (paper: 1.31x).
func TestFigure6BusyWaiting(t *testing.T) {
	var gains []float64
	for _, name := range Names() {
		mbw := bw(t, name, core.ModeMutexBusyWait)
		tbw := bw(t, name, core.ModeTSXBusyWait)
		if tbw < 0.99 {
			t.Errorf("%s: tsx.busywait = %.2fx mutex, expected improvement", name, tbw)
		}
		if tbw < mbw-0.02 {
			t.Errorf("%s: tsx.busywait (%.2f) should be at least mutex.busywait (%.2f)", name, tbw, mbw)
		}
		gains = append(gains, tbw)
	}
	avg := harness.Mean(gains)
	if avg < 1.15 || avg > 1.55 {
		t.Errorf("tsx.busywait average gain %.2fx, want in the neighborhood of the paper's 1.31x", avg)
	}
}

func TestBandwidthMetric(t *testing.T) {
	r := Result{Bytes: 4000, ReadCycles: 2000}
	if got := r.Bandwidth(); got != 2000 {
		t.Fatalf("Bandwidth = %v", got)
	}
	if (Result{}).Bandwidth() != 0 {
		t.Fatal("zero Result should have 0 bandwidth")
	}
}

// TestScaleExactPins pins two cheap A6 cells' full ScaleResult: the
// rendered A6 table rounds bandwidth, so an altered handoff order could
// otherwise pass unseen. One cell elides through TSX at 16 cores, the other
// runs 64 cores with per-connection locks (128 contexts).
func TestScaleExactPins(t *testing.T) {
	mods := map[string]ScaleModule{}
	for _, m := range ScaleModules {
		mods[m.Name] = m
	}
	for _, want := range []ScaleResult{
		{Cores: 16, Clients: 10000, Module: "tsx",
			Bytes: 2560000, ReadCycles: 981977, Cycles: 981977, Events: 300284},
		{Cores: 64, Clients: 1000, Module: "fine-grained",
			Bytes: 4096000, ReadCycles: 365994, Cycles: 365994, Events: 243350},
	} {
		got, err := RunScale(want.Cores, want.Clients, mods[want.Module])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
}
