package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tsxhpc/internal/sim"
)

// TestDeterministicQuarantine: an error return, an error panic and a
// non-error panic each fail their future exactly once — the body is never
// rerun, since a pure function of the key would only fail again — and each
// failed key is listed once, sorted, while the engine keeps serving other
// jobs.
func TestDeterministicQuarantine(t *testing.T) {
	e := New(2)
	runs := map[Key]int{}
	bodies := map[Key]func() (int, error){
		"cell/c-error":    func() (int, error) { return 0, errors.New("validation failed") },
		"cell/b-errpanic": func() (int, error) { panic(errors.New("invariant broken")) },
		"cell/a-panic":    func() (int, error) { panic("untyped boom") },
	}
	for _, key := range []Key{"cell/c-error", "cell/b-errpanic", "cell/a-panic"} {
		body := bodies[key]
		_, err := Do(e, key, func() (int, error) { runs[key]++; return body() })
		if err == nil || !strings.Contains(err.Error(), string(key)) {
			t.Fatalf("%s: err = %v, want a failure naming the key", key, err)
		}
		// A second submission shares the failure; it neither reruns the body
		// nor lists the key twice.
		if _, again := Do(e, key, func() (int, error) { runs[key]++; return 1, nil }); again == nil || again.Error() != err.Error() {
			t.Fatalf("%s: resubmission = %v, want the shared failure %v", key, again, err)
		}
		if runs[key] != 1 {
			t.Fatalf("%s: body ran %d times, want 1", key, runs[key])
		}
	}
	if v, err := Do(e, "cell/good", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("healthy job after quarantine: %d, %v", v, err)
	}
	want := []Key{"cell/a-panic", "cell/b-errpanic", "cell/c-error"}
	if q := e.Quarantined(); !reflect.DeepEqual(q, want) {
		t.Fatalf("quarantined = %v, want %v", q, want)
	}
	if st := e.Stats(); st.Quarantined != 3 || st.Executed != 4 {
		t.Fatalf("stats = %+v, want 3 quarantined, 4 executed", st)
	}
}

// TestPanicClassification: every panic is a failure of its job alone. An
// error panic carrying a typed stall keeps the cause reachable through the
// chain; a non-error panic keeps its value in the message.
func TestPanicClassification(t *testing.T) {
	e := New(2)
	_, err := Do(e, "cell/stall", func() (int, error) { panic(&sim.StallError{Kind: sim.StallCycleBudget, Limit: 99}) })
	var se *sim.StallError
	if !errors.As(err, &se) || se.Limit != 99 {
		t.Fatalf("typed stall cause lost: %v", err)
	}
	_, err = Do(e, "cell/panic", func() (int, error) { panic("untyped boom") })
	if err == nil || !strings.Contains(err.Error(), `job "cell/panic" panicked: untyped boom`) {
		t.Fatalf("untyped panic: %v", err)
	}
	if q := e.Quarantined(); len(q) != 2 {
		t.Fatalf("quarantined = %v, want both panicking cells", q)
	}
}

// TestPoisonPrefix: a poisoned key fails with ErrPoisoned before the store
// probe — so even a cell the store holds a hit for fails — without counting
// as executed, while unpoisoned keys are untouched.
func TestPoisonPrefix(t *testing.T) {
	st := newFakeStore()
	st.entries["stamp/bayes/tsx/4T"] = 11
	st.entries["stamp/vacation/tsx/4T"] = 22
	e := New(2)
	e.SetStore(st)
	e.SetPoison([]string{"", "stamp/bayes"})
	_, err := Do(e, "stamp/bayes/tsx/4T", func() (int, error) { t.Error("poisoned body ran"); return 0, nil })
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned cell: err = %v, want ErrPoisoned", err)
	}
	if v, err := Do(e, "stamp/vacation/tsx/4T", func() (int, error) { t.Error("hit re-ran"); return 0, nil }); err != nil || v != 22 {
		t.Fatalf("unpoisoned cached cell = %d, %v", v, err)
	}
	if v, err := Do(e, "stamp/kmeans/tsx/4T", func() (int, error) { return 33, nil }); err != nil || v != 33 {
		t.Fatalf("unpoisoned fresh cell = %d, %v", v, err)
	}
	s := e.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 || s.Executed != 1 || s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 executed, 1 quarantined", s)
	}
	if q := e.Quarantined(); len(q) != 1 || q[0] != "stamp/bayes/tsx/4T" {
		t.Fatalf("quarantined = %v", q)
	}
}

// TestSupervisionDeterministicAcrossParallelism is the scheduling contract:
// which cells fail, and the quarantine list, are the same at -parallel 1 and
// -parallel 8.
func TestSupervisionDeterministicAcrossParallelism(t *testing.T) {
	run := func(workers int) ([]string, []Key) {
		e := New(workers)
		e.SetPoison([]string{"cell/5"})
		futs := make([]Future[int], 20)
		for i := range futs {
			futs[i] = Submit(e, Key(fmt.Sprintf("cell/%d", i)), func() (int, error) {
				if i%7 == 3 {
					return 0, fmt.Errorf("cell %d invalid", i)
				}
				return i, nil
			})
		}
		var outcomes []string
		for _, f := range futs {
			v, err := f.Wait()
			outcomes = append(outcomes, fmt.Sprint(v, err))
		}
		return outcomes, e.Quarantined()
	}
	out1, q1 := run(1)
	out8, q8 := run(8)
	if !reflect.DeepEqual(out1, out8) || !reflect.DeepEqual(q1, q8) {
		t.Fatalf("outcomes depend on parallelism:\nserial:   %v %v\nparallel: %v %v", out1, q1, out8, q8)
	}
	want := []Key{"cell/10", "cell/17", "cell/3", "cell/5"}
	if !reflect.DeepEqual(q1, want) {
		t.Fatalf("quarantined = %v, want %v", q1, want)
	}
}

// TestUnsupervisedEngineUnchanged: with no poison set and no failures, the
// engine reports no quarantine and its stats are those of the jobs alone.
func TestUnsupervisedEngineUnchanged(t *testing.T) {
	e := New(1)
	e.SetPoison(nil)
	for i := 0; i < 3; i++ {
		if v, err := Do(e, Key(fmt.Sprintf("ok/%d", i)), func() (evented, error) { return evented{n: 5}, nil }); err != nil || v.n != 5 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	want := Stats{Workers: 1, Executed: 3, Events: 15}
	if st := e.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if q := e.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined = %v, want none", q)
	}
}
