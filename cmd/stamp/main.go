// Command stamp regenerates the STAMP results: Figure 2 (normalized
// execution times for sgl/tl2/tsx), Table 1 (-aborts), one-off workload
// runs (-workload), the tsx abort-cause breakdown (-causes), and the
// retry-policy sweep of Section 3 (-retrysweep). It shares the experiment
// engine's flags: -parallel, -chaos, -cache (see internal/runopts).
package main

import (
	"flag"
	"fmt"
	"os"

	"tsxhpc/internal/experiments"
	"tsxhpc/internal/htm"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

func main() {
	var o runopts.Options
	runopts.Register(flag.CommandLine, &o)
	aborts := flag.Bool("aborts", false, "print Table 1 (abort rates) instead of Figure 2")
	causes := flag.Bool("causes", false, "print the tsx abort-cause breakdown (perf-style) at 4 threads")
	retries := flag.Bool("retrysweep", false, "print the Section 3 retry-budget sweep")
	workload := flag.String("workload", "", "run a single workload across modes/threads")
	flag.Parse()
	o.Finish(flag.CommandLine)

	suite, _, cleanup := o.Setup(os.Stderr)
	defer cleanup()
	o.Banner(os.Stdout)
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	switch {
	case *causes:
		// Submit every cell first so they fan out across workers; cells are
		// shared with Table 1 / Figure 2 (and prior runs, via the cache).
		var futs []runner.Future[stamp.Result]
		for _, name := range stamp.Names() {
			futs = append(futs, suite.StampCell(name, tm.TSX, 4))
		}
		fmt.Printf("%-10s %9s %9s %9s %9s %9s %9s\n",
			"workload", "conflict", "capacity", "syscall", "explicit", "lockbusy", "fallback")
		for i, name := range stamp.Names() {
			r, err := futs[i].Wait()
			fail(err)
			c := r.AbortCauses
			fmt.Printf("%-10s %9d %9d %9d %9d %9d %9d\n",
				name, c[htm.Conflict], c[htm.Capacity], c[htm.SyscallAbort],
				c[htm.Explicit], c[htm.LockBusy], r.Fallbacks)
		}
	case *retries:
		f, err := suite.RetrySweep([]int{1, 2, 3, 4, 5, 6, 8, 10})
		fail(err)
		fmt.Print(f.Render())
	case *aborts:
		t, err := suite.Table1()
		fail(err)
		fmt.Print(t.Render())
	case *workload != "":
		var futs []runner.Future[stamp.Result]
		for _, mode := range []tm.Mode{tm.SGL, tm.TL2, tm.TSX} {
			for _, th := range experiments.Threads {
				futs = append(futs, suite.StampCell(*workload, mode, th))
			}
		}
		i := 0
		for _, mode := range []tm.Mode{tm.SGL, tm.TL2, tm.TSX} {
			for _, th := range experiments.Threads {
				r, err := futs[i].Wait()
				i++
				fail(err)
				fmt.Printf("%s %s %dT: %d cycles, %.0f%% aborts\n",
					*workload, mode, th, r.Cycles, r.AbortRate)
			}
		}
	default:
		t, err := suite.Figure2()
		fail(err)
		fmt.Print(t.Render())
	}
	if err := o.WriteObservability("stamp", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
