// Command apps regenerates the real-world workload results: Figure 4
// (baseline / tsx.init / tsx.coarsen speedups, default) and the Figure 5
// conflict-free/granularity comparisons (-fig5a, -fig5b). It shares the
// experiment engine's flags: -parallel, -chaos, -cache (see
// internal/runopts).
package main

import (
	"flag"
	"fmt"
	"os"

	"tsxhpc/internal/runopts"
)

func main() {
	var o runopts.Options
	runopts.Register(flag.CommandLine, &o)
	fig5a := flag.Bool("fig5a", false, "print Figure 5a (histogram: atomic vs privatize vs tsx granularities)")
	fig5b := flag.Bool("fig5b", false, "print Figure 5b (physicsSolver: mutex vs barrier vs tsx granularities)")
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
	case *fig5a:
		f, err := suite.Figure5a()
		fail(err)
		fmt.Print(f.Render())
	case *fig5b:
		f, err := suite.Figure5b()
		fail(err)
		fmt.Print(f.Render())
	default:
		t, gain, err := suite.Figure4()
		fail(err)
		fmt.Print(t.Render())
		fmt.Printf("\ntsx.coarsen over baseline at 8 threads (geomean): %.2fx (paper: 1.41x mean)\n", gain)
	}
	if err := o.WriteObservability("apps", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
