// Command rmstm regenerates Figure 3: RMS-TM speedups under fine-grained
// locks, a single global lock, and TSX elision — with native memory
// management and file I/O inside critical sections. It shares the
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
	flag.Parse()
	o.Finish(flag.CommandLine)

	suite, _, cleanup := o.Setup(os.Stderr)
	defer cleanup()
	o.Banner(os.Stdout)

	t, err := suite.Figure3()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(t.Render())
	if err := o.WriteObservability("rmstm", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
