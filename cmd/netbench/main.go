// Command netbench regenerates Figure 6: server-side read bandwidth of the
// network-intensive workloads over the user-level TCP/IP stack, for the
// five locking-module implementations. It shares the experiment engine's
// flags: -parallel, -chaos, -cache (see internal/runopts).
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

	t, gain, err := suite.Figure6()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(t.Render())
	fmt.Printf("\ntsx.busywait average bandwidth gain over mutex: %.2fx (paper: 1.31x)\n", gain)
	if err := o.WriteObservability("netbench", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
