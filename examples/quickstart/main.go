// Quickstart: generate a human-airway mesh, run a small distributed CFPD
// simulation (fluid + particles) on simulated MPI ranks, and print the
// outcome. This is the minimal end-to-end use of the public API: the
// workload itself is the registered "quickstart" scenario, so this main
// cannot drift from the library (`respira fig -exp quickstart` runs
// the same code).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/scenario"
)

func main() {
	s, err := scenario.Default.Get(repro.ScenarioQuickstart)
	if err != nil {
		log.Fatal(err)
	}
	a, err := s.Run(context.Background(), scenario.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a.Text())
}
