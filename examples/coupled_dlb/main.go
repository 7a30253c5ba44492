// Coupled-mode + DLB mechanics on the host: runs the same simulation in
// synchronous mode and in several coupled f+p splits, with and without
// DLB, using the real lending implementation (pools resized whenever a
// rank parks in MPI). It prints wall-clock times and lending statistics.
//
// Do not expect DLB to win here: at this toy scale phases last
// microseconds, so a parked rank's cores are free elsewhere only briefly
// — the same trade-off that makes DLB pay off only when phases are long
// (the paper's production runs). The cluster-scale shapes of Figures 8-11 are
// regenerated by `go run ./cmd/respira fig -exp fig8`. The workload is
// the registered "coupled_dlb" scenario (`respira fig -exp coupled_dlb`
// runs the same code).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/scenario"
)

func main() {
	s, err := scenario.Default.Get(repro.ScenarioCoupledDLB)
	if err != nil {
		log.Fatal(err)
	}
	a, err := s.Run(context.Background(), scenario.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a.Text())
}
