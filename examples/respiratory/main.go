// Respiratory drug-delivery scenario: the paper's headline use case at
// laptop scale. A 10-micron aerosol bolus is injected through the face
// during a rapid inhalation; the run reports where particles end up
// (airway-wall deposition vs deep-lung arrival) and the per-phase load
// balance that motivates the paper's runtime techniques. The workload is
// the registered "respiratory" scenario (`respira fig -exp
// respiratory` runs the same code).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/scenario"
)

func main() {
	s, err := scenario.Default.Get(repro.ScenarioRespiratory)
	if err != nil {
		log.Fatal(err)
	}
	a, err := s.Run(context.Background(), scenario.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a.Text())
}
