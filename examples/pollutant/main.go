// Pollutant-inhalation scenario: unlike a single drug bolus, breathing
// polluted air injects particles continuously ("inject particles several
// times during the simulation", as the paper's Section 2.2 motivates for
// production runs). The workload — a synchronous coupling run that
// re-releases the dose every step — is the registered "pollutant"
// scenario (`respira fig -exp pollutant` runs the same code).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/scenario"
)

func main() {
	s, err := scenario.Default.Get(repro.ScenarioPollutant)
	if err != nil {
		log.Fatal(err)
	}
	a, err := s.Run(context.Background(), scenario.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a.Text())
}
