// Adaptivity example: visualize how DYRS's per-node migration-time
// estimate tracks disk interference that switches on and off (the
// behaviour behind Fig. 9), using an ASCII strip chart.
//
//	go run ./examples/adaptivity
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"dyrs"
	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

func main() {
	env := dyrs.NewEnv(dyrs.PolicyDYRS, dyrs.DefaultOptions(1))

	// Interference on node 1 that alternates every 15 seconds — like the
	// paper's custom interference generator.
	cluster.StartAlternating(env.Eng, env.Cl.Node(1), 2, 2.5, 15*time.Second, true)

	// A steady stream of migrations keeps the estimators fed.
	if err := env.CreateInput("cold-data", 40*dyrs.GB); err != nil {
		log.Fatal(err)
	}
	if err := env.Coord.Migrate(1, []string{"cold-data"}, false); err != nil {
		log.Fatal(err)
	}
	env.Eng.RunUntil(sim.Time(2 * time.Minute))

	fmt.Println("DYRS per-block migration-time estimate (node1 under alternating interference,")
	fmt.Println("node3 undisturbed); one column per heartbeat, height = estimate in seconds:")
	fmt.Println()
	for _, node := range []cluster.NodeID{1, 3} {
		points := env.Coord.EstimateSeries(node).Points()
		var peak float64
		for _, p := range points {
			if p.V > peak {
				peak = p.V
			}
		}
		fmt.Printf("node%d (peak %.1fs):\n", node, peak)
		for level := 4; level >= 1; level-- {
			threshold := peak * float64(level) / 5
			var row strings.Builder
			for _, p := range points {
				if p.V >= threshold {
					row.WriteByte('#')
				} else {
					row.WriteByte(' ')
				}
			}
			fmt.Printf("  %5.1fs |%s\n", threshold, row.String())
		}
		fmt.Printf("         +%s\n\n", strings.Repeat("-", len(points)))
	}
	fmt.Println("The node1 estimate rises within a few heartbeats of interference starting")
	fmt.Println("(the in-progress update of paper §IV-A) and falls as soon as migrations")
	fmt.Println("complete quickly again. Algorithm 1 steers pending work accordingly.")
}
