// Quickstart: build a small simulated cluster, run the same Sort job
// with and without DYRS migration, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"dyrs"
)

func main() {
	for _, policy := range []dyrs.Policy{dyrs.PolicyHDFS, dyrs.PolicyDYRS} {
		// A 7-worker cluster like the paper's testbed. The same seed
		// gives both policies identical block placement and timing.
		env := dyrs.NewEnv(policy, dyrs.DefaultOptions(1))

		// 4 GB of cold input data sitting on disk.
		if err := env.CreateInput("clickstream-2026-07-04", 4*dyrs.GB); err != nil {
			log.Fatal(err)
		}

		// A Sort job over it, asking for its input (only DYRS moves it).
		// ExtraLeadTime simulates the job queueing before its tasks
		// launch — the window DYRS uses to move the input into memory.
		spec := dyrs.SortSpec("clickstream-2026-07-04", 8)
		spec.ExtraLeadTime = 10 * time.Second

		job, err := env.RunJob(spec)
		if err != nil {
			log.Fatal(err)
		}

		memReads := 0
		for _, task := range job.Tasks {
			if task.Source.FromMemory() {
				memReads++
			}
		}
		fmt.Printf("%-20s map phase %6.1fs, end-to-end %6.1fs, %d/%d blocks read from memory\n",
			policy, job.MapPhase().Seconds(), job.Duration().Seconds(), memReads, len(job.Tasks))
	}
}
